"""Mod-2 polynomial algebra over the cohomology of a torus.

H*(T^k; Z2) is the exterior algebra on degree-1 generators t1..tk, encoded
by bitmask subsets so that ti^2 = 0 holds structurally.  A term may carry a
power of the degree-1 Borel generator u, which class data refuses; Theorem
B's Euler class w_b + w_{b-1} u is text that check_theorem_B writes.
"""

import itertools

from ._frozen import frozen
from .errors import InvalidSetting, ModeMismatch


@frozen
class ExtPoly:
    """A mod-2 polynomial: set of terms (generator bitmask, u power)."""

    k: int
    terms: frozenset = frozenset()

    def __post_init__(self):
        if type(self.k) is not int or self.k < 0:
            raise InvalidSetting(f"k {self.k!r} must be an int >= 0")
        try:   # a term that is not a pair of ints fails in the walk
            self.__dict__["terms"] = terms = frozenset(self.terms)
            bad = [mask for mask, up in terms
                   if mask >> self.k or up < 0 or type(up) is not int]
        except (TypeError, ValueError):
            raise InvalidSetting(f"terms {self.terms!r} are not (mask, "
                                 f"power) pairs over k = {self.k!r}") from None
        if bad:
            raise InvalidSetting("mask wider than k or u power not an int >= 0")

    # constructors

    @classmethod
    def zero(cls, k):
        return cls(k, frozenset())

    @classmethod
    def one(cls, k):
        return cls(k, frozenset({(0, 0)}))

    @classmethod
    def t(cls, k, i):
        if not 1 <= i <= k:
            raise InvalidSetting(f"t{i} undefined for k={k}")
        return cls(k, frozenset({(1 << (i - 1), 0)}))

    @classmethod
    def u(cls, k, power=1):
        return cls(k, frozenset({(0, power)}))

    # predicates and views

    def __bool__(self):
        return bool(self.terms)

    # arithmetic

    def _check(self, other):
        if self.k != other.k:
            raise ModeMismatch(
                f"incompatible rings: k={self.k} vs k={other.k}")

    def __add__(self, other):
        self._check(other)
        return ExtPoly(self.k, self.terms ^ other.terms)

    def __mul__(self, other):
        self._check(other)
        acc = set()
        for m1, u1 in self.terms:
            for m2, u2 in other.terms:
                if not m1 & m2:  # ti^2 = 0
                    acc ^= {(m1 | m2, u1 + u2)}
        return ExtPoly(self.k, frozenset(acc))

    # rendering

    def render(self):
        """Canonical text form: terms sorted by u-degree, then subset."""
        if not self.terms:
            return "0"
        def term_str(term):
            mask, up = term
            # the set bits, lowest first: linear in k
            factors = [f"t{i}" for i, bit in enumerate(bin(mask)[:1:-1], 1)
                       if bit == "1"]
            if up:
                factors.append("u" if up == 1 else f"u^{up}")
            return "*".join(factors) if factors else "1"
        ordered = sorted(self.terms, key=lambda t: (t[1], t[0]))
        return " + ".join(term_str(t) for t in ordered)


@frozen
class BundleClassData:
    """Rank plus total characteristic class data of a (virtual) bundle.

    sw[i] is the degree-(i+1) class: a sum of products of i + 1 t's, with
    no u, as class data lives on T^k alone.  Not a field: `classes`, degree
    -> class for w_0 = 1 and each nonzero class.
    """

    k: int
    rank: int
    sw: tuple = ()

    def __post_init__(self):
        d = self.__dict__
        if type(self.rank) is not int or self.rank < 0:
            raise InvalidSetting(f"rank {self.rank!r} must be an int >= 0")
        try:   # an sw that is not iterable fails here
            d["sw"] = tuple(self.sw)
        except TypeError:
            raise InvalidSetting(f"sw {self.sw!r} is not a sequence") from None
        for i, w in enumerate(self.sw, 1):
            if not isinstance(w, ExtPoly):
                raise InvalidSetting(f"w{i} = {w!r} is not an ExtPoly")
            if w.k != self.k:
                raise ModeMismatch("class data over the wrong torus")
            check_pure(w, i)
        d["classes"] = {0: ExtPoly.one(self.k), **{
            i: w for i, w in enumerate(self.sw, 1) if w}}


def check_pure(w, i):
    """InvalidSetting unless each term of w is a product of i t's, no u."""
    if any(up or mask.bit_count() != i for mask, up in w.terms):
        raise InvalidSetting(f"w{i} must be a pure base class of degree {i}")


def line_sum_w(k, i):
    """w_i of k real lines, line j with w1 = tj, plus any trivial bundle.

    The total class is the product of (1 + tj), so w_i is the elementary
    symmetric polynomial e_i(t1..tk): 1 at i = 0, 0 unless 0 <= i <= k,
    and otherwise C(k, i) terms, built without expanding all 2^k monomials;
    w_k is the one mask of all k bits.
    """
    if i == k:
        return ExtPoly(k, {((1 << k) - 1, 0)})
    if i < 0:
        return ExtPoly.zero(k)
    return ExtPoly(k, {(sum(1 << j for j in subset), 0)
                       for subset in itertools.combinations(range(k), i)})


def virtual_sw(numerator, denominator, i):
    """Degree-i class of the virtual difference [numerator] - [denominator].

    w(denominator) = 1 + nil is its own inverse, as nil^2 = 0 mod 2, and
    each w_a is homogeneous, so this sums w_a(num) * w_{i-a}(den) over the
    nonzero classes.
    """
    if numerator.k != denominator.k:
        raise ModeMismatch("bundles over different tori")
    return sum((w * denominator.classes[i - a]
                for a, w in numerator.classes.items()
                if i - a in denominator.classes), ExtPoly.zero(numerator.k))
