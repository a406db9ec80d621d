"""Mod-2 polynomial algebra over the cohomology of a torus.

H*(T^k; Z2) is the exterior algebra on degree-1 generators t1..tk, encoded
by bitmask subsets so that ti^2 = 0 holds structurally.  Coefficients are
extended by one Borel generator u of degree 1, so the equivariant Euler
class w_b + w_{b-1} u that theorem B reads lives in the same ring.
Negative powers of u appear only inside Laurent division.
"""

import itertools

from ._frozen import frozen
from .errors import ModeMismatch, NonExactDivision, NonMonicDenominator


@frozen
class ExtPoly:
    """A mod-2 polynomial: set of terms (generator bitmask, u power)."""

    k: int
    terms: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "terms", frozenset(self.terms))
        for mask, _ in self.terms:
            if mask >> self.k:
                raise ValueError("generator index out of range")

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
            raise ValueError(f"t{i} undefined for k={k}")
        return cls(k, frozenset({(1 << (i - 1), 0)}))

    @classmethod
    def u(cls, k, power=1):
        return cls(k, frozenset({(0, power)}))

    # predicates and views

    def __bool__(self):
        return bool(self.terms)

    def min_u(self):
        return min((up for _, up in self.terms), default=0)

    def max_u(self):
        return max((up for _, up in self.terms), default=0)

    def t_degree_part(self, degree):
        """Terms of pure base degree `degree` (no u)."""
        keep = {t for t in self.terms
                if t[1] == 0 and t[0].bit_count() == degree}
        return ExtPoly(self.k, keep)

    def u_coefficient(self, power):
        """Coefficient of u^power, an ExtPoly with no u."""
        keep = {(mask, 0) for mask, up in self.terms if up == power}
        return ExtPoly(self.k, keep)

    def shift_u(self, delta):
        return ExtPoly(self.k, {(m, up + delta) for m, up in self.terms})

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
            factors = [f"t{i + 1}" for i in range(self.k) if mask >> i & 1]
            if up:
                factors.append("u" if up == 1 else f"u^{up}")
            return "*".join(factors) if factors else "1"
        ordered = sorted(self.terms, key=lambda t: (t[1], t[0]))
        return " + ".join(term_str(t) for t in ordered)


def invert_unit(p):
    """Inverse of 1 + nilpotent in the exterior algebra: p itself.

    Every term of nil = p + 1 holds a generator, so nil^2 = 0 mod 2 and
    (1 + nil)^2 = 1.
    """
    nil = p + ExtPoly.one(p.k)
    if (0, 0) not in p.terms or any(m == 0 for m, _ in nil.terms):
        raise NonMonicDenominator(
            "leading coefficient is not 1 + nilpotent")
    return p


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
        object.__setattr__(self, "sw", tuple(self.sw))
        for i, w in enumerate(self.sw, 1):
            if w.k != self.k:
                raise ModeMismatch("class data over the wrong torus")
            if any(up or mask.bit_count() != i for mask, up in w.terms):
                raise ValueError(
                    f"w{i} must be a pure base class of degree {i}")
        object.__setattr__(self, "classes", {0: ExtPoly.one(self.k), **{
            i: w for i, w in enumerate(self.sw, 1) if w}})

    def w(self, i):
        """Degree-i class, with w0 = 1 and wi = 0 where none is stored."""
        return self.classes.get(i, ExtPoly.zero(self.k))

    def total(self):
        return sum(self.sw, ExtPoly.one(self.k))


def line_sum_w(k, i):
    """w_i of k real lines, line j with w1 = tj, plus any trivial bundle.

    The total class is the product of (1 + tj), so w_i is the elementary
    symmetric polynomial e_i(t1..tk): 1 at i = 0, 0 unless 0 <= i <= k,
    and otherwise C(k, i) terms, built without expanding all 2^k monomials.
    """
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


def laurent_divide(num, den):
    """Exact division in the Laurent extension by u.

    The denominator must be monic in u: its top u-coefficient must be
    1 + nilpotent.  Returns (quotient, has_negative_u).  Raises
    NonExactDivision when the denominator does not divide the numerator.
    """
    if num.k != den.k:
        raise ModeMismatch("operands live in different rings")
    if not den:
        raise NonMonicDenominator("zero denominator")
    m = den.max_u()
    # its own inverse; NonMonicDenominator when not a unit
    lead = invert_unit(den.u_coefficient(m))
    floor = num.min_u() - m - num.k - 8
    quotient = ExtPoly.zero(num.k)
    rem = num
    while rem:
        d = rem.max_u()
        if d - m < floor:
            raise NonExactDivision(
                "denominator does not divide numerator exactly")
        q_term = (rem.u_coefficient(d) * lead).shift_u(d - m)
        quotient = quotient + q_term
        rem = rem + q_term * den
    return quotient, quotient.min_u() < 0
