"""Mod-2 polynomial algebra over the cohomology of a torus.

H*(T^k; Z2) is the exterior algebra on degree-1 generators t1..tk, encoded
by bitmask subsets so that ti^2 = 0 holds structurally.  Coefficients are
extended by the Borel generators: u (degree 1) in pm1 mode, and u, v
(degrees 1, 2) with u^2 = 0 in c4 mode.  Negative powers of u appear only
inside Laurent division.
"""

import itertools
import os
from dataclasses import dataclass

from .errors import (
    InvalidSetting,
    ModeMismatch,
    NonExactDivision,
    NonMonicDenominator,
    UDegreeOverflow,
)

PM1 = "pm1"
C4 = "c4"

DEFAULT_MAX_UDEG = 64


def max_udeg():
    raw = os.environ.get("FOURFOLD_MAX_UDEG")
    if raw is None:
        return DEFAULT_MAX_UDEG
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise InvalidSetting(
            f"FOURFOLD_MAX_UDEG must be a non-negative integer, got {raw!r}")
    return cap


@dataclass(frozen=True)
class ExtPoly:
    """A mod-2 polynomial: set of terms (generator bitmask, u power, v power)."""

    k: int
    mode: str = PM1
    terms: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "terms", frozenset(self.terms))
        cap = max_udeg()
        for mask, up, vp in self.terms:
            if up > cap:
                raise UDegreeOverflow(f"u-degree {up} exceeds cap {cap}")
            if self.mode == C4 and up >= 2:
                raise ValueError("u^2 = 0 in c4 mode")
            if self.mode == PM1 and vp != 0:
                raise ValueError("v is only available in c4 mode")
            if mask >> self.k:
                raise ValueError("generator index out of range")

    # constructors

    @classmethod
    def zero(cls, k, mode=PM1):
        return cls(k, mode, frozenset())

    @classmethod
    def one(cls, k, mode=PM1):
        return cls(k, mode, frozenset({(0, 0, 0)}))

    @classmethod
    def t(cls, k, i, mode=PM1):
        if not 1 <= i <= k:
            raise ValueError(f"t{i} undefined for k={k}")
        return cls(k, mode, frozenset({(1 << (i - 1), 0, 0)}))

    @classmethod
    def u(cls, k, power=1, mode=PM1):
        return cls(k, mode, frozenset({(0, power, 0)}))

    @classmethod
    def v(cls, k, power=1):
        return cls(k, C4, frozenset({(0, 0, power)}))

    # predicates and views

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def min_u(self):
        return min((up for _, up, _ in self.terms), default=0)

    def max_u(self):
        return max((up for _, up, _ in self.terms), default=0)

    def t_degree_part(self, degree):
        """Terms of pure base degree `degree` (no u, no v)."""
        keep = {t for t in self.terms
                if t[1] == 0 and t[2] == 0 and t[0].bit_count() == degree}
        return ExtPoly(self.k, self.mode, keep)

    def u_coefficient(self, power):
        """Coefficient of u^power, an ExtPoly with no u."""
        keep = {(mask, 0, vp) for mask, up, vp in self.terms if up == power}
        return ExtPoly(self.k, self.mode, keep)

    def shift_u(self, delta):
        return ExtPoly(self.k, self.mode,
                       {(m, up + delta, vp) for m, up, vp in self.terms})

    def to_mode(self, mode):
        if mode == self.mode:
            return self
        if mode == C4:
            keep = {t for t in self.terms if t[1] < 2}
            return ExtPoly(self.k, C4, keep)
        if any(vp for _, _, vp in self.terms):
            raise ModeMismatch("cannot map v into pm1 mode")
        return ExtPoly(self.k, PM1,
                       {(m, up, 0) for m, up, _ in self.terms})

    # arithmetic

    def _check(self, other):
        if self.k != other.k or self.mode != other.mode:
            raise ModeMismatch(
                f"incompatible rings: (k={self.k},{self.mode}) vs "
                f"(k={other.k},{other.mode})")

    def __add__(self, other):
        self._check(other)
        return ExtPoly(self.k, self.mode, self.terms ^ other.terms)

    def __mul__(self, other):
        self._check(other)
        acc = set()
        for m1, u1, v1 in self.terms:
            for m2, u2, v2 in other.terms:
                if m1 & m2:
                    continue  # ti^2 = 0
                up = u1 + u2
                if self.mode == C4 and up >= 2:
                    continue  # u^2 = 0
                term = (m1 | m2, up, v1 + v2)
                if term in acc:
                    acc.remove(term)
                else:
                    acc.add(term)
        return ExtPoly(self.k, self.mode, frozenset(acc))

    # rendering

    def render(self):
        """Canonical text form: terms sorted by u-degree, then v, then subset."""
        if not self.terms:
            return "0"
        def term_str(term):
            mask, up, vp = term
            factors = [f"t{i + 1}" for i in range(self.k) if mask >> i & 1]
            if up == 1:
                factors.append("u")
            elif up:
                factors.append(f"u^{up}")
            if vp == 1:
                factors.append("v")
            elif vp:
                factors.append(f"v^{vp}")
            return "*".join(factors) if factors else "1"
        ordered = sorted(self.terms, key=lambda t: (t[1], t[2], t[0]))
        return " + ".join(term_str(t) for t in ordered)


def invert_unit(p):
    """Inverse of 1 + nilpotent in the exterior algebra (Neumann series)."""
    one = ExtPoly.one(p.k, p.mode)
    nil = p + one
    if (0, 0, 0) not in p.terms or any(
            m == 0 for m, _, _ in nil.terms):
        raise NonMonicDenominator(
            "leading coefficient is not 1 + nilpotent")
    out = one
    power = one
    for _ in range(p.k):
        power = power * nil
        if power.is_zero():
            break
        out = out + power
    return out


@dataclass(frozen=True)
class BundleClassData:
    """Rank plus total characteristic class data of a (virtual) bundle.

    sw[i] is the degree-(i+1) class; classes are pure base classes over
    T^k (no u, no v).  In c4 mode callers read them as mod-2 Chern classes.
    """

    k: int
    rank: int
    sw: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "sw", tuple(self.sw))
        for i, w in enumerate(self.sw):
            if w.k != self.k:
                raise ModeMismatch("class data over the wrong torus")
            if any(up or vp for _, up, vp in w.terms):
                raise ValueError(f"w{i + 1} must be a pure base class")

    def w(self, i, mode=PM1):
        """Degree-i class, with w0 = 1 and wi = 0 above the stored range."""
        if i == 0:
            return ExtPoly.one(self.k, mode)
        if i < 0 or i > len(self.sw):
            return ExtPoly.zero(self.k, mode)
        return self.sw[i - 1].to_mode(mode)

    def total(self, mode=PM1):
        out = ExtPoly.one(self.k, mode)
        for w in self.sw:
            out = out + w.to_mode(mode)
        return out


@dataclass(frozen=True)
class LineSumBundle:
    """k real lines, line i with w1 = ti, plus a trivial bundle; rank is the sum.

    The total class is the product of (1 + ti), so wi is the elementary
    symmetric polynomial e_i(t1..tk), built on demand with C(k, i) terms
    without expanding all 2^k monomials.
    """

    k: int
    rank: int

    def w(self, i, mode=PM1):
        """Degree-i class, with w0 = 1 and wi = 0 above min(k, rank)."""
        if i == 0:
            return ExtPoly.one(self.k, mode)
        if i < 0 or i > min(self.k, self.rank):
            return ExtPoly.zero(self.k, mode)
        return ExtPoly(self.k, mode, {
            (sum(1 << j for j in subset), 0, 0)
            for subset in itertools.combinations(range(self.k), i)})


def equivariant_euler(bundle, mode):
    """Equivariant Euler class of a bundle with the given symmetry type.

    pm1_fixed: top class only (trivial action);
    c4_hplus: w_b + w_{b-1} u, the sign action's class sum of w_{b-i} u^i
    truncated by u^2 = 0.
    """
    k, r = bundle.k, bundle.rank
    if mode == "pm1_fixed":
        return bundle.w(r, PM1)
    if mode == "c4_hplus":
        return bundle.w(r, C4) + bundle.w(r - 1, C4) * ExtPoly.u(k, 1, C4)
    raise ModeMismatch(f"unknown equivariant Euler mode {mode!r}")


def virtual_sw(numerator, denominator):
    """Graded classes of the virtual difference [numerator] - [denominator].

    Computed as w(numerator) * w(denominator)^{-1}; the inverse terminates
    because positive-degree exterior classes are nilpotent.  Returns the
    list of classes indexed by degree 0..k.
    """
    if numerator.k != denominator.k:
        raise ModeMismatch("bundles over different tori")
    k = numerator.k
    total = numerator.total(PM1) * invert_unit(denominator.total(PM1))
    return [total.t_degree_part(i) for i in range(k + 1)]


def laurent_divide(num, den):
    """Exact division in the Laurent extension by u.

    The denominator must be monic in u: its top u-coefficient must be
    1 + nilpotent.  Returns (quotient, has_negative_u).  Raises
    NonExactDivision when the denominator does not divide the numerator.
    """
    if num.k != den.k or num.mode != den.mode:
        raise ModeMismatch("operands live in different rings")
    if num.mode == C4:
        raise ModeMismatch("Laurent division is defined in pm1 mode")
    if den.is_zero():
        raise NonMonicDenominator("zero denominator")
    m = den.max_u()
    lead = den.u_coefficient(m)
    lead_inv = invert_unit(lead)  # NonMonicDenominator when not a unit
    floor = num.min_u() - m - num.k - 8
    quotient = ExtPoly.zero(num.k, num.mode)
    rem = num
    while rem:
        d = rem.max_u()
        if d - m < floor:
            raise NonExactDivision(
                "denominator does not divide numerator exactly")
        q_term = (rem.u_coefficient(d) * lead_inv).shift_u(d - m)
        quotient = quotient + q_term
        rem = rem + q_term * den
    return quotient, quotient.min_u() < 0
