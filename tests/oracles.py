"""Reference algorithms that only the tests run.

Exact division in the Laurent extension of the charpoly ring by u, and
the views of an ExtPoly it needs.  The engine never divides: a unit
1 + nil is its own inverse, so `charpoly.virtual_sw` is a convolution.
These stay here as the oracles that property checks compare against.
"""

from fourfold.charpoly import ExtPoly
from fourfold.errors import FourfoldError, ModeMismatch


class NonMonicDenominator(FourfoldError):
    code = "NonMonicDenominator"


class NonExactDivision(FourfoldError):
    code = "NonExactDivision"


def min_u(p):
    return min((up for _, up in p.terms), default=0)


def max_u(p):
    return max((up for _, up in p.terms), default=0)


def t_degree_part(p, degree):
    """Terms of pure base degree `degree` (no u)."""
    return ExtPoly(p.k, {t for t in p.terms
                         if t[1] == 0 and t[0].bit_count() == degree})


def u_coefficient(p, power):
    """Coefficient of u^power, an ExtPoly with no u."""
    return ExtPoly(p.k, {(mask, 0) for mask, up in p.terms if up == power})


def shift_u(p, delta):
    return ExtPoly(p.k, {(m, up + delta) for m, up in p.terms})


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
    m = max_u(den)
    # its own inverse; NonMonicDenominator when not a unit
    lead = invert_unit(u_coefficient(den, m))
    floor = min_u(num) - m - num.k - 8
    quotient = ExtPoly.zero(num.k)
    rem = num
    while rem:
        d = max_u(rem)
        if d - m < floor:
            raise NonExactDivision(
                "denominator does not divide numerator exactly")
        q_term = shift_u(u_coefficient(rem, d) * lead, d - m)
        quotient = quotient + q_term
        rem = rem + q_term * den
    return quotient, min_u(quotient) < 0
