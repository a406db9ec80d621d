"""Exact arithmetic for the unimodular integer forms of the standard blocks.

Forms are direct sums of atoms: rank-1 diagonal summands, hyperbolic
planes, and the rank-8 even unimodular definite lattice (either sign).

Every atom carries its `rank`, its `inertia` (b_plus, b_minus), as no
atom is degenerate, `square(v)`: the exact value v^T Q v on a vector of its
rank, its Wu class `wu`, which is 0 iff the atom is even, and
`maximizer(bound)`: the lexicographically smallest characteristic vector
of largest square with entries in [-bound, bound].  No atom holds a Gram
matrix: E8's square walks E8_MATRIX.
"""

from ._frozen import frozen
from .errors import InvalidSetting, PreconditionViolated

# Gram matrix of the even unimodular positive-definite rank-8 lattice
# (Cartan matrix of the corresponding root system).
E8_MATRIX = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)


@frozen
class Diag:
    eps: int  # +1 or -1
    rank = 1
    wu = (1,)

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise InvalidSetting(f"Diag sign must be +1 or -1, got {self.eps}")

    @property
    def inertia(self):
        return (1, 0) if self.eps > 0 else (0, 1)

    def square(self, v):
        return self.eps * v[0] * v[0]

    def maximizer(self, bound):
        # odd entries only; the square eps * v^2 peaks at the largest |v|
        # for eps = +1 and at v = +-1 for eps = -1
        if self.eps < 0:
            return (-1,)
        return (-(bound if bound % 2 else bound - 1),)


@frozen
class Hyperbolic:
    rank = 2
    inertia = (1, 1)
    wu = (0, 0)

    def square(self, v):
        return 2 * v[0] * v[1]

    def maximizer(self, bound):
        # even entries; the square 2ab peaks at (e, e) and (-e, -e)
        e = bound - bound % 2
        return (-e, -e)


@frozen
class E8:
    sign: int  # +1 or -1
    rank = 8
    wu = (0,) * 8

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidSetting(f"E8 sign must be +1 or -1, got {self.sign}")

    @property
    def inertia(self):
        return (8, 0) if self.sign > 0 else (0, 8)

    def square(self, v):
        return self.sign * sum(vi * mij * vj for row, vi in zip(E8_MATRIX, v)
                               if vi for mij, vj in zip(row, v))

    def maximizer(self, bound):
        # the negative form's largest square is 0, at 0 alone
        if self.sign > 0:
            raise PreconditionViolated(
                "positive E8 has no closed-form maximizer")
        return (0,) * 8
