"""Exact arithmetic for integer symmetric bilinear forms.

Forms are direct sums of atoms: rank-1 diagonal summands, hyperbolic
planes, the rank-8 even unimodular definite lattice (either sign), and
arbitrary square integer symmetric matrices.  Signatures are computed by
rational congruence diagonalization, never floating point.

Every atom carries its `rank`, its `inertia` (b_plus, b_minus, b_zero) and
whether it is `even`; RawMatrix computes them from its matrix.  The
unimodular atoms (Diag, Hyperbolic, E8) also carry their Wu class `wu` and
`maximizer(bound)`: the lexicographically smallest characteristic vector of
largest square with entries in [-bound, bound].
"""

from ._frozen import frozen
from .errors import (DegenerateForm, DefiniteFormUnsupported,
                     DimensionMismatch, PreconditionViolated)

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
_NEG_E8_MATRIX = tuple(tuple(-x for x in row) for row in E8_MATRIX)


@frozen
class Diag:
    eps: int  # +1 or -1
    rank = 1
    even = False
    wu = (1,)

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError(f"Diag sign must be +1 or -1, got {self.eps}")

    @property
    def inertia(self):
        return (1, 0, 0) if self.eps > 0 else (0, 1, 0)

    def matrix(self):
        return ((self.eps,),)

    def maximizer(self, bound):
        # odd entries only; the square eps * v^2 peaks at the largest |v|
        # for eps = +1 and at v = +-1 for eps = -1
        if self.eps < 0:
            return (-1,)
        return (-(bound if bound % 2 else bound - 1),)


@frozen
class Hyperbolic:
    rank = 2
    inertia = (1, 1, 0)
    even = True
    wu = (0, 0)

    def matrix(self):
        return ((0, 1), (1, 0))

    def maximizer(self, bound):
        # even entries; the square 2ab peaks at (e, e) and (-e, -e)
        e = bound - bound % 2
        return (-e, -e)


@frozen
class E8:
    sign: int  # +1 or -1
    rank = 8
    even = True
    wu = (0,) * 8

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"E8 sign must be +1 or -1, got {self.sign}")

    @property
    def inertia(self):
        return (8, 0, 0) if self.sign > 0 else (0, 8, 0)

    def matrix(self):
        return E8_MATRIX if self.sign > 0 else _NEG_E8_MATRIX

    def maximizer(self, bound):
        # the negative form's largest square is 0, at 0 alone
        if self.sign > 0:
            raise PreconditionViolated(
                "positive E8 has no closed-form maximizer")
        return (0,) * 8


@frozen
class RawMatrix:
    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("RawMatrix must be square")
        for i in range(n):
            for j in range(n):
                a = self.entries[i][j]
                if not isinstance(a, int):
                    raise ValueError("RawMatrix entries must be integers")
                if a != self.entries[j][i]:
                    raise ValueError("RawMatrix must be symmetric")

    @property
    def rank(self):
        return len(self.entries)

    @property
    def inertia(self):
        return _raw_inertia(self.entries)

    @property
    def even(self):
        return all(row[i] % 2 == 0 for i, row in enumerate(self.entries))

    def matrix(self):
        return self.entries


@frozen
class IntersectionForm:
    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @property
    def rank(self):
        return sum(a.rank for a in self.atoms)

    def matrix(self):
        """Full Gram matrix as a tuple of int tuples (block diagonal)."""
        n = self.rank
        rows = [[0] * n for _ in range(n)]
        off = 0
        for atom in self.atoms:
            m = atom.matrix()
            r = atom.rank
            for i in range(r):
                for j in range(r):
                    rows[off + i][off + j] = m[i][j]
            off += r
        return tuple(tuple(row) for row in rows)


@frozen
class FormInvariants:
    rank: int
    signature: int
    b_plus: int
    b_minus: int
    parity: str        # "even" or "odd"
    definite: str      # "positive", "negative", "indefinite", "zero"
    b_zero: int = 0    # null directions; 0 for nondegenerate forms


@frozen
class NormalForm:
    """Descriptor of the indefinite (or zero) normal form of a form."""

    parity: str
    e8_count: int = 0
    e8_sign: int = -1
    hyperbolic_count: int = 0
    diag_plus: int = 0
    diag_minus: int = 0

    def as_form(self):
        atoms = []
        atoms.extend(E8(self.e8_sign) for _ in range(self.e8_count))
        atoms.extend(Hyperbolic() for _ in range(self.hyperbolic_count))
        atoms.extend(Diag(1) for _ in range(self.diag_plus))
        atoms.extend(Diag(-1) for _ in range(self.diag_minus))
        return IntersectionForm(tuple(atoms))


def _raw_inertia(matrix):
    """Inertia (b_plus, b_minus, b_zero) by rational congruence diagonalization."""
    from fractions import Fraction  # only a RawMatrix atom comes here

    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    plus = minus = zero = 0
    for p in range(n):
        if a[p][p] == 0:
            # bring a nonzero entry to the pivot
            swap = next((r for r in range(p + 1, n) if a[r][r] != 0), None)
            if swap is not None:
                a[p], a[swap] = a[swap], a[p]
                for row in a:
                    row[p], row[swap] = row[swap], row[p]
            else:
                other = next((c for c in range(p + 1, n) if a[p][c] != 0), None)
                if other is None:
                    zero += 1
                    continue
                # add row/column `other` to p; pivot becomes 2*a[p][other]
                for c in range(n):
                    a[p][c] += a[other][c]
                for r in range(n):
                    a[r][p] += a[r][other]
        pivot = a[p][p]
        if pivot > 0:
            plus += 1
        else:
            minus += 1
        for r in range(p + 1, n):
            if a[r][p] == 0:
                continue
            factor = a[r][p] / pivot
            for c in range(n):
                a[r][c] -= factor * a[p][c]
            for r2 in range(n):
                a[r2][r] -= factor * a[r2][p]
    return plus, minus, zero


def invariants(form, unimodular_only=False):
    """Rank, signature, b_plus/b_minus, parity, and definiteness of a form.

    With unimodular_only=True a singular RawMatrix atom raises
    DegenerateForm instead of reporting null directions.
    """
    plus = minus = zero = 0
    even = True
    for atom in form.atoms:
        p, m, z = atom.inertia
        plus += p
        minus += m
        zero += z
        even = even and atom.even
    if zero and unimodular_only:
        raise DegenerateForm(f"form has {zero} null direction(s)")
    rank = form.rank
    if rank == 0:
        definite = "zero"
    elif minus + zero == 0:
        definite = "positive"
    elif plus + zero == 0:
        definite = "negative"
    else:
        definite = "indefinite"
    return FormInvariants(
        rank=rank,
        signature=plus - minus,
        b_plus=plus,
        b_minus=minus,
        parity="even" if even else "odd",
        definite=definite,
        b_zero=zero,
    )


def square(form, v):
    """The exact value v^T Q v of the quadratic form on an integer vector."""
    v = tuple(v)
    if len(v) != form.rank:
        raise DimensionMismatch(
            f"vector length {len(v)} != form rank {form.rank}")
    total = 0
    off = 0
    for atom in form.atoms:
        m = atom.matrix()
        r = atom.rank
        for i in range(r):
            vi = v[off + i]
            if vi:
                for j in range(r):
                    total += vi * m[i][j] * v[off + j]
        off += r
    return total


def is_characteristic(form, v):
    """True iff Q(v, x) = Q(x, x) mod 2 for all integer x (Wu criterion)."""
    v = tuple(v)
    if len(v) != form.rank:
        raise DimensionMismatch(
            f"vector length {len(v)} != form rank {form.rank}")
    off = 0
    for atom in form.atoms:
        m = atom.matrix()
        r = atom.rank
        for i in range(r):
            pairing = sum(m[i][j] * v[off + j] for j in range(r))
            if (pairing - m[i][i]) % 2 != 0:
                return False
        off += r
    return True


def classify_indefinite(form):
    """Normal form of an indefinite (or zero-rank) unimodular form.

    Even forms become E8 copies plus hyperbolic planes; odd forms become
    diagonal.  Definite forms of positive rank are rejected.
    """
    inv = invariants(form, unimodular_only=True)
    if inv.definite in ("positive", "negative"):
        raise DefiniteFormUnsupported(
            "definite forms have no indefinite normal form")
    if inv.parity == "even":
        if inv.signature % 8 != 0:
            raise DegenerateForm(
                "even form with signature not divisible by 8 is not unimodular")
        p = abs(inv.signature) // 8
        return NormalForm(
            parity="even",
            e8_count=p,
            e8_sign=1 if inv.signature > 0 else -1,
            hyperbolic_count=min(inv.b_plus, inv.b_minus),
        )
    return NormalForm(
        parity="odd",
        diag_plus=inv.b_plus,
        diag_minus=inv.b_minus,
    )
