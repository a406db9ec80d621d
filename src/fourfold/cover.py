"""Double covers as local coefficient systems, and characteristic classes.

The cover recipe twists the coefficient system nontrivially on every
S1xY / S2xSigma summand and leaves the simply-connected summands alone.
Those twisted summands then contribute nothing to the free part of the
twisted second cohomology, so candidate first Chern classes live on the
free lattice of the remaining summands plus one torsion bit per W block.
"""

import itertools
import math

from ._frozen import frozen
from .errors import (
    DimensionMismatch,
    InvalidSetting,
    NoNontrivialCoverAvailable,
    PreconditionViolated,
)

# the most classes one listing may hold: at least the 531,441 of
# -E8 # 2*S2xS2 # S1xY(b1=1) at bound 2, whose `spinc` child peaks at
# 17 MB resident, 15 MB of which `fourfold invariants S4` takes too
# (ru_maxrss, Python 3.11)
MAX_CLASSES = 1_000_000
# the most summands one expression may hold, composites counted expanded:
# room for benchmark rows of thousands of summands
MAX_SUMMANDS = 100_000


@frozen
class LocalSystem:
    """The standard cover of `base`, twisted on every summand of its "N" part.

    Not fields, as they follow from the sum: `free`, the free part of H^2
    with twisted coefficients, which the twisted summands leave out, as
    (atom, count) pairs, and its `rank`; `b_plus_ell`, b_plus with twisted
    coefficients, which is b_plus of the simply-connected part, as a W
    block has no free cohomology; and `torsion_bits`, one per W block.
    """

    base: object                 # ManifoldExpr

    def __post_init__(self):
        free = []
        for b, n in self.base.terms:
            if b.spec.part != "N":
                # n copies of one atom are one pair; K3's two atoms alternate
                free += b.atoms * n if len(b.atoms) > 1 else [
                    (a, m * n) for a, m in b.atoms]
        d = self.__dict__
        d["free"] = tuple(free)
        # a W block has no free cohomology, so this is the sc part's b2
        d["rank"] = self.base.sc.b2
        d["b_plus_ell"] = self.base.sc.b_plus
        d["torsion_bits"] = self.base.inv.torsion

    def char_class(self, free_part):
        """The twisted Euler class with this free part.

        Raises PreconditionViolated unless free_part reduces to
        w2_plus_w1sq mod 2, the rule parity_box lists by.
        """
        free_part = tuple(free_part)
        if len(free_part) != self.rank:
            raise DimensionMismatch(
                f"free part has length {len(free_part)}, "
                f"expected {self.rank}")
        if any((v - bit) % 2 for v, bit in zip(free_part, w2_plus_w1sq(self))):
            raise PreconditionViolated(
                "candidate class does not reduce to w2 + w1^2")
        square, off = 0, 0
        for atom, n in self.free:
            for _ in range(n):
                square += atom.square(free_part[off:off + atom.rank])
                off += atom.rank
        return CharClass(free_part, square)


@frozen
class CharClass:
    """A twisted Euler class: its free lattice vector and that vector's square.

    Characteristic by construction; its bit on every W block is 1.
    """

    free_part: tuple
    square: int


def build_standard_cover(x):
    """The standard cover: nontrivial on every S1xY / S2xSigma summand."""
    # the twisted kinds come last in the canonical order
    if not x.terms or x.terms[-1][0].spec.part != "N":
        # every block here has b1 = 0, so rank H^1(X; Z2) is the W count
        if x.inv.torsion == 0:
            raise NoNontrivialCoverAvailable(
                "H^1(X; Z2) = 0: no nontrivial double cover exists")
        raise NoNontrivialCoverAvailable(
            "no S1xY or S2xSigma summand: the standard cover recipe "
            "does not apply")
    return LocalSystem(x)


def w2_plus_w1sq(ls):
    """The free bits of the mod-2 class every twisted Euler class reduces to.

    They are the atoms' Wu class: 1 on rank-1 diagonal coordinates, 0 on
    even atoms.  The class vanishes on twisted summands, and its bit on
    each of the ls.torsion_bits W blocks is 1.
    """
    return tuple(itertools.chain.from_iterable(
        atom.wu * n for atom, n in ls.free))


def check_bound(bound):
    """Raise InvalidSetting unless bound, a box's radius, is an int >= 1."""
    if type(bound) is not int:
        raise InvalidSetting(f"bound must be an int, got {bound!r}")
    if bound < 1:
        raise InvalidSetting("bound must be >= 1")


def check_summands(x):
    """Raise InvalidSetting when the sum x, its composites expanded, has
    more than MAX_SUMMANDS summands."""
    if sum(n for _, n in x.terms) > MAX_SUMMANDS:
        raise InvalidSetting(f"more than {MAX_SUMMANDS} summands")


def parity_box(ls, bound):
    """Per free coordinate, the range of entries a characteristic class may take.

    Every atom of a cover's form is unimodular (Diag, Hyperbolic or E8),
    so a vector is characteristic iff it reduces to the Wu class mod 2:
    each coordinate takes the entries in [-bound, bound] whose parity is
    its bit of w2_plus_w1sq, ascending in steps of 2.  Raises
    InvalidSetting when the box holds more than MAX_CLASSES classes, or
    unless bound is an int >= 1.
    """
    check_bound(bound)
    columns, size = [], 1
    for atom, n in ls.free:
        # of the 2 bound + 1 entries, bound + 1 share bound's parity.  A
        # copy holds 1 class or at least 2, and 2 ** MAX_CLASSES.bit_length()
        # > MAX_CLASSES, so capping the count in the power leaves the test
        # below as it would be
        per_copy = math.prod(bound + (bound % 2 == bit) for bit in atom.wu)
        size *= per_copy ** min(n, MAX_CLASSES.bit_length())
        if size > MAX_CLASSES:
            raise InvalidSetting(
                f"bound {bound} gives more than {MAX_CLASSES} classes")
        columns += [range(-bound + (bound % 2 != bit), bound + 1, 2)
                    for bit in atom.wu] * n
    return columns


def enumerate_characteristics(ls, bound=1):
    """All valid classes with entries in [-bound, bound], in `_listing` order."""
    return [CharClass(first + suffix, square)
            for square, groups in _listing(ls, bound, ())
            for first, suffixes in groups for suffix in suffixes]


def _listing(ls, bound, tail):
    """(square, groups) per square, descending; each group (first, suffixes).

    A class is `first`, the pieces of its lead, followed by one of its
    group's suffixes: the rest of its free part, then `tail`.  Pieces and
    suffixes are tuples if `tail` is one, else text, entries joined by
    ", ".  Each (atom, count) pair lists its pieces and their squares once,
    in `itertools.product`'s lexicographic order.  The lead is the first
    copy, then each next copy whose c pieces share one square, while lead *
    c^2 <= rest, the piece counts of the lead and the rest: such a copy adds
    no bucket.  Copies of one piece all join or none, and others stop in
    log_c(rest) copies, so the walk is per pair.  The rest fold from the
    last atom into buckets by square, each product of the lead pairs with
    each bucket, and the caller joins each class.  Lexicographic pieces
    keep the groups, and each bucket, lexicographic, so only the distinct
    squares are sorted.
    """
    columns = parity_box(ls, bound)
    text = type(tail) is not tuple
    pieces, squares, off, rest = [], [], 0, 1
    for atom, n in ls.free:
        vs = list(itertools.product(*columns[off:off + atom.rank]))
        off += atom.rank * n
        rest *= len(vs) ** n
        pieces += [[", ".join(map(str, v)) for v in vs] if text else vs] * n
        squares += [list(map(atom.square, vs))] * n
    if not pieces:
        return [(0, [(tail[:0], [tail])])]
    k, end, lead = 0, 0, 1
    for _, n in ls.free:   # the pair's copies run from k to end
        c, end = len(pieces[k]), end + n
        while k < end and (not k or len(set(squares[k])) == 1
                           and lead * c * c <= rest):
            k, lead, rest = end if c == 1 else k + 1, lead * c, rest // c
        if k < end:
            break
    buckets, sep = {0: [tail]}, ", " if text else ()
    for i in range(len(pieces) - 1, k - 1, -1):
        folded = {}
        for piece, part in zip(pieces[i], squares[i]):
            add = (sep + piece).__add__   # a suffix starts with its sep
            for s, suffixes in buckets.items():
                folded.setdefault(s + part, []).extend(map(add, suffixes))
        buckets = folded
    join = ", ".join if text else (
        lambda p: tuple(itertools.chain.from_iterable(p)))
    groups = {}
    for first, part in zip(itertools.product(*pieces[:k]),
                           map(sum, itertools.product(*squares[:k]))):
        first = join(first)
        for s, suffixes in buckets.items():
            groups.setdefault(s + part, []).append((first, suffixes))
    return [(s, groups[s]) for s in sorted(groups, reverse=True)]
