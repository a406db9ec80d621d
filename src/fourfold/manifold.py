"""Formal connected sums of oriented closed 4-manifold blocks.

A ManifoldExpr is a multiset of standard blocks, held as one (block, count)
pair per distinct block, with additive invariants
(signature, Betti numbers, Kirby-Siebenmann bit) and a normalizer that
rewrites the simply-connected part into its homeomorphism normal form.
"""

import operator

from . import lattice
from ._frozen import frozen
from .errors import (
    DefinitePartUnsupported,
    GenusZero,
    InvalidSetting,
    OrientationReversalUnavailable,
)


class BlockSpec(tuple):
    """The facts that fix a block's invariants; one row of BLOCKS.  A tuple
    subclass, as Invariants is: a NamedTuple would load `typing`."""

    __slots__ = ()

    def __new__(cls, name, atoms, b1, spin, ks, h1_torsion, mirror, part,
                reflect=None, floor=()):
        return tuple.__new__(cls, (name, atoms, b1, spin, ks, h1_torsion,
                                   mirror, part, reflect, floor))

    name = property(operator.itemgetter(0))    # rendered: {p} is the param
    atoms = property(operator.itemgetter(1))   # param -> form's (atom, count)
    b1 = property(operator.itemgetter(2))      # param -> first Betti number
    spin = property(operator.itemgetter(3))    # iff even; W: no (torsion w2)
    ks = property(operator.itemgetter(4))      # Kirby-Siebenmann bit
    h1_torsion = property(operator.itemgetter(5))  # rank H^1(-; Z2) - b1
    mirror = property(operator.itemgetter(6))  # reversed kind; "" if unknown
    part = property(operator.itemgetter(7))    # "sc", "N" (twisted), "" (W)
    reflect = property(operator.itemgetter(8))  # slot's H^2 map; None: none
    floor = property(operator.itemgetter(9))   # (least param, error, message)


# lattice atoms are immutable, so every block shares these
_H = lattice.Hyperbolic()
_E8 = {1: lattice.E8(1), -1: lattice.E8(-1)}
_DIAG = {1: lattice.Diag(1), -1: lattice.Diag(-1)}

# one row per block kind, in the canonical summand order
BLOCKS = {
    "E8": BlockSpec("E8", lambda p: ((_E8[1], 1),),
                    lambda p: 0, True, 1, 0, "NegE8", "sc"),
    "NegE8": BlockSpec("-E8", lambda p: ((_E8[-1], 1),),
                       lambda p: 0, True, 1, 0, "E8", "sc"),
    "K3": BlockSpec("K3", lambda p: ((_E8[-1], 2), (_H, 3)),
                    lambda p: 0, True, 0, 0, "NegK3", "sc"),
    "NegK3": BlockSpec("-K3", lambda p: ((_E8[1], 2), (_H, 3)),
                       lambda p: 0, True, 0, 0, "K3", "sc"),
    "S2xS2": BlockSpec("S2xS2", lambda p: ((_H, 1),),
                       lambda p: 0, True, 0, 0, "S2xS2", "sc",
                       lambda v: (-v[1], -v[0])),
    "CP2": BlockSpec("CP2", lambda p: ((_DIAG[1], 1),),
                     lambda p: 0, False, 0, 0, "NegCP2", "sc",
                     lambda v: (-v[0],)),
    "NegCP2": BlockSpec("-CP2", lambda p: ((_DIAG[-1], 1),),
                        lambda p: 0, False, 0, 0, "CP2", "sc"),
    "NegCP2Fake": BlockSpec("-CP2fake", lambda p: ((_DIAG[-1], 1),),
                            lambda p: 0, False, 1, 0, "", "sc"),
    "W": BlockSpec("W", lambda p: (), lambda p: 0, False, 1, 1, "W", ""),
    "S1xY": BlockSpec("S1xY(b1={p})", lambda p: ((_H, p),),
                      lambda p: 1 + p, True, 0, 0, "S1xY", "N",
                      floor=(0, InvalidSetting, "b1 must be non-negative")),
    "S2xSigma": BlockSpec("S2xSigma(g={p})", lambda p: ((_H, 1),),
                          lambda p: 2 * p, True, 0, 0, "S2xSigma", "N",
                          floor=(1, GenusZero,
                                 "S2xSigma requires positive genus")),
}
_ORDER = {kind: i for i, kind in enumerate(BLOCKS)}


class Invariants(tuple):
    """The additive invariants of a block or of a sum of blocks.

    A tuple (b_plus, b_minus, ks_count, odd, nonspin, torsion) whose
    entries add over summands, so a sum's are the entrywise sums of its
    blocks'.  No block's form is degenerate: b2 = b_plus + b_minus.  A
    tuple subclass rather than a NamedTuple: it is built in C, and its
    class costs nothing to create at import.
    """

    __slots__ = ()
    b_plus = property(operator.itemgetter(0))
    b_minus = property(operator.itemgetter(1))
    ks_count = property(operator.itemgetter(2))  # summands with KS bit 1
    odd = property(operator.itemgetter(3))       # summands with odd forms
    nonspin = property(operator.itemgetter(4))   # summands not spin
    torsion = property(operator.itemgetter(5))   # W summands: H1 Z2 slots

    @property
    def sigma(self):
        return self.b_plus - self.b_minus

    @property
    def b2(self):
        return self.b_plus + self.b_minus

    @property
    def ks(self):
        return self.ks_count % 2

    @property
    def even(self):
        return not self.odd

    @property
    def spin(self):
        return not self.nonspin


@frozen
class Block:
    kind: str
    param: int = 0   # b1(Y) for S1xY, genus for S2xSigma

    def __post_init__(self):
        spec = BLOCKS.get(self.kind)
        if spec is None and self.kind not in COMPOSITES:
            raise InvalidSetting(f"unknown block kind {self.kind!r}")
        # the parser builds only ints; a bool or a float would render a
        # name it cannot read back
        if type(self.param) is not int:
            raise InvalidSetting(
                f"block params must be ints, got {self.param!r}")
        # a param the name does not show renders as another block
        if self.param and "{p}" not in (spec.name if spec else ""):
            raise InvalidSetting(
                f"{self.kind} takes only the param its name shows, "
                f"got param={self.param}")
        if spec and spec.floor and self.param < spec.floor[0]:
            raise spec.floor[1](spec.floor[2])
        # not fields: the BLOCKS row of the kind (None for the COMPOSITES),
        # the sort key, the rendered name, the row's (atom, count) pairs,
        # and the invariants, read off those at a cost that does not grow
        # with the parameter
        d = self.__dict__
        d["spec"] = spec
        if spec is None:
            return
        d["key"] = _ORDER[self.kind], self.param
        try:   # str() refuses more than sys.get_int_max_str_digits() digits
            d["name"] = spec.name.format(p=self.param)
        except ValueError as e:
            raise InvalidSetting(str(e)) from None
        d["atoms"] = atoms = spec.atoms(self.param)
        b_plus = b_minus = 0
        odd = False
        for atom, n in atoms:
            p, m, _ = atom.inertia
            b_plus += n * p
            b_minus += n * m
            odd = odd or not atom.even
        d["inv"] = Invariants((b_plus, b_minus, spec.ks, int(odd),
                               int(not spec.spin), spec.h1_torsion))

    @property
    def b1(self):
        return self.spec.b1(self.param)


# one shared Block per name without a parameter: values are immutable, so
# one object serves every sum that holds it
NAMED = {spec.name: Block(kind)
         for kind, spec in BLOCKS.items() if "{p}" not in spec.name}


# composite blocks and their summands: Enriques surfaces decompose as
# -E8 # S2xS2 # W, and S4 is the identity
COMPOSITES = {"Enriques": (NAMED["-E8"], NAMED["S2xS2"], NAMED["W"]),
              "S4": ()}
NAMED.update((kind, Block(kind)) for kind in COMPOSITES)


@frozen
class ManifoldExpr:
    terms: tuple = ()   # (Block, count) pairs, one per distinct block

    def __post_init__(self):
        # merge the pairs, composites expanded, into one per distinct block,
        # by its sort key
        try:   # terms that are not pairs fail to unpack
            pairs = [(b, n) for b, n in self.terms]
        except (TypeError, ValueError):
            raise InvalidSetting(f"terms {self.terms!r} are not pairs") from None
        merged = {}
        for b, n in pairs:
            if not isinstance(b, Block):
                raise InvalidSetting(f"{b!r} is not a Block")
            if type(n) is not int or n < 0:
                raise InvalidSetting(f"count {n!r} must be an int >= 0")
            for part in COMPOSITES[b.kind] if b.spec is None else (b,):
                key = part.key
                merged[key] = part, n + (merged[key][1] if key in merged else 0)
        terms = [merged[key] for key in sorted(merged) if merged[key][1]]
        # the one walk: each pair's Invariants, times its count, summed
        # over the simply-connected part (s*) and over the rest (r*)
        sp = sm = sk = so = sn = st = rp = rm = rk = ro = rn = rt = 0
        for b, n in terms:
            p, m, k, o, ns, t = b.inv
            if b.spec.part == "sc":
                sp += n * p
                sm += n * m
                sk += n * k
                so += n * o
                sn += n * ns
                st += n * t
            else:
                rp += n * p
                rm += n * m
                rk += n * k
                ro += n * o
                rn += n * ns
                rt += n * t
        d = self.__dict__
        d["terms"] = tuple(terms)
        # not fields: the sum's Invariants, and its simply-connected part's
        d["sc"] = Invariants((sp, sm, sk, so, sn, st))
        d["inv"] = Invariants((sp + rp, sm + rm, sk + rk, so + ro, sn + rn,
                               st + rt))

    @property
    def b1(self):
        return sum(n * b.b1 for b, n in self.terms)

    def render(self):
        if not self.terms:
            return "S4"
        return " # ".join([" # ".join([b.name] * n) for b, n in self.terms])


def expr(*blocks):
    return ManifoldExpr(tuple((b, 1) for b in blocks))


def mirror(x):
    """Orientation reversal: swap each block for its mirror."""
    out = []
    for b, n in x.terms:
        if not b.spec.mirror:
            raise OrientationReversalUnavailable(
                "the positively-oriented fake CP2 block is not modeled")
        out.append((Block(b.spec.mirror, b.param), n))
    return ManifoldExpr(tuple(out))


def _normalize_sc(sc, w_count):
    """Normal form of the simply-connected part, as (name, count) pairs.

    sc holds the part's Invariants.  w_count is the number of W summands
    in the ambient expression; a rational homology sphere with torsion w2
    pairs with E8 summands in the normal form used for the Enriques-type
    decompositions.  A count may be 0: ManifoldExpr drops its pair.
    """
    if sc.b2 == 0:
        return ()
    if not (sc.b_plus and sc.b_minus):
        raise DefinitePartUnsupported(
            "the simply-connected part must be indefinite or empty")
    sigma, bp, bm, ks = sc.sigma, sc.b_plus, sc.b_minus, sc.ks

    if sc.even:
        return (("E8" if sigma > 0 else "-E8", abs(sigma) // 8),
                ("S2xS2", min(bp, bm)))

    # odd case
    if w_count >= 1 and ks == w_count % 2:
        # Enriques-style shape: w_count E8 summands plus a diagonal rest
        e = 8 * w_count
        for e8, n_plus, n_minus in (("-E8", bp, bm - e), ("E8", bp - e, bm)):
            if min(n_plus, n_minus) >= 0 and n_plus + n_minus >= 1:
                return (e8, w_count), ("CP2", n_plus), ("-CP2", n_minus)
    if ks == 0:
        if sigma <= -9:
            return (("-CP2", -sigma - 9), ("-E8", 1), ("-CP2fake", 1),
                    ("S2xS2", bp))
        if sigma >= 9:
            return (("CP2", sigma - 7), ("E8", 1), ("-CP2fake", 1),
                    ("S2xS2", bm - 1))
        return ("CP2", bp), ("-CP2", bm)
    # ks == 1: one fake summand fixes the Kirby-Siebenmann bit
    return ("CP2", bp), ("-CP2", bm - 1), ("-CP2fake", 1)


def normalize_homeo_type(x):
    """Rewrite the simply-connected part into Freedman normal form.

    Blocks with b1 and the W blocks pass through unchanged.
    """
    return ManifoldExpr(
        [(NAMED[name], n) for name, n in _normalize_sc(x.sc, x.inv.torsion)]
        + [t for t in x.terms if t[0].spec.part != "sc"])


def reflection_slots(x, k):
    """Slots for the first k copies of the blocks that have a reflection.

    One (pair index, copies) per pair of x.terms, ascending; a pair's
    copies run out before the next pair's start.  Fewer than k copies if
    x holds fewer.
    """
    slots = []
    for j, (b, n) in enumerate(x.terms):
        if b.spec.reflect and k > 0:
            slots.append((j, min(n, k)))
            k -= n
    return tuple(slots)

