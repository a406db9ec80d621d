"""Formal connected sums of oriented closed 4-manifold blocks.

A ManifoldExpr is a multiset of standard blocks with additive invariants
(signature, Betti numbers, Kirby-Siebenmann bit) and a normalizer that
rewrites the simply-connected part into its homeomorphism normal form.
"""

from typing import NamedTuple

from . import lattice
from ._frozen import frozen
from .errors import (
    DefinitePartUnsupported,
    GenusZero,
    OrientationReversalUnavailable,
    SpinKSInconsistent,
)


class BlockSpec(NamedTuple):
    """The facts that fix a block's invariants; one row of BLOCKS."""

    name: str        # rendered: {s} is "-" on a negative E8, {p} the param
    atoms: object    # block -> its intersection-form atoms
    b1: object       # param -> first Betti number
    spin: bool       # W is non-spin through its torsion w2; the rest iff even
    ks: int          # Kirby-Siebenmann bit
    h1_torsion: int  # Z2 torsion of H1: rank H^1(-; Z2) = b1 + h1_torsion
    mirror: str      # kind of the orientation-reversed block; "" if unknown
    part: str        # "sc": simply connected; "N": twisted by the cover; "": W
    reflect: object = None  # H^2 -> H^2 of its reflection slot; None: no slot


_H = (lattice.Hyperbolic(),)

# one row per block kind, in the canonical summand order
BLOCKS = {
    "E8": BlockSpec("{s}E8", lambda b: (lattice.E8(b.sign),),
                    lambda p: 0, True, 1, 0, "E8", "sc"),
    "K3": BlockSpec("K3", lambda b: (lattice.E8(-1),) * 2 + _H * 3,
                    lambda p: 0, True, 0, 0, "NegK3", "sc"),
    "NegK3": BlockSpec("-K3", lambda b: (lattice.E8(1),) * 2 + _H * 3,
                       lambda p: 0, True, 0, 0, "K3", "sc"),
    "S2xS2": BlockSpec("S2xS2", lambda b: _H,
                       lambda p: 0, True, 0, 0, "S2xS2", "sc",
                       lambda v: (-v[1], -v[0])),
    "CP2": BlockSpec("CP2", lambda b: (lattice.Diag(1),),
                     lambda p: 0, False, 0, 0, "NegCP2", "sc",
                     lambda v: (-v[0],)),
    "NegCP2": BlockSpec("-CP2", lambda b: (lattice.Diag(-1),),
                        lambda p: 0, False, 0, 0, "CP2", "sc"),
    "NegCP2Fake": BlockSpec("-CP2fake", lambda b: (lattice.Diag(-1),),
                            lambda p: 0, False, 1, 0, "", "sc"),
    "W": BlockSpec("W", lambda b: (), lambda p: 0, False, 1, 1, "W", ""),
    "S1xY": BlockSpec("S1xY(b1={p})", lambda b: _H * b.param,
                      lambda p: 1 + p, True, 0, 0, "S1xY", "N"),
    "S2xSigma": BlockSpec("S2xSigma(g={p})", lambda b: _H,
                          lambda p: 2 * p, True, 0, 0, "S2xSigma", "N"),
}
# kinds forming the N part of a connected sum (nontrivial double covers live here)
N_KINDS = tuple(k for k, spec in BLOCKS.items() if spec.part == "N")
_ORDER = {kind: i for i, kind in enumerate(BLOCKS)}


@frozen
class Block:
    kind: str
    sign: int = 0    # only for E8
    param: int = 0   # b1(Y) for S1xY, genus for S2xSigma

    def __post_init__(self):
        # not a field: the BLOCKS row of the kind; None for the COMPOSITES
        object.__setattr__(self, "spec", BLOCKS.get(self.kind))
        if self.spec is None and self.kind not in COMPOSITES:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == "S2xSigma" and self.param < 1:
            raise GenusZero("S2xSigma requires positive genus")
        if self.kind == "S1xY" and self.param < 0:
            raise ValueError("b1 must be non-negative")
        if self.kind == "E8" and self.sign not in (1, -1):
            raise ValueError("E8 block needs sign +1 or -1")

    @property
    def form_atoms(self):
        return self.spec.atoms(self)

    @property
    def form(self):
        return lattice.IntersectionForm(self.form_atoms)

    @property
    def b1(self):
        return self.spec.b1(self.param)

    @property
    def b2(self):
        return sum(a.rank for a in self.form_atoms)

    @property
    def sigma(self):
        return lattice.invariants(self.form).signature

    @property
    def spin(self):
        return self.spec.spin

    @property
    def ks(self):
        return self.spec.ks

    @property
    def h1z2_rank(self):
        return self.b1 + self.spec.h1_torsion

    def render(self):
        return self.spec.name.format(s="-" if self.sign < 0 else "",
                                     p=self.param)


def _sort_key(b):
    return (_ORDER[b.kind], -b.sign, b.param)


# convenience constructors

def CP2():
    return Block("CP2")


def NegCP2():
    return Block("NegCP2")


def NegCP2Fake():
    return Block("NegCP2Fake")


def S2xS2():
    return Block("S2xS2")


def K3():
    return Block("K3")


def NegK3():
    return Block("NegK3")


def E8Block(sign=-1):
    return Block("E8", sign=sign)


def W():
    return Block("W")


def S1xY(b1=0):
    return Block("S1xY", param=b1)


def S2xSigma(genus):
    return Block("S2xSigma", param=genus)


# composite blocks and their summands: Enriques surfaces decompose as
# -E8 # S2xS2 # W, and S4 is the identity
COMPOSITES = {"Enriques": (E8Block(-1), S2xS2(), W()), "S4": ()}


@frozen
class ManifoldExpr:
    summands: tuple = ()

    def __post_init__(self):
        blocks = []
        for b in self.summands:
            if b.spec is None:
                blocks.extend(COMPOSITES[b.kind])
            else:
                blocks.append(b)
        object.__setattr__(self, "summands",
                           tuple(sorted(blocks, key=_sort_key)))

    @property
    def form(self):
        return lattice.IntersectionForm(
            a for b in self.summands for a in b.form_atoms)

    @property
    def sigma(self):
        return lattice.invariants(self.form).signature

    @property
    def b1(self):
        return sum(b.b1 for b in self.summands)

    @property
    def b2(self):
        return sum(b.b2 for b in self.summands)

    @property
    def b_plus(self):
        return lattice.invariants(self.form).b_plus

    @property
    def spin(self):
        return all(b.spin for b in self.summands)

    @property
    def ks(self):
        return sum(b.ks for b in self.summands) % 2

    @property
    def torsion_slots(self):
        return sum(b.spec.h1_torsion for b in self.summands)

    @property
    def h1z2_rank(self):
        return sum(b.h1z2_rank for b in self.summands)

    def sc_part(self):
        return tuple(b for b in self.summands if b.spec.part == "sc")

    def non_sc_part(self):
        return tuple(b for b in self.summands if b.spec.part != "sc")

    def render(self):
        if not self.summands:
            return "S4"
        return " # ".join(b.render() for b in self.summands)


def expr(*blocks):
    return ManifoldExpr(tuple(blocks))


def mirror(x):
    """Orientation reversal: swap each block for its mirror."""
    out = []
    for b in x.summands:
        if not b.spec.mirror:
            raise OrientationReversalUnavailable(
                "the positively-oriented fake CP2 block is not modeled")
        out.append(Block(b.spec.mirror, -b.sign, b.param))
    return ManifoldExpr(tuple(out))


def _normalize_sc(sc_blocks, w_count):
    """Normal form of the simply-connected part, as a tuple of blocks.

    w_count is the number of W summands in the ambient expression; a
    rational homology sphere with torsion w2 pairs with E8 summands in the
    normal form used for the Enriques-type decompositions.
    """
    sc = ManifoldExpr(sc_blocks)
    inv = lattice.invariants(sc.form)
    if inv.rank == 0:
        return ()
    if inv.definite != "indefinite":
        raise DefinitePartUnsupported(
            "the simply-connected part must be indefinite or empty")
    ks = sum(b.ks for b in sc_blocks) % 2
    sigma, bp, bm = inv.signature, inv.b_plus, inv.b_minus

    if inv.parity == "even":
        p = abs(sigma) // 8
        if ks != p % 2:
            raise SpinKSInconsistent(
                "spin part violates KS = sigma/8 mod 2")
        sign = 1 if sigma > 0 else -1
        return (E8Block(sign),) * p + (S2xS2(),) * min(bp, bm)

    # odd case
    if w_count >= 1:
        # Enriques-style shape: w_count E8 summands plus a diagonal rest
        for sign, heavy in ((-1, bm), (1, bp)):
            if ks == w_count % 2 and heavy - 8 * w_count >= 0:
                n_plus = bp if sign < 0 else bp - 8 * w_count
                n_minus = bm - 8 * w_count if sign < 0 else bm
                if n_plus + n_minus >= 1:
                    return ((E8Block(sign),) * w_count
                            + (CP2(),) * n_plus + (NegCP2(),) * n_minus)
    if ks == 0:
        if sigma <= -9:
            return ((NegCP2(),) * (-sigma - 9) + (E8Block(-1),)
                    + (NegCP2Fake(),) + (S2xS2(),) * bp)
        if sigma >= 9:
            return ((CP2(),) * (sigma - 7) + (E8Block(1),)
                    + (NegCP2Fake(),) + (S2xS2(),) * (bm - 1))
        return (CP2(),) * bp + (NegCP2(),) * bm
    # ks == 1: one fake summand fixes the Kirby-Siebenmann bit
    return (CP2(),) * bp + (NegCP2(),) * (bm - 1) + (NegCP2Fake(),)


def normalize_homeo_type(x, reverse=False):
    """Rewrite the simply-connected part into Freedman normal form.

    Blocks with b1 and the W blocks pass through unchanged.  With
    reverse=True the whole expression is mirrored first.
    """
    if reverse:
        x = mirror(x)
    sc = x.sc_part()
    rest = x.non_sc_part()
    normal_sc = _normalize_sc(sc, x.torsion_slots)
    return ManifoldExpr(normal_sc + rest)


@frozen
class Slot:
    """A reflection slot: one H+-flipping self-map supported on one summand."""

    block_index: int   # index into expr.summands
    kind: str          # a kind whose BLOCKS row has a reflection

    def act(self, component):
        """Induced sign action on the block's H^2 coordinates."""
        return BLOCKS[self.kind].reflect(component)


def reflection_slots(x):
    """One slot per summand whose block has a reflection, in block order."""
    return tuple(Slot(block_index=i, kind=b.kind)
                 for i, b in enumerate(x.summands) if b.spec.reflect)


def block_table():
    """Machine-readable table of block invariants (parametric blocks sampled)."""
    samples = [
        CP2(), NegCP2(), NegCP2Fake(), S2xS2(), K3(), NegK3(),
        E8Block(1), E8Block(-1), W(), S1xY(0), S1xY(1), S2xSigma(1),
        S2xSigma(2),
    ]
    rows = [(b.render(), b) for b in samples]
    # Enriques is a composite: report the invariants of its expansion
    rows.append(("Enriques", ManifoldExpr((Block("Enriques"),))))
    return {name: {"b1": b.b1, "b2": b.b2, "sigma": b.sigma, "spin": b.spin,
                   "ks": b.ks, "h1z2_rank": b.h1z2_rank}
            for name, b in rows}
