import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fourfold import cli, cover, lattice, manifold
from fourfold.errors import DefinitePartUnsupported, DimensionMismatch

ATOMS = [
    lattice.Diag(1),
    lattice.Diag(-1),
    lattice.Hyperbolic(),
    lattice.E8(1),
    lattice.E8(-1),
]


def atoms_square(atoms, v):
    """The engine's square on a sum of atoms: each atom squares its piece."""
    total = off = 0
    for atom in atoms:
        total += atom.square(v[off:off + atom.rank])
        off += atom.rank
    return total


# --- the declared inertia against the reference ---

def test_atom_inertia_matches_reference():
    # no atom is degenerate, and its Wu class is 0 iff its form is even:
    # block_inertia is (b_plus, b_minus, b_zero, odd) of the Gram matrix
    for atom in ATOMS:
        pairs = ((atom, 1),)
        assert (atom.rank, *atom.inertia, 0, any(atom.wu)) == \
            (len(oracles.gram(pairs)), *oracles.block_inertia(pairs))


def test_hyperbolic_invariants():
    atom = lattice.Hyperbolic()
    assert (atom.inertia, any(atom.wu)) == ((1, 1), False)
    inv = manifold.NAMED["S2xS2"].inv
    assert (inv.sigma, inv.even, inv.b_plus, inv.b_minus) == (0, True, 1, 1)
    assert (*atom.inertia, 0, any(atom.wu)) == \
        oracles.block_inertia(((atom, 1),))


def test_negative_e8_invariants():
    atom = lattice.E8(-1)
    assert (atom.inertia, any(atom.wu)) == ((0, 8), False)
    inv = manifold.NAMED["-E8"].inv
    assert (inv.sigma, inv.even, inv.b_plus) == (-8, True, 0)
    assert (*atom.inertia, 0, any(atom.wu)) == \
        oracles.block_inertia(((atom, 1),))


def test_diagonal_invariants():
    x = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.NAMED["-CP2"])
    assert (x.inv.sigma, x.inv.even) == (-1, False)
    assert (x.inv.b_plus, x.inv.b_minus) == (1, 2)
    assert oracles.sum_inertia(x.terms) == (1, 2, 0, True)


def test_zero_rank_form():
    ls = cover.build_standard_cover(cli.parse("W # S1xY(b1=1)"))
    assert (ls.rank, ls.free) == (0, ())
    assert ls.char_class(()).square == 0
    assert oracles.inertia(oracles.gram(())) == (0, 0, 0)
    s4 = manifold.expr(manifold.Block("S4"))
    assert s4.inv == (0,) * 5 and s4.inv.sigma == 0
    assert manifold.normalize_homeo_type(s4) == s4


def test_reference_inertia_of_a_degenerate_gram():
    assert oracles.inertia(((1, 1), (1, 1))) == (1, 0, 1)
    assert oracles.inertia(((0, 1), (1, 0))) == (1, 1, 0)


# --- square ---

def test_square_hyperbolic():
    assert lattice.Hyperbolic().square((1, 1)) == 2
    assert oracles.square(oracles.gram(((lattice.Hyperbolic(), 1),)),
                          (1, 1)) == 2


def test_square_negative_diagonal():
    for m in range(5):
        ls = cover.build_standard_cover(
            cli.parse(f"{m + 1}*-CP2 # S1xY(b1=1)"))
        assert ls.rank == m + 1
        v = (1,) * ls.rank
        assert ls.char_class(v).square == -m - 1 == \
            oracles.square(oracles.gram(ls.free), v)


def test_square_zero_vector():
    for atom in ATOMS:
        assert atom.square((0,) * atom.rank) == 0


def test_square_dimension_mismatch():
    ls = cover.build_standard_cover(cli.parse("S2xS2 # S1xY(b1=1)"))
    for v in ((0,), (0, 0, 0)):
        with pytest.raises(DimensionMismatch):
            ls.char_class(v)


@given(st.sampled_from(ATOMS), st.data())
def test_atom_square_matches_reference(atom, data):
    """Each atom's square against v^T G v on its reference Gram matrix."""
    v = tuple(data.draw(st.lists(st.integers(-10**6, 10**6),
                                 min_size=atom.rank, max_size=atom.rank)))
    assert atom.square(v) == oracles.square(oracles.gram(((atom, 1),)), v)


# --- the reference Wu criterion ---

def test_characteristic_examples():
    assert oracles.is_characteristic(((0, 1), (1, 0)), (0, 0))
    assert oracles.is_characteristic(((-1,),), (1,))
    assert not oracles.is_characteristic(((-1,),), (0,))


def test_characteristic_e8_zero():
    assert oracles.is_characteristic(lattice.E8_MATRIX, (0,) * 8)


def test_characteristic_brute_force_matches_definition():
    """On a sum of atoms the characteristic vectors are exactly the
    vectors congruent mod 2 to the atoms' Wu bits, laid end to end."""
    rng = random.Random(7)
    for _ in range(20):
        atoms = tuple(rng.choice(ATOMS) for _ in range(rng.randint(1, 3)))
        gram = oracles.gram([(a, 1) for a in atoms])
        wu = [bit for a in atoms for bit in a.wu]
        for _ in range(10):
            v = tuple(rng.randint(-2, 2) for _ in range(len(gram)))
            assert oracles.is_characteristic(gram, v) == all(
                (x - bit) % 2 == 0 for x, bit in zip(v, wu))


# --- the per-atom rule: Wu bits and maximizer ---

def test_atom_wu_bits_are_characteristic():
    for atom in ATOMS:
        assert oracles.is_characteristic(oracles.atom_gram(atom), atom.wu)


@pytest.mark.parametrize("atom, bound", [
    (atom, bound) for atom in ATOMS[:3] for bound in range(1, 8)]
    + [(lattice.E8(-1), 1), (lattice.E8(-1), 2)])
def test_atom_maximizer_matches_box_scan(atom, bound):
    """The closed form against every characteristic vector of the box."""
    gram = oracles.gram(((atom, 1),))
    box = itertools.product(*[
        [x for x in range(-bound, bound + 1) if x % 2 == bit]
        for bit in atom.wu])
    want = min(box, key=lambda v: (-oracles.square(gram, v), v))
    assert atom.maximizer(bound) == want


# --- the engine's classifier: normalize_homeo_type ---

def test_classify_even_indefinite():
    for x in (manifold.expr(manifold.NAMED["K3"]),
              manifold.ManifoldExpr(((manifold.NAMED["-E8"], 2),
                                     (manifold.NAMED["S2xS2"], 3)))):
        normal = manifold.normalize_homeo_type(x)
        assert [(b.name, n) for b, n in normal.terms] == [
            ("-E8", 2), ("S2xS2", 3)]
        assert normal.inv.even


def test_classify_odd_indefinite():
    x = manifold.ManifoldExpr(((manifold.NAMED["CP2"], 1),
                               (manifold.NAMED["-CP2"], 10)))
    normal = manifold.normalize_homeo_type(x)
    assert (normal.inv.sigma, normal.inv.odd > 0) == (-9, True)
    plus, minus, zero, odd = oracles.sum_inertia(normal.terms)
    assert (plus, minus, zero, odd) == (x.inv.b_plus, x.inv.b_minus, 0, True)
    assert normal.inv.ks == x.inv.ks


def test_classify_hyperbolic():
    x = manifold.expr(manifold.NAMED["S2xS2"])
    normal = manifold.normalize_homeo_type(x)
    assert normal == x
    assert [(b.name, n) for b, n in normal.terms] == [("S2xS2", 1)]


def test_classify_rejects_definite():
    for name in ("CP2", "-E8", "-CP2"):
        with pytest.raises(DefinitePartUnsupported):
            manifold.normalize_homeo_type(manifold.expr(manifold.NAMED[name]))


SC_BLOCKS = [b for b in manifold.NAMED.values()
             if b.spec and b.spec.part == "sc"]


# --- properties ---

atom_lists = st.lists(st.sampled_from(ATOMS), min_size=0, max_size=6)


SUM_BLOCKS = SC_BLOCKS + [manifold.Block("S1xY", param=1)]


@given(st.lists(st.sampled_from(SUM_BLOCKS)),
       st.lists(st.sampled_from(SUM_BLOCKS)))
def test_signature_additive(a, b):
    xa, xb = manifold.expr(*a), manifold.expr(*b)
    x = manifold.expr(*a, *b)
    assert x.inv.sigma == xa.inv.sigma + xb.inv.sigma
    plus, minus, _, _ = oracles.sum_inertia(x.terms)
    assert plus - minus == x.inv.sigma


@given(st.lists(st.sampled_from(SC_BLOCKS), max_size=6),
       st.integers(0, 2))
def test_classify_preserves_invariants(blocks, w_count):
    x = manifold.ManifoldExpr(
        tuple((b, 1) for b in blocks) + ((manifold.NAMED["W"], w_count),))
    if not (x.sc.b_plus and x.sc.b_minus):
        return
    normal = manifold.normalize_homeo_type(x)
    want, got = (oracles.sum_inertia(t for t in y.terms
                                     if t[0].spec.part == "sc")
                 for y in (x, normal))
    assert (got[0] + got[1], got[0] - got[1], got[3]) == \
        (want[0] + want[1], want[0] - want[1], want[3])
    assert (normal.sc.ks, normal.inv.torsion) == (x.sc.ks, x.inv.torsion)


@given(st.lists(st.sampled_from(ATOMS[2:]), min_size=1, max_size=4),
       st.data())
def test_even_forms_have_even_squares(atoms, data):
    rank = sum(a.rank for a in atoms)
    v = data.draw(st.lists(st.integers(-3, 3), min_size=rank,
                           max_size=rank))
    assert atoms_square(atoms, v) % 2 == 0


def _unimodular(n, rng):
    """Random unimodular integer matrix built from shears and swaps."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


@settings(max_examples=30)
@given(atom_lists.filter(bool), st.integers(0, 10_000))
def test_square_invariant_under_basis_change(atoms, seed):
    """The atoms' square of u v is v^T (u^T Q u) v on the reference Gram."""
    rng = random.Random(seed)
    q = oracles.gram([(a, 1) for a in atoms])
    n = len(q)
    u = _unimodular(n, rng)
    v = [rng.randint(-3, 3) for _ in range(n)]
    uv = [sum(u[i][j] * v[j] for j in range(n)) for i in range(n)]
    qu = [[sum(q[i][a] * u[a][j] for a in range(n)) for j in range(n)]
          for i in range(n)]
    conj = [[sum(u[a][i] * qu[a][j] for a in range(n)) for j in range(n)]
            for i in range(n)]
    assert atoms_square(atoms, uv) == oracles.square(conj, v)
