import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold import lattice
from fourfold.errors import (
    DefiniteFormUnsupported,
    DegenerateForm,
    DimensionMismatch,
)

ATOMS = [
    lattice.Diag(1),
    lattice.Diag(-1),
    lattice.Hyperbolic(),
    lattice.E8(1),
    lattice.E8(-1),
]


def form_of(*atoms):
    return lattice.IntersectionForm(tuple(atoms))


# --- invariants ---

def test_hyperbolic_invariants():
    inv = lattice.invariants(form_of(lattice.Hyperbolic()))
    assert inv.signature == 0
    assert inv.parity == "even"
    assert (inv.b_plus, inv.b_minus) == (1, 1)


def test_negative_e8_invariants():
    inv = lattice.invariants(form_of(lattice.E8(-1)))
    assert inv.signature == -8
    assert inv.parity == "even"
    assert inv.definite == "negative"


def test_diagonal_invariants():
    inv = lattice.invariants(
        form_of(lattice.Diag(1), lattice.Diag(-1), lattice.Diag(-1)))
    assert inv.signature == -1
    assert inv.parity == "odd"
    assert inv.definite == "indefinite"


def test_zero_rank_form():
    inv = lattice.invariants(form_of())
    assert inv.rank == 0
    assert inv.definite == "zero"
    assert inv.signature == 0


def test_raw_matrix_matches_atom_arithmetic():
    for atom in ATOMS:
        raw_atom = lattice.RawMatrix(atom.matrix())
        direct = lattice.invariants(form_of(atom))
        raw = lattice.invariants(form_of(raw_atom))
        assert (direct.rank, direct.signature, direct.parity) == \
            (raw.rank, raw.signature, raw.parity)
        assert (atom.rank, atom.inertia, atom.even) == \
            (raw_atom.rank, raw_atom.inertia, raw_atom.even)


def test_raw_matrix_validation():
    with pytest.raises(ValueError):
        lattice.RawMatrix(((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(ValueError):
        lattice.RawMatrix(((1, 0),))  # not square


def test_degenerate_raw_matrix():
    singular = lattice.RawMatrix(((1, 1), (1, 1)))
    inv = lattice.invariants(form_of(singular))
    assert inv.b_zero == 1
    with pytest.raises(DegenerateForm):
        lattice.invariants(form_of(singular), unimodular_only=True)


# --- square ---

def test_square_hyperbolic():
    assert lattice.square(form_of(lattice.Hyperbolic()), (1, 1)) == 2


def test_square_negative_diagonal():
    for m in range(5):
        form = form_of(*([lattice.Diag(-1)] * (m + 1)))
        assert lattice.square(form, (1,) * (m + 1)) == -m - 1


def test_square_zero_vector():
    for atom in ATOMS:
        form = form_of(atom)
        assert lattice.square(form, (0,) * form.rank) == 0


def test_square_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lattice.square(form_of(lattice.Hyperbolic()), (1,))


# --- is_characteristic ---

def test_characteristic_examples():
    assert lattice.is_characteristic(form_of(lattice.Hyperbolic()), (0, 0))
    assert lattice.is_characteristic(form_of(lattice.Diag(-1)), (1,))
    assert not lattice.is_characteristic(form_of(lattice.Diag(-1)), (0,))


def test_characteristic_e8_zero():
    assert lattice.is_characteristic(form_of(lattice.E8(-1)), (0,) * 8)


def test_characteristic_brute_force_matches_definition():
    rng = random.Random(7)
    for _ in range(20):
        atoms = tuple(rng.choice(ATOMS[:3]) for _ in range(rng.randint(1, 3)))
        form = form_of(*atoms)
        matrix = form.matrix()
        n = form.rank
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        # definition: Q(v, e_i) = Q(e_i, e_i) mod 2 for every basis vector
        expected = all(
            (sum(matrix[i][j] * v[j] for j in range(n)) - matrix[i][i]) % 2 == 0
            for i in range(n))
        assert lattice.is_characteristic(form, v) == expected


# --- the per-atom rule: Wu bits and maximizer ---

def test_atom_wu_bits_are_characteristic():
    for atom in ATOMS:
        assert lattice.is_characteristic(form_of(atom), atom.wu)


@pytest.mark.parametrize("atom, bound", [
    (atom, bound) for atom in ATOMS[:3] for bound in range(1, 8)]
    + [(lattice.E8(-1), 1), (lattice.E8(-1), 2)])
def test_atom_maximizer_matches_box_scan(atom, bound):
    """The closed form against every characteristic vector of the box."""
    form = form_of(atom)
    box = itertools.product(*[
        [x for x in range(-bound, bound + 1) if x % 2 == bit]
        for bit in atom.wu])
    want = min(box, key=lambda v: (-lattice.square(form, v), v))
    assert atom.maximizer(bound) == want


# --- classify_indefinite ---

def test_classify_even_indefinite():
    form = form_of(lattice.E8(-1), lattice.E8(-1),
                   lattice.Hyperbolic(), lattice.Hyperbolic(),
                   lattice.Hyperbolic())
    nf = lattice.classify_indefinite(form)
    assert nf.parity == "even"
    assert (nf.e8_count, nf.e8_sign, nf.hyperbolic_count) == (2, -1, 3)


def test_classify_odd_indefinite():
    form = form_of(lattice.Diag(1), *([lattice.Diag(-1)] * 10))
    nf = lattice.classify_indefinite(form)
    inv = lattice.invariants(form)
    assert nf.parity == "odd"
    assert (nf.diag_plus, nf.diag_minus) == (inv.b_plus, inv.b_minus)
    assert inv.signature == -9


def test_classify_hyperbolic():
    nf = lattice.classify_indefinite(form_of(lattice.Hyperbolic()))
    assert (nf.parity, nf.e8_count, nf.hyperbolic_count) == ("even", 0, 1)


def test_classify_rejects_definite():
    with pytest.raises(DefiniteFormUnsupported):
        lattice.classify_indefinite(form_of(lattice.Diag(1)))
    with pytest.raises(DefiniteFormUnsupported):
        lattice.classify_indefinite(form_of(lattice.E8(-1)))


# --- properties ---

atom_lists = st.lists(st.sampled_from(ATOMS), min_size=0, max_size=6)


@given(atom_lists, atom_lists)
def test_signature_additive(a, b):
    fa, fb = form_of(*a), form_of(*b)
    total = lattice.invariants(lattice.IntersectionForm(fa.atoms + fb.atoms))
    assert total.signature == (lattice.invariants(fa).signature
                               + lattice.invariants(fb).signature)


@given(atom_lists)
def test_classify_preserves_invariants(atoms):
    form = form_of(*atoms)
    inv = lattice.invariants(form)
    if inv.definite in ("positive", "negative"):
        return
    rebuilt = lattice.classify_indefinite(form).as_form()
    out = lattice.invariants(rebuilt)
    assert (out.rank, out.signature, out.parity) == \
        (inv.rank, inv.signature, inv.parity)


@given(st.lists(st.sampled_from(ATOMS[2:]), min_size=1, max_size=4),
       st.data())
def test_even_forms_have_even_squares(atoms, data):
    form = form_of(*atoms)
    v = data.draw(st.lists(st.integers(-3, 3), min_size=form.rank,
                           max_size=form.rank))
    assert lattice.square(form, v) % 2 == 0


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
@given(st.integers(0, 10_000))
def test_square_invariant_under_basis_change(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    sym = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = rng.randint(-3, 3)
    u = _unimodular(n, rng)
    v = [rng.randint(-3, 3) for _ in range(n)]
    uv = [sum(u[i][j] * v[j] for j in range(n)) for i in range(n)]
    conj = [[sum(u[a][i] * sym[a][b] * u[b][j]
                 for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]
    q = form_of(lattice.RawMatrix(tuple(map(tuple, sym))))
    q2 = form_of(lattice.RawMatrix(tuple(map(tuple, conj))))
    assert lattice.square(q, uv) == lattice.square(q2, v)
