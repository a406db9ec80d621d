import itertools
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from fourfold import cli, manifold
from fourfold.errors import (
    DefinitePartUnsupported,
    FourfoldError,
    GenusZero,
    InvalidSetting,
    OrientationReversalUnavailable,
)

BLOCK_SAMPLES = [manifold.NAMED[name] for name in (
    "CP2", "-CP2", "-CP2fake", "S2xS2", "K3", "-K3", "E8", "-E8", "W")] + [
    manifold.Block("S1xY", param=0), manifold.Block("S1xY", param=2),
    manifold.Block("S2xSigma", param=1),
]


# --- block table ---

def test_block_table_values():
    table = oracles.block_table()
    assert table["CP2"] == {"b1": 0, "b2": 1, "sigma": 1, "spin": False,
                            "ks": 0, "h1z2_rank": 0}
    assert table["-CP2fake"] == {"b1": 0, "b2": 1, "sigma": -1, "spin": False,
                                 "ks": 1, "h1z2_rank": 0}
    assert table["K3"] == {"b1": 0, "b2": 22, "sigma": -16, "spin": True,
                           "ks": 0, "h1z2_rank": 0}
    assert table["-E8"] == {"b1": 0, "b2": 8, "sigma": -8, "spin": True,
                            "ks": 1, "h1z2_rank": 0}
    assert table["W"] == {"b1": 0, "b2": 0, "sigma": 0, "spin": False,
                          "ks": 1, "h1z2_rank": 1}
    assert table["S1xY(b1=1)"] == {"b1": 2, "b2": 2, "sigma": 0, "spin": True,
                                   "ks": 0, "h1z2_rank": 2}
    assert table["S2xSigma(g=2)"] == {"b1": 4, "b2": 2, "sigma": 0,
                                      "spin": True, "ks": 0, "h1z2_rank": 4}
    assert table["Enriques"] == {"b1": 0, "b2": 10, "sigma": -8,
                                 "spin": False, "ks": 0, "h1z2_rank": 1}


def test_block_form_consistent_with_lattice():
    for b in BLOCK_SAMPLES:
        plus, minus, zero, odd = oracles.block_inertia(b.atoms)
        assert (plus + minus + zero, plus - minus) == (b.inv.b2, b.inv.sigma)


def test_genus_zero_rejected():
    with pytest.raises(GenusZero):
        manifold.Block("S2xSigma", param=0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown block kind 'Bogus'"):
        manifold.Block("Bogus")


@pytest.mark.parametrize("kind, param", [
    ("S1xY", True), ("S1xY", 1.0), ("S1xY", "1"), ("S2xSigma", 2.0),
    ("E8", True), ("E8", -1.0), ("CP2", None),
])
def test_block_takes_only_an_int_param(kind, param):
    # the parser builds only ints: a bool or a float would render a name,
    # S1xY(b1=True) or S1xY(b1=1.0), that it cannot read back
    with pytest.raises(InvalidSetting, match="must be ints"):
        manifold.Block(kind, param=param)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no digit limit on int rendering")
def test_block_param_must_render():
    digits = sys.get_int_max_str_digits()
    if not digits:
        pytest.skip("the digit limit is off")
    with pytest.raises(InvalidSetting, match="digits"):
        manifold.Block("S1xY", param=10 ** digits)


@pytest.mark.parametrize("kind, param", [
    ("CP2", 3), ("CP2", -1), ("K3", -1), ("E8", 7), ("NegE8", 1),
    ("NegK3", 2), ("Enriques", 1), ("S4", 1),
])
def test_block_refuses_a_param_its_name_does_not_show(kind, param):
    # CP2 with param 3 would render as CP2 without being equal to it
    with pytest.raises(InvalidSetting, match="its name shows"):
        manifold.Block(kind, param=param)


def test_every_accepted_block_round_trips():
    accepted = set()
    for kind in [*manifold.BLOCKS, *manifold.COMPOSITES]:
        for param in (-1, 0, 1, 2):
            try:
                block = manifold.Block(kind, param)
            except FourfoldError:
                continue
            accepted.add((kind, param))
            x = manifold.ManifoldExpr(((manifold.NAMED["CP2"], 1), (block, 2)))
            assert cli.parse(x.render()) == x
    # a param only where the name has one
    assert {(k, p) for k, p in accepted if p} == {
        ("S1xY", 1), ("S1xY", 2), ("S2xSigma", 1), ("S2xSigma", 2)}


def test_a_bool_parameter_never_reaches_a_certificate():
    # once certified and stamped as S1xY(b1=True), which replay cannot parse
    with pytest.raises(InvalidSetting):
        manifold.expr(manifold.NAMED["-E8"], manifold.NAMED["-CP2fake"],
                      manifold.NAMED["S2xS2"],
                      manifold.Block("S1xY", param=True))


# --- connected sums ---

@pytest.mark.parametrize("count", [-1, 1.5, "2", None, True])
def test_count_must_be_a_nonnegative_int(count):
    with pytest.raises(ValueError, match="must be an int >= 0"):
        manifold.ManifoldExpr(((manifold.NAMED["CP2"], count),))


@pytest.mark.parametrize("terms", [
    5, ((1, 2),), ((manifold.NAMED["CP2"],),),
    ((manifold.NAMED["CP2"], 1, 2),), "ab",
    (("CP2", 1),), None],
    ids=["not-iterable", "int-block", "single", "triple", "text",
         "block-name", "none"])
def test_terms_must_be_block_count_pairs(terms):
    with pytest.raises(InvalidSetting):
        manifold.ManifoldExpr(terms)


def test_s4_is_identity():
    x = manifold.expr(manifold.NAMED["K3"], manifold.NAMED["S2xS2"])
    y = manifold.ManifoldExpr(x.terms + ((manifold.Block("S4"), 5),))
    assert x == y


def test_enriques_expansion():
    e = manifold.expr(manifold.Block("Enriques"))
    assert [(b.kind, n) for b, n in e.terms] == [
        ("NegE8", 1), ("S2xS2", 1), ("W", 1)]
    inv = e.inv
    assert (inv.sigma, inv.ks, inv.b2, inv.spin) == (-8, 0, 10, False)


def test_spin_sum_invariants():
    x = manifold.expr(manifold.NAMED["-E8"], manifold.NAMED["-E8"],
                      *([manifold.NAMED["S2xS2"]] * 3))
    inv = x.inv
    assert (inv.sigma, inv.b_plus, inv.spin, inv.ks) == (-16, 3, True, 0)
    assert not oracles.sum_inertia(x.terms)[3]


@given(st.lists(st.sampled_from(BLOCK_SAMPLES), max_size=5),
       st.lists(st.sampled_from(BLOCK_SAMPLES), max_size=5))
def test_connected_sum_additivity(a, b):
    xa, xb = manifold.expr(*a), manifold.expr(*b)
    x = manifold.expr(*a, *b)
    assert x.inv.sigma == xa.inv.sigma + xb.inv.sigma
    assert x.b1 == xa.b1 + xb.b1
    assert x.inv.b2 == xa.inv.b2 + xb.inv.b2
    assert x.inv.ks == (xa.inv.ks + xb.inv.ks) % 2
    assert x.inv.spin == (xa.inv.spin and xb.inv.spin)


# every kind and the composites, parameters 0-5
ANY_BLOCK = st.one_of(st.sampled_from(list(manifold.NAMED.values())),
                      st.builds(lambda p: manifold.Block("S1xY", param=p),
                                st.integers(0, 5)),
                      st.builds(lambda g: manifold.Block("S2xSigma", param=g),
                                st.integers(1, 5)))


@given(st.lists(ANY_BLOCK, max_size=8), st.booleans())
def test_sum_invariants_match_the_reference(blocks, reverse):
    x = manifold.expr(*blocks)
    if reverse and all(b.spec.mirror for b, _ in x.terms):
        x = manifold.mirror(x)
    for b, _ in x.terms:
        assert (b.inv.b_plus, b.inv.b_minus, 0, b.inv.odd > 0) == \
            oracles.block_inertia(b.atoms)
    everything = [b for b, n in x.terms for _ in range(n)]
    sc = [b for b in everything if b.spec.part == "sc"]
    for part, summands in ((x.inv, everything), (x.sc, sc)):
        terms = manifold.expr(*summands).terms
        assert (part.b_plus, part.b_minus, 0, part.odd > 0) == \
            oracles.sum_inertia(terms)
        assert part.ks == sum(b.spec.ks for b in summands) % 2
        # spin iff the sum's Gram matrix is even and it holds no W
        assert part.spin == (not oracles.sum_inertia(terms)[3]
                             and all(b.kind != "W" for b in summands))
        assert part.torsion == sum(b.kind == "W" for b in summands)


# --- mirror ---

def test_mirror_blocks():
    x = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["K3"],
                      manifold.NAMED["-E8"], manifold.NAMED["S2xS2"],
                      manifold.Block("S1xY", param=1))
    m = manifold.mirror(x)
    assert m.inv.sigma == -x.inv.sigma
    kinds = sorted(b.kind for b, _ in m.terms)
    assert kinds == ["E8", "NegCP2", "NegK3", "S1xY", "S2xS2"]


def test_mirror_fake_cp2_unavailable():
    with pytest.raises(OrientationReversalUnavailable):
        manifold.mirror(manifold.expr(manifold.NAMED["-CP2fake"]))


# --- normalization ---

def test_normalize_k3():
    out = manifold.normalize_homeo_type(manifold.expr(manifold.NAMED["K3"]))
    assert [(b.name, n) for b, n in out.terms] == [
        ("-E8", 2), ("S2xS2", 3)]
    assert (out.inv.sigma, out.inv.b2) == (-16, 22)


def test_normalize_odd_negative_signature():
    # 10 copies of -CP2 plus S2xS2: sigma=-10, ks=0, odd indefinite
    x = manifold.expr(*([manifold.NAMED["-CP2"]] * 10),
                      manifold.NAMED["S2xS2"])
    out = manifold.normalize_homeo_type(x)
    assert [(b.name, n) for b, n in out.terms] == [
        ("-E8", 1), ("S2xS2", 1), ("-CP2", 1), ("-CP2fake", 1)]
    assert (out.inv.sigma, out.inv.b2, out.inv.ks) == (-10, 12, 0)


def test_normalize_nonspin_normal_shape_is_fixed():
    for m, n in ((0, 1), (3, 2)):
        x = manifold.expr(*([manifold.NAMED["-CP2"]] * m),
                          manifold.NAMED["-E8"], manifold.NAMED["-CP2fake"],
                          *([manifold.NAMED["S2xS2"]] * n))
        assert manifold.normalize_homeo_type(x) == x


def test_normalize_enriques_type():
    # m Enriques + a S2xS2 + 2b (-E8) -> (m+2b) -E8 # (m+a) S2xS2 # m W
    for m, a, b in ((1, 0, 0), (2, 1, 1), (1, 2, 2)):
        x = manifold.expr(*([manifold.Block("Enriques")] * m),
                          *([manifold.NAMED["S2xS2"]] * a),
                          *([manifold.NAMED["-E8"]] * (2 * b)))
        out = manifold.normalize_homeo_type(x)
        counts = {blk.name: n for blk, n in out.terms}
        assert counts == {"-E8": m + 2 * b, "S2xS2": m + a, "W": m}


def test_normalize_small_odd_balanced():
    x = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.NAMED["-CP2"])
    out = manifold.normalize_homeo_type(x)
    assert [(b.name, n) for b, n in out.terms] == [("CP2", 1),
                                                       ("-CP2", 2)]


def test_normalize_ks_one_odd():
    x = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.NAMED["-CP2fake"])
    out = manifold.normalize_homeo_type(x)
    assert [(b.name, n) for b, n in out.terms] == [
        ("CP2", 1), ("-CP2", 1), ("-CP2fake", 1)]


def test_normalize_reverse_flag():
    x = manifold.expr(manifold.NAMED["K3"])
    out = manifold.normalize_homeo_type(manifold.mirror(x))
    assert out.inv.sigma == 16
    assert all(b.name in ("E8", "S2xS2") for b, _ in out.terms)


def test_even_rows_satisfy_rokhlin():
    # KS and sigma/8 mod 2 add over summands, so the spin normal form,
    # which takes KS = sigma/8 mod 2, holds for every even sum of these
    for kind, spec in manifold.BLOCKS.items():
        if spec.part == "sc":
            b = manifold.Block(kind)
            if not any(any(atom.wu) for atom, _ in b.atoms):
                assert spec.ks == (b.inv.sigma // 8) % 2, kind


def test_normalize_rejects_definite():
    with pytest.raises(DefinitePartUnsupported):
        manifold.normalize_homeo_type(manifold.expr(manifold.NAMED["CP2"]))


@given(st.lists(st.sampled_from(BLOCK_SAMPLES), max_size=6))
def test_normalize_idempotent_and_invariant_preserving(blocks):
    x = manifold.expr(*blocks)
    try:
        out = manifold.normalize_homeo_type(x)
    except DefinitePartUnsupported:
        return
    assert manifold.normalize_homeo_type(out) == out
    assert (out.inv.sigma, out.b1, out.inv.b2, out.inv.spin, out.inv.ks) == \
        (x.inv.sigma, x.b1, x.inv.b2, x.inv.spin, x.inv.ks)
    assert oracles.sum_inertia(out.terms)[3] == oracles.sum_inertia(x.terms)[3]
    assert [t for t in out.terms if t[0].spec.part != "sc"] == \
        [t for t in x.terms if t[0].spec.part != "sc"]


def test_smooth_blocks_have_zero_ks():
    smooth = [manifold.NAMED[name] for name in (
        "CP2", "-CP2", "S2xS2", "K3", "-K3")] + [
        manifold.Block("S1xY", param=1), manifold.Block("S2xSigma", param=1),
        manifold.Block("Enriques"), manifold.Block("S4")]
    assert manifold.expr(*smooth).inv.ks == 0


# --- reflection slots ---

def test_slots_per_summand():
    x = manifold.expr(*([manifold.NAMED["S2xS2"]] * 3))
    assert manifold.reflection_slots(x, 3) == ((0, 3),)
    assert manifold.reflection_slots(x, 9) == ((0, 3),)
    assert manifold.reflection_slots(x, 2) == ((0, 2),)
    assert manifold.reflection_slots(x, 0) == ()
    # sorted: S2xS2 # 2*CP2 # -CP2; the first k copies, pair by pair
    y = manifold.expr(*([manifold.NAMED["CP2"]] * 2), manifold.NAMED["-CP2"],
                      manifold.NAMED["S2xS2"])
    assert manifold.reflection_slots(y, 2) == ((0, 1), (1, 1))
    assert manifold.reflection_slots(y, 5) == ((0, 1), (1, 2))
    assert [y.terms[j][0].kind for j, _ in manifold.reflection_slots(y, 5)] \
        == ["S2xS2", "CP2"]
    assert manifold.reflection_slots(manifold.expr(), 1) == ()


def test_reflection_column():
    assert {b.kind for b in BLOCK_SAMPLES} == set(manifold.BLOCKS)
    for b in BLOCK_SAMPLES:
        reflect = b.spec.reflect
        if b.kind not in ("S2xS2", "CP2"):
            assert reflect is None, b.kind
            continue
        m = oracles.gram(b.atoms)

        def pair(u, v):
            return sum(ui * mij * vj
                       for ui, row in zip(u, m) for mij, vj in zip(row, v))

        box = list(itertools.product((-1, 0, 1), repeat=b.inv.b2))
        for u in box:
            assert reflect(reflect(u)) == u
            for v in box:
                assert pair(reflect(u), reflect(v)) == pair(u, v)
        # it flips a positive direction, so a family of it twists H+
        assert any(pair(v, v) > 0 and reflect(v) == tuple(-x for x in v)
                   for v in box)


def test_slot_sign_action():
    s2 = manifold.BLOCKS["S2xS2"].reflect
    assert s2((1, 0)) == (0, -1)
    assert s2((1, 1)) == (-1, -1)
    cp = manifold.BLOCKS["CP2"].reflect
    assert cp((1,)) == (-1,)
