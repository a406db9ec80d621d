import contextlib
import hashlib
import io
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from fourfold import cli, cover, lattice, manifold
from fourfold.errors import (DimensionMismatch, InvalidSetting,
                             NoNontrivialCoverAvailable, PreconditionViolated)


def standard_cover(*blocks):
    return cover.build_standard_cover(manifold.expr(*blocks))


# --- build_standard_cover ---

def test_b_plus_ell_equals_simply_connected_b_plus():
    x = manifold.expr(manifold.NAMED["-E8"], manifold.NAMED["-E8"],
                      *([manifold.NAMED["S2xS2"]] * 3),
                      manifold.Block("S1xY", param=1))
    ls = cover.build_standard_cover(x)
    assert ls.b_plus_ell == 3
    sc = manifold.ManifoldExpr(
        tuple(t for t in x.terms if t[0].spec.part == "sc"))
    assert ls.b_plus_ell == sc.inv.b_plus


def test_n_part_contributes_nothing_free():
    ls = standard_cover(manifold.NAMED["S2xS2"],
                        manifold.Block("S2xSigma", param=1))
    assert ls.rank == 2


def test_free_offsets_skip_exactly_the_n_blocks():
    x = manifold.expr(manifold.NAMED["K3"], manifold.Block("S1xY", param=2),
                      manifold.Block("S2xSigma", param=1))
    ls = cover.build_standard_cover(x)
    offsets = oracles.free_block_offsets(ls)
    for j, (block, _) in enumerate(x.terms):
        assert (j not in offsets) == (block.kind in ("S1xY", "S2xSigma"))


def test_no_cover_when_h1_trivial():
    with pytest.raises(NoNontrivialCoverAvailable) as e:
        standard_cover(manifold.NAMED["K3"])
    assert "no nontrivial double cover" in str(e.value)


def test_no_recipe_cover_without_n_blocks():
    with pytest.raises(NoNontrivialCoverAvailable) as e:
        standard_cover(manifold.NAMED["K3"], manifold.NAMED["W"])
    assert "does not apply" in str(e.value)


# --- w2 + w1^2 target class ---

def test_target_class_spin_no_torsion():
    ls = standard_cover(manifold.NAMED["-E8"], manifold.NAMED["S2xS2"],
                     manifold.Block("S1xY", param=1))
    assert not any(cover.w2_plus_w1sq(ls)) and ls.torsion_bits == 0


def test_target_class_w_torsion_bit():
    ls = standard_cover(manifold.NAMED["-E8"], manifold.NAMED["S2xS2"],
                        manifold.NAMED["W"], manifold.Block("S1xY", param=1))
    assert not any(cover.w2_plus_w1sq(ls))
    assert ls.torsion_bits == 1


def test_target_class_nonspin_diag_bits():
    x = manifold.expr(manifold.NAMED["-CP2"], manifold.NAMED["-CP2"],
                      manifold.NAMED["-E8"], manifold.NAMED["-CP2fake"],
                      manifold.NAMED["S2xS2"], manifold.Block("S1xY", param=1))
    ls = cover.build_standard_cover(x)
    target = cover.w2_plus_w1sq(ls)
    off = 0
    for atom, n in ls.free:
        for _ in range(n):
            bits = target[off:off + atom.rank]
            if isinstance(atom, lattice.Diag):
                assert bits == (1,)
            else:
                assert not any(bits)
            off += atom.rank
    assert off == ls.rank
    # the target is itself characteristic for the free form
    assert oracles.is_characteristic(oracles.gram(ls.free), target)


# --- the mod-2 condition on candidate classes ---

def test_zero_class_exists_for_spin():
    ls = standard_cover(manifold.NAMED["S2xS2"],
                        manifold.Block("S1xY", param=1))
    assert ls.char_class((0, 0)).square == 0


def test_odd_entry_on_hyperbolic_rejected():
    ls = standard_cover(manifold.NAMED["S2xS2"],
                        manifold.Block("S1xY", param=1))
    with pytest.raises(PreconditionViolated,
                       match="does not reduce to w2 \\+ w1\\^2"):
        ls.char_class((1, 0))


@pytest.mark.parametrize("text, bound", [
    ("CP2 # -CP2 # S2xS2 # S1xY(b1=1)", 2),
    ("-CP2fake # S2xS2 # W # S2xSigma(g=1)", 2),
    ("-E8 # S1xY(b1=1)", 1)])
def test_char_class_accepts_exactly_the_characteristic_vectors(text, bound):
    """char_class's mod-2 rule against the lattice's Wu criterion."""
    ls = cover.build_standard_cover(cli.parse(text))
    box = range(-bound, bound + 1)
    gram = oracles.gram(ls.free)
    for v in itertools.product(box, repeat=ls.rank):
        if oracles.is_characteristic(gram, v):
            assert ls.char_class(v).square == oracles.square(gram, v)
        else:
            with pytest.raises(PreconditionViolated):
                ls.char_class(v)


def test_nonspin_witness_class():
    m, n = 3, 2
    x = manifold.expr(*([manifold.NAMED["-CP2"]] * m), manifold.NAMED["-E8"],
                      manifold.NAMED["-CP2fake"],
                      *([manifold.NAMED["S2xS2"]] * n),
                      manifold.Block("S1xY", param=1))
    ls = cover.build_standard_cover(x)
    # block order: -E8 (8 coords), n hyperbolics, m copies of -CP2, fake -CP2
    free = (0,) * 8 + (0, 0) * n + (1,) * m + (1,)
    c = ls.char_class(free)
    assert c.square == -m - 1


def test_dimension_mismatch():
    ls = standard_cover(manifold.NAMED["S2xS2"],
                        manifold.Block("S1xY", param=1))
    with pytest.raises(DimensionMismatch):
        ls.char_class((0,))


# --- enumeration ---

def test_enumeration_contains_zero_for_spin():
    ls = standard_cover(manifold.NAMED["-E8"], manifold.NAMED["-E8"],
                     manifold.NAMED["S2xS2"], manifold.Block("S1xY", param=1))
    classes = cover.enumerate_characteristics(ls, 1)
    assert any(not any(c.free_part) for c in classes)
    gram = oracles.gram(ls.free)
    assert all(oracles.is_characteristic(gram, c.free_part) for c in classes)


def test_enumeration_max_square_nonspin():
    for m in (0, 2, 4):
        x = manifold.expr(*([manifold.NAMED["-CP2"]] * m),
                          manifold.NAMED["-E8"], manifold.NAMED["-CP2fake"],
                          manifold.NAMED["S2xS2"],
                          manifold.Block("S1xY", param=1))
        ls = cover.build_standard_cover(x)
        classes = cover.enumerate_characteristics(ls, 1)
        assert classes[0].square == -m - 1


def test_enumeration_sorted_square_descending():
    x = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.NAMED["-CP2"], manifold.Block("S1xY", param=1))
    classes = cover.enumerate_characteristics(cover.build_standard_cover(x), 2)
    squares = [c.square for c in classes]
    assert squares == sorted(squares, reverse=True)
    assert len(set(c.free_part for c in classes)) == len(classes)


def test_enumeration_stable_under_block_permutation():
    a = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.Block("S1xY", param=1))
    b = manifold.expr(manifold.NAMED["-CP2"], manifold.Block("S1xY", param=1),
                      manifold.NAMED["CP2"])
    la, lb = cover.build_standard_cover(a), cover.build_standard_cover(b)
    ca = cover.enumerate_characteristics(la, 1)
    cb = cover.enumerate_characteristics(lb, 1)
    assert [(c.free_part, c.square) for c in ca] == \
        [(c.free_part, c.square) for c in cb]


BRUTE_FORCE_ROWS = [
    (text, bound)
    for text in ("CP2 # -CP2 # S1xY(b1=1)",
                 "CP2 # 2*-CP2 # S2xS2 # S1xY(b1=1)",
                 "-CP2fake # S2xS2 # S2xSigma(g=1)",
                 "2*S2xS2 # -CP2 # S1xY(b1=1)",
                 "2*W # CP2 # -CP2fake # S1xY(b1=1)",
                 "S1xY(b1=1)",
                 "W # S1xY(b1=1)")
    for bound in (1, 2, 3)] + [("-E8 # S1xY(b1=1)", 1)] + [
    # a lead of several atoms: the first, then atoms of one square (a
    # diagonal one at bound 1 or 2, S2xS2 at bound 1).  At bound 3 no atom
    # has one square, and the oracle's box of 7^rank vectors bounds the
    # rank of the rows that reach it
    ("2*S2xS2 # 3*-CP2 # 2*CP2 # S1xY(b1=1)", 1),
    ("S2xS2 # 6*-CP2 # S1xY(b1=1)", 1), ("S2xS2 # 6*-CP2 # S1xY(b1=1)", 2),
    *((text, bound) for text in ("CP2 # 4*-CP2 # S1xY(b1=1)",
                                 "W # S2xS2 # 4*-CP2 # S1xY(b1=1)")
      for bound in (1, 2, 3))]


@pytest.mark.parametrize("text, bound", BRUTE_FORCE_ROWS)
def test_enumeration_matches_brute_force(text, bound):
    """The oracle: every vector of the box, kept iff it is characteristic."""
    ls = cover.build_standard_cover(cli.parse(text))
    box = itertools.product(range(-bound, bound + 1), repeat=ls.rank)
    gram = oracles.gram(ls.free)
    want = sorted((cover.CharClass(v, oracles.square(gram, v)) for v in box
                   if oracles.is_characteristic(gram, v)),
                  key=lambda c: (-c.square, c.free_part))
    assert want
    assert cover.enumerate_characteristics(ls, bound) == want


@st.composite
def random_sums(draw):
    """(text, bound): up to four CP2 and four -CP2, up to two of each other
    kind, a definite first atom at bound 1, W torsion tails, and rank-0
    forms when only W is left."""
    counts = [draw(st.integers(0, top)) for top in (4, 4, 2, 2, 2)]
    definite = draw(st.sampled_from(["", "-E8", "K3", "-K3"]))
    n_block = draw(st.sampled_from(["S1xY(b1=1)", "S2xSigma(g=1)"]))
    bound = 1 if definite else draw(st.integers(1, 3))
    names = ("CP2", "-CP2", "-CP2fake", "S2xS2", "W")
    terms = [f"{n}*{name}" for n, name in zip(counts, names)]
    return " # ".join(terms + [definite] * bool(definite) + [n_block]), bound


def box_size(ls, bound):
    """The classes of the parity box, or inf for a box that parity_box
    refuses as above cover.MAX_CLASSES."""
    try:
        return math.prod(map(len, cover.parity_box(ls, bound)))
    except InvalidSetting:
        return math.inf


def render(ls, classes):
    """spinc's text for these classes."""
    torsion = [1] * ls.torsion_bits
    return "".join(f"square = {c.square}: free = {list(c.free_part)}, "
                   f"torsion = {torsion}\n" for c in classes)


def spinc_text(text, bound):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["spinc", text, "--bound", str(bound)]) == 0
    return out.getvalue()


@settings(deadline=None)   # boxes of up to 4,096 classes, each checked
@given(random_sums())
def test_enumeration_matches_checked_path_random(case):
    """The fold against char_class, which checks and squares every class.

    Both the classes and spinc's text are checked, each against the sorted
    oracle.
    """
    text, bound = case
    ls = cover.build_standard_cover(cli.parse(text))
    assume(box_size(ls, bound) <= 4096)
    box = cover.parity_box(ls, bound)
    want = sorted((ls.char_class(v) for v in itertools.product(*box)),
                  key=lambda c: (-c.square, c.free_part))
    assert cover.enumerate_characteristics(ls, bound) == want
    assert spinc_text(text, bound) == render(ls, want)


@settings(max_examples=200, deadline=None)
@given(random_sums())
def test_spinc_prints_enumeration_random(case):
    """spinc's text groups, joined by the caller, against the classes
    enumerate_characteristics builds from the same groups."""
    text, bound = case
    ls = cover.build_standard_cover(cli.parse(text))
    assume(box_size(ls, bound) <= 20_000)
    assert spinc_text(text, bound) == render(
        ls, cover.enumerate_characteristics(ls, bound))


@pytest.mark.parametrize("text, bound", BRUTE_FORCE_ROWS)
def test_spinc_renders_enumeration(text, bound, capsys):
    """spinc prints exactly the enumerated classes, in their order."""
    ls = cover.build_standard_cover(cli.parse(text))
    want = render(ls, cover.enumerate_characteristics(ls, bound))
    assert cli.main(["spinc", text, "--bound", str(bound)]) == 0
    assert capsys.readouterr().out == want


def test_spinc_big_listing_bytes():
    """The 531,441 classes with the most tied squares, pinned before the
    listing was folded into square buckets."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["spinc", "-E8 # 2*S2xS2 # S1xY(b1=1)",
                         "--bound", "2"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "952eb37f6c02701584a7cbfeedd8ee32b775fd2e1760283010155a3fe272396a")


def test_spinc_listing_of_every_atom_kind():
    """236,196 classes over Diag of both signs, a hyperbolic plane and
    positive E8, whose Gram matrix has nonzero entries off the diagonal."""
    out = spinc_text("E8 # CP2 # -CP2 # S2xS2 # S1xY(b1=1)", 2)
    assert out.count("\n") == 236_196
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "376c040386ab4b4368e30b45937b9c626634c8f6daaefff470bb358056e6d594")


def test_lead_of_every_summand_lists_one_class():
    """Each S2xS2 has one piece at bound 1, so all 20,000 join the lead and
    its one first is the whole class."""
    text = "20000*S2xS2 # S1xY(b1=1)"
    assert spinc_text(text, 1) == (
        f"square = 0: free = [{', '.join(['0'] * 40_000)}], torsion = []\n")
    ls = cover.build_standard_cover(cli.parse(text))
    assert cover.enumerate_characteristics(ls, 1) == [
        cover.CharClass((0,) * 40_000, 0)]


def test_spinc_does_not_recheck_classes(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("spinc re-checked or built a class")

    monkeypatch.setattr(cover.LocalSystem, "char_class", refuse)
    monkeypatch.setattr(cover, "CharClass", refuse)
    code = cli.main(["spinc", "CP2 # 2*-CP2 # S2xS2 # S1xY(b1=1)",
                     "--bound", "3"])
    assert code == 0
    assert capsys.readouterr().out.startswith("square = ")


def test_van_der_blij_spin_squares():
    # every class of the 3^12 box, grouped by square and first-atom piece
    # as spinc lists them
    ls = standard_cover(manifold.NAMED["-E8"], manifold.NAMED["S2xS2"],
                        manifold.NAMED["S2xS2"],
                        manifold.Block("S1xY", param=1))
    listing = cover._listing(ls, 2, ())
    assert sum(len(suffixes) for _, groups in listing
               for _, suffixes in groups) == 3 ** 12
    assert all(square % 8 == 0 for square, _ in listing)


def test_bound_must_be_positive():
    ls = standard_cover(manifold.NAMED["S2xS2"],
                        manifold.Block("S1xY", param=1))
    with pytest.raises(ValueError):
        cover.enumerate_characteristics(ls, 0)
