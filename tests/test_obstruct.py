import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fourfold import charpoly, cli, cover, lattice, manifold, obstruct
from fourfold.charpoly import BundleClassData, ExtPoly
from fourfold.errors import (
    DimensionMismatch,
    FourfoldError,
    HypothesesNotMet,
    InvalidSetting,
    OrientationReversalUnavailable,
    PreconditionViolated,
    RankMismatch,
    SlotUnavailable,
    ZeroClassUnavailable,
)


def family_for(x, k=None):
    """The family on the first k reflection copies of x, all if k is None."""
    ls = cover.build_standard_cover(x)
    slots = manifold.reflection_slots(x, x.inv.b2 if k is None else k)
    return obstruct.build_family(ls, slots), ls


def spin_expr(e8=2, s2=3):
    return manifold.expr(*([manifold.NAMED["-E8"]] * e8),
                         *([manifold.NAMED["S2xS2"]] * s2),
                         manifold.Block("S1xY", param=1))


def nonspin_expr(m=0, n=1):
    return manifold.expr(*([manifold.NAMED["-CP2"]] * m),
                         manifold.NAMED["-E8"], manifold.NAMED["-CP2fake"],
                         *([manifold.NAMED["S2xS2"]] * n),
                         manifold.Block("S1xY", param=1))


# the simply connected blocks, W and Enriques: every block but the N ones
SC_AND_W_BLOCKS = ("CP2", "-CP2", "-CP2fake", "S2xS2", "K3", "-K3", "E8",
                   "-E8", "W", "Enriques")
random_blocks = st.lists(st.integers(0, 2), min_size=len(SC_AND_W_BLOCKS),
                         max_size=len(SC_AND_W_BLOCKS))
n_blocks = st.sampled_from(["S1xY(b1=1)", "S2xSigma(g=1)"])


def terms_of(counts, n_block):
    return [name for n, name in zip(counts, SC_AND_W_BLOCKS)
            for _ in range(n)] + [n_block]


# --- build_family ---

def test_family_line_bundle_decomposition():
    x = spin_expr()
    fam, ls = family_for(x, k=2)
    assert fam.k == 2
    assert ls.b_plus_ell == 3
    assert charpoly.line_sum_w(fam.k, 1) == ExtPoly.t(2, 1) + ExtPoly.t(2, 2)
    assert charpoly.line_sum_w(fam.k, 2) == ExtPoly.t(2, 1) * ExtPoly.t(2, 2)
    assert not charpoly.line_sum_w(fam.k, 3)


def test_family_top_class_full_rank():
    x = nonspin_expr(m=2, n=2)
    fam, ls = family_for(x)
    n = ls.b_plus_ell
    fam, _ = family_for(x, k=n)
    top = charpoly.line_sum_w(fam.k, n)
    expected = ExtPoly.one(n)
    for i in range(1, n + 1):
        expected = expected * ExtPoly.t(n, i)
    assert top == expected


def test_family_zero_generators():
    fam, _ = family_for(spin_expr(), k=0)
    assert fam.k == 0
    assert charpoly.line_sum_w(fam.k, 0) == ExtPoly.one(0)
    assert not charpoly.line_sum_w(fam.k, 1)


def test_family_rejects_bad_slots():
    # sorted: -E8 # 2*S2xS2 # -CP2 # W # S1xY(b1=1); pair 1 reflects
    x = cli.parse("S2xS2 # -CP2 # W # -E8 # S2xS2 # S1xY(b1=1)")
    ls = cover.build_standard_cover(x)
    assert manifold.reflection_slots(x, 9) == ((1, 2),)
    bad = [
        # a pair with no reflection, or none at all: negative indices
        # must not wrap round to the last pairs
        (0, 1), (2, 1), (3, 1), (4, 1), (5, 1), (99, 1), (-1, 1), (-4, 1),
        (1, 0), (1, 3), (1, -1),          # zero or too many copies
        (True, 1), (1, True), ("1", 1), (1.0, 1), (1, 1.0),
        1, (1,), (1, 1, 1), [1, 1],       # not a (pair, copies) tuple
    ]
    for slot in bad:
        with pytest.raises(SlotUnavailable):
            obstruct.build_family(ls, (slot,))
    for slots in (None, 5, 1.5):          # not an iterable of slots
        with pytest.raises(SlotUnavailable, match="not iterable"):
            obstruct.build_family(ls, slots)
    for repeated in [((1, 1), (1, 1)), ((1, 1), (1, 2))]:
        with pytest.raises(SlotUnavailable, match="distinct pairs"):
            obstruct.build_family(ls, repeated)
    assert obstruct.build_family(ls, [(1, 2)]).generators == ((1, 2),)
    assert obstruct.build_family(ls, [(1, 1)]).k == 1


@given(counts=random_blocks, n_block=n_blocks)
def test_slots_never_outnumber_b_plus_ell(counts, n_block):
    """Each slot is its own S2xS2 or CP2 summand, adding 1 to b_plus_ell,
    so a family may take every slot as a generator."""
    x = cli.parse(" # ".join(terms_of(counts, n_block)))
    ls = cover.build_standard_cover(x)
    slots = manifold.reflection_slots(x, x.inv.b2)
    copies = sum(n for _, n in slots)
    assert copies <= ls.b_plus_ell
    assert obstruct.build_family(ls, slots).k == copies


def test_family_dimension_follows_generators():
    """k is the sum of the copies, so replace() cannot leave it stale."""
    x = cli.parse("-E8 # 3*S2xS2 # S1xY(b1=1)")
    fam, _ = family_for(x, k=2)
    assert obstruct.check_theorem_B(fam).base_dim == 2
    one = fam.replace(generators=((fam.generators[0][0], 1),))
    assert one.k == 1
    cert = obstruct.check_theorem_B(one)
    assert (cert.base_dim, cert.verdict) == (1, obstruct.INCONCLUSIVE)


# --- the per-block lift reference ---

def test_lift_zero_class():
    fam, ls = family_for(spin_expr(), k=2)
    c = ls.char_class((0,) * ls.rank)
    assert oracles.lift_valid(fam, c)


@pytest.mark.parametrize("free_part, square", [
    ((), 0), ((1,), 5), ((0,) * 9, 0), ((1,) * 4, 0)])
def test_lift_refuses_a_class_of_the_wrong_length(free_part, square):
    x = cli.parse("2*-CP2 # CP2 # S2xS2 # S1xY(b1=1)")
    fam, ls = family_for(x, k=2)
    assert len(fam.generators) == 2 and ls.rank == 5
    c = cover.CharClass(free_part, square)
    with pytest.raises(DimensionMismatch):
        oracles.lift_valid(fam, c)


def test_lift_class_off_reflected_summands():
    x = nonspin_expr(m=1, n=1)
    fam, ls = family_for(x)
    free = (0,) * 8 + (0, 0) + (1,) + (1,)
    c = ls.char_class(free)
    assert oracles.lift_valid(fam, c)


def test_lift_cp2_component_flipped_to_minus_itself():
    # reflections on CP2 summands send e to -e; the plus/minus rule accepts it
    x = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.NAMED["-CP2"], manifold.Block("S1xY", param=1))
    fam, ls = family_for(x)
    assert fam.k == 1
    c = ls.char_class((1, 1, 1))
    assert oracles.lift_valid(fam, c)


def test_lift_rejects_moved_component():
    x = manifold.expr(manifold.NAMED["S2xS2"], manifold.Block("S1xY", param=1))
    fam, ls = family_for(x)
    moved = ls.char_class((2, 0))  # reflection sends (2,0) to (0,-2)
    assert not oracles.lift_valid(fam, moved)
    # a slot of two copies checks each, whether the part repeats one or not
    x = manifold.expr(manifold.NAMED["S2xS2"], manifold.NAMED["S2xS2"],
                      manifold.Block("S1xY", param=1))
    fam, ls = family_for(x)
    assert fam.generators == ((0, 2),)
    for free, lifts in (((2, 0, 2, 0), False), ((2, 2, 2, 0), False),
                        ((2, 0, 2, 2), False), ((2, 2, -2, -2), True),
                        ((2, 2, 2, 2), True)):
        assert oracles.lift_valid(fam, ls.char_class(free)) == lifts


def certify_family(x):
    """The Theorem A family certify builds for x."""
    prepared = obstruct._prepare(x)
    ls = cover.build_standard_cover(prepared)
    return obstruct.build_family(
        ls, manifold.reflection_slots(prepared, ls.b_plus_ell))


@pytest.mark.parametrize("k", range(5))
def test_criterion_4_needs_per_block_lift_signs(k):
    """Criterion 4 certifies only under lift_valid's per-block signs.

    The CP2 slot negates the odd CP2 entry while the odd -CP2 entries stay
    put, so for k >= 1 the certified class has no global sign.  If the
    engine ever takes the global reading, these are the rows to recheck,
    with those of the test below.
    """
    x = cli.parse(f"Enriques # {k}*-CP2 # S2xSigma(g=1)")
    fam = certify_family(x)
    for bound in (1, 2, 3):
        c = oracles.closed_form_class(fam, bound)
        cert = obstruct.certify(x, bound=bound)
        assert (cert.verdict, cert.c1_square) == \
            (obstruct.NONSMOOTHABLE, c.square)
        assert oracles.lift_valid(fam, c)
        assert oracles.lifts_with_global_sign(fam, c) == (k == 0), bound


@pytest.mark.parametrize("text", [
    "2*W # CP2 # -CP2 # S1xY(b1=1)",
    "2*W # S2xS2 # CP2 # 2*-CP2 # S1xY(b1=1)",
])
def test_rows_deciding_on_per_block_lift_signs(text):
    """Inconclusive at bounds 1-2, NonSmoothable from bound 3 on.

    At every bound the deciding class lifts under lift_valid, the CP2 slot
    negating its entry, but has no global sign: the odd -CP2 entries stay.
    """
    x = cli.parse(text)
    fam = certify_family(x)
    for bound in (1, 2, 3, 4):
        cert = obstruct.certify(x, bound=bound)
        c = oracles.closed_form_class(fam, bound)
        assert (cert.verdict, cert.theorem_used) == (
            (obstruct.INCONCLUSIVE, "none") if bound < 3
            else (obstruct.NONSMOOTHABLE, "ThmA")), bound
        assert cert.c1_square == c.square
        assert oracles.lift_valid(fam, c)
        assert not oracles.lifts_with_global_sign(fam, c), bound


# the Theorem A rows of the lift-sign scan: criterion 1 (m 0-10, n 1-9),
# criterion 3 (a 0-12), criterion 4 (k 0-11) and the two rows above
LIFT_SIGN_SCAN = (
    [f"{m}*-CP2 # -E8 # -CP2fake # {n}*S2xS2 # S1xY(b1=1)"
     for m in range(11) for n in range(1, 10)]
    + [f"{m}*Enriques # {a}*S2xS2 # {2 * b}*-E8 # S1xY(b1=1)"
       for m in (1, 2) for a in range(13) for b in (0, 1, 2)]
    + [f"Enriques # {k}*-CP2 # S2xSigma(g=1)" for k in range(12)]
    + ["2*W # CP2 # -CP2 # S1xY(b1=1)",
       "2*W # S2xS2 # CP2 # 2*-CP2 # S1xY(b1=1)"])


def test_global_sign_reading_moves_only_the_known_rows():
    """The verdicts that oracles.global_sign_square's reading would change.

    Of the scan's 764 Theorem A certificates, at bounds 1-4, it changes
    exactly 48: every criterion-4 row with k >= 1, at every bound, and the
    two 2*W rows at bounds 3 and 4.  A new row of the scan whose verdict
    depends on the reading fails here.
    """
    moved = set()
    for text in LIFT_SIGN_SCAN:
        x = cli.parse(text)
        fam = certify_family(x)
        w_top = charpoly.line_sum_w(fam.k, fam.cover.b_plus_ell)
        for bound in (1, 2, 3, 4):
            cert = obstruct.certify(x, bound=bound)
            assert cert.input("scenario") in ("enriques", "nonspin")
            square = oracles.global_sign_square(fam, bound)
            fires = bool(w_top) and square is not None and square > cert.sigma
            if fires != (cert.verdict == obstruct.NONSMOOTHABLE):
                moved.add((text, bound))
    assert len(LIFT_SIGN_SCAN) * 4 == 764
    assert moved == {
        (f"Enriques # {k}*-CP2 # S2xSigma(g=1)", bound)
        for k in range(1, 12) for bound in (1, 2, 3, 4)} | {
        (text, bound) for text in LIFT_SIGN_SCAN[-2:] for bound in (3, 4)}
    assert len(moved) == 48


# --- theorem A ---

def test_theorem_a_fires_on_nonspin_series():
    for m in (0, 3):
        x = nonspin_expr(m=m, n=2)
        fam, ls = family_for(x)
        # at bound 1 each -CP2 and the -CP2fake give -1, the rest 0
        cert = obstruct.check_theorem_A(fam, 1)
        assert cert.verdict == obstruct.NONSMOOTHABLE
        assert cert.theorem_used == "ThmA"
        assert (cert.c1_square, cert.sigma) == (-m - 1, -m - 9)
        assert cert.index_value == ((-m - 1) - (-m - 9)) // 4 == 2
        assert cert.witness_monomial == "t1*t2"
        assert f"w_{ls.b_plus_ell}" in cert.transcript[2]


def test_theorem_a_top_class_is_line_sum_w():
    # check_theorem_A writes w_b from (k, b), for each k <= b that
    # build_family allows; -E8 makes c1^2 = 0 > sigma, so it fires at k = b
    for b in range(13):
        x = cli.parse(f"{b}*S2xS2 # -E8 # S1xY(b1=1)")
        for k in range(b + 1):
            cert = obstruct.check_theorem_A(family_for(x, k)[0], 1)
            top = charpoly.line_sum_w(k, b).render()
            assert cert.transcript[2] == f"w_{b}(H+(E,l)) = {top}"
            assert cert.witness_monomial == (top if k == b else "")


def test_theorem_a_inconclusive_when_top_class_vanishes():
    x = nonspin_expr(m=0, n=2)
    ls = cover.build_standard_cover(x)
    fam = obstruct.build_family(
        ls, manifold.reflection_slots(x, ls.b_plus_ell - 1))
    cert = obstruct.check_theorem_A(fam, 1)
    assert cert.verdict == obstruct.INCONCLUSIVE
    assert cert.theorem_used == "none"


def test_theorem_a_never_fires_when_inequality_holds():
    # sigma = 0, and up to bound 2 every class that lifts has square <= 0
    x = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.Block("S1xY", param=1))
    fam, ls = family_for(x)
    for bound in (1, 2):
        lifting = [c for c in cover.enumerate_characteristics(ls, bound)
                   if oracles.lift_valid(fam, c)]
        assert lifting and all(c.square <= x.inv.sigma for c in lifting)
        cert = obstruct.check_theorem_A(fam, bound)
        assert cert.verdict == obstruct.INCONCLUSIVE
        assert cert.c1_square == lifting[0].square


# --- the class Theorem A decides by ---

def first_liftable(fam, bound, lifts=oracles.lift_valid):
    """The oracle: the first class of the sorted coset that lifts."""
    return next((c for c in cover.enumerate_characteristics(fam.cover, bound)
                 if lifts(fam, c)), None)


def check_against_scans(fam, bound):
    """Theorem A's class and square, and the global reading's square,
    each against the first class of the scan that lifts."""
    want = first_liftable(fam, bound)
    assert want is not None
    assert oracles.closed_form_class(fam, bound) == want
    assert obstruct.check_theorem_A(fam, bound).c1_square == want.square
    best = first_liftable(fam, bound, oracles.lifts_with_global_sign)
    assert oracles.global_sign_square(fam, bound) == (
        None if best is None else best.square)


@pytest.mark.parametrize("text, bound, step", [
    (text, bound, step)
    for text in ("CP2 # 2*-CP2 # S2xS2 # S1xY(b1=1)",
                 "2*CP2 # -CP2 # -CP2fake # 2*S2xS2 # S1xY(b1=1)",
                 "CP2 # -CP2fake # 2*S2xS2 # S2xSigma(g=1)",
                 "2*W # CP2 # -CP2 # S1xY(b1=1)",
                 "2*W # S2xS2 # CP2 # 2*-CP2 # S1xY(b1=1)")
    for bound in (1, 2, 3) for step in (1, 2)] + [
    (text, bound, step)
    for text, bounds in (("-E8 # CP2 # S1xY(b1=1)", (1, 2)),
                         ("-E8 # -CP2fake # S2xS2 # S1xY(b1=1)", (1,)),
                         ("Enriques # CP2 # S1xY(b1=1)", (1,)),
                         ("Enriques # -CP2 # S2xSigma(g=1)", (1,)),
                         ("2*Enriques # S2xS2 # S1xY(b1=1)", (1,)),
                         # larger bounds, at most 10^4 classes per coset
                         ("CP2 # 2*-CP2 # S2xS2 # S1xY(b1=1)", (4, 5)),
                         ("2*CP2 # S2xS2 # S1xY(b1=1)", (4, 5)),
                         ("2*W # CP2 # -CP2 # S1xY(b1=1)", (4, 5)),
                         ("2*W # S2xS2 # CP2 # 2*-CP2 # S1xY(b1=1)", (4, 5)),
                         ("CP2 # -CP2fake # 2*S2xS2 # S2xSigma(g=1)", (4,)),
                         # the global reading's other branches: a CP2 slot
                         # that holds the only odd entry, beside an S2xS2
                         # slot, and an all-even free part
                         ("CP2 # S2xS2 # S1xY(b1=1)", (3,)),
                         ("2*S2xS2 # 2*W # S2xSigma(g=1)", (2,)))
    for bound in bounds for step in (1, 2)])
def test_largest_liftable_class_matches_oracle(text, bound, step):
    # step 2 keeps every other slot, and half its copies rounded up, so
    # equal blocks with and without a generator occur in the same family
    x = cli.parse(text)
    ls = cover.build_standard_cover(x)
    slots = [(j, -(-n // step)) for j, n in
             manifold.reflection_slots(x, ls.b_plus_ell)[::step]]
    check_against_scans(obstruct.build_family(ls, slots), bound)


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(0, 2), min_size=5, max_size=5),
       n_block=st.sampled_from(["S1xY(b1=1)", "S2xSigma(g=1)"]),
       bound=st.integers(1, 2),
       copies=st.lists(st.integers(0, 2), min_size=2, max_size=2))
def test_largest_liftable_class_matches_oracle_random(counts, n_block, bound,
                                                      copies):
    names = ("CP2", "-CP2", "-CP2fake", "S2xS2", "W")
    text = " # ".join([f"{n}*{name}" for n, name in zip(counts, names)]
                      + [n_block])
    x = cli.parse(text)
    ls = cover.build_standard_cover(x)
    # up to `copies` copies of each reflecting pair; 0 leaves it out
    slots = [(j, min(n, want)) for (j, n), want in
             zip(manifold.reflection_slots(x, ls.b_plus_ell), copies) if want]
    check_against_scans(obstruct.build_family(ls, slots), bound)


@given(counts=random_blocks, n_block=n_blocks)
def test_prepared_cover_has_closed_form_atoms(counts, n_block):
    """Every atom _prepare can leave in a cover has a closed-form maximizer."""
    try:
        prepared = obstruct._prepare(cli.parse(" # ".join(
            terms_of(counts, n_block))))
    except FourfoldError:
        return
    ls = cover.build_standard_cover(prepared)
    for atom, _ in ls.free:
        assert isinstance(atom, (lattice.Diag, lattice.Hyperbolic)) \
            or atom == lattice.E8(-1)
    # Theorem A takes one generator per positive direction of the free form
    assert ls.b_plus_ell == sum(
        n for _, n in manifold.reflection_slots(prepared, prepared.inv.b2))


def test_theorem_a_refuses_positive_e8():
    # an unprepared cover may hold +E8; no scan stands in for its rule
    fam, _ = family_for(cli.parse("E8 # S2xS2 # S1xY(b1=1)"))
    with pytest.raises(PreconditionViolated):
        obstruct.check_theorem_A(fam, 1)


def test_theorem_a_class_at_huge_bound():
    # a box of 10^9 entries per coordinate: no search could finish
    fam, _ = family_for(cli.parse("Enriques # CP2 # S1xY(b1=1)"))
    c = oracles.closed_form_class(fam, 10**9)
    assert c.free_part == (0, 0, 0, 0, 0, 0, 0, 0,
                           -1_000_000_000, -1_000_000_000, -999_999_999)
    assert c.square == 2_999_999_998_000_000_001
    assert oracles.is_characteristic(oracles.gram(fam.cover.free),
                                     c.free_part)
    assert oracles.lift_valid(fam, c)
    assert obstruct.check_theorem_A(fam, 10**9).c1_square == c.square


@pytest.mark.parametrize("bound", [0, 1.5, 2.0, True, "2"])
def test_bound_must_be_an_int_of_at_least_one(bound):
    # a Theorem A row, a spin row and their cover and family
    nonspin = cli.parse("CP2 # 2*-CP2 # S2xS2 # S1xY(b1=1)")
    spin = cli.parse("2*-E8 # 3*S2xS2 # S1xY(b1=1)")
    fam, ls = family_for(nonspin)
    for call in (lambda: obstruct.certify(nonspin, bound=bound),
                 lambda: obstruct.certify(spin, bound=bound),
                 lambda: obstruct.check_theorem_A(fam, bound),
                 lambda: cover.enumerate_characteristics(ls, bound)):
        with pytest.raises(InvalidSetting, match="bound must be"):
            call()


def test_certify_does_not_enumerate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify enumerated or built a class")

    monkeypatch.setattr(cover, "enumerate_characteristics", refuse)
    monkeypatch.setattr(cover.LocalSystem, "char_class", refuse)
    monkeypatch.setattr(cover, "CharClass", refuse)
    x = cli.parse("30*-CP2 # -E8 # -CP2fake # 2*S2xS2 # S1xY(b1=1)")
    cert = obstruct.certify(x)
    assert cert.verdict == obstruct.NONSMOOTHABLE
    assert (cert.c1_square, cert.sigma) == (-31, -39)


def test_build_family_does_not_expand_line_sum():
    x = cli.parse("2*-E8 # 40*S2xS2 # S2xSigma(g=1)")
    cert = obstruct.certify(x)
    assert (cert.verdict, cert.theorem_used, cert.base_dim) == \
        (obstruct.NONSMOOTHABLE, "ThmB", 39)
    assert cert.witness_monomial == "*".join(f"t{i}" for i in range(1, 40))


def test_scale_row_is_three_pairs():
    """98,021 summands are 3 pairs, and the family one slot of 49,000."""
    x = cli.parse("49000*CP2 # 49020*-CP2 # S1xY(b1=1)")
    assert [(b.name, n) for b, n in x.terms] == [
        ("CP2", 49_000), ("-CP2", 49_020), ("S1xY(b1=1)", 1)]
    # sigma = -20 normalizes to -E8 # 49000*S2xS2 # 11*-CP2 # -CP2fake
    fam = certify_family(x)
    assert [(b.name, n) for b, n in fam.cover.base.terms] == [
        ("-E8", 1), ("S2xS2", 49_000), ("-CP2", 11), ("-CP2fake", 1),
        ("S1xY(b1=1)", 1)]
    assert (fam.k, fam.generators) == (49_000, ((1, 49_000),))
    cert = obstruct.certify(x)
    assert (cert.verdict, cert.theorem_used, cert.base_dim) == \
        (obstruct.NONSMOOTHABLE, "ThmA", 49_000)


def test_certify_family_over_t23():
    # expanding the product of (1 + ti) here takes 2^23 monomials
    x = cli.parse("Enriques # -K3 # S1xY(b1=1) # -E8 # K3 # -E8")
    cert = obstruct.certify(x)
    assert (cert.verdict, cert.theorem_used, cert.base_dim) == \
        (obstruct.NONSMOOTHABLE, "ThmA", 23)
    assert cert.witness_monomial == "*".join(f"t{i}" for i in range(1, 24))


# --- theorem B ---

def test_theorem_b_fires_on_spin_case():
    x = spin_expr(e8=2, s2=3)
    fam, ls = family_for(x, k=2)
    cert = obstruct.check_theorem_B(fam)
    assert cert.verdict == obstruct.NONSMOOTHABLE
    assert cert.theorem_used == "ThmB"
    assert cert.index_value == 2
    assert cert.witness_monomial == "t1*t2"


def test_theorem_b_inconclusive_at_zero_signature():
    x = manifold.expr(manifold.NAMED["S2xS2"], manifold.NAMED["S2xS2"],
                      manifold.Block("S1xY", param=1))
    fam, _ = family_for(x, k=1)
    cert = obstruct.check_theorem_B(fam)
    assert cert.verdict == obstruct.INCONCLUSIVE


def test_theorem_b_requires_zero_class():
    x = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.Block("S1xY", param=1))
    fam, _ = family_for(x)
    with pytest.raises(ZeroClassUnavailable):
        obstruct.check_theorem_B(fam)


@pytest.mark.parametrize("text", [
    "CP2 # -CP2 # S1xY(b1=1)",
    "2*-E8 # 3*S2xS2 # -CP2 # S1xY(b1=1)",
    "W # 2*S2xS2 # -E8 # S1xY(b1=1)",
    "K3 # S2xS2 # S1xY(b1=1)",
    "2*-E8 # 3*S2xS2 # S2xSigma(g=2)",
])
def test_theorem_b_refuses_exactly_a_nonzero_wu_class(text):
    # the per-pair Wu test agrees with the rank-length w2 + w1^2
    fam, ls = family_for(cli.parse(text), k=0)
    if ls.torsion_bits or any(cover.w2_plus_w1sq(ls)):
        with pytest.raises(ZeroClassUnavailable):
            obstruct.check_theorem_B(fam)
    else:
        assert obstruct.check_theorem_B(fam).theorem_used == "none"


@pytest.mark.parametrize("text, k", [
    ("2*-E8 # S2xS2 # S1xY(b1=1)", 0),
    *[("2*-E8 # 4*S2xS2 # S1xY(b1=1)", k) for k in range(5)],
])
def test_theorem_b_euler_text_is_the_rendered_class(text, k):
    # e_C4 reuses the texts of w_b and w_{b-1}; the reference renders
    # w_b + w_{b-1} u as one polynomial
    fam, ls = family_for(cli.parse(text), k)
    b = ls.b_plus_ell
    euler = charpoly.line_sum_w(k, b) + charpoly.line_sum_w(
        k, b - 1) * charpoly.ExtPoly.u(k)
    transcript = obstruct.check_theorem_B(fam).transcript
    assert f"e_C4(H+(E,l)) = {euler.render()}" in transcript


def test_theorem_a_and_b_agree_on_zero_class():
    # with c = 0 both checks fire exactly when sigma < 0 and the relevant
    # class of H+ is nonzero; the full-rank family makes both nonzero.  At
    # bound 1 Theorem A's class on this even form is 0
    x = spin_expr(e8=2, s2=3)
    fam, ls = family_for(x, k=3)
    a = obstruct.check_theorem_A(fam, 1)
    assert a.c1_square == 0
    b = obstruct.check_theorem_B(fam)
    assert a.verdict == b.verdict == obstruct.NONSMOOTHABLE


# --- corollary constraints ---

def test_constraints_trivial_data_vacuous():
    fam, _ = family_for(spin_expr(), k=2)
    v1 = BundleClassData(k=2, rank=2, sw=())
    w1 = BundleClassData(k=2, rank=2, sw=())
    report = obstruct.corollary_constraints(fam, v1, w1)
    assert not report.incompatible
    assert all(e.satisfied for e in report.entries)


def test_constraints_negative_index_violates_degree_zero():
    x = manifold.expr(manifold.NAMED["S2xS2"], manifold.NAMED["S2xS2"],
                      manifold.Block("S1xY", param=1))
    fam, _ = family_for(x, k=2)
    v1 = BundleClassData(k=2, rank=3, sw=())
    w1 = BundleClassData(k=2, rank=1, sw=())
    report = obstruct.corollary_constraints(fam, v1, w1)
    assert report.n_minus_m == -2
    assert report.incompatible
    assert report.entries[0].degree == 0
    assert not report.entries[0].satisfied


def test_constraints_exterior_vanishing():
    x = manifold.expr(manifold.NAMED["S2xS2"], manifold.NAMED["S2xS2"],
                      manifold.Block("S1xY", param=1))
    fam, _ = family_for(x, k=2)
    v1 = BundleClassData(k=2, rank=1, sw=())
    w1 = BundleClassData(k=2, rank=1, sw=(ExtPoly.t(2, 1),))
    report = obstruct.corollary_constraints(fam, v1, w1)
    # degree-1 virtual class t1 against e(H+) = t1*t2: product vanishes
    assert report.euler == "t1*t2"
    assert report.entries[0].degree == 1
    assert report.entries[0].virtual_class == "t1"
    assert not report.incompatible


def test_constraints_rank_mismatch():
    fam, _ = family_for(spin_expr(), k=2)
    with pytest.raises(RankMismatch):
        obstruct.corollary_constraints(
            fam, BundleClassData(k=1, rank=1, sw=()),
            BundleClassData(k=2, rank=1, sw=()))


def random_class_data(k, rank, data):
    """Class data over T^k: w_i a random sum of products of i t's."""
    sw = []
    for i in range(1, k + 1):
        masks = data.draw(st.sets(st.sampled_from(
            [sum(1 << j for j in c)
             for c in itertools.combinations(range(k), i)]), max_size=4))
        sw.append(ExtPoly(k, {(m, 0) for m in masks}))
    return BundleClassData(k=k, rank=rank, sw=sw)


@settings(max_examples=150, deadline=None)
@given(b=st.integers(0, 5), data=st.data())
def test_constraints_closed_form(b, data):
    """Incompatible iff k = b_plus_ell and rank W1 < rank V1; no product
    above degree 0 is nonzero; each virtual class is the degree part of
    w(W1) * w(V1)^{-1}."""
    x = manifold.expr(*([manifold.NAMED["S2xS2"]] * b),
                      manifold.Block("S1xY", param=1))
    k = data.draw(st.integers(0, b))
    fam, ls = family_for(x, k=k)
    assert ls.b_plus_ell == b
    v1 = random_class_data(k, data.draw(st.integers(0, 6)), data)
    w1 = random_class_data(k, data.draw(st.integers(0, 6)), data)
    report = obstruct.corollary_constraints(fam, v1, w1)
    assert report.incompatible == (k == b and w1.rank < v1.rank)
    assert all(e.product == "0" for e in report.entries if e.degree > 0)
    total = oracles.total(w1) * oracles.invert_unit(oracles.total(v1))
    assert [e.degree for e in report.entries] == list(
        range(max(0, w1.rank - v1.rank + 1), k + 1))
    for e in report.entries:
        assert e.virtual_class == \
            oracles.t_degree_part(total, e.degree).render()


# --- certify ---

def test_certify_spin_example():
    x = spin_expr(e8=2, s2=3)
    cert = obstruct.certify(x)
    assert cert.verdict == obstruct.NONSMOOTHABLE
    assert cert.theorem_used == "ThmB"
    assert cert.base_dim == 2
    assert cert.index_value == 2


def test_certify_enriques_family():
    x = manifold.expr(manifold.Block("Enriques"), manifold.NAMED["-CP2"],
                      manifold.Block("S2xSigma", param=1))
    cert = obstruct.certify(x)
    assert cert.verdict == obstruct.NONSMOOTHABLE
    assert cert.base_dim == 1


def test_certify_negative_control():
    x = manifold.expr(manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.Block("S1xY", param=0))
    with pytest.raises(HypothesesNotMet) as e:
        obstruct.certify(x)
    assert "|sigma(M)| > 8" in str(e.value)


def test_certify_positive_signature_mirrors_first():
    x = manifold.expr(*([manifold.NAMED["E8"]] * 2),
                      *([manifold.NAMED["S2xS2"]] * 3),
                      manifold.Block("S1xY", param=1))
    cert = obstruct.certify(x)
    assert cert.verdict == obstruct.NONSMOOTHABLE
    assert cert.sigma == -16


def test_certify_inconclusive_verdict():
    x = manifold.expr(manifold.NAMED["W"], manifold.NAMED["W"],
                      manifold.NAMED["CP2"], manifold.NAMED["-CP2"],
                      manifold.Block("S1xY", param=1))
    cert = obstruct.certify(x)
    assert cert.verdict == obstruct.INCONCLUSIVE
    assert cert.theorem_used == "none"


@pytest.mark.parametrize("text, theorem", [
    ("2*-E8 # 3*S2xS2 # S1xY(b1=1)", "ThmB"),
    ("CP2 # S1xY(b1=1)", None),
])
def test_certify_prepares_each_input_once(monkeypatch, text, theorem):
    # auto reaches the normal form in nonspin and again in spin
    calls = []
    normalize = manifold.normalize_homeo_type

    def counting(*args, **kwargs):
        calls.append(args)
        return normalize(*args, **kwargs)

    monkeypatch.setattr(manifold, "normalize_homeo_type", counting)
    try:
        assert obstruct.certify(cli.parse(text)).theorem_used == theorem
    except HypothesesNotMet as e:
        assert theorem is None
        assert e.args[0] == (
            "enriques: at least one Enriques block required; "
            "nonspin: indefinite simply-connected part required; "
            "spin: indefinite simply-connected part required")
    assert len(calls) == 1


@pytest.mark.parametrize("scenario", ["bogus", ["spin"], {"a": 1}])
def test_certify_unknown_scenario(scenario):
    with pytest.raises(InvalidSetting, match="unknown scenario"):
        obstruct.certify(spin_expr(), scenario=scenario)


@pytest.mark.parametrize("x", [
    "2*-E8 # 3*S2xS2 # S1xY(b1=1)", None, 3, (), manifold.NAMED["K3"]])
def test_certify_refuses_what_is_not_an_expression(x):
    with pytest.raises(InvalidSetting, match="needs a ManifoldExpr"):
        obstruct.certify(x)


def test_verdict_invariant_under_permutation():
    blocks = [manifold.NAMED["-E8"], manifold.NAMED["-CP2fake"],
              manifold.NAMED["S2xS2"], manifold.Block("S1xY", param=1),
              manifold.NAMED["-CP2"]]
    certs = {obstruct.certify(manifold.expr(*perm))
             for perm in itertools.permutations(blocks)}
    assert len(certs) == 1


def test_replay_round_trip():
    for x in (spin_expr(), nonspin_expr(m=1, n=2)):
        cert = obstruct.certify(x)
        assert cli.replay(cert)


@settings(deadline=None)
@given(counts=random_blocks, n_block=st.sampled_from(["", "S1xY(b1=1)"]),
       bound=st.integers(1, 2))
def test_scenarios_exclude_each_other(counts, n_block, bound):
    """At most one scenario certifies; auto returns it or joins the reasons."""
    x = cli.parse(" # ".join(t for t in terms_of(counts, n_block) if t)
                  or "S4")
    certs, reasons = [], []
    for name in ("enriques", "nonspin", "spin"):
        try:
            certs.append(obstruct.certify(x, name, bound))
        except HypothesesNotMet as e:
            reasons.append(f"{name}: {e.args[0]}")
        except FourfoldError:
            return
    assert len(certs) <= 1
    if certs:
        assert obstruct.certify(x, bound=bound) == certs[0]
    else:
        with pytest.raises(HypothesesNotMet) as e:
            obstruct.certify(x, bound=bound)
        assert e.value.args[0] == "; ".join(reasons)


def certify_outcome(x, bound):
    try:
        return obstruct.certify(x, bound=bound)
    except FourfoldError as e:
        return type(e).__name__, str(e)


@settings(deadline=None)
@given(counts=random_blocks, n_block=n_blocks, bound=st.integers(1, 4),
       data=st.data())
def test_certify_properties_random(counts, n_block, bound, data):
    """Summand order and a double mirror leave the outcome alone; replay holds."""
    terms = terms_of(counts, n_block)
    x = cli.parse(" # ".join(terms))
    got = certify_outcome(x, bound)
    shuffled = data.draw(st.permutations(terms))
    assert certify_outcome(cli.parse(" # ".join(shuffled)), bound) == got
    if "-CP2fake" in terms:
        with pytest.raises(OrientationReversalUnavailable):
            manifold.mirror(manifold.mirror(x))
    else:
        assert certify_outcome(manifold.mirror(manifold.mirror(x)),
                               bound) == got
    if isinstance(got, obstruct.Certificate):
        assert cli.replay(got)


def _accepted_blocks():
    """Every Block the library takes with a param in -1..3: each kind,
    composites included."""
    blocks = []
    for kind, param in itertools.product(
            [*manifold.BLOCKS, *manifold.COMPOSITES], range(-1, 4)):
        try:
            blocks.append(manifold.Block(kind, param))
        except FourfoldError:
            pass
    return blocks


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(_accepted_blocks()),
                                st.integers(0, 3)),
                      max_size=8),
       scenario=st.sampled_from(["auto", "spin", "nonspin", "enriques"]),
       bound=st.sampled_from((1, 2, 3, 10**9)))
def test_every_accepted_sum_certifies_or_refuses(pairs, scenario, bound):
    """A ManifoldExpr built from Blocks, not parsed: certify returns a
    certificate or raises a FourfoldError, and replay reproduces it."""
    x = manifold.ManifoldExpr(tuple(pairs))
    try:
        cert = obstruct.certify(x, scenario=scenario, bound=bound)
    except FourfoldError:
        return
    assert cli.replay(cert)


# --- the verdict in closed form ---

# every block name, composites and parametrized blocks included
ALL_BLOCKS = ("CP2", "-CP2", "-CP2fake", "S2xS2", "K3", "-K3", "E8", "-E8",
              "W", "Enriques", "S4", "S1xY(b1=0)", "S1xY(b1=1)",
              "S1xY(b1=2)", "S2xSigma(g=1)", "S2xSigma(g=2)")


def closed_form_path(x, bound):
    """Certify x and check the certificate against the closed form.

    Reads only the certificate's fields and counts the atoms of its
    normalized input.  With o and e the largest odd and even numbers up
    to the bound, a Theorem A-path class exceeds sigma by o^2 - 1 per CP2,
    8 per -E8 and 2 e^2 per S2xS2, and the top class of the k generators
    is t1*...*tk; Theorem B's witness is t1*...*t(b-1) and its index
    -sigma/8.  Returns the certificate's scenario, or None without one.
    """
    try:
        cert = obstruct.certify(x, bound=bound)
    except FourfoldError:
        return None
    o, e = bound - 1 + bound % 2, bound - bound % 2
    atoms = cert.input("normalized").split(" # ")
    scenario = cert.input("scenario")
    if scenario == "spin":
        b = cert.b_plus_ell
        assert cert.theorem_used == "ThmB"
        assert cert.witness_monomial == (
            "*".join(f"t{i}" for i in range(1, b)) or "1")
        assert cert.sigma % 8 == 0
        assert cert.index_value == -cert.sigma // 8
        return scenario
    gap = ((o * o - 1) * atoms.count("CP2") + 8 * atoms.count("-E8")
           + 2 * e * e * atoms.count("S2xS2"))
    assert cert.c1_square - cert.sigma == gap
    if gap > 0:
        assert cert.theorem_used == "ThmA"
        assert cert.witness_monomial == (
            "*".join(f"t{i}" for i in range(1, cert.base_dim + 1)) or "1")
        assert cert.index_value == gap // 4
    else:
        assert (cert.verdict, cert.witness_monomial) == (
            obstruct.INCONCLUSIVE, "")
    return scenario


@pytest.mark.parametrize("text, bound, scenario", [
    ("Enriques # -CP2 # S2xSigma(g=1)", 1, "enriques"),
    ("2*W # CP2 # -CP2 # S1xY(b1=1)", 2, "enriques"),
    ("2*W # CP2 # -CP2 # S1xY(b1=1)", 10**9, "enriques"),
    ("-E8 # -CP2fake # 2*S2xS2 # 3*-CP2 # S1xY(b1=1)", 4, "nonspin"),
    ("2*CP2 # 12*-CP2 # S1xY(b1=1)", 5, "nonspin"),
    ("2*-E8 # 3*S2xS2 # S1xY(b1=1)", 1, "spin"),
    ("K3 # S2xSigma(g=2)", 6, "spin"),
    ("-E8 # -E8 # S2xS2 # S1xY(b1=0)", 3, "spin"),
])
def test_closed_form_rows(text, bound, scenario):
    assert closed_form_path(cli.parse(text), bound) == scenario


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(1, 3),
                                st.sampled_from(ALL_BLOCKS)), max_size=8),
       n_block=st.sampled_from(ALL_BLOCKS[-5:]),
       reverse=st.booleans(),
       bound=st.sampled_from((1, 2, 3, 4, 5, 6, 10**9)))
def test_verdict_matches_closed_form(terms, n_block, reverse, bound):
    # one N block at least: without one no scenario has a cover
    x = cli.parse(" # ".join([f"{n}*{name}" for n, name in terms]
                             + [n_block]))
    if reverse:
        try:
            x = manifold.mirror(x)
        except OrientationReversalUnavailable:
            return
    closed_form_path(x, bound)
