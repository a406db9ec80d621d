import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fourfold import charpoly
from fourfold.charpoly import BundleClassData, ExtPoly
from fourfold.errors import InvalidSetting, ModeMismatch
from oracles import NonExactDivision, NonMonicDenominator


# --- ring arithmetic ---

def test_exterior_expansion():
    k = 2
    one, t1, t2 = ExtPoly.one(k), ExtPoly.t(k, 1), ExtPoly.t(k, 2)
    product = (one + t1) * (one + t2)
    assert product == one + t1 + t2 + t1 * t2


def test_generator_squares_to_zero():
    t1 = ExtPoly.t(3, 1)
    assert not t1 * t1


def test_u_powers_add():
    u = ExtPoly.u(1, 1)
    assert u * u == ExtPoly.u(1, 2)


def test_addition_is_xor():
    t1 = ExtPoly.t(2, 1)
    assert not t1 + t1


def test_mode_mismatch():
    with pytest.raises(ModeMismatch):
        ExtPoly.t(2, 1) * ExtPoly.t(3, 1)
    with pytest.raises(ModeMismatch):
        ExtPoly.u(2, 1) + ExtPoly.u(3, 1)
    with pytest.raises(ModeMismatch):
        oracles.laurent_divide(ExtPoly.u(2, 1), ExtPoly.u(3, 1))


@pytest.mark.parametrize("k, terms", [
    (2, {(1.5, 0)}), (2, 5), (2, {1}), (2, {(1,)}), (2, {(1, 0, 0)}),
    ("2", {(1, 0)}), (2, {(4, 0)}), (2, {(-1, 0)}), (2, {(1, "x")}),
    (2, {(1, -1)}), (2, {(1, 1.0)}), (2, {(0, None)}), (-1, ()), (2.5, ()),
    (True, ()),
])
def test_poly_refuses_terms_it_cannot_hold(k, terms):
    # a term is a (mask, u power) pair with a mask of k bits and an int
    # power >= 0: before, (1, "x") rendered t1*u^x and (1, -1) t1*u^-1
    with pytest.raises(InvalidSetting):
        ExtPoly(k, terms)


def test_render_canonical():
    k = 2
    p = ExtPoly.t(k, 1) * ExtPoly.t(k, 2) + ExtPoly.u(k, 2)
    assert p.render() == "t1*t2 + u^2"
    assert ExtPoly.zero(k).render() == "0"
    assert ExtPoly.one(k).render() == "1"
    q = ExtPoly.u(1) + ExtPoly.t(1, 1)
    assert q.render() == "t1 + u"


def total_sw_line_sum(k, lines, trivial_rank=0):
    """Class data of a sum of line bundles with w1 supported on torus generators.

    The expanded reference for line_sum_w: each entry of `lines` is an
    iterable of generator indices in 1..k, and the line contributes a
    factor 1 + sum of those generators to the total class.
    """
    lines = [tuple(s) for s in lines]
    total = ExtPoly.one(k)
    for subset in lines:
        w1 = ExtPoly.zero(k)
        for i in subset:
            w1 = w1 + ExtPoly.t(k, i)
        total = total * (ExtPoly.one(k) + w1)
    rank = len(lines) + trivial_rank
    sw = tuple(oracles.t_degree_part(total, i) for i in range(1, rank + 1))
    return BundleClassData(k=k, rank=rank, sw=sw)


def random_poly(k, rng, max_u=2):
    terms = set()
    for _ in range(rng.randint(0, 5)):
        terms.add((rng.randrange(1 << k), rng.randint(0, max_u)))
    return ExtPoly(k, frozenset(terms))


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_mul_associative_commutative(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    a, b, c = (random_poly(k, rng) for _ in range(3))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# --- equivariant Euler classes ---

def test_hplus_euler_c4_form():
    # theorem B's class w_b + w_{b-1} u; u^2 never arises in it
    k = 2
    b = total_sw_line_sum(k, [(1,), (2,)], 1)  # rank 3, b = 3
    w3, w2 = oracles.w(b, 3), oracles.w(b, 2)
    assert not w3 and w2 == ExtPoly.t(k, 1) * ExtPoly.t(k, 2)
    euler = w3 + w2 * ExtPoly.u(k)
    assert euler.render() == "t1*t2*u" and oracles.max_u(euler) == 1


def test_fixed_euler_is_top_class():
    b = total_sw_line_sum(2, [(1,), (2,)], 0)
    assert oracles.w(b, b.rank) == ExtPoly.t(2, 1) * ExtPoly.t(2, 2)


# --- line-sum bundles ---

def test_line_sum_small():
    b = total_sw_line_sum(2, [(1,), (2,)], 0)
    assert b.rank == 2
    assert oracles.total(b) == (ExtPoly.one(2) + ExtPoly.t(2, 1)) \
        * (ExtPoly.one(2) + ExtPoly.t(2, 2))
    assert oracles.w(b, 2) == ExtPoly.t(2, 1) * ExtPoly.t(2, 2)


def test_line_sum_trivial_only():
    b = total_sw_line_sum(0, [], 5)
    assert b.rank == 5
    assert oracles.total(b) == ExtPoly.one(0)


def test_line_sum_with_trivial_rank():
    b = total_sw_line_sum(1, [(1,)], 1)
    assert b.rank == 2
    assert oracles.w(b, 1) == ExtPoly.t(1, 1)
    assert not oracles.w(b, 2)


def test_top_class_nonzero_up_to_16():
    for k in range(1, 17):
        b = total_sw_line_sum(k, [(i,) for i in range(1, k + 1)], 0)
        top = oracles.w(b, k)
        expected = ExtPoly.one(k)
        for i in range(1, k + 1):
            expected = expected * ExtPoly.t(k, i)
        assert top == expected and top


@pytest.mark.parametrize("k", range(13))
def test_line_sum_bundle_matches_expansion(k):
    """Closed-form e_i classes equal the expanded product of (1 + ti)."""
    for trivial in range(3):
        oracle = total_sw_line_sum(
            k, [(i,) for i in range(1, k + 1)], trivial)
        for i in range(-1, oracle.rank + 2):
            assert charpoly.line_sum_w(k, i) == oracles.w(oracle, i), \
                (trivial, i)


# --- virtual classes ---

def test_virtual_unit_denominator():
    w1 = total_sw_line_sum(2, [(1,), (2,)], 0)
    v1 = BundleClassData(k=2, rank=3, sw=())
    assert charpoly.virtual_sw(w1, v1, 0) == ExtPoly.one(2)
    assert charpoly.virtual_sw(w1, v1, 1) == oracles.w(w1, 1)
    assert charpoly.virtual_sw(w1, v1, 2) == oracles.w(w1, 2)


def test_virtual_inverse_of_line():
    num = BundleClassData(k=1, rank=1, sw=())
    den = BundleClassData(k=1, rank=1, sw=(ExtPoly.t(1, 1),))
    # (1+t1)^{-1} = 1+t1
    assert charpoly.virtual_sw(num, den, 1) == ExtPoly.t(1, 1)


def test_virtual_cancellation():
    num = total_sw_line_sum(2, [(1,), (2,)], 0)
    den = total_sw_line_sum(2, [(1,)], 0)
    assert charpoly.virtual_sw(num, den, 1) == ExtPoly.t(2, 2)
    assert not charpoly.virtual_sw(num, den, 2)


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_virtual_times_denominator_roundtrip(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    def bundle():
        rank = rng.randint(1, 3)
        return BundleClassData(
            k=k, rank=rank,
            sw=tuple(oracles.t_degree_part(random_poly(k, rng, max_u=0), i)
                     for i in range(1, rank + 1)))
    a, b = bundle(), bundle()
    total = ExtPoly.zero(k)
    for i in range(k + 1):
        total = total + charpoly.virtual_sw(a, b, i)
    assert total * oracles.total(b) == oracles.total(a)


def test_virtual_mode_mismatch():
    with pytest.raises(ModeMismatch):
        charpoly.virtual_sw(BundleClassData(k=1, rank=1),
                            BundleClassData(k=2, rank=1), 1)


@pytest.mark.parametrize("sw", [
    (ExtPoly.u(2),), (ExtPoly.one(2),), (ExtPoly.t(2, 1) * ExtPoly.t(2, 2),),
    (ExtPoly.zero(2), ExtPoly.t(2, 1) + ExtPoly.t(2, 1) * ExtPoly.t(2, 2))])
def test_class_data_is_pure_and_homogeneous(sw):
    """w_i holds only products of i t's: the virtual classes rely on it."""
    with pytest.raises(ValueError, match="pure base class of degree"):
        BundleClassData(k=2, rank=2, sw=sw)


@pytest.mark.parametrize("rank, sw", [
    (1, (5,)), (1, ("t1",)), (1, (ExtPoly.t(2, 1), None)),
    ("1", ()), (1.0, ()), (None, ()), (-1, ()), (1, 5)])
def test_class_data_holds_a_rank_and_polynomials(rank, sw):
    # before, (5,) raised AttributeError, and a rank of "1" a TypeError
    # only once corollary_constraints subtracted it
    with pytest.raises(InvalidSetting):
        BundleClassData(k=2, rank=rank, sw=sw)


# --- Laurent division ---

def test_laurent_monomials():
    k = 1
    num = ExtPoly.u(k, 2) + ExtPoly.t(k, 1) * ExtPoly.u(k, 1)
    q, shift = oracles.laurent_divide(num, ExtPoly.u(k, 1))
    assert q == ExtPoly.u(k, 1) + ExtPoly.t(k, 1)
    assert shift == 0


def test_laurent_negative_degree():
    k = 2
    num = ExtPoly.t(k, 1) * ExtPoly.t(k, 2)
    q, shift = oracles.laurent_divide(num, ExtPoly.u(k, 1))
    # the quotient t1*t2*u^-1
    assert (q, shift) == (num, 1)


def test_laurent_trivial_sw_sign():
    # u^n / u^m has negative terms exactly when n < m
    for n in range(4):
        for m in range(4):
            q, shift = oracles.laurent_divide(ExtPoly.u(2, n), ExtPoly.u(2, m))
            assert (q, shift) == (ExtPoly.u(2, max(n - m, 0)), max(m - n, 0))


def test_laurent_nonmonic_rejected():
    k = 1
    with pytest.raises(NonMonicDenominator):
        oracles.laurent_divide(ExtPoly.u(k, 1), ExtPoly.t(k, 1))
    with pytest.raises(NonMonicDenominator):
        oracles.laurent_divide(ExtPoly.u(k, 1), ExtPoly.zero(k))


def test_laurent_non_exact_rejected():
    # u + 1 is monic in u but not invertible in the Laurent extension
    k = 1
    den = ExtPoly.u(k, 1) + ExtPoly.one(k)
    with pytest.raises(NonExactDivision):
        oracles.laurent_divide(ExtPoly.one(k), den)


def monic_poly(k, rng):
    m = rng.randint(0, 2)
    terms = {(0, m)}
    for _ in range(rng.randint(0, 4)):
        mask = rng.randrange(1 << k)
        up = rng.randint(0, m)
        if (mask, up) != (0, m):
            terms.add((mask, up))
    return ExtPoly(k, frozenset(terms))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_laurent_roundtrip(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    q = random_poly(k, rng)
    d = monic_poly(k, rng)
    # q's u powers are >= 0, so the quotient needs no shift
    assert oracles.laurent_divide(q * d, d) == (q, 0)


@settings(max_examples=200)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_invert_unit(k, seed):
    """A unit 1 + nil is its own inverse, as nil^2 = 0 mod 2."""
    rng = random.Random(seed)
    p = ExtPoly(k, {(0, 0)} | {(rng.randrange(1, 1 << k), rng.randint(0, 3))
                               for _ in range(rng.randint(0, 6))})
    assert oracles.invert_unit(p) == p
    assert p * p == ExtPoly.one(k)
    with pytest.raises(NonMonicDenominator):
        oracles.invert_unit(ExtPoly.t(k, 1))
    with pytest.raises(NonMonicDenominator):
        oracles.invert_unit(ExtPoly.one(k) + ExtPoly.u(k, 1))
