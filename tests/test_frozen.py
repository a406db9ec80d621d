"""Every value class behaves as the frozen dataclass it replaces."""

import dataclasses

import pytest

from fourfold import charpoly, cli, cover, lattice, manifold, obstruct

SPIN = "-E8 # -CP2fake # 3*S2xS2 # S1xY(b1=1)"


def samples():
    """One value of each value class, with its fields in order."""
    x = manifold.normalize_homeo_type(cli.parse(SPIN))
    ls = cover.build_standard_cover(x)
    fam = obstruct.build_family(ls, manifold.reflection_slots(x, 2))
    # the zero vector is not characteristic on this odd form; its Wu
    # class is
    c = ls.char_class(cover.w2_plus_w1sq(ls))
    v1 = charpoly.BundleClassData(2, 1, (charpoly.ExtPoly.t(2, 1),))
    report = obstruct.corollary_constraints(fam, v1, v1)
    return [
        (lattice.Diag(1), ["eps"]),
        (lattice.Hyperbolic(), []),
        (lattice.E8(-1), ["sign"]),
        (manifold.Block("S1xY", param=1), ["kind", "param"]),
        (x, ["terms"]),
        (charpoly.ExtPoly.u(2) + charpoly.ExtPoly.t(2, 1), ["k", "terms"]),
        (v1, ["k", "rank", "sw"]),
        (ls, ["base"]),
        (c, ["free_part", "square"]),
        (fam, ["cover", "generators"]),
        (obstruct.certify(x), [
            "verdict", "theorem_used", "base_dim", "b_plus_ell",
            "witness_monomial", "c1_square", "sigma", "index_kind",
            "index_value", "inputs", "transcript"]),
        (report.entries[0], ["degree", "virtual_class", "product",
                             "satisfied"]),
        (report, ["n_minus_m", "euler", "entries", "incompatible"]),
    ]


CASES = samples()


@pytest.mark.parametrize("value, names", CASES,
                         ids=[type(v).__name__ for v, _ in CASES])
def test_value_semantics_match_frozen_dataclass(value, names):
    cls = type(value)
    fields = tuple(getattr(value, n) for n in names)
    reference = dataclasses.make_dataclass(cls.__name__, names,
                                           frozen=True)(*fields)
    assert hash(value) == hash(fields) == hash(reference)
    assert repr(value) == repr(reference)
    assert value == value.replace() and value.replace() is not value
    assert value.replace(**dict(zip(names, fields))) == value
    assert value != reference and value != fields
    for name in [*names, "other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(TypeError):
        value.replace(other=None)


def test_equality_needs_the_same_class():
    assert lattice.Diag(1) != lattice.E8(1)
    assert lattice.Diag(1) == lattice.Diag(1)
    assert hash(lattice.Diag(-1)) == hash((-1,))


def test_replace_rebuilds_through_post_init():
    ls = cover.build_standard_cover(cli.parse(SPIN))
    other = ls.replace(base=cli.parse("CP2 # -CP2 # W # S1xY(b1=1)"))
    assert (other.b_plus_ell, other.torsion_bits, other.rank) == (1, 1, 2)
    assert (ls.b_plus_ell, ls.torsion_bits, ls.rank) == (3, 0, 15)
    block = manifold.Block("CP2").replace(kind="S2xS2")
    assert block.spec is manifold.BLOCKS["S2xS2"]
    assert repr(block) == "Block(kind='S2xS2', param=0)"
    with pytest.raises(ValueError, match="sign"):
        lattice.Diag(1).replace(eps=2)
    poly = charpoly.ExtPoly(2, [(1, 0)])
    assert poly.terms == frozenset({(1, 0)})
