"""Families over tori and the non-smoothability certificate engine.

A family is a multiple mapping torus of commuting reflections, one per
torus generator, each supported on a single S2xS2 or CP2 summand.  The
positive-cohomology bundle of such a family splits as one line bundle per
generator plus a trivial complement, so its Stiefel-Whitney classes are
charpoly.line_sum_w(k, i); they feed the two obstruction checks:

  theorem A: top class nonzero and c1^2 > sigma  -> no smooth structure;
  theorem B (c1 = 0): top or next-to-top class nonzero and sigma < 0
             -> no smooth structure.
"""

from . import charpoly, cover, manifold
from ._frozen import frozen
from .errors import (
    DefinitePartUnsupported,
    HypothesesNotMet,
    InvalidSetting,
    NoNontrivialCoverAvailable,
    OrientationReversalUnavailable,
    RankMismatch,
    SlotUnavailable,
    ZeroClassUnavailable,
)

NONSMOOTHABLE = "NonSmoothable"
INCONCLUSIVE = "Inconclusive"


@frozen
class FamilyDescriptor:
    cover: object               # LocalSystem over the normalized sum
    generators: tuple           # slots: (pair index, copies), one per pair

    def __post_init__(self):    # not a field: k, the base torus dimension
        self.__dict__["k"] = sum(n for _, n in self.generators)


@frozen
class Certificate:
    verdict: str
    theorem_used: str           # "ThmA", "ThmB", or "none"
    base_dim: int
    b_plus_ell: int
    witness_monomial: str
    c1_square: object           # int or None
    sigma: int
    index_kind: str             # "real_m_minus_n", "complex_r_minus_s", or ""
    index_value: object         # int or None
    inputs: tuple               # ordered (key, value) string pairs
    transcript: tuple           # ordered strings of exact arithmetic facts

    def input(self, key):
        return dict(self.inputs)[key]


def build_family(ls, slots):
    """Multiple mapping torus over T^k from reflection slots.

    A slot (j, n) is one generator on each of the first n copies of the
    pair ls.base.terms[j], whose block has a reflection, as
    manifold.reflection_slots lists them; 1 <= n <= the pair's count, and
    no pair has two slots.  Each copy is a distinct S2xS2 or CP2 summand,
    which adds 1 to ls.b_plus_ell, so k, the sum of the n, is at most
    ls.b_plus_ell.
    """
    try:
        slots = tuple(slots)
    except TypeError:
        raise SlotUnavailable(f"slots {slots!r} are not iterable") from None
    terms = ls.base.terms
    for slot in slots:
        j, n = slot if type(slot) is tuple and len(slot) == 2 else (-1, 0)
        if not (type(j) is int and 0 <= j < len(terms) and type(n) is int
                and 1 <= n <= terms[j][1] and terms[j][0].spec.reflect):
            raise SlotUnavailable(
                f"no reflection slot {slot!r} on {ls.base.render()}")
    if len({j for j, _ in slots}) != len(slots):
        raise SlotUnavailable("reflection slots must be on distinct pairs")
    return FamilyDescriptor(cover=ls, generators=slots)


def _certificate(f, c1_square, sigma, transcript, theorem="none", witness="",
                 index_kind="", index_value=None):
    """The certificate of family f; a named theorem makes it NonSmoothable.

    Its inputs are empty: certify stamps them.
    """
    return Certificate(
        verdict=INCONCLUSIVE if theorem == "none" else NONSMOOTHABLE,
        theorem_used=theorem, base_dim=f.k, b_plus_ell=f.cover.b_plus_ell,
        witness_monomial=witness, c1_square=c1_square, sigma=sigma,
        index_kind=index_kind, index_value=index_value,
        inputs=(),
        transcript=tuple(transcript),
    )


def check_theorem_A(f, bound):
    """Top-class obstruction: fires when w_top(H+) != 0 and c1^2 > sigma.

    c1 is the characteristic class of largest square with entries in
    [-bound, bound] that lifts, each generator carrying its block's part
    to plus/minus itself (the per-block lift sign).  The square is a sum
    over the form's atoms, so c1 joins each atom's maximizer, and c1^2 is
    the sum over the free part's (atom, count) pairs of count times the
    maximizer's square.  That class lifts: a CP2 slot negates its entry,
    and an S2xS2 slot carries (-e, -e) to (e, e).  w_b of k <= b lines, the
    k build_family allows, is t1*...*tk at k = b ("1" at 0), else 0.  Raises
    InvalidSetting unless bound is an int >= 1, and PreconditionViolated
    for a positive E8 atom, which a prepared cover never holds.
    """
    cover.check_bound(bound)
    c1_square = sum(n * atom.square(atom.maximizer(bound))
                    for atom, n in f.cover.free)
    b = f.cover.b_plus_ell
    w_top = f.k == b
    top = "*".join([f"t{j}" for j in range(1, b + 1)] or "1") if w_top else "0"
    sigma = f.cover.base.inv.sigma
    transcript = [
        f"b_plus_ell = {b}",
        f"base_dim = {f.k}",
        f"w_{b}(H+(E,l)) = {top}",
        f"c1_square = {c1_square}",
        f"sigma = {sigma}",
    ]
    if w_top and c1_square > sigma:
        m_minus_n = (c1_square - sigma) // 4
        transcript += [
            f"inequality c1_square <= sigma violated: {c1_square} > {sigma}",
            f"real index m_minus_n = (c1_square - sigma)/4 = {m_minus_n} > 0",
        ]
        return _certificate(f, c1_square, sigma, transcript, "ThmA", top,
                            "real_m_minus_n", m_minus_n)
    if not w_top:
        transcript.append(f"hypothesis failed: w_{b}(H+(E,l)) = 0")
    else:
        transcript.append(
            f"inequality c1_square <= sigma holds: {c1_square} <= {sigma}")
    return _certificate(f, c1_square, sigma, transcript)


def check_theorem_B(f):
    """Zero-class obstruction: fires when w_b or w_{b-1} is nonzero and sigma < 0."""
    # the free part of w2 + w1^2 is each atom's Wu class, copy by copy
    if f.cover.torsion_bits or any(1 in atom.wu for atom, _ in f.cover.free):
        raise ZeroClassUnavailable(
            "w2 + w1^2 != 0: no candidate class with c1 = 0 exists")
    b = f.cover.b_plus_ell
    w_b = charpoly.line_sum_w(f.k, b)
    w_b1 = charpoly.line_sum_w(f.k, b - 1)
    sigma = f.cover.base.inv.sigma
    top, below = w_b.render(), w_b1.render()
    # the terms of e_C4 = w_b + w_{b-1} u.  ExtPoly.render lists the terms
    # without u first, each part in the order of its masks, so they are
    # top's, then below's times u: no monomial renders twice
    euler = ([top] if w_b else []) + [
        "u" if t == "1" else t + "*u" for t in below.split(" + ") if w_b1]
    transcript = [
        f"b_plus_ell = {b}",
        f"base_dim = {f.k}",
        f"w_{b}(H+(E,l)) = {top}",
        f"w_{b - 1}(H+(E,l)) = {below}",
        f"e_C4(H+(E,l)) = {' + '.join(euler) or '0'}",
        "c1_square = 0",
        f"sigma = {sigma}",
    ]
    if euler and sigma < 0:
        r_minus_s = -sigma // 8
        transcript += [
            f"inequality sigma >= 0 violated: {sigma} < 0",
            f"complex index r_minus_s = -sigma/8 = {r_minus_s} > 0",
        ]
        return _certificate(f, 0, sigma, transcript, "ThmB",
                            top if w_b else below, "complex_r_minus_s",
                            r_minus_s)
    if not euler:
        transcript.append(
            f"hypothesis failed: w_{b} and w_{b - 1} of H+(E,l) both vanish")
    else:
        transcript.append(f"inequality sigma >= 0 holds: {sigma} >= 0")
    return _certificate(f, 0, sigma, transcript)


@frozen
class ConstraintEntry:
    degree: int
    virtual_class: str
    product: str
    satisfied: bool


@frozen
class ConstraintReport:
    n_minus_m: int
    euler: str
    entries: tuple
    incompatible: bool


def corollary_constraints(f, v1, w1):
    """Vanishing constraints on user-supplied index-bundle class data.

    For every degree above the virtual index rank, the virtual class of
    [W1] - [V1] times the Euler class of H+ must vanish on a smooth family;
    a nonzero product marks the supplied data incompatible: iff k =
    b_plus_ell and rank W1 < rank V1, as e(H+) is t1*...*tk or 0.  Raises
    InvalidSetting over cover.MAX_CLASSES term products, before any.
    """
    if v1.k != f.k or w1.k != f.k:
        raise RankMismatch(
            f"class data must live over T^{f.k}")
    n_minus_m = w1.rank - v1.rank
    degrees = range(max(0, n_minus_m + 1), f.k + 1)
    work = sum(len(w.terms) * len(v.terms) for a, w in w1.classes.items()
               for b, v in v1.classes.items() if a + b in degrees)
    if work > cover.MAX_CLASSES:
        raise InvalidSetting(
            f"class data needs {work} > {cover.MAX_CLASSES} term products")
    euler = charpoly.line_sum_w(f.k, f.cover.b_plus_ell)
    entries = []
    for i in degrees:
        virt = charpoly.virtual_sw(w1, v1, i)
        product = virt * euler
        entries.append(ConstraintEntry(
            degree=i,
            virtual_class=virt.render(),
            product=product.render(),
            satisfied=not product,
        ))
    return ConstraintReport(
        n_minus_m=n_minus_m,
        euler=euler.render(),
        entries=tuple(entries),
        incompatible=any(not e.satisfied for e in entries),
    )


def _prepare(x):
    """Orient so the simply-connected signature is nonpositive, then normalize."""
    try:
        return manifold.normalize_homeo_type(
            manifold.mirror(x) if x.sc.sigma > 0 else x)
    except DefinitePartUnsupported:
        raise HypothesesNotMet(
            "indefinite simply-connected part required") from None
    except OrientationReversalUnavailable as e:
        raise HypothesesNotMet(
            f"sigma(M) > 0 needs orientation reversal: {e.args[0]}") from None


# One row per scenario: W blocks required (True) or forbidden (False), the
# Kirby-Siebenmann class must vanish, a spin simply-connected part required
# (True), forbidden (False) or either (None), the slot copies left spare,
# and the checker, which looks its theorem up by global name at each call;
# auto tries the rows in this order and joins their reasons in it.  After
# _prepare there is one slot copy per positive direction.  Theorem A's
# w_top does not depend on the class, so the largest liftable class alone
# decides it: when it is Inconclusive no smaller one fires.  Theorem B's
# spin part normalizes to E8 and S2xS2 summands: every slot is an S2xS2.
_SCENARIOS = {
    "enriques": (True, True, None, 0,
                 lambda f, bound: check_theorem_A(f, bound)),
    "nonspin": (False, True, False, 0,
                lambda f, bound: check_theorem_A(f, bound)),
    "spin": (False, False, True, 1, lambda f, bound: check_theorem_B(f)),
}


def _certify_scenario(x, scenario, bound, prepared):
    """One scenario's certificate, or the reason of its first unmet hypothesis.

    Checks the hypotheses in order, then runs the scenario's theorem.
    prepared holds _prepare(x), or the reason it refused x, once a
    scenario has called it.  A reason is returned, not raised: auto passes
    over most scenarios, and an exception costs more than the check.
    """
    w_blocks, ks_zero, spin, spare, check = _SCENARIOS[scenario]
    label = "spin" if spin else "non-spin"
    if w_blocks and x.inv.torsion < 1:
        return "at least one Enriques block required"
    if not w_blocks and x.inv.torsion:
        return f"{label} scenario does not apply to W blocks"
    if ks_zero and x.inv.ks != 0:
        return "Kirby-Siebenmann class must vanish for a smooth manifold"
    if not prepared:
        try:
            prepared.append(_prepare(x))
        except HypothesesNotMet as e:
            prepared.append(e.args[0])
    normalized = prepared[0]
    if type(normalized) is str:
        return normalized
    if spin is not None:
        sc = normalized.sc
        if sc.spin != spin:
            return f"{label} simply-connected part required"
        if abs(sc.sigma) <= 8:
            return "|sigma(M)| > 8"
    try:
        ls = cover.build_standard_cover(normalized)
    except NoNontrivialCoverAvailable as e:
        return str(e)
    cert = check(build_family(ls, manifold.reflection_slots(
        normalized, ls.b_plus_ell - spare)), bound)
    # stamp the inputs: the expression as given, ahead of the normalized one
    return cert.replace(inputs=(
        ("expression", x.render()), ("normalized", normalized.render()),
        ("scenario", scenario), ("bound", str(bound))))


def certify(x, scenario="auto", bound=1):
    """End-to-end certificate: normalize, cover, build family, run checkers.

    auto tries enriques, then nonspin, then spin, and returns the first
    certificate.  The scenarios exclude each other: enriques needs a W
    block and the other two forbid one, and nonspin and spin need opposite
    spin of the same prepared part, so at most one gives a certificate.
    Raises HypothesesNotMet, with every scenario's reason, when none does,
    and InvalidSetting, before any scenario runs, for an x that is not a
    ManifoldExpr, an unknown scenario, a bound that is not an int >= 1 or
    more than cover.MAX_SUMMANDS summands, which cli.parse refuses too.
    """
    if type(x) is not manifold.ManifoldExpr:
        raise InvalidSetting(f"certify needs a ManifoldExpr, got {x!r}")
    cover.check_bound(bound)
    cover.check_summands(x)
    if type(scenario) is not str or (
            scenario != "auto" and scenario not in _SCENARIOS):
        raise InvalidSetting(f"unknown scenario {scenario!r}")
    prepared = []   # each scenario that gets as far prepares x once
    reasons = []
    for name in _SCENARIOS if scenario == "auto" else (scenario,):
        cert = _certify_scenario(x, name, bound, prepared)
        if type(cert) is not str:
            return cert
        reasons.append(f"{name}: {cert}" if scenario == "auto" else cert)
    raise HypothesesNotMet("; ".join(reasons))
