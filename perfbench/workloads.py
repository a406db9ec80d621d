"""Seeded inputs for the four benchmark workloads.

A workload is a cycle of `BLOCKS` blocks.  Every block holds the same slots,
and a slot fixes the parameters that set an input's cost (the number of
`-CP2` summands, the torus dimension k, the class count of a `spinc` run).
The seed sets everything else: the order of the slots in each block, the
parameters that do not change the cost, and how each expression is written
(term order, split multiplicities, spacing).  So every seed puts the same
load on the package through different inputs, and the latency quantiles
do not jump between seeds.

Each case carries the parameters the known-answer oracle needs and the
tags of ROADMAP item 2's cost-versus-size series: free rank, atom count,
torus dimension k and search bound, all worked out here from the family's
closed form, not from the package.
"""

import random
from dataclasses import dataclass

BLOCKS = 3

# Criterion-5 negative controls whose expected answer is undisputed.
# `-E8 # -CP2fake # S2xS2 # S1xY(b1=1)` is left out: criterion 1 (m=0, n=1)
# requires a NonSmoothable certificate for it, criterion 5 requires
# HypothesesNotMet, and the acceptance data cannot have both.
NEGATIVES = (
    # terms, free rank, atoms, k
    (((1, "CP2"), (1, "-CP2"), (1, "S1xY(b1=1)")), 2, 2, 0),
    (((2, "S2xS2"), (1, "S1xY(b1=1)")), 4, 2, 0),
    (((1, "CP2"), (1, "-CP2"), (1, "S2xSigma(g=1)")), 2, 2, 0),
    (((2, "W"), (1, "CP2"), (1, "-CP2"), (1, "S1xY(b1=1)")), 2, 2, 1),
)

# Warm-up run before timing on the library workloads: one expression that
# holds every lattice atom the workload's inputs use, enumerated at each
# bound they use, so the per-atom candidate tables are built in set-up.
WARMUP = {
    "thmA-search": ("-E8 # CP2 # -CP2 # S2xS2 # S1xY(b1=1)", (1,)),
    "thmB-family": ("-E8 # CP2 # -CP2 # S2xS2 # S1xY(b1=1)", (1,)),
    "spinc-list": ("CP2 # -CP2 # S2xS2 # S1xY(b1=1)", (1, 2, 3)),
}


@dataclass
class Case:
    id: int
    family: str            # c1..c4 (criteria), neg, spinc, constraints
    text: str              # the expression as written
    params: dict
    tags: dict
    bound: int = 1
    argv: tuple = ()       # fourfold command line (cli-cold)


def _write(terms, rng):
    """Write (count, block) terms with shuffled order and split counts."""
    parts = []
    for count, block in terms:
        while count > 0:
            take = rng.randint(1, count)
            one = take == 1 and rng.random() < 0.5
            parts.append(block if one else f"{take}*{block}")
            count -= take
    rng.shuffle(parts)
    # every separator holds a space: argparse takes a leading "-" argument
    # without spaces (say "-CP2#S1xY(b1=1)") for an option
    return rng.choice((" # ", "# ", " #", " #  ")).join(parts)


def _tags(free_rank, atoms, k, bound):
    return {"free_rank": free_rank, "atoms": atoms, "k": k, "bound": bound}


def _c1(rng, m, n):
    """Criterion 1: m*-CP2 # -E8 # -CP2fake # n*S2xS2 # S1xY(b1=1)."""
    terms = ((m, "-CP2"), (1, "-E8"), (1, "-CP2fake"), (n, "S2xS2"),
             (1, "S1xY(b1=1)"))
    return ("c1", _write(terms, rng), {"m": m, "n": n},
            _tags(m + 9 + 2 * n, m + n + 2, n, 1))


def _c2(rng, n):
    """Criterion 2: 2m*-E8 # n*S2xS2 # S2xSigma(g=1)."""
    m = rng.randint(1, 3)
    terms = ((2 * m, "-E8"), (n, "S2xS2"), (1, "S2xSigma(g=1)"))
    return ("c2", _write(terms, rng), {"m": m, "n": n},
            _tags(16 * m + 2 * n, 2 * m + n, n - 1, 1))


def _c3(rng, k):
    """Criterion 3: m*Enriques # a*S2xS2 # 2b*-E8 # S1xY(b1=1), k = m + a."""
    m = rng.choice([m for m in (1, 2) if 0 <= k - m <= 12])
    a, b = k - m, rng.randint(0, 2)
    terms = ((m, "Enriques"), (a, "S2xS2"), (2 * b, "-E8"),
             (1, "S1xY(b1=1)"))
    e8 = m + 2 * b
    return ("c3", _write(terms, rng), {"m": m, "a": a, "b": b},
            _tags(8 * e8 + 2 * k, e8 + k, k, 1))


def _c4(rng, k):
    """Criterion 4: Enriques # k*-CP2 # S2xSigma(g=1)."""
    terms = ((1, "Enriques"), (k, "-CP2"), (1, "S2xSigma(g=1)"))
    return ("c4", _write(terms, rng), {"k": k}, _tags(k + 10, k + 3, 1, 1))


def _neg(rng, index):
    terms, free_rank, atoms, k = NEGATIVES[index]
    return ("neg", _write(terms, rng), {"index": index},
            _tags(free_rank, atoms, k, 1))


def _spinc(rng, bound, diag, h):
    """d*-CP2 # c*CP2 # h*S2xS2 # S1xY(b1=1) with c + d = diag."""
    c = rng.randint(0, diag)
    terms = ((diag - c, "-CP2"), (c, "CP2"), (h, "S2xS2"),
             (1, "S1xY(b1=1)"))
    return ("spinc", _write(terms, rng), {"d": diag - c, "c": c, "h": h},
            _tags(2 * h + diag, h + diag, 0, bound))


def _constraints(rng, k):
    """k*S2xS2 # S1xY(b1=1) against V1/W1 class data of drawn ranks."""
    terms = ((k, "S2xS2"), (1, "S1xY(b1=1)"))
    params = {"k": k, "v1": rng.randint(0, 3), "w1": rng.randint(0, 3)}
    return ("constraints", _write(terms, rng), params, _tags(2 * k, k, k, 0))


def data_file(params):
    """Relative path and text of the class-data file of a constraints case."""
    v1, w1 = params["v1"], params["w1"]
    return (f"perfbench/out/classes-{v1}-{w1}.txt",
            f"// benchmark class data\nV1\nrank {v1}\nW1\nrank {w1}\n")


# (family, cost parameters...) per slot; see the module docstring.  With
# P copies of each slot, the p50 of a run interpolates between the 10th
# and 11th cheapest of a block's 20 slots and the p90 between the 18th and
# 19th, so the slots around those ranks repeat one cost: a run's quantiles
# then sit on a plateau, not on the step between two input sizes.
THMA_SLOTS = (
    ("c1", 4, 1), ("c1", 5, 6), ("c1", 6, 3), ("c4", 4), ("c4", 5), ("c4", 6),
    ("c1", 7, 2), ("c4", 7),
    ("c1", 8, 4), ("c1", 8, 4), ("c1", 8, 4), ("c1", 8, 4),
    ("c4", 8), ("c4", 8), ("c1", 9, 2), ("c1", 9, 5),
    ("c4", 9), ("c1", 10, 4), ("c1", 10, 4), ("c1", 10, 4),
)
THMB_SLOTS = (
    ("neg",), ("neg",),
    ("c2", 2), ("c2", 6), ("c2", 11), ("c3", 1), ("c3", 4), ("c3", 7),
    ("c2", 12), ("c2", 12), ("c3", 11), ("c3", 11),
    ("c2", 13), ("c3", 12), ("c2", 14), ("c3", 13),
    ("c2", 15), ("c2", 15), ("c3", 14), ("c3", 14),
)
# (bound, diagonal summands, S2xS2 summands): 256 to 2,916 classes
SPINC_SLOTS = (
    (3, 4, 0), (3, 3, 1), (1, 8, 0), (3, 1, 2), (2, 5, 1), (3, 5, 0),
    (1, 9, 1), (3, 2, 2),
    (2, 7, 1), (2, 7, 1), (2, 7, 1), (2, 7, 1),
    (1, 10, 2), (3, 4, 1), (3, 1, 3), (2, 2, 3),
    (2, 5, 2), (2, 5, 2), (2, 5, 2), (2, 5, 2),
)
# small inputs whose sizes the seed draws: a child's start-up and cold
# tables dominate its time, whatever the size
CLI_SLOTS = (
    ("c1",), ("c1",), ("c2",), ("c2",), ("c3",), ("c3",), ("c4",), ("c4",),
    ("spinc", 1, 3, 0), ("spinc", 1, 4, 1), ("spinc", 1, 5, 0),
    ("spinc", 2, 2, 1), ("spinc", 2, 3, 1), ("spinc", 1, 6, 1),
    ("constraints", 1), ("constraints", 2), ("constraints", 3),
    ("constraints", 4), ("constraints", 2), ("constraints", 3),
)


def _thma(rng, slot):
    family, *size = slot
    return _c1(rng, *size) if family == "c1" else _c4(rng, *size)


def _thmb(rng, slot):
    family, *size = slot
    if family == "neg":
        return _neg(rng, rng.randrange(len(NEGATIVES)))
    return _c2(rng, *size) if family == "c2" else _c3(rng, *size)


def _cli(rng, slot):
    family, *size = slot
    if family == "c1":
        m = rng.randint(1, 3)
        return _c1(rng, m, rng.randint(1, 3))
    if family == "c2":
        return _c2(rng, rng.randint(2, 5))
    if family == "c3":
        return _c3(rng, rng.randint(1, 5))
    if family == "c4":
        return _c4(rng, rng.randint(0, 4))
    if family == "spinc":
        return _spinc(rng, *size)
    return _constraints(rng, *size)


PLANS = {
    "thmA-search": (THMA_SLOTS, _thma),
    "thmB-family": (THMB_SLOTS, _thmb),
    "spinc-list": (SPINC_SLOTS, lambda rng, slot: _spinc(rng, *slot)),
    "cli-cold": (CLI_SLOTS, _cli),
}


def _argv(family, text, params, bound):
    if family == "spinc":
        return ("spinc", text, "--bound", str(bound))
    if family == "constraints":
        return ("constraints", text, data_file(params)[0])
    return ("certify", "--json", text)


def generate(workload, seed):
    """The cycle of cases for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    slots, build = PLANS[workload]
    cases = []
    for _ in range(BLOCKS):
        order = list(slots)
        rng.shuffle(order)
        for slot in order:
            family, text, params, tags = build(rng, slot)
            bound = tags["bound"]
            argv = (_argv(family, text, params, bound)
                    if workload == "cli-cold" else ())
            cases.append(Case(len(cases), family, text, params, tags,
                              bound, argv))
    return cases
