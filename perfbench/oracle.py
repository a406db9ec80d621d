"""Known answers for every benchmark input, worked out without the package.

Certificates follow the closed forms of acceptance criteria 1-4; the
criterion-5 negative controls must not be certified NonSmoothable; a
`spinc` listing must be exactly the set of characteristic vectors in the
search box, in (-square, lexicographic) order; a `constraints` report on
`k*S2xS2 # S1xY(b1=1)` with class data that has no w_i lines follows from
w(H+) = (1 + t1)...(1 + tk).

`check` returns None when an output is right and a reason when it is not.
"""

import json

NONSMOOTHABLE = "NonSmoothable"


def _monomial(k):
    return "*".join(f"t{i}" for i in range(1, k + 1))


def expected_certificate(family, p):
    """Closed-form fields of the certificate for criteria 1-4.

    Signatures add up over summands (-CP2: -1, -E8: -8, -CP2fake: -1,
    Enriques: -8).  b+ with twisted coefficients counts the S2xS2 summands
    of the normal form, and the family has one generator per reflection
    slot.  On Theorem A the largest characteristic square at bound 1 takes
    +-1 on diagonal and 0 on even coordinates.
    """
    if family == "c1":
        m, n = p["m"], p["n"]
        return {"verdict": NONSMOOTHABLE, "theorem": "ThmA", "base_dim": n,
                "b_plus_ell": n, "witness_monomial": _monomial(n),
                "c1_square": -m - 1, "sigma": -m - 9,
                "index": {"real_m_minus_n": 2}, "scenario": "nonspin"}
    if family == "c2":
        m, n = p["m"], p["n"]
        return {"verdict": NONSMOOTHABLE, "theorem": "ThmB",
                "base_dim": n - 1, "b_plus_ell": n,
                "witness_monomial": _monomial(n - 1), "c1_square": 0,
                "sigma": -16 * m, "index": {"complex_r_minus_s": 2 * m},
                "scenario": "spin"}
    if family == "c3":
        m, a, b = p["m"], p["a"], p["b"]
        return {"verdict": NONSMOOTHABLE, "theorem": "ThmA",
                "base_dim": m + a, "b_plus_ell": m + a,
                "witness_monomial": _monomial(m + a), "c1_square": 0,
                "sigma": -8 * (m + 2 * b),
                "index": {"real_m_minus_n": 2 * (m + 2 * b)},
                "scenario": "enriques"}
    if family == "c4":
        k = p["k"]
        return {"verdict": NONSMOOTHABLE, "theorem": "ThmA", "base_dim": 1,
                "b_plus_ell": 1, "witness_monomial": "t1", "c1_square": -k,
                "sigma": -8 - k, "index": {"real_m_minus_n": 2},
                "scenario": "enriques"}
    raise ValueError(f"no closed form for {family!r}")


def _check_certificate(case, code, out):
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    want = expected_certificate(case.family, case.params)
    got = {key: doc.get(key) for key in want if key != "scenario"}
    inputs = doc.get("inputs") or {}
    got["scenario"] = inputs.get("scenario")
    if inputs.get("bound") != str(case.bound):
        return f"bound {inputs.get('bound')!r} echoed"
    if got != want:
        diff = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
        return f"certificate differs (got, want): {diff}"
    if code != 0:
        return f"exit code {code} for a NonSmoothable certificate"
    return None


def _check_negative(code, out):
    if code != 3:
        return f"exit code {code}, expected 3"
    if out.startswith(b"HypothesesNotMet"):
        return None
    try:
        verdict = json.loads(out).get("verdict")
    except ValueError:
        return "output is neither HypothesesNotMet nor a certificate"
    if verdict == NONSMOOTHABLE:
        return "negative control certified NonSmoothable"
    return None


def _box(bound, odd):
    return [x for x in range(-bound, bound + 1) if x % 2 == (1 if odd else 0)]


def _check_spinc(case, code, out):
    """Count, parity, box, square and order of every listed class.

    Free coordinates follow the canonical block order: h hyperbolic pairs
    (S2xS2), then c coordinates of CP2, then d of -CP2.  Distinct valid
    classes in the right number are exactly the full set.
    """
    if code != 0:
        return f"exit code {code}"
    h, c, d, bound = (case.params["h"], case.params["c"], case.params["d"],
                      case.bound)
    odd, even = len(_box(bound, True)), len(_box(bound, False))
    want_count = odd ** (c + d) * even ** (2 * h)
    lines = out.decode().splitlines()
    if len(lines) != want_count:
        return f"{len(lines)} classes listed, expected {want_count}"
    previous = None
    for line in lines:
        head, _, rest = line.partition(": free = [")
        free_text, _, torsion = rest.partition("], torsion = ")
        if not head.startswith("square = ") or torsion != "[]":
            return f"malformed line {line!r}"
        square = int(head[len("square = "):])
        free = tuple(int(x) for x in free_text.split(", ")) if free_text \
            else ()
        if len(free) != 2 * h + c + d:
            return f"wrong length in {line!r}"
        if any(abs(x) > bound for x in free):
            return f"entry outside the bound in {line!r}"
        if any(x % 2 for x in free[:2 * h]) or \
                not all(x % 2 for x in free[2 * h:]):
            return f"wrong parity in {line!r}"
        want_square = (sum(2 * free[i] * free[i + 1]
                           for i in range(0, 2 * h, 2))
                       + sum(x * x for x in free[2 * h:2 * h + c])
                       - sum(x * x for x in free[2 * h + c:]))
        if square != want_square:
            return f"square {square} != {want_square} in {line!r}"
        key = (-square, free)
        if previous is not None and key <= previous:
            return f"order broken at {line!r}"
        previous = key
    return None


def expected_constraints(p):
    """Report on k*S2xS2 # S1xY(b1=1) with V1, W1 given by rank alone.

    e(H+) = w_k = t1*...*tk; the virtual class of [W1] - [V1] is 1, so only
    degree 0 can be violated, and it is listed exactly when rank W1 <
    rank V1.
    """
    k, n_minus_m = p["k"], p["w1"] - p["v1"]
    euler = _monomial(k)
    lines = [f"n_minus_m = {n_minus_m}", f"e(H+) = {euler}"]
    for i in range(max(0, n_minus_m + 1), k + 1):
        if i == 0:
            lines.append(f"degree 0: w_i([W1]-[V1]) = 1, product = {euler} "
                         "[VIOLATED]")
        else:
            lines.append(f"degree {i}: w_i([W1]-[V1]) = 0, product = 0 [ok]")
    lines.append("Incompatible" if n_minus_m < 0 else "Compatible")
    return "".join(line + "\n" for line in lines)


def check(case, code, out):
    """None if (exit code, output bytes) is the known answer for `case`."""
    if case.family == "neg":
        return _check_negative(code, out)
    if case.family == "spinc":
        return _check_spinc(case, code, out)
    if case.family == "constraints":
        if code != 0:
            return f"exit code {code}"
        want = expected_constraints(case.params).encode()
        return None if out == want else "constraints report differs"
    return _check_certificate(case, code, out)
