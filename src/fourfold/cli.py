"""Command-line front end.

Expression grammar:

    expr  := term ('#' term)*
    term  := [INT '*'] block
    block := CP2 | -CP2 | -CP2fake | S2xS2 | K3 | -K3 | E8 | -E8 | W
           | Enriques | S4 | S1xY(b1=INT) | S2xSigma(g=INT)

Exit codes: 0 success or informational output, 1 input error or a
reader that closed the output early, 2 usage error (a missing or extra
argument, an unknown command or option, or a bad option value), 3
inconclusive or hypotheses not met.  An error whose stderr reader has
closed keeps its code and drops its message.
"""

import os
import sys

# obstruct, charpoly, json and re load in the commands that use them, which
# spares `spinc` and the listing commands their import
from . import cover, manifold
from .errors import (
    FourfoldError,
    HypothesesNotMet,
    InvalidSetting,
    NegativeMultiplicity,
    ParseError,
)

# block name -> its shared Block; a name with a parameter, written with
# "{p}" in its place, -> its kind
_NAMES = {**manifold.NAMED,
          **{spec.name: kind
             for kind, spec in manifold.BLOCKS.items() if "{p}" in spec.name}}
# (kind, param) -> its Block, shared as NAMED's are; bounded: the first 1,024
_SHARED = {}


def _offset(parts, i, rest=None):
    """Where term i of the text split on "#", or its end `rest`, starts."""
    at = 0 if rest is None else len(parts[i]) - len(rest.lstrip())
    return sum(map(len, parts[:i])) + i + at


def _digits(s):
    r"""True iff s reads as -?\d+ (Unicode decimals): int() takes "+1" too."""
    return s.removeprefix("-").isdecimal()


def _named(name, key):
    """True iff name reads as ASCII -?[A-Za-z][A-Za-z0-9]*, and key, unless
    None, as [A-Za-z0-9]+."""
    bare = name.removeprefix("-")
    return (bare[:1].isalpha() and bare.isalnum() and bare.isascii()
            and (key is None or key.isalnum() and key.isascii()))


def parse(text):
    """Parse a connected-sum expression into a ManifoldExpr, one pair per term.

    A term is split on "*" and "(" and its name looked up; only a name not
    found has its shape checked.  Raises InvalidSetting, once every term
    has parsed, when the sum has more than cover.MAX_SUMMANDS summands, as
    cover.check_summands counts them.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    terms = []
    parts = text.split("#")
    for i, part in enumerate(parts):
        mult, star, rest = part.partition("*")
        mult, rest = (mult.strip(), rest) if star else ("1", part)
        name, paren, tail = rest.strip().partition("(")
        name, key, param = name.rstrip(), None, None
        if paren:   # "key = param)"; a "(" not closed at the end: no param
            key, _, param = tail[:-1].partition("=")
            key, param = key.strip(), param.strip() * (tail[-1:] == ")")
        # a name without a parameter is a shared Block; one with, its kind;
        # errors in the grammar's order: shape, multiplicity, name, param
        block = _NAMES.get(name if key is None else f"{name}({key}={{p}})")
        if not (_digits(mult) and (key is None or _digits(param)) and (
                block is not None or _named(name, key))):
            if not part.strip():
                raise ParseError("empty connected-sum term", _offset(parts, i))
            raise ParseError(f"cannot parse term {part.strip()!r}",
                             _offset(parts, i, part))
        try:   # int() refuses more than sys.get_int_max_str_digits() digits
            mult = int(mult)
        except ValueError as e:
            raise ParseError(str(e), _offset(parts, i, part)) from None
        if mult < 0:
            raise NegativeMultiplicity(f"multiplicity {mult} must be >= 0")
        if block is None:
            text = name if key is None else f"{name}({key}={param})"
            raise ParseError(f"unknown block {text!r}",
                             _offset(parts, i, rest))
        if key is not None:
            try:   # int() refuses more than sys.get_int_max_str_digits()
                shared = block, int(param)   # digits, or a param out of range
                block = _SHARED.get(shared) or manifold.Block(*shared)
            except ValueError as e:
                raise ParseError(e.args[0], _offset(parts, i, rest)) from None
            if len(_SHARED) < 1024:
                _SHARED[shared] = block
        terms.append((block, mult))
    x = manifold.ManifoldExpr(tuple(terms))
    cover.check_summands(x)
    return x


def replay(cert):
    """Re-run a certificate from its echoed inputs; True iff it reproduces."""
    from . import obstruct
    x = parse(cert.input("expression"))
    again = obstruct.certify(x, scenario=cert.input("scenario"),
                             bound=int(cert.input("bound")))
    return again == cert


def _int(v):
    """The JSON text of an int or None."""
    return "null" if v is None else int.__repr__(v)


def _container(members, brackets, indent):
    """The text of a JSON object or array as json.dumps(..., indent=2) lays
    it out, from its members' text; `indent` starts its closing line."""
    if not members:
        return brackets
    inner = indent + "  "
    body = ("," + inner).join(members)
    # one f-string copies the body once, where each + would copy it again
    return f"{brackets[0]}{inner}{body}{indent}{brackets[1]}"


def emit_json(cert):
    """Stable machine-readable form of a certificate.

    The text of json.dumps(doc, indent=2) for the certificate's fixed
    ten-key document, written from its fields: with an indent json.dumps
    always runs its pure-Python encoder, and this writer lays out the same
    text, strings through the same C function and ints through
    int.__repr__.
    """
    import json.encoder   # loaded on first use: spinc never needs it
    string = json.encoder.encode_basestring_ascii
    index = [f"{string(cert.index_kind)}: {_int(cert.index_value)}"
             ] if cert.index_kind else []
    # a repeated key keeps its first place and its last value, as in a dict
    inputs = [f"{string(k)}: {string(v)}"
              for k, v in dict(cert.inputs).items()]
    return _container([
        f'"verdict": {string(cert.verdict)}',
        f'"theorem": {string(cert.theorem_used)}',
        f'"base_dim": {int.__repr__(cert.base_dim)}',
        f'"b_plus_ell": {int.__repr__(cert.b_plus_ell)}',
        f'"witness_monomial": {string(cert.witness_monomial)}',
        f'"c1_square": {_int(cert.c1_square)}',
        f'"sigma": {int.__repr__(cert.sigma)}',
        '"index": ' + _container(index, "{}", "\n  "),
        '"inputs": ' + _container(inputs, "{}", "\n  "),
        '"transcript": ' + _container(
            list(map(string, cert.transcript)), "[]", "\n  "),
    ], "{}", "\n")


def _cmd_invariants(x, args):
    inv = x.inv
    print(f"expression: {x.render()}")
    print(f"sigma = {inv.sigma}")
    print(f"b1 = {x.b1}")
    print(f"b2 = {inv.b2}")
    print(f"b_plus = {inv.b_plus}")
    print(f"b_minus = {inv.b_minus}")
    print(f"parity = {'even' if inv.even else 'odd'}")
    print(f"spin = {inv.spin}")
    print(f"ks = {inv.ks}")
    return 0


def _cmd_classify(x, args):
    normal = manifold.normalize_homeo_type(x)
    print(normal.render())
    return 0


def _cmd_cover(x, args):
    ls = cover.build_standard_cover(x)
    print(f"b_plus_ell = {ls.b_plus_ell}")
    print(f"free_rank_ell = {ls.rank}")
    print(f"torsion_bits = {ls.torsion_bits}")
    print("b1_ell = 0 (reported, not computed)")
    print(f"w2_plus_w1sq free bits = {list(cover.w2_plus_w1sq(ls))}")
    print(f"w2_plus_w1sq torsion bits = {[1] * ls.torsion_bits}")
    return 0


def _cmd_spinc(x, args):
    ls = cover.build_standard_cover(x)
    tail = f"], torsion = {[1] * ls.torsion_bits}\n"   # the target's bits
    write = sys.stdout.write
    for square, groups in cover._listing(ls, args.bound, tail):
        head = f"square = {square}: free = ["
        for first, suffixes in groups:   # each suffix ends in "\n"
            line = head + first
            write(line + line.join(suffixes))
    return 0


def _cmd_certify(x, args):
    from . import obstruct
    try:
        cert = obstruct.certify(x, scenario=args.scenario, bound=args.bound)
    except HypothesesNotMet as e:
        if args.json:
            import json.encoder
            reason = json.encoder.encode_basestring_ascii(str(e))
            print(_container(['"verdict": "HypothesesNotMet"',
                              f'"reason": {reason}'], "{}", "\n"))
        else:
            print(f"HypothesesNotMet: {e.args[0] if e.args else e}")
        return 3
    if args.json:
        print(emit_json(cert))
    else:
        print(f"verdict: {cert.verdict}")
        print(f"theorem: {cert.theorem_used}")
        print(f"base: T^{cert.base_dim}")
        for line in cert.transcript:
            print(f"  {line}")
    return 0 if cert.verdict == obstruct.NONSMOOTHABLE else 3


def _parse_constraint_file(path, k):
    """Read V1/W1 class data: sections with `rank N` then `w_i = <poly>`.

    Every `w_i` line must pass charpoly.check_pure; only w_1..w_k are kept,
    as a line above k can only read 0.  A refusal of a line, or of a
    section's value, is a ParseError that names it.
    """
    import re
    from . import charpoly
    sections = {}
    current = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read class data: {e}") from None
    for raw in lines:
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if line in ("V1", "W1"):
            if line in sections:
                raise ParseError(f"repeated section header: {line!r}")
            current = line
            sections[current] = {"rank": None, "sw": {}}
            continue
        if current is None:
            raise ParseError(f"class data before section header: {line!r}")
        word, *rest = line.split()
        if word == "rank":
            try:   # exactly one int follows the word
                rank, = map(int, rest)
            except ValueError:
                raise ParseError(
                    f"cannot parse class data line {line!r}") from None
            if sections[current]["rank"] is not None:
                raise ParseError(f"repeated rank line: {line!r}")
            sections[current]["rank"] = rank
            continue
        m = re.fullmatch(r"w_(\d+)\s*=\s*(.*)", line)
        if not m:
            raise ParseError(f"cannot parse class data line {line!r}")
        try:   # int() refuses more than sys.get_int_max_str_digits() digits
            degree = int(m.group(1))
        except ValueError as e:
            raise ParseError(f"{e}: {line!r}") from None
        if degree in sections[current]["sw"]:
            raise ParseError(f"repeated w_{degree} line: {line!r}")
        try:
            poly = parse_poly(m.group(2), k)
            charpoly.check_pure(poly, degree)
        except (ParseError, InvalidSetting) as e:   # name the line
            raise ParseError(f"{e.args[0]}: {line!r}") from None
        sections[current]["sw"][degree] = poly
    out = {}
    for name in ("V1", "W1"):
        if name not in sections or sections[name]["rank"] is None:
            raise ParseError(f"missing section or rank for {name}")
        given = sections[name]["sw"]
        sw = tuple(given.get(i, charpoly.ExtPoly.zero(k))
                   for i in range(1, k + 1))
        try:
            out[name] = charpoly.BundleClassData(k, sections[name]["rank"], sw)
        except InvalidSetting as e:   # a rank below 0
            raise ParseError(f"{e.args[0]} in section {name}") from None
    return out["V1"], out["W1"]


def parse_poly(text, k):
    """Parse the canonical polynomial syntax (sums of t/u monomials)."""
    import re
    from . import charpoly
    text = text.strip()
    if text == "0":
        return charpoly.ExtPoly.zero(k)
    terms = set()
    for term in text.split("+"):
        out = charpoly.ExtPoly.one(k)
        for factor in term.split("*"):
            factor = factor.strip()
            if factor == "1":
                continue
            m = re.fullmatch(r"t(\d+)|u(?:\^(\d+))?", factor)
            if m is None:
                raise ParseError(f"cannot parse polynomial factor {factor!r}")
            try:   # t_i outside 1..k, or more digits than int() accepts
                out = out * (charpoly.ExtPoly.t(k, int(m[1])) if m[1]
                             else charpoly.ExtPoly.u(k, int(m[2] or 1)))
            except ValueError as e:
                raise ParseError(e.args[0]) from None
        terms ^= out.terms
    return charpoly.ExtPoly(k, terms)


def _cmd_constraints(x, args):
    from . import obstruct
    normalized = manifold.normalize_homeo_type(x)
    ls = cover.build_standard_cover(normalized)
    slots = manifold.reflection_slots(normalized, ls.b_plus_ell)
    top = sum(n for _, n in slots)
    k = top if args.generators is None else args.generators
    if not 0 <= k <= top:
        raise InvalidSetting(f"generators must be in 0..{top}, got {k}")
    fam = obstruct.build_family(ls, manifold.reflection_slots(normalized, k))
    v1, w1 = _parse_constraint_file(args.data, fam.k)
    report = obstruct.corollary_constraints(fam, v1, w1)
    print(f"n_minus_m = {report.n_minus_m}")
    print(f"e(H+) = {report.euler}")
    for entry in report.entries:
        status = "ok" if entry.satisfied else "VIOLATED"
        print(f"degree {entry.degree}: w_i([W1]-[V1]) = {entry.virtual_class}"
              f", product = {entry.product} [{status}]")
    print("Incompatible" if report.incompatible else "Compatible")
    return 0


class _Args:   # a command line as read; an option not given keeps these
    reverse = json = False
    bound, scenario, generators = 1, "auto", None


# command -> (function, help line, options, positionals).  An option maps to
# its value's converter, a tuple of its choices, or None for a flag; every
# command takes --reverse, and an expression before the positionals named
_COMMANDS = {name: (func, text, {"reverse": None, **options}, ("expr", *more))
             for name, (func, text, options, *more) in {
    "invariants": (_cmd_invariants, "signature, Betti numbers, spin, KS", {}),
    "classify": (_cmd_classify, "homeomorphism normal form", {}),
    "cover": (_cmd_cover, "twisted-coefficient invariants", {}),
    "spinc": (_cmd_spinc, "enumerate characteristic classes", {"bound": int}),
    "certify": (_cmd_certify, "run the full certificate pipeline", {
        "scenario": ("auto", "spin", "nonspin", "enriques"),
        "bound": int, "json": None}),
    "constraints": (_cmd_constraints, "index-bundle vanishing constraints "
                    "from a data file", {"generators": int}, "data"),
}.items()}


def _drop(stream):
    """Point stream at the null device: its reader left, so drop its buffer."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _complain(text):
    """Print text to stderr now; a reader that closed it drops it."""
    try:
        print(text, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _drop(sys.stderr)


def _exit(name, error=None):
    """Print a usage line and exit: 0 with the help, 2 with `error`."""
    usage = f"[-h] {{{','.join(_COMMANDS)}}} ..."
    text = "\n".join(f"  {n:<12} {row[1]}" for n, row in _COMMANDS.items())
    if name is not None:
        _, text, options, positionals = _COMMANDS[name]
        usage = " ".join([name, "[-h]", *(
            f"[--{key}]" if kind is None else f"[--{key} {key.upper()}]"
            if kind is int else f"[--{key} {{{','.join(kind)}}}]"
            for key, kind in options.items()), *positionals])
    if error is None:
        print(f"usage: fourfold {usage}\n\n{text}", flush=True)
        raise SystemExit(0)
    _complain(f"usage: fourfold {usage}\nfourfold: error: {error}")
    raise SystemExit(2)


def _read_argv(argv):
    """(the command's function, its arguments) from a command line: only
    -h, --help and --name[=value] before "--" are options, anywhere after
    the command, the last repeat winning; every other token is positional."""
    name, *rest = argv or [None]
    if name not in _COMMANDS:   # -h, --help, an unknown command or none
        _exit(None, None if name in ("-h", "--help") else
              f"unknown command {name!r}" if argv else "no command")
    func, _, options, positionals = _COMMANDS[name]
    args, given, tokens = _Args(), [], iter(rest)
    for token in tokens:
        if token == "--":
            given += tokens
        elif token in ("-h", "--help"):
            _exit(name)
        elif token[:2] != "--":
            given.append(token)
        else:
            key, eq, value = token[2:].partition("=")
            if key not in options or eq and options[key] is None:
                _exit(name, f"unknown option {token!r}")   # or a flag's value
            kind = options[key]
            if kind is not None and not eq:   # the value is the next token
                value = next(tokens, None)
            try:   # a flag reads True; a value must convert, or be a choice
                setattr(args, key, True if kind is None else int(value)
                        if kind is int else kind[kind.index(value)])
            except (TypeError, ValueError):   # None: no token was left
                _exit(name, f"--{key} takes {'an int' if kind is int else kind}"
                      f", not {value!r}")
    if len(given) != len(positionals):
        _exit(name, f"{len(given)} positionals for {' '.join(positionals)}")
    args.__dict__.update(zip(positionals, given))
    return func, args


def main(argv=None):
    try:
        func, args = _read_argv(sys.argv[1:] if argv is None else argv)
        x = parse(args.expr)
        if args.reverse:
            x = manifold.mirror(x)
        code = func(x, args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
        return code
    except FourfoldError as e:
        _complain(str(e))
        return 1
    except BrokenPipeError:
        _drop(sys.stdout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
