import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fourfold import charpoly, cli, cover, manifold, obstruct
from fourfold.errors import (GenusZero, HypothesesNotMet, InvalidSetting,
                             NegativeMultiplicity, ParseError)


# --- parsing ---

def test_parse_simple_sum():
    x = cli.parse("2*-E8 # 3*S2xS2")
    assert (x.inv.sigma, x.inv.b_plus, x.inv.spin) == (-16, 3, True)


def test_parse_enriques_and_sigma():
    x = cli.parse("Enriques # S2xSigma(g=2)")
    assert x.inv.torsion == 1
    assert x.b1 == 4


def test_parse_whitespace_insensitive():
    assert cli.parse(" 2 * -E8#S1xY( b1 = 3 ) ") == \
        cli.parse("2*-E8 # S1xY(b1=3)")


def test_parse_zero_multiplicity():
    assert cli.parse("0*K3 # S2xS2") == cli.parse("S2xS2")


def test_parse_every_block_token():
    text = ("CP2 # -CP2 # -CP2fake # S2xS2 # K3 # -K3 # E8 # -E8 # W # "
            "Enriques # S4 # S1xY(b1=2) # S2xSigma(g=1)")
    x = cli.parse(text)
    assert x.inv.b2 == 1 + 1 + 1 + 2 + 22 + 22 + 8 + 8 + 0 + 10 + 4 + 2


def test_parse_errors():
    with pytest.raises(ParseError):
        cli.parse("")
    with pytest.raises(ParseError):
        cli.parse("K3 # # S2xS2")
    with pytest.raises(GenusZero):
        cli.parse("S2xSigma(g=0)")
    with pytest.raises(NegativeMultiplicity):
        cli.parse("-2*K3")
    # a multiplicity is read before the name is looked up
    with pytest.raises(NegativeMultiplicity, match="-1 "):
        cli.parse("-1*-Enriques")
    with pytest.raises(NegativeMultiplicity, match="-3 "):
        cli.parse("-\u0663*S2xSigma")   # an Arabic-Indic 3, a Unicode decimal
    with pytest.raises(ParseError) as e:
        cli.parse("K3 # Bogus")
    assert e.value.offset == 5


def _int_error(digits):
    """int()'s message for a number of that many digits."""
    try:
        int("9" * digits)
    except ValueError as e:
        return str(e)


# malformed terms: the message and offset of each ParseError
@pytest.mark.parametrize("text, message, offset", [
    ("", "empty expression", 0),
    ("   ", "empty expression", 0),
    ("K3 # # S2xS2", "empty connected-sum term", 4),
    (" # K3", "empty connected-sum term", 0),
    ("K3 # ", "empty connected-sum term", 4),
    ("K3 ## K3", "empty connected-sum term", 4),
    ("K3 # Bogus", "unknown block 'Bogus'", 5),
    ("S1xY", "unknown block 'S1xY'", 0),
    ("S1xY(g=2)", "unknown block 'S1xY(g=2)'", 0),
    ("S1xY(B1=1)", "unknown block 'S1xY(B1=1)'", 0),
    ("CP2(b1=1)", "unknown block 'CP2(b1=1)'", 0),
    ("Enriques(b1=1)", "unknown block 'Enriques(b1=1)'", 0),
    ("E8(s=1)", "unknown block 'E8(s=1)'", 0),
    ("-Enriques", "unknown block '-Enriques'", 0),
    ("-S4", "unknown block '-S4'", 0),
    ("-W", "unknown block '-W'", 0),
    ("s4", "unknown block 's4'", 0),
    ("S4 # e8", "unknown block 'e8'", 5),
    ("3*-K3x", "unknown block '-K3x'", 2),
    ("CP2 #\n-CP2x", "unknown block '-CP2x'", 6),
    ("K3\t#\tS2xs2", "unknown block 'S2xs2'", 5),
    ("CP2 # -CP2 # 2*CP2fake", "unknown block 'CP2fake'", 15),
    ("S1xY(b1=1) # 4 * S2xSigma (b1=2)", "unknown block 'S2xSigma(b1=2)'",
     17),
    ("S1xY(b1=-1)", "b1 must be non-negative", 0),
    ("2*", "cannot parse term '2*'", 0),
    ("*K3", "cannot parse term '*K3'", 0),
    ("K3(", "cannot parse term 'K3('", 0),
    ("--CP2", "cannot parse term '--CP2'", 0),
    ("2*3*CP2", "cannot parse term '2*3*CP2'", 0),
    ("2 * - CP2", "cannot parse term '2 * - CP2'", 0),
    ("S1xY(b1=)", "cannot parse term 'S1xY(b1=)'", 0),
    ("S1xY(b1=1", "cannot parse term 'S1xY(b1=1'", 0),
    ("S1xY(b1=1))", "cannot parse term 'S1xY(b1=1))'", 0),
    ("S1xY(b1=+1)", "cannot parse term 'S1xY(b1=+1)'", 0),
    ("S2xSigma(g=1)(g=1)", "cannot parse term 'S2xSigma(g=1)(g=1)'", 0),
    ("K3 # S2 xS2", "cannot parse term 'S2 xS2'", 5),
    ("K3 # S1xY(b1=1)x", "cannot parse term 'S1xY(b1=1)x'", 5),
    ("K3 # (b1=1)", "cannot parse term '(b1=1)'", 5),
    ("K3 # S1xY(=1)", "cannot parse term 'S1xY(=1)'", 5),
    ("S2xSigma( g = 1 ) # S1xY(b1 =x)", "cannot parse term 'S1xY(b1 =x)'",
     20),
    ("9" * 5000 + "*CP2", _int_error(5000), 0),
    ("K3 # " + "9" * 4400 + "*CP2", _int_error(4400), 5),
    ("CP2 # S1xY(b1=" + "9" * 5000 + ")", _int_error(5000), 6),
], ids=lambda v: v[:24] if isinstance(v, str) else None)
def test_parse_error_table(text, message, offset):
    with pytest.raises(ParseError) as e:
        cli.parse(text)
    assert (e.value.args[0], e.value.offset) == (message, offset)


def test_parse_render_round_trip():
    for text in ("K3", "2*-E8 # 3*S2xS2 # S1xY(b1=1)",
                 "Enriques # -CP2 # S2xSigma(g=1)",
                 "S4", "W # -CP2fake"):
        x = cli.parse(text)
        assert cli.parse(x.render()) == x


# --- JSON emission ---

def test_emit_json_schema_and_values():
    cert = obstruct.certify(cli.parse("2*-E8 # 3*S2xS2 # S1xY(b1=1)"))
    doc = json.loads(cli.emit_json(cert))
    assert list(doc) == ["verdict", "theorem", "base_dim", "b_plus_ell",
                         "witness_monomial", "c1_square", "sigma", "index",
                         "inputs", "transcript"]
    assert doc["theorem"] == "ThmB"
    assert doc["witness_monomial"] == "t1*t2"
    assert doc["index"] == {"complex_r_minus_s": 2}


def test_emit_json_deterministic_bytes():
    x = cli.parse("-E8 # -CP2fake # 2*S2xS2 # S1xY(b1=1)")
    a = cli.emit_json(obstruct.certify(x))
    b = cli.emit_json(obstruct.certify(cli.parse(x.render())))
    assert a == b


def reference_document(cert):
    """The dict emit_json writes, built field by field, for json.dumps."""
    index = {}
    if cert.index_kind:
        index[cert.index_kind] = cert.index_value
    return {
        "verdict": cert.verdict,
        "theorem": cert.theorem_used,
        "base_dim": cert.base_dim,
        "b_plus_ell": cert.b_plus_ell,
        "witness_monomial": cert.witness_monomial,
        "c1_square": cert.c1_square,
        "sigma": cert.sigma,
        "index": index,
        "inputs": dict(cert.inputs),
        "transcript": list(cert.transcript),
    }


# text with quotes, backslashes, control and non-ASCII characters
_JSON_TEXT = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f') | st.characters())
_INT_OR_NONE = st.none() | st.integers()
# few enough keys that an input repeats one often
_INPUT_KEY = st.sampled_from(["expression", "bound", ""]) | _JSON_TEXT


@given(st.builds(
    obstruct.Certificate,
    verdict=_JSON_TEXT, theorem_used=_JSON_TEXT, base_dim=st.integers(),
    b_plus_ell=st.integers(), witness_monomial=_JSON_TEXT,
    c1_square=_INT_OR_NONE, sigma=st.integers(),
    index_kind=st.just("") | _JSON_TEXT, index_value=_INT_OR_NONE,
    inputs=st.lists(st.tuples(_INPUT_KEY, _JSON_TEXT), max_size=5).map(tuple),
    transcript=st.lists(_JSON_TEXT, max_size=5).map(tuple)))
def test_json_writer_matches_json_dumps(cert):
    assert cli.emit_json(cert) == json.dumps(reference_document(cert),
                                             indent=2)


@given(_JSON_TEXT)
def test_hypotheses_not_met_json_matches_json_dumps(reason):
    def refuse(*args, **kwargs):
        raise HypothesesNotMet(reason)

    out = io.StringIO()
    with mock.patch.object(obstruct, "certify", refuse), \
            contextlib.redirect_stdout(out):
        assert cli.main(["certify", "S1xY(b1=1)", "--json"]) == 3
    doc = {"verdict": "HypothesesNotMet",
           "reason": str(HypothesesNotMet(reason))}
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("text, scenario, verdict", [
    ("2*-E8 # 3*S2xS2 # S1xY(b1=1)", "spin", "NonSmoothable"),
    ("-E8 # -CP2fake # S2xS2 # S1xY(b1=1)", "nonspin", "NonSmoothable"),
    ("Enriques # 2*-CP2 # S2xSigma(g=1)", "enriques", "NonSmoothable"),
    ("2*W # CP2 # -CP2 # S1xY(b1=1)", "enriques", "Inconclusive"),
    ("CP2 # -CP2 # S1xY(b1=1)", "nonspin", "HypothesesNotMet"),
    ("2*S2xS2 # S1xY(b1=1)", "auto", "HypothesesNotMet"),
])
def test_certify_json_bytes_are_json_dumps(text, scenario, verdict, capsys):
    # json.dumps(json.loads(out), indent=2) == out holds only for the
    # text json.dumps itself writes
    cli.main(["certify", text, "--scenario", scenario, "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["verdict"] == verdict
    assert out == json.dumps(doc, indent=2) + "\n"


def test_emit_json_empty_index_and_transcript():
    cert = obstruct.certify(cli.parse("2*-E8 # 3*S2xS2 # S1xY(b1=1)"))
    bare = cert.replace(index_kind="", index_value=None, c1_square=None,
                        sigma=0, base_dim=-1, transcript=())
    doc = json.loads(cli.emit_json(bare))
    assert (doc["index"], doc["transcript"], doc["c1_square"]) == \
        ({}, [], None)
    assert cli.emit_json(bare) == json.dumps(doc, indent=2)


def test_emit_json_nonspin_values():
    cert = obstruct.certify(
        cli.parse("-E8 # -CP2fake # S2xS2 # S1xY(b1=1)"))
    doc = json.loads(cli.emit_json(cert))
    assert doc["c1_square"] == -1
    assert doc["sigma"] == -9
    assert doc["index"] == {"real_m_minus_n": 2}


# --- command dispatch and exit codes ---

def test_certify_exit_zero(capsys):
    code = cli.main(["certify", "2*-E8 # 3*S2xS2 # S1xY(b1=1)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "NonSmoothable" in out and "ThmB" in out and "T^2" in out


def test_certify_exit_three_hypotheses(capsys):
    code = cli.main(["certify", "CP2 # -CP2 # S1xY(b1=1)"])
    out = capsys.readouterr().out
    assert code == 3
    assert "HypothesesNotMet" in out
    assert "|sigma(M)| > 8" in out


def test_certify_exit_three_inconclusive(capsys):
    code = cli.main(["certify", "2*W # CP2 # -CP2 # S1xY(b1=1)"])
    out = capsys.readouterr().out
    assert code == 3
    assert "Inconclusive" in out


def test_certify_mirror_failure_is_hypotheses_not_met(capsys):
    # sigma(M) > 0 asks for orientation reversal, which the fake CP2 blocks
    text = "12*CP2 # -CP2fake # S2xS2 # S1xY(b1=1)"
    assert cli.main(["certify", text]) == 3
    assert capsys.readouterr().out.startswith("HypothesesNotMet: ")
    assert cli.main(["certify", text, "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["verdict"] == \
        "HypothesesNotMet"


@pytest.mark.parametrize("command, text", [
    ("spinc", "-E8 # -CP2fake # S2xS2 # S1xY(b1=1)"),
    ("spinc", "W # S1xY(b1=1)"),   # a rank-0 form, no atom to fold
    ("certify", "-E8 # -CP2fake # S2xS2 # S1xY(b1=1)"),
    ("certify", "2*-E8 # 3*S2xS2 # S1xY(b1=1)"),   # the theorem B path
], ids=["spinc", "spinc-rank-0", "certify", "certify-spin"])
def test_bound_below_one_is_input_error(command, text, capsys):
    json_flag = ["--json"] if command == "certify" else []
    for tail in (["--bound", "0"], ["--bound", "-5", *json_flag]):
        assert cli.main([command, text, *tail]) == 1
        assert capsys.readouterr() == (
            "", "InvalidSetting: bound must be >= 1\n")


def test_certify_json_flag(capsys):
    code = cli.main(["certify", "K3 # S1xY(b1=1)", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["verdict"] == "NonSmoothable"


def test_input_error_exit_one(capsys):
    code = cli.main(["invariants", "Bogus"])
    err = capsys.readouterr().err
    assert code == 1
    assert "ParseError" in err


def test_exit_codes_partition():
    runs = [
        ["invariants", "K3"],
        ["classify", "K3"],
        ["certify", "Enriques # S2xSigma(g=1)"],
        ["certify", "S2xS2 # S1xY(b1=1)"],
        ["certify", "S2xSigma(g=0)"],
        ["spinc", "-CP2 # S2xS2 # S1xY(b1=1)"],
        ["cover", "K3 # S1xY(b1=1)"],
        ["cover", "K3"],
    ]
    for argv in runs:
        assert cli.main(argv) in (0, 1, 3)


@pytest.mark.parametrize("argv", [
    ["certify"], ["certify", "K3", "--bound", "x"], ["nonesuch", "K3"],
    [], ["--json", "certify", "K3"], ["spinc", "K3", "--bou", "2"],
    ["certify", "K3", "--js"], ["certify", "K3", "--json=1"],
    ["certify", "K3", "--scenario", "bogus"], ["spinc", "K3", "--bound"],
    ["spinc", "K3", "--bound="], ["spinc", "K3", "extra"],
    ["constraints", "K3"], ["certify", "K3", "--generators", "1"],
    ["spinc", "K3", "-", "--bound", "2"]],
    ids=["missing-expression", "bound-not-int", "unknown-command",
         "no-command", "option-before-command", "abbreviation",
         "flag-abbreviation", "flag-with-value", "bad-choice",
         "trailing-option", "empty-value", "extra-positional",
         "missing-data-file", "option-of-another-command",
         "dash-is-a-positional"])
def test_usage_error_exits_two(argv, capsys):
    # a usage error ends in exit 2 with the usage on stderr, as README
    # documents; the usage is the command's when there is one
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    command = argv[0] if argv and argv[0] in cli._COMMANDS else "[-h]"
    assert out == "" and err.startswith(f"usage: fourfold {command} ")
    assert err.count("\n") == 2 and "\nfourfold: error: " in err


_SUM = "-CP2 # S2xS2 # S1xY(b1=1)"
_NONSPIN = "-E8#-CP2fake#S2xS2#S1xY(b1=1)"


@pytest.mark.parametrize("argv, same", [
    (["spinc", _SUM, "--bound=2"], ["spinc", _SUM, "--bound", "2"]),
    (["spinc", "--bound", "2", _SUM], ["spinc", _SUM, "--bound", "2"]),
    (["spinc", _SUM, "--bound", "3", "--bound=2"],
     ["spinc", _SUM, "--bound", "2"]),
    (["certify", "--json", "--scenario=auto", "--scenario", "nonspin",
      _NONSPIN], ["certify", _NONSPIN, "--scenario=nonspin", "--json"]),
    (["invariants", "--reverse", "--", "-K3"], ["invariants", "K3"]),
    (["spinc", "--", _SUM], ["spinc", _SUM]),
], ids=["equals-sign", "option-first", "last-repeat-wins", "choice-forms",
        "reverse-then-double-dash", "double-dash"])
def test_option_forms_read_alike(argv, same):
    got = outputs(argv)
    assert got == outputs(same)
    assert got[0] == 0 and got[1] and not got[2]


def test_help_lists_every_command(capsys):
    for argv in (["-h"], ["--help"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: fourfold [-h] {")
        rows = out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == list(cli._COMMANDS)
        assert [row.split(None, 1)[1] for row in rows] == [
            text for _, text, _, _ in cli._COMMANDS.values()]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_help_comes_from_the_table(command, capsys):
    # -h anywhere before "--" prints the command's usage and help line
    with pytest.raises(SystemExit) as e:
        cli.main([command, "K3", "-h", "--bogus"])
    assert e.value.code == 0
    usage, blank, text = capsys.readouterr().out.splitlines()
    _, help_line, options, positionals = cli._COMMANDS[command]
    assert usage.startswith(f"usage: fourfold {command} [-h] [--reverse]")
    assert usage.endswith(" ".join(positionals))
    assert all(f"[--{name}" in usage for name in options)
    assert (blank, text) == ("", help_line)
    # after "--", -h is the expression
    assert cli.main(["invariants", "--", "-h"]) == 1


@pytest.mark.parametrize("argv, code", [
    (["spinc", "-CP2#S1xY(b1=1)"], 0),
    (["invariants", "-K3"], 0),
    (["certify", "-E8#-CP2fake#S2xS2#S1xY(b1=1)", "--json"], 0),
    (["certify", "-3*CP2#S1xY(b1=1)"], 1),
    (["certify", "--", "-E8#-CP2fake#S2xS2#S1xY(b1=1)"], 0),
])
def test_leading_dash_expression(argv, code, capsys):
    # an expression that starts with "-" is not read as an option
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if argv[1] == "-3*CP2#S1xY(b1=1)":
        assert err == "NegativeMultiplicity: multiplicity -3 must be >= 0\n"
    else:
        assert out and not err


def test_leading_dash_file_after_double_dash(tmp_path, monkeypatch, capsys):
    # after "--" a class-data path that starts with "-" is read as given
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-classes.txt").write_text(
        "V1\nrank 2\nw_1 = t1\nW1\nrank 1\nw_1 = t1\n")
    argv = ["constraints", "--", "-CP2#2*S2xS2#S1xY(b1=1)", "-classes.txt"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith("Incompatible\n")


@pytest.mark.parametrize("exists", [True, False])
def test_leading_dash_file_without_double_dash(exists, tmp_path, monkeypatch,
                                               capsys):
    # a token that starts with one "-" is a positional, read as given
    monkeypatch.chdir(tmp_path)
    if exists:
        (tmp_path / "-c.txt").write_text(
            "V1\nrank 2\nw_1 = t1\nW1\nrank 1\nw_1 = t1\n")
    code = cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)", "-c.txt"])
    out, err = capsys.readouterr()
    if exists:
        assert code == 0 and out.endswith("Incompatible\n")
    else:
        assert code == 1
        assert err.startswith("ParseError: ") and err.endswith("'-c.txt'\n")


# the grammar's tokens; a parametrized block name gives its head, "S1xY(b1="
_WORDS = sorted({name.split("{p}")[0] for name in cli._NAMES}
                | set(manifold.COMPOSITES) | set("#*()=- "))
# a drawn integer is always followed by a word, which never starts with a
# digit, so no two integers merge: multiplicities and parameters stay <= 99
_PIECES = st.one_of(
    st.sampled_from(_WORDS),
    st.builds("{}{}".format, st.integers(0, 99), st.sampled_from(_WORDS)))
# well-formed sums too, so that most verdict paths are reached
_BLOCK = st.builds(str.format,
                   st.sampled_from([*cli._NAMES, *manifold.COMPOSITES]),
                   p=st.integers(0, 99))
_TERM = st.one_of(_BLOCK, st.builds("{}*{}".format, st.integers(0, 99), _BLOCK))


# what the grammar's \s and \d read and int() reads differently: a next
# line and an em space are whitespace, an Arabic-Indic 3 is a decimal and a
# superscript 2 is not, and int() takes "+" and "_"; "{p}" is in _NAMES
_ODD = st.sampled_from(["\x85", "\u2003", "\u0663", "\u00b2", "+", "_",
                        "{p}"])


# a term of up to three pieces, the first often a multiplicity, which may
# be negative, or a well-formed term, so that a bad term often follows
# good ones
_MULT = st.integers(-99, 99).map("{}*".format)
_CHARS = st.one_of(_PIECES, _ODD, _MULT,
                   st.sampled_from(_WORDS).map("-{}".format))
_FEW = st.builds("{}{}{}".format, st.one_of(st.just(""), _MULT), _CHARS,
                 st.one_of(st.just(""), _CHARS))


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(
    st.lists(_CHARS, max_size=16).map("".join),
    st.lists(st.one_of(_TERM, _FEW), min_size=1, max_size=4).map("#".join)))
@example("-1*-Enriques")
@example("S1xY(b1={p})")
@example("\u0663*CP2 # S1xY(b1=\u0663) # +1*K3")
@example("\x85-CP2\u2003# \u00b2*W")
@example("K3 # S1xY(b1=12")
@example("CP2\u00b2")
def test_parse_matches_the_grammar(text):
    """The table lookup gives the value or error, message and offset that
    the grammar's regular expression gave."""
    assert oracles.parse_outcome(cli.parse, text) == \
        oracles.parse_outcome(oracles.reference_parse, text)


def documented_exit(argv):
    """True iff cli.main ends argv in exit 0, 1 or 3, or a usage error's 2,
    or, when a -h or --help before any "--" asks for it, the help's 0."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:   # a usage error, or the help
            code = ("exit", e.code)
    options = argv[:argv.index("--")] if "--" in argv else argv
    helped = {"-h", "--help"} & set(options)
    return code in (0, 1, 3, ("exit", 2)) or helped and code == ("exit", 0)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["invariants", "classify", "cover", "certify"]),
       text=st.one_of(st.lists(_PIECES, max_size=16).map("".join),
                      st.lists(_TERM, min_size=1, max_size=5).map(" # ".join)))
def test_random_text_gets_documented_exit(command, text):
    assert documented_exit([command, text])


# sums whose parity boxes stay small: no K3, multiplicities <= 3; most
# end in summands that give a cover and an indefinite part
_SMALL_SUM = st.builds(
    "{}{}".format,
    st.lists(st.builds("{}*{}".format, st.integers(0, 3), st.builds(
        str.format, st.sampled_from(
            [n for n in (*cli._NAMES, *manifold.COMPOSITES) if "K3" not in n]),
        p=st.integers(0, 3))), min_size=1, max_size=4).map(" # ".join),
    st.sampled_from(["", " # S1xY(b1=1)", " # S2xS2 # S1xY(b1=1)",
                     " # 2*S2xS2 # S2xSigma(g=2)"]))


@settings(max_examples=150, deadline=None)
@given(text=_SMALL_SUM, bound=st.integers(-1, 3))
def test_random_spinc_gets_documented_exit(text, bound):
    # a lowered cap keeps every listing under 20,000 classes
    with mock.patch.object(cover, "MAX_CLASSES", 20_000):
        assert documented_exit(["spinc", text, "--bound", str(bound)])


_OPTIONS = sorted({name for _, _, options, _ in cli._COMMANDS.values()
                   for name in options})
# command names, option names with and without values, "--", -h, ints,
# scenario names and small sums, in any order
_ARGV_TOKEN = st.one_of(
    st.sampled_from([*cli._COMMANDS, "--", "-h", "--help", "-", "--bogus"]),
    st.sampled_from(_OPTIONS).map("--{}".format),
    st.builds("--{}={}".format, st.sampled_from(_OPTIONS), st.one_of(
        st.integers(-2, 3), st.sampled_from(["", "auto", "spin", "x"]))),
    st.integers(-2, 3).map(str),
    st.sampled_from(["auto", "spin", "nonspin", "enriques"]),
    _SMALL_SUM)


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(
    st.lists(_ARGV_TOKEN, max_size=7),
    st.builds(lambda command, rest: [command, *rest],
              st.sampled_from(list(cli._COMMANDS)),
              st.lists(_ARGV_TOKEN, max_size=6))))
def test_random_command_line_gets_documented_exit(argv):
    # a lowered cap keeps every listing under 20,000 classes
    with mock.patch.object(cover, "MAX_CLASSES", 20_000):
        assert documented_exit(argv)


def outputs(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# the blocks a multiset below is made of; Enriques is -E8 # S2xS2 # W
_KINDS = ("CP2", "-CP2", "-CP2fake", "S2xS2", "-E8", "E8", "W",
          "S1xY(b1=1)", "S2xSigma(g=1)")


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.integers(0, 3), min_size=len(_KINDS),
                       max_size=len(_KINDS)), data=st.data())
def test_every_writing_of_a_multiset_is_one_sum(counts, data):
    """Term order, split multiplicities, Enriques for its three summands,
    and 0*X and S4 terms change neither the sum nor any output byte."""
    plain = " # ".join(f"{n}*{name}" for n, name in zip(counts, _KINDS)
                       if n) or "S4"
    left = dict(zip(_KINDS, counts))
    enriques = data.draw(st.integers(
        0, min(left["-E8"], left["S2xS2"], left["W"])))
    terms = [f"{enriques}*Enriques"] if enriques else []
    for name in ("-E8", "S2xS2", "W"):
        left[name] -= enriques
    for name, n in left.items():
        while n:
            take = data.draw(st.integers(1, n))
            terms.append(f"{take}*{name}" if take > 1 or data.draw(
                st.booleans()) else name)
            n -= take
    terms += data.draw(st.lists(st.sampled_from(
        ["S4", "3*S4", "0*K3", "0*CP2", "0*Enriques"]), max_size=3))
    written = " # ".join(data.draw(st.permutations(terms))) or "S4"
    x, y = cli.parse(plain), cli.parse(written)
    assert x == y
    assert x.render() == y.render()
    for command in (["certify", "--json"], ["spinc"]):
        assert outputs([*command, plain]) == outputs([*command, written])


def _poly(factor):
    return st.lists(st.lists(factor, min_size=1, max_size=3).map("*".join),
                    min_size=1, max_size=3).map(" + ".join)


def _w_line(factor):
    # degrees up to 12 pass the k of most sums: lines above the torus too
    return st.builds("w_{} = {}".format, st.integers(0, 12), _poly(factor))


_DATA_LINE = st.one_of(
    st.sampled_from(["V1", "W1", "// note", "", "rank", "rank x"]),
    st.builds("rank {}".format, st.integers(-2, 4)),
    _w_line(st.one_of(
        st.sampled_from(["t1", "t2", "t3", "t9", "u", "1", "0", "x"]),
        st.builds("u^{}".format, st.integers(0, 100)))),
    st.text(max_size=12))
# mostly well-formed files too, so that reports get printed
_SECTION = st.builds(lambda rank, lines: [f"rank {rank}", *lines],
                     st.integers(0, 3),
                     st.lists(_w_line(st.sampled_from(["t1", "t2", "1"])),
                              max_size=2))
_DATA = st.one_of(
    st.lists(_DATA_LINE, max_size=8),
    st.builds(lambda v, w: ["V1", *v, "W1", *w], _SECTION, _SECTION))


@settings(max_examples=150, deadline=None)
@given(text=_SMALL_SUM, lines=_DATA, generators=st.integers(-3, 5))
def test_random_class_data_gets_documented_exit(tmp_path_factory, text, lines,
                                                generators):
    data = tmp_path_factory.mktemp("data") / "classes.txt"
    data.write_text("\n".join(lines), encoding="utf-8")
    assert documented_exit(["constraints", text, str(data),
                            "--generators", str(generators)])


def test_leading_dash_keeps_help(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["certify", "-h"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fourfold certify")


def module_env():
    """The environment for `python -m fourfold.cli` from this checkout."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def capped_child(argv, head=("-m", "fourfold.cli")):
    """Run `python -m fourfold.cli argv`, or `python *head argv`, in a child
    whose address space is capped at 1 GB, so that code building a list per
    unit of a huge input fails fast instead of filling memory; (completed
    run, wall seconds)."""
    cap = 1 << 30
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, *head, *argv],
        env=module_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    return run, time.perf_counter() - start


def test_module_run_warns_nothing():
    # the package loads cli lazily, so runpy finds it not yet imported
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fourfold.cli", "certify",
         "2*-E8 # 3*S2xS2 # S1xY(b1=1)"],
        capture_output=True, text=True, env=module_env(), check=False)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("verdict: NonSmoothable\n")


COLD_PATH = """
import contextlib, io, sys
before = set(sys.modules)
import fourfold.cli
imported = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    code = fourfold.cli.main(sys.argv[1:])
loaded = sorted(set(sys.modules) - before)
import json   # once the modules are counted: json.decoder imports re
print(json.dumps([code, sorted(imported), loaded]))
"""


def cold_child(*argv, flags=()):
    """(exit code, modules importing cli loads, modules loaded by the end)
    of one command in a fresh interpreter run with these flags."""
    run = subprocess.run([sys.executable, *flags, "-c", COLD_PATH, *argv],
                         env=module_env(), capture_output=True, text=True,
                         check=True)
    return json.loads(run.stdout)


def test_cold_path_imports_only_what_it_runs():
    code, imported, after_spinc = cold_child(
        "spinc", "CP2 # 2*-CP2 # S1xY(b1=1)")
    assert code == 0
    assert "fourfold.cover" in imported
    # no argument parser either: cli reads the command line from its table
    parsers = {"argparse", "gettext", "locale"}
    unwanted = {"dataclasses", "inspect", "fractions", "decimal", "json",
                "fourfold.obstruct", "fourfold.charpoly", *parsers}
    assert unwanted.isdisjoint(imported)
    assert unwanted.isdisjoint(after_spinc)
    code, _, after_certify = cold_child(
        "certify", "--json", "2*-E8 # 3*S2xS2 # S1xY(b1=1)")
    assert code == 0
    assert "fourfold.obstruct" in after_certify
    assert parsers.isdisjoint(after_certify)
    # without site, whose .pth files may load typing and re before the
    # child runs: cli reads an expression by table lookup, so spinc and a
    # plain certify load no re, nor the enum it imports.  certify --json
    # does load re: `import json.encoder` runs json/__init__, whose
    # json.decoder imports it
    for argv in (["spinc", "CP2 # 2*-CP2 # S1xY(b1=1)"],
                 ["certify", "2*-E8 # 3*S2xS2 # S1xY(b1=1)"]):
        code, _, after_clean = cold_child(*argv, flags=("-S",))
        assert code == 0
        assert {"typing", "re", "enum"}.isdisjoint(after_clean)


def test_package_names_resolve_on_first_use():
    import fourfold
    assert fourfold.obstruct.certify is obstruct.certify
    from fourfold import Certificate, certify, emit_json, parse
    assert (Certificate, certify) == (obstruct.Certificate, obstruct.certify)
    assert (parse, emit_json) == (cli.parse, cli.emit_json)
    assert fourfold.errors.ParseError is ParseError
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        fourfold.nonesuch


@pytest.mark.parametrize("argv", [["spinc", "S2xS2 # S1xY(b1=1)"],
                                  ["invariants", "K3"], ["certify", "-h"]])
def test_closed_reader_ends_quietly(argv):
    child = subprocess.Popen(
        [sys.executable, "-m", "fourfold.cli", *argv], env=module_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()  # the child starts up long after this
    with child.stderr:
        err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (1, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv, code", [
    (["certify"], 2), (["nonesuch"], 2), (["certify", "bogus"], 1)])
def test_closed_error_reader_keeps_the_exit_code(argv, code, unbuffered):
    # a usage error still exits 2 and an input error 1: before, the print
    # to stderr failed at exit (120) or in main (1)
    child = subprocess.Popen(
        [sys.executable, "-m", "fourfold.cli", *argv],
        env=dict(module_env(), PYTHONUNBUFFERED=unbuffered),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stderr.close()  # the child starts up long after this
    with child.stdout:
        out = child.stdout.read()
    assert (child.wait(timeout=60), out) == (code, b"")


def test_invariants_output(capsys):
    cli.main(["invariants", "Enriques"])
    out = capsys.readouterr().out
    assert "sigma = -8" in out and "b2 = 10" in out
    assert "ks = 0" in out and "spin = False" in out


def test_classify_output(capsys):
    cli.main(["classify", "K3"])
    assert capsys.readouterr().out.strip() == \
        "-E8 # -E8 # S2xS2 # S2xS2 # S2xS2"


def test_reverse_flag(capsys):
    cli.main(["invariants", "K3", "--reverse"])
    assert "sigma = 16" in capsys.readouterr().out


def test_cover_output(capsys):
    cli.main(["cover", "2*-E8 # 3*S2xS2 # S1xY(b1=1)"])
    out = capsys.readouterr().out
    assert "b_plus_ell = 3" in out


def test_spinc_output(capsys):
    cli.main(["spinc", "-CP2 # S2xS2 # S1xY(b1=1)"])
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert all("square = -1" in line for line in out)


def test_spinc_class_cap(monkeypatch, capsys):
    # the count is worked out before any list is built, so a huge bound
    # is refused at once
    start = time.perf_counter()
    code = cli.main(["spinc", "-E8 # 2*S2xS2 # S1xY(b1=1)",
                     "--bound", "1000000000"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert capsys.readouterr() == ("", (
        f"InvalidSetting: bound 1000000000 gives more than "
        f"{cover.MAX_CLASSES} classes\n"))
    text = "-CP2 # S2xS2 # S1xY(b1=1)"   # two classes at bound 1
    monkeypatch.setattr(cover, "MAX_CLASSES", 1)
    assert cli.main(["spinc", text]) == 1
    assert capsys.readouterr().err == \
        "InvalidSetting: bound 1 gives more than 1 classes\n"
    monkeypatch.setattr(cover, "MAX_CLASSES", 2)
    assert cli.main(["spinc", text]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_summand_cap(monkeypatch, capsys):
    # the count is checked on the sum's pairs, before any list of blocks
    # grows
    start = time.perf_counter()
    code = cli.main(["certify", "1000000000*CP2"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert capsys.readouterr() == ("", (
        f"InvalidSetting: more than {cover.MAX_SUMMANDS} summands\n"))
    assert cover.MAX_SUMMANDS >= 100_000
    # the sum is counted once every term has parsed: a malformed term
    # after the cap is the error
    assert cli.main(["certify", "1000000000*CP2 # foo"]) == 1
    assert capsys.readouterr() == (
        "", "ParseError: unknown block 'foo' (at byte 17)\n")
    monkeypatch.setattr(cover, "MAX_SUMMANDS", 4)
    assert cli.parse("Enriques # 0*K3 # S4 # S1xY(b1=1)").b1 == 2
    with pytest.raises(InvalidSetting, match="more than 4 summands"):
        cli.parse("Enriques # 2*S1xY(b1=1)")   # Enriques counts 3


@pytest.mark.parametrize("mult", [10 ** 8, 10 ** 100], ids=["1e8", "1e100"])
def test_huge_multiple_of_s4_adds_nothing(mult, capsys):
    # S4 expands to no summands, so its term adds no block at any count
    text = "2*-E8 # 3*S2xS2 # S1xY(b1=1)"
    run, _ = capped_child(["certify", f"{mult}*S4 # {text}"])
    assert run.stderr == ""
    assert (run.returncode, run.stdout) == \
        (cli.main(["certify", text]), capsys.readouterr().out)


LIBRARY_HUGE_COUNTS = """
from fourfold import manifold, obstruct
from fourfold.errors import InvalidSetting
x = manifold.ManifoldExpr(((manifold.NAMED["CP2"], 10**9),
                           (manifold.NAMED["-CP2"], 10**9 + 20),
                           (manifold.Block("S1xY", param=1), 1)))
try:
    obstruct.certify(x)
except InvalidSetting as e:
    print(e)
"""


def test_library_certify_refuses_huge_counts():
    # cli.parse refuses this sum's text; a sum built in the library reaches
    # certify, which refuses it before normalizing lists 2 * 10^9 entries
    run, seconds = capped_child(["-c", LIBRARY_HUGE_COUNTS], head=())
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == \
        f"InvalidSetting: more than {cover.MAX_SUMMANDS} summands\n"
    assert seconds < 5


def test_library_certify_counts_summands_as_parse_does(monkeypatch):
    monkeypatch.setattr(cover, "MAX_SUMMANDS", 4)
    fits = cli.parse("Enriques # S1xY(b1=1)")   # Enriques counts 3
    assert obstruct.certify(fits).verdict == "NonSmoothable"
    over = manifold.ManifoldExpr(((manifold.Block("Enriques"), 1),
                                  (manifold.Block("S1xY", param=1), 2)))
    for run in (lambda: cli.parse("Enriques # 2*S1xY(b1=1)"),
                lambda: obstruct.certify(over)):
        with pytest.raises(InvalidSetting, match="more than 4 summands"):
            run()
    # S4 expands to no summands at any count
    huge_s4 = manifold.ManifoldExpr(fits.terms + ((manifold.Block("S4"),
                                                   10 ** 100),))
    assert obstruct.certify(huge_s4) == obstruct.certify(fits)


@pytest.mark.parametrize("command, code, line", [
    ("invariants", 0, "b2 = 200000003"),
    ("classify", 0, "CP2 # -CP2 # -CP2 # S1xY(b1=100000000)"),
    ("cover", 0, "free_rank_ell = 3"),
    ("certify", 3, "HypothesesNotMet: enriques: "),
])
def test_huge_s1xy_parameter_builds_nothing(command, code, line):
    # a block's invariants are closed-form in its parameter, and the cover
    # twists S1xY, so no command builds the 10^8 hyperbolic planes
    run, seconds = capped_child([command, "CP2 # 2*-CP2 # S1xY(b1=100000000)"])
    assert (run.returncode, run.stderr) == (code, "")
    assert line in run.stdout
    assert seconds < 1


@pytest.mark.parametrize("text", [
    "1" * 5000 + "*CP2", "S2xSigma(g=" + "1" * 5000 + ")"],
    ids=["multiplicity", "genus"])
def test_number_past_int_digit_limit(text, capsys):
    assert cli.main(["invariants", text]) == 1
    assert capsys.readouterr().err.startswith("ParseError: ")


@pytest.mark.parametrize("text", ["S1xY(b1=1)", "W # S1xY(b1=1)"])
def test_spinc_huge_bound_without_free_coordinates(text):
    # with no free coordinate there is one class at any bound, and no
    # column of entries is built
    run, _ = capped_child(["spinc", text, "--bound", str(10 ** 12)])
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.count("\n") == 1
    assert run.stdout.startswith("square = 0: free = [], torsion = ")


# --- constraints data files ---

def test_constraints_file_roundtrip(tmp_path, capsys):
    data = tmp_path / "classes.txt"
    data.write_text(
        "// virtual index bundle data\n"
        "V1\n"
        "rank 2\n"
        "w_1 = t1\n"
        "W1\n"
        "rank 1\n"
        "w_1 = t1\n")
    code = cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)", str(data)])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_minus_m = -1" in out
    assert "Incompatible" in out


def test_constraints_file_compatible(tmp_path, capsys):
    data = tmp_path / "classes.txt"
    data.write_text("V1\nrank 1\nW1\nrank 2\nw_1 = t1 + t2\n")
    code = cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)", str(data)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Compatible" in out


def test_constraints_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("rank 2\n")
    with pytest.raises(SystemExit):
        cli.main(["constraints"])  # missing args
    assert cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)", str(bad)]) == 1


@pytest.mark.parametrize("content", [
    None, "V1\nrank\n", "V1\nrank x\n", "V1\nrank -3\nW1\nrank 1\n",
    "V1\nrank 1\nw_1 = t9\nW1\nrank 1\n", "V1\nrank 1\nw_1 = u\nW1\nrank 1\n",
    "V1\nrank 1\nW1\nrank 1\nw_1 = t1*t2\n", "V1\nrank 1\nw_1 = 1\nW1\nrank 1\n",
    "V1\nrank 1\nW1\nrank 1\nw_1 = t1*u\n",
    pytest.param(f"V1\nrank 1\nw_{'9' * 5000} = 1\nW1\nrank 1\n",
                 id="degree-past-int-digit-limit"),
    pytest.param(f"V1\nrank 1\nW1\nrank 1\nw_1 = u^{'9' * 5000}\n",
                 id="power-past-int-digit-limit"),
    pytest.param("V1\nrank 1\nW1\nrank 1\nw_70 = u^70\n",
                 id="u-above-torus"),
    pytest.param("V1\nrank 1\nW1\nrank 1\nV1\nrank 2\n",
                 id="repeated-header"),
    pytest.param("V1\nrank 1\nW1\nrank 3\nrank 1\n", id="repeated-rank"),
    pytest.param("V1\nrank 1\nw_1 = t1\nw_1 = t2\nW1\nrank 1\n",
                 id="repeated-w")])
def test_constraints_file_read_errors(content, tmp_path, capsys):
    data = tmp_path / "classes.txt"
    if content is not None:
        data.write_text(content)
    code = cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)", str(data)])
    assert code == 1
    assert capsys.readouterr().err.startswith("ParseError: ")


def test_constraints_file_names_the_repeated_line(tmp_path, capsys):
    # a repeated line used to overwrite the first, and a repeated header
    # to drop its section: V1 / rank 1 / w_1 = t1 / w_1 = t2 / W1 / rank 3
    # / rank 1 read as w_1 = t2 and rank W1 = 1, and printed Compatible
    data = tmp_path / "classes.txt"
    for content, message in (
            ("V1\nrank 1\nw_1 = t1\nw_01 = t2\nW1\nrank 3\n",
             "repeated w_1 line: 'w_01 = t2'"),
            ("V1\nrank 1\nW1\nrank 3\nrank 1\n",
             "repeated rank line: 'rank 1'"),
            ("V1\nrank 1\nW1\nrank 3\nV1\nrank 2\n",
             "repeated section header: 'V1'")):
        data.write_text(content)
        assert cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)",
                         str(data)]) == 1
        assert capsys.readouterr() == ("", f"ParseError: {message}\n")


def test_constraints_rank_line_is_exactly_rank_n(tmp_path, capsys):
    # any line that began with "rank" read its second word: `rankle 2 junk`
    # read as `rank 2`, and the report exited 0
    data = tmp_path / "classes.txt"
    for line in ("rankle 2 junk", "rank 2 junk", "rank", "rank 2 3"):
        data.write_text(f"V1\n{line}\nW1\nrank 1\n")
        assert cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)",
                         str(data)]) == 1
        assert capsys.readouterr() == (
            "", f"ParseError: cannot parse class data line {line!r}\n")
    data.write_text("V1\nrank  2 // two\nW1\n\trank 1\n")
    assert cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)", str(data)]) == 0


def test_constraints_file_names_the_refused_line_or_section(tmp_path,
                                                           capsys):
    # charpoly.check_pure rules every w_i line, one the reader drops too,
    # and BundleClassData the rank; the reader names the line or section
    data = tmp_path / "classes.txt"
    for content, message in (
            ("V1\nrank 1\nW1\nrank 1\nw_70 = u^70\n",
             "w70 must be a pure base class of degree 70: 'w_70 = u^70'"),
            ("V1\nrank 1\nw_1 = t1*t2\nW1\nrank 1\n",
             "w1 must be a pure base class of degree 1: 'w_1 = t1*t2'"),
            ("V1\nrank 1\nW1\nrank -3\n",
             "rank -3 must be an int >= 0 in section W1")):
        data.write_text(content)
        assert cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)",
                         str(data)]) == 1
        assert capsys.readouterr() == ("", f"ParseError: {message}\n")
    data.write_text("V1\nrank 1\nw_0 = 1\nW1\nrank 1\n")
    assert cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)", str(data)]) == 0


@pytest.mark.parametrize("content, same_as", [
    ("V1\nrank 100000000\nw_1 = t1\nW1\nrank 100000000\n",
     "V1\nrank 1\nw_1 = t1\nW1\nrank 1\n"),
    ("V1\nrank 1\nw_100000000 = 0\nW1\nrank 1\nw_1 = t1\n",
     "V1\nrank 1\nW1\nrank 1\nw_1 = t1\n")], ids=["rank", "degree"])
def test_constraints_huge_rank_or_degree(content, same_as, tmp_path, capsys):
    # class data is kept over T^k only, so a huge rank or a zero line of
    # huge degree builds nothing
    data = tmp_path / "classes.txt"
    data.write_text(content)
    run, _ = capped_child(["constraints", "2*S2xS2 # S1xY(b1=1)", str(data)])
    assert (run.returncode, run.stderr) == (0, "")
    data.write_text(same_as)
    assert cli.main(["constraints", "2*S2xS2 # S1xY(b1=1)", str(data)]) == 0
    assert run.stdout == capsys.readouterr().out



def pair_class_data(k):
    """w_2 = every t_i*t_j in both sections, V1 at rank 2 and W1 at rank 1:
    the listed degrees 0..k take 1 + 2C + C^2 term products, C = C(k, 2)."""
    pairs = " + ".join(f"t{i + 1}*t{j + 1}"
                       for i, j in itertools.combinations(range(k), 2))
    return f"V1\nrank 2\nw_2 = {pairs}\nW1\nrank 1\nw_2 = {pairs}\n"


@pytest.mark.parametrize("k, code, out", [
    (45, 0, "f6d057b27ab09d9df8a7d3ec497ee7b9db8555dda39c49859a0c072cbc83b821"),
    (46, 1, hashlib.sha256(b"").hexdigest())], ids=["answers", "refused"])
def test_constraints_class_data_work_cap(k, code, out, tmp_path):
    # at k = 45 the classes take 991^2 = 982,081 term products and print
    # the bytes they printed before the cap; at k = 46 they take 1036^2 =
    # 1,073,296, over cover.MAX_CLASSES, and are refused before any
    data = tmp_path / "classes.txt"
    data.write_text(pair_class_data(k))
    run, seconds = capped_child(
        ["constraints", f"{k}*S2xS2 # S1xY(b1=1)", str(data)])
    assert run.returncode == code
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == out
    if code:
        assert run.stderr == (
            "InvalidSetting: class data needs 1073296 > 1000000 term "
            "products\n")
        assert seconds < 10

@pytest.mark.parametrize("generators", ["-1", "9"])
def test_constraints_generators_out_of_range(generators, tmp_path, capsys):
    data = tmp_path / "classes.txt"
    data.write_text("V1\nrank 1\nW1\nrank 2\nw_1 = t1 + t2\n")
    code = cli.main(["constraints", "3*S2xS2 # S1xY(b1=1)", str(data),
                     "--generators", generators])
    assert code == 1
    assert capsys.readouterr() == ("", (
        f"InvalidSetting: generators must be in 0..3, got {generators}\n"))


def test_parse_poly_syntax():
    p = cli.parse_poly("t1*t2 + u^2", 2)
    assert p.render() == "t1*t2 + u^2"
    assert not cli.parse_poly("0", 2)
    assert cli.parse_poly("1", 2).render() == "1"
    with pytest.raises(ParseError):
        cli.parse_poly("t1 + x7", 2)


@settings(max_examples=200)
@given(k=st.integers(0, 6), terms=st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 3)), max_size=8))
def test_parse_poly_round_trip(k, terms):
    """parse_poly reads back what render writes, pure or u-bearing."""
    p = charpoly.ExtPoly(k, {(mask & ((1 << k) - 1), up) for mask, up in terms})
    assert cli.parse_poly(p.render(), k) == p
