import contextlib
import io
import json
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mtv.cli import _parse_word, main
from mtv.wordalg import shuffle as shuffle_product


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_singular_lambda(capsys):
    code, out, _ = run_cli(capsys, "singular-lambda", "--N", "7")
    assert code == 0 and out.strip() == "242/91"


def test_matrix_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--kind", "S", "--N", "8", "--level", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0] == "11222"
    assert data["entries"][0] == ["1", "0", "4", "0", "0", "-16", "0", "0", "0"]


def test_matrix_text(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--kind", "H", "--N", "8", "--level", "2")
    assert code == 0
    assert "11222" in out and "-1905" in out


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "t(2,2)")
    assert code == 0 and out.strip() == "1/384*pi2^2"
    code, out, _ = run_cli(capsys, "eval", "t*(2,1;V)")
    assert code == 0 and "z3" in out
    code, out, err = run_cli(capsys, "eval", "t(2,1)")
    assert code == 2
    code, out, err = run_cli(capsys, "eval", "t*(2,2)")
    assert code == 2 and "pattern" in err


def test_reg(capsys):
    code, out, _ = run_cli(capsys, "reg", "--scheme", "stuffle", "--param", "U", "t(2,1)")
    assert code == 0
    assert "(U) * z(2)" in out and "(-1) * z(3)" in out
    code, out, _ = run_cli(capsys, "reg", "--scheme", "shuffle", "--param", "0", "z_1(2)")
    assert code == 0 and "(-2) * z(3)" in out


def test_stuffle_shuffle(capsys):
    code, out, _ = run_cli(capsys, "stuffle", "t(2)", "t(1,2)")
    assert code == 0 and "z(1,2,2)" in out
    code, out, _ = run_cli(capsys, "shuffle", "10", "10", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"1010": "2", "1100": "4"}
    code, out, _ = run_cli(capsys, "shuffle", "1,0", "1, 0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"1010": "2", "1100": "4"}
    code, out, _ = run_cli(capsys, "shuffle", "1,-1", "0")
    assert code == 0 and out.splitlines() == ["1 * 0,1,-1", "1 * 1,-1,0", "1 * 1,0,-1"]
    for bad in ("12", "1,2", "1-1", "x"):
        code, out, err = run_cli(capsys, "shuffle", bad, "1")
        assert code == 2 and bad in err
    code, out, err = run_cli(capsys, "stuffle", "z(0)", "t(1)")
    assert code == 2 and "nonzero" in err


@pytest.mark.parametrize("left, right", [("1,-1", "0"), ("0,-1", "1,-1"), ("10", "-1"), ("110", "10"),
                                         ("-1,0", "1"), ("1", "-1,0,1")])
def test_shuffle_output_parses_back(capsys, left, right):
    # every printed word, text or JSON, reads back as the word it names
    product = shuffle_product(_parse_word(left), _parse_word(right))
    code, out, _ = run_cli(capsys, "shuffle", left, right)
    assert code == 0
    text = dict(line.split(" * ")[::-1] for line in out.splitlines())
    code, out, _ = run_cli(capsys, "shuffle", left, right, "--format", "json")
    assert code == 0
    for printed in (text, json.loads(out)):
        assert {_parse_word(w): Fraction(c) for w, c in printed.items()} == product


def test_shuffle_reads_leading_minus_one_word(capsys):
    # "-1,0" is a word, not an option, with or without a "--" before it
    for argv in (("-1,0", "1"), ("--", "-1,0", "1"), ("-1,0", "1", "--format", "text")):
        code, out, _ = run_cli(capsys, "shuffle", *argv)
        assert code == 0 and out.splitlines() == ["1 * -1,0,1", "1 * -1,1,0", "1 * 1,-1,0"]
    code, _, err = run_cli(capsys, "shuffle", "-1,2", "1")
    assert code == 2 and "-1,2" in err


def test_dr(capsys):
    code, out, _ = run_cli(capsys, "dr", "--r", "3", "t(2,1,2)")
    assert code == 0 and out.strip() == "(-7/2) * z3 (x) t~(2)"
    # the left factor t(1,1,1) has no closed form: refused, not a traceback
    code, _, err = run_cli(capsys, "dr", "--r", "3", "t(1,1,1)")
    assert code == 2 and "t block (1, 1, 1)" in err


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "S", "--N", "4")
    assert code == 0 and out.split() == ["22", "112", "13"]


def test_det(capsys):
    code, out, _ = run_cli(capsys, "det", "--kind", "Hstar", "--N", "3", "--level", "1")
    assert code == 0 and out.strip() == "-14 + 7*lam"
    code, out, _ = run_cli(capsys, "det", "--kind", "Hstar", "--N", "3", "--level", "1",
                           "--lam", "2")
    assert code == 0 and out.strip() == "0"


def test_num(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "num", "t(2)", "--prec", "53", "--cutoff", "20000")
    assert code == 0 and out.startswith("1.2337")
    code, out, err = run_cli(capsys, "num", "z(0,2)")
    assert code == 2 and "nonzero" in err
    for flag in ("--prec", "--cutoff"):
        code, out, err = run_cli(capsys, "num", "t(2)", flag, "0")
        assert code == 2 and flag[2:] in err
    code, out, err = run_cli(capsys, "num", "t(2)", "--prec", "1001")
    assert code == 2 and "prec" in err
    for var in ("MTV_PREC", "MTV_CUTOFF"):
        with monkeypatch.context() as m:
            m.setenv(var, "0")
            code, out, err = run_cli(capsys, "num", "t(2)")
            assert code == 2 and var[4:].lower() in err
            code, out, err = run_cli(capsys, "verify", "--suite", "counting")
            assert code == 2 and var[4:].lower() in err


def test_num_prints_certified_digits(capsys):
    mp = mpmath.mp.clone()
    mp.prec = 200
    t212 = -mp.mpf(7) / 128 * mp.pi ** 2 * mp.zeta(3) + mp.mpf(93) / 128 * mp.zeta(5)
    cases = [
        (("t(2,1,2)", "--prec", "53", "--cutoff", "1000"), t212),
        (("t(2,1,2)",), t212),
        (("t(1,2)", "--prec", "64"), -mp.mpf(7) / 16 * mp.zeta(3) + mp.pi ** 2 / 8 * mp.log(2)),
        (("z(-1)", "--prec", "53", "--cutoff", "1000"), -mp.log(2)),
    ]
    for args, true in cases:
        code, out, _ = run_cli(capsys, "num", *args)
        value, bound = out.split(" +- ")
        decimals = len(value.split(".")[1])
        assert code == 0 and 10 ** -decimals <= float(bound) < 2 * 10 ** (1 - decimals), out
        assert abs(mp.mpf(value) - true) <= mp.mpf(bound), out
    code, out, _ = run_cli(capsys, "num", "t(2,1,2)")
    assert float(out.split(" +- ")[1]) <= 1e-35


def test_coeff(capsys):
    code, out, _ = run_cli(capsys, "coeff", "c", "2a1", "--a", "2")
    assert code == 0 and out.strip() == "2"
    for args in (("c", "2a1", "--a", "-1"), ("d", "2a12b", "--a", "1", "--b", "-2")):
        code, out, err = run_cli(capsys, "coeff", *args)
        assert code == 2 and "non-negative" in err


def test_verify_counting(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counting")
    assert code == 0 and "0 failures" in out


def test_report_requires_suite(capsys):
    code, out, err = run_cli(capsys, "report", "--suite", "")
    assert code == 2


def test_report_json(capsys):
    code, out, _ = run_cli(capsys, "report", "--suite", "counting")
    assert code == 0
    data = json.loads(out)
    assert all(item["status"] == "PASS" for item in data)


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "matrix", "--kind", "S", "--N", "8", "--level", "2",
                         "--format", "json")
    _, out2, _ = run_cli(capsys, "matrix", "--kind", "S", "--N", "8", "--level", "2",
                         "--format", "json")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--kind", "X", "--N", "8", "--level", "2"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "matrix", "--kind", "S", "--N", "1", "--level", "1")
    assert code == 2 and "need N >= 2" in err
    # --lam is parsed before the math, for the plain kinds too
    for kind in ("S", "H", "Hstar"):
        for lam in ("1/0", "abc"):
            with pytest.raises(SystemExit) as exc:
                main(["det", "--kind", kind, "--N", "3", "--level", "1", "--lam", lam])
            err = capsys.readouterr().err
            assert exc.value.code == 2 and "error: argument --lam" in err and "Traceback" not in err
    # a valid --lam changes nothing for the plain kinds, so it is refused
    for kind in ("S", "H"):
        code, out, err = run_cli(capsys, "det", "--kind", kind, "--N", "3", "--level", "1", "--lam", "1/2")
        assert code == 2 and out == "" and "--lam applies only to --kind Hstar" in err
    code, out, _ = run_cli(capsys, "det", "--kind", "Hstar", "--N", "5", "--level", "1", "--lam", "1/2")
    assert code == 0 and out == "1395/2\n"


def test_broken_invariant_exit_code(capsys, monkeypatch):
    # a stuffle product that miscounts breaks the regularization's peeling
    # invariant; the CLI reports it with its own exit code, not a traceback
    from mtv import regularize

    monkeypatch.setattr(regularize, "_st_cache", {})
    monkeypatch.setattr(regularize, "_word_cache", {})
    monkeypatch.setattr(regularize, "_stuffle_parts", lambda u, v: ((u + v, 2),))
    code, out, err = run_cli(capsys, "reg", "--scheme", "stuffle", "t(2,1)")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "occurs 2 times" in err and "Traceback" not in err


def _verdicts(out: str) -> dict:
    """{ref: line} for the check lines of a text verify report."""
    return {line.split()[1].rstrip(":"): line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))}


def test_coherence_at_low_precision_fails_with_bounds(capsys):
    # at 8 bits no layer bound gets under the cap: each numeric check
    # FAILs and reports its bound instead of aborting the suite
    code, out, err = run_cli(capsys, "verify", "--suite", "coherence", "--prec", "8")
    assert code == 1 and err == ""
    lines = _verdicts(out)
    for ref in ("st-vs-sh", "st-via-sh0", "t-star-vs-sh", "distribution"):
        assert lines[ref].startswith("FAIL") and ", bound " in lines[ref], lines[ref]
    assert lines["stuffle-compat"].startswith("PASS")


def test_coherence_with_nothing_to_settle_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "coherence", "--max-weight", "0")
    assert code == 0
    lines = _verdicts(out)
    for ref in ("st-vs-sh", "st-via-sh0"):
        assert lines[ref].startswith("PASS") and lines[ref].endswith("[residual 0.000e+00, bound 0.000e+00]")
    assert lines["distribution"].startswith("PASS") and ", bound " in lines["distribution"]


@pytest.mark.parametrize("prec, verdict", [("53", "PASS"), ("8", "FAIL"), ("64", "PASS")])
def test_verify_identity_line(capsys, prec, verdict):
    code, out, _ = run_cli(capsys, "verify", "--identity", "t2212", "--a", "1", "--b", "1", "--prec", prec)
    number = r"\d\.\d{3}e[-+]\d\d"
    pattern = rf"value 0\.\d{{12}}  closed 0\.\d{{12}}  residual ({number})  bound ({number})  {verdict}\n"
    m = re.fullmatch(pattern, out)
    assert m, out
    assert code == (0 if verdict == "PASS" else 1)
    residual, bound = float(m.group(1)), float(m.group(2))
    assert (residual <= bound <= 1e-6) == (verdict == "PASS")


# ---------------------------------------------------------------------------
# front-door fuzzing: generated argument lists for the cheap subcommands
# ---------------------------------------------------------------------------

_entries = st.lists(st.sampled_from([1, 2, 3, -1, -2, 0, 5]), max_size=4).filter(
    lambda p: sum(abs(x) for x in p) <= 5)


@st.composite
def _index_text(draw):
    """t(...), t*(...), z(...) or z_l(...) with entries of weight <= 5, a
    digit string, or free text."""
    parts = draw(_entries)
    inner = ",".join(map(str, parts))
    return draw(st.sampled_from([
        f"t({inner})", f"t*({inner})", f"z({inner})", f"z_{draw(st.integers(0, 2))}({inner})",
        "".join(str(abs(x)) for x in parts), draw(st.text(max_size=6)),
    ]))


_word_text = st.one_of(
    st.lists(st.sampled_from(["0", "1", "-1", "2"]), max_size=4).map(",".join),
    st.text(alphabet="01-, x", max_size=5),
)
_small = st.integers(-2, 8).map(str)


def _flags(optional=False, **choices):
    """--flag value for each choice; an optional flag may also be absent."""
    def one(flag, values):
        pair = values.map(lambda v: [f"--{flag}", v])
        return st.one_of(st.just([]), pair) if optional else pair
    return st.tuples(*[one(f, v) for f, v in choices.items()]).map(lambda groups: [x for g in groups for x in g])


_commands = st.one_of(
    st.tuples(st.just(["num"]), _index_text().map(lambda t: [t]),
              _flags(True, prec=st.integers(-1, 80).map(str), cutoff=st.integers(-1, 2000).map(str))),
    st.tuples(st.just(["eval"]), _index_text().map(lambda t: [t])),
    st.tuples(st.just(["reg"]), _index_text().map(lambda t: [t]),
              _flags(scheme=st.sampled_from(["stuffle", "shuffle"])),
              _flags(True, param=st.sampled_from(["T", "0", "V", ""]))),
    st.tuples(st.sampled_from([["stuffle"], ["shuffle"]]),
              st.lists(st.one_of(_index_text(), _word_text), min_size=2, max_size=2)),
    st.tuples(st.just(["dr"]), _index_text().map(lambda t: [t]), _flags(r=_small)),
    st.tuples(st.just(["coeff"]), st.sampled_from(["c", "d"]).map(lambda f: [f]),
              st.sampled_from(["2a1", "2a32b", "2a12b"]).map(lambda p: [p]), _flags(a=_small), _flags(True, b=_small)),
    st.tuples(st.sampled_from([["det"], ["matrix"]]),
              _flags(kind=st.sampled_from(["S", "H", "Hstar"]), N=_small, level=_small),
              _flags(True, lam=st.sampled_from(["1/2", "1", "1/0", "abc", "-3/7"]))),
    st.lists(st.sampled_from(["num", "det", "--N", "9", "--prec", "t(2)", "-1", "x"]), max_size=4),
).map(lambda parts: [x for p in parts for x in (p if isinstance(p, list) else [p])])


@settings(max_examples=150, deadline=None)
@given(argv=st.one_of(_commands, _commands.map(lambda a: a + ["--format", "json"])))
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    if code:
        assert err.getvalue().strip(), argv
    assert "Traceback" not in err.getvalue() + out.getvalue(), argv
