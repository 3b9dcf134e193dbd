import argparse
import contextlib
import io
import json
import math
import os
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mtv import verify
from mtv.cli import _parse_word, build_parser, main
from mtv.numoracle import NumEnv
from mtv.verify import coherence_checks
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


_HSTAR_4_2 = """\
           12        21   1
112         1         0   0
121  -1 + lam         1  -7
211         0  -1 + lam  -7
"""


@pytest.mark.parametrize("kind, N, level, check", [
    pytest.param("H", 8, 2, lambda out: "11222" in out and "-1905" in out, id="H"),
    # the dense view of the sparse rows, lam cells included, exactly as printed
    pytest.param("Hstar", 4, 2, lambda out: out == _HSTAR_4_2, id="Hstar"),
])
def test_matrix_text(capsys, kind, N, level, check):
    code, out, _ = run_cli(capsys, "matrix", "--kind", kind, "--N", str(N), "--level", str(level))
    assert code == 0
    assert check(out), out


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
    code, out, _ = run_cli(capsys, "reg", "--scheme", "stuffle", "--param", "U", "z(2,1)")
    assert code == 0
    assert "(U) * z(2)" in out and "(-1) * z(3)" in out
    code, out, _ = run_cli(capsys, "reg", "--scheme", "shuffle", "--param", "0", "z_1(2)")
    assert code == 0 and "(-2) * z(3)" in out
    # "20" is the index (2, 0), refused like t(2,0), not read as a zero entry
    code, out, err = run_cli(capsys, "reg", "--scheme", "stuffle", "20")
    assert code == 2 and out == "" and err == "error: index digits must be positive: '20'\n"


@pytest.mark.parametrize("argv", [
    ["reg", "--scheme", "stuffle", "--param", "U", "t(2,1)"],
    ["reg", "--scheme", "shuffle", "t(2,1)"],
    ["reg", "--scheme", "shuffle", "21"],
    ["stuffle", "z(2)", "t(1,2)"],
    ["stuffle", "2", "z(1,2)"],
])
def test_reg_and_stuffle_refuse_a_t_index(capsys, argv):
    # both act on zeta indices; a t index with the same entries is another number
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "z(...)" in err and "t index" in err


def test_stuffle_shuffle(capsys):
    code, out, _ = run_cli(capsys, "stuffle", "z(2)", "z(1,2)")
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
    code, out, err = run_cli(capsys, "stuffle", "20", "2")
    assert code == 2 and out == "" and err == "error: index digits must be positive: '20'\n"


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
    code, out, err = run_cli(capsys, "dr", "--r", "1", "0")
    assert code == 2 and out == "" and err == "error: index digits must be positive: '0'\n"


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "S", "--N", "4")
    assert code == 0 and out.split() == ["22", "112", "13"]


def test_level_above_the_weight_exits_2(capsys):
    for argv in (["det", "--kind", "H", "--N", "3", "--level", "5", "--structure"],
                 ["det", "--kind", "S", "--N", "3", "--level", "5", "--structure"],
                 ["matrix", "--kind", "Hstar", "--N", "3", "--level", "5"],
                 ["enumerate", "--kind", "H", "--N", "3", "--level", "5"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err == "error: level 5 exceeds the weight N = 3\n", argv


def test_num_names_a_divergent_signed_index_as_typed(capsys):
    code, out, err = run_cli(capsys, "num", "z(1)")
    assert code == 2 and out == "" and err == "error: divergent signed index z(1)\n"


@pytest.mark.parametrize("spelling", ["t(2,1)", "21"])
def test_num_names_a_divergent_t_index_in_the_t_notation(capsys, spelling):
    code, out, err = run_cli(capsys, "num", spelling)
    assert code == 2 and out == "" and err == "error: divergent t index t(2,1)\n"


def test_det(capsys):
    code, out, _ = run_cli(capsys, "det", "--kind", "Hstar", "--N", "3", "--level", "1")
    assert code == 0 and out.strip() == "-14 + 7*lam"
    code, out, _ = run_cli(capsys, "det", "--kind", "Hstar", "--N", "3", "--level", "1",
                           "--lam", "2")
    assert code == 0 and out.strip() == "0"


def test_det_structure_eliminates_each_block_once(capsys, monkeypatch):
    from mtv import motivic, ratmatrix

    m = motivic.build_matrix("H", 13, 3)
    blocks = [c1 - c0 for c0, c1 in ratmatrix.diagonal_blocks(m.nonzero)]
    assert len(blocks) == 3 and sum(blocks) == len(m.rows)
    real, sizes = ratmatrix._bareiss_int, []

    def counted(block):
        sizes.append(len(block))
        return real(block)

    monkeypatch.setattr(ratmatrix, "_bareiss_int", counted)
    code, plain, _ = run_cli(capsys, "det", "--kind", "H", "--N", "13", "--level", "3")
    assert code == 0 and sizes == blocks
    sizes.clear()
    motivic._plain_matrix.cache_clear()  # each mtv command is its own process
    code, out, _ = run_cli(capsys, "det", "--kind", "H", "--N", "13", "--level", "3", "--structure")
    assert code == 0 and out.startswith(plain) and out.endswith("structure: ok\n")
    # the report's determinant is the one printed, and its final class is read
    # from the blocks inside it: no block is eliminated twice
    assert sizes == blocks


@pytest.mark.parametrize("extra", [["matrix"], ["det"], ["det", "--structure"]])
def test_an_empty_basis_is_refused(capsys, extra):
    # kind S has no words at level N: no matrix, no determinant, no report
    command, *flags = extra
    code, out, err = run_cli(capsys, command, "--kind", "S", "--N", "3", "--level", "3", *flags)
    assert code == 2 and out == "" and err.startswith("error: "), (code, out, err)
    assert err == "error: kind S has no words of weight 3 and level 3\n"


@pytest.mark.parametrize("argv", [
    ["eval", "z(2)"],  # only t indices have closed forms
    ["eval", "t(1)"],  # a t index with no closed form
    ["dr", "--r", "1", "z(2)"],  # the derivation acts on t indices
    ["coeff", "c", "2a12b", "--a", "1"],  # no such coefficient family
    ["reg", "--scheme", "stuffle", "z_1(2)"],  # stuffle_reg refuses leading zeros
])
def test_usage_errors_take_the_one_error_path(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: "), err


def test_eval_errors_quote_the_argument_as_typed(capsys):
    for arg, msg in (("t*(\u0662,1)", "index entries must be integers in ASCII digits"),
                     ("t*(0,1;W)", "t-index entries must be positive")):
        assert run_cli(capsys, "eval", arg) == (2, "", f"error: {msg}: {arg!r}\n")


def test_num(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "num", "t(2)", "--prec", "53")
    assert code == 0 and out.startswith("1.2337")
    code, out, err = run_cli(capsys, "num", "z(0,2)")
    assert code == 2 and "nonzero" in err
    code, out, err = run_cli(capsys, "num", "t(2)", "--prec", "0")
    assert code == 2 and "prec" in err
    code, out, err = run_cli(capsys, "num", "t(2)", "--prec", "1001")
    assert code == 2 and "prec" in err
    with pytest.raises(SystemExit) as exc:  # the accuracy follows the precision; there is no cutoff
        main(["num", "t(2)", "--cutoff", "1000"])
    assert exc.value.code == 2 and "--cutoff" in capsys.readouterr().err
    for name in ("MTV_CUTOFF", "MTV_PREC"):  # the precision is set by --prec alone
        with monkeypatch.context() as m:
            m.setenv(name, "64")
            for argv in (["num", "t(2)"], ["verify", "--suite", "counting"], ["identity", "t2212", "--a", "1", "--b", "1"]):
                code, out, err = run_cli(capsys, *argv)
                assert code == 2 and out == "" and err.count("\n") == 1, argv
                assert err.startswith(f"error: {name} is not supported"), err
            code, out, _ = run_cli(capsys, "singular-lambda", "--N", "5")  # no numerics, nothing to refuse
            assert code == 0


def test_num_prints_certified_digits(capsys):
    mp = mpmath.mp.clone()
    mp.prec = 200
    t212 = -mp.mpf(7) / 128 * mp.pi ** 2 * mp.zeta(3) + mp.mpf(93) / 128 * mp.zeta(5)
    cases = [
        (("t(2,1,2)", "--prec", "53"), t212),
        (("t(2,1,2)",), t212),
        (("t(1,2)", "--prec", "64"), -mp.mpf(7) / 16 * mp.zeta(3) + mp.pi ** 2 / 8 * mp.log(2)),
        (("z(-1)", "--prec", "53"), -mp.log(2)),
    ]
    for args, true in cases:
        code, out, _ = run_cli(capsys, "num", *args)
        value, bound = out.split(" +- ")
        decimals = len(value.split(".")[1])
        assert code == 0 and 10 ** -decimals <= float(bound) < 2 * 10 ** (1 - decimals), out
        assert abs(mp.mpf(value) - true) <= mp.mpf(bound), out
    code, out, _ = run_cli(capsys, "num", "t(2,1,2)")
    assert float(out.split(" +- ")[1]) <= 1e-35


def test_num_of_weight_1000(capsys):
    # t(1000) = (1 - 2^-1000) zeta(1000) lies within the printed bound of 1;
    # every prefix stops at prec + 10 terms, so no bound overflows to NaN
    code, out, err = run_cli(capsys, "num", "t(1000)")
    value, bound = out.split(" +- ")
    assert code == 0 and err == "" and 0 < float(bound) < 1e-35, out
    mp = mpmath.mp.clone()
    mp.prec = 1100
    assert abs(mp.mpf(value) - (1 - mp.mpf(2) ** -1000) * mp.zeta(1000)) <= mp.mpf(bound), out


@pytest.mark.parametrize("index", ["t(1001)", "t(1000,1)", "z(-1,1000)", "z_1(1000)"])
def test_num_refuses_a_weight_above_1000_before_any_series(capsys, monkeypatch, index):
    from mtv import cli

    def evaluated(*args):
        raise AssertionError(f"{index} was evaluated")

    monkeypatch.setattr(cli, "t_num", evaluated)
    monkeypatch.setattr(cli, "altz_num", evaluated)
    code, out, err = run_cli(capsys, "num", index)
    assert (code, out) == (2, "") and err == "error: num takes an index of weight at most 1000, got weight 1001\n"


def test_num_reports_a_nan_bound_as_a_broken_invariant(capsys, monkeypatch):
    from mtv import numoracle

    monkeypatch.setattr(numoracle, "_tail_bound", lambda n0: math.nan)
    code, out, err = run_cli(capsys, "num", "t(2)")
    assert (code, out) == (3, "") and err.startswith("error: ") and "got nan" in err and "Traceback" not in err


def test_coeff(capsys):
    code, out, _ = run_cli(capsys, "coeff", "c", "2a1", "--a", "2")
    assert code == 0 and out.strip() == "2"
    for args in (("c", "2a1", "--a", "-1"), ("d", "2a12b", "--a", "1", "--b", "-2")):
        code, out, err = run_cli(capsys, "coeff", *args)
        assert code == 2 and "non-negative" in err


def test_verify_counting(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counting")
    assert code == 0 and "0 failures" in out


def test_verify_json_requires_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "", "--format", "json")
    assert code == 2 and out == "" and "unknown suite ''" in err


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "counting", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0 and data["checks"]
    assert all(item["status"] == "PASS" for item in data["checks"])


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


@pytest.mark.parametrize("argv", [
    # an option the command would ignore, or a command that is gone
    ["report", "--suite", "golden"],
    ["num", "t(2)", "--format", "json"],
    ["det", "--kind", "H", "--N", "3", "--level", "1", "--format", "json"],
    ["verify", "--identity", "t2212", "--a", "1"],
    ["verify", "--suite", "golden", "--a", "3"],
    ["enumerate", "--kind", "H", "--N", "4", "--bprime"],
    ["coeff", "c", "2a1", "--a", "1", "--b", "7"],
    ["coeff", "c", "2a1", "--a", "1", "--b", "0"],
    ["det", "--kind", "Hstar", "--N", "8", "--level", "2", "--structure"],
    ["identity", "t2232", "--a", "-1", "--b", "-1"],
    # a constant is not a regularisation parameter
    *[["reg", "--scheme", "stuffle", "--param", const, "t(1)"] for const in ("pi2", "lam", "log2", "z3")],
    *[["eval", f"t*(2,1;{const})"] for const in ("pi2", "lam", "z3")],
    # index entries are ASCII digits
    ["num", "t(\u0663)"],
    ["num", "z(\u0663)"],
    ["num", "z_\u0663(2)"],
    ["stuffle", "t(\u0662)", "t(1)"],
    ["eval", "t*(\u0662,1)"],
])
def test_refused_input_exits_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the arguments
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and "error: " in out.err and "Traceback" not in out.err, out


def test_broken_invariant_exit_code(capsys, monkeypatch):
    # a stuffle product that miscounts breaks the regularization's peeling
    # invariant; the CLI reports it with its own exit code, not a traceback
    from mtv import regularize

    monkeypatch.setattr(regularize, "_st_cache", {})
    monkeypatch.setattr(regularize, "_word_cache", {})
    monkeypatch.setattr(regularize, "_stuffle_parts", lambda u, v: ((u + v, 2),))
    code, out, err = run_cli(capsys, "reg", "--scheme", "stuffle", "z(2,1)")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "occurs 2 times" in err and "Traceback" not in err


def test_other_runtime_errors_are_not_invariant_failures(capsys, monkeypatch):
    # only InvariantError maps to exit 3; a RecursionError is a crash, not a verdict
    from mtv import cli

    def recurse(N):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "singular_lambda", recurse)
    with pytest.raises(RecursionError):
        main(["singular-lambda", "--N", "5"])


def test_closed_stdout_exits_141_without_a_traceback(capsys, monkeypatch, tmp_path):
    # `mtv enumerate ... | head -n 1`: the reader closes the pipe early
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as f:
        monkeypatch.setattr("sys.stdout", ClosedPipe(f.fileno()))
        assert main(["enumerate", "--kind", "H", "--N", "20"]) == 141
        # what is still buffered goes to the null device, not to the closed pipe
        assert os.path.samestat(os.fstat(f.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_invertibility_names_its_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "invertibility")
    assert code == 0 and "0 failures" in out
    lines = _verdicts(out)
    for ref in ("invertibility-S", "invertibility-H", "invertibility-Hstar", "Hstar-from-definition"):
        assert lines[ref].startswith("PASS") and lines[ref].endswith("weight <= 14"), lines[ref]


def test_settings_a_suite_would_ignore_are_refused(capsys):
    # every suite's bounds are fixed, so there is no --max-weight
    for suite in ("coherence", "counting"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, "--max-weight", "6"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "unrecognized arguments: --max-weight 6" in err, err
    # the exact suites take no precision; "all" and the numeric suites do
    for fmt in ("text", "json"):
        for suite in ("counting", "golden", "invertibility"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--prec", "53", "--format", fmt)
            assert code == 2 and out == "" and err == f"error: the {suite} suite is exact and takes no precision\n"


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


def test_verify_runs_every_numeric_suite_in_one_default_env(monkeypatch):
    made, init = [], NumEnv.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NumEnv, "__init__", counted)
    assert all(r.status == "PASS" for r in verify.run_suite("all"))
    assert len(made) == 1 and made[0].prec == NumEnv().prec == 128


def test_verify_without_prec_prints_what_prec_128_prints(capsys):
    code, default, _ = run_cli(capsys, "verify", "--suite", "closedform")
    assert code == 0 and run_cli(capsys, "verify", "--suite", "closedform", "--prec", "128")[1] == default


def test_coherence_with_nothing_to_settle_passes():
    results = {r.ref: r for r in coherence_checks(NumEnv(), max_weight=0)}
    assert all(r.status == "PASS" for r in results.values())
    for ref in ("st-vs-sh", "st-via-sh0", "t-star-vs-sh", "distribution"):
        assert results[ref].residual == results[ref].bound == 0.0


@pytest.mark.parametrize("prec, verdict", [("53", "PASS"), ("8", "FAIL"), ("64", "PASS")])
def test_verify_identity_line(capsys, prec, verdict):
    code, out, _ = run_cli(capsys, "identity", "t2212", "--a", "1", "--b", "1", "--prec", prec)
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
              _flags(True, prec=st.integers(-1, 80).map(str))),
    st.tuples(st.just(["eval"]), _index_text().map(lambda t: [t])),
    st.tuples(st.just(["reg"]), _index_text().map(lambda t: [t]),
              _flags(scheme=st.sampled_from(["stuffle", "shuffle"])),
              _flags(True, param=st.sampled_from(["T", "0", "V", ""]))),
    st.tuples(st.sampled_from([["stuffle"], ["shuffle"]]),
              st.lists(st.one_of(_index_text(), _word_text), min_size=2, max_size=2)),
    st.tuples(st.just(["dr"]), _index_text().map(lambda t: [t]), _flags(r=_small)),
    st.tuples(st.just(["identity"]), st.sampled_from(["t2212", "t2232", "t22"]).map(lambda i: [i]),
              _flags(a=st.integers(-1, 3).map(str), b=st.integers(-1, 3).map(str)),
              _flags(True, prec=st.integers(-1, 80).map(str))),
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
    if code:  # exit 1 is a FAIL verdict, printed on stdout; 2 and 3 are errors on stderr
        assert (out if code == 1 else err).getvalue().strip(), argv
    assert "Traceback" not in err.getvalue() + out.getvalue(), argv


# ---------------------------------------------------------------------------
# every option a subcommand defines is read by its handler
# ---------------------------------------------------------------------------

class _ReadRecorder(argparse.Namespace):
    """A namespace that records which attributes are read."""

    def __init__(self, **kwargs):
        super().__init__(_read=set(), **kwargs)

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


# one valid argument list per subcommand that gives every option it defines;
# det needs two, since --lam applies to Hstar only and --structure to S and H only
EVERY_OPTION = {
    "eval": [["t*(2,1;V)", "--format", "json"]],
    "reg": [["--scheme", "stuffle", "--param", "U", "z(2,1)", "--format", "json"]],
    "stuffle": [["z(2)", "z(1,2)", "--format", "json"]],
    "shuffle": [["10", "10", "--format", "json"]],
    "dr": [["--r", "3", "t(2,1,2)", "--format", "json"]],
    "matrix": [["--kind", "S", "--N", "6", "--level", "2", "--format", "json"]],
    "det": [["--kind", "Hstar", "--N", "5", "--level", "1", "--lam", "1/2"],
            ["--kind", "H", "--N", "6", "--level", "2", "--structure"]],
    "singular-lambda": [["--N", "7"]],
    "enumerate": [["--kind", "S", "--N", "8", "--level", "2", "--bprime", "--format", "json"]],
    "num": [["t(2)", "--prec", "53"]],
    "coeff": [["d", "2a12b", "--a", "1", "--b", "1"]],
    "verify": [["--suite", "closedform", "--prec", "53", "--format", "json"]],
    "identity": [["t2212", "--a", "1", "--b", "1", "--prec", "53"]],
}


def test_every_option_is_read(capsys):
    parser = build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(EVERY_OPTION)
    unread, total = {}, 0
    for command, argvs in EVERY_OPTION.items():
        options = [a for a in subparsers.choices[command]._actions if not isinstance(a, argparse._HelpAction)]
        total += len(options)
        given = {word for argv in argvs for word in argv}
        assert all(set(a.option_strings) & given for a in options if a.option_strings), command
        read = set()
        for argv in argvs:
            args = _ReadRecorder(**vars(parser.parse_args([command, *argv])))
            assert args.fn(args) == 0, argv
            read |= args._read
        unread[command] = sorted({a.dest for a in options} - read)
    capsys.readouterr()
    assert {c: dests for c, dests in unread.items() if dests} == {}
    assert total == 43
