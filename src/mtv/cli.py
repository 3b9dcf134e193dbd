"""Command-line interface.

Subcommands: eval, reg, stuffle, shuffle, dr, matrix, det,
singular-lambda, enumerate, num, coeff, verify, identity.  Results go to stdout,
diagnostics to stderr; exit code 0 on success or verification pass, 1
on verification failure, 2 on usage errors, 3 when an internal
invariant of the computation breaks, 141 when the reader of stdout
closed it early (as `mtv enumerate ... | head` does).
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import re
import sys
from fractions import Fraction

import mpmath

from . import verify as verify_mod
from .closedform import coeff_c_21, coeff_c_231, coeff_d_121, coeff_d_232, eval_t22, eval_t2212_star, eval_t2232
from .errors import InvariantError
from .indexcore import (
    SignedIndex,
    basis_sets,
    enumerate_hoffman,
    enumerate_saha,
    format_signed,
    format_word,
    parse_argument,
    split_2a_x_2b,
    t_entries,
)
from .motivic import IrreducibleLeftFactor, build_matrix, det_mod2_structure, deriv_D, reduce_deriv, singular_lambda
from .numoracle import NumEnv, altz_num, t_num
from .regularize import shuffle_reg, stuffle_reg
from .symring import PARAMS, SymPoly
from .wordalg import stuffle, shuffle as shuffle_product


def _rational(text: str) -> Fraction:
    """argparse type of --lam, so a bad value exits 2 before any matrix is built."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational such as 1/2, got {text!r}") from None


def _env_from_args(args) -> NumEnv:
    return NumEnv() if args.prec is None else NumEnv(prec=args.prec)


def _print_lincomb(lc: dict, fmt: str):
    if fmt == "json":
        out = {}
        for key in sorted(lc, key=lambda s: (s.weight, s.parts)):
            out[format_signed(key)] = SymPoly.coerce(lc[key]).to_json()
        print(json.dumps(out, indent=1))
        return
    if not lc:
        print("0")
        return
    for key in sorted(lc, key=lambda s: (s.weight, s.parts)):
        coeff = SymPoly.coerce(lc[key])
        print(f"({coeff.text()}) * {format_signed(key)}")


def cmd_eval(args) -> int:
    text = args.expr.strip()
    m = re.fullmatch(r"t\*\(([^;)]*)(?:;\s*(\w+))?\)", text)
    if m:
        parts = t_entries(m.group(1), args.expr)
        name = m.group(2) or "V"
        if name not in PARAMS:
            raise ValueError(f"a regularisation parameter is one of {', '.join(PARAMS)}; got {name!r}")
        param = SymPoly.gen(name)
        ab = split_2a_x_2b(parts, 1)
        if ab is None:
            raise ValueError(f"expected a {{2}}^a,1,{{2}}^b pattern, got {parts}")
        value = eval_t2212_star(*ab, param)
        print(json.dumps(value.to_json()) if args.format == "json" else value.text())
        return 0
    idx = parse_argument(text)
    if isinstance(idx, SignedIndex):
        raise ValueError("only t-indices have closed forms here; use `mtv num` for values")
    value = _closed_form_t(idx)
    if value is None:
        raise ValueError(f"no closed form for {text}")
    print(json.dumps(value.to_json()) if args.format == "json" else value.text())
    return 0


def _closed_form_t(idx):
    if all(x == 2 for x in idx):
        return eval_t22(len(idx))
    ab = split_2a_x_2b(idx, 1)
    if ab is not None:
        if ab[1] >= 1:
            return eval_t2212_star(*ab, SymPoly.zero())
        return None  # divergent without a parameter; use t*( ;V)
    ab = split_2a_x_2b(idx, 3)
    return None if ab is None else eval_t2232(*ab)


def _zeta_index(text: str) -> SignedIndex:
    """The z(...) argument of reg or stuffle; a t(...) or digit-string
    index names a t value, a different number, so it is refused."""
    idx = parse_argument(text)
    if not isinstance(idx, SignedIndex):
        raise ValueError(f"expected a signed zeta index z(...), got the t index {text!r}")
    return idx


def cmd_reg(args) -> int:
    s = _zeta_index(args.index)
    param = SymPoly.zero() if args.param == "0" else SymPoly.gen(args.param)
    out = stuffle_reg(s, param) if args.scheme == "stuffle" else shuffle_reg(s, param)
    _print_lincomb(out, args.format)
    return 0


def cmd_stuffle(args) -> int:
    _print_lincomb(stuffle(_zeta_index(args.left), _zeta_index(args.right)), args.format)
    return 0


def _parse_word(text: str) -> tuple:
    """A word over {0, 1, -1}: a digit string ("10") or comma-separated letters ("1,-1")."""
    text = text.replace(" ", "")
    letters = text.split(",") if "," in text or text.startswith("-") else list(text)
    try:
        word = tuple(int(x) for x in letters)
    except ValueError:
        word = None
    if word is None or any(x not in (0, 1, -1) for x in word):
        raise ValueError(f"a word is a string of 0s and 1s or comma-separated letters 0, 1, -1; got {text!r}")
    return word


def _format_word(w: tuple) -> str:
    """The inverse of _parse_word: digits run together over {0, 1}, the
    comma form once a -1 letter occurs."""
    return ",".join(map(str, w)) if -1 in w else "".join(map(str, w))


def cmd_shuffle(args) -> int:
    out = shuffle_product(_parse_word(args.left), _parse_word(args.right))
    if args.format == "json":
        print(json.dumps({_format_word(w): str(c) for w, c in sorted(out.items())}, indent=1))
    else:
        for w, c in sorted(out.items()):
            print(f"{c} * {_format_word(w)}")
    return 0


def cmd_dr(args) -> int:
    idx = parse_argument(args.index)
    if isinstance(idx, SignedIndex):
        raise ValueError("the derivation acts on t-indices")
    try:
        terms = reduce_deriv(deriv_D(args.r, tuple(idx)))
    except IrreducibleLeftFactor as exc:
        raise ValueError(f"no closed form reduces the left factor ({exc})") from None
    rows = []
    for (gen, right), coeff in sorted(terms.items(), key=lambda kv: (kv[0][1], str(kv[0][0]))):
        gen_text = "log2" if gen == ("log",) else f"z{gen[1]}"
        right_text = "1" if right == () else "t~(" + ",".join(map(str, right)) + ")"
        rows.append({"coeff": str(coeff), "left": gen_text, "right": right_text})
    if args.format == "json":
        print(json.dumps(rows, indent=1))
    else:
        if not rows:
            print("0")
        for r in rows:
            print(f"({r['coeff']}) * {r['left']} (x) {r['right']}")
    return 0


def cmd_matrix(args) -> int:
    m = build_matrix(args.kind, args.N, args.level)
    if args.format == "json":
        print(json.dumps(m.to_json(), indent=1))
    else:
        head = [""] + ["".join(map(str, w)) if w else "(empty)" for w in m.cols]
        body = [["".join(map(str, w))] + [str(x) for x in row] for w, row in zip(m.rows, m.entries)]
        widths = [max(map(len, col)) for col in zip(head, *body)]
        for cells in [head] + body:
            print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return 0


def cmd_det(args) -> int:
    if args.lam is not None and args.kind != "Hstar":
        raise ValueError(f"--lam applies only to --kind Hstar, whose determinant is parametric; got --kind {args.kind}")
    if args.structure and args.kind not in ("S", "H"):
        raise ValueError(f"structure report is defined for kinds S and H, got --kind {args.kind}")
    m = build_matrix(args.kind, args.N, args.level)
    rep = det_mod2_structure(m) if args.structure else None
    det = m.det()
    if args.lam is not None:  # kind Hstar: a SymPoly affine in lam
        det = det.substitute({"lam": SymPoly.const(args.lam)}).const_value()
    print(det)
    if rep is not None:
        for note in rep.notes:
            print(f"note: {note}")
        print("structure:", "ok" if rep.ok else "FAILED")
        return 0 if rep.ok else 1
    return 0


def cmd_singular_lambda(args) -> int:
    print(singular_lambda(args.N))
    return 0


def cmd_enumerate(args) -> int:
    if args.bprime and args.level is None:
        raise ValueError("--bprime lists the lower-level basis of one level; give --level")
    if args.level is not None:
        B, Bp = basis_sets(args.kind, args.N, args.level)
        words = Bp if args.bprime else B
    else:
        words = enumerate_saha(args.N) if args.kind == "S" else enumerate_hoffman(args.N)
    if args.format == "json":
        print(json.dumps(["".join(map(str, w)) for w in words]))
    else:
        for w in words:
            print(format_word(w))
    return 0


NUM_MAX_WEIGHT = 1000  # a half word's prefix trie holds 2 w (prec + 10) integers


def cmd_num(args) -> int:
    env = _env_from_args(args)
    idx = parse_argument(args.index)
    weight = idx.weight if isinstance(idx, SignedIndex) else sum(idx)
    if weight > NUM_MAX_WEIGHT:
        raise ValueError(f"num takes an index of weight at most {NUM_MAX_WEIGHT}, got weight {weight}")
    if isinstance(idx, SignedIndex):
        v = altz_num(idx, env)
    else:
        v = t_num(tuple(idx), env)
    print(_certified_digits(v))
    return 0


def _certified_digits(v) -> str:
    """The value rounded to the decimal place of the bound's leading digit,
    and the bound widened by that rounding and rounded up, so the printed
    interval contains every value the bound allows."""
    if not v.err:
        return f"{v.val} +- 0"
    val = Fraction(int(mpmath.sign(v.val)) * v.val.man) * Fraction(2) ** v.val.exp  # exact; mpf() would round
    place = math.floor(math.log10(v.err))
    q = round(val / Fraction(10) ** place)
    bound = Fraction(v.err) + abs(q * Fraction(10) ** place - val)
    up = decimal.Context(prec=4, rounding=decimal.ROUND_CEILING).divide(bound.numerator, bound.denominator)
    return f"{decimal.Decimal(f'{q}e{place}'):f} +- {float(up):.3e}"


def cmd_coeff(args) -> int:
    table = {
        ("c", "2a1"): lambda a, b: coeff_c_21(a),
        ("c", "2a32b"): coeff_c_231,
        ("d", "2a12b"): coeff_d_121,
        ("d", "2a32b"): coeff_d_232,
    }
    fn = table.get((args.family, args.pattern))
    if fn is None:
        raise ValueError(f"no coefficient family {args.family} {args.pattern}")
    if args.b is not None and "b" not in args.pattern:
        raise ValueError(f"the pattern {args.pattern} has no b, so --b is refused")
    b = args.b or 0
    if args.a < 0 or b < 0:
        raise ValueError(f"--a and --b must be non-negative, got {args.a} and {b}")
    print(fn(args.a, b))
    return 0


def cmd_verify(args) -> int:
    # without --prec run_suite builds one default environment for the run
    env = None if args.prec is None else _env_from_args(args)
    results = verify_mod.run_suite(args.suite, env=env)
    failures = verify_mod.print_results(results, fmt=args.format)
    return 0 if failures == 0 else 1


def cmd_identity(args) -> int:
    [(closed, direct)] = verify_mod.identity_pairs([(args.identity, args.a, args.b)], _env_from_args(args))
    r = verify_mod._certified_check(args.identity, args.identity, [closed - direct])
    print(f"value {float(direct.val):.12f}  closed {float(closed.val):.12f}  "
          f"residual {r.residual:.3e}  bound {r.bound:.3e}  {r.status}")
    return 0 if r.status == "PASS" else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mtv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # only the commands that print both formats take --format, only the numeric ones --prec
    def formats(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    def precision(sp):
        sp.add_argument("--prec", type=int, default=None)

    sp = sub.add_parser("eval", help="closed-form evaluation of a t index")
    sp.add_argument("expr")
    formats(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("reg", help="regularize an index")
    sp.add_argument("--scheme", choices=("stuffle", "shuffle"), required=True)
    sp.add_argument("--param", choices=PARAMS + ("0",), default="T")
    sp.add_argument("index")
    formats(sp)
    sp.set_defaults(fn=cmd_reg)

    sp = sub.add_parser("stuffle", help="stuffle product of two indices")
    sp.add_argument("left")
    sp.add_argument("right")
    formats(sp)
    sp.set_defaults(fn=cmd_stuffle)

    sp = sub.add_parser("shuffle", help="shuffle product of two words over 0/1/-1 digits")
    # an argument such as "-1,0" is a word that begins with the letter -1, not an option
    sp._negative_number_matcher = re.compile(r"-\d")
    sp.add_argument("left")
    sp.add_argument("right")
    formats(sp)
    sp.set_defaults(fn=cmd_shuffle)

    sp = sub.add_parser("dr", help="derivation of odd weight r on a t index")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("index")
    formats(sp)
    sp.set_defaults(fn=cmd_dr)

    sp = sub.add_parser("matrix", help="graded derivation matrix")
    sp.add_argument("--kind", choices=("S", "H", "Hstar"), required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    formats(sp)
    sp.set_defaults(fn=cmd_matrix)

    sp = sub.add_parser("det", help="determinant of a graded derivation matrix")
    sp.add_argument("--kind", choices=("S", "H", "Hstar"), required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--lam", type=_rational, default=None, help="evaluate the parametric Hstar determinant at this rational")
    sp.add_argument("--structure", action="store_true", help="also verify the parity structure")
    sp.set_defaults(fn=cmd_det)

    sp = sub.add_parser("singular-lambda", help="degeneration point of the parametric level-1 matrix")
    sp.add_argument("--N", type=int, required=True)
    sp.set_defaults(fn=cmd_singular_lambda)

    sp = sub.add_parser("enumerate", help="basis words by weight (and level)")
    sp.add_argument("--kind", choices=("S", "H"), required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--level", type=int, default=None)
    sp.add_argument("--bprime", action="store_true", help="list the lower-level basis instead")
    formats(sp)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("num", help="numerical value of a t index or signed zeta index")
    sp.add_argument("index")
    precision(sp)
    sp.set_defaults(fn=cmd_num)

    sp = sub.add_parser("coeff", help="rational coefficient tables")
    sp.add_argument("family", choices=("c", "d"))
    sp.add_argument("pattern", choices=("2a1", "2a32b", "2a12b"))
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, default=None, help="not taken by the pattern 2a1")
    sp.set_defaults(fn=cmd_coeff)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", default="all")
    formats(sp)
    precision(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("identity", help="check one closed form against its certified value")
    sp.add_argument("identity", choices=("t2212", "t2232"))
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    precision(sp)
    sp.set_defaults(fn=cmd_identity)

    return p


# refused when set, because nothing reads them: a user's setting is never silently ignored
UNSUPPORTED_ENV = {
    "MTV_CUTOFF": "the accuracy follows the precision (--prec)",
    "MTV_PREC": "set the precision with --prec",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "prec"):
        for name, reason in UNSUPPORTED_ENV.items():
            if name in os.environ:
                print(f"error: {name} is not supported: {reason}", file=sys.stderr)
                return 2
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader has gone: what stdout still buffers goes to the null
        # device, so the flush at exit cannot fail again; 141 = 128 + SIGPIPE,
        # the status of a writer that a closed pipe kills
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 141


if __name__ == "__main__":
    sys.exit(main())
