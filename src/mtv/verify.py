"""Verification suites: every quantitative claim in the package, runnable
as a batch with one pass/fail line per check.

Suites: counting, golden, invertibility, closedform, genseries,
coherence, derivation; "all" runs everything.  Residual-bearing checks
report the measured residual and the certified bound they were held to.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .closedform import coeff_c_21, coeff_c_231, coeff_d_121, eval_t12n, eval_t22, eval_t2212_star, eval_t2232
from .errors import InvariantError
from .indexcore import SignedIndex, basis_sets, compositions, enumerate_hoffman, enumerate_saha, fibonacci, signed_indices
from .motivic import (
    build_matrix,
    d1_project,
    deriv_D,
    det_mod2_structure,
    graded_partial,
    mot_mono,
    reduce_deriv,
    singular_lambda,
)
from .numoracle import (
    MPFloat,
    NumEnv,
    _t2212_star,
    altz_num,
    eval_num,
    genseries_residual,
    lincomb_num,
    rational_num,
    t_num,
)
from .regularize import (
    _exp_series,
    distribution_residual,
    rho_apply,
    sh_from_st,
    shift_param,
    shuffle_reg,
    st_via_sh0,
    stuffle_reg,
    t_st_from_sh,
    t_stuffle_reg,
    zeta_ones,
)
from .symring import PARAMS, SymPoly, lc_iadd, lc_is_zero, lc_scale, lc_sub
from .wordalg import stuffle, stuffle_compat_check, stuffle_lincomb

BOUND_CAP = 1e-6  # a certified bound above this decides nothing


@dataclass
class CheckResult:
    name: str
    ref: str
    status: str  # PASS or FAIL
    detail: str = ""
    residual: float | None = None
    bound: float | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "ref": self.ref, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.residual is not None:
            out["residual"] = self.residual
            out["bound"] = self.bound
        return out


def _check(name, ref, ok, detail="", residual=None, bound=None) -> CheckResult:
    return CheckResult(name, ref, "PASS" if ok else "FAIL", detail, residual, bound)


def _certified_check(name: str, ref: str, diffs: list) -> CheckResult:
    """The one numeric verdict: PASS iff every difference is within its
    certified bound and every bound is at most BOUND_CAP; reports the worst
    residual and the worst bound (both 0 when there is nothing to settle)."""
    resids = [abs(float(d.val)) for d in diffs]
    ok = all(r <= d.err <= BOUND_CAP for r, d in zip(resids, diffs))
    return _check(name, ref, ok, residual=max(resids, default=0.0),
                  bound=max((d.err for d in diffs), default=0.0))


def _load_golden(name: str) -> dict:
    with resources.files("mtv.data").joinpath(name).open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def counting_checks() -> list:
    out = []
    ok = all(len(enumerate_saha(N)) == fibonacci(N) for N in range(2, 21))
    out.append(_check("saha set sizes are Fibonacci numbers", "count-saha", ok))
    ok = all(len(enumerate_hoffman(N)) == fibonacci(N + 1) for N in range(1, 21))
    out.append(_check("one-two set sizes are Fibonacci numbers", "count-hoffman", ok))
    ok = True
    for kind in ("S", "H"):
        for N in range(2 if kind == "S" else 1, 17):
            for ell in range(2 - N % 2, N + 1, 2):
                B, Bp = basis_sets(kind, N, ell)
                if len(B) != len(Bp):
                    ok = False
    out.append(_check("matrix bases are square", "count-bases", ok))
    return out


def golden_checks() -> list:
    out = []
    for kind, fname in (("S", "golden_matrix_S_8_2.json"), ("H", "golden_matrix_H_8_2.json"),
                        ("Hstar", "golden_matrix_Hstar_8_2.json")):
        golden = _load_golden(fname)
        m = build_matrix(kind, 8, 2).to_json()
        ok = (m["rows"] == golden["rows"] and m["cols"] == golden["cols"]
              and m["entries"] == golden["entries"])
        out.append(_check(f"matrix {kind} weight 8 level 2 matches the stored table",
                          f"matrix-{kind}-8-2", ok))
    golden = _load_golden("golden_singular_lambda.json")
    for N_str, val in golden.items():
        N = int(N_str)
        got = singular_lambda(N)
        out.append(_check(f"singular parameter at weight {N} is {val}",
                          f"singular-lambda-{N}", got == Fraction(val), detail=str(got)))
    return out


def invertibility_checks() -> list:
    max_n = 14
    failed = {"S": [], "H": []}
    star_ok = True
    mismatched = []
    for N in range(1, max_n + 1):
        for ell in range(2 - N % 2, N + 1, 2):
            for kind in ("S", "H"):
                if basis_sets(kind, N, ell)[0] and not (rep := det_mod2_structure(build_matrix(kind, N, ell))).ok:
                    failed[kind].append(f"{kind},{N},{ell}: {rep.notes}")
            star = build_matrix("Hstar", N, ell)
            det = star.det()
            star_ok &= all(det.substitute({"lam": SymPoly.const(lam)}).const_value() != 0
                           for lam in (Fraction(1, 2), Fraction(1)))
            # the reference: every row built through deriv_D_star
            if any(graded_partial("Hstar", N, ell, w) != {star.cols[j]: x for j, x in row.items()}
                   for w, row in zip(star.rows, star.nonzero)):
                mismatched.append(f"{N},{ell}")
    return [_check(f"kind {kind}: nonzero determinants and parity structure, weight <= {max_n}",
                   f"invertibility-{kind}", not failed[kind], detail="; ".join(failed[kind]))
            for kind in ("S", "H")] + [
        _check(f"parametric matrices invertible at lam = 1/2 and 1, weight <= {max_n}",
               "invertibility-Hstar", star_ok),
        _check(f"parametric matrix derived from the plain one equals its definition, weight <= {max_n}",
               "Hstar-from-definition", not mismatched, detail="; ".join(mismatched)),
    ]


def closedform_checks(env) -> list:
    out = []
    ok = all((eval_t2212_star(0, n) - eval_t12n(n)).is_zero for n in range(1, 9))
    out.append(_check("one-leading-two-tail family agrees with the boundary formula",
                      "t12n-vs-t2212", ok))
    ok = True
    for a in range(0, 4):
        for b in range(0, 4):
            dv = eval_t2212_star(a, b).deriv("V")
            expect = eval_t22(a) if b == 0 else SymPoly.zero()
            if not (dv - expect).is_zero:
                ok = False
    out.append(_check("parameter derivative picks out the boundary term", "t2212-dV", ok))
    ok = True
    for a in range(1, 9):
        v = Fraction(2 ** (2 * a - 1)) * coeff_c_21(a)
        if v != (-1) ** a * 2 ** (2 * a):  # scaled c-entries are even
            ok = False
        w = Fraction(2 ** (2 * a - 1)) * coeff_d_121(a, 0)
        if w != (-1) ** a * (2 ** (2 * a + 1) - 1):  # scaled diagonal d-entries are odd
            ok = False
    for a in range(0, 5):
        for b in range(0, 5):
            v = Fraction(2 ** (2 * a + 2 * b + 1)) * coeff_c_231(a, b)
            if v.denominator != 1 or v.numerator % 2 != 0:
                ok = False
            if a + b > 0:
                w = Fraction(2 ** (2 * a + 2 * b - 1)) * coeff_d_121(a, b)
                if w != (-1) ** (a + b) * (2 ** (2 * a + 2 * b + 1) - 1) * math.comb(2 * a + 2 * b, 2 * a):
                    ok = False
    out.append(_check("coefficient tables have the required parities", "coeff-parity", ok))

    families = (("t2212", "one-insertion"), ("t2232", "three-insertion"))
    cases = [(identity, a, b) for identity, _ in families for a in range(0, 4) for b in range(0, 4 - a)]
    diffs = [closed - direct for closed, direct in identity_pairs(cases, env)]
    for identity, name in families:
        out.append(_certified_check(f"{name} closed form matches the oracle (a+b <= 3)", f"{identity}-oracle",
                                    [d for d, case in zip(diffs, cases) if case[0] == identity]))
    return out


def identity_pairs(cases, env) -> list:
    """(closed form, oracle value) for each (identity, a, b) case: of
    t*({2}^a,1,{2}^b) at V = log 2 ("t2212") or of t({2}^a,3,{2}^b)
    ("t2232")."""
    log2 = env.const("log2")
    out = []
    for identity, a, b in cases:
        if identity == "t2212":
            out.append((eval_num(eval_t2212_star(a, b), env, {"V": log2}), _t2212_star(a, b, log2, env)))
        elif identity == "t2232":
            out.append((eval_num(eval_t2232(a, b), env), t_num((2,) * a + (3,) + (2,) * b, env)))
        else:
            raise ValueError(f"unknown identity {identity!r}; choose t2212 or t2232")
    return out


def genseries_checks(env) -> list:
    out = []
    log2 = float(env.const("log2"))
    points = [
        (0.1, 0.07, 0.0),
        (0.05, 0.05, log2),
        (0.15, 0.02, 0.25),
        (0.0, 0.12, 1.0),
    ]
    for x, y, v in points:
        r = genseries_residual(x, y, v, 8, env)
        out.append(_certified_check(f"generating series at x={x}, y={y}, V={v:.4f}",
                                    f"genseries-{x}-{y}", [r]))
    return out


def _layer_values(diff: dict, env) -> list:
    """Split a {SignedIndex: SymPoly} combination by the powers of the one
    parameter it carries and evaluate each nonzero layer, every one of
    which must vanish: one lincomb_num value per layer, no verdict."""
    carried = {g for c in diff.values() for g in c.generators() if g in PARAMS}
    if len(carried) > 1:
        raise InvariantError(f"a combination settled by layers carries one parameter, not {sorted(carried)}")
    param = carried.pop() if carried else PARAMS[0]  # with none carried, any name gives one layer
    out = []
    for k in range(max((c.max_degree(param) for c in diff.values()), default=-1) + 1):
        layer = {key: q for key, c in diff.items() if (q := c.coeff_of_power(param, k))}
        if layer:
            out.append(lincomb_num(layer, env))
    return out


def coherence_checks(env, max_weight=6) -> list:
    out = []
    T = SymPoly.gen("T")

    ok = all(
        (rho_apply(zeta_ones(i, T)) - SymPoly.gen("T", i, Fraction(1, math.factorial(i)))).is_zero
        for i in range(9)
    )
    out.append(_check("comparison map inverts the one-run generating series",
                      "rho-zeta-ones", ok))

    # (1 + sum zeta_ones(i,T) u^i) * exp(-Tu + sum (-1)^n/n zeta(n) u^n) = 1
    order = 7
    E = _exp_series("plus", order)
    series = [SymPoly.zero()] * order
    series[0] = SymPoly.one()
    for m in range(order):
        acc = SymPoly.zero()
        for j in range(m + 1):
            acc = acc + zeta_ones(j, T) * _expT_coeff(E, m - j, T)
        series[m] = acc
    ok = series[0] == SymPoly.one() and all(series[m].is_zero for m in range(1, order))
    out.append(_check("one-run series inverts the exponential correction",
                      "series-inverse", ok))

    zero = SymPoly.zero()
    ok = all(
        lc_is_zero(lc_sub(stuffle_reg(s, zero), shift_param("stuffle", s, T, zero)))
        and lc_is_zero(lc_sub(shuffle_reg(s, T), shift_param("shuffle", s, zero, T)))
        for s in signed_indices(4)
    )
    out.append(_check("parameter shifts are exact in both schemes (weight <= 4)",
                      "shift-exact", ok))

    ok = True
    small = [s for s in signed_indices(3)]
    for a in small:
        for b in small:
            lhs: dict = {}
            for key, m_ in stuffle(a, b).items():
                lc_iadd(lhs, lc_scale(stuffle_reg(key, T), m_))
            rhs = stuffle_lincomb(stuffle_reg(a, T), stuffle_reg(b, T))
            if not lc_is_zero(lc_sub(lhs, rhs)):
                ok = False
    out.append(_check("regularized product is multiplicative (weight <= 3 pairs)",
                      "stuffle-homomorphism", ok))

    def layers(diffs):
        return [v for diff in diffs for v in _layer_values(diff, env)]

    # Two presentations of one number: settled numerically, layer by layer.
    indices = list(signed_indices(max_weight))
    out.append(_certified_check(
        f"comparison-map pipeline equals the word pipeline (weight <= {max_weight})", "st-vs-sh",
        layers(lc_sub(sh_from_st(s, "T"), shuffle_reg(s, T)) for s in indices)))
    out.append(_certified_check(
        f"trailing-one convolution matches the direct recursion (weight <= {max_weight})", "st-via-sh0",
        layers(lc_sub(stuffle_reg(s, T), st_via_sh0(s, T)) for s in indices)))
    V = SymPoly.gen("V")
    t_cap = min(max_weight, 5)
    out.append(_certified_check(
        f"t-value regularizations agree across presentations (weight <= {t_cap})", "t-star-vs-sh",
        layers(lc_sub(t_stuffle_reg(comp, V), t_st_from_sh(comp, V))
               for w in range(1, t_cap + 1) for comp in compositions(w))))
    # The unregularized cases cancel exactly; with trailing ones the relation
    # also consumes doubling identities that are not linear in the signed
    # index basis, so what remains of the canonical residual is evaluated.
    d_cap = min(max_weight, 4)
    out.append(_certified_check(
        f"regularized distribution relations (weight <= {d_cap}, alpha <= 2, l <= 1)", "distribution",
        layers(distribution_residual(k, alpha, ell)
               for k in [(2,), (3,), (4,), (1, 2), (2, 2), (1, 3), (1, 1, 2)] if sum(k) <= d_cap
               for alpha in (0, 1, 2) for ell in (0, 1))))

    ok = all(
        stuffle_compat_check(r, s)
        for w in range(1, 8)
        for wr in range(w + 1)
        for r in compositions(wr)
        for s in compositions(w - wr)
    )
    out.append(_check("index product is compatible with the signed expansion (weight <= 7)",
                      "stuffle-compat", ok))
    return out


def _expT_coeff(E, m, T):
    """Coefficient of u^m in exp(-Tu) * exp(sum (-1)^n/n zeta(n) u^n)."""
    acc = SymPoly.zero()
    for j in range(m + 1):
        acc = acc + E[m - j] * SymPoly.gen("T", j, Fraction((-1) ** j, math.factorial(j)))
    return acc


def derivation_checks(env) -> list:
    out = []

    lhs = {mot_mono(("t", (1, 3, 2))): Fraction(1)}
    rhs = {
        mot_mono(("t", (6,))): Fraction(-2, 21),
        mot_mono(("t", (3,)), ("t", (3,))): Fraction(-3, 196),
        mot_mono(("t", (2,)), ("zalt", (1, -3))): Fraction(-1, 2),
        mot_mono(("zalt", (1, -5))): Fraction(1, 4),
        mot_mono(("t", (5,)), ("log2",)): Fraction(-1, 2),
        mot_mono(("t", (2,)), ("t", (3,)), ("log2",)): Fraction(4, 7),
    }
    diff = lc_sub(lhs, rhs)
    derived = d1_project(diff)
    expected = {
        mot_mono(("t", (3, 2))): Fraction(1),
        mot_mono(("t", (5,))): Fraction(1, 2),
        mot_mono(("t", (2,)), ("t", (3,))): Fraction(-4, 7),
    }
    ok = derived == expected
    out.append(_check("logarithm derivation of the depth-three identity",
                      "hoffman-derivation-symbolic", ok))

    val_in = _mot_value(diff, env)
    val_out = _mot_value(derived, env)
    for name, ref, val in (("input identity verifies numerically", "hoffman-derivation-input", val_in),
                           ("derived identity verifies numerically", "hoffman-derivation-output", val_out)):
        out.append(_certified_check(name, ref, [val]))

    ok = True
    for total in range(0, 5):
        for a in range(1, total + 1):
            for b in range(0, total - a + 1):
                c = total - a - b
                idx = (2,) * a + (1,) + (2,) * b + (3,) + (2,) * c
                if reduce_deriv(deriv_D(1, idx)):
                    ok = False
    out.append(_check("weight-one derivation kills the mixed one-three family (a >= 1)",
                      "d1-vanishing", ok))
    return out


def _mot_value(expr: dict, env):
    """Numerical value of a combination of expression monomials."""
    total = MPFloat(0)
    for mono, c in expr.items():
        term = rational_num(c, env)
        for atom in mono:
            if atom[0] == "t":
                term = term * t_num(atom[1], env)
            elif atom[0] == "zalt":
                term = term * altz_num(SignedIndex(atom[1], 0), env)
            elif atom[0] == "log2":
                term = term * env.const_mpf("log2")
            elif atom[0] == "z":
                term = term * env.const_mpf(f"z{atom[1]}")
        total = total + term
    return total


EXACT_SUITES = {
    "counting": counting_checks,
    "golden": golden_checks,
    "invertibility": invertibility_checks,
}
NUMERIC_SUITES = {
    "closedform": closedform_checks,
    "genseries": genseries_checks,
    "coherence": coherence_checks,
    "derivation": derivation_checks,
}
SUITES = {**EXACT_SUITES, **NUMERIC_SUITES}


def run_suite(name: str, env=None) -> list:
    """The checks of one suite, or of every suite for "all".  The exact
    suites take no environment, so one given for them is refused; without
    one, every numeric suite of the run shares one default NumEnv."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if env is not None and name in EXACT_SUITES:
        raise ValueError(f"the {name} suite is exact and takes no precision")
    env = env or NumEnv()
    out = []
    for suite in SUITES if name == "all" else [name]:
        out.extend(SUITES[suite]() if suite in EXACT_SUITES else SUITES[suite](env=env))
    return out


def print_results(results, fmt: str = "text") -> int:
    failures = sum(1 for r in results if r.status == "FAIL")
    if fmt == "json":
        print(json.dumps({"checks": [r.to_json() for r in results], "failures": failures}, indent=1))
        return failures
    for r in results:
        extra = ""
        if r.residual is not None:
            extra = f"  [residual {r.residual:.3e}, bound {r.bound:.3e}]"
        print(f"{r.status}  {r.ref}: {r.name}{extra}")
    print(f"{len(results)} checks, {failures} failures")
    return failures
