"""Verification suites: every quantitative claim in the package, runnable
as a batch with one pass/fail line per check.

Suites: counting, golden, invertibility, closedform, genseries,
coherence, derivation; "all" runs everything.  Residual-bearing checks
report the measured residual and the certified bound they were held to.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .closedform import coeff_c_21, coeff_c_231, coeff_d_121, eval_t12n, eval_t22, eval_t2212_star, eval_t2232
from .indexcore import SignedIndex, basis_sets, compositions, enumerate_hoffman, enumerate_saha, fibonacci
from .motivic import (
    build_matrix,
    d1_project,
    deriv_D,
    det_mod2_structure,
    mot_mono,
    reduce_deriv,
    singular_lambda,
)
from .numoracle import (
    MPFloat,
    NumEnv,
    _t2212_star,
    _t2212_star_indices,
    altz_num_holder,
    eval_num,
    genseries_residual,
    lincomb_num,
    rational_num,
    t_num,
    t_nums,
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
from .symring import SymPoly, lc_iadd, lc_is_zero, lc_scale, lc_sub
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

def counting_checks(max_weight=20, **_) -> list:
    max_weight = max(max_weight, 20)
    out = []
    ok = all(len(enumerate_saha(N)) == fibonacci(N) for N in range(2, max_weight + 1))
    out.append(_check("saha set sizes are Fibonacci numbers", "count-saha", ok))
    ok = all(len(enumerate_hoffman(N)) == fibonacci(N + 1) for N in range(1, max_weight + 1))
    out.append(_check("one-two set sizes are Fibonacci numbers", "count-hoffman", ok))
    ok = True
    for kind in ("S", "H"):
        for N in range(1, 17):
            for ell in range(1, N + 1):
                if (N - ell) % 2:
                    continue
                if kind == "S" and N < 2:
                    continue
                B, Bp = basis_sets(kind, N, ell)
                if len(B) != len(Bp):
                    ok = False
    out.append(_check("matrix bases are square", "count-bases", ok))
    return out


def golden_checks(**_) -> list:
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


def invertibility_checks(max_n=12, **_) -> list:
    out = []
    for kind in ("S", "H"):
        all_ok = True
        detail = []
        for N in range(1, max_n + 1):
            for ell in range(1, N + 1):
                if (N - ell) % 2:
                    continue
                if kind == "S" and (N < 2 or not basis_sets("S", N, ell)[0]):
                    continue
                m = build_matrix(kind, N, ell)
                if not m.rows:
                    continue
                rep = det_mod2_structure(m)
                if not rep.ok or rep.det == 0:
                    all_ok = False
                    detail.append(f"{kind},{N},{ell}: {rep.notes}")
        out.append(_check(f"kind {kind}: nonzero determinants and parity structure, weight <= {max_n}",
                          f"invertibility-{kind}", all_ok, detail="; ".join(detail)))
    all_ok = True
    for N in range(1, max_n + 1):
        for ell in range(1, N + 1):
            if (N - ell) % 2:
                continue
            m = build_matrix("Hstar", N, ell)
            if not m.rows:
                continue
            det = m.det()
            if isinstance(det, SymPoly):
                for lam in (Fraction(1, 2), Fraction(1)):
                    if det.substitute({"lam": SymPoly.const(lam)}).const_value() == 0:
                        all_ok = False
            elif det == 0:
                all_ok = False
    out.append(_check("parametric matrices invertible at lam = 1/2 and 1",
                      "invertibility-Hstar", all_ok))
    h = build_matrix("H", 8, 2)
    hs = build_matrix("Hstar", 8, 2)
    half = SymPoly.const(Fraction(1, 2))
    same = all(
        (x.substitute({"lam": half}).const_value() if isinstance(x, SymPoly) else x) == y
        for rx, ry in zip(hs.entries, h.entries)
        for x, y in zip(rx, ry)
    )
    out.append(_check("parametric matrix at lam = 1/2 equals the plain matrix",
                      "Hstar-at-half", same))
    return out


def closedform_checks(env=None, **_) -> list:
    env = env or NumEnv(prec=53, cutoff=10 ** 6)
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
    ("t2232").  The oracle values come from one t_nums batch."""
    log2 = env.const("log2")
    closed, indices = [], []
    for identity, a, b in cases:
        if identity == "t2212":
            closed.append(eval_num(eval_t2212_star(a, b), env, {"V": log2}))
            indices.append(_t2212_star_indices(a, b))
        elif identity == "t2232":
            closed.append(eval_num(eval_t2232(a, b), env))
            indices.append([(2,) * a + (3,) + (2,) * b])
        else:
            raise ValueError(f"unknown identity {identity!r}; choose t2212 or t2232")
    batch = list(dict.fromkeys(k for ks in indices for k in ks))
    t = dict(zip(batch, t_nums(batch, env)))
    return [(c, _t2212_star(b, log2, [t[k] for k in ks]) if identity == "t2212" else t[ks[0]])
            for c, ks, (identity, a, b) in zip(closed, indices, cases)]


def genseries_checks(env=None, **_) -> list:
    env = env or NumEnv(prec=53, cutoff=10 ** 6)
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


def _signed_indices(max_weight):
    for w in range(1, max_weight + 1):
        for comp in compositions(w):
            for signs in itertools.product((1, -1), repeat=len(comp)):
                yield SignedIndex(tuple(s * k for s, k in zip(signs, comp)), 0)


def _layer_values(diff: dict, env, params=("T", "V", "W", "U", "S")) -> list:
    """Split a signed-index combination by parameter monomial and evaluate
    each layer, every one of which must vanish: one lincomb_num value per
    layer, no verdict."""
    layers: dict = {}
    for key, c in diff.items():
        for mono, q in SymPoly.coerce(c).terms.items():
            ppart = tuple((g, e) for g, e in mono if g in params)
            rest = SymPoly({tuple((g, e) for g, e in mono if g not in params): q})
            layer = layers.setdefault(ppart, {})
            layer[key] = layer.get(key, SymPoly.zero()) + rest
    return [lincomb_num(layer, env) for layer in layers.values()]


def coherence_checks(max_weight=6, env=None, **_) -> list:
    env = env or NumEnv(prec=64)
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
        for s in _signed_indices(4)
    )
    out.append(_check("parameter shifts are exact in both schemes (weight <= 4)",
                      "shift-exact", ok))

    ok = True
    small = [s for s in _signed_indices(3)]
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
    indices = list(_signed_indices(max_weight))
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
        for wr in range(0, 8)
        for r in compositions(wr)
        for s in compositions(7 - wr)
        if sum(r) + sum(s) <= 7
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


def derivation_checks(env=None, **_) -> list:
    env = env or NumEnv(prec=64)
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
                term = term * altz_num_holder(SignedIndex(atom[1], 0), env)
            elif atom[0] == "log2":
                term = term * env.const_mpf("log2")
            elif atom[0] == "z":
                term = term * env.const_mpf(f"z{atom[1]}")
        total = total + term
    return total


SUITES = {
    "counting": counting_checks,
    "golden": golden_checks,
    "invertibility": invertibility_checks,
    "closedform": closedform_checks,
    "genseries": genseries_checks,
    "coherence": coherence_checks,
    "derivation": derivation_checks,
}


def run_suite(name: str, max_weight: int = 6, env=None) -> list:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(max_weight=max_weight, env=env))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](max_weight=max_weight, env=env)


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
