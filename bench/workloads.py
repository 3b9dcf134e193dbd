"""The four benchmark workloads, their inputs and their correctness checks.

A workload is built from a seed (``build(seed)``) into a list of
operations: zero-argument callables, each one call into mtv's public
API.  The runner times the operations, then hands their outputs to the
workload's checkers.  Checkers compare against values computed apart
from the program (mpmath references, Delannoy and binomial numbers,
modular determinants from this file's own elimination, the paper's
tables) or against properties the method must have.  None compares
against a saved copy of the program's output.

Each checker comes with a perturbation of the answer it inspects; the
self-test feeds the perturbed answer back and requires a complaint.
The seed orders the operations and picks the sampled words, primes and
perturbed entries; the set of operations, and so the work done with
cold caches, is the same for every seed.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from mtv import closedform, indexcore, motivic, numoracle, regularize, verify, wordalg
from mtv.indexcore import SignedIndex, basis_sets, to_int_word
from mtv.numoracle import MPFloat, NumEnv
from mtv.symring import SymPoly, lc_add, lc_scale, lc_sub

T = SymPoly.gen("T")
ZERO = SymPoly.zero()
DATA = Path(__file__).resolve().parent.parent / "src" / "mtv" / "data"


class Check:
    """A named checker: ``run(out)`` lists problems, ``perturb(out, rng)``
    returns a copy of ``out`` with one wrong answer it must catch."""

    def __init__(self, name, run, perturb):
        self.name, self.run, self.perturb = name, run, perturb


class Workload:
    def __init__(self, ops, checks, finish=None):
        self.ops = ops          # [(label, callable)]
        self.checks = checks    # [Check]
        self.finish = finish    # untimed: outputs -> extra outputs for the checkers


def signed_indices(max_weight: int):
    """All signed indices of weight <= max_weight (no leading zeros)."""
    out = []
    for w in range(1, max_weight + 1):
        for comp in compositions(w):
            for signs in itertools.product((1, -1), repeat=len(comp)):
                out.append(SignedIndex(tuple(s * k for s, k in zip(signs, comp)), 0))
    return out


def compositions(n: int):
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


def _same(a: dict, b: dict) -> bool:
    nz = lambda d: {k: SymPoly.coerce(v) for k, v in d.items() if not SymPoly.coerce(v).is_zero}
    return nz(a) == nz(b)


def _shift(v: MPFloat, by: float) -> MPFloat:
    return MPFloat(v.val + by, v.err)


def _pick(rng, labels):
    return rng.choice(sorted(labels, key=repr))


# ---------------------------------------------------------------------------
# path-split: the stuffle and shuffle regularisations agree as numbers
# ---------------------------------------------------------------------------

PATH_SPLIT_WEIGHT = 4
PATH_SPLIT_BITS = 64


def _param_layers(lc: dict, param: str = "T") -> list:
    """Split {SignedIndex: SymPoly} into the coefficients of param^j."""
    layers: dict = {}
    for key, c in lc.items():
        for j in range(c.max_degree(param) + 1):
            cj = c.coeff_of_power(param, j)
            if not cj.is_zero:
                layers.setdefault(j, {})[key] = cj
    return [layers[j] for j in sorted(layers)]


def _mp_refs(bits: int) -> dict:
    """References computed here with mpmath, with ample guard bits."""
    with mpmath.workprec(bits + 40):
        refs = {(-1,): -mpmath.log(2), (1, 2): mpmath.zeta(3)}
        for k in range(2, 6):
            refs[(k,)] = mpmath.zeta(k)
            refs[(-k,)] = -(1 - mpmath.mpf(2) ** (1 - k)) * mpmath.zeta(k)
    return refs


def build_path_split(seed: int) -> Workload:
    rng = random.Random(seed)
    env = NumEnv(prec=PATH_SPLIT_BITS)
    indices = signed_indices(PATH_SPLIT_WEIGHT)
    rng.shuffle(indices)
    # words for the two-evaluator comparison: weight <= 4, depth <= 2, convergent
    pool = [s for s in signed_indices(4) if s.is_convergent() and s.depth <= 2]
    cross = rng.sample(pool, 3)

    def op(s):
        def run():
            diff = lc_sub(regularize.sh_from_st(s, "T"), regularize.shuffle_reg(s, T))
            return [numoracle.lincomb_num(layer, env) for layer in _param_layers(diff)]
        return run

    ops = [(s, op(s)) for s in indices]

    def finish(out):
        holder_env = NumEnv(prec=PATH_SPLIT_BITS)
        sums_env = NumEnv(prec=53)
        refs = _mp_refs(PATH_SPLIT_BITS)
        return {
            "mp": refs,
            "refs": {p: numoracle.altz_num_holder(SignedIndex(p, 0), holder_env) for p in refs},
            "cross": {s.parts: (numoracle.altz_num_holder(s, holder_env), numoracle.altz_num(s, sums_env))
                      for s in cross},
        }

    def check_bounds(out):
        bad = []
        for s in indices:
            for v in out.get(s, ()):
                if abs(float(v.val)) > v.err or v.err > 1e-12:
                    bad.append(f"{s.parts}: {float(v.val):.3e} +- {v.err:.3e}")
        return bad

    def perturb_bounds(out, rng):
        out = dict(out)
        s = _pick(rng, [s for s in indices if out[s]])
        out[s] = [_shift(out[s][0], 1e-9)] + out[s][1:]
        return out

    def check_refs(out):
        refs = out["mp"]
        return [f"{p}: {float(v.val)!r} +- {v.err:.2e} vs {float(refs[p])!r}"
                for p, v in out["refs"].items()
                if abs(v.val - refs[p]) > v.err + 2.0 ** (-PATH_SPLIT_BITS - 30)]

    def perturb_refs(out, rng):
        out = dict(out, refs=dict(out["refs"]))
        p = _pick(rng, out["refs"])
        out["refs"][p] = _shift(out["refs"][p], 4 * out["refs"][p].err + 1e-15)
        return out

    def check_cross(out):
        return [f"{p}: evaluators differ by {abs(float(a.val - b.val)):.3e} > {a.err + b.err:.3e}"
                for p, (a, b) in out["cross"].items() if not a.agrees_with(b)]

    def perturb_cross(out, rng):
        out = dict(out, cross=dict(out["cross"]))
        p = _pick(rng, out["cross"])
        a, b = out["cross"][p]
        out["cross"][p] = (a, _shift(b, 2 * (a.err + b.err) + 1e-15))
        return out

    return Workload(ops, [Check("layer within its certified bound", check_bounds, perturb_bounds),
                          Check("path-split value against mpmath", check_refs, perturb_refs),
                          Check("path split against nested sums", check_cross, perturb_cross)],
                    finish)


# ---------------------------------------------------------------------------
# exact-algebra: regularisation sweeps, products, distribution, closed forms
# ---------------------------------------------------------------------------

EXACT_WEIGHT = 5
PRODUCT_WEIGHT = 3
MULT_WEIGHT = 2
DIST_PREFIXES = [(2,), (3,), (4,), (1, 2), (2, 2), (1, 3), (1, 1, 2)]
DIST_ALPHA = 2
CF_GRID = 6
RHO_ORDER = 9


def delannoy(p: int, q: int) -> int:
    return sum(math.comb(p, k) * math.comb(q, k) * 2 ** k for k in range(min(p, q) + 1))


def build_exact_algebra(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []

    def sweep(s):
        return lambda: {
            "st": regularize.stuffle_reg(s, T),
            "sh": regularize.shuffle_reg(s, T),
            "sh_from_st": regularize.sh_from_st(s, "T"),
            "st_via_sh0": regularize.st_via_sh0(s, T),
            "st0": regularize.stuffle_reg(s, ZERO),
            "sh0": regularize.shuffle_reg(s, ZERO),
            "shift_st": regularize.shift_param("stuffle", s, T, ZERO),
            "shift_sh": regularize.shift_param("shuffle", s, T, ZERO),
        }

    def product(a, b):
        return lambda: (wordalg.stuffle(a, b), wordalg.shuffle(indexcore.to_int_word(a), indexcore.to_int_word(b)))

    def multiplicative(a, b):
        def run():
            lhs: dict = {}
            for key, m in wordalg.stuffle(a, b).items():
                lhs = lc_add(lhs, lc_scale(regularize.stuffle_reg(key, T), m))
            return lhs, wordalg.stuffle_lincomb(regularize.stuffle_reg(a, T), regularize.stuffle_reg(b, T))
        return run

    sweep_idx = signed_indices(EXACT_WEIGHT)
    ops += [(("sweep", s), sweep(s)) for s in sweep_idx]
    small = signed_indices(PRODUCT_WEIGHT)
    ops += [(("product", a, b), product(a, b)) for a in small for b in small]
    tiny = signed_indices(MULT_WEIGHT)
    ops += [(("mult", a, b), multiplicative(a, b)) for a in tiny for b in tiny]
    dist = [(k, alpha, ell) for k in DIST_PREFIXES for alpha in range(DIST_ALPHA + 1) for ell in (0, 1)]
    ops += [(("dist",) + c, (lambda c=c: regularize.distribution_residual(*c))) for c in dist]
    grid = [(a, b) for a in range(CF_GRID) for b in range(CF_GRID)]
    ops += [(("cf", a, b), (lambda a=a, b=b: (closedform.eval_t2212_star(a, b), closedform.eval_t2212_sh(a, b),
                                               closedform.eval_t2232(a, b), closedform.eval_z2232(a, b))))
            for a, b in grid]
    ops += [(("t22", a), (lambda a=a: closedform.eval_t22(a))) for a in range(2 * CF_GRID)]
    ops += [(("rho", i), (lambda i=i: regularize.rho_apply(regularize.zeta_ones(i, T))))
            for i in range(RHO_ORDER)]
    rng.shuffle(ops)

    def labels(kind, out):
        return [lab for lab in out if lab[0] == kind]

    def check_shift(out):
        bad = []
        for lab in labels("sweep", out):
            r = out[lab]
            if not _same(r["st0"], r["shift_st"]) or not _same(r["sh0"], r["shift_sh"]):
                bad.append(f"parameter shift to 0 differs from the direct recursion at {lab[1].parts}")
        return bad

    def perturb_shift(out, rng):
        out = dict(out)
        lab = _pick(rng, labels("sweep", out))
        which = rng.choice(["shift_st", "shift_sh"])
        out[lab] = dict(out[lab])
        out[lab][which] = lc_add(out[lab][which], {SignedIndex((2,), 0): SymPoly.const(Fraction(1, 7))})
        return out

    def check_mult(out):
        return [f"stuffle regularisation not multiplicative on {lab[1].parts} * {lab[2].parts}"
                for lab in labels("mult", out) if not _same(*out[lab])]

    def perturb_mult(out, rng):
        out = dict(out)
        lab = _pick(rng, labels("mult", out))
        lhs, rhs = out[lab]
        out[lab] = (lhs, lc_add(rhs, {SignedIndex((3,), 0): T}))
        return out

    def check_dist(out):
        return [f"alpha = 0 distribution residual nonzero at k={lab[1]}, l={lab[3]}"
                for lab in labels("dist", out) if lab[2] == 0 and not _same(out[lab], {})]

    def perturb_dist(out, rng):
        out = dict(out)
        lab = _pick(rng, [lab for lab in labels("dist", out) if lab[2] == 0])
        out[lab] = lc_add(out[lab], {SignedIndex((2, -1), 0): SymPoly.one()})
        return out

    def check_counts(out):
        bad = []
        for lab in labels("product", out):
            a, b = lab[1], lab[2]
            st, sh = out[lab]
            if sum(st.values()) != delannoy(a.depth, b.depth):
                bad.append(f"stuffle multiplicities of {a.parts} * {b.parts} sum to {sum(st.values())}")
            p, q = len(to_int_word(a)), len(to_int_word(b))
            if sum(sh.values()) != math.comb(p + q, p):
                bad.append(f"shuffle multiplicities of {a.parts} * {b.parts} sum to {sum(sh.values())}")
        return bad

    def perturb_counts(out, rng):
        out = dict(out)
        lab = _pick(rng, labels("product", out))
        st, sh = out[lab]
        if rng.random() < 0.5:
            key = next(iter(st))
            st = {**st, key: st[key] + 1}
        else:
            key = next(iter(sh))
            sh = {**sh, key: sh[key] + 1}
        out[lab] = (st, sh)
        return out

    def check_t22(out):
        bad = []
        for lab in labels("t22", out):
            a = lab[1]
            expect = {(("pi2", a),): Fraction(1, 2 ** (2 * a) * math.factorial(2 * a))} if a else {(): Fraction(1)}
            if out[lab].terms != expect:
                bad.append(f"t({{2}}^{a}) = {out[lab]}")
        return bad

    def perturb_t22(out, rng):
        out = dict(out)
        lab = _pick(rng, labels("t22", out))
        out[lab] = out[lab] * 2
        return out

    def check_rho(out):
        return [f"rho(zeta_ones({lab[1]}, T)) = {out[lab]}" for lab in labels("rho", out)
                if out[lab].terms != {((("T", lab[1]),) if lab[1] else ()): Fraction(1, math.factorial(lab[1]))}]

    def perturb_rho(out, rng):
        out = dict(out)
        lab = _pick(rng, labels("rho", out))
        out[lab] = out[lab] + SymPoly.gen("pi2")
        return out

    return Workload(ops, [
        Check("parameter shift to 0 equals the regularisation at 0", check_shift, perturb_shift),
        Check("regularised stuffle is multiplicative", check_mult, perturb_mult),
        Check("alpha = 0 distribution residual vanishes", check_dist, perturb_dist),
        Check("product multiplicities: Delannoy and binomial", check_counts, perturb_counts),
        Check("t({2}^a) = pi^2a / (2^2a (2a)!)", check_t22, perturb_t22),
        Check("rho(zeta_ones(i, T)) = T^i / i!", check_rho, perturb_rho),
    ])


# ---------------------------------------------------------------------------
# level-matrices: the invertibility sweep and the stored tables
# ---------------------------------------------------------------------------

MATRIX_MAX_N = 11
# primes just below 2^31: products of two residues stay inside int64
PRIMES = [2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543]


def sweep_cases(max_n: int) -> list:
    """(kind, N, level) of every matrix in the invertibility sweep."""
    out = []
    for kind in ("S", "H", "Hstar"):
        for N in range(1, max_n + 1):
            for ell in range(1, N + 1):
                if (N - ell) % 2 or (kind == "S" and (N < 2 or not basis_sets("S", N, ell)[0])):
                    continue
                out.append((kind, N, ell))
    return out


def _mod(x: Fraction, p: int) -> int:
    return x.numerator % p * pow(x.denominator % p, -1, p) % p


def det_mod_p(rows, p: int) -> int:
    """Determinant mod p of a matrix of Fractions, by Gaussian elimination
    on int64 residues; p must not divide any denominator."""
    n = len(rows)
    inv = {d: pow(d % p, -1, p) for d in {x.denominator for row in rows for x in row}}
    a = np.array([[x.numerator % p * inv[x.denominator] % p for x in row] for row in rows],
                 dtype=np.int64).reshape(n, n)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i, k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        det = det * int(a[k, k]) % p
        factors = a[k + 1:, k] * pow(int(a[k, k]), -1, p) % p
        a[k + 1:, k:] = (a[k + 1:, k:] - factors[:, None] * a[k, k:][None, :] % p) % p
    return det % p


def _at(entries, lam: Fraction) -> list:
    """Entries of a (possibly parametric) matrix at lam, as Fractions."""
    lam_poly = {"lam": SymPoly.const(lam)}
    return [[x.substitute(lam_poly).const_value() if isinstance(x, SymPoly) else x for x in row]
            for row in entries]


def _det_at(det, lam: Fraction) -> Fraction:
    return det.substitute({"lam": SymPoly.const(lam)}).const_value() if isinstance(det, SymPoly) else det


def _primes_for(rows, primes, extra=()) -> list:
    """The primes dividing no denominator of the entries or of ``extra``."""
    dens = {x.denominator for row in rows for x in row} | {x.denominator for x in extra}
    return [p for p in primes if all(d % p for d in dens)]


def build_level_matrices(seed: int) -> Workload:
    rng = random.Random(seed)
    cases = sweep_cases(MATRIX_MAX_N)
    rng.shuffle(cases)
    primes = rng.sample(PRIMES, 3)
    paper_lambda = {int(k): Fraction(v) for k, v in json.loads((DATA / "golden_singular_lambda.json").read_text()).items()}
    stored = {kind: json.loads((DATA / f"golden_matrix_{kind}_8_2.json").read_text()) for kind in ("S", "H", "Hstar")}

    def op(kind, N, ell):
        def run():
            m = motivic.build_matrix(kind, N, ell)
            if kind == "Hstar":
                det = m.det()
                return {"entries": m.entries, "ok": all(_det_at(det, lam) != 0 for lam in (Fraction(1, 2), Fraction(1))),
                        "det": det}
            rep = motivic.det_mod2_structure(m)
            return {"entries": m.entries, "ok": rep.ok and rep.det != 0, "det": rep.det}
        return run

    ops = [((kind, N, ell), op(kind, N, ell)) for kind, N, ell in cases]
    ops.append((("golden",), lambda: verify.golden_checks()))
    ops.append((("tables",), lambda: {kind: motivic.build_matrix(kind, 8, 2).to_json() for kind in stored}))
    ops.append((("lambda",), lambda: {N: motivic.build_matrix("Hstar", N, 1).entries for N in paper_lambda}))

    def matrices(out):
        return [lab for lab in out if len(lab) == 3]

    def check_structure(out):
        return [f"{lab}: structure report failed or determinant zero" for lab in matrices(out) if not out[lab]["ok"]]

    def perturb_structure(out, rng):
        out = dict(out)
        lab = _pick(rng, matrices(out))
        out[lab] = dict(out[lab], ok=False)
        return out

    def check_parity(out):
        bad = []
        for lab in matrices(out):
            kind, N, ell = lab
            det = out[lab]["det"]
            if kind == "H" and not ((2 * det).denominator == 1 and (2 * det).numerator % 2 == 1):
                bad.append(f"{lab}: det {det} not in 1/2 + Z")
            if kind == "S" and ell > 1 and not (det.denominator == 1 and det.numerator % 2 == 1):
                bad.append(f"{lab}: det {det} not odd")
        return bad

    def perturb_parity(out, rng):
        out = dict(out)
        lab = _pick(rng, [lab for lab in matrices(out) if lab[0] == "H" or (lab[0] == "S" and lab[2] > 1)])
        out[lab] = dict(out[lab], det=out[lab]["det"] + (Fraction(1, 2) if lab[0] == "H" else 1))
        return out

    def check_modp(out):
        bad = []
        for lab in matrices(out):
            r = out[lab]
            for lam in ((Fraction(0), Fraction(1)) if lab[0] == "Hstar" else (Fraction(0),)):
                rows = _at(r["entries"], lam)
                want = Fraction(_det_at(r["det"], lam))
                for p in _primes_for(rows, primes, [want]):
                    if det_mod_p(rows, p) != _mod(want, p):
                        bad.append(f"{lab} at lam={lam}: det_exact {want} disagrees mod {p}")
        return bad

    def perturb_modp(out, rng):
        out = dict(out)
        lab = _pick(rng, matrices(out))
        out[lab] = dict(out[lab], det=out[lab]["det"] + 1)
        return out

    def check_golden(out):
        bad = [f"golden check failed: {r.ref}" for r in out[("golden",)] if r.status != "PASS"]
        for kind, table in stored.items():
            got = out[("tables",)][kind]
            if (got["rows"], got["cols"], got["entries"]) != (table["rows"], table["cols"], table["entries"]):
                bad.append(f"weight-8 level-2 {kind} matrix differs from the stored table")
        for N, lam in paper_lambda.items():
            rows = _at(out[("lambda",)][N], lam)
            p = _primes_for(rows, primes)[0]
            if det_mod_p(rows, p) != 0:
                bad.append(f"weight {N}: Hstar determinant nonzero mod {p} at the paper's lam = {lam}")
        return bad

    def perturb_golden(out, rng):
        out = dict(out)
        if rng.random() < 0.5:
            results = copy.copy(out[("golden",)])
            i = rng.randrange(len(results))
            results[i] = copy.copy(results[i])
            results[i].status = "FAIL"
            out[("golden",)] = results
        else:
            N = _pick(rng, [N for N in out[("lambda",)] if len(out[("lambda",)][N]) > 1])
            ent = [row[:] for row in out[("lambda",)][N]]
            ent[0][0] = ent[0][0] + 1
            out[("lambda",)] = {**out[("lambda",)], N: ent}
        return out

    return Workload(ops, [
        Check("structure report passes and determinant nonzero", check_structure, perturb_structure),
        Check("H determinants in 1/2 + Z, S determinants odd at level > 1", check_parity, perturb_parity),
        Check("det_exact agrees with modular elimination", check_modp, perturb_modp),
        Check("stored weight-8 tables and the paper's singular lam", check_golden, perturb_golden),
    ])


# ---------------------------------------------------------------------------
# nested-sums: the float64 and fixed-point nested-sum engines
# ---------------------------------------------------------------------------

NESTED_ENVS = {53: 2 * 10 ** 5, 64: 5 * 10 ** 4}  # bits -> cutoff


def _identities():
    """(t index, mpmath reference thunk) pairs, the references independent
    of the program: t(k) = (1-2^-k) zeta(k), t({2}^n) = pi^2n / (2^2n (2n)!),
    and t(1,2) = -(7/16) zeta(3) + (pi^2/8) log 2."""
    out = [((k,), lambda k=k: (1 - mpmath.mpf(2) ** -k) * mpmath.zeta(k)) for k in range(2, 7)]
    # n = 1 is t(2), already in the first family
    out += [((2,) * n, lambda n=n: mpmath.pi ** (2 * n) / (mpmath.mpf(4) ** n * mpmath.factorial(2 * n)))
            for n in range(2, 5)]
    out.append(((1, 2), lambda: -mpmath.mpf(7) / 16 * mpmath.zeta(3) + mpmath.pi ** 2 / 8 * mpmath.log(2)))
    return out


def build_nested_sums(seed: int) -> Workload:
    rng = random.Random(seed)
    envs = {bits: NumEnv(prec=bits, cutoff=cut) for bits, cut in NESTED_ENVS.items()}
    ops = [
        (("suite", "closedform"), lambda: verify.closedform_checks(env=envs[53])),
        (("suite", "genseries"), lambda: verify.genseries_checks(env=envs[53])),
        (("suite", "derivation"), lambda: verify.derivation_checks(env=envs[64])),
    ]
    for bits in envs:
        ops += [(("t", bits, k), (lambda bits=bits, k=k: numoracle.t_num(k, envs[bits]))) for k, _ in _identities()]
    rng.shuffle(ops)

    def finish(out):
        refs = {}
        for bits in envs:
            with mpmath.workprec(bits + 40):
                for k, ref in _identities():
                    refs[bits, k] = ref()
        return {"mp": refs}

    def check_suites(out):
        return [f"{lab[1]}: {r.ref} {r.status}" for lab in out if lab[0] == "suite"
                for r in out[lab] if r.status != "PASS"]

    def perturb_suites(out, rng):
        out = dict(out)
        lab = _pick(rng, [lab for lab in out if lab[0] == "suite"])
        results = list(out[lab])
        i = rng.randrange(len(results))
        results[i] = copy.copy(results[i])
        results[i].status = "FAIL"
        out[lab] = results
        return out

    def check_identities(out):
        bad = []
        for lab in out:
            if lab[0] != "t":
                continue
            v, ref = out[lab], out["mp"][lab[1], lab[2]]
            if abs(v.val - ref) > v.err + 2.0 ** (-lab[1] - 30):
                bad.append(f"t{lab[2]} at {lab[1]} bits: {float(v.val)!r} +- {v.err:.2e} vs {float(ref)!r}")
        return bad

    def perturb_identities(out, rng):
        out = dict(out)
        lab = _pick(rng, [lab for lab in out if lab[0] == "t"])
        out[lab] = _shift(out[lab], 2 * out[lab].err + 1e-15)
        return out

    return Workload(ops, [
        Check("every suite check passes", check_suites, perturb_suites),
        Check("t identities within the reported bound", check_identities, perturb_identities),
    ], finish)


WORKLOADS = {
    "path-split": build_path_split,
    "exact-algebra": build_exact_algebra,
    "level-matrices": build_level_matrices,
    "nested-sums": build_nested_sums,
}
