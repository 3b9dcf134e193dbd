import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mtv import numoracle
from mtv.indexcore import to_int_word, zi
from mtv.numoracle import (
    MPFloat,
    NumEnv,
    _BLOCK,
    _certified_sum,
    _dp_float,
    _nested_sums,
    _poly_at_half,
    _tail_bound,
    _transform_upper,
    altz_num,
    altz_num_holder,
    digamma_A,
    digamma_B,
    eval_num,
    genseries_residual,
    lincomb_num,
    t_num,
    t_nums,
    t_star_a1_num,
)
from mtv.symring import LOG2, PI2, SymPoly
from mtv.verify import _mot_value, _signed_indices

ENV = NumEnv(prec=53, cutoff=200_000)
HENV = NumEnv(prec=80)
MP = mpmath.mp.clone()
MP.prec = 110


def _close(v, true, slack=0.0):
    return abs(float(v.val) - float(true)) <= v.err + slack


def test_t_num_depth1():
    assert _close(t_num((2,), ENV), MP.pi ** 2 / 8)
    assert _close(t_num((3,), ENV), (1 - MP.mpf(1) / 8) * MP.zeta(3))
    with pytest.raises(ValueError):
        t_num((2, 1), ENV)


def test_t_num_t12():
    true = -MP.mpf(7) / 16 * MP.zeta(3) + MP.pi ** 2 / 8 * MP.log(2)
    assert abs(float(t_num((1, 2), ENV).val) - float(true)) < 1e-5
    assert _close(t_num((1, 2), ENV), true)


def test_altz_known_values():
    assert _close(altz_num(zi(-1), ENV), -MP.log(2))
    assert _close(altz_num(zi(-3), ENV), -(1 - MP.mpf(1) / 4) * MP.zeta(3))
    assert _close(altz_num(zi(1, 2), ENV), MP.zeta(3))
    assert altz_num(zi(), ENV).to_float() == 1.0
    with pytest.raises(ValueError):
        altz_num(zi(2, 1), ENV)


def test_holder_evaluator_high_precision():
    cases = [
        (zi(2), MP.pi ** 2 / 6),
        (zi(-1), -MP.log(2)),
        (zi(1, 2), MP.zeta(3)),
        (zi(1, -1), MP.log(2) ** 2 / 2),
        (zi(-2), -MP.pi ** 2 / 12),
    ]
    for s, true in cases:
        v = altz_num_holder(s, HENV)
        assert abs(float(v.val) - float(true)) < 1e-20
        assert v.err < 1e-18


def test_holder_agrees_with_nested_sums():
    for s in [zi(1, 1, 2), zi(2, 1, -2), zi(-1, 1, -1, 2), zi(1, 1, 1, -1)]:
        a = altz_num_holder(s, HENV)
        b = altz_num(s, ENV)
        assert a.agrees_with(b)


def test_bound_self_consistency_on_halving():
    for idx in [(2,), (1, 2), (2, 1, 2), (1, 1, 2)]:
        big = t_num(idx, NumEnv(prec=53, cutoff=200_000))
        small = t_num(idx, NumEnv(prec=53, cutoff=100_000))
        assert abs(float(big.val) - float(small.val)) <= big.err + small.err


def test_float_and_path_split_engines_agree():
    # 53 bits runs the float64 nested sums, 90 bits the path split
    lo = t_num((2, 1, 2), NumEnv(prec=53, cutoff=50_000))
    hi = t_num((2, 1, 2), NumEnv(prec=90, cutoff=50_000))
    assert abs(MP.mpf(lo.val) - MP.mpf(hi.val)) <= lo.err + hi.err
    assert hi.err <= 2.0 ** -80


def test_high_precision_matches_mpmath():
    env = NumEnv(prec=80)
    cases = [(t_num((k,), env), (1 - MP.mpf(2) ** -k) * MP.zeta(k)) for k in range(2, 6)]
    cases.append((t_num((1, 2), env), -MP.mpf(7) / 16 * MP.zeta(3) + MP.pi ** 2 / 8 * MP.log(2)))
    cases.append((altz_num(zi(-1), env), -MP.log(2)))
    for v, true in cases:
        assert v.err <= 2.0 ** -70
        assert abs(MP.mpf(v.val) - true) <= v.err


def test_tail_bound_dominates_exact_tail():
    # sum_{n >= n0} C(n-1, d-1) 2^-n = P(Bin(n0-1, 1/2) <= d-1)
    for d in range(1, 15):
        for n0 in range(1, 120):
            exact = Fraction(sum(math.comb(n0 - 1, j) for j in range(d)), 2 ** (n0 - 1))
            assert Fraction(_tail_bound(n0, d)) >= exact, (d, n0)


def _ref_at_half(w, bits):
    """I(0; w; 1/2) in mpmath at the given precision, level by level over
    the whole range of n, truncated where the exact dropped weight
    P(Bin(N-1, 1/2) <= d-1) is below 2^-bits; returns (value, err)."""
    blocks = []  # [eta, k]: a nonzero letter and the zeros after it
    for x in w:
        if x:
            blocks.append([x, 1])
        else:
            blocks[-1][1] += 1
    d = len(blocks)
    N = d
    while Fraction(sum(math.comb(N - 1, j) for j in range(d)), 2 ** (N - 1)) > Fraction(1, 2 ** bits):
        N += 1
    with mpmath.workprec(bits + 16):
        f = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (N - 1)  # level 0: the empty sum at n = 0
        for eta, k in blocks:
            y = mpmath.mpf(1) / (2 * eta)
            carry = mpmath.mpf(0)
            level = [mpmath.mpf(0)] * N
            for n in range(1, N):
                carry = y * (carry + f[n - 1])
                level[n] = carry / mpmath.mpf(n) ** k
            f = level
        return (-1) ** d * mpmath.fsum(f), 2.0 ** (1 - bits)


def _holder_subwords(max_weight):
    out = set()
    for s in _signed_indices(max_weight):
        if s.is_convergent():
            w = to_int_word(s)
            for j in range(len(w) + 1):
                out.update((w[:j], _transform_upper(w[j:])))
    out.discard(())
    return sorted(out)


@pytest.mark.parametrize("prec", [64, 128])
def test_fixed_point_path_split_matches_mpmath_reference(prec):
    # every sub-word of weight <= 6 keeps its bound, and those of weight
    # <= 5 lie within it of the reference
    env = NumEnv(prec=prec)
    checked = set(_holder_subwords(5))
    assert len(checked) == 353
    for w in _holder_subwords(6):
        v, err = _poly_at_half(w, env)
        assert err <= 2.0 ** -(prec + 5), w
        if w in checked:
            ref, ref_err = _ref_at_half(w, prec + 64)
            assert abs(mpmath.ldexp(v, -prec - numoracle._GUARD_BITS) - ref) <= err + ref_err, w


@pytest.mark.parametrize("prec", [64, 128])
def test_holder_bounds_over_weight_six(prec):
    # the convolution is exact, so its bound is the propagated half bounds
    env = NumEnv(prec=prec)
    convergent = [s for s in _signed_indices(6) if s.is_convergent()]
    assert len(convergent) == 485
    for s in convergent:
        assert altz_num_holder(s, env).err <= 2.0 ** -(prec + 5), s


def test_fixed_point_rounding_count(monkeypatch):
    # Without guard bits, P = prec = 12, the rounding term 3 d (n0 - 1) 2^-P
    # outweighs the 2^-20 tail by far, so this checks the count itself.
    monkeypatch.setattr(numoracle, "_GUARD_BITS", 0)
    env = NumEnv(prec=12)
    for w in _holder_subwords(5):
        v, err = _poly_at_half(w, env)
        ref, ref_err = _ref_at_half(w, 12 + 64)
        assert err >= 3 * 2.0 ** -12
        assert abs(mpmath.ldexp(v, -12) - ref) <= err + ref_err, w


def test_holder_memo_warm_equals_cold():
    warm = NumEnv(prec=80)
    for s in [zi(1, 2), zi(2, -1), zi(1, 1, 2), zi(-1, -2)]:
        altz_num_holder(s, warm)
    target = zi(1, 1, -1, 2)
    halves = len([k for k in warm._sums if k[0] == "half"])
    a = altz_num_holder(target, warm)
    b = altz_num_holder(target, NumEnv(prec=80))
    assert a.val == b.val and a.err == b.err
    assert len([k for k in warm._sums if k[0] == "half"]) - halves < 2 * (len(to_int_word(target)) + 1)


def test_eval_num():
    assert abs(eval_num(PI2, ENV).to_float() - float(MP.pi ** 2)) < 1e-10
    from fractions import Fraction

    p = SymPoly.gen("z3", 1, Fraction(-7, 16)) + PI2 * LOG2 * Fraction(1, 8)
    true = -MP.mpf(7) / 16 * MP.zeta(3) + MP.pi ** 2 * MP.log(2) / 8
    assert abs(eval_num(p, ENV).to_float() - float(true)) < 1e-10
    v = eval_num(SymPoly.gen("V"), ENV, {"V": 0.25})
    assert v.to_float() == 0.25
    with pytest.raises(ValueError):
        eval_num(SymPoly.gen("V"), ENV)


def test_lincomb_num_duality_instance():
    # zeta(1,2) - zeta(3) = 0
    lc = {zi(1, 2): SymPoly.one(), zi(3): SymPoly.const(-1)}
    v = lincomb_num(lc, HENV)
    assert abs(float(v.val)) <= v.err


def test_stuffle_numeric():
    # t(2) t(1,2) equals the value of the expansion of (2) * (1,2)
    from mtv.wordalg import _stuffle_parts

    env = NumEnv(prec=53, cutoff=200_000)
    lhs = t_num((2,), env) * t_num((1, 2), env)
    rhs_val = 0.0
    rhs_err = 0.0
    for parts, m in _stuffle_parts((2,), (1, 2)):
        v = t_num(parts, env)
        rhs_val += m * float(v.val)
        rhs_err += abs(m) * v.err
    assert abs(lhs.to_float() - rhs_val) <= lhs.err + rhs_err


def test_digamma_paths_and_symmetry():
    env = NumEnv(prec=64)
    for z in [0.045 * k for k in range(1, 21)]:
        a = digamma_A(z, env)
        am = digamma_A(-z, env)
        assert abs(float(a.val) - float(am.val)) < 1e-15
    assert digamma_A(0, env).to_float() == 0.0
    b = digamma_B(0.3, env)
    a1 = digamma_A(0.3, env)
    a2 = digamma_A(0.15, env)
    assert abs(float(b.val) - (float(a1.val) - float(a2.val))) < 1e-15


def test_nested_sum_rejects_bad_input():
    env = NumEnv(prec=53, cutoff=1000)
    with pytest.raises(ValueError, match="empty index"):
        _nested_sums(env, [((), ())], True)
    with pytest.raises(ValueError, match="divergent"):
        _nested_sums(env, [((2, 2), (1, 1)), ((2, 1), (1, 1))], False)
    assert _nested_sums(env, [((2, 1), (1, -1))], False)[0].err < 1e-2  # an alternating last sign converges


def test_digamma_disagreement_raises(monkeypatch):
    env = NumEnv(prec=64)
    monkeypatch.setattr(mpmath, "digamma", lambda x: mpmath.mpf(0))
    with pytest.raises(RuntimeError, match="digamma path MPFloat.*series path MPFloat"):
        digamma_A(0.3, env)


def test_t_star_boundary_reduction():
    # a = 0 reduces to the bare parameter
    env = NumEnv(prec=53, cutoff=50_000)
    v = t_star_a1_num(0, 0.3, env)
    assert abs(v.to_float() - 0.3) < 1e-12


def test_genseries_residual_small():
    env = NumEnv(prec=53, cutoff=200_000)
    r = genseries_residual(0.05, 0.03, 0.0, 6, env)
    assert float(r.val) < 1e-6


def test_closed_form_families_through_weight9():
    # every family with a closed form agrees with the nested sums up to
    # weight 9, within the stated tolerance
    from mtv.closedform import eval_t22, eval_t12n, eval_t2212_star, eval_t2232
    from mtv.numoracle import eval_num

    env = NumEnv(prec=53, cutoff=300_000)
    for a in range(1, 5):  # t({2}^a), weight <= 8
        closed = eval_num(eval_t22(a), env)
        direct = t_num((2,) * a, env)
        assert abs(float(closed.val - direct.val)) < 1e-6
    for n in range(1, 5):  # t(1, {2}^n), weight <= 9
        closed = eval_num(eval_t12n(n), env)
        direct = t_num((1,) + (2,) * n, env)
        assert abs(float(closed.val - direct.val)) < 1e-6
    for a in range(0, 4):  # t({2}^a, 1, {2}^b), weight <= 9
        for b in range(1, 5 - a):
            closed = eval_num(eval_t2212_star(a, b), env, {"V": 0})
            direct = t_num((2,) * a + (1,) + (2,) * b, env)
            assert abs(float(closed.val - direct.val)) < 1e-6
    for a in range(0, 4):  # t({2}^a, 3, {2}^b), weight <= 9
        for b in range(0, 4 - a):
            closed = eval_num(eval_t2232(a, b), env)
            direct = t_num((2,) * a + (3,) + (2,) * b, env)
            assert abs(float(closed.val - direct.val)) < 1e-6


def test_genseries_degenerate_point_reduces_to_parameter():
    # at x = y = 0 the identity collapses to the weight-one boundary value
    env = NumEnv(prec=53, cutoff=50_000)
    r = genseries_residual(0.0, 0.0, 0.37, 2, env)
    assert float(r.val) <= max(r.err, 1e-12)


def test_altz_bound_self_consistency_on_halving():
    for s in [zi(1, 2), zi(-1, 2), zi(1, 1, -1), zi(2, -1)]:
        big = altz_num(s, NumEnv(prec=53, cutoff=200_000))
        small = altz_num(s, NumEnv(prec=53, cutoff=100_000))
        assert abs(float(big.val) - float(small.val)) <= big.err + small.err


@pytest.mark.parametrize("global_prec", [None, 8])
def test_mpfloat_arithmetic_is_exact(global_prec):
    # a sum that any rounding to the global precision would cancel to 0
    tiny = mpmath.ldexp(1, -200)
    with mpmath.workprec(global_prec or mpmath.mp.prec):
        r = (MPFloat(1) + MPFloat(2.0 ** -200)) - MPFloat(1)
        p = -(MPFloat(1 + 2.0 ** -52) * MPFloat(1 - 2.0 ** -52))  # -(1 - 2^-104)
    assert abs(mpmath.fsub(r.val, tiny, exact=True)) <= r.err
    assert mpmath.fsub(p.val, mpmath.ldexp(1, -104), exact=True) == -1 and p.err == 0


def test_rounded_coefficients_are_charged():
    v = _mot_value({(): Fraction(-2, 21)}, NumEnv(prec=64))
    with mpmath.workprec(300):
        assert 0 < v.err and abs(v.val - mpmath.mpf(-2) / 21) <= v.err
    with pytest.raises(TypeError, match="rational_num"):
        MPFloat(1) + Fraction(1, 3)


def test_values_do_not_depend_on_the_global_precision():
    def values():
        env, henv = NumEnv(prec=53, cutoff=1000), NumEnv(prec=64)
        return [t_num((2, 1, 2), henv) - t_num((2, 1, 2), env), eval_num(PI2 * LOG2 * Fraction(1, 3), henv),
                _mot_value({(("t", (3,)), ("log2",)): Fraction(4, 7)}, henv),
                genseries_residual(0.05, 0.03, 0.25, 2, env), digamma_B(0.3, henv)]

    with mpmath.workprec(8):
        low = values()
    assert [(v.val, v.err) for v in low] == [(v.val, v.err) for v in values()]


def _reference_dp(ks, signs, odd: bool, M: int):
    """The full-length float64 DP that the blocked pass replaced: partial
    sums A_i(M), i = 1..d, with one array of M + 1 floats per level."""
    n = np.arange(1, M + 1, dtype=np.float64)
    inv = 1.0 / (2.0 * n - 1.0 if odd else n)
    alt = np.where(np.arange(1, M + 1) % 2 == 1, -1.0, 1.0)
    prev = np.ones(M + 1)
    tops = []
    for ki, si in zip(ks, signs):
        f = inv.copy()
        for _ in range(ki - 1):
            f *= inv
        if si < 0:
            f *= alt
        arr = np.empty(M + 1)
        arr[0] = 0.0
        np.cumsum(prev[:-1] * f, out=arr[1:])
        tops.append(float(arr[M]))
        prev = arr
    return tops


# shared prefixes, a prefix that is itself an item, signed words with and
# without their all-positive twin in the list, and a duplicate
DP_ITEMS = [
    ((2,), (1,)), ((2, 1), (1, 1)), ((2, 1, 2), (1, 1, 1)), ((2, 1, 2), (1, -1, 1)),
    ((2, 1, 3), (1, -1, -1)), ((1, 1, 2), (-1, 1, 1)), ((3, 2, 2, 1), (-1, 1, -1, -1)),
    ((2, 2, 2, 2, 1, 2), (1,) * 6), ((1,), (-1,)), ((4, 1), (1, -1)), ((2, 1, 2), (1, 1, 1)),
]


@pytest.mark.parametrize("M", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 50_000])
@pytest.mark.parametrize("odd", [True, False])
def test_blocked_pass_is_bit_identical_to_the_full_length_dp(M, odd):
    items = DP_ITEMS[:]
    random.Random(M).shuffle(items)
    table = _dp_float([tuple(zip(ks, signs)) for ks, signs in items], odd, M)
    for ks, signs in items:
        word = tuple(zip(ks, signs))
        assert [table[word[:i]] for i in range(1, len(ks) + 1)] == _reference_dp(ks, signs, odd, M), (ks, signs)


@pytest.mark.parametrize("odd", [True, False])
def test_nested_sums_match_the_reference_and_single_calls(odd):
    M = 3 * _BLOCK + 7
    items = [(ks, signs) for ks, signs in DP_ITEMS if ks[-1] > 1 or signs[-1] < 0]
    rng = random.Random(7)
    batch_env, single_env = NumEnv(prec=53, cutoff=M), NumEnv(prec=53, cutoff=M)
    _nested_sums(batch_env, items[:2], odd)  # memo hits inside the next batch
    batch = items + rng.sample(items, 3)
    rng.shuffle(batch)
    got = _nested_sums(batch_env, batch, odd)
    want = [_nested_sums(single_env, [item], odd)[0] for item in batch]
    assert [(v.val, v.err) for v in got] == [(v.val, v.err) for v in want]
    for (ks, signs), v in zip(batch, got):
        ref = _certified_sum(ks, signs, _reference_dp(ks, signs, odd, M),
                             [abs(x) for x in _reference_dp(ks, (1,) * len(ks), odd, M)], odd, M)
        assert (v.val, v.err) == (ref.val, ref.err), (ks, signs)


def test_t_nums_batch_equals_one_at_a_time():
    idx = [(2, 1, 2), (), (2, 2), (2, 1, 2), (3,), (2, 3, 2, 2), (1, 2)]
    batch = t_nums(idx, NumEnv(prec=53, cutoff=20_000))
    env = NumEnv(prec=53, cutoff=20_000)
    assert [(v.val, v.err) for v in batch] == [(t_num(k, env).val, t_num(k, env).err) for k in idx]
    with pytest.raises(ValueError, match="divergent t index"):
        t_nums([(2,), (2, 1)], env)


def test_nested_sum_memory_does_not_grow_with_the_cutoff():
    # a full-length DP holds several arrays of cutoff + 1 floats (45.8 MiB
    # here); the blocked pass holds one block per depth
    env = NumEnv(prec=53, cutoff=10 ** 6)
    tracemalloc.start()
    try:
        v = t_num((2, 2, 2, 2, 1, 2), env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    assert 0 < v.err < 1e-8
