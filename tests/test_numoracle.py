import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mtv import numoracle
from mtv.errors import InvariantError
from mtv.indexcore import SignedIndex, compositions, signed_indices, to_int_word, zi
from mtv.numoracle import (
    _LOWER,
    _UPPER,
    MPFloat,
    NumEnv,
    _half_pass,
    _tail_bound,
    altz_num,
    altz_num_holder,
    digamma_A,
    digamma_B,
    eval_num,
    genseries_residual,
    lincomb_num,
    t_num,
    t_star_a1_num,
)
from mtv.symring import LOG2, PI2, SymPoly
from mtv.verify import _mot_value
from mtv.wordalg import t_to_zeta

ENV = NumEnv(prec=53)
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
    assert float(altz_num(zi(), ENV).val) == 1.0
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
    # the accuracy follows the precision: halving it keeps the values within their summed bounds
    for idx in [(2,), (1, 2), (2, 1, 2), (1, 1, 2)]:
        big = t_num(idx, NumEnv(prec=64))
        small = t_num(idx, NumEnv(prec=32))
        assert abs(MP.mpf(big.val) - MP.mpf(small.val)) <= big.err + small.err
        assert small.err <= 2.0 ** -37 and big.err <= 2.0 ** -69


def test_float_and_path_split_engines_agree():
    # one engine at every precision: 53 bits (float64's) agrees with 90 bits
    lo = t_num((2, 1, 2), NumEnv(prec=53))  # the CUTOFF is accepted and ignored
    hi = t_num((2, 1, 2), NumEnv(prec=90))
    assert (lo.val, lo.err) == (t_num((2, 1, 2), NumEnv(prec=53)).val, t_num((2, 1, 2), NumEnv(prec=53)).err)
    assert abs(MP.mpf(lo.val) - MP.mpf(hi.val)) <= lo.err + hi.err
    assert lo.err <= 2.0 ** -58 and hi.err <= 2.0 ** -80


def test_high_precision_matches_mpmath():
    env = NumEnv(prec=80)
    cases = [(t_num((k,), env), (1 - MP.mpf(2) ** -k) * MP.zeta(k)) for k in range(2, 6)]
    cases.append((t_num((1, 2), env), -MP.mpf(7) / 16 * MP.zeta(3) + MP.pi ** 2 / 8 * MP.log(2)))
    cases.append((altz_num(zi(-1), env), -MP.log(2)))
    for v, true in cases:
        assert v.err <= 2.0 ** -70
        assert abs(MP.mpf(v.val) - true) <= v.err


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


def _coefficients(word, N, num):
    """The scaled coefficients phi_n = f_n 2^-n, n < N, of each prefix of a
    word of forms ((eta, sign), ...) = 2^-h sum sign dx/(x - eta), in the
    number type num: each form acts on the power series at 1/2 component by
    component, dx/x dividing term n by n, dx/(x - eta) summing the earlier
    terms against the ratio 1/(2 eta)."""
    f = [num(1)] + [num(0)] * (N - 1)
    out = []
    for form in word:
        f = _form_on_series(form, f, num)
        out.append(f)
    return out


def _form_on_series(form, f, num):
    """The scaled coefficients after one form, from those before it, f."""
    N = len(f)
    g = [num(0)] * N
    for eta, sign in form:
        c = num(sign) / 2 ** (len(form) - 1)
        carry = num(0)
        for n in range(1, N):
            if eta:
                carry = (carry + f[n - 1]) / (2 * eta)
                g[n] -= c * carry / n
            else:
                g[n] += c * f[n] / n
    return g


def _ref_forms_at_half(word, bits):
    """I(0; word[:j]; 1/2) for j = 1..len(word) in mpmath, truncated where
    the exact dropped weight P(Bin(N-1, 1/2) <= L'-1), L' the forms with a
    part eta != 0, is below 2^-bits; returns the values and one err."""
    d = sum(any(eta for eta, _ in form) for form in word)
    N = d
    while Fraction(sum(math.comb(N - 1, j) for j in range(d)), 2 ** (N - 1)) > Fraction(1, 2 ** bits):
        N += 1
    with mpmath.workprec(bits + 16):
        return [mpmath.fsum(f) for f in _coefficients(word, N, mpmath.mpf)], 2.0 ** (1 - bits)


def _halves(w):
    """The half words of the split of w at 1/2, as words of forms."""
    return [tuple(_LOWER[x] for x in w[:j]) for j in range(1, len(w) + 1)] + \
        [tuple(_UPPER[x] for x in reversed(w[j:])) for j in range(len(w))]


def _holder_subwords(max_weight):
    out = set()
    for s in signed_indices(max_weight):
        if s.is_convergent():
            out.update(_halves(to_int_word(s)))
    return sorted(out)


def _t_word(k):
    return tuple(x for i, ki in enumerate(k) for x in ("b" if i else "a",) + (0,) * (ki - 1))


def _trie_nodes(env):
    """{half prefix: its _Prefix node} of every non-empty prefix in env's trie."""
    out, todo = {}, [((), env._trie)]
    while todo:
        prefix, node = todo.pop()
        for form, child in node.next.items():
            out[prefix + (form,)] = child
            todo.append((prefix + (form,), child))
    return out


def _halves_of(k):
    """The lower and upper half words of the t index k."""
    w = _t_word(k)
    return tuple(_LOWER[x] for x in w), tuple(_UPPER[x] for x in reversed(w))


def _t_indices(max_weight):
    return [k for w in range(2, max_weight + 1) for k in compositions(w) if k[-1] >= 2]


def _genseries_batch(a_max=8):
    out = []
    for a in range(a_max + 1):
        out += [(2,) * a + (1,) + (2,) * b for b in range(1, a_max + 1 - a)] + [(2,) * a]
        out += [(2,) * i + (1,) + (2,) * (a - i) for i in range(a)]
        out += [(2,) * i + (3,) + (2,) * (a - 1 - i) for i in range(a)]
    return sorted(set(out) - {()})


def _alternating_value(word):
    """A word of one-component forms as (prod of signs, its letters eta)."""
    return math.prod(form[0][1] for form in word), tuple(form[0][0] for form in word)


@pytest.mark.parametrize("prec", [64, 128])
def test_fixed_point_path_split_matches_mpmath_reference(prec):
    # every sub-word of weight <= 6 keeps its bound, and those of weight
    # <= 5 lie within it of the reference
    env = NumEnv(prec=prec)
    checked = set(_holder_subwords(5))
    assert len(checked) == 376  # lower and upper half words stay apart: their forms differ in sign
    for w in _holder_subwords(6):
        v, err = _half_pass(w, env)[-1]
        assert err <= 2.0 ** -(prec + 5), w
        if w in checked:
            sign, etas = _alternating_value(w)
            ref, ref_err = _ref_at_half(etas, prec + 64)
            assert abs(mpmath.ldexp(v, -prec - numoracle._GUARD_BITS) - mpmath.fmul(sign, ref, exact=True)) <= err + ref_err, w


@pytest.mark.parametrize("prec", [64, 128])
def test_t_half_words_match_mpmath_reference(prec):
    # every half word of the genseries batch and of each t index of weight <= 8
    env = NumEnv(prec=prec)
    batch = _genseries_batch()
    assert len(batch) == 80
    words = {}
    for k in set(batch) | set(_t_indices(8)):
        for full in _halves_of(k):
            words[full] = None
    for full in words:
        refs, ref_err = _ref_forms_at_half(full, prec + 24)
        for j, ref in enumerate(refs, 1):
            v, err = _half_pass(full[:j], env)[-1]
            assert err <= 2.0 ** -(prec + 4), full[:j]
            assert abs(mpmath.ldexp(v, -prec - numoracle._GUARD_BITS) - ref) <= err + ref_err, full[:j]


def test_alternating_forms_reference_matches_block_reference():
    # the two mpmath references agree on one-component forms, dx/x included
    for w in _holder_subwords(4):
        sign, etas = _alternating_value(w)
        refs, err = _ref_forms_at_half(w, 80)
        ref, ref_err = _ref_at_half(etas, 80)
        assert abs(refs[-1] - mpmath.fmul(sign, ref, exact=True)) <= err + ref_err, w


FORMS = sorted(set(_LOWER.values()) | set(_UPPER.values()))


def test_every_prefix_has_terms_at_most_2_to_the_minus_n():
    # The lemma behind the one cut n0 = prec + 10 of _half_pass: every half
    # prefix has |phi_n| <= 2^-n.  Exact in Fractions for n < 40, over every
    # word of at most 3 of the 10 forms whose first form has no dx/x part,
    # 666 prefixes; the bound is reached, by dx/(x - 1) at n = 1.
    N = 40
    starts = [f for f in FORMS if all(eta for eta, _ in f)]
    assert len(FORMS) == 10 and len(starts) == 6
    series = {(): [Fraction(1)] + [Fraction(0)] * (N - 1)}
    for length in range(3):
        for word in [w for w in series if len(w) == length]:
            for form in FORMS if word else starts:
                series[word + (form,)] = _form_on_series(form, series[word], Fraction)
    del series[()]
    assert len(series) == 666
    reached = set()
    for word, phi in series.items():
        for n, x in enumerate(phi):
            assert abs(x) * 2 ** n <= 1, (word, n)
            if abs(x) * 2 ** n == 1:
                reached.add((word, n))
    assert ((_LOWER[1],), 1) in reached


def test_majorant_dominates_the_exact_dropped_tail():
    # every form family (lower alpha, beta, the alternating forms, the upper
    # forms with their dy/y parts): every tail sum_{n0 <= n < N} |phi_n|,
    # exact in Fractions, is within _tail_bound(n0)
    N = 24
    starts = [f for f in FORMS if all(eta for eta, _ in f)]
    words = [(a,) + rest for a in starts for r in range(3) for rest in itertools.product(FORMS, repeat=r)]
    for word in words:
        for j, phi in enumerate(_coefficients(word, N, Fraction), 1):
            tail = Fraction(0)
            for n0 in range(N - 1, 0, -1):
                tail += abs(phi[n0])
                assert Fraction(_tail_bound(n0)) >= tail, (word[:j], n0)


@pytest.mark.parametrize("prec", [64, 128])
def test_holder_bounds_over_weight_six(prec):
    # the convolution is exact, so its bound is the propagated half bounds
    env = NumEnv(prec=prec)
    convergent = [s for s in signed_indices(6) if s.is_convergent()]
    assert len(convergent) == 485
    for s in convergent:
        assert altz_num_holder(s, env).err <= 2.0 ** -(prec + 5), s


def test_fixed_point_rounding_count(monkeypatch):
    # Without guard bits, P = prec = 12, the rounding term (3 L' + Z) (n0 - 1) 2^-P
    # outweighs the 2^-21 tail by far, so this checks the count itself.
    monkeypatch.setattr(numoracle, "_GUARD_BITS", 0)
    env = NumEnv(prec=12)
    for w in _holder_subwords(5):
        v, err = _half_pass(w, env)[-1]
        sign, etas = _alternating_value(w)
        ref, ref_err = _ref_at_half(etas, 12 + 64)
        assert err >= 3 * 2.0 ** -12
        assert abs(mpmath.ldexp(v, -12) - mpmath.fmul(sign, ref, exact=True)) <= err + ref_err, w


def test_fixed_point_rounding_count_for_t_letters(monkeypatch):
    # the same count for the two-component forms of the t letters
    monkeypatch.setattr(numoracle, "_GUARD_BITS", 0)
    env = NumEnv(prec=12)
    for k in _t_indices(6):
        for full in _halves_of(k):
            refs, ref_err = _ref_forms_at_half(full, 12 + 64)
            for j, ref in enumerate(refs, 1):
                v, err = _half_pass(full[:j], env)[-1]
                assert err >= 3 * 2.0 ** -12
                assert abs(mpmath.ldexp(v, -12) - ref) <= err + ref_err, full[:j]


def test_holder_memo_warm_equals_cold():
    # One env per precision serves every t index of weight <= 8 and every
    # convergent signed index of weight <= 5 in a shuffled order, so each
    # word reuses the prefixes that other words left; every value and
    # bound is bit for bit that of a cold call.
    items = [(t_num, k) for k in _t_indices(8)]
    items += [(altz_num_holder, s) for s in signed_indices(5) if s.is_convergent()]
    for prec in (12, 53, 64, 128):
        random.Random(prec).shuffle(items)
        warm = NumEnv(prec=prec)
        for f, x in items:
            a, b = f(x, warm), f(x, NumEnv(prec=prec))
            assert (a.val, a.err) == (b.val, b.err), (prec, x)
    warm = NumEnv(prec=80)
    for s in [zi(1, 2), zi(2, -1), zi(1, 1, 2), zi(-1, -2)]:
        altz_num_holder(s, warm)
    target = zi(1, 1, -1, 2)
    halves = len(_trie_nodes(warm))
    a = altz_num_holder(target, warm)
    b = altz_num_holder(target, NumEnv(prec=80))
    assert a.val == b.val and a.err == b.err
    assert len(_trie_nodes(warm)) - halves < 2 * (len(to_int_word(target)) + 1)


def test_each_prefix_is_computed_once(monkeypatch):
    # t(2,2,1,2,2) after t(2,2,1,2) applies the form of each new prefix
    # once, to the env's one length prec + 10, and leaves every shared
    # prefix's series as it was; a word evaluated again applies none.
    applied = []
    apply = numoracle._apply

    def counted(form, src):
        applied.append(apply(form, src))
        return applied[-1]

    monkeypatch.setattr(numoracle, "_apply", counted)
    env = NumEnv(prec=64)

    def series():
        return {p: node.phi for p, node in _trie_nodes(env).items()}

    t_num((2, 2, 1, 2), env)
    before = series()
    applied.clear()
    v = t_num((2, 2, 1, 2, 2), env)
    after = series()
    lower, upper = _halves_of((2, 2, 1, 2, 2))
    new = after.keys() - before.keys()
    assert new == {lower[:j] for j in (8, 9)} | {upper[:j] for j in range(3, 10)}
    assert sorted(map(id, applied)) == sorted(id(after[p]) for p in new)
    assert all(after[p] is before[p] for p in before)
    assert {len(phi) for phi in after.values()} == {64 + 10}

    applied.clear()
    del env._sums[("split", _t_word((2, 2, 1, 2, 2)))]
    again = t_num((2, 2, 1, 2, 2), env)
    assert applied == [] and all(node.phi is after[p] for p, node in _trie_nodes(env).items())
    assert (again.val, again.err) == (v.val, v.err)


def test_engine_memo_keeps_one_series_per_prefix():
    # The trie keeps one node per half prefix, with its (value, bound) and
    # its series: 22 for the 11 letters of t(2,2,2,2,1,2).  Each series has
    # the env's n0 = prec + 10 terms; the traced peak stays within those 22
    # series of integers of P bits, each with its list slot.  Evaluating the
    # word again allocates no series.
    prec = 128
    index = (2, 2, 2, 2, 1, 2)
    env = NumEnv(prec=prec)
    tracemalloc.start()
    try:
        value = t_num(index, env)
        peak = tracemalloc.get_traced_memory()[1]
        del env._sums[("split", _t_word(index))]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        again = t_num(index, env)
        grown = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert 0 < value.err < 2.0 ** -130 and (again.val, again.err) == (value.val, value.err)
    nodes = _trie_nodes(env)
    halves = {p: node.half for p, node in nodes.items()}
    assert len(halves) == 2 * 11
    assert all(isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], int) for v in halves.values())
    series = {p: node.phi for p, node in nodes.items()}
    assert len(series) == 2 * 11 and {len(phi) for phi in series.values()} == {prec + 10}
    per_term = sys.getsizeof(1 << (prec + numoracle._GUARD_BITS)) + 8
    bound = 2 * 11 * (prec + 10) * per_term
    assert peak <= bound, (peak, bound)
    assert grown < (prec + 10) * per_term, grown


def _apply_per_part(form, src):
    """The per-part loop that the fused _apply replaced, kept as its
    reference: one pass over the terms per part of the form."""
    n0, h = len(src), len(form) - 1
    acc = [0] * (n0 - 1)
    for eta, s in form:
        if eta == 0:
            acc = [a + s * x for a, x in zip(acc, src[1:])]
            continue
        shift, c = numoracle._RATIO_SHIFT[eta], 0
        for k, x in enumerate(src[:-1]):
            c = (c + x) >> shift
            if eta < 0:
                c = -c
            acc[k] -= s * c
    return [0] + [a // (n << h) for a, n in zip(acc, range(1, n0))]


@pytest.mark.parametrize("P", [32, 84, 148])
def test_fused_apply_matches_the_per_part_loop(P):
    # The fused _apply against the per-part loop, term for term: every form
    # of _LOWER and _UPPER on random signed P-bit series of random lengths,
    # so each term sees the shifts and floors that _half_pass's rounding
    # count charges.
    rng = random.Random(P)
    assert len(FORMS) == 10
    for form in FORMS:
        for _ in range(12):
            src = [rng.getrandbits(P) - (1 << (P - 1)) for _ in range(rng.randrange(2, 160))]
            assert numoracle._apply(form, src) == _apply_per_part(form, src), (form, len(src))


def test_memo_first_lookup_keeps_validation():
    # t_num and altz_num look up the split memo before they build a word's
    # error label, and a divergent word is never stored: it is refused with
    # its index named, on a cold env and on one warmed by words that share
    # its half prefixes.
    env = NumEnv(prec=64)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^divergent t index t\(2,1\)$"):
            t_num((2, 1), env)
        with pytest.raises(ValueError, match=r"^divergent signed index z\(1\)$"):
            altz_num(zi(1), env)
        with pytest.raises(ValueError, match="positive"):
            t_num((2, 0, 2), env)
        assert ("split", _t_word((2, 1))) not in env._sums
        assert ("split", to_int_word(zi(1))) not in env._sums
        for k in [(2, 1, 2), (1, 2), (2, 2, 1, 2)]:
            t_num(k, env)
        for s in [zi(1, 2), zi(-1), zi(2, 1, 2)]:
            altz_num(s, env)
    assert len(env._sums) == 6 and all(key[0] == "split" for key in env._sums)


def test_eval_num():
    assert abs(float(eval_num(PI2, ENV).val) - float(MP.pi ** 2)) < 1e-10
    from fractions import Fraction

    p = SymPoly.gen("z3", 1, Fraction(-7, 16)) + PI2 * LOG2 * Fraction(1, 8)
    true = -MP.mpf(7) / 16 * MP.zeta(3) + MP.pi ** 2 * MP.log(2) / 8
    assert abs(float(eval_num(p, ENV).val) - float(true)) < 1e-10
    v = eval_num(SymPoly.gen("V"), ENV, {"V": 0.25})
    assert float(v.val) == 0.25
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

    env = NumEnv(prec=53)
    lhs = t_num((2,), env) * t_num((1, 2), env)
    rhs = MPFloat(0)
    for parts, m in _stuffle_parts((2,), (1, 2)):
        rhs = rhs + t_num(parts, env) * m  # exact: the bounds are far below float64 rounding
    assert lhs.agrees_with(rhs) and lhs.err + rhs.err < 2.0 ** -55


def test_digamma_paths_and_symmetry():
    env = NumEnv(prec=64)
    for z in [0.045 * k for k in range(1, 21)]:
        a = digamma_A(z, env)
        am = digamma_A(-z, env)
        assert abs(float(a.val) - float(am.val)) < 1e-15
    assert float(digamma_A(0, env).val) == 0.0
    b = digamma_B(0.3, env)
    a1 = digamma_A(0.3, env)
    a2 = digamma_A(0.15, env)
    assert abs(float(b.val) - (float(a1.val) - float(a2.val))) < 1e-15


def test_nested_sum_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        t_num((2, 0, 2), ENV)
    with pytest.raises(ValueError, match="divergent"):
        altz_num(zi(2, 1), ENV)
    with pytest.raises(ValueError, match="divergent"):
        altz_num(zi(2, lz=1), ENV)
    assert altz_num(zi(2, -1), ENV).err < 2.0 ** -58  # an alternating last sign converges


def test_digamma_disagreement_raises(monkeypatch):
    env = NumEnv(prec=64)
    monkeypatch.setattr(mpmath, "digamma", lambda x: mpmath.mpf(0))
    with pytest.raises(InvariantError, match="digamma path MPFloat.*series path MPFloat"):
        digamma_A(0.3, env)


def test_t_star_boundary_reduction():
    # a = 0 reduces to the bare parameter
    env = NumEnv(prec=53)
    v = t_star_a1_num(0, 0.3, env)
    assert abs(float(v.val) - 0.3) < 1e-12


def test_genseries_residual_small():
    env = NumEnv(prec=53)
    r = genseries_residual(0.05, 0.03, 0.0, 6, env)
    assert float(r.val) < 1e-6


def test_closed_form_families_through_weight9():
    # every family with a closed form agrees with the nested sums up to
    # weight 9, within the stated tolerance
    from mtv.closedform import eval_t22, eval_t12n, eval_t2212_star, eval_t2232
    from mtv.numoracle import eval_num

    env = NumEnv(prec=53)
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
    env = NumEnv(prec=53)
    r = genseries_residual(0.0, 0.0, 0.37, 2, env)
    assert float(r.val) <= max(r.err, 1e-12)


def test_altz_bound_self_consistency_on_halving():
    for s in [zi(1, 2), zi(-1, 2), zi(1, 1, -1), zi(2, -1)]:
        big = altz_num(s, NumEnv(prec=64))
        small = altz_num(s, NumEnv(prec=32))
        assert abs(MP.mpf(big.val) - MP.mpf(small.val)) <= big.err + small.err


@pytest.mark.parametrize("global_prec", [None, 8])
def test_mpfloat_arithmetic_is_exact(global_prec):
    # a sum that any rounding to the global precision would cancel to 0
    tiny = mpmath.ldexp(1, -200)
    with mpmath.workprec(global_prec or mpmath.mp.prec):
        r = (MPFloat(1) + MPFloat(2.0 ** -200)) - MPFloat(1)
        p = -(MPFloat(1 + 2.0 ** -52) * MPFloat(1 - 2.0 ** -52))  # -(1 - 2^-104)
    assert abs(mpmath.fsub(r.val, tiny, exact=True)) <= r.err
    assert mpmath.fsub(p.val, mpmath.ldexp(1, -104), exact=True) == -1 and p.err == 0


@pytest.mark.parametrize("err", [math.nan, math.inf, -1e-30])
def test_a_non_finite_or_negative_bound_is_a_broken_invariant(err):
    with pytest.raises(InvariantError, match=f"got {err!r}$"):
        MPFloat(1, err)
    with pytest.raises(InvariantError):
        MPFloat(1, 1e308) + MPFloat(1, 1e308)  # the sum of two bounds overflows
    assert MPFloat(1, 0).err == 0.0


def test_rounded_coefficients_are_charged():
    v = _mot_value({(): Fraction(-2, 21)}, NumEnv(prec=64))
    with mpmath.workprec(300):
        assert 0 < v.err and abs(v.val - mpmath.mpf(-2) / 21) <= v.err
    with pytest.raises(TypeError, match="rational_num"):
        MPFloat(1) + Fraction(1, 3)


def test_values_do_not_depend_on_the_global_precision():
    def values():
        env, henv = NumEnv(prec=53), NumEnv(prec=64)
        return [t_num((2, 1, 2), henv) - t_num((2, 1, 2), env), eval_num(PI2 * LOG2 * Fraction(1, 3), henv),
                _mot_value({(("t", (3,)), ("log2",)): Fraction(4, 7)}, henv),
                genseries_residual(0.05, 0.03, 0.25, 2, env), digamma_B(0.3, henv)]

    with mpmath.workprec(8):
        low = values()
    assert [(v.val, v.err) for v in low] == [(v.val, v.err) for v in values()]


def _reference_dp(ks, signs, odd: bool, M: int):
    """The float64 nested-sum DP over q(m) = 2m - 1 (odd) or m: partial
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


# shared prefixes, signed words with and without their all-positive twin,
# a last entry 1 with an alternating sign, and a duplicate
DP_ITEMS = [
    ((2,), (1,)), ((2, 1), (1, 1)), ((2, 1, 2), (1, 1, 1)), ((2, 1, 2), (1, -1, 1)),
    ((2, 1, 3), (1, -1, -1)), ((1, 1, 2), (-1, 1, 1)), ((3, 2, 2, 1), (-1, 1, -1, -1)),
    ((2, 2, 2, 2, 1, 2), (1,) * 6), ((1,), (-1,)), ((4, 1), (1, -1)), ((2, 1, 2), (1, 1, 1)),
]


def _dp_value(ks, signs, odd: bool, env: NumEnv) -> MPFloat:
    """The path-split value of the nested sum that _reference_dp truncates."""
    if odd:
        return t_num(ks, env)
    return altz_num(SignedIndex(tuple(s * k for k, s in zip(ks, signs)), 0), env)


def _dp_tail(ks, M: int, env: NumEnv) -> float:
    # Each term is at most the matching term of the all-positive twin over
    # all n (q(m) >= m), so the sum's terms beyond M add at most zeta(twin)
    # minus the twin's partial sum at M, which carries its own rounding.
    twin = altz_num(SignedIndex(ks, 0), env)
    return float(twin.val) + twin.err - _reference_dp(ks, (1,) * len(ks), False, M)[-1] + _dp_rounding(ks, M)


def _dp_rounding(ks, M: int) -> float:
    return 4 * len(ks) * M * 2.0 ** -52


@pytest.mark.parametrize("M", [1, 2, 4095, 4096, 4097, 8193, 50_000])
@pytest.mark.parametrize("odd", [True, False])
def test_blocked_pass_is_bit_identical_to_the_full_length_dp(M, odd):
    # One pass over a word stores every prefix of its halves, and a batch
    # shares those passes through the memo.  Every convergent prefix of a
    # batch item, evaluated after its longer ones, has bit for bit the value and
    # bound of a cold evaluation of that prefix alone; cutoff= changes
    # nothing.  Against the full-length float64 DP at M terms each prefix
    # agrees within its bound, the DP's rounding and the dropped tail.
    # The signed sums over odd denominators have no path-split value.
    items = [(ks, signs) for ks, signs in DP_ITEMS if not (odd and -1 in signs)]
    random.Random(M).shuffle(items)
    env = NumEnv(prec=53, cutoff=M)
    checked = 0
    for ks, signs in items:
        refs = _reference_dp(ks, signs, odd, M)
        for i in range(len(ks), 0, -1):  # longest first: its passes serve the rest
            if ks[i - 1] == 1 and (odd or signs[i - 1] > 0):
                continue  # divergent prefix
            warm = _dp_value(ks[:i], signs[:i], odd, env)
            cold = _dp_value(ks[:i], signs[:i], odd, NumEnv(prec=53))
            assert (warm.val, warm.err) == (cold.val, cold.err), (ks[:i], signs[:i])
            if ks[i - 1] > 1:
                slack = _dp_tail(ks[:i], M, env) + _dp_rounding(ks[:i], M)
                assert abs(float(warm.val) - refs[i - 1]) <= warm.err + slack, (ks[:i], signs[:i])
                checked += 1
    assert checked == (11 if odd else 20)


@pytest.mark.parametrize("odd", [True, False])
def test_nested_sums_match_the_reference_and_single_calls(odd):
    # A batch with memo hits and duplicates gives the values and bounds of
    # one cold call per item, and each lies within its bound, the DP's
    # rounding and a tail below 1e-2 of the float64 DP at M = 50 000.
    M = 50_000
    items = [(ks, signs) for ks, signs in DP_ITEMS if ks[-1] > 1 and not (odd and -1 in signs)]
    assert len(items) == (4 if odd else 7)
    rng = random.Random(7)
    env = NumEnv(prec=64)
    for ks, signs in items[:2]:  # memo hits inside the batch
        _dp_value(ks, signs, odd, env)
    batch = items + rng.sample(items, 3)
    rng.shuffle(batch)
    got = [_dp_value(ks, signs, odd, env) for ks, signs in batch]
    want = [_dp_value(ks, signs, odd, NumEnv(prec=64)) for ks, signs in batch]
    assert [(v.val, v.err) for v in got] == [(v.val, v.err) for v in want]
    for (ks, signs), value in zip(batch, got):
        tail = _dp_tail(ks, M, env)
        assert abs(float(value.val) - _reference_dp(ks, signs, odd, M)[-1]) <= value.err + tail + _dp_rounding(ks, M)
        assert tail < 1e-2


@pytest.mark.parametrize("prec", [64, 128])
def test_t_values_match_their_alternating_expansion(prec):
    # the native split of each t index of weight <= 8 against the split of
    # its 2^depth alternating words
    env = NumEnv(prec=prec)
    for k in _t_indices(8):
        native, expanded = t_num(k, env), lincomb_num(t_to_zeta(k), env)
        assert native.agrees_with(expanded), k
        assert native.err <= 2.0 ** -(prec + 3), k


@pytest.mark.parametrize("prec", [53, 64, 128])
def test_t_identities_within_the_bound(prec):
    env = NumEnv(prec=prec)
    with mpmath.workprec(prec + 40):
        cases = [((k,), (1 - mpmath.mpf(2) ** -k) * mpmath.zeta(k)) for k in range(2, 8)]
        cases += [((2,) * n, mpmath.pi ** (2 * n) / (4 ** n * mpmath.factorial(2 * n))) for n in range(2, 5)]
        cases.append(((1, 2), -mpmath.mpf(7) / 16 * mpmath.zeta(3) + mpmath.pi ** 2 / 8 * mpmath.log(2)))
        for k, true in cases:
            v = t_num(k, env)
            assert abs(v.val - true) <= v.err + 2.0 ** -(prec + 30), k
            assert v.err <= 2.0 ** -(prec + 4), k


def test_altz_num_builds_each_word_once(monkeypatch):
    # the word of a signed index is memoised per index, so warm calls only
    # look up the split memo; a divergent index is refused alike each time
    built = []
    monkeypatch.setattr(numoracle, "to_int_word", lambda s: built.append(s) or to_int_word(s))
    env = NumEnv(prec=53)
    for _ in range(3):
        for s in [zi(2), zi(1, -2), zi(-1)]:
            altz_num(s, env)
        with pytest.raises(ValueError, match=r"^divergent signed index z\(2,1\)$"):
            altz_num(zi(2, 1), env)
    with pytest.raises(ValueError, match=r"^divergent signed index z\(2,1\)$"):
        altz_num(zi(2, 1), NumEnv(prec=53))  # a cold env, the word already memoised
    assert built == [zi(2), zi(1, -2), zi(-1), zi(2, 1)]
    assert ("split", to_int_word(zi(2, 1))) not in env._sums
