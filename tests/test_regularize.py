import itertools
import math
from fractions import Fraction

import pytest

from mtv import regularize
from mtv.errors import InvariantError
from mtv.indexcore import SignedIndex, from_int_word, signed_indices, signings, to_int_word, trailing_run, zi
from mtv.regularize import (
    EMPTY,
    canonicalize,
    distribution_residual,
    rho_apply,
    sh_from_st,
    shift_param,
    shuffle_reg,
    st_via_sh0,
    stuffle_reg,
    t_shuffle_reg0,
    t_st_from_sh,
    t_stuffle_reg,
    word_shuffle_reg,
    zeta_ones,
)
from mtv.symring import LOG2, PARAMS, PI2, SymPoly, lc_add, lc_iadd, lc_is_zero, lc_put, lc_scale, lc_sub
from mtv.verify import _certified_check, _layer_values
from mtv.wordalg import _stuffle_parts, shuffle, shuffle_lincomb, stuffle, stuffle_lincomb

from conftest import _clear_memos
from test_symring import _assert_canonical

T = SymPoly.gen("T")
U = SymPoly.gen("U")
W = SymPoly.gen("W")
V = SymPoly.gen("V")
ZERO = SymPoly.zero()


def test_stuffle_reg_za1():
    for a in (2, 3, 5):
        out = stuffle_reg(zi(a, 1), U)
        assert out == {zi(a): U, zi(1, a): SymPoly.const(-1), zi(a + 1): SymPoly.const(-1)}


def test_stuffle_reg_za11():
    # the a = 2 instance collapses the two zeta(2,2)-type terms
    out = stuffle_reg(zi(2, 1, 1), U)
    expect = {
        zi(2): U * U * Fraction(1, 2),
        zi(3): -U,
        zi(1, 2): -U,
        zi(4): SymPoly.const(Fraction(1, 2)),
        zi(1, 3): SymPoly.one(),
        zi(1, 1, 2): SymPoly.one(),
    }
    assert out == expect
    # generic a keeps all eight terms of the stated expansion
    out = stuffle_reg(zi(3, 1, 1), U)
    expect = {
        zi(3): U * U * Fraction(1, 2),
        zi(4): -U,
        zi(1, 3): -U,
        zi(5): SymPoly.const(Fraction(1, 2)),
        zi(1, 4): SymPoly.one(),
        zi(2, 3): SymPoly.const(Fraction(1, 2)),
        zi(3, 2): SymPoly.const(Fraction(-1, 2)),
        zi(1, 1, 3): SymPoly.one(),
    }
    assert out == expect


def test_stuffle_reg_convergent_passthrough():
    assert stuffle_reg(zi(3), U) == {zi(3): SymPoly.one()}


def test_shuffle_reg_211():
    out = shuffle_reg(zi(2, 1, 1), W)
    assert out == {
        zi(2): W * W * Fraction(1, 2),
        zi(1, 2): -2 * W,
        zi(1, 1, 2): SymPoly.const(3),
    }


def test_shuffle_reg_doubly_divergent_211():
    # one leading zero and two trailing ones; the terminal coefficient
    # of the depth-three block is -1 (cross-checked by zero-unshuffling
    # and by hand)
    out = shuffle_reg(SignedIndex((2, 1, 1), 1), W)
    expect = {
        zi(2): -W ** 3 * Fraction(1, 2),
        zi(3): -(W * W),
        zi(1, 2): 2 * W * W,
        zi(1, 3): 4 * W,
        zi(2, 2): W,
        zi(1, 1, 2): -3 * W,
        zi(1, 1, 3): SymPoly.const(-6),
        zi(1, 2, 2): SymPoly.const(-2),
        zi(2, 1, 2): SymPoly.const(-1),
    }
    assert out == expect


def test_shuffle_reg_ones_only():
    # zeta^{sh,W}(1^a) = W^a / a!
    for a in range(1, 5):
        out = shuffle_reg(SignedIndex((1,) * a, 0), W)
        assert out == {EMPTY: W ** a * Fraction(1, math.factorial(a))}


def test_word_strip_order_independent():
    # the closed form must equal the letter-by-letter recursion; this one
    # strips leading zeros before trailing ones, the reverse of the order
    # the closed form's value-0 steps use
    cache: dict = {}

    def reg_zero_first(w, wval):
        w = tuple(w)
        if (w, wval) in cache:
            return cache[w, wval]
        if not w:
            return {(): SymPoly.one()}
        if w[0] == 0:
            beta = len(w) - len(tuple(itertools.dropwhile(lambda x: x == 0, w)))
            u = w[1:]
            out = lc_scale(reg_zero_first(u, wval), wval)
            for v, m in shuffle(u, (0,)).items():
                if v != w:
                    out = lc_add(out, lc_scale(reg_zero_first(v, wval), -m))
            out = lc_scale(out, Fraction(1, beta))
        elif w[-1] == 1:
            alpha = len(w) - len(tuple(itertools.dropwhile(lambda x: x == 1, reversed(w))))
            u = w[:-1]
            out = lc_scale(reg_zero_first(u, wval), wval)
            for v, m in shuffle(u, (1,)).items():
                if v != w:
                    out = lc_add(out, lc_scale(reg_zero_first(v, wval), -m))
            out = lc_scale(out, Fraction(1, alpha))
        else:
            out = {w: SymPoly.one()}
        cache[w, wval] = out
        return out

    for wval in (ZERO, -W, -T, 2 * W - LOG2):
        for length in range(7):
            for w in itertools.product((0, 1, -1), repeat=length):
                assert lc_is_zero(lc_sub(word_shuffle_reg(w, wval), reg_zero_first(w, wval))), (w, wval)


def test_shift_param_exact_and_roundtrip():
    S = SymPoly.gen("S")
    for s in signed_indices(4):
        assert lc_is_zero(lc_sub(stuffle_reg(s, T), shift_param("stuffle", s, ZERO, T)))
        assert lc_is_zero(lc_sub(shuffle_reg(s, T), shift_param("shuffle", s, S, T)))
    # shifting U down to 0 and back reproduces the polynomial
    s = zi(2, 1)
    down = shift_param("stuffle", s, U, ZERO)
    assert down == stuffle_reg(s, ZERO)
    up = shift_param("stuffle", s, ZERO, U)
    assert up == stuffle_reg(s, U)


def test_rho_values():
    assert rho_apply(T) == T
    assert rho_apply(T ** 2) == T ** 2 + PI2 * Fraction(1, 6)
    z3 = SymPoly.gen("z3")
    assert rho_apply(T ** 3) == T ** 3 + 3 * (PI2 * Fraction(1, 6)) * T - 2 * z3


def test_zeta_ones():
    P = SymPoly.gen("T")
    assert zeta_ones(0, P) == SymPoly.one()
    assert zeta_ones(1, P) == P
    assert zeta_ones(2, P) == P * P * Fraction(1, 2) - PI2 * Fraction(1, 12)
    z3 = SymPoly.gen("z3")
    assert zeta_ones(3, P) == (
        P ** 3 * Fraction(1, 6) - P * PI2 * Fraction(1, 12) + z3 * Fraction(1, 3)
    )


def _rho_term_by_term(p, param="T"):
    """The comparison map as first written: each P^k of p rebuilt from
    the 'plus' series, term by term, on every call."""
    deg = p.max_degree(param)
    E = regularize._exp_series("plus", deg)
    out = SymPoly.zero()
    for k in range(deg + 1):
        image = SymPoly.zero()
        for j in range(k + 1):
            image = image + E[j] * SymPoly.gen(param, k - j) * Fraction(math.factorial(k), math.factorial(k - j))
        out = out + p.coeff_of_power(param, k) * image
    return out


def test_rho_apply_matches_the_term_by_term_definition():
    for k in range(9):
        assert rho_apply(T ** k) == _rho_term_by_term(T ** k), k
    mixed = T ** 4 * Fraction(-3, 5) + PI2 * T ** 2 + LOG2 * T * 7 + SymPoly.gen("z3") - 2
    for _ in range(2):  # the second pass reads the memoised images
        assert rho_apply(mixed) == _rho_term_by_term(mixed)
    assert rho_apply(U ** 3, "U") == _rho_term_by_term(U ** 3, "U") != _rho_term_by_term(T ** 3)


def test_zeta_ones_memo_takes_a_number_or_a_polynomial():
    # the memo keys on the parameter as passed; a constant polynomial and
    # its value hash alike, so they share one entry and one value
    assert zeta_ones(3, 2) is zeta_ones(3, SymPoly.const(2))
    assert zeta_ones(3, Fraction(1, 2)) == zeta_ones(3, SymPoly.const(Fraction(1, 2)))
    with pytest.raises(ValueError, match="i >= 0"):
        zeta_ones(-1, T)


def test_rho_inverts_zeta_ones():
    for i in range(9):
        assert rho_apply(zeta_ones(i, T)) == SymPoly.gen("T", i, Fraction(1, math.factorial(i)))


def test_sh_from_st_fixes_single_trailing_one():
    # a single trailing 1 gives a linear parameter polynomial, which the
    # comparison map leaves untouched
    for s in (zi(2, 1), zi(3, 1), zi(-2, 1)):
        assert lc_is_zero(lc_sub(sh_from_st(s, "T"), stuffle_reg(s, T)))


def test_stuffle_reg_multiplicative():
    small = list(signed_indices(3))
    for a in small:
        for b in small:
            lhs: dict = {}
            for key, m in stuffle(a, b).items():
                lhs = lc_add(lhs, lc_scale(stuffle_reg(key, T), m))
            rhs = stuffle_lincomb(stuffle_reg(a, T), stuffle_reg(b, T))
            assert lc_is_zero(lc_sub(lhs, rhs))


def test_t_st_from_sh_weight1():
    # t*(1) = V: the half-log carried by the signed weight-one index
    # cancels against the shifted parameter once depth-one constants
    # are rewritten
    from mtv.regularize import reduce_depth1

    out = reduce_depth1(t_st_from_sh((1,), V))
    assert out == {EMPTY: V}


def test_t_st_from_sh_alpha1_shape():
    # t*({2},1) = t_sh0(2,1) + (V - log2/2) t_sh0(2) as combinations
    lhs = t_st_from_sh((2, 1), V)
    rhs = lc_add(
        t_shuffle_reg0((2, 1)),
        lc_scale(t_shuffle_reg0((2,)), V - LOG2 * Fraction(1, 2)),
    )
    assert lc_is_zero(lc_sub(lhs, rhs))


def test_t_stuffle_reg_t21():
    # t*(2,1) = V t(2) - t(1,2) - t(3), then converted to signed form
    out = t_stuffle_reg((2, 1), V)
    expect: dict = {}
    from mtv.wordalg import t_to_zeta

    expect = lc_add(expect, lc_scale(t_to_zeta((2,)), V))
    expect = lc_add(expect, lc_scale(t_to_zeta((1, 2)), Fraction(-1)))
    expect = lc_add(expect, lc_scale(t_to_zeta((3,)), Fraction(-1)))
    assert lc_is_zero(lc_sub(out, expect))


def test_distribution_weight1_special_case():
    # zeta_sh(1) + zeta_sh(bar 1) - zeta_sh(1) = -log 2, structurally
    lhs = lc_add(shuffle_reg(zi(1), W), shuffle_reg(zi(-1), W))
    lhs = lc_sub(lhs, shuffle_reg(zi(1), W))
    assert lhs == {zi(-1): SymPoly.one()}  # the signed index worth -log 2


def _distribution_verdict(k, alpha, ell, env) -> str:
    values = _layer_values(distribution_residual(k, alpha, ell), env)
    return _certified_check("distribution", "distribution", values).status


def test_layers_split_by_the_powers_of_one_parameter():
    from mtv.numoracle import NumEnv

    env = NumEnv(prec=64)
    assert _layer_values({}, env) == []
    values = _layer_values({zi(2): T * T + PI2, zi(3): T, zi(2, -1): SymPoly.const(Fraction(1, 3))}, env)
    assert len(values) == 3 and all(v.err > 0 for v in values)
    with pytest.raises(InvariantError, match=r"\['T', 'W'\]"):
        _layer_values({zi(2): T, zi(3): W * PI2}, env)


def test_distribution_depth1_plain():
    from mtv.numoracle import NumEnv

    assert lc_is_zero(distribution_residual((2,), 0, 0))
    assert _distribution_verdict((2,), 0, 0, NumEnv(prec=64)) == "PASS"


def test_distribution_structural_at_alpha0():
    for k in [(2,), (3,), (1, 2), (2, 2)]:
        for ell in (0, 1):
            assert lc_is_zero(distribution_residual(k, 0, ell))


def test_distribution_small_sweep():
    from mtv.numoracle import NumEnv

    env = NumEnv(prec=64)
    for k in [(2,), (1, 2)]:
        for alpha in (0, 1, 2):
            for ell in (0, 1):
                assert _distribution_verdict(k, alpha, ell, env) == "PASS", (k, alpha, ell)


def test_distribution_check_reports_its_bound():
    from mtv.numoracle import NumEnv
    from mtv.verify import coherence_checks

    dist = next(r for r in coherence_checks(NumEnv(prec=64), max_weight=4) if r.ref == "distribution")
    assert dist.status == "PASS" and dist.residual is not None
    assert dist.residual <= dist.bound <= 1e-6


def test_word_product_on_zeta_side():
    # zeta(2) * zeta(bar 1) expands in the word shuffle to three terms;
    # zeta(s) = (-1)^depth I(word(s)) on both factors and on every product word
    prod: dict = {}
    for w, m in shuffle(to_int_word(zi(2)), to_int_word(zi(-1))).items():
        s = from_int_word(w)
        prod[s] = (-1) ** (1 + 1 + s.depth) * m
    assert prod == {zi(-1, 2): 1, zi(-1, -2): 1, zi(-2, -1): 1}


def test_distribution_residual_matches_signed_index_assembly():
    # the word-basis assembly equals both sides built from signed-index
    # shuffle_reg values, multiplied through the word shuffle term by term
    def to_words(lc):
        return {to_int_word(s): (-1) ** s.depth * SymPoly.coerce(c) for s, c in lc.items()}

    def from_words(lc):
        out: dict = {}
        for w, c in lc.items():
            s = from_int_word(w)
            out = lc_add(out, {s: (-1) ** s.depth * c})
        return out

    def word_mul(a, b):
        return from_words(shuffle_lincomb(to_words(a), to_words(b)))

    for k in [(2,), (3,), (4,), (1, 2), (2, 2), (1, 3), (1, 1, 2)]:
        d, w = len(k), sum(k)
        for alpha in range(3):
            for ell in range(2):
                param = ZERO if ell else W
                lhs: dict = {}
                for eps in itertools.product((1, -1), repeat=d):
                    for delta in itertools.product((1, -1), repeat=alpha):
                        parts = tuple(e * x for e, x in zip(eps, k)) + delta
                        lhs = lc_add(lhs, shuffle_reg(SignedIndex(parts, ell), param))
                lhs = lc_scale(lhs, Fraction(2 ** (w + ell - d)))
                rhs: dict = {}
                power: dict = {EMPTY: SymPoly.one()}
                for i in range(alpha + 1):
                    term = word_mul(shuffle_reg(SignedIndex(k + (1,) * (alpha - i), ell), param), power)
                    rhs = lc_add(rhs, lc_scale(term, Fraction(1, math.factorial(i))))
                    power = word_mul(power, {zi(-1): SymPoly.one()})
                expect = canonicalize(lc_sub(lhs, rhs))
                assert distribution_residual(k, alpha, ell) == expect, (k, alpha, ell)


def test_regularized_keys_convergent_in_one_parameter():
    # every key is convergent and no parameter but the chosen one occurs
    for s in signed_indices(5):
        for out, param in ((stuffle_reg(s, U), "U"), (shuffle_reg(s, W), "W")):
            for key, coeff in out.items():
                assert key.is_convergent(), (s, key)
                assert coeff.generators() & set(PARAMS) <= {param}, (s, key, coeff)
    out = stuffle_reg(zi(2, 1, 1), U)
    assert max(c.max_degree("U") for c in out.values()) == 2
    assert out[zi(1, 1, 2)] == SymPoly.one()


def test_memo_values_survive_regularization_sweep():
    # results are accumulated in place; a memoised value must never be the
    # dict that receives the sums
    from mtv import regularize

    small = list(signed_indices(4))
    snapshot = {(s, p): (dict(stuffle_reg(s, p)), dict(shuffle_reg(s, p))) for s in small for p in (T, ZERO)}
    st_cache = {k: dict(v) for k, v in regularize._st_cache.items()}
    sh_cache = {k: dict(v) for k, v in regularize._sh_cache.items()}
    word_cache = {k: dict(v) for k, v in regularize._word_cache.items()}
    st_tables = {k: ({key: dict(c) for key, c in table.items()}, den)
                 for k, (table, den) in regularize._st_table_cache.items()}
    for s in small:
        lc_sub(stuffle_reg(s, ZERO), shift_param("stuffle", s, T, ZERO))
        lc_sub(stuffle_reg(s, T), st_via_sh0(s, T))
        lc_sub(shuffle_reg(s, T), shift_param("shuffle", s, ZERO, T))
        lc_add(sh_from_st(s, "T"), st_via_sh0(s, T))
        stuffle_lincomb(stuffle_reg(s, T), stuffle_reg(s, ZERO))
    distribution_residual((2,), 2, 0)
    t_st_from_sh((2, 1, 1), V)
    for (s, p), (st, sh) in snapshot.items():
        assert stuffle_reg(s, p) == st and shuffle_reg(s, p) == sh, (s, p)
    assert all(regularize._st_cache[k] == v for k, v in st_cache.items())
    assert sh_cache and all(regularize._sh_cache[k] == v for k, v in sh_cache.items())
    assert all(regularize._word_cache[k] == v for k, v in word_cache.items())
    assert st_tables and all(regularize._st_table_cache[k] == v for k, v in st_tables.items())


def test_regularization_output_weight_homogeneous():
    # coefficient weight plus index weight is constant across each output
    for s in signed_indices(5):
        for out in (stuffle_reg(s, U), shuffle_reg(s, W)):
            weights = set()
            for key, coeff in out.items():
                cw = coeff.weight()
                assert cw is not None
                weights.add(cw + key.weight)
            assert weights == {s.weight}


def test_input_preconditions_raise():
    for call in (lambda: stuffle_reg(zi(2, lz=1), T),
                 lambda: shift_param("stuffle", zi(2, 1, lz=1), ZERO, T),
                 lambda: st_via_sh0(zi(2, 1, lz=1), T)):
        with pytest.raises(ValueError, match="lead_zeros = 0, got 1"):
            call()
    for k in ((), (2, 1)):
        with pytest.raises(ValueError, match="end above 1"):
            distribution_residual(k, 1, 0)
    with pytest.raises(ValueError, match="parameter must be 0"):
        distribution_residual((2,), 1, 1, param=W)
    assert lc_is_zero(distribution_residual((2,), 0, 1, param=ZERO))


def test_distribution_residual_refuses_non_positive_entries():
    # the relation is stated for positive entries; a signed prefix would
    # scale the left side by a fractional power of 2
    for k in ((-2,), (1, -2)):
        with pytest.raises(ValueError, match="positive"):
            distribution_residual(k, 1, 0)


def test_broken_multiplicities_raise(monkeypatch):
    # a product that miscounts the input's own multiplicity breaks the peeling recursion
    monkeypatch.setattr(regularize, "_st_cache", {})
    monkeypatch.setattr(regularize, "_sh_cache", {})
    monkeypatch.setattr(regularize, "_word_cache", {})
    monkeypatch.setattr(regularize, "_reg0_cache", {})
    monkeypatch.setattr(regularize, "_stuffle_parts", lambda u, v: ((u + v, 2),))
    with pytest.raises(InvariantError, match=r"\(2, 1\) occurs 2 times .* not 1"):
        stuffle_reg(zi(2, 1), T)
    # a shuffle that appends a +1 makes the closed form emit a divergent word:
    # 0 1 -1 -> 1 (0 sh -1) would become 1 0 -1 1
    monkeypatch.setattr(regularize, "_shuffle_words", lambda u, v: ((u + v + (1,), 1),))
    with pytest.raises(InvariantError, match=r"divergent word \(1, 0, -1, 1\)"):
        word_shuffle_reg((0, 1, -1), -W)
    # a value that raised is not memoised: its check runs again through shuffle_reg
    with pytest.raises(InvariantError, match=r"divergent word \(1, 0, -1, 1\)"):
        shuffle_reg(from_int_word((0, 1, -1)), W)
    # a run counter that misses the trailing ones leaves a prefix ending in 1
    monkeypatch.setattr(regularize, "trailing_run", lambda w, letter: 0)
    with pytest.raises(InvariantError, match="still ends in 1"):
        st_via_sh0(zi(2, 1), T)


# ---------------------------------------------------------------------------
# the integer-numerator forms against the symbolic ones they replaced
# ---------------------------------------------------------------------------

def _stuffle_reg_reference(s, param, memo):
    """The peeling recursion run on SymPoly coefficients at param, as
    stuffle_reg computed it before the parameter-free table; memo is the
    caller's {parts: result} for this one param."""
    if s.parts in memo:
        return memo[s.parts]
    if s.is_convergent():
        out = {s: SymPoly.one()}
    else:
        parts = s.parts
        alpha = trailing_run(parts, 1)
        u = parts[:-1]
        out = lc_scale(_stuffle_reg_reference(SignedIndex(u, 0), param, memo), param)
        for v, m in _stuffle_parts(u, (1,)):
            if v == parts:
                assert m == alpha
                continue
            lc_iadd(out, lc_scale(_stuffle_reg_reference(SignedIndex(v, 0), param, memo), -m))
        out = lc_scale(out, Fraction(1, alpha))
    memo[s.parts] = out
    return out


def _word_shuffle_reg_reference(w, wval):
    """The Taylor form of word_shuffle_reg summed as SymPolys: one
    combination over the powers of wval per word."""
    m = trailing_run(w[::-1], 0) if wval else 0
    n = trailing_run(w[m:], 1) if wval else 0
    out: dict = {}
    for i in range(m + 1):
        for j in range(n + 1):
            scale = Fraction(1, math.factorial(i) * math.factorial(j))
            for v, c in regularize._reg0(w[i:len(w) - j]).items():
                lc_put(out, v, SymPoly.combination([(c * scale, wval ** (i + j))]))
    return out


def _distribution_residual_reference(k, alpha, ell, param=None):
    """distribution_residual assembled through lc_iadd, lc_scale and lc_sub
    on SymPoly coefficients."""
    param = ZERO if ell else (W if param is None else param)
    wval = -param
    d, w = len(k), sum(k)
    lhs: dict = {}
    for _, parts in signings(k + (1,) * alpha):
        lc_iadd(lhs, _word_shuffle_reg_reference(to_int_word(SignedIndex(parts, ell)), wval))
    lhs = lc_scale(lhs, Fraction(2) ** (w + ell - d))
    rhs: dict = {}
    for i in range(alpha + 1):
        for v, c in _word_shuffle_reg_reference(to_int_word(SignedIndex(k + (1,) * (alpha - i), ell)), wval).items():
            for x, m in shuffle(v, (-1,) * i).items():
                lc_put(rhs, x, c * m)
    diff: dict = {}
    for v, c in lc_sub(lhs, rhs).items():
        s = from_int_word(v)
        diff[s] = -c if (d + alpha + s.depth) % 2 else c
    return canonicalize(diff)


def _assert_canonical_lincomb(lc):
    for c in lc.values():
        _assert_canonical(c)


def test_stuffle_reg_matches_the_symbolic_recursion():
    lam_log2 = SymPoly.gen("lam") * LOG2
    for P in (T, ZERO, V, 2 * V - LOG2, lam_log2):
        memo: dict = {}
        for s in signed_indices(5):
            got = stuffle_reg(s, P)
            assert got == _stuffle_reg_reference(s, P, memo), (s, P)
            _assert_canonical_lincomb(got)
            if P == T:
                # sh_from_st maps the same table through the comparison map
                want = {key: r for key, c in got.items() if (r := rho_apply(c))}
                assert sh_from_st(s, "T") == want, s
                _assert_canonical_lincomb(sh_from_st(s, "T"))


def test_word_shuffle_reg_matches_the_symbolic_taylor_form():
    for wval in (-T, T, ZERO, 2 * W + 1):
        for length in range(6):
            for w in itertools.product((0, 1, -1), repeat=length):
                got = word_shuffle_reg(w, wval)
                assert got == _word_shuffle_reg_reference(w, wval), (w, wval)
                _assert_canonical_lincomb(got)


def test_distribution_residual_matches_the_symbolic_assembly():
    grid = [(k, alpha, ell, None) for k in [(2,), (3,), (4,), (1, 2), (2, 2), (1, 3), (1, 1, 2)]
            for alpha in range(3) for ell in (0, 1)]
    grid += [(k, alpha, 0, P) for k in [(2,), (1, 2)] for alpha in range(3) for P in (V, 2 * V + 1, ZERO)]
    for k, alpha, ell, P in grid:
        got = distribution_residual(k, alpha, ell, P)
        assert got == _distribution_residual_reference(k, alpha, ell, P), (k, alpha, ell, P)
        _assert_canonical_lincomb(got)
    # the residual sums its words itself: no symbolic-W word enters the word memo
    assert not any(wval for _, wval in regularize._word_cache)


def test_stuffle_reg_at_zero_after_T_equals_a_cold_one():
    indices = list(signed_indices(5))
    warm = {}
    for s in indices:
        stuffle_reg(s, T)
        warm[s] = stuffle_reg(s, ZERO)
    _clear_memos()
    for s in indices:
        assert stuffle_reg(s, ZERO) == warm[s], s


def test_a_raising_index_stores_nothing(monkeypatch):
    # the self multiplicity of (2, 1, 1) in (2, 1) * (1) doubled: the index
    # raises, and so does every index whose recursion reaches it
    real = regularize._stuffle_parts

    def broken(u, v):
        return tuple((x, 2 * m if u == (2, 1) and x == u + v else m) for x, m in real(u, v))

    monkeypatch.setattr(regularize, "_stuffle_parts", broken)
    for call in (lambda: stuffle_reg(zi(2, 1, 1), T), lambda: stuffle_reg(zi(2, 1, 1, 1), ZERO),
                 lambda: sh_from_st(zi(2, 1, 1, 1), "T")):
        with pytest.raises(InvariantError, match=r"\(2, 1, 1\) occurs 4 times .* not 2"):
            call()
        assert regularize._st_table_cache == {} and regularize._st_cache == {}
