import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mtv.symring import PI2, LOG2, SymPoly, _gen_key, _mono_mul, bernoulli, even_zeta, zeta_sym

GENS = ["pi2", "log2", "z3", "z5", "V", "T", "lam"]


def monomials():
    return st.dictionaries(st.sampled_from(GENS), st.integers(0, 3), max_size=3).map(
        lambda d: tuple(sorted((g, e) for g, e in d.items() if e))
    )


def sympolys(max_terms=4):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.dictionaries(monomials(), coeffs, max_size=max_terms).map(SymPoly)


SCALARS = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def test_even_zeta_small():
    assert even_zeta(2) == SymPoly.gen("pi2", 1, Fraction(1, 6))
    assert even_zeta(4) == SymPoly.gen("pi2", 2, Fraction(1, 90))
    assert even_zeta(6) == SymPoly.gen("pi2", 3, Fraction(1, 945))
    assert even_zeta(8) == SymPoly.gen("pi2", 4, Fraction(1, 9450))


def test_even_zeta_euler_recursion_oracle():
    # (n + 1/2) zeta(2n) = sum_{j=1}^{n-1} zeta(2j) zeta(2n-2j)
    for n in range(2, 9):
        lhs = SymPoly.const(Fraction(2 * n + 1, 2)) * even_zeta(2 * n)
        rhs = SymPoly.zero()
        for j in range(1, n):
            rhs = rhs + even_zeta(2 * j) * even_zeta(2 * n - 2 * j)
        assert (lhs - rhs).is_zero


def test_even_zeta_rejects_odd():
    with pytest.raises(ValueError):
        even_zeta(3)


def test_bernoulli():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_weight():
    assert (PI2 * LOG2).weight() == 3
    assert SymPoly.one().weight() == 0
    assert (PI2 + LOG2).weight() is None
    assert zeta_sym(7).weight() == 7
    assert SymPoly.gen("lam").weight() == 0


def test_substitute():
    U, V = SymPoly.gen("U"), SymPoly.gen("V")
    # U -> 2V - log2 applied to U + log2 gives 2V
    assert (U + LOG2).substitute({"U": 2 * V - LOG2}) == 2 * V
    p = V ** 2
    assert p.substitute({"V": SymPoly.gen("lam") * LOG2}) == SymPoly.gen("lam", 2) * LOG2 ** 2
    assert p.substitute({"V": V}) == p
    with pytest.raises(ValueError):
        p.substitute({"pi2": V})


def test_deriv():
    V = SymPoly.gen("V")
    assert (V ** 3).deriv("V") == 3 * V ** 2
    assert PI2.deriv("V").is_zero


@settings(max_examples=1000, deadline=None)
@given(sympolys(), sympolys(), sympolys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=300, deadline=None)
@given(sympolys(), sympolys())
def test_weight_additive_on_homogeneous(a, b):
    wa, wb = a.weight(), b.weight()
    if wa is None or wb is None or a.is_zero or b.is_zero:
        return
    prod = a * b
    if not prod.is_zero:
        assert prod.weight() == wa + wb


def test_text_form():
    p = SymPoly.gen("z3", 1, Fraction(-7, 16)) + PI2 * LOG2 * Fraction(1, 8)
    assert p.text() == "-7/16*z3 + 1/8*pi2*log2"


def _assert_canonical(r):
    # the stored form: nonzero int numerators over one den > 0, gcd 1
    assert type(r.den) is int and r.den > 0
    assert all(type(c) is int and c != 0 for c in r.num.values())
    assert math.gcd(r.den, *r.num.values()) == 1
    for m in r.num:
        assert all(e > 0 for _, e in m) and list(m) == sorted(m, key=lambda ge: _gen_key(ge[0]))
    # the read form: the same monomials, in the same order, as nonzero Fractions
    terms = r.terms
    assert list(terms) == list(r.num)
    assert all(type(c) is Fraction and c != 0 for c in terms.values())
    fresh = SymPoly(terms)
    assert list(fresh.num.items()) == list(r.num.items()) and fresh.den == r.den


def _validated_sum(a, b):
    terms = dict(a.terms)
    for m, c in b.terms.items():
        terms[m] = terms.get(m, 0) + c
    return SymPoly(terms)


def _validated_product(a, b):
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            d = dict(m1)
            for g, e in m2:
                d[g] = d.get(g, 0) + e
            m = tuple(d.items())
            terms[m] = terms.get(m, 0) + c1 * c2
    return SymPoly(terms)


@settings(max_examples=300, deadline=None)
@given(sympolys(), sympolys(), SCALARS, st.sampled_from(GENS), st.integers(0, 3))
def test_trusted_results_are_canonical(a, b, q, g, k):
    results = [a + b, a - b, -a, a * b, a * q, q * a, a + q, q - a, a.deriv(g), a.coeff_of_power(g, k),
               SymPoly.const(q), SymPoly.coerce(q), SymPoly.combination([(q, a), (1, b), (-1, b)])]
    for r in results:
        _assert_canonical(r)
    assert results[-1] == a * q
    # the same terms, in the same order, as the validating constructor gives
    for fast, slow in ((a + b, _validated_sum(a, b)), (a * b, _validated_product(a, b)),
                       (a * q, _validated_product(a, SymPoly({(): q})))):
        assert list(fast.terms.items()) == list(slow.terms.items())


@settings(max_examples=300, deadline=None)
@given(monomials(), monomials())
def test_mono_mul_matches_dict_merge(m1, m2):
    m1, m2 = (next(iter(SymPoly({m: 1}).terms)) for m in (m1, m2))
    merged = dict(m1)
    for g, e in m2:
        merged[g] = merged.get(g, 0) + e
    assert _mono_mul(m1, m2) == _mono_mul(m2, m1) == next(iter(SymPoly({tuple(merged.items()): 1}).terms))


def test_validation_stays_in_public_constructors():
    for bad in ({(("x", 1),): 1}, {(("V", -1),): 1}):
        with pytest.raises(ValueError):
            SymPoly(bad)
    with pytest.raises(ValueError, match="unknown generator"):
        SymPoly.gen("zeta3")
    with pytest.raises(ValueError, match="negative exponent"):
        SymPoly.gen("V", -2)


def test_floats_never_enter_the_ring():
    p = SymPoly.gen("V") + 1
    for bad in (0.1, 1.0, mpmath.mpf("0.5")):
        for build in (SymPoly.const, SymPoly.coerce, lambda c: SymPoly({(): c}),
                      lambda c: SymPoly.gen("V", 1, c), lambda c: p * c, lambda c: c * p,
                      lambda c: p + c, lambda c: c - p):
            with pytest.raises(TypeError, match="int or Fraction"):
                build(bad)
    assert SymPoly.const(True) == SymPoly.one() and SymPoly.coerce(Fraction(1, 3)) * 3 == 1


def test_gen_refuses_what_the_constructor_refuses():
    # gen builds its dict directly, so it repeats the constructor's checks
    for name, exp in (("x", 1), ("zeta3", 2), ("x", 0)):
        with pytest.raises(ValueError, match="unknown generator"):
            SymPoly.gen(name, exp)
    with pytest.raises(ValueError, match="negative exponent"):
        SymPoly.gen("pi2", -1)
    with pytest.raises(TypeError, match="int or Fraction"):
        SymPoly.gen("T", 2, 0.5)
    for c in (0, 3, Fraction(-2, 5)):
        assert SymPoly.gen("T", 0, c) == SymPoly.const(c) == SymPoly({(): c})
        assert SymPoly.gen("T", 2, c) == SymPoly({(("T", 2),): c})
    assert SymPoly.gen("z3", 1, 0).is_zero


@given(sympolys())
@settings(max_examples=60, deadline=None)
def test_hash_agrees_with_equality(p):
    q = SymPoly(dict(p.terms))  # an equal polynomial built afresh
    assert p == q and hash(p) == hash(q)
    assert hash(p) == hash(p)  # the kept hash


def test_a_constant_hashes_as_its_value():
    for q in (0, 2, Fraction(3, 7)):
        assert SymPoly.const(q) == q and hash(SymPoly.const(q)) == hash(q)
    assert len({SymPoly.const(2), 2}) == 1 and len({SymPoly.zero(), Fraction(0)}) == 1
    assert {SymPoly.const(Fraction(3, 7)): "memo"}[Fraction(3, 7)] == "memo"


def test_const_value_is_always_a_fraction():
    for p, v in ((SymPoly.const(3), 3), (SymPoly.zero(), 0), (SymPoly.one(), 1),
                 (SymPoly.gen("T", 0, -4), -4), (SymPoly.gen("T") * 0 + 2, 2),
                 (SymPoly.const(Fraction(6, 3)), 2), (SymPoly.const(Fraction(2, 3)) * 3, 2)):
        assert type(p.const_value()) is Fraction and p.const_value() == v


def test_restriction_and_derivative_reduce_again():
    T = SymPoly.gen("T")
    c = (T * Fraction(1, 2) + Fraction(1, 4)).coeff_of_power("T", 1)  # (2T + 1)/4 -> 2/4
    assert (c.num, c.den) == ({(): 1}, 2)
    d = (T ** 2 * Fraction(1, 4) + T * Fraction(1, 3)).deriv("T")  # (6T + 4)/12 -> (3T + 2)/6
    assert (d.num, d.den) == ({(("T", 1),): 3, (): 2}, 6)
    e = ((T ** 3 + 1) * Fraction(1, 3)).deriv("T")  # 3T^2/3 -> T^2
    assert (e.num, e.den) == ({(("T", 2),): 1}, 1)
    for r in (c, d, e):
        _assert_canonical(r)


@settings(max_examples=300, deadline=None)
@given(sympolys(), st.sampled_from(GENS), st.integers(0, 3))
def test_restriction_and_derivative_match_their_coefficientwise_definitions(a, g, k):
    kept, lowered = {}, {}
    for m, c in a.terms.items():
        e = dict(m).get(g, 0)
        if e == k:
            kept[tuple(ge for ge in m if ge[0] != g)] = c
        if e:
            lowered[tuple((h, f - 1 if h == g else f) for h, f in m)] = c * e
    for fast, slow in ((a.coeff_of_power(g, k), SymPoly(kept)), (a.deriv(g), SymPoly(lowered))):
        _assert_canonical(fast)
        assert (fast.num, fast.den) == (slow.num, slow.den) and list(fast.num) == list(slow.num)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(SCALARS, sympolys()), max_size=4))
def test_combination_with_mixed_int_and_fraction_scalars(pairs):
    r = SymPoly.combination(iter(pairs))
    _assert_canonical(r)
    folded, accumulated = SymPoly.zero(), {}
    for q, p in pairs:
        folded = folded + p * q
        for m, c in p.terms.items():
            accumulated[m] = accumulated.get(m, 0) + q * c
    # zeros are dropped once, after accumulating: the validating constructor's order
    assert r == folded and list(r.terms.items()) == list(SymPoly(accumulated).terms.items())


@settings(max_examples=200, deadline=None)
@given(sympolys(), sympolys(), sympolys(), st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_equal_polynomials_from_different_routes_hash_equally(a, b, c, q):
    routes = [(a + b) * c, a * c + b * c, c * b + c * a, SymPoly.combination([(1, a * c), (1, b * c)])]
    if q:
        routes.append(((a + b) * q * c) * (1 / q))
    routes.append(SymPoly(routes[0].terms))
    for r in routes:
        assert r == routes[0] and hash(r) == hash(routes[0])
