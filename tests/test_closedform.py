import math
from fractions import Fraction

import pytest

from mtv.closedform import (
    coeff_c_21,
    coeff_c_231,
    coeff_d_121,
    coeff_d_232,
    eval_t12n,
    eval_t22,
    eval_t2212_sh,
    eval_t2212_star,
    eval_t2232,
    eval_t2232_tilde,
    eval_z2232,
    zbar_reduce,
    zl_2212,
)
from mtv.indexcore import SignedIndex
from mtv.numoracle import NumEnv, altz_num, eval_num
from mtv.symring import LOG2, PI2, SymPoly, zeta_sym

V = SymPoly.gen("V")
W = SymPoly.gen("W")
T = SymPoly.gen("T")


# -- reference forms: each term a Fraction bracket times a SymPoly product ---

def ref_t22_tilde(a):
    """2^(2a) t({2}^a) = pi^(2a) / (2a)!."""
    return SymPoly.const(Fraction(4 ** a)) * eval_t22(a)


def ref_z22(m):
    """zeta({2}^m) = pi^(2m) / (2m+1)!."""
    return SymPoly.gen("pi2", m, Fraction(1, math.factorial(2 * m + 1))) if m else SymPoly.one()


def ref_t2212_star(a, b, V=None):
    V = SymPoly.gen("V") if V is None else SymPoly.coerce(V)
    terms = []
    for r in range(1, a + b + 1):
        bracket = Fraction(math.comb(2 * r, 2 * a)) + Fraction(4 ** r, 4 ** r - 1) * math.comb(2 * r, 2 * b)
        terms.append((-Fraction((-1) ** r, 4 ** r) * bracket, zbar_reduce(2 * r + 1) * eval_t22(a + b - r)))
    if a == 0:
        terms.append((1, LOG2 * eval_t22(b)))
    if b == 0:
        terms.append((1, (V - LOG2) * eval_t22(a)))
    return SymPoly.combination(terms)


def ref_t2212_sh(a, b):
    return ref_t2212_star(a, b, V=(W + LOG2) * Fraction(1, 2))


def ref_t2232_tilde(a, b):
    def term(r):
        bracket = Fraction(math.comb(2 * r, 2 * a + 1)) + (1 - Fraction(1, 4 ** r)) * math.comb(2 * r, 2 * b + 1)
        return (-1) ** (r + 1) * 2 * bracket, zeta_sym(2 * r + 1) * ref_t22_tilde(a + b + 1 - r)

    return SymPoly.combination(term(r) for r in range(1, a + b + 2))


def ref_t2232(a, b):
    return SymPoly.const(Fraction(1, 2) ** (2 * a + 2 * b + 3)) * ref_t2232_tilde(a, b)


def ref_A(r, a):
    """Zagier's A^r_{a,b} = C(2r, 2a+2)."""
    return Fraction(math.comb(2 * r, 2 * a + 2))


def ref_B(r, b):
    """Zagier's B^r_{a,b} = (1 - 4^(-r)) C(2r, 2b+1)."""
    return (1 - Fraction(1, 4 ** r)) * math.comb(2 * r, 2 * b + 1)


def ref_z2232(a, b):
    return SymPoly.combination(((-1) ** r * 2 * (ref_A(r, a) - ref_B(r, b)),
                                zeta_sym(2 * r + 1) * ref_z22(a + b + 1 - r)) for r in range(1, a + b + 2))


# -- reference tables: the Fraction formulas, independent of the int cells ---

def ref_c_231(a, b):
    n = a + b + 1
    return 2 * Fraction((-1) ** (a + b)) * (
        -Fraction(math.comb(2 * n, 2 * a + 2)) + (1 - Fraction(1, 4 ** n)) * math.comb(2 * n, 2 * b + 1)
    )


def ref_d_121(a, b):
    n = a + b
    return 4 * Fraction((-1) ** n) * (1 - Fraction(1, 2 ** (2 * n + 1))) * math.comb(2 * n, 2 * a)


def ref_d_232(a, b):
    n = a + b + 1
    return 4 * Fraction((-1) ** (a + b)) * (1 - Fraction(1, 2 ** (2 * n + 1))) * math.comb(2 * n, 2 * a + 1)


def ref_zl_2212(alpha, beta):
    if beta == 0:
        return coeff_c_21(alpha)
    r = alpha + beta
    return 2 * Fraction((-1) ** r) * (ref_A(r, beta - 1) - ref_B(r, alpha))


def _stored(p):
    return list(p.num.items()), p.den


def test_closed_forms_store_what_the_reference_products_store():
    # the same monomials in the same order over the same denominator
    assert ref_t22_tilde(1) == PI2 * Fraction(1, 2)
    assert ref_z22(2) == SymPoly.gen("pi2", 2, Fraction(1, 120))
    pairs = [(eval_t2212_sh, ref_t2212_sh), (eval_t2232, ref_t2232),
             (eval_t2232_tilde, ref_t2232_tilde), (eval_z2232, ref_z2232)]
    for a in range(8):
        for b in range(8):
            assert _stored(eval_t2212_star(a, b)) == _stored(ref_t2212_star(a, b)), (a, b)
            for v in (T, 0, (W + LOG2) * Fraction(1, 2)):
                assert _stored(eval_t2212_star(a, b, v)) == _stored(ref_t2212_star(a, b, v)), (a, b, v)
            for new, ref in pairs:
                assert _stored(new(a, b)) == _stored(ref(a, b)), (new.__name__, a, b)


def test_tables_equal_the_fraction_formulas():
    # each table reads a pi2^0 int cell of its closed form; the value and
    # the type are the Fraction formula's
    pairs = [(coeff_c_231, ref_c_231), (coeff_d_121, ref_d_121), (coeff_d_232, ref_d_232), (zl_2212, ref_zl_2212)]
    for a in range(12):
        for b in range(12):
            for table, ref in pairs:
                got, want = table(a, b), ref(a, b)
                assert (got, type(got)) == (want, Fraction), (table.__name__, a, b)


def test_coefficient_values():
    assert coeff_c_21(0) == 0
    assert coeff_c_21(1) == -2
    assert coeff_c_231(1, 0) == Fraction(-11, 2)  # word 23
    assert coeff_c_231(0, 1) == Fraction(9, 2)  # word 32
    assert coeff_d_121(0, 2) == Fraction(31, 8)  # word 122
    assert coeff_d_121(0, 0) == 2  # the weight-one normalization
    assert coeff_d_121(1, 0) == Fraction(-7, 2)
    assert coeff_d_121(1, 1) == Fraction(93, 4)
    assert coeff_d_232(0, 0) == 7


def test_matrix_entry_combinations():
    assert -2 * coeff_c_21(1) == 4
    assert 8 * coeff_c_231(1, 0) - 8 * coeff_c_231(0, 1) == -80
    assert -8 * coeff_c_231(1, 0) + 8 * coeff_c_231(0, 1) + 8 * coeff_d_121(0, 2) == 111


def test_zl_2212_duality_consistency():
    # zeta-l({2}^b, 1, {2}^(a+1)) agrees with the three-insertion table
    for a in range(0, 4):
        for b in range(0, 4):
            assert zl_2212(b, a + 1) == coeff_c_231(a, b)
    # zeta(1,2) = zeta(3) at the linear level
    assert zl_2212(0, 1) == 1


def test_eval_t22():
    assert eval_t22(0) == SymPoly.one()
    assert eval_t22(1) == PI2 * Fraction(1, 8)
    assert eval_t22(2) == SymPoly.gen("pi2", 2, Fraction(1, 384))


def test_zbar_reduce():
    assert zbar_reduce(1) == -LOG2
    assert zbar_reduce(3) == SymPoly.gen("z3", 1, Fraction(-3, 4))
    assert zbar_reduce(2) == SymPoly.gen("pi2", 1, Fraction(-1, 12))


def test_t2212_star_base_cases():
    assert eval_t2212_star(0, 0) == V
    assert eval_t2212_star(0, 1) == PI2 * LOG2 * Fraction(1, 8) + SymPoly.gen("z3", 1, Fraction(-7, 16))


def test_t2212_sh_equals_star_at_shifted_parameter():
    for a in range(0, 4):
        for b in range(0, 4):
            star = eval_t2212_star(a, b, (W + LOG2) * Fraction(1, 2))
            sh = eval_t2212_sh(a, b, W)
            assert (star - sh).is_zero
            # against the star form at an independent V, only the b = 0 term moves
            boundary = ((W - LOG2) * Fraction(1, 2) - (V - LOG2)) * eval_t22(a) if b == 0 else 0
            assert sh - eval_t2212_star(a, b, V) == boundary


def test_t12n_equals_boundary_family():
    for n in range(1, 9):
        assert (eval_t2212_star(0, n, V) - eval_t12n(n)).is_zero
    with pytest.raises(ValueError):
        eval_t12n(0)


def test_t2212_v_derivative():
    for a in range(0, 5):
        for b in range(0, 5):
            dv = eval_t2212_star(a, b, V).deriv("V")
            assert dv == (eval_t22(a) if b == 0 else SymPoly.zero())


def test_t2232_top_coefficient_is_d232():
    for a in range(0, 4):
        for b in range(0, 4):
            p = eval_t2232_tilde(a, b)
            w = 2 * a + 2 * b + 3
            coeff = p.coeff_of_power(f"z{w}", 1)
            assert coeff.const_value() == coeff_d_232(a, b)


def test_z2232_base():
    assert eval_z2232(0, 0) == zeta_sym(3)
    # zeta(2,3) = -11/2 zeta(5) + 3 zeta(2) zeta(3)
    p = eval_z2232(1, 0)
    assert p.coeff_of_power("z5", 1).const_value() == Fraction(-11, 2)
    assert p.coeff_of_power("z3", 1) == SymPoly.gen("pi2", 1, Fraction(1, 2))


@pytest.mark.parametrize("table, args, name", [
    pytest.param(coeff_c_21, (-1,), "a", id="coeff_c_21-args2-a"),  # fixed ids: stable case names in reports
    pytest.param(coeff_c_231, (-1, 0), "a", id="coeff_c_231-args3-a"),
    pytest.param(coeff_d_121, (0, -1), "b", id="coeff_d_121-args4-b"),
    pytest.param(coeff_d_232, (-2, 1), "a", id="coeff_d_232-args5-a"),
    pytest.param(zl_2212, (-1, 0), "alpha", id="zl_2212-args6-alpha"),
])
def test_tables_refuse_a_negative_argument(table, args, name):
    with pytest.raises(ValueError, match=f"need {name} >= 0, got -"):
        table(*args)


def test_evaluators_refuse_a_negative_argument():
    for f in (eval_t2212_star, eval_t2212_sh, eval_t2232, eval_t2232_tilde, eval_z2232):
        with pytest.raises(ValueError, match="need b >= 0, got -1"):
            f(0, -1)
    with pytest.raises(ValueError, match="need a >= 0, got -1"):
        eval_t22(-1)


def test_z2232_against_the_oracle():
    # the zeta({2}^a, 3, {2}^b) closed form, whose cells coeff_c_231 and
    # zl_2212 read, against the path-split value, each residual within its bound
    env = NumEnv(prec=53)
    for a in range(4):
        for b in range(4 - a):
            d = eval_num(eval_z2232(a, b), env) - altz_num(SignedIndex((2,) * a + (3,) + (2,) * b, 0), env)
            assert abs(float(d.val)) <= d.err <= 1e-6, (a, b)


def test_unshuffle_lie_projection_cross_check():
    # zeta_1({2}^a) unshuffles to -2 sum_j zeta({2}^j, 3, {2}^(a-1-j));
    # at the linear level this forces sum_j c[2^j 3 2^(a-1-j)] = (-1)^(a+1),
    # matching the direct value c[2^a 1] = 2 (-1)^a
    for a in (1, 2, 3):
        total = sum(coeff_c_231(j, a - 1 - j) for j in range(a))
        assert -2 * total == coeff_c_21(a)


def test_oracle_checks_hold_each_residual_to_its_certified_bound():
    from mtv.numoracle import MPFloat, NumEnv
    from mtv.verify import _certified_check, closedform_checks, genseries_checks

    env = NumEnv(prec=53)
    results = [r for r in closedform_checks(env=env) if r.residual is not None] + genseries_checks(env=env)
    assert len(results) == 6
    for r in results:
        assert r.status == "PASS" and r.residual <= r.bound < 1e-6, r.ref
    # the verdict is per entry: one residual outside its own bound fails the
    # check even when it is below the worst bound, and so does a bound above 1e-6
    assert _certified_check("n", "r", [MPFloat(2e-9, 1e-9), MPFloat(0.0, 1e-7)]).status == "FAIL"
    assert _certified_check("n", "r", [MPFloat(0.0, 2e-6)]).status == "FAIL"
    r = _certified_check("n", "r", [MPFloat(-5e-10, 1e-9), MPFloat(1e-8, 1e-7)])
    assert (r.status, r.residual, r.bound) == ("PASS", 1e-8, 1e-7)
    # nothing to settle passes with residual and bound 0
    r = _certified_check("n", "r", [])
    assert (r.status, r.residual, r.bound) == ("PASS", 0.0, 0.0)
