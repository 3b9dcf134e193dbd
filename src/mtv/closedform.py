"""Closed-form evaluations and the rational coefficient tables.

All identities are returned fully reduced: barred depth-one zetas are
rewritten through their eta-function values, even zetas become powers
of pi2, so two equal closed forms are structurally identical SymPolys.

The insertion families t*({2}^a, 1, {2}^b), t({2}^a, 3, {2}^b) and
zeta({2}^a, 3, {2}^b) are sums of z(2r+1) pi2^m, one term per r.  One
cell function per family (t2212_cell, t2232_tilde_cell, z2232_cell)
gives the coefficient of z(2r+1) pi2^m as an int numerator over an int
denominator; each evaluator builds one canonical SymPoly from its cells
over their lcm, with no Fraction and no SymPoly product per term.  The
numerators are ints because the factor 1 - 4^(-r) of zeta(bar 2r+1) and
of Zagier's B-table cancels against 4^r: (4^r/(4^r-1)) (1 - 4^(-r)) = 1,
and 4^r (1 - 4^(-r)) = 4^r - 1.  With m the pi2 exponent:

    t*({2}^a,1,{2}^b)   (-1)^r [C(2r,2a) (4^r-1) + 4^r C(2r,2b)]
                            / (4^(2r+m) (2m)!),                 m = a+b-r
    ttilde({2}^a,3,{2}^b)  (-1)^(r+1) 2 [4^r C(2r,2a+1) + (4^r-1) C(2r,2b+1)]
                            / (4^r (2m)!),                      m = a+b+1-r
    zeta({2}^a,3,{2}^b) (-1)^r 2 [4^r C(2r,2a+2) - (4^r-1) C(2r,2b+1)]
                            / (4^r (2m+1)!),                    m = a+b+1-r

plus, for t*, the log2 and V boundary terms at a = 0 and at b = 0.

The derivation matrices consume four coefficient families, written here
with word subscripts: c[2^a 3 2^b] and c[2^a 1] are the single-zeta
coefficients of depth-one-reducible zeta blocks in the linearized
quotient, d[2^a 1 2^b] and d[2^a 3 2^b] the corresponding coefficients
for the rescaled t blocks.  Each of c[2^a 3 2^b], d[2^a 1 2^b] and
d[2^a 3 2^b] is the pi2^0 cell of its closed form, read as a Fraction
(d[2^a 1 2^b] rescaled by 2^(2a+2b+1)), and c[2^a 1 2^b] (zl_2212) is by
duality the three-insertion table c[2^(b-1) 3 2^a], or c[2^a 1] at
b = 0.  Every table refuses a negative argument with a ValueError
naming it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .symring import LOG2, SymPoly, _reduced, zeta_sym


def _need_nonneg(args: dict) -> None:
    """Refuse a negative argument, naming it (ValueError)."""
    for name, v in args.items():
        if v < 0:
            raise ValueError(f"need {name} >= 0, got {v}")


# ---------------------------------------------------------------------------
# the integer cells: (n, d) for the coefficient n/d of z(2r+1) pi2^m
# ---------------------------------------------------------------------------

def t2212_cell(r: int, a: int, b: int) -> tuple:
    """The cell of t*({2}^a, 1, {2}^b) at r, m = a+b-r."""
    q, m = 4 ** r, a + b - r
    n = (-1) ** r * (math.comb(2 * r, 2 * a) * (q - 1) + q * math.comb(2 * r, 2 * b))
    return n, q * q * 4 ** m * math.factorial(2 * m)


def t2232_tilde_cell(r: int, a: int, b: int) -> tuple:
    """The cell of the rescaled t({2}^a, 3, {2}^b) at r, m = a+b+1-r."""
    q, m = 4 ** r, a + b + 1 - r
    n = (-1) ** (r + 1) * 2 * (q * math.comb(2 * r, 2 * a + 1) + (q - 1) * math.comb(2 * r, 2 * b + 1))
    return n, q * math.factorial(2 * m)


def z2232_cell(r: int, a: int, b: int) -> tuple:
    """The cell of zeta({2}^a, 3, {2}^b) at r, m = a+b+1-r."""
    q, m = 4 ** r, a + b + 1 - r
    n = (-1) ** r * 2 * (q * math.comb(2 * r, 2 * a + 2) - (q - 1) * math.comb(2 * r, 2 * b + 1))
    return n, q * math.factorial(2 * m + 1)


# ---------------------------------------------------------------------------
# rational coefficient tables: the pi2^0 cells of the closed forms
# ---------------------------------------------------------------------------

def coeff_c_21(a: int) -> Fraction:
    """Coefficient of z(2a+1) in the linearized zeta({2}^a, 1); zero at a = 0."""
    _need_nonneg({"a": a})
    if a == 0:
        return Fraction(0)
    return Fraction(2 * (-1) ** a)


def coeff_c_231(a: int, b: int) -> Fraction:
    """Coefficient of z(2a+2b+3) in the linearized zeta({2}^a, 3, {2}^b)."""
    _need_nonneg({"a": a, "b": b})
    return Fraction(*z2232_cell(a + b + 1, a, b))


def coeff_d_121(a: int, b: int) -> Fraction:
    """Coefficient of z(2a+2b+1) in the linearized rescaled t({2}^a, 1, {2}^b):
    2^(2a+2b+1) times the t*({2}^a, 1, {2}^b) cell at r = a+b, which is
    the weight-one normalization 2 at a = b = 0."""
    _need_nonneg({"a": a, "b": b})
    return Fraction(*t2212_cell(a + b, a, b)) * 2 ** (2 * a + 2 * b + 1)


def coeff_d_232(a: int, b: int) -> Fraction:
    """Coefficient of z(2a+2b+3) in the linearized rescaled t({2}^a, 3, {2}^b)."""
    _need_nonneg({"a": a, "b": b})
    return Fraction(*t2232_tilde_cell(a + b + 1, a, b))


def zl_2212(alpha: int, beta: int) -> Fraction:
    """Coefficient of z(2*alpha+2*beta+1) in the linearized
    zeta({2}^alpha, 1, {2}^beta): by duality the three-insertion entry
    c[2^(beta-1) 3 2^alpha] for beta >= 1, the trailing-1 value at beta = 0."""
    _need_nonneg({"alpha": alpha, "beta": beta})
    return coeff_c_231(beta - 1, alpha) if beta else coeff_c_21(alpha)


# ---------------------------------------------------------------------------
# depth-one reductions
# ---------------------------------------------------------------------------

def zbar_reduce(m: int) -> SymPoly:
    """zeta(bar m) as a SymPoly: -log2 at m = 1, -(1 - 2^(1-m)) zeta(m) above."""
    if m < 1:
        raise ValueError("need m >= 1")
    if m == 1:
        return -LOG2
    return SymPoly.const(-(1 - Fraction(1, 2 ** (m - 1)))) * zeta_sym(m)


def eval_t22(a: int) -> SymPoly:
    """t({2}^a) = pi^(2a) / (2^(2a) (2a)!)."""
    _need_nonneg({"a": a})
    return SymPoly.gen("pi2", a, Fraction(1, 4 ** a * math.factorial(2 * a))) if a else SymPoly.one()


# ---------------------------------------------------------------------------
# the one-insertion and three-insertion families
# ---------------------------------------------------------------------------

def _zeta_pi2_poly(cells, extra=()) -> SymPoly:
    """sum (n/d) pi2^m z(2r+1) over the cells (r, m, n, d), plus the
    SymPolys in extra, as one canonical SymPoly: every int numerator is
    put over the lcm of the denominators and the zeros are dropped once,
    so the monomials keep the order of the cells, then of extra."""
    den = math.lcm(*(d for *_, d in cells), *(p.den for p in extra))
    num = {}
    for r, m, n, d in cells:
        z = (f"z{2 * r + 1}", 1)
        num[(("pi2", m), z) if m else (z,)] = n * (den // d)
    for p in extra:
        f = den // p.den
        for mono, c in p.num.items():
            num[mono] = num.get(mono, 0) + c * f
    return _reduced({mono: c for mono, c in num.items() if c}, den)


def eval_t2212_star(a: int, b: int, V=None) -> SymPoly:
    """Stuffle-regularized t({2}^a, 1, {2}^b) with t*(1) = V:

        -sum_{r=1}^{a+b} (-1)^r 2^(-2r) [C(2r,2a) + 4^r/(4^r-1) C(2r,2b)]
            zeta(bar 2r+1) t({2}^(a+b-r))
        + [a=0] log2 t({2}^b) + [b=0] (V - log2) t({2}^a)

    With zeta(bar 2r+1) = -(1 - 4^(-r)) z(2r+1), the coefficient of
    z(2r+1) pi2^(a+b-r) is t2212_cell(r, a, b).
    """
    _need_nonneg({"a": a, "b": b})
    V = SymPoly.gen("V") if V is None else SymPoly.coerce(V)
    cells = [(r, a + b - r, *t2212_cell(r, a, b)) for r in range(1, a + b + 1)]
    extra = []
    if a == 0:
        extra.append(LOG2 * eval_t22(b))
    if b == 0:
        extra.append((V - LOG2) * eval_t22(a))
    return _zeta_pi2_poly(cells, extra)


def eval_t2212_sh(a: int, b: int, W=None) -> SymPoly:
    """Shuffle-regularized variant: the stuffle form at V = (W + log2)/2,
    which changes only the b = 0 boundary term, to (W - log2)/2 t({2}^a)."""
    W = SymPoly.gen("W") if W is None else SymPoly.coerce(W)
    return eval_t2212_star(a, b, V=(W + LOG2) * Fraction(1, 2))


def eval_t12n(n: int) -> SymPoly:
    """t(1, {2}^n) for n >= 1:

        2^(-2n) ( sum_{r=0}^{n-1} (-1)^r (-zeta(bar 2r+1)) pi^(2(n-r)) / (2(n-r))!
                  + (-1)^n 2 (1 - 2^(-2n-1)) zeta(2n+1) )
    """
    if n < 1:
        raise ValueError("t(1) is divergent; need n >= 1")
    acc = SymPoly.zero()
    for r in range(n):
        piece = SymPoly.gen("pi2", n - r, Fraction(1, math.factorial(2 * (n - r))))
        acc = acc + Fraction((-1) ** r) * (-zbar_reduce(2 * r + 1)) * piece
    acc = acc + SymPoly.const(Fraction((-1) ** n * 2) * (1 - Fraction(1, 2 ** (2 * n + 1)))) * zeta_sym(2 * n + 1)
    return SymPoly.const(Fraction(1, 4 ** n)) * acc


def eval_t2232_tilde(a: int, b: int) -> SymPoly:
    """Rescaled t({2}^a, 3, {2}^b):

        sum_{r=1}^{a+b+1} (-1)^(r+1) 2 [C(2r,2a+1) + (1-2^(-2r)) C(2r,2b+1)]
            zeta(2r+1) ttilde({2}^(a+b+1-r))

    with ttilde({2}^m) = pi2^m / (2m)!: the coefficient of z(2r+1)
    pi2^(a+b+1-r) is t2232_tilde_cell(r, a, b).

    Divide by 2^(2a+2b+3) for the plain t value.
    """
    _need_nonneg({"a": a, "b": b})
    return _zeta_pi2_poly([(r, a + b + 1 - r, *t2232_tilde_cell(r, a, b)) for r in range(1, a + b + 2)])


def eval_t2232(a: int, b: int) -> SymPoly:
    """t({2}^a, 3, {2}^b): each int numerator of the rescaled form over
    2^(2a+2b+3) 4^r (2m)!."""
    return eval_t2232_tilde(a, b) * Fraction(1, 2 ** (2 * a + 2 * b + 3))


def eval_z2232(a: int, b: int) -> SymPoly:
    """zeta({2}^a, 3, {2}^b) as a polynomial in odd zetas and pi2:

        sum_{r=1}^{a+b+1} (-1)^r 2 (A^r_{a,b} - B^r_{a,b}) zeta(2r+1) zeta({2}^(a+b+1-r))

    with Zagier's A^r_{a,b} = C(2r,2a+2), B^r_{a,b} = (1 - 4^(-r))
    C(2r,2b+1) and zeta({2}^m) = pi2^m / (2m+1)!: the coefficient of
    z(2r+1) pi2^(a+b+1-r) is z2232_cell(r, a, b).
    """
    _need_nonneg({"a": a, "b": b})
    return _zeta_pi2_poly([(r, a + b + 1 - r, *z2232_cell(r, a, b)) for r in range(1, a + b + 2)])
