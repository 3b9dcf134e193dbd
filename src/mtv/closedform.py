"""Closed-form evaluations and the rational coefficient tables.

All identities are returned fully reduced: barred depth-one zetas are
rewritten through their eta-function values, even zetas become powers
of pi2, so two equal closed forms are structurally identical SymPolys.

The derivation matrices consume four coefficient families, written here
with word subscripts: c[2^a 3 2^b] and c[2^a 1] are the single-zeta
coefficients of depth-one-reducible zeta blocks in the linearized
quotient, d[2^a 1 2^b] and d[2^a 3 2^b] the corresponding coefficients
for the rescaled t blocks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .symring import LOG2, SymPoly, zeta_sym


# ---------------------------------------------------------------------------
# rational coefficient tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def coeff_A(r: int, a: int, b: int) -> Fraction:
    return Fraction(math.comb(2 * r, 2 * a + 2))


@lru_cache(maxsize=None)
def coeff_B(r: int, a: int, b: int) -> Fraction:
    return (1 - Fraction(1, 4 ** r)) * math.comb(2 * r, 2 * b + 1)


def coeff_c_21(a: int) -> Fraction:
    """Coefficient of z(2a+1) in the linearized zeta({2}^a, 1); zero at a = 0."""
    if a == 0:
        return Fraction(0)
    return Fraction(2 * (-1) ** a)


def coeff_c_231(a: int, b: int) -> Fraction:
    """Coefficient of z(2a+2b+3) in the linearized zeta({2}^a, 3, {2}^b)."""
    n = a + b + 1
    return 2 * Fraction((-1) ** (a + b)) * (
        -Fraction(math.comb(2 * n, 2 * a + 2)) + (1 - Fraction(1, 4 ** n)) * math.comb(2 * n, 2 * b + 1)
    )


def coeff_d_121(a: int, b: int) -> Fraction:
    """Coefficient of z(2a+2b+1) in the linearized rescaled t({2}^a, 1, {2}^b)."""
    n = a + b
    return 4 * Fraction((-1) ** n) * (1 - Fraction(1, 2 ** (2 * n + 1))) * math.comb(2 * n, 2 * a)


def coeff_d_232(a: int, b: int) -> Fraction:
    """Coefficient of z(2a+2b+3) in the linearized rescaled t({2}^a, 3, {2}^b)."""
    n = a + b + 1
    return 4 * Fraction((-1) ** (a + b)) * (1 - Fraction(1, 2 ** (2 * n + 1))) * math.comb(2 * n, 2 * a + 1)


def zl_2212(alpha: int, beta: int) -> Fraction:
    """Coefficient of z(2*alpha+2*beta+1) in the linearized
    zeta({2}^alpha, 1, {2}^beta), for beta >= 1 via the duality-shuffled
    table, and the trailing-1 value for beta = 0."""
    if beta == 0:
        return coeff_c_21(alpha)
    r = alpha + beta
    return 2 * Fraction((-1) ** r) * (coeff_A(r, beta - 1, alpha) - coeff_B(r, beta - 1, alpha))


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
    if a < 0:
        raise ValueError("need a >= 0")
    return SymPoly.gen("pi2", a, Fraction(1, 4 ** a * math.factorial(2 * a))) if a else SymPoly.one()


def eval_t22_tilde(a: int) -> SymPoly:
    """Rescaled version 2^(2a) t({2}^a) = pi^(2a) / (2a)!."""
    return SymPoly.const(Fraction(4 ** a)) * eval_t22(a)


def eval_z22(m: int) -> SymPoly:
    """zeta({2}^m) = pi^(2m) / (2m+1)!."""
    if m < 0:
        raise ValueError("need m >= 0")
    return SymPoly.gen("pi2", m, Fraction(1, math.factorial(2 * m + 1))) if m else SymPoly.one()


# ---------------------------------------------------------------------------
# the one-insertion and three-insertion families
# ---------------------------------------------------------------------------

def eval_t2212_star(a: int, b: int, V=None) -> SymPoly:
    """Stuffle-regularized t({2}^a, 1, {2}^b) with t*(1) = V:

        -sum_{r=1}^{a+b} (-1)^r 2^(-2r) [C(2r,2a) + 4^r/(4^r-1) C(2r,2b)]
            zeta(bar 2r+1) t({2}^(a+b-r))
        + [a=0] log2 t({2}^b) + [b=0] (V - log2) t({2}^a)
    """
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0")
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

    Divide by 2^(2a+2b+3) for the plain t value.
    """
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0")

    def term(r):
        bracket = Fraction(math.comb(2 * r, 2 * a + 1)) + (1 - Fraction(1, 4 ** r)) * math.comb(2 * r, 2 * b + 1)
        return (-1) ** (r + 1) * 2 * bracket, zeta_sym(2 * r + 1) * eval_t22_tilde(a + b + 1 - r)

    return SymPoly.combination(term(r) for r in range(1, a + b + 2))


def eval_t2232(a: int, b: int) -> SymPoly:
    return SymPoly.const(Fraction(1, 2) ** (2 * a + 2 * b + 3)) * eval_t2232_tilde(a, b)


def eval_z2232(a: int, b: int) -> SymPoly:
    """zeta({2}^a, 3, {2}^b) as a polynomial in odd zetas and pi2:

        sum_{r=1}^{a+b+1} (-1)^r 2 (A^r_{a,b} - B^r_{a,b}) zeta(2r+1) zeta({2}^(a+b+1-r))
    """
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0")
    return SymPoly.combination(((-1) ** r * 2 * (coeff_A(r, a, b) - coeff_B(r, a, b)),
                                zeta_sym(2 * r + 1) * eval_z22(a + b + 1 - r)) for r in range(1, a + b + 2))
