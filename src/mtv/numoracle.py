"""Independent multiprecision numerical verification.

Nested sums are evaluated by dynamic programming over a truncated
range, with an explicit tail correction (integral comparison with the
inner partial sum frozen at its cutoff value) and a conservative bound
on everything discarded: the frozen-inner error is dominated through a
polylogarithmic growth envelope on the inner partial sums, alternating
tails through the Leibniz bound.  Every reported value carries an
absolute error bound that is propagated through arithmetic.

One engine per precision: up to 53 bits the numpy float64 nested sums,
whose accuracy is set by the cutoff; above 53 bits the path split at 1/2
(Hoelder convolution), whose truncation is sized from its own geometric
tail bound, so its accuracy follows the precision.  Its series run in
exact integer fixed point, 20 guard bits below the precision: the ratios
are +-1/2 or 1/4, so each step is a shift or an integer floor division,
and the bound counts each such rounding (fewer than 3 d (n0 - 1) units
for a depth-d series cut at n0).  The Hoelder convolution multiplies and
sums those integers exactly.  The float64 sums stay the independent
cross-check of the path split.

MPFloat arithmetic is exact and ignores mpmath's global precision.  Every
rounding is a leaf value made here and charged to its own bound: the two
engines, and at prec + 15 bits (``NumEnv.work``) rational coefficients
(``rational_num``), constants, digamma with its zeta series and cos(pi x).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

from .indexcore import SignedIndex, to_int_word, word_blocks, word_is_convergent
from .symring import SymPoly
from .wordalg import t_to_zeta

_EPS64 = 2.220446049250313e-16


class MPFloat:
    """A value with a tracked absolute error bound.  Sums, differences,
    negations and products are formed exactly, whatever mpmath's global
    precision, so the bound carries only the propagated input bounds."""

    __slots__ = ("val", "err")

    def __init__(self, val, err=0.0):
        self.val = val
        self.err = float(err)

    def __repr__(self):
        return f"MPFloat({mpmath.nstr(mpmath.mpf(self.val), 20)} +- {self.err:.3e})"

    def __add__(self, other):
        other = _coerce(other)
        return MPFloat(mpmath.fadd(self.val, other.val, exact=True), self.err + other.err)

    __radd__ = __add__

    def __neg__(self):
        return MPFloat(mpmath.fneg(self.val, exact=True), self.err)

    def __sub__(self, other):
        other = _coerce(other)
        return MPFloat(mpmath.fsub(self.val, other.val, exact=True), self.err + other.err)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        a, b = abs(float(self.val)), abs(float(other.val))
        return MPFloat(mpmath.fmul(self.val, other.val, exact=True),
                       a * other.err + b * self.err + self.err * other.err)

    __rmul__ = __mul__

    def abs(self):
        return -self if self.val < 0 else MPFloat(self.val, self.err)

    def to_float(self) -> float:
        return float(self.val)

    def agrees_with(self, other, slack: float = 0.0) -> bool:
        diff = self - other
        return abs(float(diff.val)) <= diff.err + slack


def _coerce(x) -> MPFloat:
    if isinstance(x, MPFloat):
        return x
    if not (isinstance(x, (int, float)) or hasattr(x, "_mpf_")):  # a Fraction would round to the global precision
        raise TypeError(f"{x!r} is not an exact binary value; round it with rational_num")
    return MPFloat(x, 0.0)


class NumEnv:
    """Precision, cutoff and cached constants for the oracle."""

    def __init__(self, prec: int = 128, cutoff: int = 10 ** 6):
        if prec > 1000:  # error bounds are floats; 2^-(prec+15) must not underflow
            raise ValueError(f"prec must be at most 1000 bits, got {prec}")
        self.prec = prec
        self.cutoff = cutoff
        self._consts: dict = {}
        self._sums: dict = {}

    def work(self):
        """Context manager for the leaf roundings of this module: working
        precision prec + 15 bits.  MPFloat arithmetic needs none."""
        return mpmath.workprec(self.prec + 15)

    def const(self, name: str):
        hit = self._consts.get(name)
        if hit is None:
            with self.work():
                if name == "pi":
                    hit = +mpmath.pi
                elif name == "pi2":
                    hit = mpmath.pi ** 2
                elif name == "log2":
                    hit = mpmath.log(2)
                elif name == "euler":
                    hit = +mpmath.euler
                elif name.startswith("z"):
                    hit = mpmath.zeta(int(name[1:]))
                else:
                    raise KeyError(name)
            self._consts[name] = hit
        return hit

    def const_mpf(self, name: str) -> MPFloat:
        v = self.const(name)
        return MPFloat(v, abs(float(v)) * 2.0 ** (-self.prec - 10))


# ---------------------------------------------------------------------------
# nested sums
# ---------------------------------------------------------------------------

_grid_cache: dict = {}


def _grid(odd: bool, M: int):
    """Shared per-cutoff arrays: inverse denominators and the sign flip."""
    key = (odd, M)
    hit = _grid_cache.get(key)
    if hit is None:
        n = np.arange(1, M + 1, dtype=np.float64)
        base = 2.0 * n - 1.0 if odd else n
        inv = 1.0 / base
        alt = np.where(np.arange(1, M + 1) % 2 == 1, -1.0, 1.0)
        hit = (inv, alt)
        if len(_grid_cache) > 8:
            _grid_cache.clear()
        _grid_cache[key] = hit
    return hit


def _dp_float(ks, signs, odd: bool, M: int):
    """Partial sums A_i(M) for i = 1..d, float64 cumulative DP."""
    inv, alt = _grid(odd, M)
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


def _poly_mul_linear(p, c):
    q = [0.0] * (len(p) + 1)
    for j, a in enumerate(p):
        q[j + 1] += a
        q[j] += a * c
    return q


def _growth_envelope(ks, abs_tops, odd: bool, M: int):
    """Upper bound on A_i(n) - A_i(M), n > M, as a polynomial (list of
    nonnegative floats) in the log-ratio variable; levels 1..d-1.

    abs_tops[i] is the absolute-value partial sum of level i+1 at M.
    """
    poly = [0.0]
    for lvl in range(1, len(ks)):
        ahat_prev = 1.0 if lvl == 1 else float(abs_tops[lvl - 2])
        ki = ks[lvl - 1]
        base = poly[:]
        base[0] += ahat_prev
        if ki == 1:
            c1 = 1.0 / (2 * M) if odd else 1.0 / M
            poly = _poly_mul_linear(base, c1)
        else:
            if odd:
                tau = (2 * M - 1.0) ** (1 - ki) / (2 * (ki - 1))
            else:
                tau = float(M) ** (1 - ki) / (ki - 1)
            poly = [a * tau for a in base]
    return poly


def _tail_I(j: int, k: int, odd: bool, M: int) -> float:
    """sum_{n>M} logratio^j q(n)^-k, bounded by integral plus supremum."""
    if odd:
        integral = (2 * M - 1.0) ** (1 - k) * math.factorial(j) / (2.0 * (k - 1)) ** (j + 1)
        sup = ((j / (2.0 * k)) ** j) * math.exp(-j) * (2 * M - 1.0) ** (-k) if j else (2 * M + 1.0) ** (-k)
    else:
        integral = float(M) ** (1 - k) * math.factorial(j) / float(k - 1) ** (j + 1)
        sup = ((j / float(k)) ** j) * math.exp(-j) * float(M) ** (-k) if j else (M + 1.0) ** (-k)
    return integral + sup


def _nested_sum(env: NumEnv, ks, signs, odd: bool) -> MPFloat:
    ks = tuple(int(k) for k in ks)
    signs = tuple(int(s) for s in signs)
    M = env.cutoff
    key = (ks, signs, odd, M, env.prec)
    hit = env._sums.get(key)
    if hit is not None:
        return hit
    if not ks:
        raise ValueError("nested sum of the empty index")
    if ks[-1] < 2 and signs[-1] > 0:
        raise ValueError(f"divergent nested sum {ks, signs}")
    d = len(ks)
    tops = _dp_float(ks, signs, odd, M)
    round_err = 4.0 * d * M * _EPS64
    if all(s > 0 for s in signs):
        abs_tops = [abs(t) for t in tops]
    else:
        abs_tops = _dp_float(ks, [1] * d, odd, M)

    value = tops[-1]
    inner_top = tops[-2] if d > 1 else 1.0
    k_out = ks[-1]
    growth = _growth_envelope(ks, abs_tops, odd, M)

    # Tail accounting for the outermost index, with A the inner partial
    # sum and q the outer denominator:
    #   sum_{n>M} A(n-1) q(n)^-k
    #     = A(M) sum_{n>M} q(n)^-k            (corrected with bracketed
    #                                          integral bounds L <= . <= U)
    #     + sum_{n>M} [A(n-1)-A(M)] q(n)^-k   (dominated by the growth
    #                                          envelope against the
    #                                          integral+supremum bound)
    # Alternating outer factors drop the correction: the frozen part obeys
    # the Leibniz bound, the growth part is bounded in absolute value.
    inner_abs = abs(inner_top)
    if signs[-1] > 0:
        if odd:
            U = (2 * M - 1.0) ** (1 - k_out) / (2 * (k_out - 1))
            L = (2 * M + 1.0) ** (1 - k_out) / (2 * (k_out - 1))
        else:
            U = float(M) ** (1 - k_out) / (k_out - 1)
            L = float(M + 1) ** (1 - k_out) / (k_out - 1)
        value = value + inner_top * ((U + L) / 2.0)
        err = inner_abs * (U - L) / 2.0
        for j, c in enumerate(growth):
            if c:
                err += c * _tail_I(j, k_out, odd, M)
    else:
        q1 = (2.0 * (M + 1) - 1) if odd else float(M + 1)
        err = inner_abs * q1 ** (-k_out)
        for j, c in enumerate(growth):
            if not c:
                continue
            if k_out >= 2:
                err += c * _tail_I(j, k_out, odd, M)
            else:
                # alternating weight-one tail: twice the supremum of the
                # growth term, attained near n = M e^j
                sup = (float(j) ** j) * math.exp(-j) / M if j else 1.0 / (M + 1)
                err += 2.0 * c * sup

    out = MPFloat(mpmath.mpmathify(value), err + round_err)  # exact, unlike mpf(value)
    env._sums[key] = out
    return out


def t_num(k: tuple, env: NumEnv) -> MPFloat:
    """t(k), the nested sum over odd denominators; needs k_d >= 2.  Above
    53 bits it is the path-split value of its alternating expansion."""
    k = tuple(k)
    if not k:
        return MPFloat(mpmath.mpf(1), 0.0)
    if k[-1] < 2:
        raise ValueError(f"divergent t index {k}")
    if env.prec > 53:
        return lincomb_num(t_to_zeta(k), env)
    return _nested_sum(env, k, [1] * len(k), True)


def altz_num(s: SignedIndex, env: NumEnv) -> MPFloat:
    """Alternating zeta value of a convergent signed index: the nested
    sums up to 53 bits, the path split above."""
    if not s.parts:
        return MPFloat(mpmath.mpf(1), 0.0)
    if not s.is_convergent():
        raise ValueError(f"divergent signed index {s}")
    if env.prec > 53:
        return altz_num_holder(s, env)
    ks = tuple(abs(x) for x in s.parts)
    signs = tuple(1 if x > 0 else -1 for x in s.parts)
    return _nested_sum(env, ks, signs, False)


# ---------------------------------------------------------------------------
# path composition at 1/2: geometric-series evaluation of integral words
# ---------------------------------------------------------------------------
#
# Splitting the integration path at 1/2 turns any convergent word into a
# finite sum of products of polylogarithm-type series whose ratios are at
# most 1/2 in modulus, so truncation errors are controlled by explicit
# geometric bounds.  This is the evaluator behind the exactness verdicts;
# the plain nested sums above serve as its independent cross-check.

_GUARD_BITS = 20  # fixed-point bits kept below the precision
_RATIO_SHIFT = {1: 1, -1: 1, 2: 2}  # letter eta -> s with |y| = |1/(2 eta)| = 2^-s


def _poly_at_half(w, env: NumEnv):
    """I(0; w; 1/2) for a word over {0, 1, -1, 2}; returns (v, err), the
    value being v 2^-P for the signed integer v, P = prec + _GUARD_BITS.
    Memoised per word and precision.

    After telescoping, the series runs over increasing n_1 < ... < n_d
    with per-level ratios y_i = (1/2)/eta_i = +-2^-1 or 2^-2.  It runs in
    integer fixed point with P = prec + 20 fractional bits: the product by
    y_i is a right shift and a sign, the division by n^k_i an integer floor
    division, and the bound counts fewer than 3 d (n0 - 1) units 2^-P of
    rounding on top of the tail.
    """
    P = env.prec + _GUARD_BITS
    if not w:
        return 1 << P, 0.0
    key = ("half", w, env.prec)
    hit = env._sums.get(key)
    if hit is not None:
        return hit
    ks, etas = word_blocks(w)
    d = len(ks)
    n0 = 2 * d - 1  # the first dropped n_d: the least with tail <= 2^-(prec+8)
    while _tail_bound(n0, d) > 2.0 ** (-env.prec - 8):
        n0 += 1
    levels = [(_RATIO_SHIFT[e], e < 0, k) for e, k in zip(etas, ks)]
    carry = [0] * d
    prev_b = [0] * d  # B_i(n-1), overwritten level by level with B_i(n)
    total = 0
    # Rounding: every shift and every floor is off by less than one unit
    # 2^-P, and |y| <= 1/2.  By induction on n, from the exact B_0, the
    # carry of level i is off by less than ((3i - 1) + 3(i - 1))/2 + 1
    # = 3i - 1 units (half its own and B_{i-1}'s error, plus the shift) and
    # B_i by less than 3i (plus the floor).  The n0 - 1 terms B_d(n),
    # summed exactly, are then off by less than 3 d (n0 - 1) units.
    for n in range(1, n0):
        below = 1 << P if n == 1 else 0  # B_0(n-1)
        for i, (shift, negative, k) in enumerate(levels):
            c = (carry[i] + below) >> shift
            carry[i] = c = -c if negative else c
            below, prev_b[i] = prev_b[i], c // n ** k
        total += prev_b[-1]
    rounding = 3 * d * (n0 - 1) * 2.0 ** -P
    out = (-total if d % 2 else total, _tail_bound(n0, d) + rounding)
    env._sums[key] = out
    return out


def _tail_bound(n0: int, d: int) -> float:
    """Bound on sum_{n >= n0} C(n-1, d-1) 2^-n, the absolute weight of the
    configurations with n_d >= n0 that a depth-d series at 1/2 drops.  The
    term ratio n/(2(n-d+1)) decreases in n and is below 1 once n0 > 2(d-1);
    below that the sum, a binomial probability, is at most 1."""
    if n0 <= 2 * (d - 1):
        return 1.0
    ratio = n0 / (2 * (n0 - d + 1))
    return 2.0 * _binom_float(n0 - 1, d - 1) * 0.5 ** n0 / (1 - ratio)


def _binom_float(n, k):
    out = 1.0
    for i in range(k):
        out *= (n - i) / (i + 1)
    return out


def _transform_upper(v):
    """I(1/2; v; 1) = (-1)^len(v) I(0; reversed 1-letters; 1/2)."""
    return tuple(1 - x for x in reversed(v))


def altz_num_holder(s: SignedIndex, env: NumEnv) -> MPFloat:
    """Alternating zeta value through the split-at-1/2 evaluation.  The
    fixed-point halves v 2^-P are convolved in exact 2P-bit integers, so
    the bound is the propagated half bounds alone; P <= 1020 (prec <= 1000)
    keeps the float factors |v| 2^-P and 2^-P finite and normal."""
    if not s.parts:
        return MPFloat(mpmath.mpf(1), 0.0)
    key = ("holder", s.parts, s.lead_zeros, env.prec)
    hit = env._sums.get(key)
    if hit is not None:
        return hit
    w = to_int_word(s)
    if not word_is_convergent(w):
        raise ValueError(f"divergent signed index {s}")
    P = env.prec + _GUARD_BITS
    unit = 2.0 ** -P
    total, err = 0, 0.0
    for j in range(len(w) + 1):
        v1, e1 = _poly_at_half(w[:j], env)
        v2, e2 = _poly_at_half(_transform_upper(w[j:]), env)
        total += -v1 * v2 if (len(w) - j) % 2 else v1 * v2
        err += abs(v1) * unit * e2 + abs(v2) * unit * e1 + e1 * e2
    out = MPFloat(mpmath.ldexp(-total if s.depth % 2 else total, -2 * P), err)
    env._sums[key] = out
    return out


# ---------------------------------------------------------------------------
# symbolic evaluation
# ---------------------------------------------------------------------------

def rational_num(q, env: NumEnv) -> MPFloat:
    """The rational q rounded to nearest at the working precision; the
    charge |q| 2^-(prec+6) covers that rounding 2^9 times over."""
    q = Fraction(q)
    with env.work():
        v = mpmath.fdiv(q.numerator, q.denominator)
    return MPFloat(v, abs(float(v)) * 2.0 ** (-env.prec - 6))


def eval_num(p: SymPoly, env: NumEnv, bindings=None) -> MPFloat:
    """Evaluate a SymPoly: constants from the environment, parameters
    from the bindings (required for every parameter that occurs)."""
    bindings = bindings or {}
    total = MPFloat(mpmath.mpf(0), 0.0)
    for mono, coeff in p.terms.items():
        term = rational_num(coeff, env)
        for g, e in mono:
            if g in ("pi2", "log2") or g.startswith("z"):
                v = env.const_mpf(g)
            elif g in bindings:
                v = _coerce(bindings[g])
            else:
                raise ValueError(f"unbound parameter {g!r}")
            for _ in range(e):
                term = term * v
        total = total + term
    return total


def lincomb_num(lc: dict, env: NumEnv, bindings=None) -> MPFloat:
    """Evaluate {SignedIndex: SymPoly} numerically through the path-split
    evaluator, whose geometric error bounds make it the decisive one."""
    total = MPFloat(mpmath.mpf(0), 0.0)
    for key, coeff in lc.items():
        total = total + eval_num(SymPoly.coerce(coeff), env, bindings) * altz_num_holder(key, env)
    return total


# ---------------------------------------------------------------------------
# the digamma route to the odd zeta generating functions
# ---------------------------------------------------------------------------

def digamma_A(z, env: NumEnv) -> MPFloat:
    """A(z) = psi(1) - (psi(1+z) + psi(1-z))/2 = sum zeta(2r+1) z^(2r),
    computed both ways and cross-checked."""
    if abs(z) >= 1:
        raise ValueError("need |z| < 1")
    with env.work():
        z = mpmath.mpf(z)
        via_psi = -mpmath.euler - (mpmath.digamma(1 + z) + mpmath.digamma(1 - z)) / 2
        acc = mpmath.mpf(0)
        r = 1
        tol = mpmath.mpf(2) ** (-env.prec - 8)
        while True:
            term = mpmath.zeta(2 * r + 1) * z ** (2 * r)
            acc += term
            if abs(term) < tol and r > 2:
                break
            r += 1
            if r > 8000:
                raise RuntimeError("series for A(z) converges too slowly")
    z2 = abs(float(z)) ** 2
    tail = 1.2021 * z2 ** (r + 1) / (1 - z2)
    ulp = abs(float(via_psi)) * 2.0 ** (-env.prec - 4) + float(tol) * r
    series = MPFloat(acc, tail + ulp)
    psi_val = MPFloat(via_psi, ulp)
    if not series.agrees_with(psi_val, slack=2.0 ** (-env.prec + 6)):
        raise RuntimeError(f"A({mpmath.nstr(z, 15)}): digamma path {psi_val} and series path {series} disagree")
    return MPFloat(acc, tail + 2 * ulp)


def digamma_B(z, env: NumEnv) -> MPFloat:
    return digamma_A(z, env) - digamma_A(mpmath.ldexp(z, -1), env)


# ---------------------------------------------------------------------------
# generating-series verification
# ---------------------------------------------------------------------------

def t_star_a1_num(a: int, V, env: NumEnv) -> MPFloat:
    """t*({2}^a, 1) at parameter V through the convergent reduction

        V t({2}^a) - sum_i t({2}^i,1,{2}^(a-i)) - sum_i t({2}^i,3,{2}^(a-1-i)).
    """
    total = _coerce(V) * t_num((2,) * a, env)
    for i in range(a):
        total = total - t_num((2,) * i + (1,) + (2,) * (a - i), env) - t_num((2,) * i + (3,) + (2,) * (a - 1 - i), env)
    return total


def genseries_residual(x, y, V, a_max: int, env: NumEnv) -> MPFloat:
    """Absolute difference between the two sides of the generating-series
    evaluation of the one-insertion family, everything numerical:

      sum (-1)^(a+b) t*({2}^a,1,{2}^b) (2x)^(2a) (2y)^(2b)
        = cos(pi x)/2 (A(x-y) + A(x+y) + 2(V - log2))
        + cos(pi y)/2 (B(x-y) + B(x+y) + 2 log2)

    Convergent entries come from the nested sums, the b = 0 boundary
    from the convergent reduction of t*({2}^a, 1); the right side runs
    through the digamma evaluation of A and B.  The weights
    (-1)^(a+b) (2x)^(2a) (2y)^(2b) are exact products of x and y.
    """
    if not (abs(x + y) < 1 and abs(x - y) < 1):
        raise ValueError("need |x+y| < 1 and |x-y| < 1")
    x, y, V = _coerce(x), _coerce(y), _coerce(V)
    xpow, ypow = [MPFloat(1)], [MPFloat(1)]
    for _ in range(a_max):
        xpow.append(xpow[-1] * x * x * -4)
        ypow.append(ypow[-1] * y * y * -4)

    lhs = MPFloat(mpmath.mpf(0), 0.0)
    for a in range(a_max + 1):
        for b in range(a_max + 1 - a):
            if b == 0:
                tab = t_star_a1_num(a, V, env)
            else:
                tab = t_num((2,) * a + (1,) + (2,) * b, env)
            lhs = lhs + tab * (xpow[a] * ypow[b])
    X, Y = (2 * float(x.val)) ** 2, (2 * float(y.val)) ** 2
    tail_geo = 0.0
    big = max(X, Y, 1e-30)
    if big < 1:
        s = a_max + 1
        tail_geo = (s + 1) * big ** s / (1 - big) ** 2
    sup_t = 3.4 * (a_max + 2) * (1.0 + abs(float(V.val)))
    lhs.err += sup_t * tail_geo

    log2 = env.const_mpf("log2")
    with env.work():
        cosx = MPFloat(mpmath.cospi(x.val), 2.0 ** (-env.prec - 6))
        cosy = MPFloat(mpmath.cospi(y.val), 2.0 ** (-env.prec - 6))
    dm, dp = (x - y).val, (x + y).val
    rhs = (
        cosx * 0.5 * (digamma_A(dm, env) + digamma_A(dp, env) + 2 * (V - log2))
        + cosy * 0.5 * (digamma_B(dm, env) + digamma_B(dp, env) + 2 * log2)
    )
    return (lhs - rhs).abs()
