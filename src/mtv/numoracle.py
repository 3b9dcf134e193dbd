"""Independent multiprecision numerical verification.

One series engine at every precision.  t values and alternating MZVs are
iterated integrals on [0, 1]; splitting the path at 1/2 (Hoelder
convolution) turns each into a sum of products of two power series at
1/2 whose ratios are at most 1/2.  The engine applies a word's forms one
by one as operators on a single power series, so one pass over a word
gives the value at 1/2 of each of its prefixes: one pass over the word
and one over its transform to the upper half feed the convolution.  Its
series run in exact integer fixed point, 20 guard bits below the
precision, where each step is a shift or an integer floor division.  Every
prefix's scaled terms are at most 2^-n, so every series of a NumEnv stops
at the one length n0 = prec + 10, and the rounding is counted per term:
the accuracy follows the precision.  The convolution multiplies and sums
those integers exactly.  Each NumEnv keeps a prefix trie of the half
words (``env._trie``): one node per half prefix with its series, value
and bound, made once from the prefix one form shorter.  A pass walks a
half word once through it and computes only the prefixes it lacks, so a
memoised value is bit for bit a cold one.  ``env._sums`` keeps each
word's value, which t_num and altz_num look up first.

MPFloat arithmetic is exact and ignores mpmath's global precision.  Every
rounding is a leaf value made here and charged to its own bound: the
engine, and at prec + 15 bits (``NumEnv.work``) rational coefficients
(``rational_num``), constants, digamma with its zeta series and cos(pi x).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

from .errors import InvariantError
from .indexcore import SignedIndex, format_signed, to_int_word
from .symring import SymPoly


class MPFloat:
    """A value with a tracked absolute error bound.  Sums, differences,
    negations and products are formed exactly, whatever mpmath's global
    precision, so the bound carries only the propagated input bounds.  A
    NaN, infinite or negative bound is a broken invariant."""

    __slots__ = ("val", "err")

    def __init__(self, val, err=0.0):
        err = float(err)
        if not 0.0 <= err < math.inf:  # NaN fails both comparisons
            raise InvariantError(f"an error bound must be finite and non-negative, got {err!r}")
        self.val = val
        self.err = err

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
    """Precision, cached constants and the memos of the oracle: ``_sums``
    maps ("split", word) to the word's value, ``_trie`` is the root of the
    half prefixes' trie (see _half_pass).  ``cutoff`` is accepted and
    ignored: the engine stops every series at prec + 10 terms, and
    the benchmark's workloads still pass the cutoff of the float64 nested
    sums it replaced."""

    def __init__(self, prec: int = 128, cutoff=None):
        if not 1 <= prec <= 1000:  # bounds are floats: 2^-(prec+15) must not underflow
            raise ValueError(f"prec must be from 1 to 1000 bits, got {prec}")
        self.prec = prec
        self._consts: dict = {}
        self._sums: dict = {}
        one = 1 << (prec + _GUARD_BITS)
        n0 = prec + 10  # every series' length: its dropped tail is at most 2^-(prec+9) (see _half_pass)
        self._trie = _Prefix([one] + [0] * (n0 - 1), 0, (one, 0.0))

    def work(self):
        """Context manager for the leaf roundings of this module: working
        precision prec + 15 bits.  MPFloat arithmetic needs none."""
        return mpmath.workprec(self.prec + 15)

    def const(self, name: str):
        hit = self._consts.get(name)
        if hit is None:
            with self.work():
                if name == "pi2":
                    hit = mpmath.pi ** 2
                elif name == "log2":
                    hit = mpmath.log(2)
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
# the series engine: path composition at 1/2, letter by letter
# ---------------------------------------------------------------------------
#
# A word is read left to right, innermost form first, over the letters
# 0 = dx/x, 1 = dx/(x-1), -1 = dx/(x+1) (alternating MZVs) and "a" =
# dx/(1-x^2), "b" = x dx/(1-x^2) (t values).  Splitting the path at 1/2,
#
#     I(0; w; 1) = sum_j I(0; w[:j]; 1/2) I(1/2; w[j:]; 1),
#
# and with y = 1 - x, I(1/2; v; 1) = I(0; v*; 1/2), where v* is the reversed
# word of the negated pull-backs of v's forms.  Every form on either half is
# 2^-h sum_eta sign dx/(x - eta) over eta in {0, 1, -1, 2}, h = (number of
# terms) - 1; _LOWER and _UPPER give them as ((eta, sign), ...).  The
# series of each half has ratios at most 1/2 at the point 1/2.

_LOWER = {0: ((0, 1),), 1: ((1, 1),), -1: ((-1, 1),),
          "a": ((1, -1), (-1, 1)), "b": ((1, -1), (-1, -1))}
_UPPER = {0: ((1, -1),), 1: ((0, -1),), -1: ((2, -1),),
          "a": ((0, 1), (2, -1)), "b": ((0, 1), (2, 1))}
_GUARD_BITS = 20  # fixed-point bits kept below the precision
_RATIO_SHIFT = {1: 1, -1: 1, 2: 2}  # eta -> s with |1/(2 eta)| = 2^-s


def _form_consts(form) -> tuple:
    """(zero, parts, h) of a form: the sign of its dx/x part (0 if it has
    none), its parts eta != 0 as (s, sign, eta < 0) with |1/(2 eta)| =
    2^-s, and h.  A form advances n iff it has such parts."""
    zero = sum(sign for eta, sign in form if eta == 0)
    return zero, tuple((_RATIO_SHIFT[eta], sign, eta < 0) for eta, sign in form if eta), len(form) - 1


_FORMS = {form: _form_consts(form) for form in (*_LOWER.values(), *_UPPER.values())}


class _Prefix:
    """A node of a NumEnv's prefix trie: one half prefix, reached from the
    root (the empty word) one form at a time through ``next``.  It holds
    the prefix's series phi_0 .. phi_(n0-1), its number of rounding units
    per term and its (value, bound)."""

    __slots__ = ("phi", "units", "half", "next")

    def __init__(self, phi, units: int, half):
        self.phi, self.units, self.half = phi, units, half
        self.next = {}


def _half_pass(word, env: NumEnv) -> list:
    """[(v, err) of I(0; word[:j]; 1/2) for j = 0..len(word)], the value
    being v 2^-P, P = prec + _GUARD_BITS.  The first form must have no
    dx/x part.

    One power series, scaled to the point 1/2 (phi_n = f_n 2^-n), carries
    the word; each form acts on it as an operator:

        dx/x:          psi_n = phi_n / n,
        dx/(x - eta):  psi_n = -(1/n) sum_{m<n} phi_m y^(n-m),  y = 1/(2 eta),

    the second through a carry c(n) = y (c(n-1) + phi_(n-1)), psi_n = -c(n)/n.
    The value of a prefix is the sum of its series over n < n0 = prec + 10.

    Memo.  env._trie holds one _Prefix per half prefix met so far, with
    its series to n0 terms and its (value, bound).  A word walks the trie
    from the root one form at a time, making the nodes it lacks from the
    series of the node before, so each prefix is computed once, to the one
    length n0 of its env, and never extended: a memoised value is bit for
    bit a cold one, whatever words came before.

    Truncation.  Every prefix has |phi_n| <= 2^-n.  The empty word's
    series 1, 0, 0, ... has it, and each operator keeps it: dx/x gives
    2^-n / n (term 0 is 0 after the first form), and dx/(x - eta), as
    |y| <= 1/2, gives at most
    (1/n) sum_{m<n} 2^-m 2^-(n-m) = 2^-n; a form is a combination of these
    with coefficients of modulus 2^-h summing to 1.  So the dropped tail
    sum_{n >= n0} |phi_n| is at most _tail_bound(n0) = 2^(1-n0) =
    2^-(prec+9), for every prefix of every word.

    Rounding.  The series run in integer fixed point: the product by y is
    a right shift and a sign, the form's 2^-h and 1/n one integer floor
    division.  Every shift and every floor is off by less than one unit
    2^-P.  If the input terms are off by less than e units, a carry is
    off by less than (e + 2) (half its own and the input's error, plus the
    shift), so an output term by less than e + 3 (at most 2^h carries of
    weight 2^-h, plus the floor), and by less than e + 1 after dx/x.  The
    n0 - 1 terms of a prefix, summed exactly, are off by less than
    (3 L' + Z) (n0 - 1) units, L' its number of forms with a part
    eta != 0 and Z its number of dx/x forms.
    """
    node = env._trie
    halves = [node.half]
    for form in word:
        child = node.next.get(form)
        if child is None:
            phi = _apply(form, node.phi)
            units = node.units + (3 if _FORMS[form][1] else 1)
            n0 = len(phi)
            err = _tail_bound(n0) + units * (n0 - 1) * 2.0 ** -(env.prec + _GUARD_BITS)
            child = node.next[form] = _Prefix(phi, units, (sum(phi), err))
        halves.append(child.half)
        node = child
    return halves


def _apply(form, src) -> list:
    """The series after form from src, the series before it, to as many
    terms.  One pass over the terms: the carries of the parts eta != 0
    advance together, acc_n = c_1(n) + sign_1 sign_2 c_2(n), and term n is
    (zero src_n - sign_1 acc_n) // (n 2^h); term 0 is 0.  The only
    two-carry forms are the lower t letters, eta = 1 then eta = -1; the
    dx/x part of a form with carries, the upper t letters', has sign 1."""
    zero, parts, h = _FORMS[form]
    xs, dens = src[1:], range(1 << h, len(src) << h, 1 << h)
    if not parts:  # dx/x alone, h = 0
        return [0] + ([x // n for x, n in zip(xs, dens)] if zero > 0 else [-x // n for x, n in zip(xs, dens)])
    s, sign, neg = parts[0]
    acc, c = [], 0
    if len(parts) == 2:
        t, sign2, _ = parts[1]
        d = 0
        if sign2 == sign:
            for x in src[:-1]:
                c = (c + x) >> s
                d = -((d + x) >> t)
                acc.append(c + d)
        else:
            for x in src[:-1]:
                c = (c + x) >> s
                d = -((d + x) >> t)
                acc.append(c - d)
    elif neg:
        for x in src[:-1]:
            c = -((c + x) >> s)
            acc.append(c)
    else:
        for x in src[:-1]:
            c = (c + x) >> s
            acc.append(c)
    if zero:
        terms = zip(xs, acc, dens)
        return [0] + ([(x + a) // m for x, a, m in terms] if sign < 0 else [(x - a) // m for x, a, m in terms])
    return [0] + ([a // m for a, m in zip(acc, dens)] if sign < 0 else [-a // m for a, m in zip(acc, dens)])


def _tail_bound(n0: int) -> float:
    """sum_{n >= n0} 2^-n, the bound on the tail that a series with
    |phi_n| <= 2^-n drops at n0 (see _half_pass)."""
    return 2.0 ** (1 - n0)


def _split(w: tuple, env: NumEnv, what: str) -> MPFloat:
    """I(0; w; 1) through the split at 1/2, stored in env._sums under
    ("split", w), where its callers look first; what names w in the error
    of a divergent word, which stores nothing.  The fixed-point halves v
    2^-P are convolved in exact 2P-bit integers, so the bound is the
    propagated half bounds alone; P <= 1020 (prec <= 1000) keeps the float
    factors |v| 2^-P and 2^-P finite and normal."""
    lower = tuple(_LOWER[x] for x in w)
    upper = tuple(_UPPER[x] for x in reversed(w))
    if any(eta == 0 for eta, _ in lower[0] + upper[0]):  # dx/x at an end point
        raise ValueError(f"divergent {what}")
    unit = 2.0 ** -(env.prec + _GUARD_BITS)
    total, err = 0, 0.0
    for (v1, e1), (v2, e2) in zip(_half_pass(lower, env), reversed(_half_pass(upper, env))):
        total += v1 * v2
        err += abs(v1) * unit * e2 + abs(v2) * unit * e1 + e1 * e2
    hit = env._sums[("split", w)] = MPFloat(mpmath.ldexp(total, -2 * (env.prec + _GUARD_BITS)), err)
    return hit


@functools.lru_cache(maxsize=None)
def _t_word(k: tuple) -> tuple:
    """The word a 0^(k_1 - 1) b 0^(k_2 - 1) ... b 0^(k_d - 1) of the t index k."""
    if any(x < 1 for x in k):
        raise ValueError(f"t-index entries must be positive, got {k}")
    return tuple(x for i, ki in enumerate(k) for x in ("b" if i else "a",) + (0,) * (ki - 1))


def t_num(k: tuple, env: NumEnv) -> MPFloat:
    """t(k) = I(0; a 0^(k_1 - 1) b 0^(k_2 - 1) ... b 0^(k_d - 1); 1), the
    sum over odd 0 < n_1 < ... < n_d of prod n_i^-k_i; needs k_d >= 2."""
    k = tuple(k)
    if not k:
        return MPFloat(mpmath.mpf(1), 0.0)
    word = _t_word(k)
    hit = env._sums.get(("split", word))
    return hit if hit is not None else _split(word, env, f"t index t({','.join(map(str, k))})")


@functools.lru_cache(maxsize=None)
def _altz_word(s: SignedIndex) -> tuple:
    """The integral word of the signed index s."""
    return to_int_word(s)


def altz_num(s: SignedIndex, env: NumEnv) -> MPFloat:
    """Alternating zeta value of a convergent signed index:
    (-1)^depth I(0; to_int_word(s); 1)."""
    if not s.parts:
        return MPFloat(mpmath.mpf(1), 0.0)
    word = _altz_word(s)
    v = env._sums.get(("split", word))
    if v is None:
        v = _split(word, env, f"signed index {format_signed(s)}")
    return -v if s.depth % 2 else v


altz_num_holder = altz_num  # the name the benchmark's workloads call


# ---------------------------------------------------------------------------
# symbolic evaluation
# ---------------------------------------------------------------------------

def rational_num(q, env: NumEnv) -> MPFloat:
    """The rational q rounded to nearest at the working precision; the
    charge |q| 2^-(prec+6) covers that rounding 2^9 times over."""
    q = Fraction(q)
    return _quotient_num(q.numerator, q.denominator, env)


def _quotient_num(n: int, d: int, env: NumEnv) -> MPFloat:
    """rational_num of n/d from its two ints: fdiv rounds the exact
    quotient, so a common factor of n and d changes nothing."""
    with env.work():
        v = mpmath.fdiv(n, d)
    return MPFloat(v, abs(float(v)) * 2.0 ** (-env.prec - 6))


def eval_num(p: SymPoly, env: NumEnv, bindings=None) -> MPFloat:
    """Evaluate a SymPoly: constants from the environment, parameters
    from the bindings (required for every parameter that occurs)."""
    bindings = bindings or {}
    total = MPFloat(mpmath.mpf(0), 0.0)
    for mono, c in p.num.items():
        term = _quotient_num(c, p.den, env)
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


def lincomb_num(lc: dict, env: NumEnv) -> MPFloat:
    """Evaluate {SignedIndex: SymPoly} numerically through altz_num."""
    total = MPFloat(mpmath.mpf(0), 0.0)
    for key, coeff in lc.items():
        total = total + eval_num(SymPoly.coerce(coeff), env) * altz_num(key, env)
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
                raise InvariantError("series for A(z) converges too slowly")
    z2 = abs(float(z)) ** 2
    tail = 1.2021 * z2 ** (r + 1) / (1 - z2)
    ulp = abs(float(via_psi)) * 2.0 ** (-env.prec - 4) + float(tol) * r
    series = MPFloat(acc, tail + ulp)
    psi_val = MPFloat(via_psi, ulp)
    if not series.agrees_with(psi_val, slack=2.0 ** (-env.prec + 6)):
        raise InvariantError(f"A({mpmath.nstr(z, 15)}): digamma path {psi_val} and series path {series} disagree")
    return MPFloat(acc, tail + 2 * ulp)


def digamma_B(z, env: NumEnv) -> MPFloat:
    return digamma_A(z, env) - digamma_A(mpmath.ldexp(z, -1), env)


# ---------------------------------------------------------------------------
# generating-series verification
# ---------------------------------------------------------------------------

def t_star_a1_num(a: int, V, env: NumEnv) -> MPFloat:
    """t*({2}^a, 1) at parameter V through its convergent reduction

        t*({2}^a, 1) = V t({2}^a) - sum_i t({2}^i,1,{2}^(a-i)) - sum_i t({2}^i,3,{2}^(a-1-i))."""
    total = _coerce(V) * t_num((2,) * a, env)
    for i in range(a):
        total = total - t_num((2,) * i + (1,) + (2,) * (a - i), env) - t_num((2,) * i + (3,) + (2,) * (a - 1 - i), env)
    return total


def _t2212_star(a: int, b: int, V, env: NumEnv) -> MPFloat:
    """t*({2}^a,1,{2}^b) at parameter V: t({2}^a,1,{2}^b) itself when b >= 1."""
    return t_num((2,) * a + (1,) + (2,) * b, env) if b else t_star_a1_num(a, V, env)


def genseries_residual(x, y, V, a_max: int, env: NumEnv) -> MPFloat:
    """Absolute difference between the two sides of the generating-series
    evaluation of the one-insertion family, everything numerical:

      sum (-1)^(a+b) t*({2}^a,1,{2}^b) (2x)^(2a) (2y)^(2b)
        = cos(pi x)/2 (A(x-y) + A(x+y) + 2(V - log2))
        + cos(pi y)/2 (B(x-y) + B(x+y) + 2 log2)

    Convergent entries come from t_num, the b = 0 boundary from the
    convergent reduction of t*({2}^a, 1); the right side runs through the
    digamma evaluation of A and B.
    The weights (-1)^(a+b) (2x)^(2a) (2y)^(2b) are exact products of x
    and y.
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
            lhs = lhs + _t2212_star(a, b, V, env) * (xpow[a] * ypow[b])
    X, Y = (2 * float(x.val)) ** 2, (2 * float(y.val)) ** 2
    tail_geo = 0.0
    big = max(X, Y, 1e-30)
    if big < 1:
        s = a_max + 1
        tail_geo = (s + 1) * big ** s / (1 - big) ** 2
    sup_t = 3.4 * (a_max + 2) * (1.0 + abs(float(V.val)))
    lhs = MPFloat(lhs.val, lhs.err + sup_t * tail_geo)

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
