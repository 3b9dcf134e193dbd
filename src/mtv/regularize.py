"""Regularization schemes for divergent sums and the maps between them.

Two presentations coexist.  The stuffle presentation writes a divergent
object as a polynomial in the parameter assigned to the weight-one
divergent sum, with coefficients that are linear combinations of
convergent signed indices produced by the quasi-shuffle recursion.  The
shuffle presentation does the same on integral words, with both
length-one divergent words (0,) and (+1,) assigned the value -W, through
the closed form of ``word_shuffle_reg``: integer shuffle multiplicities
give the regularization at value 0, and the Taylor expansion along the
two derivations that delete a first 0 and a last +1 gives any other
value.

Identities relating objects within one presentation (parameter shifts,
the distribution relations, multiplicativity) are exact here: both
sides reduce to identical canonical linear combinations.  Identities
relating the two presentations to each other encode genuine analytic
relations between the underlying numbers and are settled numerically by
the ``coherence`` suite in verify, as is what the distribution residual
leaves after canonical reduction.

All values are immutable and all functions pure; the module-level memo
tables only ever store deterministic results keyed by immutable inputs,
so concurrent use can at worst duplicate a computation, never change a
result.  ``_st_table_cache`` holds the parameter-free stuffle table of
each divergent index, which stuffle_reg and sh_from_st read at their
parameter; ``_st_cache`` holds stuffle_reg and ``_sh_cache`` shuffle_reg,
each per (index, parameter); ``_word_cache`` holds word_shuffle_reg per
(word, value) and ``_reg0_cache`` its value-0 part per word; the
``lru_cache``s hold ``_exp_series``, ``_rho_image`` (the image of each
power P^k under the comparison map) and ``zeta_ones``.  A memoised dict
is shared by every caller, so sums are accumulated into fresh dicts
only, and a value that raises is not stored: its checks run again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .closedform import zbar_reduce
from .errors import InvariantError
from .indexcore import IntWord, SignedIndex, from_int_word, signings, to_int_word, trailing_run
from .symring import LOG2, SymPoly, _mono_mul, _reduced, lc_iadd, lc_put, lc_scale, zeta_sym
from .wordalg import _shuffle_words, _stuffle_parts, t_to_zeta

EMPTY = SignedIndex((), 0)


# ---------------------------------------------------------------------------
# integer numerators per power of one value
# ---------------------------------------------------------------------------
#
# Both schemes first compute a regularization as {key: {power p: int}}
# over one int denominator, the coefficient of value^p (Ihara-Kaneko-
# Zagier: every regularization is a polynomial in its parameter with
# rational coefficients that do not depend on it), and only then read it
# at the value asked for.

def _add_into(acc: dict, key, by_power: dict, f: int) -> None:
    """acc[key] += f * by_power, for a nonzero int f, on {power: int}
    numerators: the zeros the sum leaves are dropped, and the key once
    nothing is left, so keys and powers keep the order that lc_put gives
    on the polynomials."""
    old = acc.get(key)
    if old is None:
        new = {p: q * f for p, q in by_power.items() if q}
    else:
        for p, q in by_power.items():
            old[p] = old.get(p, 0) + q * f
        new = {p: q for p, q in old.items() if q}
    if new:
        acc[key] = new
    elif old is not None:
        del acc[key]


def _power_reader(value: SymPoly):
    """The function (by_power, den) -> sum_p by_power[p] value^p / den.

    At 0 it reads power 0; at value +-g for a generator g it writes the
    numerators straight into canonical form, the distinct monomials g^p
    (shared through ``_mono_mul``) in the order of by_power; at any other
    value it combines the powers of the value once.
    """
    if not value:
        def read(by_power: dict, den: int) -> SymPoly:
            q = by_power.get(0)
            return _reduced({(): q}, den) if q else SymPoly.zero()
        return read
    if value.den == 1 and len(value.num) == 1:
        ((mono, sign),) = value.num.items()
        if len(mono) == 1 and mono[0][1] == 1 and sign in (1, -1):
            monos = [(), mono]

            def read(by_power: dict, den: int) -> SymPoly:
                num = {}
                for p, q in by_power.items():
                    if q:
                        while len(monos) <= p:
                            monos.append(_mono_mul(monos[-1], mono))
                        num[monos[p]] = -q if sign < 0 and p % 2 else q
                return _reduced(num, den) if num else SymPoly.zero()
            return read
    powers = [SymPoly.one()]

    def read(by_power: dict, den: int) -> SymPoly:
        while len(powers) <= max(by_power):
            powers.append(powers[-1] * value)
        return SymPoly.combination((Fraction(q, den), powers[p]) for p, q in by_power.items())
    return read


# ---------------------------------------------------------------------------
# stuffle regularization
# ---------------------------------------------------------------------------

_st_table_cache: dict = {}


def _stuffle_table(parts: tuple) -> tuple:
    """(table, den): the stuffle regularization of parts as {convergent
    SignedIndex: {power of the parameter: nonzero int}} over den, computed
    once for every parameter; memoised per divergent index.

    The recursion peels one trailing unsigned 1 at a time: among the terms
    of u * (1), the input index itself appears with multiplicity equal to
    its trailing-1 run alpha, and every other term v has a strictly
    shorter run, so reg(parts) = (reg(u) P - sum_v m_v reg(v)) / alpha.
    """
    if not parts or parts[-1] != 1:
        return {SignedIndex(parts, 0): {0: 1}}, 1
    hit = _st_table_cache.get(parts)
    if hit is not None:
        return hit
    alpha = trailing_run(parts, 1)
    u = parts[:-1]
    terms = _stuffle_parts(u, (1,))
    for v, m in terms:
        if v == parts and m != alpha:
            raise InvariantError(f"{parts} occurs {m} times in its own stuffle with (1), not {alpha}")
    table_u, den_u = _stuffle_table(u)
    rest = [(_stuffle_table(v), -m) for v, m in terms if v != parts]
    den = math.lcm(den_u, *(d for (_, d), _ in rest))
    f = den // den_u
    table = {key: {p + 1: q * f for p, q in by_power.items()} for key, by_power in table_u.items()}
    for (table_v, den_v), m in rest:
        f = m * (den // den_v)
        for key, by_power in table_v.items():
            _add_into(table, key, by_power, f)
    hit = _st_table_cache[parts] = (table, den * alpha)
    return hit


_st_cache: dict = {}


def stuffle_reg(s: SignedIndex, param: SymPoly) -> dict:
    """Express s as {convergent SignedIndex: SymPoly in param}.

    It reads the parameter-free table of s (``_stuffle_table``) at param;
    already-convergent input passes through with coefficient 1.
    """
    if s.lead_zeros != 0:
        raise ValueError(f"stuffle regularization needs lead_zeros = 0, got {s.lead_zeros}")
    param = SymPoly.coerce(param)
    key = (s.parts, param)
    hit = _st_cache.get(key)
    if hit is not None:
        return hit
    table, den = _stuffle_table(s.parts)
    read = _power_reader(param)
    out = {}
    for idx, by_power in table.items():
        c = read(by_power, den)
        if c:
            out[idx] = c
    _st_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# shuffle regularization on integral words
# ---------------------------------------------------------------------------

_reg0_cache: dict = {}


def _reg0(w: IntWord) -> dict:
    """reg_0(w) as {word: nonzero int} by the two closed-form steps of
    ``word_shuffle_reg``; memoised per word."""
    hit = _reg0_cache.get(w)
    if hit is not None:
        return hit
    n = trailing_run(w, 1)
    out: dict = {}
    if n:
        # u a 1^n -> (-1)^n (u sh 1^n) a, then each word through the second step
        if n < len(w):
            cut = len(w) - n - 1
            sign = -1 if n % 2 else 1
            for x, m in _shuffle_words(w[:cut], w[cut + 1:]):
                for y, k in _reg0(x + w[cut:cut + 1]).items():
                    out[y] = out.get(y, 0) + sign * m * k
            out = {y: c for y, c in out.items() if c}
    else:
        # 0^m a v -> (-1)^m a (0^m sh v)
        m = trailing_run(w[::-1], 0)
        if not m:
            out = {w: 1}
        elif m < len(w):
            sign = -1 if m % 2 else 1
            out = {(w[m],) + y: sign * k for y, k in _shuffle_words(w[:m], w[m + 1:])}
    _reg0_cache[w] = out
    return out


def _taylor_numerators(w: IntWord, symbolic: bool) -> tuple:
    """(coeffs, m! n!): reg_value(w) of ``word_shuffle_reg`` as {convergent
    word: {power of the value: int}} over m! n!, for w = 0^m u 1^n; with
    symbolic False (value 0) only reg_0(w), over 1."""
    if symbolic:
        m = trailing_run(w[::-1], 0)
        n = trailing_run(w[m:], 1)
    else:
        m = n = 0
    # 1 / (i! j!) = (m! n! / (i! j!)) / (m! n!): integer numerators over one denominator
    denom = math.factorial(m) * math.factorial(n)
    coeffs: dict = {}
    for i in range(m + 1):
        for j in range(n + 1):
            scale = denom // (math.factorial(i) * math.factorial(j))
            for v, c in _reg0(w[i:len(w) - j]).items():
                by_power = coeffs.setdefault(v, {})
                by_power[i + j] = by_power.get(i + j, 0) + c * scale
    for v in coeffs:
        if v and (v[0] == 0 or v[-1] == 1):
            raise InvariantError(f"shuffle regularization of {w} produced the divergent word {v}")
    return coeffs, denom


_word_cache: dict = {}


def word_shuffle_reg(w: IntWord, wval: SymPoly) -> dict:
    """Regularize an integral word to {convergent word: SymPoly}.

    ``wval`` is the value assigned to both length-one divergent words
    (0,) and (+1,); the conventional parameterization sets wval = -W.
    The result is reg_wval(w), where reg_wval is the unique shuffle
    homomorphism that fixes every convergent word (first letter not 0,
    last letter not +1) and sends (0,) and (+1,) to wval.  It is computed
    in closed form from integer shuffle multiplicities:

    * at value 0, u a 1^n -> (-1)^n (u sh 1^n) a for a letter a != +1,
      and then 0^m a v -> (-1)^m a (0^m sh v) for a != 0 on each word;
    * at any value, for w = 0^m u 1^n with u neither starting with 0 nor
      ending in +1,

          reg_wval(w) = sum_{i<=m, j<=n} reg_0(0^(m-i) u 1^(n-j)) wval^(i+j) / (i! j!).

    The two value-0 steps are the standard one-sided regularizations
    (Ihara-Kaneko-Zagier; Reutenauer, Free Lie Algebras): the first is the
    shuffle homomorphism that kills (+1,) and leaves no trailing +1, the
    second the one that kills (0,), and it keeps that property, so their
    composite kills both letters, fixes convergent words and is reg_0.
    Proof of the Taylor form: deleting a first 0 (D_0) and deleting a last
    +1 (D_1) are commuting shuffle derivations, so
    reg_0 o exp(wval D_0) o exp(wval D_1) is a shuffle homomorphism that
    fixes convergent words (both derivations kill them) and sends (0,)
    and (+1,) to wval; by uniqueness it is reg_wval, and D_0^i D_1^j w is
    w with i leading 0s and j trailing +1s deleted.  The test suite
    checks the result against the letter-by-letter recursion.
    """
    w = tuple(w)
    wval = SymPoly.coerce(wval)
    key = (w, wval)
    hit = _word_cache.get(key)
    if hit is not None:
        return hit
    coeffs, denom = _taylor_numerators(w, bool(wval))
    read = _power_reader(wval)
    out: dict = {}
    for v, by_power in coeffs.items():
        c = read(by_power, denom)
        if c:
            out[v] = c
    _word_cache[key] = out
    return out


_sh_cache: dict = {}


def shuffle_reg(s: SignedIndex, param: SymPoly) -> dict:
    """Shuffle-regularize zeta_l(eps; k) to {convergent SignedIndex: SymPoly}.

    The parameter is the value of the regularized weight-one sum, so the
    two length-one divergent words carry the value -param.
    """
    param = SymPoly.coerce(param)
    key = (s, param)
    hit = _sh_cache.get(key)
    if hit is not None:
        return hit
    word = to_int_word(s)
    if not word:
        out = {EMPTY: SymPoly.one()}
    else:
        out = {}
        # zeta(s) = (-1)^depth I(word); from_int_word is a bijection, so no key repeats
        for w, c in word_shuffle_reg(word, -param).items():
            idx = from_int_word(w)
            out[idx] = -c if (s.depth + idx.depth) % 2 else c
    _sh_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# parameter shifts and the rho map
# ---------------------------------------------------------------------------

def _trailing_ones_sum(parts: tuple, reg, factor) -> dict:
    """sum_i reg(k, 1^(a-i)) factor(i) over i = 0..a, where parts = (k, 1^a)
    with k not ending in 1; reg takes a tuple of parts."""
    alpha = trailing_run(parts, 1)
    prefix = parts[: len(parts) - alpha]
    if prefix and prefix[-1] == 1:
        raise InvariantError(f"prefix {prefix} of {parts} still ends in 1 after stripping {alpha} ones")
    out: dict = {}
    for i in range(alpha + 1):
        lc_iadd(out, lc_scale(reg(prefix + (1,) * (alpha - i)), factor(i)))
    return out


def shift_param(scheme: str, s: SignedIndex, old, new) -> dict:
    """Regularization of s at parameter ``new`` from the family at ``old``:

        reg_new(k, 1^a) = sum_i reg_old(k, 1^(a-i)) (new - old)^i / i!
    """
    if s.lead_zeros != 0:
        raise ValueError(f"parameter shifts need lead_zeros = 0, got {s.lead_zeros}")
    old, new = SymPoly.coerce(old), SymPoly.coerce(new)
    reg = {"stuffle": stuffle_reg, "shuffle": shuffle_reg}[scheme]
    return _trailing_ones_sum(s.parts, lambda k: reg(SignedIndex(k, 0), old),
                              lambda i: (new - old) ** i * Fraction(1, math.factorial(i)))


@lru_cache(maxsize=None)
def _exp_series(kind: str, order: int):
    """Coefficients E_0..E_order of exp(sum_{n>=2} s_n zeta(n) u^n).

    kind 'plus' uses s_n = (-1)^n / n (the correction series of the
    shuffle-from-stuffle comparison map); kind 'minus' uses the negated
    exponent.
    """
    sgn = 1 if kind == "plus" else -1
    a = [SymPoly.zero(), SymPoly.zero()]
    for n in range(2, order + 1):
        a.append(SymPoly.const(Fraction(sgn * (-1) ** n, n)) * zeta_sym(n))
    E = [SymPoly.one()]
    for m in range(1, order + 1):
        acc = SymPoly.zero()
        for j in range(2, m + 1):
            acc = acc + Fraction(j) * a[j] * E[m - j]
        E.append(acc * Fraction(1, m))
    return tuple(E)


@lru_cache(maxsize=None)
def _rho_image(param: str, k: int) -> SymPoly:
    """rho(P^k) = sum_j k!/(k-j)! E_j P^(k-j), with E the 'plus' series."""
    E = _exp_series("plus", k)
    return SymPoly.combination(
        (math.factorial(k) // math.factorial(k - j), E[j] * SymPoly.gen(param, k - j)) for j in range(k + 1)
    )


def rho_apply(p: SymPoly, param: str = "T") -> SymPoly:
    """The comparison map on parameter polynomials, defined on powers by

        rho(P^k / k!) = [u^k]  exp(sum_{n>=2} (-1)^n/n zeta(n) u^n) e^{Pu}.

    Linear over everything that does not involve the parameter.
    """
    out = SymPoly.zero()
    for k in range(p.max_degree(param) + 1):
        ck = p.coeff_of_power(param, k)
        if ck:
            out = out + ck * _rho_image(param, k)
    return out


def sh_from_st(s: SignedIndex, param: str = "T") -> dict:
    """Shuffle-regularized value as the comparison map applied to the
    stuffle-regularized polynomial (same parameter on both sides).

    It maps the parameter-free stuffle table power by power, P^p to
    rho(P^p), in rising p, as ``rho_apply`` would on
    ``stuffle_reg(s, P)``, without building that polynomial first.
    """
    if s.lead_zeros != 0:
        raise ValueError(f"stuffle regularization needs lead_zeros = 0, got {s.lead_zeros}")
    table, den = _stuffle_table(s.parts)
    out: dict = {}
    for key, by_power in table.items():
        c = SymPoly.zero()
        for p, q in sorted(by_power.items()):
            c = c + _rho_image(param, p) * Fraction(q, den)
        if c:
            out[key] = c
    return out


@lru_cache(maxsize=None)
def zeta_ones(i: int, param) -> SymPoly:
    """Coefficient of u^i in exp(P u - sum_{n>=2} (-1)^n/n zeta(n) u^n)."""
    if i < 0:
        raise ValueError("need i >= 0")
    param = SymPoly.coerce(param)
    E = _exp_series("minus", i)
    out = SymPoly.zero()
    for j in range(i + 1):
        out = out + E[i - j] * param ** j * Fraction(1, math.factorial(j))
    return out


def st_via_sh0(s: SignedIndex, param) -> dict:
    """Stuffle regularization written through shuffle-at-0 coefficients:

        reg*_P(k, 1^a) = sum_i reg_sh0(k, 1^(a-i)) zeta*_P(1^i).
    """
    if s.lead_zeros != 0:
        raise ValueError(f"stuffle regularization needs lead_zeros = 0, got {s.lead_zeros}")
    param = SymPoly.coerce(param)
    return _trailing_ones_sum(s.parts, lambda k: shuffle_reg(SignedIndex(k, 0), SymPoly.zero()),
                              lambda i: zeta_ones(i, param))


# ---------------------------------------------------------------------------
# t-value level
# ---------------------------------------------------------------------------

def t_shuffle_reg0(k: tuple) -> dict:
    """t value in the shuffle presentation at parameter 0, as a
    combination of convergent signed indices."""
    out: dict = {}
    for s, c in t_to_zeta(k).items():
        lc_iadd(out, lc_scale(shuffle_reg(s, SymPoly.zero()), c))
    return out


def t_stuffle_reg(k: tuple, V) -> dict:
    """Stuffle-regularized t value with t*(1) = V, converted to a signed
    combination term by term (stuffle presentation)."""
    V = SymPoly.coerce(V)
    reg = stuffle_reg(SignedIndex(tuple(k), 0), V)
    out: dict = {}
    for idx, c in reg.items():
        lc_iadd(out, lc_scale(t_to_zeta(idx.parts), c))
    return out


def t_st_from_sh(k: tuple, V) -> dict:
    """Stuffle-regularized t value written through the shuffle
    presentation:

        t*_V(k, 1^a) = sum_i t_sh0(k, 1^(a-i)) 2^-i zeta*_{2V-log2}(1^i)
    """
    u_param = 2 * SymPoly.coerce(V) - LOG2
    return _trailing_ones_sum(tuple(k), t_shuffle_reg0, lambda i: zeta_ones(i, u_param) * Fraction(1, 2 ** i))


# ---------------------------------------------------------------------------
# canonical reduction and the distribution relations
# ---------------------------------------------------------------------------

def reduce_depth1(lc: dict) -> dict:
    """Rewrite depth-one keys into symbolic constants on the empty key."""
    out: dict = {}
    for s, c in lc.items():
        if s.depth != 1:
            lc_put(out, s, c)
            continue
        k = s.parts[0]
        if k > 0:
            val = zeta_sym(k)  # k >= 2 because the key is convergent
        else:
            val = zbar_reduce(-k)
        lc_put(out, EMPTY, val * SymPoly.coerce(c))
    return out


def distribution_rewrite(lc: dict) -> dict:
    """Rewrite all-plus keys of depth >= 2 through the two-fold
    distribution relation, leaving a combination supported on keys with
    at least one barred entry (plus constants)."""
    out: dict = {}
    for s, c in lc.items():
        if s.depth < 2 or any(x < 0 for x in s.parts):
            lc_put(out, s, c)
            continue
        w, d = s.weight, s.depth
        term = Fraction(2 ** (w - d), 1 - 2 ** (w - d)) * SymPoly.coerce(c)
        for _, parts in signings(s.parts):
            if parts != s.parts:  # every sign choice but the all-plus one
                lc_put(out, SignedIndex(parts, 0), term)
    return out


def canonicalize(lc: dict) -> dict:
    return distribution_rewrite(reduce_depth1(lc))


def distribution_residual(k: tuple, alpha: int, ell: int, param=None) -> dict:
    """Canonicalized difference of the two sides of the regularized
    distribution relation

        2^(|k|+l-d) sum_{eps,delta} zl_l(eps,delta; k,1^a)
            = sum_{i=0}^{a} zl_l(k, 1^(a-i)) (-log 2)^i / i!

    after full expansion: both sides are assembled in the word basis,
    where zeta(s) = (-1)^depth I(word(s)) and zeta(bar 1)^i / i! =
    (-1)^i I((-1)^i), so every term carries the same sign (-1)^(d+a) and
    the products on the right are word shuffles.  The sum is converted to
    signed indices once, then depth-one constants are rewritten and the
    convergent two-fold distribution relation applied.  For ell > 0 the
    parameter must be 0; for ell = 0 it may stay symbolic.
    """
    k = tuple(k)
    if not k or k[-1] == 1 or min(k) < 1:
        raise ValueError(f"the prefix must be nonempty, positive and end above 1, got {k}")
    if ell > 0:
        if param is not None and not SymPoly.coerce(param).is_zero:
            raise ValueError(f"with leading zeros (l = {ell}) the parameter must be 0, got {param}")
        param = SymPoly.zero()
    param = SymPoly.gen("W") if param is None else SymPoly.coerce(param)
    wval = -param

    d = len(k)
    w = sum(k)
    # both sides as {word: {power of wval: int}} over one denominator
    lhs_words = [_taylor_numerators(to_int_word(SignedIndex(parts, ell)), bool(wval))
                 for _, parts in signings(k + (1,) * alpha)]
    rhs_words = [_taylor_numerators(to_int_word(SignedIndex(k + (1,) * (alpha - i), ell)), bool(wval))
                 for i in range(alpha + 1)]
    den = math.lcm(*(dx for _, dx in lhs_words + rhs_words))
    lhs: dict = {}
    for coeffs, dx in lhs_words:
        f = 2 ** (w + ell - d) * (den // dx)
        for v, by_power in coeffs.items():
            _add_into(lhs, v, by_power, f)
    rhs: dict = {}
    for i, (coeffs, dx) in enumerate(rhs_words):
        bars = (-1,) * i
        for v, by_power in coeffs.items():
            for x, m in _shuffle_words(v, bars):
                _add_into(rhs, x, by_power, m * (den // dx))
    for x, by_power in rhs.items():
        _add_into(lhs, x, by_power, -1)

    read = _power_reader(wval)
    diff: dict = {}
    for v, by_power in lhs.items():
        c = read(by_power, den)
        if c:
            s = from_int_word(v)
            diff[s] = -c if (d + alpha + s.depth) % 2 else c
    return canonicalize(diff)
