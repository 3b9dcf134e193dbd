"""Exact rational arithmetic and the symbolic constant ring.

Every closed form in this package lives in the polynomial ring

    Q[pi2, log2, z3, z5, z7, ..., V, U, W, T, S, lam]

where ``pi2`` stands for pi^2, ``log2`` for log(2), ``z(2r+1)`` for the
odd zeta value zeta(2r+1), the letters V, U, W, T, S are regularization
parameters, and ``lam`` is the dimensionless parameter of the stuffle
regularization V = lam*log(2).  Even zeta values are never generators:
they are rewritten into powers of pi2 at construction time, so that
equal closed forms have identical canonical representations.

Monomials are formally independent; equality is equality of canonical
form.  Coefficients are exact rationals throughout, floating point never
enters this module: every constructor takes only ints and Fractions and
raises TypeError for a float or any other number.

Canonical form.  A polynomial is ``num / den``: ``num`` maps monomials
to nonzero int numerators over the one int denominator ``den > 0``, and
gcd(den, *num.values()) == 1 (the zero polynomial is ``{}`` over 1).  A
monomial is a tuple of (generator, exponent) pairs sorted by
``_gen_key``, with every generator known and every exponent positive.
``terms`` reads the same polynomial as ``{monomial: Fraction}``.  Only
the public constructor ``SymPoly(terms)`` and ``gen`` validate: the
constructor accepts arbitrary monomials with int or Fraction
coefficients and brings them into this form, and ``gen`` checks its one
generator, exponent and coefficient the same way and builds its one
term directly.  Every other result comes from the trusted constructor
``_canonical``, which stores a form that is already canonical without
checking it, or from ``_reduced``, which divides out the one common gcd:
the ring operations, ``const``/``coerce``, ``combination``, ``deriv``
and ``coeff_of_power``.  The ring operations work on the int numerators
and reduce once at the end.  Monomial products come sorted from
``_mono_mul``; a scalar (an int, a Fraction or a constant polynomial)
multiplies the numerators and the denominator directly; sums are
accumulated over a common denominator first and their zeros dropped
once, so the surviving terms keep the order the validating constructor
gives.  ``==`` on ``(num, den)`` is equality of polynomials only because
every instance holds this invariant.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

# Regularization parameters (weight 1) and the weight-0 scalar lam.
PARAMS = ("V", "U", "W", "T", "S")
ALL_INDETS = PARAMS + ("lam",)

_GEN_RE = re.compile(r"^(pi2|log2|z(\d+)|V|U|W|T|S|lam)$")


def gen_weight(g: str) -> int:
    """Weight of a single generator; z-n carries its argument n."""
    if g == "pi2":
        return 2
    if g.startswith("z") and g[1:].isdigit():
        return int(g[1:])
    if g == "lam":
        return 0
    return 1  # log2 and the parameters


def _gen_key(g: str):
    # constants first (by weight, then name), parameters afterwards
    if g in ALL_INDETS:
        return (1, ALL_INDETS.index(g), g)
    return (0, gen_weight(g), g)


def _ge_key(ge):
    return _gen_key(ge[0])


def _rational(c):
    """c itself, once checked to be an int or a Fraction: the only exact
    rationals here, and both carry .numerator and .denominator."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__} {c!r}")
    return c


@lru_cache(maxsize=None)
def _known_gen(g: str) -> bool:
    return bool(_GEN_RE.match(g))


def _check_factor(g: str, e: int) -> None:
    """Refuse an unknown generator or a negative exponent (ValueError)."""
    if not _known_gen(g):
        raise ValueError(f"unknown generator {g!r}")
    if e < 0:
        raise ValueError(f"negative exponent on {g!r}")


def _normalize_terms(terms):
    """(num, den) of arbitrary {monomial: int or Fraction} terms."""
    out = {}
    for mono, c in terms.items():
        c = _rational(c)
        if c == 0:
            continue
        mono = tuple(sorted(((g, e) for g, e in mono if e != 0), key=_ge_key))
        for g, e in mono:
            _check_factor(g, e)
        out[mono] = out.get(mono, Fraction(0)) + c
    out = {m: c for m, c in out.items() if c != 0}
    # over the lcm of the reduced denominators the numerators share no
    # factor with it: each prime power of the lcm divides some coefficient's
    # denominator exactly, whose numerator it misses
    den = math.lcm(*(c.denominator for c in out.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in out.items()}, den


@lru_cache(maxsize=None)
def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Product of two canonical monomials, itself canonical."""
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for g, e in m2:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(d.items(), key=_ge_key))


def _canonical(num: dict, den: int = 1) -> "SymPoly":
    """The trusted constructor: num over den must already be in canonical
    form (see the module docstring); it is stored without a check."""
    p = object.__new__(SymPoly)
    p.num = num
    p.den = den
    return p


def _reduced(num: dict, den: int) -> "SymPoly":
    """num over den with its one common gcd divided out; num holds no
    zeros and den > 0."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            return _canonical({m: c // g for m, c in num.items()}, den // g)
    return _canonical(num, den)


class SymPoly:
    """Polynomial with rational coefficients over the fixed generator set,
    stored as int numerators over one common denominator.

    Immutable by convention: no operation modifies an operand, and a
    result may be an operand itself (p + 0 is p).
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, terms=None):
        self.num, self.den = _normalize_terms(terms or {})

    @property
    def terms(self) -> dict:
        """{monomial: nonzero Fraction}, in the stored monomial order."""
        den = self.den
        return {m: Fraction(c, den) for m, c in self.num.items()}

    # -- constructors ------------------------------------------------

    @staticmethod
    def const(c) -> "SymPoly":
        c = _rational(c)
        return _canonical({(): c.numerator}, c.denominator) if c else _canonical({})

    @staticmethod
    def gen(name: str, exp: int = 1, coeff=1) -> "SymPoly":
        """coeff * name**exp, built directly in canonical form."""
        c = _rational(coeff)
        _check_factor(name, exp)
        if not c:
            return _canonical({})
        return _canonical({((name, exp),) if exp else (): c.numerator}, c.denominator)

    @staticmethod
    def zero() -> "SymPoly":
        return _canonical({})

    @staticmethod
    def one() -> "SymPoly":
        return _canonical({(): 1})

    @staticmethod
    def coerce(x) -> "SymPoly":
        if type(x) is SymPoly:
            return x
        return SymPoly.const(x)

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        other = SymPoly.coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        da, db = self.den, other.den
        if da == db:
            num = dict(self.num)
            fb = 1
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            num = {m: c * fa for m, c in self.num.items()}
            da *= fa
        for m, c in other.num.items():
            if m in num:
                num[m] += c * fb
            else:
                num[m] = c * fb
        return _reduced({m: c for m, c in num.items() if c}, da)

    __radd__ = __add__

    def __neg__(self):
        return _canonical({m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-SymPoly.coerce(other))

    def __rsub__(self, other):
        return SymPoly.coerce(other) - self

    def _scale(self, n: int, d: int) -> "SymPoly":
        """self * n/d for ints n and d > 0 with gcd(n, d) == 1."""
        if not n:
            return _canonical({})
        if d == 1:
            if n == 1:
                return self
            if n == -1:
                return -self
        # n only meets den, d only meets the numerators: both other pairs
        # are coprime already
        gn = math.gcd(n, self.den)
        gd = math.gcd(d, *self.num.values())
        n //= gn
        return _canonical({m: c // gd * n for m, c in self.num.items()}, self.den // gn * (d // gd))

    @staticmethod
    def combination(pairs) -> "SymPoly":
        """sum q * p over (int or Fraction q, SymPoly p) pairs, accumulated
        over one common denominator with its zeros dropped once."""
        pairs = list(pairs)
        den = math.lcm(*(q.denominator * p.den for q, p in pairs))
        num: dict = {}
        for q, p in pairs:
            f = q.numerator * (den // (q.denominator * p.den))
            for m, c in p.num.items():
                if m in num:
                    num[m] += f * c
                else:
                    num[m] = f * c
        return _reduced({m: c for m, c in num.items() if c}, den)

    def __mul__(self, other):
        # a SymPoly operand skips the isinstance test against Fraction,
        # whose ABCMeta check is slow
        if type(other) is not SymPoly:
            if isinstance(other, (int, Fraction)):
                return self._scale(other.numerator, other.denominator)
            other = SymPoly.coerce(other)
        if other.is_const():
            return self._scale(other.num.get((), 0), other.den)
        if self.is_const():
            return other._scale(self.num.get((), 0), self.den)
        num = {}
        for m1, c1 in self.num.items():
            for m2, c2 in other.num.items():
                m = _mono_mul(m1, m2)
                if m in num:
                    num[m] += c1 * c2
                else:
                    num[m] = c1 * c2
        return _reduced({m: c for m, c in num.items() if c}, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = SymPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is not SymPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = SymPoly.const(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # kept once computed; a constant hashes as its Fraction value, so
        # the hash agrees with == against int and Fraction
        try:
            return self._hash
        except AttributeError:
            pass
        self._hash = h = hash(self.const_value()) if self.is_const() else hash((frozenset(self.num.items()), self.den))
        return h

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    # -- structure ----------------------------------------------------

    def is_const(self) -> bool:
        return not self.num or (len(self.num) == 1 and () in self.num)

    def const_value(self) -> Fraction:
        """The value of a constant polynomial, always as a Fraction."""
        if not self.is_const():
            raise ValueError("not a constant")
        return Fraction(self.num.get((), 0), self.den)

    def weight(self):
        """Common weight of all monomials, or None if inhomogeneous."""
        ws = {sum(gen_weight(g) * e for g, e in m) for m in self.num}
        if not ws:
            return 0
        if len(ws) == 1:
            return ws.pop()
        return None

    def generators(self):
        return {g for m in self.num for g, _ in m}

    def max_degree(self, gen: str) -> int:
        deg = 0
        for m in self.num:
            for g, e in m:
                if g == gen:
                    deg = max(deg, e)
        return deg

    def coeff_of_power(self, gen: str, k: int) -> "SymPoly":
        """Coefficient of gen**k, as a polynomial without gen."""
        # deleting gen^k maps distinct monomials to distinct monomials; the
        # kept numerators may share a factor with den, so reduce again
        num = {}
        for m, c in self.num.items():
            if dict(m).get(gen, 0) == k:
                num[tuple(ge for ge in m if ge[0] != gen)] = c
        return _reduced(num, self.den)

    def deriv(self, gen: str) -> "SymPoly":
        # lowering the exponent of gen by one is injective on the
        # monomials that contain gen, and keeps them sorted; the exponents
        # and the subset may share a factor with den, so reduce again
        num = {}
        for m, c in self.num.items():
            for i, (g, e) in enumerate(m):
                if g == gen:
                    lowered = ((g, e - 1),) if e > 1 else ()
                    num[m[:i] + lowered + m[i + 1:]] = c * e
                    break
        return _reduced(num, self.den)

    def substitute(self, bindings: dict) -> "SymPoly":
        """Ring-homomorphic substitution; keys must be parameters or lam."""
        for k in bindings:
            if k not in ALL_INDETS:
                raise ValueError(f"can only substitute parameters, not {k!r}")
        out = SymPoly.zero()
        for m, c in self.terms.items():
            term = SymPoly.const(c)
            for g, e in m:
                if g in bindings:
                    term = term * (SymPoly.coerce(bindings[g]) ** e)
                else:
                    term = term * SymPoly.gen(g, e)
            out = out + term
        return out

    # -- text form ------------------------------------------------------

    def text(self) -> str:
        terms = self.terms
        if not terms:
            return "0"

        def mono_key(m):
            weight = sum(gen_weight(g) * e for g, e in m)
            degree = sum(e for _, e in m)
            return (weight, degree, m)

        monos = sorted(terms, key=mono_key)
        parts = []
        for m in monos:
            c = terms[m]
            factors = []
            for g, e in sorted(m, key=lambda ge: (-gen_weight(ge[0]), ge[0])):
                factors.append(g if e == 1 else f"{g}^{e}")
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = str(c) + "*" + "*".join(factors)
            parts.append(body)
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    __str__ = text

    def __repr__(self):
        return f"SymPoly({self.text()})"

    def to_json(self) -> dict:
        out = {}
        terms = self.terms
        for m in sorted(terms, key=lambda m: (sum(gen_weight(g) * e for g, e in m), m)):
            key = "*".join(g if e == 1 else f"{g}^{e}" for g, e in m) or "1"
            out[key] = str(terms[m])
        return out


# ---------------------------------------------------------------------------
# even zeta values
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), by the defining recursion."""
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def even_zeta(n: int) -> SymPoly:
    """zeta(n) for even n >= 2, as a rational multiple of pi2^(n/2)."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"even_zeta needs even n >= 2, got {n}")
    m = n // 2
    coeff = abs(bernoulli(n)) * Fraction(2 ** (n - 1)) / Fraction(math.factorial(n))
    return SymPoly.gen("pi2", m, coeff)


@lru_cache(maxsize=None)
def zeta_sym(n: int) -> SymPoly:
    """zeta(n) for n >= 2 as a SymPoly (pi-power if even, z-generator if odd)."""
    if n < 2:
        raise ValueError("zeta_sym needs n >= 2")
    if n % 2 == 0:
        return even_zeta(n)
    return SymPoly.gen(f"z{n}")


PI2 = SymPoly.gen("pi2")
LOG2 = SymPoly.gen("log2")


# ---------------------------------------------------------------------------
# linear combinations over an arbitrary hashable basis
# ---------------------------------------------------------------------------
#
# A LinComb is a plain dict {basis term: int, Fraction or SymPoly}, each
# falsy exactly at zero.  Zero coefficients are never stored: lc_put is
# the one place that invariant lives.  Every sum of coefficients goes
# through it; lc_scale only multiplies by a nonzero scalar, which cannot
# make a coefficient vanish.

def lc_put(out: dict, key, coeff) -> None:
    """Add coeff to out[key] in place, removing the key if the sum is zero."""
    old = out.get(key)
    s = coeff if old is None else old + coeff
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def lc_iadd(out: dict, lc: dict) -> dict:
    """Add lc into out in place and return out."""
    for k, c in lc.items():
        lc_put(out, k, c)
    return out


def lc_add(a: dict, b: dict) -> dict:
    return lc_iadd(dict(a), b)


def lc_sub(a: dict, b: dict) -> dict:
    return lc_add(a, lc_scale(b, -1))


def lc_scale(a: dict, c) -> dict:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def lc_is_zero(a: dict) -> bool:
    return not any(a.values())
