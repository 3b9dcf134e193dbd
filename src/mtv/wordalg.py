"""Stuffle and shuffle products, and the t <-> zeta conversions.

The stuffle (quasi-shuffle) product acts on signed indices: first
letters either keep their order, swap, or merge, where merging two
entries adds the absolute values and multiplies the signs.  The shuffle
product acts on integral words over {0, +1, -1} and is the plain sum
over interleavings.  Both return canonical linear combinations with
Fraction coefficients, merged and deduplicated, so equality of outputs
is structural equality.

Everything here is pure and operates on immutable tuples; the memo
caches hold deterministic values only, so sharing across threads is
safe.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .indexcore import SignedIndex
from .symring import lc_add, lc_iadd, lc_scale


def _merge_entry(x: int, y: int) -> int:
    s = 1 if (x > 0) == (y > 0) else -1
    return s * (abs(x) + abs(y))


@lru_cache(maxsize=None)
def _stuffle_parts(a: tuple, b: tuple) -> tuple:
    """Quasi-shuffle of two plain part-tuples; returns ((parts, mult), ...)."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out = {}

    def put(head, tail_terms):
        for parts, m in tail_terms:
            key = (head,) + parts
            out[key] = out.get(key, 0) + m

    put(a[0], _stuffle_parts(a[1:], b))
    put(b[0], _stuffle_parts(a, b[1:]))
    put(_merge_entry(a[0], b[0]), _stuffle_parts(a[1:], b[1:]))
    return tuple(sorted(out.items()))


def stuffle(a: SignedIndex, b: SignedIndex) -> dict:
    """Full quasi-shuffle expansion of a * b as {SignedIndex: coeff}."""
    if a.lead_zeros or b.lead_zeros:
        raise ValueError(f"stuffle needs lead_zeros = 0, got {a.lead_zeros} and {b.lead_zeros}")
    return {SignedIndex(parts, 0): Fraction(m) for parts, m in _stuffle_parts(a.parts, b.parts)}


def stuffle_lincomb(a: dict, b: dict) -> dict:
    """Bilinear extension of stuffle to linear combinations."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            lc_iadd(out, lc_scale(stuffle(ka, kb), ca * cb))
    return out


@lru_cache(maxsize=None)
def _shuffle_words(u: tuple, v: tuple) -> tuple:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = {}
    for w, m in _shuffle_words(u[1:], v):
        key = (u[0],) + w
        out[key] = out.get(key, 0) + m
    for w, m in _shuffle_words(u, v[1:]):
        key = (v[0],) + w
        out[key] = out.get(key, 0) + m
    return tuple(sorted(out.items()))


def shuffle(u: tuple, v: tuple) -> dict:
    """All interleavings of the words u and v, with multiplicity."""
    return {w: Fraction(m) for w, m in _shuffle_words(tuple(u), tuple(v))}


def shuffle_lincomb(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            lc_iadd(out, lc_scale(shuffle(ka, kb), ca * cb))
    return out


# ---------------------------------------------------------------------------
# t values as signed sums of alternating zeta values
# ---------------------------------------------------------------------------

def t_to_zeta(k: tuple) -> dict:
    """t(k) = 2^-d sum over sign choices of (prod eps) zeta(eps; k)."""
    d = len(k)
    out = {}
    for signs in itertools.product((1, -1), repeat=d):
        coeff = Fraction(math.prod(signs), 2 ** d)
        parts = tuple(s * x for s, x in zip(signs, k))
        out[SignedIndex(parts, 0)] = coeff
    return out


def stuffle_compat_check(r: tuple, s: tuple) -> bool:
    """t(r *_t s) expands to the same signed combination as t(r) *_z t(s)."""
    lhs: dict = {}
    for parts, m in _stuffle_parts(tuple(r), tuple(s)):
        lc_iadd(lhs, lc_scale(t_to_zeta(parts), m))
    rhs = stuffle_lincomb(t_to_zeta(tuple(r)), t_to_zeta(tuple(s)))
    diff = lc_add(lhs, lc_scale(rhs, -1))
    return all(c == 0 for c in diff.values())
