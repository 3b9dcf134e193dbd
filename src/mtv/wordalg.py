"""Stuffle and shuffle products, and the t <-> zeta conversions.

The stuffle (quasi-shuffle) product acts on signed indices: first
letters either keep their order, swap, or merge, where merging two
entries adds the absolute values and multiplies the signs.  The shuffle
product acts on integral words over {0, +1, -1} and is the plain sum
over interleavings.  Both return canonical linear combinations with
positive int multiplicities, merged and deduplicated, so equality of
outputs is structural equality.

Everything here is pure and operates on immutable tuples; the memo
caches hold deterministic values only, so sharing across threads is
safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .indexcore import SignedIndex, signings
from .symring import lc_iadd, lc_scale


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
    return {SignedIndex(parts, 0): m for parts, m in _stuffle_parts(a.parts, b.parts)}


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
    return dict(_shuffle_words(tuple(u), tuple(v)))


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
    return {SignedIndex(parts, 0): Fraction(sign, 2 ** len(k)) for sign, parts in signings(k)}


def stuffle_compat_check(r: tuple, s: tuple) -> bool:
    """t(r *_t s) expands to the same signed combination as t(r) *_z t(s).
    Both sides are scaled by 2^(d_r + d_s), so every coefficient is an
    integer: a term m t(p) of r * s gives m 2^(d_r + d_s - d_p) (prod eps)."""
    r, s = tuple(r), tuple(s)
    depth = len(r) + len(s)
    lhs: dict = {}
    for parts, m in _stuffle_parts(r, s):
        for sign, signed in signings(parts):
            lhs[signed] = lhs.get(signed, 0) + sign * m * 2 ** (depth - len(parts))
    rhs: dict = {}
    for sign_r, signed_r in signings(r):
        for sign_s, signed_s in signings(s):
            for parts, m in _stuffle_parts(signed_r, signed_s):
                rhs[parts] = rhs.get(parts, 0) + sign_r * sign_s * m
    return {p: c for p, c in lhs.items() if c} == {p: c for p, c in rhs.items() if c}
