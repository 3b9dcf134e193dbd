import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mtv import wordalg
from mtv.indexcore import compositions, zi
from mtv.symring import lc_sub, lc_is_zero
from mtv.wordalg import (
    shuffle,
    shuffle_lincomb,
    stuffle,
    stuffle_compat_check,
    stuffle_lincomb,
    t_to_zeta,
)


def test_stuffle_depth_1_2():
    out = stuffle(zi(5), zi(2, 3))
    assert out == {
        zi(5, 2, 3): Fraction(1),
        zi(2, 5, 3): Fraction(1),
        zi(2, 3, 5): Fraction(1),
        zi(7, 3): Fraction(1),
        zi(2, 8): Fraction(1),
    }


def test_stuffle_rejects_leading_zeros():
    for a, b in ((zi(2, lz=1), zi(3)), (zi(3), zi(2, lz=2))):
        with pytest.raises(ValueError, match="lead_zeros = 0"):
            stuffle(a, b)


def test_stuffle_unit_and_signs():
    w = zi(2, 1)
    assert stuffle(zi(), w) == {w: Fraction(1)}
    # signs multiply when entries merge
    out = stuffle(zi(-2), zi(-2))
    assert out == {zi(-2, -2): Fraction(2), zi(4): Fraction(1)}


def test_shuffle_example_2zeta22_4zeta13():
    # zeta(2)^2 = 2 zeta(2,2) + 4 zeta(1,3): the doubled word (1,0,1,0)
    # carries zeta(2,2), the blocked word (1,1,0,0) carries zeta(1,3)
    out = shuffle((1, 0), (1, 0))
    assert out == {(1, 0, 1, 0): Fraction(2), (1, 1, 0, 0): Fraction(4)}


def test_shuffle_unit_and_counting():
    assert shuffle((), (1, 0)) == {(1, 0): Fraction(1)}
    for u, v in [((1, 0), (0, 1)), ((1, -1), (0, 0, 1))]:
        total = sum(shuffle(u, v).values())
        assert total == math.comb(len(u) + len(v), len(u))


def test_t_to_zeta():
    assert t_to_zeta((2,)) == {zi(2): Fraction(1, 2), zi(-2): Fraction(-1, 2)}
    out = t_to_zeta((3, 2))
    assert out[zi(3, 2)] == Fraction(1, 4)
    assert out[zi(-3, 2)] == Fraction(-1, 4)
    assert out[zi(3, -2)] == Fraction(-1, 4)
    assert out[zi(-3, -2)] == Fraction(1, 4)
    assert t_to_zeta(()) == {zi(): Fraction(1)}


def test_stuffle_compat_exhaustive_weight7():
    for wr in range(0, 8):
        for r in compositions(wr):
            for s in compositions(7 - wr):
                assert stuffle_compat_check(r, s)


def test_products_keep_int_multiplicities():
    for out in (stuffle(zi(-2, 1), zi(2, -3)), shuffle((1, 0, -1), (0, 1))):
        assert out and all(type(m) is int for m in out.values())


def test_stuffle_compat_check_fails_on_a_broken_right_side(monkeypatch):
    parts = wordalg._stuffle_parts
    assert stuffle_compat_check((2, 1), (3,))

    def broken(a, b):
        # one extra term wherever a signed index enters: only t(r) *_z t(s) changes
        return parts(a, b) + (((a + b, 1),) if any(x < 0 for x in a + b) else ())

    parts.cache_clear()
    monkeypatch.setattr(wordalg, "_stuffle_parts", broken)
    try:
        assert not stuffle_compat_check((2, 1), (3,))
    finally:
        parts.cache_clear()  # the memo now holds products computed through the broken recursion


signed_idx = st.lists(
    st.integers(1, 3).flatmap(lambda k: st.sampled_from([k, -k])), min_size=0, max_size=3
).map(lambda parts: zi(*parts))

words = st.lists(st.sampled_from([0, 1, -1]), min_size=0, max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(signed_idx, signed_idx, signed_idx)
def test_stuffle_commutative_associative(a, b, c):
    assert stuffle(a, b) == stuffle(b, a)
    lhs = stuffle_lincomb(stuffle(a, b), {c: Fraction(1)})
    rhs = stuffle_lincomb({a: Fraction(1)}, stuffle(b, c))
    assert lc_is_zero(lc_sub(lhs, rhs))


@settings(max_examples=150, deadline=None)
@given(words, words, words)
def test_shuffle_commutative_associative(u, v, w):
    assert shuffle(u, v) == shuffle(v, u)
    lhs = shuffle_lincomb(shuffle(u, v), {w: Fraction(1)})
    rhs = shuffle_lincomb({u: Fraction(1)}, shuffle(v, w))
    assert lc_is_zero(lc_sub(lhs, rhs))


@settings(max_examples=100, deadline=None)
@given(signed_idx, signed_idx)
def test_stuffle_depth_graded_leading_term(a, b):
    # maximal-depth terms are the plain interleavings, counted without signs
    out = stuffle(a, b)
    d = a.depth + b.depth
    top = [abs(c) for k, c in out.items() if k.depth == d]
    assert sum(top) == math.comb(d, a.depth)
