import gc
import itertools
import tracemalloc
from functools import lru_cache

import pytest

from mtv.indexcore import (
    SignedIndex,
    _basis_walk,
    basis_order,
    basis_sets,
    compositions,
    enumerate_hoffman,
    enumerate_saha,
    fibonacci,
    format_signed,
    format_word,
    from_int_word,
    parse_argument,
    phi_inverse,
    to_int_word,
    trailing_ones_partition,
    word_level,
    zi,
)


def test_to_int_word_examples():
    assert to_int_word(zi(2)) == (1, 0)
    assert to_int_word(zi(-2)) == (-1, 0)
    # eps = (+, -) on (1, 2): eta_1 = -1, eta_2 = -1
    assert to_int_word(zi(1, -2)) == (-1, -1, 0)
    assert to_int_word(zi(2, 1, lz=1)) == (0, 1, 0, 1)


def test_from_int_word_examples():
    assert from_int_word((1, 0)) == zi(2)
    assert from_int_word((0, 1, 0, -1)) == SignedIndex((-2, -1), 1)
    assert from_int_word((-1, 0, 0)) == zi(-3)
    with pytest.raises(ValueError):
        from_int_word((0, 0))


def test_round_trip_exhaustive():
    for w in range(1, 8):
        for comp in compositions(w):
            if len(comp) > 6:
                continue
            for signs in itertools.product((1, -1), repeat=len(comp)):
                for lz in range(0, 4):
                    s = SignedIndex(tuple(a * k for a, k in zip(signs, comp)), lz)
                    assert from_int_word(to_int_word(s)) == s
    # the empty index is the empty word
    empty = SignedIndex((), 0)
    assert to_int_word(empty) == () and from_int_word(()) == empty


def test_enumerate_saha_weight4():
    # same membership as the worked weight-4 example; the order is the
    # reverse colexicographic one that the matrix tables pin down
    assert enumerate_saha(4) == [(2, 2), (1, 1, 2), (1, 3)]


def test_enumerate_counts_are_fibonacci():
    for n in range(2, 21):
        assert len(enumerate_saha(n)) == fibonacci(n)
    for n in range(1, 21):
        assert len(enumerate_hoffman(n)) == fibonacci(n + 1)


def test_hoffman_weight3_order():
    assert enumerate_hoffman(3) == [(1, 2), (2, 1), (1, 1, 1)]


def test_saha_8_2_order():
    words = [w for w in enumerate_saha(8) if word_level(w, "S") == 2]
    expect = ["11222", "12122", "21122", "12212", "21212", "22112", "1223", "2123", "2213"]
    assert ["".join(map(str, w)) for w in words] == expect
    assert basis_sets("S", 8, 2)[0] == words


def test_word_level_takes_kinds_s_and_h():
    assert word_level((1, 2, 3), "S") == 2 and word_level((1, 2, 1), "H") == 2
    with pytest.raises(ValueError, match="unknown kind 'Hstar'"):
        word_level((1, 2, 1), "Hstar")


def test_basis_sets_examples():
    B, Bp = basis_sets("H", 8, 2)
    assert ["".join(map(str, w)) for w in Bp] == [
        "1222", "2122", "122", "2212", "212", "12", "2221", "221", "21", "1"]
    B, Bp = basis_sets("H", 1, 1)
    assert B == [(1,)] and Bp == [()]
    B, Bp = basis_sets("S", 8, 2)
    assert ["".join(map(str, w)) for w in Bp] == [
        "1222", "2122", "122", "2212", "212", "12", "223", "23", "3"]
    with pytest.raises(ValueError):
        basis_sets("H", 8, 3)


def test_basis_sets_sizes_match():
    for kind in ("S", "H"):
        for N in range(1, 17):
            for ell in range(1, N + 1):
                if (N - ell) % 2:
                    continue
                if kind == "S" and N < 2:
                    continue
                B, Bp = basis_sets(kind, N, ell)
                assert len(B) == len(Bp)


def _colex_key(w):
    """The reference's own sort key: reverse colexicographic, read right
    to left with 2 < 1 < 3, and a word after every word extending it on
    the left (the end of a word ranks above every letter)."""
    return tuple({2: 0, 1: 1, 3: 2}[x] for x in reversed(w)) + (3,)


def _reference_onetwo_words(weight):
    """All {1,2} words of the given weight, by first letter."""
    if weight == 0:
        return [()]
    words = [(1,) + w for w in _reference_onetwo_words(weight - 1)]
    if weight >= 2:
        words += [(2,) + w for w in _reference_onetwo_words(weight - 2)]
    return words


@lru_cache(maxsize=None)
def _reference_pool(kind, weight):
    """Every word of a weight, sorted: the enumerate-then-sort path."""
    if kind == "H":
        return sorted(_reference_onetwo_words(weight), key=_colex_key) if weight >= 1 else []
    if weight < 2:
        return []
    words = [w + (2,) for w in _reference_onetwo_words(weight - 2)]
    if weight >= 3:
        words += [w + (3,) for w in _reference_onetwo_words(weight - 3)]
    return sorted(words, key=_colex_key)


def _reference_level(kind, weight, level):
    return [w for w in _reference_pool(kind, weight) if word_level(w, kind) == level]


def _reference_basis_sets(kind, N, ell):
    Bp = [w for m in range(1, N) for w in _reference_level(kind, m, ell - 1)]
    if ell == 1:
        Bp.append(())
    return sorted(_reference_level(kind, N, ell), key=_colex_key), sorted(Bp, key=_colex_key)


def test_level_generation_matches_enumerate_sort_filter():
    for N in range(1, 19):
        assert enumerate_hoffman(N) == _reference_pool("H", N), N
        if N >= 2:
            assert enumerate_saha(N) == _reference_pool("S", N), N
    for kind in ("S", "H"):
        for N in range(1, 17):
            for ell in range(N + 2):
                if ell < 1 or ell > N or (N - ell) % 2:
                    with pytest.raises(ValueError):
                        basis_sets(kind, N, ell)
                else:
                    assert basis_sets(kind, N, ell) == _reference_basis_sets(kind, N, ell), (kind, N, ell)


def test_basis_order_counts_the_words():
    for kind in ("S", "H"):
        for N in range(-1, 17):
            for ell in range(-1, N + 3):
                assert basis_order(kind, N, ell) == len(_basis_walk(kind, N, N, ell)), (kind, N, ell)


def test_levels_outside_the_range_are_empty():
    assert _basis_walk("H", 0, 0, 0) == [()]
    for kind in ("S", "H"):
        for N in range(0, 12):
            for ell in (-1, N + 1, N + 2):
                assert _basis_walk(kind, N, N, ell) == []
            assert _basis_walk(kind, -1, -1, 0) == []
    for N in range(1, 12):
        # a {1,2} word's level has the parity of its weight
        assert all(_basis_walk("H", N, N, ell) == [] for ell in range(N % 2 + 1, N + 1, 2))
        # a one-two-three word has level at most N - 2
        assert _basis_walk("S", N, N, N - 1) == [] and _basis_walk("S", N, N, N) == []


def test_ordering_total_and_idempotent():
    for kind in ("S", "H"):
        words = _basis_walk(kind, 0, 11)  # every weight up to 11, every level
        keys = [_colex_key(w) for w in words]
        # distinct keys, and sorting the walk's list changes nothing
        assert len(set(keys)) == len(keys) and keys == sorted(keys), kind
        position = {w: i for i, w in enumerate(words)}
        # a word comes after every word that extends it on the left
        assert all(position[(x,) + w] < position[w] for w in words for x in (1, 2) if (x,) + w in position)


def test_dropped_word_lists_leave_no_memory_held():
    # a full collection also empties the free lists that keep freed small
    # tuples allocated, so only what something still holds is counted
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        words = enumerate_hoffman(20)
        B, Bp = basis_sets("H", 20, 6)
        assert len(words) == fibonacci(21) and len(B) == len(Bp) > 0
        del words, B, Bp
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, f"{held} bytes still held"


def test_phi_partition():
    B, Bp = basis_sets("H", 8, 2)
    cb, cbp = trailing_ones_partition(B, Bp, 8, 2)
    assert [["".join(map(str, w)) for w in c] for c in cb] == [
        ["11222", "12122", "21122", "12212", "21212", "22112"],
        ["12221", "21221", "22121", "22211"],
    ]
    assert phi_inverse((2, 1, 1, 2, 2)) == (1, 2, 2)
    # the special word 2^3 1^2 lands in the top class
    assert phi_inverse((2, 2, 2, 1, 1)) == (1,)


def test_phi_is_order_preserving_bijection():
    for N in range(1, 13):
        for ell in range(1, N + 1):
            if (N - ell) % 2:
                continue
            B, Bp = basis_sets("H", N, ell)
            imgs = []
            for u in Bp:
                a = (N - 1 - sum(u)) // 2
                imgs.append((2,) * a + (1,) + u)
            assert imgs == B  # bijective and order preserving


def test_parse_and_format():
    assert parse_argument("t(2,1,2)") == (2, 1, 2)
    assert parse_argument("z(2,-3)") == zi(2, -3)
    assert parse_argument("z_1(2,1)") == SignedIndex((2, 1), 1)
    assert parse_argument("21122") == (2, 1, 1, 2, 2)
    assert format_signed(zi(2, -3)) == "z(2,-3)"
    assert format_word((2, 1)) == "21"
    with pytest.raises(ValueError):
        parse_argument("t(0,2)")
    for text in ("20", "0", "102"):  # a digit string is an index, and entries are positive
        with pytest.raises(ValueError, match="digits must be positive"):
            parse_argument(text)
    for text in ("\u0663", "\u00b2", "z_\u0663(2)"):  # ARABIC-INDIC DIGIT THREE and SUPERSCRIPT TWO are not index digits
        with pytest.raises(ValueError, match="cannot parse"):
            parse_argument(text)
    for text in ("t(\u0663)", "z(\u0663)", "t(\u0662,1)", "z(2,-\u0663)", "t(+2)", "t(1_0)"):
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_argument(text)
    assert parse_argument("t( 2, 1 )") == (2, 1) and parse_argument("z_0()") == SignedIndex((), 0)
    for text in ("z(0,2)", "z(0)", "z_1()"):
        with pytest.raises(ValueError, match="."):
            parse_argument(text)
