import itertools
from functools import lru_cache

import pytest

from mtv.indexcore import (
    SignedIndex,
    _words_of_level,
    basis_sets,
    colex_key,
    compositions,
    enumerate_hoffman,
    enumerate_saha,
    fibonacci,
    format_signed,
    format_word,
    from_int_word,
    parse_argument,
    phi_inverse,
    sort_words,
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
    assert ["".join(map(str, w)) for w in sort_words(words)] == expect


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
        return sort_words(_reference_onetwo_words(weight)) if weight >= 1 else []
    if weight < 2:
        return []
    words = [w + (2,) for w in _reference_onetwo_words(weight - 2)]
    if weight >= 3:
        words += [w + (3,) for w in _reference_onetwo_words(weight - 3)]
    return sort_words(words)


def _reference_level(kind, weight, level):
    return [w for w in _reference_pool(kind, weight) if word_level(w, kind) == level]


def _reference_basis_sets(kind, N, ell):
    Bp = [w for m in range(1, N) for w in _reference_level(kind, m, ell - 1)]
    if ell == 1:
        Bp.append(())
    return sort_words(_reference_level(kind, N, ell)), sort_words(Bp)


def test_level_generation_matches_enumerate_sort_filter():
    for kind in ("S", "H"):
        for N in range(1, 17):
            if kind == "H" or N >= 2:
                enumerate_all = enumerate_hoffman if kind == "H" else enumerate_saha
                assert enumerate_all(N) == _reference_pool(kind, N), (kind, N)
            for ell in range(N + 2):
                words = _words_of_level(kind, N, ell)
                ref = _reference_level(kind, N, ell)
                assert sort_words(words) == ref and len(set(words)) == len(words), (kind, N, ell)
                if ell < 1 or (N - ell) % 2:
                    with pytest.raises(ValueError):
                        basis_sets(kind, N, ell)
                else:
                    assert basis_sets(kind, N, ell) == _reference_basis_sets(kind, N, ell), (kind, N, ell)


def test_levels_outside_the_range_are_empty():
    assert _words_of_level("H", 0, 0) == [()]
    for kind in ("S", "H"):
        for N in range(0, 12):
            for ell in (-1, N + 1, N + 2):
                assert _words_of_level(kind, N, ell) == []
            assert _words_of_level(kind, -1, 0) == []
    for N in range(1, 12):
        # a {1,2} word's level has the parity of its weight
        assert all(_words_of_level("H", N, ell) == [] for ell in range(N % 2 + 1, N + 1, 2))
        # a one-two-three word has level at most N - 2
        assert _words_of_level("S", N, N - 1) == [] and _words_of_level("S", N, N) == []


def test_ordering_total_and_idempotent():
    words = enumerate_saha(9)
    keys = [colex_key(w) for w in words]
    assert len(set(keys)) == len(keys)
    assert sort_words(sort_words(words)) == sort_words(words)


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
