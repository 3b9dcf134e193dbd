import itertools

import pytest

from mtv.indexcore import (
    SignedIndex,
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
    for text in ("z(0,2)", "z(0)", "z_1()"):
        with pytest.raises(ValueError, match="."):
            parse_argument(text)
