"""Index and word data types, conversions, orderings and basis generation by level.

Three interchangeable presentations of the same objects appear throughout:

* an ``Index`` is a tuple of positive integers, the argument of t(...);
* a ``SignedIndex`` carries a sign on each entry (encoded by the sign of
  the integer, so -3 means the barred argument 3) plus a count of
  leading zeros in the iterated-integral presentation;
* an ``IntWord`` is a tuple over {0, +1, -1}, the string of an iterated
  integral between the endpoints 0 and 1.

The filtration bases are words over {1,2} (one-two words) or over {1,2}
with a final 3 allowed (one-two-three words ending in 2 or 3).  Both are
plain tuples of small ints and are freely reinterpreted as indices.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from typing import NamedTuple

IntWord = tuple  # over {0, +1, -1}


class SignedIndex(NamedTuple):
    """Signed index; entries are nonzero ints, sign -1 encodes a bar.

    ``lead_zeros`` counts initial 0 letters of the integral word.
    """

    parts: tuple
    lead_zeros: int = 0

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(abs(k) for k in self.parts) + self.lead_zeros

    def is_convergent(self) -> bool:
        return self.lead_zeros == 0 and (not self.parts or self.parts[-1] != 1)

    def validate(self) -> "SignedIndex":
        for k in self.parts:
            if not isinstance(k, int) or k == 0:
                raise ValueError(f"signed index entries must be nonzero integers, got {k!r} in {self.parts}")
        if self.lead_zeros < 0:
            raise ValueError(f"negative count of leading zeros: {self.lead_zeros}")
        if not self.parts and self.lead_zeros:
            raise ValueError("zeta_l of the empty index")
        return self


def zi(*parts, lz: int = 0) -> SignedIndex:
    return SignedIndex(tuple(parts), lz).validate()


def compositions(n: int):
    """Every index of weight n: the ordered compositions of n into positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def signings(parts: tuple):
    """(product of the signs, signed parts) for each sign choice, all-plus first."""
    for signs in itertools.product((1, -1), repeat=len(parts)):
        yield math.prod(signs), tuple(s * k for s, k in zip(signs, parts))


def signed_indices(max_weight: int):
    """Every signed index of weight 1..max_weight without leading zeros."""
    for w in range(1, max_weight + 1):
        for comp in compositions(w):
            for _, parts in signings(comp):
                yield SignedIndex(parts, 0)


# ---------------------------------------------------------------------------
# index <-> integral word
# ---------------------------------------------------------------------------
#
# The word of zeta_l(eps; k) is {0}^l followed, for i = 1..d, by the letter
# eta_i = eps_i * eps_{i+1} * ... * eps_d and then {0}^{k_i - 1}.  The overall
# (-1)^d sign of the iterated integral is tracked by callers, never stored.

def to_int_word(s: SignedIndex) -> IntWord:
    word = [0] * s.lead_zeros
    sign = 1
    etas = []
    for k in reversed(s.parts):
        sign *= 1 if k > 0 else -1
        etas.append(sign)
    etas.reverse()
    for k, eta in zip(s.parts, etas):
        word.append(eta)
        word.extend([0] * (abs(k) - 1))
    return tuple(word)


def word_blocks(w: IntWord) -> tuple:
    """Split a word with nonzero first letter into blocks, each a nonzero
    letter followed by zeros; returns (block lengths, nonzero letters)."""
    ks, etas = [], []
    for x in w:
        if x == 0:
            ks[-1] += 1
        else:
            etas.append(x)
            ks.append(1)
    return ks, etas


@lru_cache(maxsize=None)
def from_int_word(w: IntWord) -> SignedIndex:
    """Inverse of to_int_word; the empty word is the empty index.
    Memoised, so w must be a tuple."""
    if w and not any(x != 0 for x in w):
        raise ValueError("all-zero word has no index form")
    lz = trailing_run(w[::-1], 0)
    ks, etas = word_blocks(w[lz:])
    parts = []
    for i, k in enumerate(ks):
        nxt = etas[i + 1] if i + 1 < len(etas) else 1
        eps = etas[i] * nxt
        parts.append(eps * k)
    return SignedIndex(tuple(parts), lz)


# ---------------------------------------------------------------------------
# one-two and one-two-three words
# ---------------------------------------------------------------------------

def is_hoffman_word(w) -> bool:
    return all(x in (1, 2) for x in w)


def is_saha_word(w) -> bool:
    """Word over {1,2} with terminal letter 2 or 3 (3 only final)."""
    if not w:
        return False
    return all(x in (1, 2) for x in w[:-1]) and w[-1] in (2, 3)


def word_level(w, kind: str) -> int:
    if kind == "S":
        return sum(1 for x in w if x in (1, 3))
    if kind in ("H", "Hstar"):
        return sum(1 for x in w if x == 1)
    raise ValueError(f"unknown kind {kind!r}")


# Reverse colexicographic order: read right to left, largest letter first,
# with 3 < 1 < 2; a word extending a common reversed prefix sorts first.
_LETTER_RANK = {2: 0, 1: 1, 3: 2}
_END_RANK = 3


def colex_key(w):
    return tuple(_LETTER_RANK[x] for x in reversed(w)) + (_END_RANK,)


def sort_words(words) -> list:
    return sorted(words, key=colex_key)


def _words_of_level(kind: str, weight: int, level: int) -> list:
    """The words of one weight and level, built directly; [] if there are none.

    A level-l {1,2} word (kind "H") of weight n places its l ones among
    l + (n - l)/2 letters.  A one-two-three word (kind "S") is a level-l
    {1,2} word of weight n - 2 followed by a 2, or a level-(l-1) one of
    weight n - 3 followed by a 3.
    """
    if kind == "S":
        return ([w + (2,) for w in _words_of_level("H", weight - 2, level)]
                + [w + (3,) for w in _words_of_level("H", weight - 3, level - 1)])
    twos = weight - level
    if level < 0 or twos < 0 or twos % 2:
        return []
    n = level + twos // 2
    words = []
    for ones in itertools.combinations(range(n), level):
        w = [2] * n
        for i in ones:
            w[i] = 1
        words.append(tuple(w))
    return words


def enumerate_hoffman(N: int) -> list:
    """All {1,2} words of weight N, in reverse colexicographic order."""
    if N < 1:
        raise ValueError("weight must be >= 1")
    return sort_words(w for ell in range(N + 1) for w in _words_of_level("H", N, ell))


def enumerate_saha(N: int) -> list:
    """All words of weight N ending in 2 or 3, {1,2} before; sorted."""
    if N < 2:
        raise ValueError("weight must be >= 2")
    return sort_words(w for ell in range(N + 1) for w in _words_of_level("S", N, ell))


def basis_sets(kind: str, N: int, ell: int):
    """The pair (B, B') of matrix bases at weight N and level ell.

    B holds the weight-N level-ell words; B' holds all level-(ell-1)
    words of smaller weight, plus the empty word when ell = 1.  Both are
    sorted; the two sets always have equal cardinality.
    """
    if kind not in ("S", "H"):
        raise ValueError(f"kind must be 'S' or 'H', got {kind!r}")
    if N < 1 or ell < 1:
        raise ValueError("need N >= 1 and ell >= 1")
    if ell > N:
        raise ValueError(f"level {ell} exceeds the weight N = {N}")
    if (N - ell) % 2 != 0:
        raise ValueError(f"N = {N} and ell = {ell} must have equal parity")
    B = _words_of_level(kind, N, ell)
    Bp = []
    for m in range(1, N):
        Bp.extend(_words_of_level(kind, m, ell - 1))
    if ell == 1:
        Bp.append(())
    return sort_words(B), sort_words(Bp)


def trailing_run(w, letter) -> int:
    """Length of the final run of ``letter`` in w (leading run: pass w[::-1])."""
    n = 0
    for x in reversed(w):
        if x != letter:
            break
        n += 1
    return n


def split_2a_x_2b(idx: tuple, letter: int):
    """Match {2}^a letter {2}^b; returns (a, b) or None."""
    hits = [i for i, x in enumerate(idx) if x == letter]
    if len(hits) != 1:
        return None
    i = hits[0]
    if all(x == 2 for x in idx[:i]) and all(x == 2 for x in idx[i + 1:]):
        return i, len(idx) - i - 1
    return None


def phi_inverse(w):
    """Deconcatenate after the first 1: the suffix of 2^a 1 u is u."""
    i = w.index(1)
    return w[i + 1:]


def trailing_ones_partition(B, Bp, N: int, ell: int):
    """Partition of (B, B') by trailing-1 count; B via the bijection phi.

    Returns (classes_B, classes_Bp): lists indexed by alpha = 0..ell-1,
    each a list of words in basis order.
    """
    classes_B = [[] for _ in range(ell)]
    classes_Bp = [[] for _ in range(ell)]
    for u in Bp:
        classes_Bp[trailing_run(u, 1)].append(u)
    for w in B:
        classes_B[trailing_run(phi_inverse(w), 1)].append(w)
    return classes_B, classes_Bp


def fibonacci(n: int) -> int:
    """F_1 = F_2 = 1."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------
#
#   t(2,1,2)      plain index
#   z(2,-3)       signed index, negative entry = barred argument
#   z_1(2,1)      one leading zero
#   21122         word as digit string

def format_signed(s: SignedIndex) -> str:
    head = "z" if s.lead_zeros == 0 else f"z_{s.lead_zeros}"
    return head + "(" + ",".join(str(x) for x in s.parts) + ")"


def format_word(w) -> str:
    return "".join(str(x) for x in w) if w else "(empty)"


def parse_argument(text: str):
    """Parse the CLI grammar; returns an Index, SignedIndex or word tuple."""
    text = text.strip()
    if re.fullmatch(r"[0-9]+", text):  # str.isdigit would also take "²" and other non-ASCII digits
        if "0" in text:
            raise ValueError(f"index digits must be positive: {text!r}")
        return tuple(int(c) for c in text)
    m = re.fullmatch(r"t\(([^)]*)\)", text)
    if m:
        return t_entries(m.group(1), text)
    m = re.fullmatch(r"z(?:_([0-9]+))?\(([^)]*)\)", text)
    if m:
        return SignedIndex(_entries(m.group(2), text), int(m.group(1) or 0)).validate()
    raise ValueError(f"cannot parse argument {text!r}")


def t_entries(inner: str, text: str) -> tuple:
    """The positive entries of a t index; an error quotes text, as the user typed it."""
    parts = _entries(inner, text)
    if any(p < 1 for p in parts):
        raise ValueError(f"t-index entries must be positive: {text!r}")
    return parts


def _entries(inner: str, text: str) -> tuple:
    """The comma-separated entries of t(...) or z(...); int() alone would
    also read non-ASCII digits such as "\u0663"."""
    parts = [x.strip() for x in inner.split(",")] if inner.strip() else []
    if not all(re.fullmatch(r"-?[0-9]+", x) for x in parts):
        raise ValueError(f"index entries must be integers in ASCII digits: {text!r}")
    return tuple(map(int, parts))
