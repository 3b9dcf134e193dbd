"""Derivations on rescaled t values, level-graded maps and their matrices.

The odd-weight derivation D_r sends a rescaled t value to a sum of
tensors (left factor in the linearized quotient) x (right factor a
rescaled t value).  Left factors are kept as formal tags until a graded
map needs them, at which point they must reduce to a rational multiple
of log2 or of a single odd zeta through the closed-form families
2^a 1 2^b, 2^a 3 2^b, 2^a 1 and 2^a; any other pattern raises, turning
the structural lemmas behind the construction into runtime checks.

Matrix conventions: rows are indexed by the weight-N level-l words B,
columns by the lower-level words B'; entry (w, w') is the coefficient
of w' in the graded image of w after the projection log2 -> 1/2,
zeta(2r+1) -> 2^(2r-1).  The parametric matrix Hstar(lam) is its H
matrix plus lam - 1/2 at one cell per row ending in 1 (star_matrix).
Each S and H matrix is built once per process and shared, read-only, by
every build of its level and by the Hstar matrices derived from it.
A row is built in one walk over its word's cuts (_cut_terms, the one
statement of the cut rules, which deriv_D sums too): every term's right
factor is checked for validity and for level < l on every build, before
any terms cancel, its validity and level read from a memo per right
factor.  The graded factors are summed as integer numerators over one
common denominator per row, and each nonzero entry becomes one Fraction.
A matrix is its sparse rows only, FiltMatrix.nonzero ({column: entry}
per row); the dense rows that to_json and the CLI print (entries) are a
view built afresh from them on every read.
A matrix is factorised once: FiltMatrix.blocks holds its diagonal
blocks' determinants (ratmatrix.block_dets), and Hstar's are its H
matrix's.  det() of S and H is their product; Hstar's affine determinant
reads them at lam = 1/2 and eliminates again, at lam = 1, only the one
block that holds a cell; the structure report reads the determinant and
its final class from the same blocks.  Every pass but the dense Bareiss
elimination reads only the nonzero entries: the cut scan and the block
scaling, the structure report's parity checks (zero blocks above the
classes, unitriangular mod 2, the even last row) and the lam pattern and
lam block of the Hstar determinant.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate

from .closedform import coeff_c_21, coeff_c_231, coeff_d_121, coeff_d_232, zl_2212
from .errors import InvariantError
from .indexcore import (
    basis_sets,
    is_hoffman_word,
    is_saha_word,
    split_2a_x_2b,
    trailing_ones_partition,
    trailing_run,
    word_level,
)
from .ratmatrix import block_dets, det_bareiss, diagonal_blocks, parity, sub_rows
from .symring import SymPoly, lc_put

LOG = ("log",)
_ZERO = Fraction(0)  # shared by every empty matrix entry; Fractions are immutable


def _zgen(m: int):
    return ("z", m)


class IrreducibleLeftFactor(Exception):
    """A graded map met a left tensor factor outside the closed-form families."""


# ---------------------------------------------------------------------------
# the derivations
# ---------------------------------------------------------------------------

def deriv_D(r: int, k: tuple) -> dict:
    """Full expansion of D_r on the rescaled t value of index k.

    Returns {(left tag, right index): int}: every cut contributes +1 or
    -1.  Left tags are ("t", idx) for a rescaled t block, ("zl", s, idx)
    for a zeta block with s leading zeros, or ("log",) for the weight-one
    logarithm.  The result is a fresh dict, free to modify.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError("r must be odd and positive")
    return dict(_deriv_D_all(tuple(k)).get(r, ()))


@lru_cache(maxsize=1)
def _deriv_D_all(k: tuple) -> dict:
    """{odd r: D_r expansion of k}, each cut of k expanded once for every r.

    graded_partial asks for r = 1, 3, ... of one word in a row, so a memo
    of the last word serves it.  Within each r the terms are summed in
    the order _cut_terms lists them.
    """
    by_r: dict = {}
    for r, tag, right, sign in _cut_terms(k):
        lc_put(by_r.setdefault(r, {}), (tag, right), sign)
    return by_r


def _cut_terms(k: tuple):
    """Every term of every odd D_r on the rescaled t value of index k, as
    (r, left tag, right index, +1 or -1), before any terms cancel.

    The one statement of the cut rules: deriv_D sums these terms, and the
    matrix rows (_level_row) read them directly.  A cut whose range of r
    is empty is skipped before any of its subindices is built; it would
    add no term.
    """
    d = len(k)
    pre = list(accumulate(k, initial=0))  # sum(k[a:b]) == pre[b] - pre[a]

    # deconcatenation of a prefix of odd weight r
    for j in range(1, d + 1):
        if pre[j] % 2:
            yield pre[j], ("t", k[:j]), k[j:], 1

    # the cut (i, j) of weight wij contributes to every odd r < wij - 1
    # with r >= w_in (zero-headed) or r >= w_out (zero-tailed); on a
    # {1,2} word that range holds at most one r, so most cuts build nothing
    for i in range(1, d):
        before = k[:i - 1]
        for j in range(i + 1, d + 1):
            wij = pre[j] - pre[i - 1]
            w_in = wij - k[i - 1]
            w_out = wij - k[j - 1]
            rs = range((w_in if w_in < w_out else w_out) | 1, wij - 1, 2)
            if not rs:
                continue
            head = k[i:j]
            tail = tuple(reversed(k[i - 1:j - 1]))  # the zero-tailed subindex, reversed
            after = k[j:]
            for r in rs:
                right = before + (wij - r,) + after
                if w_in <= r:
                    yield r, ("zl", r - w_in, head), right, 1
                    if r == 1:
                        yield r, LOG, right, -1
                if w_out <= r:
                    yield r, ("zl", r - w_out, tail), right, -1
                    if r == 1:
                        yield r, LOG, right, 1


def deriv_D_star(r: int, k: tuple) -> dict:
    """D_r on the stuffle-regularized rescaled t value with t*(1) = lam log2.

    Same three families of cuts as deriv_D, plus the trailing-ones
    deconcatenation ("zst1", r) x (k minus its last r entries), active
    when the last r entries are all 1.
    """
    out = deriv_D(r, k)
    k = tuple(k)
    if trailing_run(k, 1) >= r:
        lc_put(out, (("zst1", r), k[:-r]), 1)
    return out


# ---------------------------------------------------------------------------
# reduction of left factors
# ---------------------------------------------------------------------------

def lie_reduce(tag):
    """Reduce a left tag to (coefficient, generator) with generator
    ("log",) or ("z", odd weight); a zero coefficient signals a class
    that dies in the linearized quotient."""
    if tag == LOG:
        return Fraction(1), LOG
    kind = tag[0]
    if kind == "t":
        idx = tag[1]
        if idx == (1,):
            return Fraction(1), LOG
        if all(x == 2 for x in idx):
            return Fraction(0), None
        m = split_2a_x_2b(idx, 1)
        if m is not None:
            a, b = m
            return coeff_d_121(a, b), _zgen(2 * a + 2 * b + 1)
        m = split_2a_x_2b(idx, 3)
        if m is not None:
            a, b = m
            return coeff_d_232(a, b), _zgen(2 * a + 2 * b + 3)
        raise IrreducibleLeftFactor(f"t block {idx}")
    if kind == "zl":
        s, idx = tag[1], tag[2]
        if s == 0:
            if all(x == 2 for x in idx):
                return Fraction(0), None
            if len(idx) == 1:
                n = idx[0]
                if n == 1 or n % 2 == 0:
                    return Fraction(0), None
                return Fraction(1), _zgen(n)
            m = split_2a_x_2b(idx, 1)
            if m is not None:
                a, b = m
                w = 2 * a + 2 * b + 1
                c = zl_2212(a, b)
                return (c, _zgen(w)) if c else (Fraction(0), None)
            m = split_2a_x_2b(idx, 3)
            if m is not None:
                a, b = m
                return coeff_c_231(a, b), _zgen(2 * a + 2 * b + 3)
            raise IrreducibleLeftFactor(f"zeta block {idx}")
        if s == 1:
            if all(x == 2 for x in idx):
                a = len(idx)
                c = coeff_c_21(a)
                return (c, _zgen(2 * a + 1)) if c else (Fraction(0), None)
            raise IrreducibleLeftFactor(f"zeta block with lead zero {idx}")
        raise IrreducibleLeftFactor(f"zeta block with {s} lead zeros {idx}")
    if kind == "zst1":
        r = tag[1]
        if r == 1:
            return SymPoly.gen("lam", 1, 2) - 1, LOG
        return Fraction(1, r), _zgen(r)
    raise IrreducibleLeftFactor(f"unknown tag {tag}")


def pitilde(gen) -> Fraction:
    """The projection log2 -> 1/2, zeta(2r+1) -> 2^(2r-1)."""
    if gen == LOG:
        return Fraction(1, 2)
    m = gen[1]
    if m % 2 == 0 or m < 3:
        raise InvariantError(f"pitilde needs log2 or an odd zeta of weight >= 3, got {gen}")
    return Fraction(2 ** (m - 2))


def reduce_deriv(terms: dict) -> dict:
    """Reduce every left tag of a derivation expansion; returns
    {(generator, right index): coefficient} with zero classes dropped."""
    out: dict = {}
    for (tag, right), coeff in terms.items():
        red, gen = lie_reduce(tag)
        if gen is None:
            continue
        lc_put(out, (gen, right), coeff * red)
    return out


# ---------------------------------------------------------------------------
# graded maps and matrices
# ---------------------------------------------------------------------------

def _valid_word(w: tuple, kind: str) -> bool:
    if w == ():
        return True
    if kind == "S":
        return is_saha_word(w)
    return is_hoffman_word(w)


@lru_cache(maxsize=None)
def _right_factor(right: tuple, word_kind: str) -> tuple:
    """(valid, level) of a right factor as a kind-word_kind word; the level
    is None for an invalid word.  Memoised: every term's right factor is
    checked on every build, and a word of weight N recurs as the right
    factor of many words above it."""
    valid = _valid_word(right, word_kind)
    return valid, word_level(right, word_kind) if valid else None


def _refuse_right_factor(r: int, w: tuple, ell: int, right: tuple, level) -> None:
    """Raise InvariantError for the right factor of a D_r term of the
    level-ell word w that is invalid (level None) or of level >= ell: the
    lemma that makes the matrices filtered fails."""
    if level is None:
        raise InvariantError(f"D_{r} of {w} has the invalid right factor {right}")
    raise InvariantError(f"D_{r} of the level-{ell} word {w} has the right factor {right} of level {level}")


@lru_cache(maxsize=None)
def _graded_factor(tag):
    """What one unit of the left tag adds to a matrix entry: its reduced
    coefficient times the projection of its generator, or 0 for a class
    that dies.  A tag that raises IrreducibleLeftFactor is not cached."""
    red, gen = lie_reduce(tag)
    return 0 if gen is None else red * pitilde(gen)


def graded_partial(kind: str, N: int, ell: int, w: tuple):
    """Row of the graded derivation matrix for the basis word w, from the
    definition: the sum of D_r (D*_r for kind 'Hstar') over odd r.

    Returns {B'-word: coefficient}; coefficients are Fractions, or
    SymPolys affine in lam for kind 'Hstar' (the reference rows of
    star_matrix).  D_r sends a level-l word to right factors of level
    < l; every term's right factor is checked on every call, and only
    those of level l - 1 enter the row.  The matrices are built by
    _level_row, which the tests compare with this.
    """
    word_kind = "S" if kind == "S" else "H"
    w = tuple(w)
    if not (_valid_word(w, word_kind) and sum(w) == N and word_level(w, word_kind) == ell):
        raise ValueError(f"{w} is not a kind-{word_kind} word of weight {N} and level {ell}")
    out: dict = {}
    for r in range(1, N + 1, 2):
        terms = deriv_D_star(r, w) if kind == "Hstar" else deriv_D(r, w)
        for (tag, right), coeff in terms.items():
            valid, level = _right_factor(right, word_kind)
            if not valid or level >= ell:
                _refuse_right_factor(r, w, ell, right, level)
            if level < ell - 1:
                continue
            factor = _graded_factor(tag)
            if factor:
                lc_put(out, right, factor if coeff == 1 else -factor if coeff == -1 else coeff * factor)
    return out


def _level_row(w: tuple, word_kind: str, ell: int) -> dict:
    """{B'-word: Fraction}, the nonzero entries of the S or H row of the
    level-ell word w, in one walk over its cuts (_cut_terms).

    Every term's right factor is checked before any terms cancel, so a
    bad factor raises on every build.  The graded factors are summed as
    integer numerators over one common denominator, raised to the lcm as
    factors arrive, and each nonzero entry becomes one Fraction at the end.
    """
    nums, den = {}, 1
    for r, tag, right, sign in _cut_terms(w):
        valid, level = _right_factor(right, word_kind)
        if not valid or level >= ell:
            _refuse_right_factor(r, w, ell, right, level)
        if level < ell - 1:
            continue
        factor = _graded_factor(tag)
        if factor:
            d = factor.denominator
            if den % d:
                m = d // math.gcd(den, d)
                den *= m
                for u in nums:
                    nums[u] *= m
            nums[right] = nums.get(right, 0) + sign * factor.numerator * (den // d)
    return {u: Fraction(x, den) for u, x in nums.items() if x}


@dataclass(frozen=True)
class FiltMatrix:
    """A level matrix, held as its sparse rows only.  A built matrix is
    shared, by every build of its (kind, N, ell) and by the Hstar
    matrices derived from it, so it is read-only: copy its nonzero rows
    before changing any (entries is a fresh copy already)."""

    kind: str
    N: int
    ell: int
    rows: list
    cols: list
    nonzero: list  # the rows' nonzero entries {column offset: entry}; for Hstar, SymPolys lam - 1/2 + H's entry at the cells
    base: FiltMatrix | None = None  # Hstar: its kind-H matrix, the value at lam = 1/2
    cells: tuple = ()  # Hstar: the (row, column) offsets of the lam cells

    @property
    def entries(self) -> list:
        """The dense rows, built afresh from the nonzero rows on every
        read, so a caller may change them."""
        out = []
        for nz in self.nonzero:
            row = [_ZERO] * len(self.cols)
            for j, x in nz.items():
                row[j] = x
            out.append(row)
        return out

    def entry(self, w, wp):
        return self.nonzero[self.rows.index(w)].get(self.cols.index(wp), _ZERO)

    @cached_property
    def blocks(self) -> list:
        """[(start, end, det)] of the diagonal blocks, eliminated once per
        matrix (block_dets); Hstar's are those of its H matrix."""
        return self.base.blocks if self.base is not None else block_dets(self.nonzero)

    def det(self):
        """A Fraction; for Hstar, a SymPoly affine in lam, computed once
        per matrix."""
        if self.kind == "Hstar":
            return self._lam_det
        return math.prod((d for _, _, d in self.blocks), start=Fraction(1))

    @cached_property
    def _lam_det(self) -> SymPoly:
        return _star_det(self.base, self.cells)

    def to_json(self) -> dict:
        def fmt(x):
            if isinstance(x, SymPoly):  # a lam cell
                return {
                    "const": str(x.coeff_of_power("lam", 0).const_value()),
                    "lambda": str(x.coeff_of_power("lam", 1).const_value()),
                }
            return str(x)

        return {
            "kind": self.kind,
            "N": self.N,
            "level": self.ell,
            "rows": ["".join(map(str, w)) for w in self.rows],
            "cols": ["".join(map(str, w)) if w else "" for w in self.cols],
            "entries": [[fmt(x) for x in row] for row in self.entries],
        }


def build_matrix(kind: str, N: int, ell: int) -> FiltMatrix:
    """The matrix of the graded derivation with respect to (B, B');
    kind Hstar is star_matrix of the kind-H matrix.  Every matrix is
    built once per process (_plain_matrix), so a repeated call shares one
    matrix, its blocks and its determinant, and the Hstar of a level
    shares its H matrix."""
    if kind not in ("S", "H", "Hstar"):
        raise ValueError(f"kind must be 'S', 'H' or 'Hstar', got {kind!r}")
    return _plain_matrix(kind, N, ell)


@lru_cache(maxsize=None)
def _plain_matrix(kind: str, N: int, ell: int) -> FiltMatrix:
    """The matrix of kind S, H or Hstar of weight N and level ell,
    memoised; Hstar is star_matrix of the memoised H matrix.  A build
    that raises is not cached, so its checks run again.  An empty basis
    (kind S at level N) is refused: it has no matrix."""
    if kind == "Hstar":
        return star_matrix(_plain_matrix("H", N, ell))
    if kind == "S" and N < 2:
        raise ValueError(f"kind S has no words of weight {N}; need N >= 2")
    B, Bp = basis_sets(kind, N, ell)
    if not B:
        raise ValueError(f"kind {kind} has no words of weight {N} and level {ell}")
    if len(B) != len(Bp):
        raise InvariantError(f"bases of unequal size at {kind} N={N} level {ell}: {len(B)} and {len(Bp)}")
    col = {u: j for j, u in enumerate(Bp)}
    nonzero = []
    for w in B:
        row_map = _level_row(w, kind, ell)
        try:
            nonzero.append({col[u]: x for u, x in row_map.items()})
        except KeyError:
            raise InvariantError(f"row {w} hit non-basis words {sorted(set(row_map) - col.keys())}") from None
    return FiltMatrix(kind, N, ell, list(B), list(Bp), nonzero)


def star_matrix(h: FiltMatrix) -> FiltMatrix:
    """Hstar(lam): the kind-H matrix h plus lam - 1/2 at the cell
    (w, w[:-1]) of every row w ending in 1.  That is D*_1's term
    ("zst1", 1) x w[:-1], which lie_reduce sends to (2 lam - 1) log and
    pitilde to lam - 1/2; D*_r's terms with r >= 3 fall below level
    ell - 1.  A row whose w[:-1] is not a column raises InvariantError.
    """
    col = {u: j for j, u in enumerate(h.cols)}
    nonzero = list(h.nonzero)
    cells = []
    for i, w in enumerate(h.rows):
        if w[-1] != 1:
            continue
        j = col.get(w[:-1])
        if j is None:
            raise InvariantError(f"row {w} ends in 1 but {w[:-1]} is not a column")
        nonzero[i] = {**nonzero[i], j: SymPoly.gen("lam") - Fraction(1, 2) + nonzero[i].get(j, 0)}
        cells.append((i, j))
    return FiltMatrix("Hstar", h.N, h.ell, h.rows, h.cols, nonzero, h, tuple(cells))


def _star_det(base: FiltMatrix, cells) -> SymPoly:
    """det(base + (lam - 1/2) at the cells) as d0 + d1 lam.

    The diagonal blocks of the entries nonzero at lam = 1/2 or 1 (so at
    some lam) are blocks at every lam.  If the cells inside them lie in
    one row, the determinant is affine in lam, and its values at 1/2
    (base's own) and 1 give it; if in two or more, InvariantError.
    Base's own blocks refine those, so its factorisation gives the value
    at 1/2, and only the block holding the in-block row is eliminated at 1.
    Every pass reads base's nonzero rows only.
    """
    at_one, pattern = list(base.nonzero), list(base.nonzero)
    for i, j in cells:
        x = at_one[i].get(j, 0) + Fraction(1, 2)
        at_one[i] = {**at_one[i], j: x} if x else {c: y for c, y in at_one[i].items() if c != j}
        pattern[i] = {**pattern[i], j: 1}  # a cell is nonzero at lam = 1/2 or at 1
    blocks = {i: b for b in diagonal_blocks(pattern) for i in range(*b)}  # row -> its block
    inside = sorted({i for i, j in cells if j >= blocks[i][0]})
    if len(inside) > 1:
        raise InvariantError(f"lam enters rows {inside} inside their diagonal blocks: not affine")
    b0, b1 = blocks[inside[0]] if inside else (0, 0)  # no lam block: an empty one, of det 1
    d_half, d_one = base.det(), det_bareiss(sub_rows(at_one, b0, b1))
    for c0, _, d in base.blocks:
        if not b0 <= c0 < b1:
            d_one *= d
    return SymPoly.const(2 * d_half - d_one) + SymPoly.gen("lam", 1, 2 * (d_one - d_half))


# ---------------------------------------------------------------------------
# structure reports
# ---------------------------------------------------------------------------

@dataclass
class Mod2Report:
    ok: bool
    det: object
    notes: list


def _upper_unitriangular_mod2(rows, c0: int, c1: int) -> bool:
    """The square block rows[c0:c1] x columns [c0, c1) of a matrix given
    by its nonzero rows has integral entries, odd on the diagonal and
    even below it."""
    for i in range(c0, c1):
        row = rows[i]
        x = row.get(i)
        if x is None or x.denominator != 1 or x.numerator % 2 != 1:
            return False
        if any(c0 <= j < c1 and (y.denominator != 1 or (j < i and y.numerator % 2)) for j, y in row.items()):
            return False
    return True


def det_mod2_structure(m: FiltMatrix) -> Mod2Report:
    """Check the parity structure of a level matrix, with its exact
    determinant, which must be nonzero for every kind.

    For the one-two-three matrices at level > 1: integral entries,
    upper-unitriangular mod 2, so the determinant is odd.  At level 1
    the last row consists of even integers and is nonzero, and the
    complementary leading minor is upper-unitriangular mod 2; the
    determinant is then even, so the verdict rests on its exact value.
    For the one-two matrices: block lower triangular along the
    trailing-ones classes, every non-final diagonal block
    upper-unitriangular mod 2, and the final block's determinant in
    1/2 + Z.  The determinant is m.det(), and the final block's the
    product of the blocks of m.blocks inside it, or its own elimination
    where its boundary is no cut.  Every check reads only the nonzero
    entries (m.nonzero).  At lam = 1/2 the parametric version is the
    plain one, so the report is only defined for kinds S and H.
    """
    if m.kind not in ("S", "H"):
        raise ValueError("structure report is defined for kinds S and H")
    det = m.det()
    nz, n = m.nonzero, len(m.nonzero)
    notes, failures = [], []

    def fail(note):
        notes.append(note)
        failures.append(note)

    if m.kind == "S":
        if m.ell > 1:
            if not _upper_unitriangular_mod2(nz, 0, n):
                fail("expected upper unitriangular mod 2")
            else:
                notes.append("upper unitriangular mod 2, determinant odd")
                if parity(det) != 1:
                    fail("determinant not odd")
        else:
            # level 1: the final row consists of even integers, so the
            # determinant is even and the parity checks cannot show it
            # nonzero; that rests on the exact determinant, checked below.
            last = nz[-1].values()
            if not all(x.denominator == 1 and x.numerator % 2 == 0 for x in last):
                fail("last row should consist of even integers")
            if not last:
                fail("last row vanishes")
            if not _upper_unitriangular_mod2(nz, 0, n - 1):
                fail("leading minor not upper unitriangular mod 2")
            else:
                notes.append("even last row over an odd leading minor")
    else:
        classes_B, classes_Bp = trailing_ones_partition(m.rows, m.cols, m.N, m.ell)
        sizes_B = [len(c) for c in classes_B]
        if sizes_B != [len(c) for c in classes_Bp]:
            fail("trailing-ones classes of unequal sizes")
        # the sorted bases list the classes contiguously in ascending order
        if [w for c in classes_B for w in c] != m.rows or [u for c in classes_Bp for u in c] != m.cols:
            fail("trailing-ones classes not contiguous in the basis order")
        offsets = list(accumulate(sizes_B, initial=0))
        blocks = list(zip(offsets, offsets[1:]))
        for bi, (r0, r1) in enumerate(blocks):
            above = {bisect_right(offsets, j) - 1 for row in nz[r0:r1] for j in row if r1 <= j < offsets[-1]}
            for bj in sorted(above):
                fail(f"block ({bi}, {bj}) above the block diagonal is nonzero")
        for bi, (r0, r1) in enumerate(blocks[:-1]):
            if not _upper_unitriangular_mod2(nz, r0, r1):
                fail(f"diagonal block {bi} not upper unitriangular mod 2")
        r0, r1 = blocks[-1]
        if any(c0 == r0 for c0, _, _ in m.blocks):
            fdet = math.prod((d for c0, _, d in m.blocks if c0 >= r0), start=Fraction(1))
        else:  # a class boundary inside a block has failed above; stay exact
            fdet = det_bareiss(sub_rows(nz, r0, r1))
        if (2 * fdet).denominator != 1 or parity(2 * fdet) != 1:
            fail("final block determinant not in 1/2 + Z")
        else:
            notes.append("final block determinant in 1/2 + Z")
    if det == 0:
        fail("determinant vanishes")
    return Mod2Report(not failures, det, notes)


# ---------------------------------------------------------------------------
# singular parameters
# ---------------------------------------------------------------------------

def singular_lambda(N: int) -> Fraction:
    """The value of lam at which the parametric level-one matrix of odd
    weight N degenerates, exactly.  The determinant is affine in lam with
    a nonzero slope; one that is not raises InvariantError."""
    if N < 1 or N % 2 == 0:
        raise ValueError("need odd N >= 1")
    det = build_matrix("Hstar", N, 1).det()
    if det.max_degree("lam") != 1:
        raise InvariantError(f"determinant {det} is not affine in lam")
    return -det.coeff_of_power("lam", 0).const_value() / det.coeff_of_power("lam", 1).const_value()


# ---------------------------------------------------------------------------
# the weight-one derivation on products of motivic expressions
# ---------------------------------------------------------------------------
#
# A MotExpr monomial is a sorted tuple of atoms:
#   ("t", idx)     a t value (plain normalization)
#   ("zalt", s)    an alternating zeta value, s a tuple of signed ints
#   ("log2",)      log 2
#   ("z", n)       a single zeta value, n >= 2
# A linear combination maps monomials to Fractions.

def mot_mono(*atoms) -> tuple:
    return tuple(sorted(atoms))


def _d1_atom(atom):
    """D_1 of one atom, as [(right-atom-or-None, coeff)], left factor log."""
    kind = atom[0]
    if kind == "log2":
        return [(None, Fraction(1))]
    if kind == "z":
        return []
    if kind == "t":  # the plain normalization halves every coefficient of D_1 on the rescaled value
        return [(("t", right) if right else None, c / 2) for (_, right), c in reduce_deriv(deriv_D(1, atom[1])).items()]
    if kind == "zalt":
        parts = atom[1]
        if all(x > 0 for x in parts[:-1]) and parts[-1] <= -2:
            return []
        raise ValueError(f"alternating atom outside the supported family: {parts}")
    raise ValueError(f"unknown atom {atom}")


def d1_project(expr: dict) -> dict:
    """Apply D_1 to a combination of monomials and project log -> 1.

    The t-atom rule in the plain normalization removes a leading 1 with
    coefficient 1 and a trailing 1 with coefficient -1/2; log2 is
    primitive; single zetas and tail-barred alternating zetas die.
    """
    out: dict = {}
    for mono, c in expr.items():
        for i, atom in enumerate(mono):
            rest = mono[:i] + mono[i + 1:]
            for replacement, factor in _d1_atom(atom):
                new = rest if replacement is None else mot_mono(*rest, replacement)
                lc_put(out, tuple(new), c * factor)
    return out
