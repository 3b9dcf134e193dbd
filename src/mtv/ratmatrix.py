"""Exact-rational matrices on sparse rows, with fraction-free determinants.

A matrix is a list of rows, each row a dict {column: entry} of its
nonzero entries (ints or Fractions); the parametric Hstar matrices are
reduced to Fraction matrices in motivic before they get here.  The
level matrices are about 12 % nonzero and are kept as sparse rows only,
so every pass but the Bareiss elimination itself reads only the nonzero
entries: the cut scan, the block scaling and motivic's parity checks.

A matrix is first cut into its diagonal blocks: one scan finds every c
with all entries of rows[:c] in columns >= c zero, so the matrix is
block lower triangular and its determinant is exactly the product of
the blocks' determinants, whatever the input.  The level matrices split
along their trailing-ones classes, so the O(n^3) elimination runs on
much smaller blocks.  block_dets is the one elimination loop, and
callers that need one block's determinant read it there: each block's
rows are scaled to integers by the lcm of their denominators, read off
the entries' numerators and denominators with no Fraction arithmetic,
and the integer block is eliminated once, dense, with the Bareiss
recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction


def sub_rows(rows, c0: int, c1: int) -> list:
    """The square block rows[c0:c1] x columns [c0, c1), as sparse rows
    with columns counted from c0."""
    return [{j - c0: x for j, x in row.items() if c0 <= j < c1} for row in rows[c0:c1]]


def diagonal_blocks(rows):
    """The (start, end) offsets of the finest diagonal blocks of a square
    matrix, given as sparse rows, that is block lower triangular.

    One scan keeps the rightmost nonzero column of the rows seen so far;
    c is a cut exactly when every entry of rows[:c] in columns >= c is
    zero.  A matrix with no such c < n is one block; a column index of n
    or more raises ValueError.
    """
    reach = 0  # one past the rightmost nonzero column of the rows so far
    start = 0
    for i, row in enumerate(rows):
        if row:
            reach = max(reach, max(row.keys()) + 1)
        if reach <= i + 1:
            yield start, i + 1
            start = i + 1
    if start != len(rows):
        raise ValueError(f"non-square matrix: a column index of {reach - 1} in {len(rows)} rows")


def _bareiss_int(m) -> int:
    """Determinant of a square integer matrix, eliminated in place with
    the fraction-free Bareiss recurrence; every division is exact."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        tail = m[k][k + 1:]
        for row in m[k + 1:]:
            a = row[k]
            # the level matrices are sparse: rows with a zero pivot-column
            # entry are common, and rescaling them alone is measurably faster
            if a:
                row[k + 1:] = [(pivot * x - a * y) // prev for x, y in zip(row[k + 1:], tail)]
            else:
                row[k + 1:] = [pivot * x // prev for x in row[k + 1:]]
        prev = pivot
    return sign * m[n - 1][n - 1]


def block_dets(rows) -> list:
    """[(start, end, det)] for the diagonal blocks of a square matrix
    given as sparse rows (diagonal_blocks), each block eliminated once.

    The matrix's determinant is the product of the dets, since every
    entry above the blocks is zero.
    """
    out = []
    for c0, c1 in diagonal_blocks(rows):
        block, scale = [], 1  # each row scaled to integers by the lcm of its denominators
        for row in rows[c0:c1]:
            inside = [(j - c0, x) for j, x in row.items() if j >= c0]
            den = math.lcm(*[x.denominator for _, x in inside])
            scale *= den
            dense = [0] * (c1 - c0)
            for j, x in inside:
                dense[j] = x.numerator * (den // x.denominator)
            block.append(dense)
        out.append((c0, c1, Fraction(_bareiss_int(block), scale)))
    return out


def det_bareiss(rows) -> Fraction:
    """Exact determinant of a square matrix given as sparse rows: the
    product of its diagonal blocks' determinants (block_dets)."""
    return math.prod((d for _, _, d in block_dets(rows)), start=Fraction(1))


def parity(x) -> int:
    if x.denominator != 1:
        raise ValueError(f"parity of a non-integer: {x}")
    return x.numerator % 2
