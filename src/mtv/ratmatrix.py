"""Dense exact-rational matrices with fraction-free determinants.

Entries are Fractions, or SymPolys affine in lam for the parametric
matrices; the determinant of a parametric matrix is recovered from
evaluations at lam = 0 and lam = 1, with a third evaluation checking
that the determinant really is affine.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .symring import SymPoly


def _row_scaled_int(rows):
    """Scale each row to integers; returns (int rows, product of scales)."""
    scaled = []
    total = Fraction(1)
    for row in rows:
        denlcm = 1
        for x in row:
            denlcm = denlcm * x.denominator // math.gcd(denlcm, x.denominator)
        total *= denlcm
        scaled.append([int(x * denlcm) for x in row])
    return scaled, total


def det_bareiss(rows) -> Fraction:
    """Exact determinant of a square matrix of Fractions.

    Rows are scaled to integers, then eliminated with the fraction-free
    Bareiss recurrence; every division along the way is exact.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError(f"non-square matrix: {n} rows of lengths {sorted({len(r) for r in rows})}")
    m, scale = _row_scaled_int([[Fraction(x) for x in row] for row in rows])
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
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1]) / scale


def _entry_to_fraction(x, lam_value: Fraction) -> Fraction:
    if isinstance(x, SymPoly):
        v = x.substitute({"lam": SymPoly.const(lam_value)})
        return v.const_value()
    return Fraction(x)


def det_exact(rows):
    """Determinant of a matrix whose entries are Fractions or SymPolys
    affine in lam.  Returns a Fraction, or a SymPoly affine in lam.

    Parametric determinants are interpolated from lam = 0 and lam = 1
    and cross-checked at lam = 2; a determinant that is not affine raises
    RuntimeError.
    """
    has_lam = any(isinstance(x, SymPoly) and x.max_degree("lam") > 0 for row in rows for x in row)
    if not has_lam:
        return det_bareiss([[_entry_to_fraction(x, Fraction(0)) for x in row] for row in rows])
    for row in rows:
        for x in row:
            if isinstance(x, SymPoly) and x.max_degree("lam") > 1:
                raise ValueError(f"entries must be affine in lam, got {x}")
    d0 = det_bareiss([[_entry_to_fraction(x, Fraction(0)) for x in row] for row in rows])
    d1 = det_bareiss([[_entry_to_fraction(x, Fraction(1)) for x in row] for row in rows])
    d2 = det_bareiss([[_entry_to_fraction(x, Fraction(2)) for x in row] for row in rows])
    if d2 != 2 * d1 - d0:
        raise RuntimeError(f"determinant is not affine in lam: {d0}, {d1}, {d2} at lam = 0, 1, 2")
    return SymPoly.const(d0) + SymPoly.gen("lam", 1, d1 - d0)


def is_integer(x: Fraction) -> bool:
    return Fraction(x).denominator == 1


def parity(x: Fraction) -> int:
    x = Fraction(x)
    if x.denominator != 1:
        raise ValueError(f"parity of a non-integer: {x}")
    return x.numerator % 2
