import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction
from importlib import resources

import pytest

from mtv import motivic, ratmatrix
from mtv.errors import InvariantError
from mtv.indexcore import basis_sets, trailing_ones_partition
from mtv.motivic import FiltMatrix, build_matrix, det_mod2_structure
from mtv.ratmatrix import det_bareiss, diagonal_blocks
from mtv.symring import SymPoly


def _golden(name):
    with resources.files("mtv.data").joinpath(name).open() as fh:
        return json.load(fh)


def _sparse(rows):
    """The sparse rows {column: entry} of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def cofactor_det(m):
    """Laplace expansion along the first row: the reference determinant."""
    if not m:
        return Fraction(1)
    total = Fraction(0)
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def gauss_det(m):
    """Plain Fraction Gauss elimination of the whole matrix, with no block
    cuts: a reference determinant for matrices too large for cofactors."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for row in a[k + 1:]:
            f = row[k] / a[k][k]
            if f:
                row[k:] = [x - f * y for x, y in zip(row[k:], a[k][k:])]
    return det


def test_det_bareiss():
    assert det_bareiss(_sparse([[Fraction(1)]])) == 1
    assert det_bareiss(_sparse([[1, 2], [3, 4]])) == -2
    assert det_bareiss(_sparse([[0, 1], [1, 0]])) == -1
    assert det_bareiss(_sparse([[Fraction(1, 2), 1], [1, 2]])) == 0
    m = [[Fraction(i * j + (i == j), 3) for j in range(5)] for i in range(5)]
    assert det_bareiss(_sparse(m)) == cofactor_det(m)
    m = [[Fraction((i * 7 + j * 3) % 5 - 2, 1 + ((i + j) % 3)) for j in range(5)] for i in range(5)]
    assert det_bareiss(_sparse(m)) == cofactor_det(m)


def test_det_bareiss_integer_path_against_cofactors():
    cases = {
        "int only": [[(i * 5 + j * 3) % 7 - 3 for j in range(5)] for i in range(5)],
        "mixed int and Fraction": [[Fraction(i + j, 2 + j) if (i + j) % 2 else i - 2 * j for j in range(5)]
                                   for i in range(5)],
        "zero pivot needing a row swap": [[0, 2, 1, 0], [0, 0, Fraction(3, 2), 1], [4, 1, 0, 2], [1, 0, 2, 5]],
        "singular": [[1, 2, 3], [Fraction(1, 2), 1, Fraction(3, 2)], [4, 5, 6]],
        "0 x 0": [],
    }
    for name, m in cases.items():
        det = det_bareiss(_sparse(m))
        assert isinstance(det, Fraction) and det == cofactor_det(m) == gauss_det(m), name
    assert cofactor_det(cases["zero pivot needing a row swap"]) != 0
    assert det_bareiss(_sparse(cases["singular"])) == 0


def _block_lower(rng, sizes, dens=(1, 2, 3, 5)):
    """A random block lower-triangular Fraction matrix with the given
    diagonal block sizes: every entry above the blocks is zero."""
    ends = [sum(sizes[:b + 1]) for b in range(len(sizes))]
    n = ends[-1]
    block_end = [next(e for e in ends if e > i) for i in range(n)]
    return [[Fraction(rng.randint(-4, 4), rng.choice(dens)) if j < block_end[i] else Fraction(0)
             for j in range(n)] for i in range(n)]


def test_det_bareiss_splits_block_lower_triangular_matrices():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 6)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) + [n]
        sizes = [b - a for a, b in zip([0] + cuts, cuts)]
        m = _block_lower(rng, sizes)
        assert det_bareiss(_sparse(m)) == cofactor_det(m) == gauss_det(m), (sizes, m)
        # every cut of the construction is found (a block may split further)
        assert set(cuts) <= {c1 for _, c1 in diagonal_blocks(_sparse(m))}, (sizes, m)
        # the nonzero rows give each block's determinant as the dense block's cofactor expansion
        for c0, c1, d in ratmatrix.block_dets(_sparse(m)):
            assert d == cofactor_det([row[c0:c1] for row in m[c0:c1]]), (sizes, m, c0, c1)


@pytest.mark.parametrize("kind", ["S", "H", "Hstar"])
def test_nonzero_rows_are_the_nonzero_entries(kind):
    for N in range(2 if kind == "S" else 1, 12):
        for ell in range(2 - N % 2, N + 1, 2):
            if not basis_sets("H" if kind == "Hstar" else kind, N, ell)[0]:
                continue
            m = build_matrix(kind, N, ell)
            assert m.nonzero == _sparse(m.entries), (kind, N, ell)


def test_entries_is_a_fresh_view():
    # the dense rows are built from the sparse rows on every read, so
    # changing them changes no memoised matrix, determinant or Hstar
    h = build_matrix("H", 8, 2)
    want = (h.to_json(), h.det(), build_matrix("Hstar", 8, 2).to_json())
    build_matrix("H", 8, 2).entries[0][0] = Fraction(7)
    h = build_matrix("H", 8, 2)
    assert (h.to_json(), h.det(), build_matrix("Hstar", 8, 2).to_json()) == want


def test_level_matrices_retain_only_their_sparse_rows():
    # every S, H and Hstar matrix of weight <= 14, memoised: their sparse
    # rows and the memos behind them retain 2.72 MB (Python 3.11), where
    # the same matrices with a dense copy of every row retained 5.45 MB;
    # the bound lies halfway
    cases = [(kind, N, ell) for N in range(1, 15) for ell in range(2 - N % 2, N + 1, 2)
             for kind in ("S", "H", "Hstar")
             if (kind != "S" or N >= 2) and basis_sets("H" if kind == "Hstar" else kind, N, ell)[0]]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for case in cases:
            build_matrix(*case)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cases) == 154
    assert retained < 4_080_000, retained


def test_det_bareiss_does_not_cut_below_an_entry_in_the_last_column():
    # blocks [2, 2] but for one entry in the last column of the first row:
    # the matrix is one block, and the blocks' product is not its determinant
    m = [[Fraction(1), Fraction(2), Fraction(0), Fraction(3)],
         [Fraction(1, 2), Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(2), Fraction(1)],
         [Fraction(0), Fraction(1), Fraction(1), Fraction(1)]]
    assert list(diagonal_blocks(_sparse(m))) == [(0, 4)]
    blocks = cofactor_det([r[:2] for r in m[:2]]) * cofactor_det([r[2:] for r in m[2:]])
    assert det_bareiss(_sparse(m)) == cofactor_det(m) != blocks


def test_det_bareiss_with_a_singular_middle_block_is_zero():
    rng = random.Random(7)
    m = _block_lower(rng, [2, 3, 2])
    for j in range(2, 5):  # middle block rank 2: its third row is the sum of the first two
        m[2][j], m[3][j] = Fraction(j, 3), Fraction(1, j)
        m[4][j] = m[2][j] + m[3][j]
    for i in (0, 1, 5, 6):  # the outer blocks stay invertible
        m[i][i] += 20
    assert cofactor_det([r[:2] for r in m[:2]]) != 0 and cofactor_det([r[5:] for r in m[5:]]) != 0
    assert det_bareiss(_sparse(m)) == cofactor_det(m) == 0


def _star_det(plain, cells):
    """The Hstar determinant of a hand-built matrix: plain + (lam - 1/2) at the cells."""
    base = FiltMatrix("H", 0, 0, [], [], _sparse([[Fraction(x) for x in row] for row in plain]))
    return FiltMatrix("Hstar", 0, 0, [], [], [], base, tuple(cells)).det()


def test_hstar_det_affine_with_a_hand_placed_cell():
    # the weight-3 parametric matrix by hand: det [[1, -7], [lam-1, -7]] = 7 lam - 14
    lam = SymPoly.gen("lam")
    assert _star_det([[1, -7], [Fraction(-1, 2), -7]], [(1, 0)]) == 7 * lam - 14
    m = build_matrix("Hstar", 3, 1)
    assert m.cells == ((1, 0),) and m.det() == 7 * lam - 14
    # a cell on a zero entry above the blocks joins them: det [[2, lam - 1/2], [3, 5]] = 23/2 - 3 lam
    assert _star_det([[2, 0], [3, 5]], [(0, 1)]) == Fraction(23, 2) - 3 * lam


def test_hstar_det_refuses_two_cells_inside_the_blocks():
    lam = SymPoly.gen("lam")
    half = Fraction(1, 2)
    # lam, lam - 1, lam - 2 on the diagonal: lam^3 - 3 lam^2 + 2 lam vanishes
    # at lam = 0, 1 and 2, and no two evaluations could tell it from affine
    with pytest.raises(InvariantError, match=r"rows \[0, 1, 2\]"):
        _star_det([[half, 0, 0], [0, -half, 0], [0, 0, -3 * half]], [(0, 0), (1, 1), (2, 2)])
    # 1 - lam^2: lam only off the diagonal, which joins the two rows in one block
    with pytest.raises(InvariantError, match=r"rows \[0, 1\]"):
        _star_det([[1, half], [half, 1]], [(0, 1), (1, 0)])
    # a cell whose entry is 0 at lam = 1 still joins its row to the block
    with pytest.raises(InvariantError, match=r"rows \[0, 1\]"):
        _star_det([[1, -half], [half, 1]], [(0, 1), (1, 0)])
    # lam below the blocks only: the determinant is constant
    assert _star_det([[2, 0], [half, 3]], [(1, 0)]) == SymPoly.const(6)
    # lam in one row of the one block: affine
    assert _star_det([[Fraction(3, 2), half], [0, 3]], [(0, 0), (0, 1)]) == 3 * lam + 3


def _count_eliminations(monkeypatch) -> list:
    """The sizes of the blocks ratmatrix eliminates from now on, in order."""
    real, sizes = ratmatrix._bareiss_int, []

    def counted(block):
        sizes.append(len(block))
        return real(block)

    monkeypatch.setattr(ratmatrix, "_bareiss_int", counted)
    return sizes


def test_hstar_det_eliminates_each_block_once_and_the_lam_block_twice(monkeypatch):
    m = build_matrix("Hstar", 9, 3)
    blocks = [c1 - c0 for c0, c1 in diagonal_blocks(m.base.nonzero)]
    assert blocks == [10, 6, 4] and (19, 16) in m.cells  # the in-block lam cell is in the last block
    sizes = _count_eliminations(monkeypatch)
    m.det()
    assert sorted(sizes) == [4, 4, 6, 10]  # every block at lam = 1/2, the last again at lam = 1
    sizes.clear()
    assert det_mod2_structure(build_matrix("H", 9, 3)).ok and sizes == []  # the H report reads the shared blocks


def test_hstar_det_after_the_h_report_eliminates_only_the_lam_block(monkeypatch):
    h = build_matrix("H", 9, 3)
    sizes = _count_eliminations(monkeypatch)
    assert det_mod2_structure(h).ok and sizes == [10, 6, 4]
    sizes.clear()
    star = build_matrix("Hstar", 9, 3)
    assert star.base is h and star.blocks is h.blocks
    star.det()
    assert sizes == [4]  # the lam block at lam = 1; H's blocks are read from the shared h


@pytest.mark.parametrize("kind", ["S", "H"])
def test_a_level_is_built_once_and_shared_read_only(kind):
    m = build_matrix(kind, 9, 3)
    assert build_matrix(kind, 9, 3) is m
    assert build_matrix("Hstar", 9, 3).base is build_matrix("H", 9, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.cols = []


def test_hstar_is_built_once_per_level_and_its_determinant_taken_once(monkeypatch):
    star = build_matrix("Hstar", 9, 1)
    assert build_matrix("Hstar", 9, 1) is star and star.base is build_matrix("H", 9, 1)
    sizes = _count_eliminations(monkeypatch)
    det = star.det()
    assert sizes and star.det() is det
    sizes.clear()
    assert build_matrix("Hstar", 9, 1).det() is det and sizes == []


def test_singular_lambda_after_the_sweep_eliminates_nothing(monkeypatch):
    from mtv.motivic import singular_lambda
    from mtv.verify import invertibility_checks

    assert all(r.status == "PASS" for r in invertibility_checks())
    sizes = _count_eliminations(monkeypatch)
    assert singular_lambda(9) == Fraction(_golden("golden_singular_lambda.json")["9"]) and sizes == []


def test_singular_lambda_is_an_exact_fraction():
    # -a / b of two const_value() results: a bare int there would divide as a float
    from mtv.motivic import singular_lambda

    lam = singular_lambda(9)
    assert type(lam) is Fraction and lam == Fraction(64472, 23479)


def test_a_failed_build_is_not_cached(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(motivic, "basis_sets", lambda kind, N, ell: ([()] * 5, [()] * 4))
        for _ in range(2):  # the check runs, and raises, on every call
            with pytest.raises(InvariantError, match="unequal size"):
                build_matrix("H", 8, 2)
    assert motivic._plain_matrix.cache_info().currsize == 0
    golden = _golden("golden_matrix_H_8_2.json")
    m = build_matrix("H", 8, 2).to_json()
    assert (m["rows"], m["cols"], m["entries"]) == (golden["rows"], golden["cols"], golden["entries"])


def test_invertibility_sweep_eliminates_each_block_once_and_one_lam_block_per_level(monkeypatch):
    from collections import Counter

    from mtv.verify import invertibility_checks

    levels = [(N, ell) for N in range(1, 15) for ell in range(2 - N % 2, N + 1, 2)]
    plain = Counter(c1 - c0 for N, ell in levels for kind in ("S", "H") if basis_sets(kind, N, ell)[0]
                    for c0, c1 in diagonal_blocks(build_matrix(kind, N, ell).nonzero))
    sizes = _count_eliminations(monkeypatch)
    assert all(r.status == "PASS" for r in invertibility_checks())
    extra = Counter(sizes) - plain
    assert Counter(sizes) - extra == plain  # every S and H block is eliminated
    assert len(levels) == 56 and sum(extra.values()) == len(levels)  # and again only each level's lam block
    assert len(sizes) <= 351 and sum(sizes) <= 2734


def test_hstar_det_with_the_lam_block_in_the_middle():
    # three diagonal blocks; lam enters the middle one at (3, 2), and below
    # the blocks at (5, 0), where it cannot change the determinant
    half = Fraction(1, 2)
    plain = [[2, 1, 0, 0, 0, 0],
             [1, 3, 0, 0, 0, 0],
             [4, 0, 1, 2, 0, 0],
             [0, 1, half, 5, 0, 0],
             [1, 0, 2, 0, 3, 1],
             [half, 2, 0, 1, 1, 2]]
    cells = [(3, 2), (5, 0)]
    assert list(diagonal_blocks(_sparse(plain))) == [(0, 2), (2, 4), (4, 6)]
    det = _star_det(plain, cells)
    assert det.max_degree("lam") == 1
    for lam in (Fraction(0), half, Fraction(1), Fraction(2)):
        rows = [[Fraction(x) for x in row] for row in plain]
        for i, j in cells:
            rows[i][j] += lam - half
        assert det.substitute({"lam": SymPoly.const(lam)}).const_value() == cofactor_det(rows), lam


def test_hstar_det_equals_per_lambda_substitution():
    # the reference route: substitute lam into every entry, then eliminate;
    # the determinant is read at lam = 1/2 and 1 only, so 0, 2 and 3 are checks
    for N in range(1, 13):
        for ell in range(N % 2 or 2, N + 1, 2):
            m = build_matrix("Hstar", N, ell)
            det = m.det()
            for lam in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)):
                value = {"lam": SymPoly.const(lam)}
                rows = [[x.substitute(value).const_value() if isinstance(x, SymPoly) else x for x in row]
                        for row in m.entries]
                assert det.substitute(value).const_value() == det_bareiss(_sparse(rows)), (N, ell, lam)


def test_hstar_is_h_plus_one_lam_cell_per_row_ending_in_1():
    lam = SymPoly.gen("lam")
    for N, ell in ((8, 2), (9, 3), (10, 4)):
        h, hs = build_matrix("H", N, ell), build_matrix("Hstar", N, ell)
        cells = {(i, hs.cols.index(w[:-1])) for i, w in enumerate(hs.rows) if w[-1] == 1}
        assert set(hs.cells) == cells and hs.base == h
        for i, (rx, ry) in enumerate(zip(hs.entries, h.entries)):
            for j, (x, y) in enumerate(zip(rx, ry)):
                assert x == (y + lam - Fraction(1, 2) if (i, j) in cells else y)


def test_star_matrix_refuses_a_row_whose_prefix_is_no_column():
    h = dataclasses.replace(build_matrix("H", 3, 1), cols=[(3,), ()])
    with pytest.raises(InvariantError, match=r"row \(2, 1\) ends in 1 but \(2,\) is not a column"):
        motivic.star_matrix(h)


def test_golden_matrices_reproduced():
    for kind, fname in (("S", "golden_matrix_S_8_2.json"),
                        ("H", "golden_matrix_H_8_2.json"),
                        ("Hstar", "golden_matrix_Hstar_8_2.json")):
        golden = _golden(fname)
        m = build_matrix(kind, 8, 2).to_json()
        assert m["rows"] == golden["rows"]
        assert m["cols"] == golden["cols"]
        assert m["entries"] == golden["entries"]


def test_hstar_at_half_is_plain():
    h = build_matrix("H", 8, 2)
    hs = build_matrix("Hstar", 8, 2)
    half = {"lam": SymPoly.const(Fraction(1, 2))}
    for rx, ry in zip(hs.entries, h.entries):
        for x, y in zip(rx, ry):
            xv = x.substitute(half).const_value() if isinstance(x, SymPoly) else x
            assert xv == y


def test_invertibility_and_structure_sweep():
    for kind in ("S", "H"):
        for N in range(1, 13):
            for ell in range(1, N + 1):
                if (N - ell) % 2:
                    continue
                if kind == "S" and (N < 2 or not basis_sets(kind, N, ell)[0]):
                    continue  # an empty basis has no matrix
                m = build_matrix(kind, N, ell)
                rep = det_mod2_structure(m)
                assert rep.ok, (kind, N, ell, rep.notes)
                assert rep.det != 0
                assert rep.det == gauss_det(m.entries), (kind, N, ell)
                if kind == "H":
                    # determinant lies in 1/2 + Z
                    assert (2 * rep.det).denominator == 1 and (2 * rep.det).numerator % 2 == 1


def test_hstar_invertible_at_half_and_one():
    for N in range(1, 13):
        for ell in range(1, N + 1):
            if (N - ell) % 2:
                continue
            m = build_matrix("Hstar", N, ell)
            if not m.rows:
                continue
            det = m.det()
            for lam in (Fraction(1, 2), Fraction(1)):
                assert det.substitute({"lam": SymPoly.const(lam)}).const_value() != 0


def test_weight8_parametric_det_vanishes_at_singular_value():
    det = build_matrix("Hstar", 8, 2).det()
    lam7 = SymPoly.const(Fraction(242, 91))
    assert det.substitute({"lam": lam7}).const_value() == 0


def test_singular_lambda_table():
    from mtv.motivic import singular_lambda

    golden = _golden("golden_singular_lambda.json")
    for N_str, val in golden.items():
        assert singular_lambda(int(N_str)) == Fraction(val)


def test_matrix_json_shape():
    m = build_matrix("Hstar", 3, 1).to_json()
    assert m["rows"] == ["12", "21"]
    assert m["cols"] == ["2", ""]
    assert m["entries"][1][0] == {"const": "-1", "lambda": "1"}
    assert m["entries"][0] == ["1", "-7"]


def test_singular_lambda_past_19_by_a_second_determinant_route():
    # the affine interpolation of the Hstar determinant gives the root; substituting it
    # into the entries and eliminating again must give a singular matrix
    from mtv.motivic import singular_lambda

    stored = _golden("computed_singular_lambda.json")["values"]
    assert sorted(map(int, stored)) == list(range(21, 52, 2))
    for N_str, val in stored.items():
        N, lam_s = int(N_str), Fraction(val)
        m = build_matrix("Hstar", N, 1)

        def det_at(lam):
            value = {"lam": SymPoly.const(lam)}
            return det_bareiss(_sparse([[x.substitute(value).const_value() if isinstance(x, SymPoly) else x
                                              for x in row] for row in m.entries]))

        assert det_at(lam_s) == 0, N
        assert det_at(Fraction(1, 2)) != 0 and det_at(Fraction(1)) != 0, N
        assert singular_lambda(N) == lam_s, N


def test_computed_singular_lambda_rises_below_3():
    # a computed table, labelled as such; no limit is claimed
    data = _golden("computed_singular_lambda.json")
    assert "computed" in data["source"] and "not values stated in the paper" in data["source"]
    paper = _golden("golden_singular_lambda.json")
    seq = [Fraction(paper["19"])] + [Fraction(data["values"][str(N)]) for N in range(21, 52, 2)]
    assert all(a < b for a, b in zip(seq, seq[1:]))
    assert seq[-1] < 3


def _with_entry(m, i, j, x):
    """A hand-built copy of the level matrix m with entry (i, j) set to x;
    its nonzero rows are read off a fresh dense view."""
    entries = m.entries
    entries[i][j] = x
    return FiltMatrix(m.kind, m.N, m.ell, m.rows, m.cols, _sparse(entries))


def test_structure_reports_refuse_a_broken_parity_pattern():
    s = build_matrix("S", 9, 3)
    assert det_mod2_structure(s).ok and not s.entries[1][0] % 2
    bad = det_mod2_structure(_with_entry(s, 1, 0, Fraction(1)))  # odd below the diagonal
    assert not bad.ok and "expected upper unitriangular mod 2" in bad.notes
    s1 = build_matrix("S", 9, 1)
    assert det_mod2_structure(s1).ok
    bad = det_mod2_structure(FiltMatrix("S", 9, 1, s1.rows, s1.cols, s1.nonzero[:-1] + [{}]))
    assert not bad.ok and "last row vanishes" in bad.notes
    h = build_matrix("H", 9, 3)
    assert det_mod2_structure(h).ok and not h.entries[1][0] % 2
    bad = det_mod2_structure(_with_entry(h, 1, 0, Fraction(1)))
    assert not bad.ok and "diagonal block 0 not upper unitriangular mod 2" in bad.notes


def test_h_structure_notes_one_line_per_nonzero_block_above_the_diagonal():
    m = build_matrix("H", 8, 4)
    rep = det_mod2_structure(m)
    assert rep.ok and not any("above the block diagonal" in n for n in rep.notes)
    # the trailing-ones classes sit contiguously, in ascending order, in the sorted bases
    sizes = [len(c) for c in trailing_ones_partition(m.rows, m.cols, m.N, m.ell)[0]]
    assert len(sizes) == 4 and sizes[0] >= 2 and sizes[1] >= 1
    entries = m.entries  # a fresh dense view, free to change
    for i in range(2):  # two entries of block (0, 1)
        entries[i][sizes[0]] = Fraction(1)
    entries[0][-1] = Fraction(1)  # one entry of block (0, 3)
    bad_m = FiltMatrix(m.kind, m.N, m.ell, m.rows, m.cols, _sparse(entries))
    bad = det_mod2_structure(bad_m)
    assert not bad.ok
    # no class boundary is a cut now: the determinant and the final class's
    # are eliminated directly, and stay exact
    assert list(diagonal_blocks(bad_m.nonzero)) == [(0, len(entries))]
    assert bad.det == gauss_det(entries) and "final block determinant in 1/2 + Z" in bad.notes
    assert [n for n in bad.notes if "above the block diagonal" in n] == [
        "block (0, 1) above the block diagonal is nonzero",
        "block (0, 3) above the block diagonal is nonzero",
    ]
