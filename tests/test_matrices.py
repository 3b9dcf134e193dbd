import json
from fractions import Fraction
from importlib import resources

from mtv.motivic import build_matrix, det_mod2_structure
from mtv.ratmatrix import det_bareiss, det_exact
from mtv.symring import SymPoly


def _golden(name):
    with resources.files("mtv.data").joinpath(name).open() as fh:
        return json.load(fh)


def test_det_bareiss():
    assert det_bareiss([[Fraction(1)]]) == 1
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[Fraction(1, 2), 1], [1, 2]]) == 0
    def cofactor_det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    m = [[Fraction(i * j + (i == j), 3) for j in range(5)] for i in range(5)]
    assert det_bareiss(m) == cofactor_det(m)
    m = [[Fraction((i * 7 + j * 3) % 5 - 2, 1 + ((i + j) % 3)) for j in range(5)] for i in range(5)]
    assert det_bareiss(m) == cofactor_det(m)


def test_det_exact_affine():
    # the weight-3 parametric matrix by hand: det [[1, -7], [lam-1, -7]] = 7 lam - 14
    lam = SymPoly.gen("lam")
    rows = [[SymPoly.one(), SymPoly.const(-7)], [lam - 1, SymPoly.const(-7)]]
    det = det_exact(rows)
    assert det == 7 * lam - 14


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
                if kind == "S" and N < 2:
                    continue
                m = build_matrix(kind, N, ell)
                if not m.rows:
                    continue
                rep = det_mod2_structure(m)
                assert rep.ok, (kind, N, ell, rep.notes)
                assert rep.det != 0
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
            if isinstance(det, SymPoly):
                for lam in (Fraction(1, 2), Fraction(1)):
                    assert det.substitute({"lam": SymPoly.const(lam)}).const_value() != 0
            else:
                assert det != 0


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
    # the affine interpolation in det_exact gives the root; substituting it
    # into the entries and eliminating again must give a singular matrix
    from mtv.motivic import singular_lambda

    for N in (21, 23, 25):
        lam_s = singular_lambda(N)
        m = build_matrix("Hstar", N, 1)

        def det_at(lam):
            value = {"lam": SymPoly.const(lam)}
            return det_bareiss([[x.substitute(value).const_value() if isinstance(x, SymPoly) else x
                                 for x in row] for row in m.entries])

        assert det_at(lam_s) == 0, N
        assert det_at(Fraction(1, 2)) != 0 and det_at(Fraction(1)) != 0, N
