import re
from fractions import Fraction

import pytest

from mtv import motivic
from mtv.cli import main
from mtv.errors import InvariantError
from mtv.indexcore import basis_sets, compositions, word_level
from mtv.motivic import (
    IrreducibleLeftFactor,
    LOG,
    build_matrix,
    d1_project,
    deriv_D,
    deriv_D_star,
    graded_partial,
    lie_reduce,
    mot_mono,
    reduce_deriv,
    singular_lambda,
)
from mtv.symring import SymPoly, lc_put


def test_deriv_even_r_rejected():
    with pytest.raises(ValueError):
        deriv_D(2, (2, 1))


def deriv_D1_fast(k: tuple) -> dict:
    """D_1 in closed form: deconcatenation of a leading 1 (coefficient 2)
    and of a trailing 1 (coefficient -1)."""
    k = tuple(k)
    out: dict = {}
    if k and k[0] == 1:
        lc_put(out, (LOG, k[1:]), Fraction(2))
    if k and k[-1] == 1:
        lc_put(out, (LOG, k[:-1]), Fraction(-1))
    return out


def d1(k: tuple) -> dict:
    return reduce_deriv(deriv_D(1, k))


def test_d1_examples():
    assert d1((1, 2)) == {(LOG, (2,)): Fraction(2)}
    assert d1((2, 1)) == {(LOG, (2,)): Fraction(-1)}
    assert d1((1,)) == {(LOG, ()): Fraction(1)}
    assert d1((2, 2)) == {}


def test_d3_examples():
    assert deriv_D(3, (2, 2)) == {}
    # the two interior cut terms cancel, leaving the deconcatenation
    out = deriv_D(3, (2, 1, 2))
    assert out == {(("t", (2, 1)), (2,)): Fraction(1)}
    red = reduce_deriv(out)
    assert red == {((("z", 3)), (2,)): Fraction(-7, 2)}


def test_d1_fast_equals_full_reduced():
    # the reduced D_1 has the closed form's items, in its order, with its types
    for w in range(1, 13):
        for k in compositions(w):
            assert [(key, c, type(c)) for key, c in d1(k).items()] == \
                [(key, c, type(c)) for key, c in deriv_D1_fast(k).items()], k


def test_deriv_star_examples():
    lam = SymPoly.gen("lam")
    # trailing-one terms combine to the parametric entry
    out = reduce_deriv(deriv_D_star(1, (2, 1)))
    assert out == {(LOG, (2,)): 2 * lam - 2}
    # full-weight deconcatenation, no extra term without three trailing ones
    out = deriv_D_star(3, (2, 1))
    assert out == {(("t", (2, 1)), ()): Fraction(1)}
    # weight one: the parametric primitive
    out = reduce_deriv(deriv_D_star(1, (1,)))
    assert out == {(LOG, ()): 2 * lam}


def test_d1_vanishing_family():
    for total in range(0, 5):
        for a in range(1, total + 1):
            for b in range(0, total - a + 1):
                c = total - a - b
                idx = (2,) * a + (1,) + (2,) * b + (3,) + (2,) * c
                assert reduce_deriv(deriv_D(1, idx)) == {}
                assert deriv_D1_fast(idx) == {}


def test_lie_reduce_families():
    assert lie_reduce(("t", (1,))) == (Fraction(1), LOG)
    assert lie_reduce(("t", (2, 1))) == (Fraction(-7, 2), ("z", 3))
    assert lie_reduce(("t", (2, 2)))[0] == 0
    assert lie_reduce(("zl", 0, (1,)))[0] == 0
    assert lie_reduce(("zl", 0, (3,))) == (Fraction(1), ("z", 3))
    assert lie_reduce(("zl", 1, (2,))) == (Fraction(-2), ("z", 3))
    assert lie_reduce(("zl", 0, (1, 2))) == (Fraction(1), ("z", 3))
    with pytest.raises(IrreducibleLeftFactor):
        lie_reduce(("t", (4, 1)))


def test_graded_rows_weight8_level2():
    row = graded_partial("H", 8, 2, (1, 1, 2, 2, 2))
    assert row == {
        (1, 2, 2, 2): Fraction(1),
        (1, 2, 2): Fraction(4),
        (1, 2): Fraction(-16),
    }
    row = graded_partial("H", 8, 2, (2, 1, 1, 2, 2))
    assert row == {(1, 2, 2): Fraction(-7), (2, 1, 2): Fraction(4)}
    row = graded_partial("S", 8, 2, (2, 2, 1, 3))
    assert row == {(2, 3): Fraction(-6), (3,): Fraction(75)}


@pytest.mark.parametrize("kind", ["S", "H", "Hstar"])
@pytest.mark.parametrize("right, level", [((1, 1, 2), 2), ((1, 1, 1, 2), 3)])
def test_right_factor_of_no_lower_level_raises(monkeypatch, capsys, kind, right, level):
    # the level-lowering lemma is checked in every build: a right factor of
    # level >= 2 in D_1 of a level-2 word is an error, not a term to drop
    real = motivic._cut_terms

    def cuts_with_extra_term(k):
        return [*real(k), (1, ("t", (1,)), right, 1)]

    monkeypatch.setattr(motivic, "_cut_terms", cuts_with_extra_term)
    message = (r"D_1 of the level-2 word \(1, 1, 2, 2, 2\) has the right factor "
               rf"{re.escape(str(right))} of level {level}")
    with pytest.raises(InvariantError, match=message):
        build_matrix(kind, 8, 2)
    assert main(["matrix", "--kind", kind, "--N", "8", "--level", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and re.fullmatch(f"error: {message}\n", out.err), out.err


def test_leibniz_on_primitive_products():
    # D_1(x y) = (1 (x) y) D_1 x + (1 (x) x) D_1 y on log2-monomials
    expr = {mot_mono(("log2",), ("log2",)): Fraction(1)}
    out = d1_project(expr)
    assert out == {(("log2",),): Fraction(2)}
    expr = {mot_mono(("z", 3), ("log2",)): Fraction(1)}
    out = d1_project(expr)
    assert out == {(("z", 3),): Fraction(1)}


def test_hoffman_derivation_trivial():
    # identities without unit arguments derive to 0 = 0
    expr = {mot_mono(("t", (3, 2))): Fraction(1), mot_mono(("t", (5,))): Fraction(-1)}
    assert d1_project(expr) == {}


def test_singular_lambda_small():
    assert singular_lambda(1) == 0
    assert singular_lambda(3) == 2
    assert singular_lambda(5) == Fraction(28, 11)
    with pytest.raises(ValueError):
        singular_lambda(4)


def test_singular_lambda_det_affine_through_19():
    from mtv.motivic import build_matrix

    for N in range(1, 20, 2):
        det = build_matrix("Hstar", N, 1).det()
        assert isinstance(det, SymPoly) and det.max_degree("lam") == 1


def test_singular_lambda_refuses_a_determinant_not_affine(monkeypatch, capsys):
    # a slope of 0 or a lam^2 term breaks the block-structure argument: an
    # invariant (exit 3), not bad input; an even weight stays bad input
    lam = SymPoly.gen("lam")
    for det in (SymPoly.const(5), lam * lam - 1):
        monkeypatch.setattr(motivic.FiltMatrix, "det", lambda self, det=det: det)
        with pytest.raises(InvariantError, match="is not affine in lam"):
            singular_lambda(5)
        assert main(["singular-lambda", "--N", "5"]) == 3
        assert capsys.readouterr().err == f"error: determinant {det} is not affine in lam\n"
    with pytest.raises(ValueError, match="odd N"):
        singular_lambda(4)


def test_hstar_build_expands_each_word_once_without_deriv_D_star(monkeypatch):
    # Hstar is derived from the H rows: no second pass over any word's cuts
    def refuse(r, k):
        raise AssertionError(f"deriv_D_star({r}, {k}) called")

    monkeypatch.setattr(motivic, "deriv_D_star", refuse)
    expanded = []
    real = motivic._cut_terms
    monkeypatch.setattr(motivic, "_cut_terms", lambda k: expanded.append(k) or real(k))
    for N, ell in ((8, 2), (9, 1), (10, 4)):
        expanded.clear()
        m = build_matrix("Hstar", N, ell)
        assert sorted(expanded) == sorted(m.rows), (N, ell)


def _tag_weight(tag):
    kind = tag[0]
    if kind == "t":
        return sum(tag[1])
    if kind == "zl":
        return tag[1] + sum(abs(x) for x in tag[2])
    if kind == "log":
        return 1
    if kind == "zst1":
        return tag[1]
    raise AssertionError(tag)


def test_derivation_terms_weight_homogeneous():
    for w in range(1, 9):
        for k in compositions(w):
            for r in range(1, w + 1, 2):
                for (tag, right), coeff in deriv_D(r, k).items():
                    assert _tag_weight(tag) == r
                    assert _tag_weight(tag) + sum(right) == w
                for (tag, right), coeff in deriv_D_star(r, k).items():
                    assert _tag_weight(tag) + sum(right) == w


def test_matrix_entries_match_coefficient_tables():
    # spot-check symbolic entries of the weight-8 matrices against the
    # stated coefficient combinations
    from fractions import Fraction as F

    from mtv.closedform import coeff_c_21, coeff_c_231, coeff_d_121
    from mtv.motivic import build_matrix

    m = build_matrix("S", 8, 2)
    assert m.entry((1, 1, 2, 2, 2), (1, 2, 2)) == -2 * coeff_c_21(1)
    assert m.entry((1, 2, 2, 1, 2), (1, 2)) == (
        -8 * coeff_c_231(1, 0) + 8 * coeff_c_231(0, 1) + 8 * coeff_d_121(0, 2)
    )
    assert m.entry((2, 1, 2, 1, 2), (1, 2)) == 8 * coeff_d_121(1, 1)
    h = build_matrix("H", 8, 2)
    assert h.entry((1, 2, 2, 2, 1), (1,)) == 32 * coeff_d_121(0, 3)
    assert h.entry((1, 2, 2, 2, 1), (1, 2, 2, 2)) == F(-1, 2)


def _deriv_D_by_slices(r, k):
    """deriv_D as first written: slice sums and Fraction coefficients (the reference)."""
    d = len(k)
    out = {}

    def put(key, c):
        out[key] = out.get(key, 0) + c
        if out[key] == 0:
            del out[key]

    for j in range(1, d + 1):
        if sum(k[:j]) == r:
            put((("t", k[:j]), k[j:]), Fraction(1))
    for i in range(1, d):
        for j in range(i + 1, d + 1):
            wij = sum(k[i - 1:j])
            if not (r < wij - 1):
                continue
            right = k[:i - 1] + (wij - r,) + k[j:]
            w_in = sum(k[i:j])
            if w_in <= r:
                put((("zl", r - w_in, k[i:j]), right), Fraction(1))
                if r == 1:
                    put((LOG, right), Fraction(-1))
            w_out = sum(k[i - 1:j - 1])
            if w_out <= r:
                put((("zl", r - w_out, tuple(reversed(k[i - 1:j - 1]))), right), Fraction(-1))
                if r == 1:
                    put((LOG, right), Fraction(1))
    return out


def test_deriv_D_matches_slice_sums_with_integer_coefficients():
    for w in range(1, 11):
        for k in compositions(w):
            if any(x > 3 for x in k):
                continue
            for r in range(1, w + 3, 2):
                got = deriv_D(r, k)
                assert got == _deriv_D_by_slices(r, k), (r, k)
                assert all(type(c) is int for c in got.values()), (r, k)
                # the result is the caller's: changing it leaves the next call alone
                got.clear()
                got[(LOG, ())] = 5
                assert deriv_D(r, k) == _deriv_D_by_slices(r, k), (r, k)
            for r in (0, 2, w + w % 2, -1):
                with pytest.raises(ValueError, match="r must be odd and positive"):
                    deriv_D(r, k)


def test_graded_partial_raises_irreducible_on_every_call(monkeypatch):
    # a left factor with no closed form is refused each time, never cached as a value
    from mtv import motivic

    monkeypatch.setattr(motivic, "_cut_terms", lambda k: [(1, ("t", (1, 1, 1)), (), 1)])
    for _ in range(2):
        with pytest.raises(IrreducibleLeftFactor, match=r"t block \(1, 1, 1\)"):
            graded_partial("H", 3, 1, (1, 2))
        with pytest.raises(IrreducibleLeftFactor, match=r"t block \(1, 1, 1\)"):
            build_matrix("H", 3, 1)


def test_graded_partial_raises_on_an_invalid_right_factor_on_every_call(monkeypatch):
    # the right-factor memo stores the word's validity, not a verdict: a second
    # build meets the same invalid factor and raises again
    real = motivic._cut_terms
    monkeypatch.setattr(motivic, "_cut_terms", lambda k: [*real(k), (1, ("t", (1,)), (4, 1), 1)])
    for _ in range(2):
        with pytest.raises(InvariantError, match=r"D_1 of \(2, 1\) has the invalid right factor \(4, 1\)"):
            graded_partial("H", 3, 1, (2, 1))
        with pytest.raises(InvariantError, match=r"D_1 of \(1, 2\) has the invalid right factor \(4, 1\)"):
            build_matrix("H", 3, 1)


def _reference_row(kind, N, ell, w, cols):
    """A dense row built term by term, as graded_partial and the matrix
    build first did: each D_r term's right factor checked, then coefficient
    times the graded factor accumulated, then every column looked up."""
    word_kind = "S" if kind == "S" else "H"
    out = {}
    for r in range(1, N + 1, 2):
        terms = deriv_D_star(r, w) if kind == "Hstar" else deriv_D(r, w)
        for (tag, right), coeff in terms.items():
            assert motivic._valid_word(right, word_kind), (w, r, right)
            level = word_level(right, word_kind)
            assert level < ell, (w, r, right)
            if level == ell - 1 and (factor := motivic._graded_factor(tag)):
                lc_put(out, right, coeff * factor)
    assert set(out) <= set(cols), (w, sorted(set(out) - set(cols)))
    return out, [out.get(u, Fraction(0)) for u in cols]


@pytest.mark.parametrize("kind", ["S", "H", "Hstar"])
def test_rows_equal_the_term_by_term_construction(kind):
    for N in range(2 if kind == "S" else 1, 13):
        for ell in range(2 - N % 2, N + 1, 2):
            B, Bp = basis_sets("H" if kind == "Hstar" else kind, N, ell)
            if not B:
                continue  # kind S at level N: no matrix
            m = build_matrix(kind, N, ell)
            assert (m.rows, m.cols) == (B, Bp)
            for w, row in zip(m.rows, m.entries):
                ref_map, ref_row = _reference_row(kind, N, ell, w, m.cols)
                assert graded_partial(kind, N, ell, w) == ref_map, (kind, N, ell, w)
                assert row == ref_row, (kind, N, ell, w)


def test_a_row_off_the_columns_names_its_unknown_words(monkeypatch):
    B, Bp = motivic.basis_sets("H", 8, 2)
    dropped = set(Bp[:3])
    monkeypatch.setattr(motivic, "basis_sets", lambda kind, N, ell: (B, Bp[3:] + [(2, 2, 2, 2)] * 3))
    hits = [(w, sorted(dropped & set(graded_partial("H", 8, 2, w)))) for w in B]
    w, unknown = next(hit for hit in hits if hit[1])  # the first row that needs a dropped column
    with pytest.raises(InvariantError, match=re.escape(f"row {w} hit non-basis words {unknown}")):
        build_matrix("H", 8, 2)
