"""Invariants are raised errors, never ``assert`` statements, so they hold
under ``python -O``; bad input raises ValueError, a broken invariant
InvariantError (a RuntimeError) naming the values."""

import ast
import os
from collections import Counter
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mtv import motivic
from mtv.errors import InvariantError
from mtv.motivic import FiltMatrix, build_matrix, graded_partial, pitilde
from mtv.ratmatrix import det_bareiss, parity

SRC = Path(motivic.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) >= 10
    assert not found, found


EXACT_MODULES = ("symring", "indexcore", "wordalg", "regularize", "closedform", "motivic", "ratmatrix")
NUMERIC = {"numoracle", "mpmath", "numpy"}


def test_exact_modules_import_no_numerics():
    # every import counts, including one inside a function body
    found = []
    for name in EXACT_MODULES:
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(NUMERIC & set(target.split(".")) for target in targets):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _imported_modules(path):
    """Every module an import names in the file, including one inside a function body."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_no_module_imports_numpy():
    # numpy is a test dependency only: every series runs in exact integers
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in _imported_modules(path) if name.split(".")[0] == "numpy"]
    assert not found, found


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, mtv.cli; print('numpy' in sys.modules, 'mtv.numoracle' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.split() == ["False", "True"], out


def test_no_keyword_catch_alls_in_the_package():
    # a **kwargs parameter would accept a misspelt or stale setting and ignore it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and node.args.kwarg:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _names_used(tree) -> Counter:
    """How often each name occurs as a variable, an attribute or an import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


# public names kept with no caller in the package or the benchmark:
# zi is the validating constructor of a SignedIndex for users and tests;
# shuffle_lincomb is the reference of a distribution-assembly test
UNCALLED_ALLOWED = {"indexcore.zi", "wordalg.shuffle_lincomb"}


def test_every_public_name_has_a_caller():
    # a top-level def or class is used if code other than its own body and
    # the package's re-exports names it, in src/mtv or in bench/*.py
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in [*SRC.glob("*.py"), *BENCH.glob("*.py")] if path.name != "__init__.py"}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    uncalled = set()
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and used[node.name] == _names_used(node)[node.name]):
                uncalled.add(f"{path.stem}.{node.name}")
    assert len(trees) >= 15
    assert uncalled == UNCALLED_ALLOWED


def test_only_numoracle_sets_the_working_precision():
    # MPFloat arithmetic is exact, so callers of the oracle need no precision context
    found = []
    for name in ("verify", "cli"):
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called in ("work", "workprec"):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_bad_input_raises_value_error():
    with pytest.raises(ValueError, match="non-square"):
        det_bareiss([{0: 1, 2: 1}, {1: 1}])
    with pytest.raises(ValueError, match="non-integer"):
        parity(Fraction(1, 2))
    with pytest.raises(ValueError, match="kind"):
        build_matrix("X", 8, 2)
    with pytest.raises(ValueError, match="need N >= 2"):
        build_matrix("S", 1, 1)
    with pytest.raises(ValueError, match="kind S has no words of weight 3 and level 3"):
        build_matrix("S", 3, 3)
    with pytest.raises(ValueError, match="not a kind-H word"):
        graded_partial("H", 8, 2, (1, 2, 2, 2))


def test_broken_invariants_raise_runtime_error(monkeypatch):
    with pytest.raises(InvariantError, match=r"\('z', 4\)"):
        pitilde(("z", 4))
    with pytest.raises(InvariantError, match="unequal size.*5 and 4"):
        with monkeypatch.context() as m:
            m.setattr(motivic, "basis_sets", lambda kind, N, ell: ([()] * 5, [()] * 4))
            build_matrix("H", 8, 2)
    B, Bp = motivic.basis_sets("H", 8, 2)
    with pytest.raises(InvariantError, match="non-basis words"):
        with monkeypatch.context() as m:
            m.setattr(motivic, "basis_sets", lambda kind, N, ell: (B, Bp[:-1] + [(2, 2, 2, 2)]))
            build_matrix("H", 8, 2)
    with pytest.raises(InvariantError, match="invalid right factor"):
        with monkeypatch.context() as m:
            m.setattr(motivic, "deriv_D", lambda r, k: {(("t", (1,)), (4,)): Fraction(1)})
            graded_partial("H", 3, 1, (1, 2))
    # lam cells in three diagonal blocks: the determinant lam^3 - 3 lam^2 + 2 lam
    # is zero at lam = 0, 1 and 2, so no evaluation there could tell it from 0
    half = Fraction(1, 2)
    base = FiltMatrix("H", 0, 0, [], [], [{0: half}, {1: -half}, {2: -3 * half}])
    with pytest.raises(InvariantError, match=r"lam enters rows \[0, 1, 2\]"):
        FiltMatrix("Hstar", 0, 0, [], [], [], base, ((0, 0), (1, 1), (2, 2))).det()
