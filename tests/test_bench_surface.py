"""The names the benchmark under bench/ takes from mtv must keep resolving.

The workloads call into mtv modules by attribute, and the span tracer
wraps functions by name and reads a few private memo tables.  A rename
in mtv would break the benchmark (or silently zero a traced metric)
without failing any other test, so every such name is checked here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from mtv import regularize
from mtv.symring import SymPoly

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(module), name)


def test_workload_names_resolve():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "mtv":
            for alias in node.names:
                if node.module == "mtv" and importlib.util.find_spec(f"mtv.{alias.name}"):
                    modules[alias.asname or alias.name] = f"mtv.{alias.name}"
                else:
                    uses.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.add((modules[node.value.id], node.attr))
    assert modules and len(uses) > len(modules)
    missing = sorted(f"{m}.{n}" for m, n in uses if not _resolves(m, n))
    assert not missing, missing


def test_tracer_names_resolve():
    tracer = _load_tracer()
    keys = set(tracer.GROUPS) | tracer.WORD_PRODUCTS | tracer.NUM_ENGINES | tracer.SUITES
    for node in ast.walk(ast.parse((BENCH / "tracer.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "_calls":
            keys |= {c.value for c in ast.walk(node.args[0]) if isinstance(c, ast.Constant)}
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id == "key":
            keys |= {c.value for c in node.comparators if isinstance(c, ast.Constant)}
    assert "motivic.build_matrix" in keys and "ratmatrix.det_bareiss" in keys
    assert all(_resolves(f"mtv.{layer}", "__name__") for layer in tracer.LAYERS)
    missing = sorted(k for k in keys if not _resolves("mtv." + k.split(".")[0], k.split(".")[1]))
    assert not missing, missing


def test_tracer_reads_env_as_second_argument():
    tracer = _load_tracer()
    for key in tracer.NUM_ENGINES:
        fn = getattr(importlib.import_module("mtv." + key.split(".")[0]), key.split(".")[1])
        params = list(inspect.signature(fn).parameters.values())
        assert params[1].name == "env" and params[1].kind == params[1].POSITIONAL_OR_KEYWORD, key


def test_tracer_hooks_exist():
    assert isinstance(regularize._st_cache, dict)
    assert isinstance(regularize._word_cache, dict)
    assert callable(regularize._exp_series.cache_info)
    params = list(inspect.signature(SymPoly.__init__).parameters.values())
    assert [p.name for p in params] == ["self", "terms"] and params[1].default is None
