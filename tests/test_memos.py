"""Every process-wide memo is named once, in README and in the list that
the autouse fixture clears before and after each test."""

import importlib
import pkgutil
import re
from pathlib import Path

import mtv
from conftest import MEMOS

README = (Path(mtv.__file__).resolve().parents[2] / "README.md").read_text()


def _module_memos():
    """(qualified name, object) of every module-level lru_cache wrapper
    and every dict named _*_cache that an mtv module defines."""
    found = []
    for info in pkgutil.iter_modules(mtv.__path__):
        mod = importlib.import_module(f"mtv.{info.name}")
        for name, obj in vars(mod).items():
            lru = callable(obj) and hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__
            if lru or (isinstance(obj, dict) and re.fullmatch(r"_\w+_cache", name)):
                found.append((f"{info.name}.{name}", obj))
    return found


def test_every_memo_is_cleared_and_documented():
    found = _module_memos()
    uncleared = [name for name, obj in found if not any(obj is m for m in MEMOS)]
    assert not uncleared, f"add to conftest.MEMOS: {uncleared}"
    undocumented = [name for name, _ in found if not re.search(rf"[`.]{re.escape(name.split('.')[1])}`", README)]
    assert not undocumented, f"list in README's memo tables: {undocumented}"
