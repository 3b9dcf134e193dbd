"""In-memory span tracer for the mtv layers, installed from outside the program.

Every function of an mtv module that is public, or that another module
binds under its own name (``from .wordalg import _stuffle_parts``), is
replaced by a wrapper in every namespace that binds it: the defining
module, each module that imported it with ``from .x import y``, and the
package.  Calls made through a namespace that was not patched would
escape the trace, so all bindings are patched at once.

A wrapper opens a span when it is entered from another layer, or when
its function belongs to a named group (a numoracle engine, the basis
enumeration) other than the caller's.  Recursion and other calls inside
a layer cost one counter increment, and their time stays with the
caller.  Each span's self time is its duration
minus the time covered by its child spans; spans are aggregated per
function in memory and read out when the repetition ends.

symring is the coefficient ring under every other layer; its functions
are called hundreds of thousands of times per run, so its time stays with
the calling layer and only ``SymPoly`` constructions are counted.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from time import perf_counter

LAYERS = ("indexcore", "wordalg", "regularize", "closedform", "ratmatrix",
          "motivic", "numoracle", "verify")

# numoracle functions whose time is reported per engine rather than per layer
GROUPS = {
    "numoracle.altz_num_holder": "numoracle.holder",
    "numoracle.t_num": "numoracle.nested",
    "numoracle.altz_num": "numoracle.nested",
    "numoracle.digamma_A": "numoracle.digamma",
    "numoracle.digamma_B": "numoracle.digamma",
    "numoracle.lincomb_num": "numoracle.lincomb",
    "numoracle.eval_num": "numoracle.lincomb",
    "indexcore.basis_sets": "indexcore.basis",
    "indexcore.enumerate_hoffman": "indexcore.basis",
    "indexcore.enumerate_saha": "indexcore.basis",
}

WORD_PRODUCTS = {"wordalg.stuffle", "wordalg.shuffle", "wordalg.stuffle_lincomb",
                 "wordalg.shuffle_lincomb", "wordalg._stuffle_parts"}
NUM_ENGINES = {"numoracle.altz_num_holder", "numoracle.t_num", "numoracle.altz_num"}
SUITES = {"verify.counting_checks", "verify.golden_checks", "verify.invertibility_checks",
          "verify.closedform_checks", "verify.genseries_checks", "verify.coherence_checks",
          "verify.derivation_checks"}


class Tracer:
    def __init__(self):
        self.stack = []        # open spans: [group, layer, time covered by children]
        self.stats = {}        # function key -> [calls, spans, total_s, self_s]
        self.new_entries = {}  # function key -> calls that added a memo entry
        self.min_bits = math.inf
        self.max_order = 0
        self.checks = 0
        self.polys_built = 0
        self.patches = []      # (namespace, name, original)
        self.mods = {}

    # -- installation ------------------------------------------------------

    def install(self):
        self.mods = mods = {name: sys.modules[f"mtv.{name}"] for name in LAYERS}
        namespaces = list(mods.values()) + [sys.modules["mtv"]]
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if not _is_function(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                importers = [ns for ns in namespaces if ns is not mod and vars(ns).get(name) is obj]
                if name.startswith("_") and not importers:
                    continue
                wrapper = self._wrap(obj, f"{layer}.{name}", layer)
                # a private helper keeps its own fast intra-module path
                for ns in importers + ([] if name.startswith("_") else [mod]):
                    self._patch(ns, name, wrapper)
        self._count_polys(sys.modules["mtv.symring"].SymPoly)

    def uninstall(self):
        for ns, name, original in reversed(self.patches):
            setattr(ns, name, original)
        self.patches.clear()

    def _patch(self, ns, name, value):
        self.patches.append((ns, name, getattr(ns, name)))
        setattr(ns, name, value)

    def _count_polys(self, cls):
        init = cls.__init__

        def counting_init(obj, terms=None):
            self.polys_built += 1
            init(obj, terms)

        self._patch(cls, "__init__", counting_init)

    def _wrap(self, fn, key: str, layer: str):
        group = GROUPS.get(key, layer)
        named = key in GROUPS
        stats = self.stats.setdefault(key, [0, 0, 0.0, 0.0])
        call = self._counted(key, fn)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            if stack and (stack[-1][0] == group or (stack[-1][1] == layer and not named)):
                return call(*args, **kwargs)
            frame = [group, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][2] += dt
                stats[1] += 1
                stats[2] += dt
                stats[3] += dt - frame[2]

        return wrapper

    def _counted(self, key: str, fn):
        """fn, with the bookkeeping some per-layer metrics need on each call."""
        if key in NUM_ENGINES:
            self.new_entries[key] = 0

            def engine(*args, **kwargs):
                env = args[1] if len(args) > 1 else kwargs["env"]
                before = len(env._sums)
                out = fn(*args, **kwargs)
                if len(env._sums) > before:
                    self.new_entries[key] += 1
                if out.err > 0:
                    self.min_bits = min(self.min_bits, -math.log2(out.err))
                return out

            return engine
        if key == "motivic.build_matrix":
            def build(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.max_order = max(self.max_order, len(out.rows))
                return out

            return build
        if key in SUITES:
            def suite(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.checks += len(out)
                return out

            return suite
        return fn

    # -- read-out ----------------------------------------------------------

    def _sum(self, pred, field: int):
        return sum(s[field] for k, s in self.stats.items() if pred(k))

    def _self_of(self, group: str) -> float:
        return self._sum(lambda k: GROUPS.get(k, k.split(".")[0]) == group, 3)

    def _calls(self, keys) -> int:
        return self._sum(lambda k: k in keys, 0)

    def layer_metrics(self) -> dict:
        """Per-layer figures of one traced repetition (times in seconds)."""
        reg = self.mods["regularize"]
        exp_series = reg._exp_series
        while not hasattr(exp_series, "cache_info"):  # unwrap a traced binding
            exp_series = exp_series.__wrapped__
        in_layer = lambda layer: (lambda k: k.split(".")[0] == layer)
        return {
            "numoracle.holder_s": self._self_of("numoracle.holder"),
            "numoracle.holder_calls": self._calls({"numoracle.altz_num_holder"}),
            "numoracle.holder_new": self.new_entries.get("numoracle.altz_num_holder", 0),
            "numoracle.nested_s": self._self_of("numoracle.nested"),
            "numoracle.nested_calls": self._calls({"numoracle.t_num", "numoracle.altz_num"}),
            "numoracle.nested_new": (self.new_entries.get("numoracle.t_num", 0)
                                     + self.new_entries.get("numoracle.altz_num", 0)),
            "numoracle.digamma_s": self._self_of("numoracle.digamma"),
            "numoracle.lincomb_s": self._self_of("numoracle.lincomb"),
            "numoracle.min_bits": 0.0 if self.min_bits == math.inf else self.min_bits,
            "regularize.self_s": self._self_of("regularize"),
            "regularize.calls": self._sum(in_layer("regularize"), 0),
            "regularize.memo_entries": (len(reg._st_cache) + len(reg._word_cache)
                                        + exp_series.cache_info().currsize),
            "wordalg.self_s": self._self_of("wordalg"),
            "wordalg.products": self._calls(WORD_PRODUCTS),
            "symring.polys_built": self.polys_built,
            "closedform.self_s": self._self_of("closedform"),
            "indexcore.basis_s": self._self_of("indexcore.basis"),
            "motivic.build_s": self._self_of("motivic"),
            "motivic.matrices": self._calls({"motivic.build_matrix"}),
            "motivic.max_order": self.max_order,
            "ratmatrix.det_s": self._self_of("ratmatrix"),
            "ratmatrix.dets": self._calls({"ratmatrix.det_bareiss"}),
            "verify.self_s": self._self_of("verify"),
            "verify.checks": self.checks,
        }

    def spans(self) -> dict:
        """Aggregated spans per function: calls, spans opened, total and self time."""
        return {k: {"calls": s[0], "spans": s[1], "total_s": s[2], "self_s": s[3]}
                for k, s in sorted(self.stats.items()) if s[0]}


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or isinstance(obj, functools._lru_cache_wrapper)
