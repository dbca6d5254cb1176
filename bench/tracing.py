"""Span tracing around calls into the package's public functions.

The tracer wraps each target function in every ``matsemi`` module
namespace that holds it (``parse_ring_spec`` is looked up in ``rings``,
``maps``, ``search``, ``verify`` and ``cli``), so calls made by the package
itself are seen too.  Spans (name, start, end, parent) stay in memory until
:meth:`Tracer.write`.  Work inside process-pool workers is not traced; it
shows only in the span of the call that waited for it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict


def _pairs(counts, args, kwargs, result):
    return result.counts["checked"]


def _validate_checked(counts, args, kwargs, result):
    return sum(c.checked for c in result.checks.values())


def _enumerated(counts, args, kwargs, result):
    counts["search.nodes"] += result.nodes
    counts["search.maps_emitted"] += len(result.maps)


def _functions(counts, args, kwargs, result):
    # The package passes (dom, cod, lo, hi) positionally.
    counts["search.functions_scanned"] += args[3] - args[2]


# (module, function, counter): the counter adds per-call work to ``counts``,
# either by returning an amount for ``<span>.<name>`` or by updating it.
TARGETS = [
    ("rings", "parse_ring_spec", None),
    ("rings", "make_matrix_ring", None),
    ("rings", "validate_ring", ("checked", _validate_checked)),
    ("rings", "validate_matrix_view", None),
    ("rings", "units", None),
    ("rings", "unitaries", None),
    ("_closure", "greedy_closure", None),
    ("maps", "is_multiplicative", ("pairs", _pairs)),
    ("maps", "is_additive", ("pairs", _pairs)),
    ("maps", "respects_star", None),
    ("maps", "tensor_id", None),
    ("search", "enumerate_multiplicative_maps", (None, _enumerated)),
    ("search", "function_space_masks", (None, _functions)),
    ("search", "unique_addition_probe", None),
    ("witness", "doubling_additivity_closure", None),
    ("witness", "invertible_witness_matrices", None),
    ("witness", "fourth_power_reduction", None),
    ("verify", "verify_corner_equivalence", None),
    ("verify", "verify_tensor_equivalence", None),
    ("verify", "verify_witness_suite", None),
    ("verify", "verify_fourth_power_search", None),
    ("verify", "verify_doubling", None),
    ("cli", "main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn, counter):
        # Suites run at both worker counts are reported per count.
        per_workers = (name.startswith("verify.")
                       and "workers" in inspect.signature(fn).parameters)

        def traced(*args, **kwargs):
            label = name
            if per_workers:
                label = f"{name}.w{kwargs.get('workers', 1)}"
            idx = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[f"{label}.calls"] += 1
            if counter is not None:
                key, count = counter
                amount = count(self.counts, args, kwargs, result)
                if key is not None:
                    self.counts[f"{label}.{key}"] += amount
            return result

        return traced

    def install(self):
        """Replace every target in every loaded ``matsemi`` namespace."""
        for mod_name, _, _ in TARGETS:
            importlib.import_module(f"matsemi.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "matsemi" or n.startswith("matsemi.")]
        for mod_name, fn_name, counter in TARGETS:
            fn = getattr(sys.modules[f"matsemi.{mod_name}"], fn_name)
            # Metric names may not start with "_" (as in "_closure").
            traced = self._wrap(f"{mod_name.lstrip('_')}.{fn_name}", fn, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per span name: ``calls``, ``self_s`` (duration minus the part
        covered by child spans) and ``total_s`` (outermost spans only, so
        recursion is not counted twice), plus the recorded counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.total_s"] += end - start
        out.update(self.counts)
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
