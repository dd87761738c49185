"""Per-layer tracing of replab by wrapping module attributes from outside.

``Tracer.install`` replaces every public module-level function of the eight
replab modules (the *layers*) with a wrapper that records a span: function,
parent span, start and end on ``perf_counter_ns``, and whether it raised.
Calls between modules go through module attributes (``games.as_payoff_matrix``)
and calls inside a module through its globals, which are the same dictionary,
so both are seen.  ``engine.Statistic`` is swapped for a subclass whose
per-path function records an ``engine.reduce`` span, which separates the
reduction from the integration kernel.  ``uninstall`` restores every original.

Spans are kept in flat in-memory arrays and written once, by ``save``.  A
span's self time is its duration minus the durations of its direct children;
a layer's self time is the sum over its spans.  Counts that the program does
not report (path-steps, Gaussian draws, supports, bytes written) are derived
from the arguments and results of the wrapped calls.

The tracer assumes the program runs its work on the calling thread, which
holds while ``--workers`` is left at its default of one.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "bounds", "attrition", "ess", "games", "engine", "rng", "fileio")
REDUCE = "reduce"


def _batch_counts(counts, bound, result):
    cfg, paths = bound["cfg"], int(bound["n_paths"])
    n = np.asarray(bound["A"]).shape[0]
    counts["engine.path_steps"] += paths * cfg.n_steps
    counts["rng.normals"] += paths * cfg.n_steps * n
    counts["engine.recorded_floats"] += paths * cfg.record_steps().size * n
    counts["engine.aborted_paths"] += next(iter(result.values())).aborted


def _single_path_counts(noisy):
    def hook(counts, bound, result):
        cfg = bound["cfg"]
        n = np.asarray(bound["A"]).shape[0]
        counts["engine.path_steps"] += cfg.n_steps
        counts["engine.recorded_floats"] += cfg.record_steps().size * n
        if noisy:
            counts["rng.normals"] += cfg.n_steps * n
    return hook


def _enumeration_counts(counts, bound, result):
    n = np.asarray(bound["A"]).shape[0]
    counts["ess.games"] += 1
    counts["ess.supports"] += 2**n - 1


def _stream_counts(counts, bound, result):
    counts["rng.streams"] += 1


def _write_counts(counts, bound, result):
    counts["fileio.files"] += 1
    counts["fileio.bytes_written"] += len(bound["text"].encode("utf-8"))


def _hash_counts(counts, bound, result):
    counts["fileio.hash_bytes"] += os.path.getsize(bound["path"])


# (layer, function) -> hook(counts, bound arguments, result), run after the call returns
HOOKS = {
    ("engine", "batch_run_many"): _batch_counts,
    ("engine", "simulate_sde"): _single_path_counts(noisy=True),
    ("engine", "simulate_sizes"): _single_path_counts(noisy=True),
    ("engine", "hitting_time"): _single_path_counts(noisy=True),
    ("engine", "simulate_ode"): _single_path_counts(noisy=False),
    ("ess", "solve_all_equilibria"): _enumeration_counts,
    ("rng", "path_generator"): _stream_counts,
    ("fileio", "atomic_write_text"): _write_counts,
    ("fileio", "sha256_file"): _hash_counts,
}

# per-layer metric -> the function whose inclusive time it sums
FUNCTION_TIMES = {
    "engine.reduce_s": ("engine", REDUCE),
    "games.second_eigenvalue_s": ("games", "second_eigenvalue"),
    "games.classify_s": ("games", "classify_equilibrium"),
    "attrition.closed_form_s": ("attrition", "closed_form_ess"),
    "fileio.write_s": ("fileio", "atomic_write_text"),
}
COUNTS = ("engine.path_steps", "engine.recorded_floats", "engine.aborted_paths",
          "rng.streams", "rng.normals", "ess.games", "ess.supports",
          "fileio.files", "fileio.bytes_written", "fileio.hash_bytes")


class Tracer:
    """Span recorder for the replab layers; install, run, uninstall, then read."""

    def __init__(self):
        self.names: list[tuple[int, str]] = []      # span name id -> (layer index, function)
        self._ids: dict[tuple[int, str], int] = {}
        self.func = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, hook=None):
        """``fn`` with a span recorded around every call."""
        key = (LAYERS.index(layer), name)
        fid = self._ids.setdefault(key, len(self.names))
        if fid == len(self.names):
            self.names.append(key)
        func, parent, start, end, raised = self.func, self.parent, self.start, self.end, self.raised
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            i = len(func)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of every layer, and ``engine.Statistic``."""
        for layer in LAYERS:
            module = importlib.import_module(f"replab.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self._swap(module, attr, self.wrap(layer, attr, obj, HOOKS.get((layer, attr))))
        engine = importlib.import_module("replab.engine")
        self._swap(engine, "Statistic", self._traced_statistic(engine.Statistic))

    def _traced_statistic(self, base):
        tracer = self

        class TracedStatistic(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if self.fn is not None and not hasattr(self.fn, "__wrapped__"):
                    object.__setattr__(self, "fn", tracer.wrap("engine", REDUCE, self.fn))

        TracedStatistic.__name__ = base.__name__
        return TracedStatistic

    def _swap(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "func": np.frombuffer(self.func, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        """Write every span, and the name table, to one ``.npz`` file."""
        names = np.array([f"{LAYERS[layer]}.{fn}" for layer, fn in self.names] or [""])
        np.savez(path, names=names, **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Calls, self time and errors per layer, plus function times and counts."""
        a = self.arrays()
        func, parent = a["func"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        n_spans = func.size
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=n_spans)
        name_layer = np.array([layer for layer, _fn in self.names] or [0], dtype=np.int64)
        layer = name_layer[func]
        # an error counts for a layer when the exception leaves that layer
        caller_layer = np.where(child, layer[np.maximum(parent, 0)], -1)
        escaped = (a["raised"] == 1) & (caller_layer != layer)

        out: dict[str, float] = {}
        for li, name in enumerate(LAYERS):
            mine = layer == li
            out[f"{name}.calls"] = int(mine.sum())
            out[f"{name}.self_s"] = float(self_time[mine].sum())
            out[f"{name}.errors"] = int((escaped & mine).sum())
        for metric, (lname, fn) in FUNCTION_TIMES.items():
            fid = self._ids.get((LAYERS.index(lname), fn))
            out[metric] = float(dur[func == fid].sum()) if fid is not None else 0.0
        for metric in COUNTS:
            out[metric] = int(self.counts[metric])

        # kernel time: engine self time outside every reduce subtree
        reduce_id = self._ids.get((LAYERS.index("engine"), REDUCE), -1)
        in_reduce = func == reduce_id
        for i in np.flatnonzero(child):           # parents precede their children
            if in_reduce[parent[i]]:
                in_reduce[i] = True
        engine = layer == LAYERS.index("engine")
        kernel_s = float(self_time[engine & ~in_reduce].sum())
        out["engine.path_steps_per_s"] = out["engine.path_steps"] / kernel_s if kernel_s > 0 else 0.0
        return out
