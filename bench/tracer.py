"""Span tracer for the benchmark's traced passes.

The tracer wraps public functions of the ``fracmix`` modules from the
outside: for the duration of a traced pass it replaces every module
attribute that refers to a target function (including the names that
``cli``, ``experiment``, ``panel`` and ``hurst`` import from their
siblings) with a wrapper that records one span per call, and restores
the originals afterwards.  Nothing under ``src/`` knows about it.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span, or -1 for a root.  Spans stay in memory until the run
writes them out.  Span names are ``<layer>.<function>``, the layer
being the ``fracmix`` module the function lives in.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Counter hooks: (counters, args, kwargs, result) -> None.  Operation
# counts and bytes marked "computed" come from the array sizes, not from
# hardware counters.


def _count_build(c, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "grid"))
    c["gram.build_gflop"] += (n**3 / 3.0 + n * n) * 1e-9  # Cholesky + one solve
    c["gram.resident_mb"] = max(c["gram.resident_mb"], 16.0 * n * n / 1e6)  # V and L


def _count_exact(c, args, kwargs, result):
    count, n = result.shape
    c["fbm.exact_paths"] += count
    c["fbm.exact_gflop"] += 2.0 * n * n * count * 1e-9  # dense L @ z
    c["fbm.exact_mb"] += 8.0 * (n * n + 2.0 * n * count) / 1e6  # L, z and the paths


def _count_fast(c, args, kwargs, result):
    c["fbm.fast_paths"] += result.shape[0]


def _count_xi(c, args, kwargs, result):
    n_rows, n = _arg(args, kwargs, 0, "panel").y.shape
    c["effects.xi_rows"] += n_rows
    c["effects.xi_gflop"] += (n * n * n_rows + 2.0 * n * n_rows) * 1e-9  # solve + dot
    c["effects.xi_mb"] += 8.0 * (n * n + 2.0 * n * n_rows) / 1e6  # L, Y and L^{-1}Y


def _count_experiment(c, args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    c["experiment.cells"] += len(result)
    c["experiment.reps"] += len(cfg.cells()) * cfg.replications


def _count_read(c, args, kwargs, result):
    c["panel_io.read_mb"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6


def _count_write(c, args, kwargs, result):
    c["panel_io.write_mb"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6


@dataclass(frozen=True)
class Target:
    module: str  # fracmix submodule
    attr: str  # function name, or Class.method
    span: str  # span name, "<layer>.<what>"
    count: Callable | None = None


TARGETS = (
    Target("rng", "RngStream.generator", "rng.generator"),
    Target("gram", "build_gram", "gram.build", _count_build),
    Target("fbm", "exact_paths", "fbm.exact", _count_exact),
    Target("fbm", "fast_paths", "fbm.fast", _count_fast),
    Target("fbm", "fgn_spectrum", "fbm.spectrum"),
    Target("fbm", "paths_on_grid", "fbm.paths"),
    Target("panel", "simulate_panel", "panel.simulate"),
    Target("effects", "xi_values", "effects.xi", _count_xi),
    Target("effects", "estimate_effects", "effects.estimate"),
    Target("effects", "confidence_intervals", "effects.intervals"),
    Target("effects", "log_marginal_likelihood", "effects.loglik"),
    Target("hurst", "estimate_h", "hurst.estimate"),
    Target("hurst", "s_n", "hurst.variation"),
    Target("hurst", "scale_function", "hurst.scale"),
    Target("hurst", "asym_variance_a", "hurst.asym"),
    Target("experiment", "run_experiment", "experiment.run", _count_experiment),
    Target("experiment", "make_histogram", "experiment.histogram"),
    Target("panel_io", "read_panel_csv", "panel_io.read", _count_read),
    Target("panel_io", "write_panel_csv", "panel_io.write", _count_write),
    Target("panel_io", "dumps_result", "panel_io.dumps"),
    Target("panel_io", "load_experiment_config", "panel_io.config"),
    Target("svg", "write_histogram_svg", "svg.write"),
    Target("cli", "main", "cli.main"),
)

# Exceptions counted per layer, once per exception object however many
# spans of that layer it passes through.
_ERRORS = {
    "gram.factor_failures": ("gram", "FactorizationError"),
    "fbm.fallbacks": ("fbm", "EmbeddingError"),  # caught by paths_on_grid
    "hurst.refusals": ("hurst", "EstimationRangeError"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, target: Target, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        name, count = target.span, target.count
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                seen = exc.__dict__.setdefault("_bench_layers", set())
                if layer not in seen:
                    seen.add(layer)
                    counters[f"error.{layer}.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that no longer exist."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fracmix"]
        missing = []
        for target in TARGETS:
            owner = sys.modules.get(f"fracmix.{target.module}")
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, fn)
            holders = [owner] if path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapper)
        return missing

    def uninstall(self) -> None:
        while self._patches:
            holder, key, fn = self._patches.pop()
            setattr(holder, key, fn)


def pass_metrics(spans: list[list], counters: dict[str, float], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``_s`` metrics are inclusive span time summed over calls, except
    ``panel.simulate_s``, ``experiment.self_s`` and ``cli.self_s``, which
    are self time: the span's duration minus that of its child spans.
    """
    incl: defaultdict[str, float] = defaultdict(float)
    child: defaultdict[int, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    covered = 0.0
    for name, start, end, parent in spans:
        dur = end - start
        incl[name] += dur
        calls[name] += 1
        if parent < 0:
            covered += dur
        else:
            child[parent] += dur
    self_time: defaultdict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_time[name] += end - start - child[i]
    c = defaultdict(float, counters)
    m = {
        "rng.streams": calls["rng.generator"],
        "rng.generator_s": incl["rng.generator"],
        "gram.build_s": incl["gram.build"],
        "gram.build_calls": calls["gram.build"],
        "fbm.exact_s": incl["fbm.exact"],
        "fbm.fast_s": incl["fbm.fast"],
        "fbm.spectrum_s": incl["fbm.spectrum"],
        "fbm.spectrum_calls": calls["fbm.spectrum"],
        "panel.simulate_s": self_time["panel.simulate"],
        "panel.simulate_calls": calls["panel.simulate"],
        "effects.xi_s": incl["effects.xi"],
        "effects.estimate_s": incl["effects.estimate"],
        "effects.loglik_s": incl["effects.loglik"],
        "hurst.estimate_s": incl["hurst.estimate"],
        "hurst.estimate_calls": calls["hurst.estimate"],
        "hurst.variation_s": incl["hurst.variation"],
        "hurst.scale_s": incl["hurst.scale"],
        "hurst.scale_evals": calls["hurst.scale"],
        "hurst.asym_s": incl["hurst.asym"],
        "hurst.asym_calls": calls["hurst.asym"],
        "experiment.self_s": self_time["experiment.run"],
        "experiment.histogram_s": incl["experiment.histogram"],
        "panel_io.read_s": incl["panel_io.read"],
        "panel_io.write_s": incl["panel_io.write"],
        "svg.write_s": incl["svg.write"],
        "svg.files": calls["svg.write"],
        "cli.self_s": self_time["cli.main"],
        "trace.coverage": covered / wall,
    }
    for key in (
        "gram.build_gflop", "gram.resident_mb",
        "fbm.exact_paths", "fbm.exact_gflop", "fbm.exact_mb", "fbm.fast_paths",
        "effects.xi_rows", "effects.xi_gflop", "effects.xi_mb",
        "experiment.cells", "experiment.reps", "panel_io.read_mb", "panel_io.write_mb",
    ):
        m[key] = c[key]
    for key, (layer, exc_name) in _ERRORS.items():
        m[key] = c[f"error.{layer}.{exc_name}"]
    return m
