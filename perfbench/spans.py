"""In-memory span recorder that times chemofront layers from outside.

Every traced function is replaced at the module attribute its caller looks up
(for example ``chemofront.evolver.advection``, the name the evolver binds for
``convolve.advection``), so no file of the package changes.  A span records
its name, start, end and the index of the span that was open when it began;
a layer's self time is its spans' durations minus their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

from chemofront import convolve

# (module whose attribute is replaced, attribute, span name).  The layer of a
# span is the part of its name before the first dot.
BINDINGS = (
    ("chemofront.convolve", "kbar", "kernels.kbar"),
    ("chemofront.cli", "validate_kernel", "kernels.validate_kernel"),
    ("chemofront.evolver", "advection", "convolve.advection"),
    ("chemofront.slab", "advection", "convolve.advection"),
    ("chemofront.spectral", "advection", "convolve.advection"),
    ("chemofront.cli", "advection", "convolve.advection"),
    ("chemofront.spectral", "advection_gradient", "convolve.advection_gradient"),
    ("chemofront.cli", "advection_gradient", "convolve.advection_gradient"),
    ("chemofront.evolver", "evolve", "evolver.evolve"),
    ("chemofront.scan", "evolve", "evolver.evolve"),
    ("chemofront.cli", "evolve", "evolver.evolve"),
    ("chemofront.evolver", "measure_speed", "evolver.measure_speed"),
    ("chemofront.scan", "measure_speed", "evolver.measure_speed"),
    ("chemofront.cli", "measure_speed", "evolver.measure_speed"),
    ("chemofront.cli", "speed_from_integral", "evolver.speed_from_integral"),
    ("chemofront.slab", "fixed_point", "slab.fixed_point"),
    ("chemofront.scan", "fixed_point", "slab.fixed_point"),
    ("chemofront.cli", "fixed_point", "slab.fixed_point"),
    ("chemofront.spectral", "slow_regime_certificate", "spectral.certificate"),
    ("chemofront.scan", "slow_regime_certificate", "spectral.certificate"),
    ("chemofront.spectral", "principal_eigenpair", "spectral.principal_eigenpair"),
    ("chemofront.cli", "principal_eigenpair", "spectral.principal_eigenpair"),
    ("chemofront.spectral", "assemble_potential", "spectral.assemble_potential"),
    ("chemofront.cli", "assemble_potential", "spectral.assemble_potential"),
    ("chemofront.cli", "slab_drift", "spectral.slab_drift"),
    ("chemofront.cli", "monotonicity_check", "diagnostics.monotonicity_check"),
    ("chemofront.cli", "moment_check", "diagnostics.moment_check"),
    ("chemofront.cli", "decay_fit", "diagnostics.decay_fit"),
    ("chemofront.cli", "run_scan", "scan.run_scan"),
    ("chemofront.scan", "_run_cell", "scan.cell"),
    ("chemofront.cli", "write_profile", "cli.write"),
    ("chemofront.cli", "write_scan_csv", "cli.write"),
)


def _padded_samples(u, spec, params) -> int:
    """Length of the extended profile one convolution transforms."""
    grid = u.grid
    return grid.n + 2 * convolve._window(spec, params.sigma, grid.dx, grid.n)


def _count_result(tracer: "Tracer", name: str, args, result) -> None:
    """Counters read off a traced call's arguments and result."""
    counts = tracer.counts
    if name == "convolve.advection":
        counts["convolve.points"] += _padded_samples(*args[:3])
        if tracer.parent_name() == "slab.fixed_point":
            counts["slab.picard_sweeps"] += 1
    elif name == "evolver.evolve":
        if result.snapshots:
            counts["evolver.steps"] += round(result.snapshots[-1][0] / args[0].dt)
    elif name == "slab.fixed_point":
        counts["slab.newton_iters"] += result.iterations
        counts["slab.tau_stages"] += len(result.tau_path or ())
        counts["slab.converged"] += int(result.converged)
    elif name == "scan.cell":
        counts["scan.cells"] += 1
        counts["scan.skipped"] += int(result.classification == "skipped")


class Tracer:
    """Spans and counters kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def parent_name(self) -> str | None:
        """Name of the innermost open span, the parent of a call just ended."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and count what it did."""
        span = [name, None, None, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        self.counts[name + ".calls"] += 1
        _count_result(self, name, args, result)
        return result

    def _wrap(self, name: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds around a function that does nothing."""
    tracer = Tracer()
    noop = tracer._wrap("bench.noop", lambda: None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        (lambda: None)()
    return (traced - (time.perf_counter() - t0)) / calls


def table_misses() -> int:
    """lru_cache misses of the convolution kernel tables in this process so far."""
    return convolve._cell_weights.cache_info().misses + convolve._cell_masses.cache_info().misses


def merge(dumps: list[dict]) -> dict:
    """Concatenate span dumps from several processes, re-basing parents."""
    spans, counts = [], Counter()
    for d in dumps:
        base = len(spans)
        spans.extend([n, s, e, p + base if p >= 0 else -1] for n, s, e, p in d["spans"])
        counts.update(d["counts"])
    return {"spans": spans, "counts": dict(counts)}


def write(dump: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(dump, fh)


def read(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def summarize(dump: dict) -> dict:
    """Busy seconds per span name and self seconds per layer."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy = defaultdict(float)
    layer_self = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        busy[name] += end - start
        layer_self[name.split(".", 1)[0]] += (end - start) - child_time[i]
    return {"busy": busy, "layer_self": layer_self}
