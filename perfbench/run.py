#!/usr/bin/env python3
"""chemofront benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a chemofront checkout.  It prints human-readable
lines, then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  It exits 1 when an output check fails and 2 when the
checkout holds no ``src/chemofront``.  See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread here and in every child process (they inherit the
# environment), set before numpy loads: the two scan workers must not
# oversubscribe a 2-core machine.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
# What a fresh interpreter pays before its first solve: imports, the CLI
# parser and the lru_cache kernel tables of one convolution and its gradient.
SETUP_CODE = """
import chemofront, chemofront.cli
from chemofront import convolve
from chemofront.grids import Grid1D, smoothed_step_field
from chemofront.kernels import ChemoParams, KernelSpec
chemofront.cli._build_parser()
u = smoothed_step_field(Grid1D.from_spacing(-50.0, 350.0, 0.1))
convolve.advection(u, KernelSpec("exp"), ChemoParams(-0.05, 1.0))
convolve.advection_gradient(u, KernelSpec("exp"), ChemoParams(-0.05, 1.0))
"""

def percentile_summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 11:
        p = math.floor(100.0 * (1.0 - 10.0 / len(values)))
        out[f"p{p}"] = float(np.percentile(values, p))
    return out


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def time_setup() -> float:
    from workloads import run_process

    t0 = time.perf_counter()
    code, _, err = run_process([sys.executable, "-c", SETUP_CODE], ROOT, dict(os.environ))
    if code != 0:
        raise RuntimeError(f"set-up process failed ({code}): {err.strip()[-300:]}")
    return time.perf_counter() - t0


class Runner:
    """Runs units of a workload for a time budget."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds

    def unit(self, traced: bool) -> tuple[list, dict]:
        steps = []
        for step_fn in self.workload.steps(traced):
            step = step_fn()
            steps.append(step)
            for failure in step.failures:
                print(f"FAIL {self.workload.name} {step.name}: {failure}")
        return steps, self.workload.summarize(steps)

    def loop(self, body) -> None:
        """Call ``body`` while budget is left, so at least once.

        The last call may overrun the budget by up to its own length, so a
        budget a little longer than one ``cli-session`` session buys two
        sessions to take the median of, not one.
        """
        start = time.perf_counter()
        while True:
            body()
            if time.perf_counter() - start >= self.seconds:
                break


def end_to_end(workload, setups, units, rss_mb: float) -> tuple[dict, list[str]]:
    ops = [summary["op"] for _, summary in units]
    stages = [summary["stage"] for _, summary in units]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(ops),
        "stage_s": statistics.median(stages),
        "peak_rss_mb": rss_mb,
    }
    op_name, stage_name = workload.aliases
    steps = [s for unit_steps, _ in units for s in unit_steps]
    lines = [
        f"setup_s = {metrics['setup_s']:.4f} s  of {[round(s, 4) for s in setups]}",
        f"op_s    = {op_name} = {metrics['op_s']:.4f} s  {percentile_summary(ops)}",
        f"stage_s = {stage_name} = {metrics['stage_s']:.4f} s  {percentile_summary(stages)}",
        f"peak_rss_mb = {rss_mb:.3f} MB",
    ]
    by_name: dict[str, list[float]] = {}
    for s in steps:
        by_name.setdefault(s.name.rstrip("0123456789"), []).append(s.wall)
    for name, walls in by_name.items():
        lines.append(f"  step {name}: wall {percentile_summary(walls)}")
    return metrics, lines


PER_LAYER_UNITS = {
    "convolve.advection.calls": "count", "convolve.advection.s": "s",
    "convolve.advection.us_per_call": "us", "convolve.points": "count",
    "convolve.advection_gradient.calls": "count", "convolve.advection_gradient.s": "s",
    "convolve.self_s": "s",
    "kernels.kbar.calls": "count", "kernels.kbar.s": "s", "kernels.validate_kernel.s": "s",
    "kernels.table_misses": "count", "kernels.self_s": "s",
    "evolver.steps": "count", "evolver.self_s": "s", "evolver.us_per_step": "us",
    "evolver.measure_speed.s": "s",
    "slab.fixed_point.calls": "count", "slab.fixed_point.s": "s", "slab.self_s": "s",
    "slab.newton_iters": "count", "slab.picard_sweeps": "count", "slab.tau_stages": "count",
    "slab.converged_ratio": "ratio",
    "spectral.certificate.s": "s", "spectral.principal_eigenpair.calls": "count",
    "spectral.principal_eigenpair.s": "s", "spectral.self_s": "s",
    "diagnostics.s": "s",
    "scan.cells": "count", "scan.skipped_ratio": "ratio", "scan.cell_s": "s",
    "scan.parallel_efficiency": "ratio",
    "cli.evolve.s": "s", "cli.slab.s": "s", "cli.eigen.s": "s", "cli.check.s": "s",
    "cli.scan.s": "s", "cli.startup_s": "s", "cli.self_s": "s", "cli.write.s": "s",
    "cli.bytes_written": "bytes",
    "unattributed_s": "s", "trace.op_s": "s", "trace.untraced_op_s": "s",
    "trace.overhead_s": "s",
}


def per_layer(workload, untraced, traced, tracer_dump, misses: int) -> tuple[dict, list[str]]:
    """Per-op layer metrics from the traced units."""
    import spans

    dumps = [tracer_dump] + [s.trace for steps, _ in traced for s in steps if s.trace]
    merged = spans.merge(dumps)
    summary = spans.summarize(merged)
    busy, layer_self, counts = summary["busy"], summary["layer_self"], merged["counts"]
    counts["kernels.table_misses"] = counts.get("kernels.table_misses", 0) + misses
    n_ops = workload.ops_per_unit * len(traced)

    def count(key):
        return counts.get(key, 0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    steps = [s for unit_steps, _ in traced for s in unit_steps]
    cli_walls = {}
    for s in steps:
        if s.trace is not None:
            cli_walls[s.name] = cli_walls.get(s.name, 0.0) + s.wall
    dispatch = busy.get("cli.dispatch", 0.0)
    scan_wall_untraced = statistics.median(u["stage"] for _, u in untraced)
    layers_total = sum(layer_self.values())
    wall_total = sum(s.wall for s in steps)

    values = {
        "convolve.advection.calls": count("convolve.advection.calls"),
        "convolve.advection.s": busy.get("convolve.advection", 0.0) / n_ops,
        "convolve.advection.us_per_call": 1e6 * ratio(busy.get("convolve.advection", 0.0),
                                                      counts.get("convolve.advection.calls", 0)),
        "convolve.points": count("convolve.points"),
        "convolve.advection_gradient.calls": count("convolve.advection_gradient.calls"),
        "convolve.advection_gradient.s": busy.get("convolve.advection_gradient", 0.0) / n_ops,
        "convolve.self_s": layer_self.get("convolve", 0.0) / n_ops,
        "kernels.kbar.calls": count("kernels.kbar.calls"),
        "kernels.kbar.s": busy.get("kernels.kbar", 0.0) / n_ops,
        "kernels.validate_kernel.s": busy.get("kernels.validate_kernel", 0.0) / n_ops,
        "kernels.table_misses": count("kernels.table_misses"),
        "kernels.self_s": layer_self.get("kernels", 0.0) / n_ops,
        "evolver.steps": count("evolver.steps"),
        "evolver.self_s": layer_self.get("evolver", 0.0) / n_ops,
        "evolver.us_per_step": 1e6 * ratio(busy.get("evolver.evolve", 0.0),
                                           counts.get("evolver.steps", 0)),
        "evolver.measure_speed.s": busy.get("evolver.measure_speed", 0.0) / n_ops,
        "slab.fixed_point.calls": count("slab.fixed_point.calls"),
        "slab.fixed_point.s": busy.get("slab.fixed_point", 0.0) / n_ops,
        "slab.self_s": layer_self.get("slab", 0.0) / n_ops,
        "slab.newton_iters": count("slab.newton_iters"),
        "slab.picard_sweeps": count("slab.picard_sweeps"),
        "slab.tau_stages": count("slab.tau_stages"),
        "slab.converged_ratio": ratio(counts.get("slab.converged", 0),
                                      counts.get("slab.fixed_point.calls", 0)),
        "spectral.certificate.s": busy.get("spectral.certificate", 0.0) / n_ops,
        "spectral.principal_eigenpair.calls": count("spectral.principal_eigenpair.calls"),
        "spectral.principal_eigenpair.s": busy.get("spectral.principal_eigenpair", 0.0) / n_ops,
        "spectral.self_s": layer_self.get("spectral", 0.0) / n_ops,
        "diagnostics.s": layer_self.get("diagnostics", 0.0) / n_ops,
        "scan.cells": count("scan.cells"),
        "scan.skipped_ratio": ratio(counts.get("scan.skipped", 0), counts.get("scan.cells", 0)),
        "scan.cell_s": busy.get("scan.cell", 0.0) / n_ops,
        # cell busy time of the one-worker traced scan over the untraced
        # two-worker scan's wall time, both per session
        "scan.parallel_efficiency": ratio(busy.get("scan.cell", 0.0) / n_ops,
                                          2.0 * scan_wall_untraced) if "scan" in cli_walls else 0.0,
        **{f"cli.{name}.s": cli_walls.get(name, 0.0) / n_ops
           for name in ("evolve", "slab", "eigen", "check", "scan")},
        "cli.startup_s": (sum(cli_walls.values()) - dispatch) / n_ops,
        "cli.self_s": layer_self.get("cli", 0.0) / n_ops,
        "cli.write.s": busy.get("cli.write", 0.0) / n_ops,
        "cli.bytes_written": sum(s.bytes_written for s in steps if s.name == "scan") / n_ops,
        "unattributed_s": (wall_total - layers_total) / n_ops,
    }
    # unit summaries are already per operation
    untraced_cmp = statistics.median(u["comparable"] for _, u in untraced)
    traced_cmp = statistics.median(t["comparable"] for _, t in traced)
    values["trace.op_s"] = statistics.median(t["op"] for _, t in traced)
    values["trace.untraced_op_s"] = statistics.median(u["op"] for _, u in untraced)
    values["trace.overhead_s"] = traced_cmp - untraced_cmp

    named = sum(layer_self.get(layer, 0.0) for layer in workload.layers) / n_ops
    spans_per_op, cost = len(merged["spans"]) / n_ops, spans.span_cost()
    per_op_wall = wall_total / n_ops
    lines = [
        f"traced {len(traced)} unit(s), {n_ops} op(s); per op: wall {per_op_wall:.4f} s, "
        f"self time of {'+'.join(workload.layers)} = {named:.4f} s "
        f"({100.0 * ratio(named, per_op_wall):.1f}%), unattributed {values['unattributed_s']:.4f} s",
        "self s per layer per op: " + ", ".join(
            f"{layer} {t / n_ops:.4f}" for layer, t in sorted(layer_self.items())),
        f"spans per op: {spans_per_op:.1f}, at {1e6 * cost:.2f} us each on a no-op: "
        f"{spans_per_op * cost:.4f} s per op",
        f"tracing overhead per op: {values['trace.overhead_s']:.4f} s "
        f"(traced {traced_cmp:.4f} s - untraced {untraced_cmp:.4f} s"
        + (", commands other than scan; the traced scan runs with 1 worker)" if workload.name == "cli-session" else ")"),
    ]
    return values, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "chemofront" / "__init__.py").is_file():
        print(f"error: no chemofront sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # for every child process

    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("env: " + json.dumps(environment()))
        print("inputs: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                       **workload.describe()}))
        setups = [] if args.trace else [time_setup() for _ in range(SETUP_REPEATS)]
        workload.warm()
        runner = Runner(workload, args.seconds)
        untraced, traced = [], []
        if args.trace:
            tracer = spans.Tracer()
            misses0 = spans.table_misses()

            def body():
                untraced.append(runner.unit(False))
                tracer.install()
                try:
                    traced.append(runner.unit(True))
                finally:
                    tracer.uninstall()

            runner.loop(body)
            metrics, lines = per_layer(workload, untraced, traced, tracer.dump(),
                                       spans.table_misses() - misses0)
            units = PER_LAYER_UNITS
        else:
            runner.loop(lambda: untraced.append(runner.unit(False)))
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            metrics, lines = end_to_end(workload, setups, untraced, rss_mb)
            units = {"setup_s": "s", "op_s": "s", "stage_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    steps = [s for unit_steps, _ in untraced + traced for s in unit_steps]
    failed = sum(1 for s in steps if s.failures)
    for line in lines:
        print(line)
    print(f"operations: {len(steps)} attempted, {failed} failed, fail_ratio {failed / len(steps):.4f}")
    result = {
        "correct": failed == 0,
        "attempted": len(steps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
