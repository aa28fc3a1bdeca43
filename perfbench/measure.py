"""Worker side of the benchmark: set-up, timed calls, checks and tracing.

Runs inside a fresh interpreter started by ``perfbench/run.py``, which
times the set-up from outside and prints the final result line.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, check, derive_seed
from repro.catalog import code_version
from repro.simulation.kernel.codegen import codegen_stats

#: Calls per run at least, so a median exists even when one call
#: outlasts ``--seconds``; a traced run alternates untraced and traced.
MIN_CALLS = 3
#: Call index of the warm-up instance, outside the timed calls' indices.
WARMUP = 1_000_000

END_TO_END_UNITS = {"wall_s": "s", "lane_steps_per_s": "1/s",
                    "peak_rss_mb": "MB", "pass_frac": "ratio"}

PER_LAYER_UNITS = {
    "environment.build_s": "s", "environment.builds": "count",
    "environment.compile_s": "s",
    "spec.build_s": "s", "spec.builds": "count", "spec.hash_s": "s",
    "kernel.lower_s": "s", "kernel.lower_calls": "count",
    "kernel.step_s": "s", "kernel.step_share": "ratio",
    "kernel.us_per_lane_step": "us",
    "kernel.codegen_compiles": "count", "kernel.codegen_hits": "count",
    "kernel.codegen_compile_s": "s",
    "sweep.batched_lanes": "count", "sweep.fallback_lanes": "count",
    "sweep.groups": "count", "sweep.lanes_per_group": "count",
    "metrics.reduce_s": "s",
    "fleet.compile_s": "s", "fleet.metrics_s": "s",
    "catalog.lookup_s": "s", "catalog.restore_s": "s",
    "catalog.archive_s": "s", "catalog.hits": "count",
    "catalog.misses": "count", "catalog.hit_ratio": "ratio",
    "catalog.bytes_written": "bytes",
    "trace.other_s": "s", "trace.overhead_frac": "ratio",
}

#: Span name -> (seconds metric, count metric or None).
SPAN_METRICS = {
    "environment.build": ("environment.build_s", "environment.builds"),
    "environment.compile": ("environment.compile_s", None),
    "spec.build": ("spec.build_s", "spec.builds"),
    "spec.hash": ("spec.hash_s", None),
    "kernel.lower": ("kernel.lower_s", "kernel.lower_calls"),
    "kernel.step": ("kernel.step_s", None),
    "metrics.reduce": ("metrics.reduce_s", None),
    "fleet.compile": ("fleet.compile_s", None),
    "fleet.metrics": ("fleet.metrics_s", None),
    "catalog.lookup": ("catalog.lookup_s", None),
    "catalog.restore": ("catalog.restore_s", None),
    "catalog.archive": ("catalog.archive_s", None),
}


def host_block(seed: int) -> dict:
    """What makes absolute rates comparable across hosts and commits."""
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "git_commit": git_commit(), "code_version": code_version(),
            "seed": seed}


def git_commit():
    """HEAD of the working directory's own git checkout, or None when it
    is not one (or git is missing). The search stops at the working
    directory, so an enclosing repository is never reported."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=str(Path.cwd().resolve().parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Measured:
    """Checks and timings accumulated over one worker's calls."""

    def __init__(self, workload, seed: int, scratch: Path,
                 small: bool = False):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.small = small
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def inputs(self, index: int):
        """Inputs of call ``index``, prepared in a fresh store directory."""
        inputs = self.workload.inputs(derive_seed(self.seed, index),
                                      self.small)
        store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        self.workload.prepare(inputs, store)
        return inputs, store

    def call(self, inputs, store, around=contextlib.nullcontext):
        """One timed call, entered inside ``around()``, then its checks;
        returns ``(wall seconds, result)``, or ``(None, None)`` when the
        call raised and every row it owed counts as failed."""
        # Collect the previous call's garbage now, not inside this call.
        gc.collect()
        with around():
            t0 = time.perf_counter()
            try:
                result = self.workload.call(inputs)
            except Exception:
                traceback.print_exc()
                result = None
            wall = time.perf_counter() - t0
        if result is None:
            self.attempted += inputs.rows
            self.failed += inputs.rows
            shutil.rmtree(store, ignore_errors=True)
            return None, None
        checked = check(self.workload, inputs, result)
        self.attempted += checked.attempted
        self.failed += len(checked.failed)
        for name in checked.failed:
            print(f"FAILED row {name}", file=sys.stderr)
        if self.digest is None:
            self.digest = checked.digest
        shutil.rmtree(store, ignore_errors=True)
        return wall, result


def store_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def layer_metrics(tracer, call: int, wall: float, inputs, result,
                  codegen_delta: dict, bytes_written: int) -> dict:
    """Per-layer metrics of one traced call."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    batched_lanes = 0
    groups = 0
    for span in tracer.outermost(call):
        seconds, count = SPAN_METRICS[span.name]
        values[seconds] += span.seconds
        if count is not None:
            values[count] += 1
        if span.function == "run_batched":
            groups += 1
            batched_lanes += span.lanes
    report = getattr(result, "catalog_report", None)
    hits = report.hits if report is not None else 0
    misses = report.misses if report is not None else 0
    simulated = inputs.rows - hits
    values.update({
        "kernel.step_share": values["kernel.step_s"] / wall,
        "kernel.us_per_lane_step":
            1e6 * values["kernel.step_s"] / max(1, simulated * inputs.n_steps),
        "kernel.codegen_compiles": codegen_delta["compiles"],
        "kernel.codegen_hits": codegen_delta["hits"],
        "kernel.codegen_compile_s": codegen_delta["compile_s"],
        "sweep.batched_lanes": batched_lanes,
        "sweep.fallback_lanes": simulated - batched_lanes,
        "sweep.groups": groups,
        "sweep.lanes_per_group": batched_lanes / groups if groups else 0.0,
        "catalog.hits": hits,
        "catalog.misses": misses,
        "catalog.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "catalog.bytes_written": bytes_written,
        "trace.other_s": wall - tracer.top_level_seconds(call),
    })
    return values


def calls(measured, first, seconds: float):
    """Yield ``(index, inputs, store)`` of each call in a run: call 0
    takes ``first``, later calls fresh inputs, at least ``MIN_CALLS``
    of them and then more while one more, as long as the last (with
    its preparation and checks), still ends within ``seconds``."""
    start = time.perf_counter()
    index, last = 0, 0.0
    while index < MIN_CALLS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        yield (index, *(first if index == 0 else measured.inputs(index)))
        last = time.perf_counter() - t0
        index += 1


def measure_end_to_end(measured, first, seconds: float) -> dict:
    """Repeat the call for ``seconds`` (at least ``MIN_CALLS`` times)."""
    walls = []
    for _, inputs, store in calls(measured, first, seconds):
        wall, _ = measured.call(inputs, store)
        if wall is not None:
            walls.append(wall)
    if not walls:
        raise RuntimeError("every call raised")
    wall_s = statistics.median(walls)
    print(f"calls {len(walls)}, wall_s samples "
          f"{[round(w, 4) for w in walls]}")
    return {"wall_s": wall_s,
            "lane_steps_per_s": first[0].lane_steps / wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - measured.failed / max(1, measured.attempted)}


def measure_traced(measured, first, seconds: float, spans_path: Path,
                   host: dict) -> dict:
    """Alternate untraced and traced calls; average the layer metrics
    over the traced ones and write every span to ``spans_path``."""
    tracer = Tracer()
    untraced, traced, per_call = [], [], []
    for index, inputs, store in calls(measured, first, seconds):
        if index % 2 == 0:
            wall, _ = measured.call(inputs, store)
            if wall is not None:
                untraced.append(wall)
            continue
        marks = {}

        @contextlib.contextmanager
        def around():
            tracer.call = len(traced)
            codegen, size = codegen_stats(), store_bytes(store)
            with tracer.installed():
                yield
            after = codegen_stats()
            marks["codegen"] = {key: after[key] - codegen[key]
                                for key in ("compiles", "hits", "compile_s")}
            marks["bytes"] = store_bytes(store) - size

        wall, result = measured.call(inputs, store, around)
        if wall is not None:
            per_call.append(layer_metrics(
                tracer, len(traced), wall, inputs, result,
                marks["codegen"], marks["bytes"]))
            traced.append(wall)
    if not traced or not untraced:
        raise RuntimeError("every traced or every untraced call raised")
    values = {name: statistics.fmean(m[name] for m in per_call)
              for name in PER_LAYER_UNITS}
    values["trace.overhead_frac"] = \
        statistics.median(traced) / statistics.median(untraced) - 1.0
    print(f"untraced wall_s {[round(w, 4) for w in untraced]}, "
          f"traced wall_s {[round(w, 4) for w in traced]}")
    spans_path.write_text(json.dumps(
        {"host": host, "calls_s": traced, "spans": tracer.to_json()}) + "\n")
    print(f"spans written to {spans_path}")
    return values


def work(args, ready: str, spans_dir: Path) -> int:
    """Set up, print ``ready``, then (unless a probe) measure and print
    the result line: every metric but ``setup_s``, with its unit."""
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    warm = Measured(workload, args.seed, Path(args.scratch), small=True)
    warm.call(*warm.inputs(WARMUP))
    if warm.failed:
        return 1
    measured = Measured(workload, args.seed, Path(args.scratch))
    first = measured.inputs(0)
    print(ready, flush=True)
    if args.role == "probe":
        shutil.rmtree(first[1], ignore_errors=True)
        return 0
    host = host_block(args.seed)
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host {json.dumps(host)}")
    if args.trace:
        metrics = measure_traced(
            measured, first, args.seconds,
            spans_dir / f"spans-{workload.name}-{args.seed}.json", host)
        units = PER_LAYER_UNITS
    else:
        metrics = measure_end_to_end(measured, first, args.seconds)
        units = END_TO_END_UNITS
    print(f"rows_sha256 {measured.digest}")
    print(json.dumps({
        "correct": measured.failed == 0, "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0
