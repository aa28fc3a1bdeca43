"""Benchmark history: an append-only ``BENCH_sweep.json`` writer.

``record_bench`` is the one entry point the benchmark suites call. It
records only when the ``BENCH_SWEEP_JSON`` environment variable names
the trajectory file (CI's perf-smoke job sets it); otherwise it writes
nothing, so a test run never changes tracked files. The benchmarks
assert their gates either way.

The file keeps its ``{"runs": [...]}`` shape, one
``{"benchmark": name, ...payload}`` entry per sample in append order.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["record_bench"]


def record_bench(benchmark: str, payload: dict) -> Path | None:
    """Append one sample to the ``BENCH_SWEEP_JSON`` trajectory.

    Returns the path written, or None when the variable is unset. The
    file is replaced atomically (tmp + ``os.replace``), so a crash
    mid-write leaves the previous history intact; an unreadable file
    raises instead of being overwritten.
    """
    target = os.environ.get("BENCH_SWEEP_JSON")
    if not target:
        return None
    path = Path(target)
    try:
        history = json.loads(path.read_text())
    except FileNotFoundError:
        history = {"runs": []}
    history["runs"].append({"benchmark": benchmark, **payload})
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(history, indent=2) + "\n")
    os.replace(tmp, path)
    return path
