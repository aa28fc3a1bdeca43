"""Tiny-size runs of every benchmark workload through the benchmark's own
code path: the end-to-end loop, the row checks and the traced run."""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure as bench
from perfbench import run
from perfbench.workloads import WORKLOADS, LongRun, Table1Sweep, check

NAMES = sorted(WORKLOADS)


@pytest.fixture(autouse=True)
def hermetic_codegen_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen"))


def manifest():
    root = Path(run.__file__).resolve().parents[1]
    return json.loads((root / "BENCHMARK.json").read_text())


def tiny(workload, tmp_path, seed=3):
    measured = bench.Measured(workload, seed, tmp_path, small=True)
    return measured, measured.inputs(0)


@pytest.mark.parametrize("name", NAMES)
def test_workload_smoke(name, tmp_path):
    measured, first = tiny(WORKLOADS[name], tmp_path)
    metrics = bench.measure_end_to_end(measured, first, seconds=0)
    assert set(metrics) == set(bench.END_TO_END_UNITS)
    assert measured.failed == 0
    assert measured.attempted >= bench.MIN_CALLS * first[0].rows
    assert metrics["pass_frac"] == 1.0
    assert metrics["wall_s"] > 0 and metrics["lane_steps_per_s"] > 0


class PerturbedTable1(Table1Sweep):
    """Table I sweep whose first row's uptime is one ulp too high."""

    def call(self, inputs):
        result = super().call(inputs)
        row = result.results[0]
        metrics = dataclasses.replace(
            row.metrics,
            uptime_fraction=math.nextafter(row.metrics.uptime_fraction,
                                           math.inf))
        return type(result)((dataclasses.replace(row, metrics=metrics),)
                            + result.results[1:])


def test_perturbed_row_lowers_pass_frac(tmp_path):
    measured, first = tiny(PerturbedTable1(), tmp_path)
    metrics = bench.measure_end_to_end(measured, first, seconds=0)
    assert measured.failed == bench.MIN_CALLS
    assert metrics["pass_frac"] == pytest.approx(
        1 - bench.MIN_CALLS / measured.attempted)
    bound = next(m["bound"] for m in manifest()["end_to_end"]
                 if m["name"] == "pass_frac")
    assert 1 - metrics["pass_frac"] > bound


class FlakyLongRun(LongRun):
    """Long run whose every call after the first raises."""

    calls = 0

    def call(self, inputs):
        self.calls += 1
        if self.calls > 1:
            raise RuntimeError("injected failure")
        return super().call(inputs)


def test_raising_call_counts_its_rows_failed(tmp_path):
    measured, first = tiny(FlakyLongRun(), tmp_path)
    metrics = bench.measure_end_to_end(measured, first, seconds=0)
    assert measured.failed == bench.MIN_CALLS - 1
    assert metrics["pass_frac"] == pytest.approx(1 / bench.MIN_CALLS)


def test_row_digest_repeats(tmp_path):
    workload = WORKLOADS["long_run"]
    inputs = workload.inputs(11, small=True)
    first = check(workload, inputs, workload.call(inputs))
    second = check(workload, inputs, workload.call(inputs))
    assert first.failed == second.failed == []
    assert first.digest == second.digest


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer(name, tmp_path):
    engine = importlib.import_module("repro.simulation.engine")
    run_plan = engine.run_plan
    measured, first = tiny(WORKLOADS[name], tmp_path)
    spans = tmp_path / "spans.json"
    values = bench.measure_traced(measured, first, 0, spans, {})
    assert set(values) == set(bench.PER_LAYER_UNITS)
    assert measured.failed == 0
    assert spans.is_file()
    assert engine.run_plan is run_plan, "tracer left a wrapper installed"
    assert values["kernel.step_s"] > 0
    lanes = first[0].rows
    expected = {
        "ensemble": {"sweep.lanes_per_group": lanes, "environment.builds": lanes},
        "fleet": {"sweep.lanes_per_group": lanes, "fleet.compile_s": None},
        "table1_sweep": {"sweep.lanes_per_group": 1, "sweep.groups": lanes},
        "long_run": {"sweep.groups": 0, "sweep.fallback_lanes": 1},
        "catalog_resume": {"catalog.hits": lanes // 2,
                           "catalog.misses": lanes // 2,
                           "catalog.hit_ratio": 0.5,
                           "catalog.bytes_written": None},
    }[name]
    for metric, value in expected.items():
        if value is None:
            assert values[metric] > 0, metric
        else:
            assert values[metric] == value, metric


def test_command_fails_outside_a_checkout(tmp_path):
    script = Path(run.__file__).resolve()
    done = subprocess.run(
        [sys.executable, str(script), "--workload", "ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_manifest_names_what_the_worker_prints():
    assert {m["name"]: m["unit"] for m in manifest()["end_to_end"]} == \
        {**bench.END_TO_END_UNITS, "setup_s": "s"}
    assert {m["name"]: m["unit"] for m in manifest()["per_layer"]} == \
        bench.PER_LAYER_UNITS
    assert {w["name"] for w in manifest()["workloads"]} <= set(WORKLOADS)
