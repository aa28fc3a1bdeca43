"""The benchmark's five workloads: inputs from a seed, one call, checks.

Each workload drives one public, declarative entry point at its default
tier routing with ``processes=1``. Its inputs are a pure function of the
workload seed, and its rows are checked against the repository's own
oracle: rows are bitwise equal across execution tiers. See README.md
for why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import traceback

import numpy as np

from repro.catalog import Catalog
from repro.fleet import fleet_scenarios, homogeneous_fleet
from repro.simulation import SweepRunner, run_ensemble
from repro.simulation.recorder import SCALAR_COLUMNS
from repro.spec import (EnvironmentSpec, MonteCarloSpec, RunSpec, SweepSpec,
                        run, run_fleet, run_montecarlo, run_sweep, spec_for)

DAY = 86_400.0
#: Replicates / nodes re-run on the per-scenario reference tier.
ORACLE_PREFIX = 4
TABLE1_LETTERS = "ABCDEFG"


def derive_seed(seed: int, index: int) -> int:
    """The 32-bit input seed of call ``index`` under workload seed ``seed``."""
    sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=(index,))
    return int(sequence.generate_state(1)[0])


@dataclasses.dataclass
class Inputs:
    """One instance of a workload: the spec its call takes, and its size."""

    spec: object
    rows: int
    n_steps: int
    #: Untimed state a workload prepares before its call (catalog store).
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def lane_steps(self) -> int:
        return self.rows * self.n_steps


@dataclasses.dataclass(frozen=True)
class Row:
    """The tier-invariant part of one output row."""

    name: str
    params: dict
    metrics: object
    n_steps: int


@dataclasses.dataclass
class Checked:
    """What the checks found in one call's output."""

    attempted: int
    failed: list
    digest: str


def _row(result) -> Row:
    return Row(result.name, dict(result.params), result.metrics,
               result.n_steps)


def _outdoor(days: float, dt: float, seed: int | None = None):
    return EnvironmentSpec("outdoor", duration=days * DAY, dt=dt, seed=seed)


class Workload:
    """Base: subclasses build inputs, make the call and name its rows."""

    name = ""

    def inputs(self, seed: int, small: bool = False) -> Inputs:
        raise NotImplementedError

    def prepare(self, inputs: Inputs, scratch: str) -> None:
        """Untimed set-up of one call's inputs (default: none)."""

    def call(self, inputs: Inputs):
        """The timed public call."""
        raise NotImplementedError

    def rows(self, result) -> list:
        return [_row(r) for r in result.results]

    def oracle(self, inputs: Inputs, result) -> set:
        """Names of rows that disagree with the reference tier."""
        raise NotImplementedError


class Ensemble(Workload):
    """run_montecarlo: System C, 256 replicates, 1 day at 60 s."""

    name = "ensemble"

    def inputs(self, seed, small=False):
        replicates, days = (8, 0.25) if small else (256, 1.0)
        run_spec = RunSpec(system=spec_for("C"), environment=_outdoor(days, 60),
                           name="C@outdoor")
        spec = MonteCarloSpec(run=run_spec, replicates=replicates,
                              root_seed=seed)
        return Inputs(spec, replicates, int(days * DAY / 60))

    def call(self, inputs):
        return run_montecarlo(inputs.spec, processes=1)

    def oracle(self, inputs, result):
        k = min(ORACLE_PREFIX, inputs.rows)
        reference = run_ensemble(dataclasses.replace(inputs.spec, replicates=k),
                                 tier="in-process", processes=1)
        return {got.name for got, want in zip(result.results, reference.results)
                if _row(got) != _row(want)}


class Fleet(Workload):
    """run_fleet: 64 System D nodes on a ring, 2 days at 30 s."""

    name = "fleet"

    def inputs(self, seed, small=False):
        nodes, days = (8, 0.25) if small else (64, 2.0)
        spec = homogeneous_fleet(spec_for("D"), _outdoor(days, 30, seed), nodes,
                                 topology="ring", spread=0.2)
        return Inputs(spec, nodes, int(days * DAY / 30))

    def call(self, inputs):
        return run_fleet(inputs.spec, processes=1)

    def rows(self, result):
        fleet = result.metrics
        rows = [_row(r) for r in result.results]
        return rows + [Row(result.spec.label, {"aggregate": True}, fleet,
                           rows[0].n_steps if rows else 0)]

    def oracle(self, inputs, result):
        k = min(ORACLE_PREFIX, inputs.rows)
        scenarios = fleet_scenarios(inputs.spec)[:k]
        reference = SweepRunner(processes=1, batch=False).run(scenarios)
        return {got.name for got, want in zip(result.results, reference)
                if _row(got) != _row(want)}


class Table1Sweep(Workload):
    """run_sweep: Table I systems A-G, 3 days at 300 s."""

    name = "table1_sweep"

    def inputs(self, seed, small=False):
        days = 0.25 if small else 3.0
        spec = SweepSpec(runs=tuple(
            RunSpec(system=spec_for(letter),
                    environment=_outdoor(days, 300, seed),
                    name=f"{letter}@outdoor",
                    params={"system": letter, "environment": "outdoor"})
            for letter in TABLE1_LETTERS), name="table1")
        return Inputs(spec, len(TABLE1_LETTERS), int(days * DAY / 300))

    def call(self, inputs):
        return run_sweep(inputs.spec, processes=1)

    def oracle(self, inputs, result):
        bad = set()
        for run_spec, got in zip(inputs.spec.runs, result.results):
            want = run(run_spec)
            if (got.metrics, got.n_steps) != (want.metrics, len(want.recorder)):
                bad.add(got.name)
        return bad


class LongRun(Workload):
    """repro.spec.run: System A, 10 days at 60 s."""

    name = "long_run"

    def inputs(self, seed, small=False):
        days = 0.25 if small else 10.0
        spec = RunSpec(system=spec_for("A"),
                       environment=_outdoor(days, 60, seed), name="A@outdoor")
        return Inputs(spec, 1, int(days * DAY / 60))

    def call(self, inputs):
        return run(inputs.spec)

    def rows(self, result):
        return [Row("A@outdoor", {}, result.metrics, len(result.recorder))]

    def oracle(self, inputs, result):
        prefix_s = min(DAY, inputs.n_steps * 60.0)
        reference = run(dataclasses.replace(inputs.spec, duration=prefix_s,
                                            fast=False))
        n = len(reference.recorder)
        same = np.array_equal(result.recorder.state_codes()[:n],
                              reference.recorder.state_codes())
        for column in SCALAR_COLUMNS:
            same = same and np.array_equal(result.recorder.column(column)[:n],
                                           reference.recorder.column(column))
        return set() if same else {"A@outdoor"}


class CatalogResume(Workload):
    """run_sweep with a catalog: 512 System C rows, half archived."""

    name = "catalog_resume"

    def inputs(self, seed, small=False):
        n = 16 if small else 512
        environment = _outdoor(0.5, 300, seed)
        runs = tuple(
            RunSpec(system=spec_for("C", initial_soc=float(soc)),
                    environment=environment, name=f"C@soc{i:03d}",
                    params={"initial_soc": float(soc)})
            for i, soc in enumerate(np.linspace(0.05, 0.95, n)))
        spec = SweepSpec(runs=runs, name="catalog-resume")
        return Inputs(spec, n, int(0.5 * DAY / 300))

    def prepare(self, inputs, scratch):
        seeding = dataclasses.replace(inputs.spec, runs=inputs.spec.runs[::2])
        result = run_sweep(seeding, processes=1, catalog=Catalog(scratch))
        inputs.extra = {"store": scratch,
                        "seeded": {r.name: _row(r) for r in result.results}}

    def call(self, inputs):
        catalog = Catalog(inputs.extra["store"])
        return run_sweep(inputs.spec, processes=1, catalog=catalog)

    def oracle(self, inputs, result):
        seeded = inputs.extra["seeded"]
        report = result.catalog_report
        if (report.hits, report.simulated) != (len(seeded),
                                               inputs.rows - len(seeded)):
            return {r.name for r in result.results}
        return {r.name for r in result.results
                if r.name in seeded and _row(r) != seeded[r.name]}


WORKLOADS = {w.name: w for w in (Ensemble(), Fleet(), Table1Sweep(),
                                 LongRun(), CatalogResume())}


def _finite(metrics) -> bool:
    for value in dataclasses.astuple(metrics):
        for item in np.ravel(np.asarray(value, dtype=float)):
            if not math.isfinite(item):
                return False
    return True


def digest(rows) -> str:
    """SHA-256 of the rows' canonical JSON (tier-invariant fields only)."""
    canonical = [[r.name, r.params, r.n_steps,
                  [repr(v) for v in dataclasses.astuple(r.metrics)]]
                 for r in rows]
    text = json.dumps(canonical, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def check(workload: Workload, inputs: Inputs, result) -> Checked:
    """Check every row: step count, finite metrics, and the oracle."""
    rows = workload.rows(result)
    try:
        failed = set(workload.oracle(inputs, result))
    except Exception:  # a reference run that raises fails every row
        traceback.print_exc()
        failed = {row.name for row in rows}
    for row in rows:
        if row.n_steps != inputs.n_steps or not _finite(row.metrics):
            failed.add(row.name)
    if len(rows) < inputs.rows:
        failed.add("<missing rows>")
    return Checked(attempted=max(len(rows), inputs.rows),
                   failed=sorted(failed), digest=digest(rows))
