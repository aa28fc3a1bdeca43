"""Codegen tier unit suite: cache identity, warm-cache reuse, refusals.

The bitwise-equivalence gates live in ``tests/test_determinism.py``
(Table I letters A-G, mid-run event handoff) and
``tests/test_differential.py`` (fuzzed corpus); this file covers the
compile-cache machinery itself:

* the cache identity is byte-for-byte what ``repro spec --hash``
  prints — the regression guard for ISSUE 8's identity-drift fix;
* a second identical run of the fused shape performs zero compilations
  and increments the hit counter (the warm-cache contract);
* the on-disk source cache survives a cleared in-process cache;
* a system outside the fused shape runs the scalar kernel, and one
  outside the kernel runs legacy, each with a structured
  CapabilityReport.
"""

import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.cli import main
from repro.environment.composite import outdoor_environment
from repro.harvesters import PhotovoltaicCell
from repro.simulation import simulate
from repro.simulation.kernel import (
    LoweringUnsupported,
    clear_codegen_cache,
    codegen_cache_identity,
    codegen_stats,
    prepare_codegen,
)
from repro.simulation.kernel.plan import KernelPlan
from repro.spec import spec_for
from repro.spec.build import build
from repro.systems import SYSTEM_BUILDERS

DAY = 86_400.0
DT = 600.0


def _spec_system(letter: str):
    """A Table I system built through the spec layer (hash stamped)."""
    return build(spec_for(letter))


def _fused_system(spec_hash: str | None = "f" * 64):
    """The fused reference shape (one supercap, buck-boost, P&O).

    No registered spec builds this shape, so the spec hash a spec-built
    system would carry is stamped by hand; ``None`` leaves it hand-built.
    """
    system = make_reference_system(
        [PhotovoltaicCell(area_cm2=30.0, name="pv")], capacitance_f=25.0)
    if spec_hash is not None:
        system._codegen_spec_hash = spec_hash
    return system


def _env(seed: int = 5):
    return outdoor_environment(duration=0.1 * DAY, dt=DT, seed=seed)


class TestCacheIdentity:
    @pytest.mark.parametrize("letter", sorted(SYSTEM_BUILDERS))
    def test_cli_spec_hash_matches_codegen_cache_key(self, letter, capsys):
        """`repro spec --hash` and the codegen cache must agree on
        identity: the hash the CLI prints is byte-for-byte the
        spec_hash component of the compile-cache key."""
        assert main(["spec", letter, "--hash"]) == 0
        printed = capsys.readouterr().out.strip()
        identity = codegen_cache_identity(_spec_system(letter), DT)
        assert identity["spec_hash"] == printed
        assert len(printed) == 64 and set(printed) <= set("0123456789abcdef")

    def test_identity_carries_dt_and_code_version(self):
        identity = codegen_cache_identity(_spec_system("C"), 300.0)
        assert identity["dt"] == repr(300.0)
        assert identity["code_version"]

    def test_hand_built_systems_have_no_spec_hash(self):
        system = SYSTEM_BUILDERS["C"]()
        assert codegen_cache_identity(system, DT)["spec_hash"] is None


class TestWarmCache:
    def test_second_identical_run_compiles_nothing(self, tmp_path,
                                                   monkeypatch):
        """The warm-cache contract: run an identical spec twice — the
        second run performs zero compilations and zero emissions, and
        the in-process hit counter increments."""
        # Isolate the on-disk source cache: a prior process's entry
        # would legitimately satisfy the cold run's source lookup
        # (disk_hits instead of emitted) and mask what this asserts.
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
        clear_codegen_cache()
        env = _env()
        before = codegen_stats()
        first = simulate(_fused_system(), env, dt=DT, fast="codegen")
        cold = codegen_stats()
        assert first.execution_path == "codegen"
        assert cold["compiles"] == before["compiles"] + 1
        assert cold["emitted"] == before["emitted"] + 1
        assert cold["compile_s"] > before["compile_s"]

        second = simulate(_fused_system(), env, dt=DT, fast="codegen")
        warm = codegen_stats()
        assert second.execution_path == "codegen"
        assert warm["compiles"] == cold["compiles"]
        assert warm["emitted"] == cold["emitted"]
        assert warm["hits"] == cold["hits"] + 1

    def test_disk_cache_survives_inprocess_clear(self, tmp_path,
                                                 monkeypatch):
        """Spec-hashed systems persist emitted source on disk: a fresh
        process (simulated by clearing the in-process caches) reuses it
        instead of re-emitting."""
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
        clear_codegen_cache()
        env = _env()
        first = simulate(_fused_system(), env, dt=DT, fast="codegen")
        assert first.execution_path == "codegen"
        cached = list(tmp_path.glob("*.py"))
        assert len(cached) == 1

        clear_codegen_cache()
        before = codegen_stats()
        second = simulate(_fused_system(), env, dt=DT, fast="codegen")
        after = codegen_stats()
        assert second.execution_path == "codegen"
        assert after["disk_hits"] == before["disk_hits"] + 1
        assert after["emitted"] == before["emitted"]
        # The source still has to be compiled once per process...
        assert after["compiles"] == before["compiles"] + 1
        # ...and the runs agree bitwise.
        for column in ("harvest_delivered", "stored_energy"):
            a = first.recorder.column(column)
            b = second.recorder.column(column)
            assert (a == b).all(), column

    def test_hand_built_systems_cache_in_process_only(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
        clear_codegen_cache()
        result = simulate(_fused_system(spec_hash=None), _env(), dt=DT,
                          fast="codegen")
        assert result.execution_path == "codegen"
        assert list(tmp_path.glob("*.py")) == []


#: The first component of each Table I letter outside the fused shape.
UNFUSED_COMPONENT = {
    "A": "RegisterBus", "B": "RegisterBus", "C": "StorageBank",
    "D": "AABatteryPack", "E": "ThinFilmBattery", "F": "RegisterBus",
    "G": "ThinFilmBattery",
}


class TestBackendsAndEligibility:
    @pytest.mark.parametrize("letter", sorted(SYSTEM_BUILDERS))
    def test_unfused_shape_runs_the_scalar_kernel(self, letter):
        """No Table I letter has the fused shape: ``prepare_codegen``
        refuses it naming the component, compiles nothing, and
        ``simulate`` runs the scalar kernel carrying that report."""
        from repro.environment.compiled import CompiledEnvironment
        plan = KernelPlan.compile(_spec_system(letter), DT)
        compiled = CompiledEnvironment(_env(), 0.0, 16, DT, step_offset=0)
        before = codegen_stats()
        with pytest.raises(LoweringUnsupported) as refused:
            prepare_codegen(plan, compiled)
        assert codegen_stats()["compiles"] == before["compiles"]
        report = refused.value.capability_report()
        assert report.component == UNFUSED_COMPONENT[letter]
        assert report.capability == "fused codegen shape"
        assert report.detail.startswith(report.component)
        result = simulate(_spec_system(letter), _env(), dt=DT,
                          fast="codegen")
        assert result.execution_path == "kernel"
        assert result.codegen_fallback == report

    def test_invalid_fast_value_rejected(self):
        with pytest.raises(ValueError, match="fast must be"):
            simulate(SYSTEM_BUILDERS["C"](), _env(), dt=DT, fast="bogus")

    def test_ineligible_system_reports_capability(self):
        from repro.storage import Supercapacitor

        class _Replaced(Supercapacitor):
            def charge(self, power_w, dt):
                return super().charge(power_w * 0.5, dt)

        system = make_reference_system(
            [PhotovoltaicCell(area_cm2=30.0, name="pv")],
            stores=[_Replaced(capacitance_f=25.0, name="odd")])
        result = simulate(system, _env(), dt=DT, fast="codegen")
        assert result.execution_path == "legacy"
        report = result.codegen_fallback
        assert report is not None
        assert report.component == "_Replaced"
        assert report.capability and report.detail
