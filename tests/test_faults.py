"""Fault-injection harness, artifact corruption, and degradation policy."""

import json
import math

import pytest

from repro.common.errors import (
    ConfigError,
    ErrorKind,
    ExecError,
    InjectedCrash,
    PermanentError,
    TransientError,
    ValidationError,
    classify_error,
)
from repro.exec import ExecOptions, GridPlan, InjectSpec, ResultCache, faults
from repro.exec import telemetry as telemetry_module
from repro.exec.faults import (
    FaultInjector,
    FaultSpec,
    bitflip_file,
    parse_fault_plan,
    parse_fault_spec,
    truncate_file,
)
from repro.exec.keys import sim_key
from repro.exec.scheduler import execute_grid, quarantine_report
from repro.harness.report import format_table
from repro.harness import runner as runner_module
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.metrics.aggregate import ResultGrid
from repro.sim.config import REDUCED_CONFIG
from repro.sim.results import SimResult
from repro.trace.io import try_read_trace, verify_trace_file, write_trace


@pytest.fixture(autouse=True)
def _no_lingering_faults():
    faults.deactivate()
    yield
    faults.deactivate()


def _broken_build(spec, **_):
    raise ExecError(f"no trace for {spec.name}")


def tiny_plan(workloads=("nw",), prefetchers=("no-prefetch", "stride")):
    return GridPlan.from_grid(
        list(workloads), list(prefetchers),
        scale=1.0, budget_fraction=0.02, seed=0, config=REDUCED_CONFIG,
    )


class TestSpecParsing:
    def test_full_clause(self):
        spec = parse_fault_spec("task-done:exit@3")
        assert spec == FaultSpec(site="task-done", kind="exit", at=3)

    def test_defaults(self):
        spec = parse_fault_spec("journal.append:torn")
        assert spec.at == 1 and spec.times == 1

    def test_repeat_count(self):
        spec = parse_fault_spec("task-done:raise@2x4")
        assert spec.at == 2 and spec.times == 4

    @pytest.mark.parametrize("text", [
        "nosite", "task-done:", ":raise", "a:raise@x", "a:not-a-kind",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ExecError):
            parse_fault_spec(text)

    def test_plan_parsing(self):
        plan = parse_fault_plan("task-done:raise, journal.append:torn@2")
        assert [s.site for s in plan] == ["task-done", "journal.append"]

    def test_env_install(self):
        injector = faults.install_from_env(
            {"REPRO_FAULTS": "task-done:raise@5"})
        assert injector is faults.ACTIVE
        assert injector.specs[0].at == 5
        faults.deactivate()
        assert faults.install_from_env({}) is None


class TestInjector:
    def test_fires_exactly_at_seeded_occurrence(self):
        injector = FaultInjector(FaultSpec(site="s", kind="raise", at=2))
        injector.check("s")  # hit 1: silent
        with pytest.raises(TransientError):
            injector.check("s")  # hit 2: fires
        injector.check("s")  # hit 3: silent again
        assert injector.hits["s"] == 3
        assert injector.fired == [("s", "raise", 2)]

    def test_other_sites_unaffected(self):
        injector = FaultInjector(FaultSpec(site="s", kind="raise"))
        injector.check("other")
        with pytest.raises(TransientError):
            injector.check("s")

    def test_crash_and_permanent_kinds(self):
        injector = FaultInjector([
            FaultSpec(site="a", kind="crash"),
            FaultSpec(site="b", kind="raise-permanent"),
        ])
        with pytest.raises(InjectedCrash):
            injector.check("a")
        with pytest.raises(PermanentError):
            injector.check("b")

    def test_mangle_tears_the_payload(self):
        injector = FaultInjector(FaultSpec(site="w", kind="torn"))
        data, error = injector.mangle("w", b"0123456789")
        assert data == b"01234"
        assert isinstance(error, InjectedCrash)
        # Subsequent writes pass through untouched.
        data, error = injector.mangle("w", b"0123456789")
        assert data == b"0123456789" and error is None

    def test_module_level_noop_without_injector(self):
        faults.check("anything")
        data, error = faults.mangle("anything", b"abc")
        assert data == b"abc" and error is None


class TestErrorTaxonomy:
    def test_classification(self):
        assert classify_error(ConfigError("x")) is ErrorKind.PERMANENT
        assert classify_error(ValidationError("x")) is ErrorKind.PERMANENT
        assert classify_error(PermanentError("x")) is ErrorKind.PERMANENT
        assert classify_error(TransientError("x")) is ErrorKind.TRANSIENT
        assert classify_error(RuntimeError("x")) is ErrorKind.TRANSIENT

    def test_injected_crash_is_an_exec_error(self):
        # ^C-style deaths must flow through the existing ReproError
        # handling (CLI exit 1) rather than tracebacking.
        assert isinstance(InjectedCrash("x"), ExecError)


class TestArtifactCorruption:
    def test_bitflip_detected_by_trace_checksum(self, stream_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(stream_trace, path)
        assert verify_trace_file(path) is None
        bitflip_file(path, -5)
        assert try_read_trace(path) is None
        assert "checksum" in verify_trace_file(path)

    def test_truncation_detected(self, stream_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(stream_trace, path)
        truncate_file(path, keep_fraction=0.5)
        assert try_read_trace(path) is None
        assert verify_trace_file(path) is not None

    def test_corrupt_result_entry_is_logged_miss_and_rebuilt(
            self, fresh_trace_cache, tmp_path, caplog):
        runner = GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path)
        runner.run_grid(["nw"], ["stride"])
        clear_trace_cache()

        cache = ResultCache(tmp_path / "results")
        key = sim_key("nw", "stride", 1.0, 0.02, 0, REDUCED_CONFIG)
        path = cache.path_for(key)
        document = json.loads(path.read_text())
        document["result"]["cycles"] += 1  # silent bit rot
        path.write_text(json.dumps(document))

        with caplog.at_level("WARNING", logger="repro.exec"):
            assert cache.get(key) is None
        assert "discarding unusable result-cache entry" in caplog.text
        assert not path.exists()

        # A fresh runner rebuilds the cell rather than crashing.
        rebuilt = GridRunner(budget_fraction=0.02, jobs=1,
                             cache_dir=tmp_path)
        grid = rebuilt.run_grid(["nw"], ["stride"])
        assert telemetry_module.LAST_RUN.sims_run == 1
        assert grid.get("nw", "stride").cycles > 0

    def test_stale_schema_entry_is_deleted_not_deserialized(
            self, fresh_trace_cache, tmp_path):
        runner = GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path)
        runner.run_grid(["nw"], ["stride"])
        cache = ResultCache(tmp_path / "results")
        key = sim_key("nw", "stride", 1.0, 0.02, 0, REDUCED_CONFIG)
        path = cache.path_for(key)
        document = json.loads(path.read_text())
        document["schema"] = 1  # an envelope from an older build
        path.write_text(json.dumps(document))

        assert cache.get(key) is None
        assert not path.exists()


class TestCircuitBreaker:
    PREFETCHERS = ("no-prefetch", "stride", "sms", "ghb-pc/dc")

    def test_breaker_trips_and_grid_completes_with_holes(
            self, fresh_trace_cache, tmp_path):
        broken = dict.fromkeys(
            [("nw", p) for p in self.PREFETCHERS[:3]],
            InjectSpec(mode="raise-permanent", times=10),
        )
        results, telemetry = execute_grid(
            tiny_plan(("nw", "stencil-default"), self.PREFETCHERS),
            options=ExecOptions(jobs=1, max_retries=2, retry_backoff=0.0,
                                breaker_threshold=3),
            trace_dir=tmp_path,
            inject=broken,
        )
        # The healthy workload finishes every cell.
        for prefetcher in self.PREFETCHERS:
            assert ("stencil-default", prefetcher) in results
        # The poisoned workload is fully DEGRADED: three permanent
        # quarantines trip the breaker, the fourth cell is skipped.
        assert not any(w == "nw" for w, _ in results)
        classes = [entry["class"] for entry in telemetry.quarantined
                   if entry["task"].startswith("sim:nw")]
        assert classes.count("permanent") == 3
        assert classes.count("degraded") == 1
        assert telemetry.is_degraded("nw")
        assert "nw" in telemetry.summary()["degraded_workloads"]
        assert "DEGRADED" in quarantine_report(telemetry)

    def test_permanent_failures_skip_the_retry_budget(
            self, fresh_trace_cache, tmp_path):
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=1, max_retries=5, retry_backoff=0.0),
            trace_dir=tmp_path,
            inject={("nw", "stride"):
                    InjectSpec(mode="raise-permanent", times=10)},
        )
        assert telemetry.retries == 0
        entry = next(e for e in telemetry.quarantined
                     if e["task"] == "sim:nw:stride")
        assert entry["attempts"] == 1
        assert entry["class"] == "permanent"

    def test_breaker_disabled_with_zero_threshold(self, fresh_trace_cache,
                                                  tmp_path):
        broken = dict.fromkeys(
            [("nw", p) for p in self.PREFETCHERS[:3]],
            InjectSpec(mode="raise-permanent", times=10),
        )
        results, telemetry = execute_grid(
            tiny_plan(("nw",), self.PREFETCHERS),
            options=ExecOptions(jobs=1, retry_backoff=0.0,
                                breaker_threshold=0),
            trace_dir=tmp_path,
            inject=broken,
        )
        assert not telemetry.degraded
        # Without the breaker the healthy fourth cell still runs.
        assert ("nw", self.PREFETCHERS[3]) in results

    def test_pool_path_breaker(self, fresh_trace_cache, tmp_path):
        broken = dict.fromkeys(
            [("nw", p) for p in self.PREFETCHERS[:2]],
            InjectSpec(mode="raise-permanent", times=10),
        )
        results, telemetry = execute_grid(
            tiny_plan(("nw",), self.PREFETCHERS),
            options=ExecOptions(jobs=2, retry_backoff=0.0,
                                breaker_threshold=2),
            trace_dir=tmp_path,
            inject=broken,
        )
        assert telemetry.is_degraded("nw")
        # In-flight healthy sims may still land; the breaker only stops
        # future dispatches.  Every cell is accounted for either way.
        quarantined_cells = {
            tuple(entry["task"].split(":")[1:]) for entry in
            telemetry.quarantined if entry["kind"] == "sim"
        }
        assert quarantined_cells | set(results) == {
            ("nw", p) for p in self.PREFETCHERS
        }
        classes = [entry["class"] for entry in telemetry.quarantined]
        assert classes.count("permanent") == 2


class TestDegradedSurface:
    def test_placeholder_metrics_are_nan(self):
        cell = SimResult.degraded_cell("nw", "stride")
        assert cell.degraded
        assert math.isnan(cell.ipc) and math.isnan(cell.mpki)
        with pytest.raises(ConfigError, match="DEGRADED"):
            cell.to_dict()

    def test_grid_exposes_holes_explicitly(self):
        real = SimResult(workload="nw", prefetcher="stride",
                         instructions=10, cycles=5.0)
        grid = ResultGrid([real], degraded=[("nw", "sms")])
        assert grid.has("nw", "stride")
        assert not grid.has("nw", "sms")
        assert grid.is_degraded("nw", "sms")
        assert grid.degraded_cells == [("nw", "sms")]
        assert grid.get("nw", "sms").degraded
        # Averages skip the hole instead of going NaN.
        assert grid.metric_average("stride", lambda r: r.ipc) == 2.0

    def test_degraded_renders_in_tables(self):
        text = format_table(["w", "ipc"], [["nw", float("nan")]])
        assert "DEGRADED" in text

    def test_strict_runner_raises_on_quarantine(self, fresh_trace_cache,
                                                tmp_path, monkeypatch):
        from repro.exec.scheduler import ExecOptions as Options

        runner = GridRunner(
            budget_fraction=0.02, jobs=1, cache_dir=tmp_path, strict=True,
            exec_options=Options(max_retries=0, retry_backoff=0.0,
                                 breaker_threshold=1),
        )
        # Sabotage the trace build so every dependent sim degrades.
        monkeypatch.setattr(runner_module, "build_trace", _broken_build)
        with pytest.raises(ExecError, match="quarantined"):
            runner.run_grid(["nw"], ["no-prefetch", "stride"])

    def test_lenient_runner_marks_degraded_cells(self, fresh_trace_cache,
                                                 tmp_path, monkeypatch):
        runner = GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path)
        monkeypatch.setattr(runner_module, "build_trace", _broken_build)
        grid = runner.run_grid(["nw"], ["no-prefetch", "stride"])
        assert grid.degraded_cells == [("nw", "no-prefetch"), ("nw", "stride")]
        assert math.isnan(grid.get("nw", "stride").ipc)
        assert "DEGRADED" in format_table(
            ["w", "ipc"], [["nw", grid.get("nw", "stride").ipc]])
