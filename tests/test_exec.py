"""Tests for repro.exec: keys, cache, plan, scheduler, runner wiring."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import _runner, build_parser, main
from repro.common.errors import ExecError
from repro.exec import (
    ExecOptions,
    GridPlan,
    InjectSpec,
    ResultCache,
    stable_hash,
    trace_filename,
)
from repro.exec import telemetry as telemetry_module
from repro.exec.keys import canonicalize, sim_key
from repro.exec.scheduler import execute_grid
from repro.exec.telemetry import ExecTelemetry, PROCESS_COUNTERS, load_stats
from repro.harness import runner as runner_module
from repro.harness.report import format_exec_stats
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.sim.config import PAPER_CONFIG, REDUCED_CONFIG

WORKLOADS = ["nw", "stencil-default"]
PREFETCHERS = ["no-prefetch", "stride"]

# The acceptance grid: 4 workloads x 3 prefetchers.
IDENTITY_WORKLOADS = ["nw", "stencil-default", "histo-large", "fft-simlarge"]
IDENTITY_PREFETCHERS = ["no-prefetch", "stride", "sms"]


def tiny_plan(workloads=("nw",), prefetchers=("no-prefetch", "stride")):
    return GridPlan.from_grid(
        list(workloads), list(prefetchers),
        scale=1.0, budget_fraction=0.02, seed=0, config=REDUCED_CONFIG,
    )


def grid_cells(grid, workloads=WORKLOADS, prefetchers=PREFETCHERS):
    return {
        (w, p): grid.get(w, p).to_dict()
        for w in workloads for p in prefetchers
    }


class TestKeys:
    def test_equal_inputs_equal_keys(self):
        assert stable_hash("a", 1, 0.3) == stable_hash("a", 1, 0.3)

    def test_float_precision_never_collides(self):
        # 0.1 + 0.2 != 0.3 exactly; the keys must reflect that.
        assert stable_hash(0.1 + 0.2) != stable_hash(0.3)
        # int 1 and float 1.0 compare equal but are distinct inputs.
        assert stable_hash(1) != stable_hash(1.0)

    def test_canonicalize_rejects_unkeyable_values(self):
        with pytest.raises(TypeError, match="stable key"):
            canonicalize(object())

    def test_trace_filename_stable_and_distinct(self):
        first = trace_filename("nw", 1.0, 0.1 + 0.2, 0)
        again = trace_filename("nw", 1.0, 0.1 + 0.2, 0)
        other = trace_filename("nw", 1.0, 0.3, 0)
        assert first == again
        assert first != other
        # No raw float repr may leak into the name.
        assert "0.30000000000000004" not in first
        assert first.startswith("nw-") and first.endswith(".trace")

    def test_sim_key_covers_config(self):
        reduced = sim_key("nw", "stride", 1.0, 0.3, 0, REDUCED_CONFIG)
        paper = sim_key("nw", "stride", 1.0, 0.3, 0, PAPER_CONFIG)
        assert reduced != paper

    def test_sim_key_stable_across_processes(self):
        local = sim_key("nw", "stride", 1.0, 0.3, 0, REDUCED_CONFIG)
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from repro.exec.keys import sim_key\n"
            "from repro.sim.config import REDUCED_CONFIG\n"
            "print(sim_key('nw', 'stride', 1.0, 0.3, 0, REDUCED_CONFIG))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == local


class TestResultCache:
    def test_round_trip(self, tiny_runner, tmp_path):
        result = tiny_runner.run_one("nw", "stride")
        cache = ResultCache(tmp_path)
        key = sim_key("nw", "stride", 1.0, 0.05, 0, REDUCED_CONFIG)
        assert cache.get(key) is None
        cache.put(key, result)
        assert cache.contains(key)
        assert cache.get(key).to_dict() == result.to_dict()
        assert len(cache) == 1

    def test_corrupt_entry_is_miss_and_deleted(self, tiny_runner, tmp_path):
        cache = ResultCache(tmp_path)
        key = sim_key("nw", "stride", 1.0, 0.05, 0, REDUCED_CONFIG)
        cache.put(key, tiny_runner.run_one("nw", "stride"))
        cache.path_for(key).write_text("{ not json")
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_schema_mismatch_is_miss(self, tiny_runner, tmp_path):
        cache = ResultCache(tmp_path)
        key = sim_key("nw", "stride", 1.0, 0.05, 0, REDUCED_CONFIG)
        cache.put(key, tiny_runner.run_one("nw", "stride"))
        document = json.loads(cache.path_for(key).read_text())
        document["result"]["schema"] = 999
        cache.path_for(key).write_text(json.dumps(document))
        assert cache.get(key) is None

    def test_clear(self, tiny_runner, tmp_path):
        cache = ResultCache(tmp_path)
        key = sim_key("nw", "stride", 1.0, 0.05, 0, REDUCED_CONFIG)
        cache.put(key, tiny_runner.run_one("nw", "stride"))
        cache.clear()
        assert len(cache) == 0


class TestGridPlan:
    def test_one_trace_node_per_workload(self):
        plan = tiny_plan(WORKLOADS, PREFETCHERS)
        assert sorted(plan.trace_nodes) == sorted(WORKLOADS)
        assert len(plan) == 4

    def test_sim_nodes_preserve_grid_order(self):
        plan = tiny_plan(WORKLOADS, PREFETCHERS)
        cells = [node.cell for node in plan.sim_nodes]
        assert cells == [(w, p) for w in WORKLOADS for p in PREFETCHERS]

    def test_dependents(self):
        plan = tiny_plan(WORKLOADS, PREFETCHERS)
        fanout = plan.dependents("nw")
        assert [node.prefetcher for node in fanout] == PREFETCHERS
        assert all(node.workload == "nw" for node in fanout)


class TestExecuteGrid:
    def test_parallel_matches_serial(self, fresh_trace_cache, tmp_path):
        plan = tiny_plan()
        serial, _ = execute_grid(
            plan, options=ExecOptions(jobs=1), trace_dir=tmp_path / "s")
        parallel, telemetry = execute_grid(
            plan, options=ExecOptions(jobs=2), trace_dir=tmp_path / "p")
        assert serial.keys() == parallel.keys()
        for cell, result in serial.items():
            assert parallel[cell].to_dict() == result.to_dict()
        assert telemetry.sims_run == 2
        assert telemetry.jobs == 2

    def test_retry_then_success(self, fresh_trace_cache, tmp_path):
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=1, max_retries=2, retry_backoff=0.0),
            trace_dir=tmp_path,
            inject={("nw", "stride"): InjectSpec(mode="raise", times=1)},
        )
        assert len(results) == 2
        assert telemetry.retries == 1
        assert not telemetry.quarantined

    def test_retry_exhaustion_quarantines(self, fresh_trace_cache, tmp_path):
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=1, max_retries=1, retry_backoff=0.0),
            trace_dir=tmp_path,
            inject={("nw", "stride"): InjectSpec(mode="raise", times=10)},
        )
        assert ("nw", "stride") not in results
        assert ("nw", "no-prefetch") in results
        names = [entry["task"] for entry in telemetry.quarantined]
        assert names == ["sim:nw:stride"]
        assert telemetry.quarantined[0]["attempts"] == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trace_failure_quarantines_dependents(self, fresh_trace_cache,
                                                  tmp_path, monkeypatch,
                                                  jobs):
        def broken_build(spec, **_):
            raise ExecError(f"no trace for {spec.name}")

        monkeypatch.setattr(runner_module, "build_trace", broken_build)
        options = ExecOptions(jobs=jobs, retry_backoff=0.0)
        results, telemetry = execute_grid(
            tiny_plan(), options=options, trace_dir=tmp_path)
        assert not results
        names = sorted(entry["task"] for entry in telemetry.quarantined)
        assert names == ["sim:nw:no-prefetch", "sim:nw:stride", "trace:nw"]
        # Both job counts share one retry policy for trace builds.
        trace_entry = next(entry for entry in telemetry.quarantined
                           if entry["task"] == "trace:nw")
        assert trace_entry["attempts"] == 1 + options.max_retries

    def test_worker_crash_quarantines_only_guilty(self, fresh_trace_cache,
                                                  tmp_path):
        # One cell crashes its worker on every attempt.  The pool break
        # kills the innocent neighbour's future too, but the serial
        # probe must re-run it uncharged and quarantine only the
        # repeat offender.
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=2, max_retries=1, retry_backoff=0.0),
            trace_dir=tmp_path,
            inject={("nw", "stride"): InjectSpec(mode="crash", times=10)},
        )
        names = [entry["task"] for entry in telemetry.quarantined]
        assert names == ["sim:nw:stride"]
        assert ("nw", "no-prefetch") in results
        assert telemetry.worker_crashes >= 1

    def test_hung_task_times_out(self, fresh_trace_cache, tmp_path):
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=2, max_retries=0, timeout=1.5,
                                retry_backoff=0.0),
            trace_dir=tmp_path,
            inject={("nw", "stride"): InjectSpec(mode="hang",
                                                 hang_seconds=30.0,
                                                 times=10)},
        )
        assert telemetry.timeouts >= 1
        names = [entry["task"] for entry in telemetry.quarantined]
        assert names == ["sim:nw:stride"]
        assert ("nw", "no-prefetch") in results

    def test_timeout_ignores_queue_time(self, fresh_trace_cache, tmp_path):
        # Six slow but healthy cells on two workers: each runs well inside
        # the timeout, but the later ones wait behind the earlier ones.
        # Only time spent running counts against the timeout.
        prefetchers = ("no-prefetch", "stride", "sms", "ghb-pc/dc",
                       "ghb-g/dc", "ampm")
        slow = InjectSpec(mode="hang", times=1, hang_seconds=0.6)
        results, telemetry = execute_grid(
            tiny_plan(("nw",), prefetchers),
            options=ExecOptions(jobs=2, timeout=1.0, max_retries=0,
                                retry_backoff=0.0),
            trace_dir=tmp_path,
            inject=dict.fromkeys([("nw", p) for p in prefetchers], slow),
        )
        assert telemetry.timeouts == 0
        assert not telemetry.quarantined
        assert not telemetry.degraded
        assert set(results) == {("nw", p) for p in prefetchers}

    def test_in_process_hang_is_ignored(self, fresh_trace_cache, tmp_path):
        started = time.monotonic()
        results, telemetry = execute_grid(
            tiny_plan(),
            options=ExecOptions(jobs=1, timeout=1.0, retry_backoff=0.0),
            trace_dir=tmp_path,
            inject={("nw", "stride"): InjectSpec(mode="hang",
                                                 hang_seconds=30.0)},
        )
        assert time.monotonic() - started < 15.0
        assert len(results) == 2
        assert telemetry.timeouts == 0
        assert not telemetry.quarantined

    def test_in_process_progress_is_grouped_by_workload(
            self, fresh_trace_cache, tmp_path):
        delivered = []
        execute_grid(
            tiny_plan(WORKLOADS, PREFETCHERS),
            options=ExecOptions(jobs=1),
            trace_dir=tmp_path,
            progress=lambda workload, prefetcher: delivered.append(
                (workload, prefetcher)),
        )
        assert delivered == [(w, p) for w in WORKLOADS for p in PREFETCHERS]

    def test_cache_replay_runs_zero_sims(self, fresh_trace_cache, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cold_results, cold = execute_grid(
            tiny_plan(), options=ExecOptions(jobs=1), cache=cache,
            trace_dir=tmp_path)
        warm_results, warm = execute_grid(
            tiny_plan(), options=ExecOptions(jobs=1), cache=cache,
            trace_dir=tmp_path)
        assert cold.sims_run == 2 and cold.cache_hits == 0
        assert warm.sims_run == 0 and warm.cache_hits == 2
        for cell, result in cold_results.items():
            assert warm_results[cell].to_dict() == result.to_dict()

    def test_stats_persist_and_render(self, fresh_trace_cache, tmp_path):
        stats_path = tmp_path / "exec-stats.json"
        execute_grid(tiny_plan(), options=ExecOptions(jobs=1),
                     trace_dir=tmp_path, stats_path=stats_path)
        document = load_stats(stats_path)
        assert document["summary"]["sims_run"] == 2
        rendered = format_exec_stats(document["summary"])
        assert "simulations run" in rendered
        assert telemetry_module.LAST_RUN is not None


class TestTelemetry:
    def test_counters_balance(self):
        telemetry = ExecTelemetry()
        telemetry.task_queued(3)
        telemetry.task_started()
        telemetry.task_finished("t", "sim", 0.1, 1)
        assert telemetry.tasks_done == 1
        assert telemetry.tasks_pending == 2
        assert telemetry.mean_task_seconds() == pytest.approx(0.1)
        assert telemetry.eta_seconds() == pytest.approx(0.2)

    def test_summary_includes_quarantined_tasks(self):
        telemetry = ExecTelemetry()
        telemetry.quarantine("sim:a:b", "sim", "boom", 3)
        summary = telemetry.summary()
        assert summary["quarantined"] == 1
        assert summary["quarantined_tasks"] == ["sim:a:b"]
        assert "sim:a:b" in format_exec_stats(summary)


class TestRunnerWiring:
    def test_memory_cache_is_bounded(self, fresh_trace_cache):
        class TinyTrace:
            events = [None]

        capacity = runner_module._TRACE_CACHE_CAPACITY
        keys = [runner_module.trace_key("w", float(index), 1.0, 0)
                for index in range(capacity + 4)]
        for key in keys:
            runner_module._remember_trace(key, TinyTrace())
        assert len(runner_module._TRACE_CACHE) == capacity
        # Oldest entries were evicted, newest kept.
        assert keys[0] not in runner_module._TRACE_CACHE
        assert keys[-1] in runner_module._TRACE_CACHE

    def test_disk_path_is_stable_and_distinct(self, tmp_path):
        first = GridRunner(budget_fraction=0.1 + 0.2, cache_dir=tmp_path)
        again = GridRunner(budget_fraction=0.1 + 0.2, cache_dir=tmp_path)
        other = GridRunner(budget_fraction=0.3, cache_dir=tmp_path)
        assert first._disk_path("nw") == again._disk_path("nw")
        assert first._disk_path("nw") != other._disk_path("nw")
        assert "0.30000000000000004" not in first._disk_path("nw").name

    def test_corrupt_disk_trace_is_rebuilt(self, fresh_trace_cache, tmp_path):
        runner = GridRunner(budget_fraction=0.02, cache_dir=tmp_path)
        original = runner.trace("nw")
        path = runner._disk_path("nw")
        assert path.exists()
        path.write_bytes(b"not a trace")
        clear_trace_cache()
        before = PROCESS_COUNTERS["corrupt_traces"]
        rebuilt = GridRunner(budget_fraction=0.02,
                             cache_dir=tmp_path).trace("nw")
        assert PROCESS_COUNTERS["corrupt_traces"] == before + 1
        assert rebuilt.events == original.events
        # The rebuilt trace was re-persisted and now loads cleanly.
        clear_trace_cache()
        reloaded = GridRunner(budget_fraction=0.02,
                              cache_dir=tmp_path).trace("nw")
        assert reloaded.events == original.events

    def test_exec_path_matches_legacy_grid(self, fresh_trace_cache, tmp_path):
        legacy = GridRunner(budget_fraction=0.02).run_grid(
            WORKLOADS, PREFETCHERS)
        clear_trace_cache()
        executed = GridRunner(
            budget_fraction=0.02, jobs=1, cache_dir=tmp_path,
        ).run_grid(WORKLOADS, PREFETCHERS)
        assert grid_cells(executed) == grid_cells(legacy)

    def test_parallel_grid_identical_to_serial_4x3(self, fresh_trace_cache,
                                                   tmp_path):
        serial = GridRunner(budget_fraction=0.02).run_grid(
            IDENTITY_WORKLOADS, IDENTITY_PREFETCHERS)
        clear_trace_cache()
        parallel = GridRunner(
            budget_fraction=0.02, jobs=2, cache_dir=tmp_path / "par",
        ).run_grid(IDENTITY_WORKLOADS, IDENTITY_PREFETCHERS)
        for workload in IDENTITY_WORKLOADS:
            for prefetcher in IDENTITY_PREFETCHERS:
                expected = serial.get(workload, prefetcher)
                actual = parallel.get(workload, prefetcher)
                assert actual.mpki == expected.mpki
                assert actual.ipc == expected.ipc
                assert actual.to_dict() == expected.to_dict()

    def test_result_cache_replay_across_runners(self, fresh_trace_cache,
                                                tmp_path):
        cold = GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path)
        cold_grid = cold.run_grid(["nw"], PREFETCHERS)
        clear_trace_cache()
        warm = GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path)
        warm_grid = warm.run_grid(["nw"], PREFETCHERS)
        telemetry = telemetry_module.LAST_RUN
        assert telemetry.sims_run == 0
        assert telemetry.cache_hits == len(PREFETCHERS)
        assert (grid_cells(warm_grid, ["nw"], PREFETCHERS)
                == grid_cells(cold_grid, ["nw"], PREFETCHERS))
        assert (tmp_path / "exec-stats.json").exists()

    def test_figure14_warm_rerun_runs_zero_sims(self, fresh_trace_cache,
                                                tmp_path):
        from repro.harness import experiments

        cold_runner = GridRunner(budget_fraction=0.02, jobs=1,
                                 cache_dir=tmp_path)
        cold = experiments.figure14(cold_runner)
        cold_stats = telemetry_module.LAST_RUN
        assert cold_stats.sims_run > 0
        clear_trace_cache()
        warm_runner = GridRunner(budget_fraction=0.02, jobs=1,
                                 cache_dir=tmp_path)
        warm = experiments.figure14(warm_runner)
        warm_stats = telemetry_module.LAST_RUN
        assert warm_stats.sims_run == 0
        assert warm_stats.cache_hits == cold_stats.sims_run
        assert warm.render() == cold.render()

    def test_no_result_cache_runs_through_scheduler(self, fresh_trace_cache):
        telemetry_module.LAST_RUN = None
        grid = GridRunner(budget_fraction=0.02).run_grid(["nw"], ["stride"])
        assert grid.get("nw", "stride").prefetcher == "stride"
        # jobs=1 with no cache runs the same executor as every grid.
        telemetry = telemetry_module.LAST_RUN
        assert telemetry is not None
        assert telemetry.jobs == 1 and telemetry.sims_run == 1


class TestCliExec:
    def test_runner_flag_plumbing(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args([
            "run", "--workload", "nw", "--prefetcher", "stride",
            "--jobs", "3", "--cache-dir", str(tmp_path),
            "--no-result-cache",
        ])
        runner = _runner(args)
        assert runner.jobs == 3
        assert runner.cache_dir == tmp_path
        assert runner._result_cache_root is None

    def test_default_jobs_uses_all_cores(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args([
            "run", "--workload", "nw", "--prefetcher", "stride",
            "--cache-dir", str(tmp_path),
        ])
        runner = _runner(args)
        assert runner.jobs is None
        assert runner._result_cache_root == tmp_path / "results"

    def test_exec_stats_command(self, fresh_trace_cache, tmp_path, capsys):
        GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path).run_grid(
            ["nw"], ["stride"])
        assert main(["exec-stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Grid execution statistics" in out
        assert "simulations run" in out

    def test_exec_stats_without_run_fails_cleanly(self, tmp_path, capsys):
        code = main(["exec-stats", "--cache-dir", str(tmp_path / "empty")])
        assert code == 1
        assert "no recorded execution statistics" in capsys.readouterr().err


class TestWorkerTraceCacheBytes:
    """The trace LRU is bounded by estimated total bytes."""

    def _fake_trace(self, events: int):
        # trace_nbytes only looks at len(trace.events); a stand-in with
        # that shape keeps these tests free of real trace construction.
        class FakeTrace:
            def __init__(self, count):
                self.events = [None] * count

        return FakeTrace(events)

    def test_byte_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_TRACE_CACHE_MAX_BYTES", 100_000)
        monkeypatch.setattr(runner_module, "_TRACE_CACHE",
                            runner_module.OrderedDict())
        # Each ~33 KB trace fits; a fourth pushes the total over 100 KB.
        trace = self._fake_trace(events=200)
        assert 30_000 < runner_module.trace_nbytes(trace) < 40_000
        for index in range(4):
            runner_module._remember_trace(f"t{index}",
                                          self._fake_trace(events=200))
        assert "t0" not in runner_module._TRACE_CACHE
        assert "t3" in runner_module._TRACE_CACHE
        total = sum(runner_module.trace_nbytes(t)
                    for t in runner_module._TRACE_CACHE.values())
        assert total <= 100_000

    def test_single_oversized_trace_is_retained(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_TRACE_CACHE_MAX_BYTES", 1_000)
        monkeypatch.setattr(runner_module, "_TRACE_CACHE",
                            runner_module.OrderedDict())
        runner_module._remember_trace("big", self._fake_trace(events=10_000))
        # Over budget, but the most recent entry always survives so
        # repeated sims of one oversized workload still hit the cache.
        assert "big" in runner_module._TRACE_CACHE
        runner_module._remember_trace("bigger",
                                      self._fake_trace(events=20_000))
        assert "big" not in runner_module._TRACE_CACHE
        assert "bigger" in runner_module._TRACE_CACHE

    def test_count_bound_still_applies(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_TRACE_CACHE",
                            runner_module.OrderedDict())
        capacity = runner_module._TRACE_CACHE_CAPACITY
        for index in range(capacity + 2):
            runner_module._remember_trace(f"t{index}",
                                          self._fake_trace(events=1))
        assert len(runner_module._TRACE_CACHE) == capacity
        # Oldest entries were evicted, newest kept.
        assert "t0" not in runner_module._TRACE_CACHE
        assert f"t{capacity + 1}" in runner_module._TRACE_CACHE


class TestSingleFlight:
    def test_leader_then_followers(self):
        from repro.exec import SingleFlight

        flight = SingleFlight()
        work, is_leader = flight.lease("k", lambda: "payload")
        assert is_leader and work == "payload"
        again, still_leader = flight.lease("k", lambda: "other")
        assert not still_leader and again == "payload"
        assert flight.hits == 1 and flight.leaders == 1
        assert flight.peek("k") == "payload"

    def test_release_allows_fresh_lease(self):
        from repro.exec import SingleFlight

        flight = SingleFlight()
        flight.lease("k", lambda: "first")
        flight.release("k")
        assert flight.peek("k") is None
        work, is_leader = flight.lease("k", lambda: "second")
        assert is_leader and work == "second"
        assert flight.leaders == 2

    def test_release_unknown_key_is_noop(self):
        from repro.exec import SingleFlight

        flight = SingleFlight()
        flight.release("never-leased")
        assert len(flight) == 0


class TestSharedPool:
    def test_execute_grid_reuses_borrowed_pool(self, tmp_path):
        from repro.exec.pool import WorkerPool

        pool = WorkerPool(2)
        try:
            plan = tiny_plan()
            first, _ = execute_grid(plan, options=ExecOptions(jobs=2),
                                    trace_dir=tmp_path, pool=pool)
            second, _ = execute_grid(plan, options=ExecOptions(jobs=2),
                                     trace_dir=tmp_path, pool=pool)
            assert first.keys() == second.keys()
            for cell in first:
                assert first[cell].to_dict() == second[cell].to_dict()
        finally:
            pool.shutdown()
        # The borrowed pool survived both runs; shutdown was ours alone.
