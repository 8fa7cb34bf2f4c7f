"""Write-ahead run journal: format, torn tails, resume, CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.common.errors import InjectedCrash, JournalError
from repro.exec import faults
from repro.exec import telemetry as telemetry_module
from repro.exec.faults import FaultSpec
from repro.exec.journal import (
    JOURNAL_SCHEMA_VERSION,
    RUNS_DIRNAME,
    RunJournal,
    list_runs,
    load_run,
    replay,
    run_fingerprint,
)
from repro.harness.export import write_json
from repro.harness.runner import GridRunner, clear_trace_cache
from repro.sim.config import REDUCED_CONFIG

WORKLOADS = ["nw"]
PREFETCHERS = ["no-prefetch", "stride"]


@pytest.fixture(autouse=True)
def _no_lingering_faults():
    faults.deactivate()
    yield
    faults.deactivate()


def grid_cells(grid):
    return {
        (w, p): grid.get(w, p).to_dict()
        for w in WORKLOADS for p in PREFETCHERS
    }


class TestJournalFormat:
    def test_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.run_started("r1", "fp", [("nw", "stride")], scale=1.0)
        journal.task_done("trace:nw", "trace")
        journal.task_done("sim:nw:stride", "sim", cell=("nw", "stride"),
                          key="k1")
        journal.run_finished("complete", cells_done=1)
        journal.close()

        state = replay(journal.path)
        assert state.run_id == "r1"
        assert state.fingerprint == "fp"
        assert state.cells == [("nw", "stride")]
        assert state.completed == {("nw", "stride"): "k1"}
        assert state.traces_done == {"nw"}
        assert state.status == "complete"
        assert state.torn_lines == 0
        assert state.params["scale"] == 1.0

    def test_quarantine_and_degradation_replay(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.run_started("r1", "fp", [("nw", "stride")])
        journal.task_quarantined("sim:nw:stride", "sim", "boom", 2,
                                 "permanent", cell=("nw", "stride"))
        journal.workload_degraded("nw", "3 sims quarantined", 3)
        journal.close()

        state = replay(journal.path)
        assert state.quarantined_cells == {("nw", "stride")}
        assert state.degraded == {"nw": "3 sims quarantined"}
        assert state.describe_status() == "interrupted"

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.run_started("r1", "fp", [])
        journal.task_done("trace:nw", "trace")
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b'deadbeef {"kind": "task-done", "tr')  # mid-write

        state = replay(journal.path)
        assert state.records == 2
        assert state.torn_lines == 1
        assert state.traces_done == {"nw"}

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no run journal"):
            replay(tmp_path / "nope.jsonl")
        with pytest.raises(JournalError, match="known runs"):
            load_run(tmp_path, "ghost")

    def test_newer_schema_rejected(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append("run-started", schema=JOURNAL_SCHEMA_VERSION + 1,
                       run_id="r1", fingerprint="fp", cells=[])
        journal.close()
        with pytest.raises(JournalError, match="newer"):
            replay(journal.path)

    def test_injected_torn_write_never_journals_the_record(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.run_started("r1", "fp", [])
        faults.install(FaultSpec(site="journal.append", kind="torn"))
        with pytest.raises(InjectedCrash):
            journal.task_done("sim:nw:stride", "sim", cell=("nw", "stride"),
                              key="k1")
        faults.deactivate()

        state = replay(journal.path)
        # The torn record must not be trusted: only run-started survives.
        assert state.records == 1
        assert state.torn_lines == 1
        assert not state.completed

    def test_fingerprint_covers_every_input(self):
        base = run_fingerprint([("nw", "stride")], 1.0, 0.02, 0,
                               REDUCED_CONFIG)
        assert base == run_fingerprint([("nw", "stride")], 1.0, 0.02, 0,
                                       REDUCED_CONFIG)
        assert base != run_fingerprint([("nw", "stride")], 1.0, 0.03, 0,
                                       REDUCED_CONFIG)
        assert base != run_fingerprint([("nw", "sms")], 1.0, 0.02, 0,
                                       REDUCED_CONFIG)


class TestResume:
    def _reference(self, tmp_path):
        ref = GridRunner(budget_fraction=0.02, jobs=1,
                         cache_dir=tmp_path / "ref", run_id="ref")
        grid = ref.run_grid(WORKLOADS, PREFETCHERS)
        clear_trace_cache()
        return grid

    def _crash_first_run(self, cache_dir):
        """Run the grid, dying right after the first completed sim."""
        faults.install(FaultSpec(site="task-done", kind="crash", at=1))
        runner = GridRunner(budget_fraction=0.02, jobs=1,
                            cache_dir=cache_dir, run_id="r1")
        with pytest.raises(InjectedCrash):
            runner.run_grid(WORKLOADS, PREFETCHERS)
        faults.deactivate()
        clear_trace_cache()

    def test_killed_run_resumes_byte_identical(self, fresh_trace_cache,
                                               tmp_path):
        reference = self._reference(tmp_path)
        cache_dir = tmp_path / "crash"
        self._crash_first_run(cache_dir)

        state = load_run(cache_dir / RUNS_DIRNAME, "r1")
        assert state.describe_status() == "interrupted"
        assert len(state.completed) == 1

        resumed = GridRunner(budget_fraction=0.02, jobs=1,
                             cache_dir=cache_dir, resume="r1")
        grid = resumed.run_grid(WORKLOADS, PREFETCHERS)
        telemetry = telemetry_module.LAST_RUN
        assert telemetry.resumed_cells == 1
        assert telemetry.sims_run == 1  # only the remainder re-executed
        assert grid_cells(grid) == grid_cells(reference)

        # The exported report is byte-identical to the uninterrupted run.
        ref_json = tmp_path / "ref.json"
        res_json = tmp_path / "res.json"
        write_json(reference, ref_json, budget_fraction=0.02)
        write_json(grid, res_json, budget_fraction=0.02)
        assert ref_json.read_bytes() == res_json.read_bytes()

        state = load_run(cache_dir / RUNS_DIRNAME, "r1")
        assert state.status == "complete"
        assert state.resumes == 1

    def test_resume_with_evicted_cache_entry_reexecutes(
            self, fresh_trace_cache, tmp_path):
        reference = self._reference(tmp_path)
        cache_dir = tmp_path / "crash"
        self._crash_first_run(cache_dir)

        # Lose the cached artifact behind the journaled-complete cell:
        # resume must demote it to a rebuild, not trust a phantom.
        for entry in (cache_dir / "results").glob("*/*.json"):
            entry.unlink()
        resumed = GridRunner(budget_fraction=0.02, jobs=1,
                             cache_dir=cache_dir, resume="r1")
        grid = resumed.run_grid(WORKLOADS, PREFETCHERS)
        telemetry = telemetry_module.LAST_RUN
        assert telemetry.resumed_cells == 0
        assert telemetry.sims_run == 2
        assert grid_cells(grid) == grid_cells(reference)

    def test_fingerprint_mismatch_refused(self, fresh_trace_cache, tmp_path):
        cache_dir = tmp_path / "crash"
        self._crash_first_run(cache_dir)
        other = GridRunner(budget_fraction=0.03, jobs=1,
                           cache_dir=cache_dir, resume="r1")
        with pytest.raises(JournalError, match="different grid"):
            other.run_grid(WORKLOADS, PREFETCHERS)

    def test_resume_needs_a_cache_dir(self, fresh_trace_cache, tmp_path):
        from repro.common.errors import ExecError

        runner = GridRunner(budget_fraction=0.02, jobs=2, resume="r1",
                            result_cache=False)
        with pytest.raises(ExecError, match="cache directory"):
            runner.run_grid(WORKLOADS, PREFETCHERS)

    def test_list_runs_summarizes(self, fresh_trace_cache, tmp_path):
        runner = GridRunner(budget_fraction=0.02, jobs=1,
                            cache_dir=tmp_path, run_id="listed")
        runner.run_grid(WORKLOADS, PREFETCHERS)
        summaries = list_runs(tmp_path / RUNS_DIRNAME)
        assert [s.run_id for s in summaries] == ["listed"]
        assert summaries[0].status == "complete"
        assert summaries[0].cells_done == 2
        assert summaries[0].cells_total == 2

    def test_list_runs_skips_corrupt_and_empty_dirs(self, fresh_trace_cache,
                                                    tmp_path):
        runner = GridRunner(budget_fraction=0.02, jobs=1,
                            cache_dir=tmp_path, run_id="good")
        runner.run_grid(WORKLOADS, PREFETCHERS)
        runs_root = tmp_path / RUNS_DIRNAME
        # A directory with no journal at all.
        (runs_root / "empty-dir").mkdir()
        # A directory whose journal is wholly corrupt.
        corrupt = runs_root / "corrupt"
        corrupt.mkdir()
        (corrupt / "journal.jsonl").write_text("not a journal line\n")
        # A zero-byte journal.
        hollow = runs_root / "hollow"
        hollow.mkdir()
        (hollow / "journal.jsonl").write_text("")
        # A stray file (not a run directory) next to them.
        (runs_root / "stray.txt").write_text("noise")

        skipped = []
        summaries = list_runs(
            runs_root, on_skip=lambda run, why: skipped.append((run, why)))
        assert [s.run_id for s in summaries] == ["good"]
        assert sorted(run for run, _ in skipped) == [
            "corrupt", "empty-dir", "hollow"]
        reasons = dict(skipped)
        assert "no journal" in reasons["empty-dir"]
        assert "empty or wholly corrupt" in reasons["corrupt"]
        assert "empty or wholly corrupt" in reasons["hollow"]

    def test_list_runs_sorts_newest_first(self, fresh_trace_cache,
                                          tmp_path):
        for run_id in ("first", "second"):
            GridRunner(budget_fraction=0.02, jobs=1, cache_dir=tmp_path,
                       run_id=run_id).run_grid(WORKLOADS, PREFETCHERS)
        summaries = list_runs(tmp_path / RUNS_DIRNAME)
        starts = [s.started_at for s in summaries]
        assert starts == sorted(starts, reverse=True)


class TestCli:
    def _run(self, tmp_path, *extra):
        return main([
            "run", "--workload", "nw", "--prefetcher", "stride",
            "--budget-fraction", "0.02", "--jobs", "1",
            "--cache-dir", str(tmp_path), *extra,
        ])

    def test_runs_list(self, fresh_trace_cache, tmp_path, capsys):
        assert self._run(tmp_path, "--run-id", "cli-run") == 0
        capsys.readouterr()
        assert main(["runs", "list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-run" in out
        assert "complete" in out

    def test_runs_list_empty(self, tmp_path, capsys):
        assert main(["runs", "list", "--cache-dir", str(tmp_path)]) == 0
        assert "no journaled runs" in capsys.readouterr().out

    def test_resume_flag_round_trips(self, fresh_trace_cache, tmp_path,
                                     capsys):
        assert self._run(tmp_path, "--run-id", "cli-run") == 0
        clear_trace_cache()
        assert self._run(tmp_path, "--resume", "cli-run") == 0
        out = capsys.readouterr().out
        assert "stride" in out
        assert telemetry_module.LAST_RUN.resumed_cells == 1

    def test_unknown_resume_fails_alike_at_any_job_count(
            self, fresh_trace_cache, tmp_path, capsys):
        outcomes = []
        for flags in (["--jobs", "1", "--no-result-cache"], ["--jobs", "2"]):
            code = main([
                "run", "--workload", "nw", "--prefetcher", "stride",
                "--budget-fraction", "0.02", "--cache-dir", str(tmp_path),
                "--resume", "no-such-run", *flags,
            ])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        code, err = outcomes[0]
        assert code == 1
        assert "no-such-run" in err

    def test_verify_artifacts_clean(self, fresh_trace_cache, tmp_path,
                                    capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        assert main(["verify-artifacts", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 corrupt" in out

    def test_verify_artifacts_flags_and_purges(self, fresh_trace_cache,
                                               tmp_path, capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        trace_files = sorted(tmp_path.glob("*.trace"))
        assert trace_files
        faults.bitflip_file(trace_files[0], -3)
        result_files = sorted((tmp_path / "results").glob("*/*.json"))
        assert result_files
        document = json.loads(result_files[0].read_text())
        document["result"]["instructions"] += 1  # silent data corruption
        result_files[0].write_text(json.dumps(document))

        assert main(["verify-artifacts", "--cache-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "checksum" in err

        assert main(["verify-artifacts", "--cache-dir", str(tmp_path),
                     "--purge"]) == 0
        capsys.readouterr()
        assert not trace_files[0].exists()
        assert not result_files[0].exists()
        # After the purge everything left verifies.
        assert main(["verify-artifacts", "--cache-dir", str(tmp_path)]) == 0


class TestCliCrashResume:
    """End-to-end: a subprocess killed mid-grid resumes bit-identically."""

    def _invoke(self, tmp_path, cache_dir, json_out, run_args, env_faults):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src,
               "REPRO_CACHE_DIR": str(cache_dir)}
        env.pop("REPRO_FAULTS", None)
        if env_faults:
            env["REPRO_FAULTS"] = env_faults
        return subprocess.run(
            [sys.executable, "-m", "repro", "run",
             "--workload", "nw", "--prefetcher", "all",
             "--budget-fraction", "0.02", "--jobs", "1",
             "--json", str(json_out), *run_args],
            env=env, capture_output=True, text=True,
        )

    def test_exit_injection_then_resume(self, tmp_path):
        reference = self._invoke(tmp_path, tmp_path / "ref",
                                 tmp_path / "ref.json", ["--run-id", "ref"],
                                 None)
        assert reference.returncode == 0, reference.stderr

        # Kill the process for real after the third completed task.
        killed = self._invoke(tmp_path, tmp_path / "smoke",
                              tmp_path / "killed.json",
                              ["--run-id", "smoke"], "task-done:exit@3")
        assert killed.returncode == faults.EXIT_CODE

        resumed = self._invoke(tmp_path, tmp_path / "smoke",
                               tmp_path / "smoke.json",
                               ["--resume", "smoke"], None)
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "ref.json").read_bytes() == \
            (tmp_path / "smoke.json").read_bytes()
