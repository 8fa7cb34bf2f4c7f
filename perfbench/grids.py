"""The grid workloads: ``fig14-grid`` and ``related-grid``.

Both drive :meth:`repro.harness.runner.GridRunner.run_grid` in-process
(``jobs=1``) against a fresh trace store and result cache (the cold
pass), then replay the same grid from the result cache (warm passes)
until ``--seconds`` have passed since the cold pass began, and at least
``MIN_WARM_REPLAYS`` times.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench import common
from perfbench.tracing import Tracer, install_layers

#: Budget fraction and scale of ``repro bench``'s full grid.
BUDGET_FRACTION = 0.25
SCALE = 1.0
#: Warm replays per run at least, however long the cold pass took.
MIN_WARM_REPLAYS = 10
#: Set-up repetitions before and after the measured window; the
#: reported set-up time is the median of all of them.  Sampling at both
#: ends spans more of the host's slow speed swings than one burst.
SETUP_BEFORE, SETUP_AFTER = 4, 3

#: The related-work prefetchers: everything evaluated except CBWS.
RELATED_PREFETCHERS = ("no-prefetch", "stride", "ghb-pc/dc", "ghb-g/dc",
                       "sms", "ampm", "markov", "pangloss", "pythia")


@dataclass(frozen=True)
class GridSpec:
    name: str
    workloads: tuple[str, ...]
    prefetchers: tuple[str, ...]
    #: Spans the workload must never enter: the mechanism it bypasses.
    bypasses: tuple[str, ...]


def grid_spec(name: str) -> GridSpec:
    from repro.harness.registry import PAPER_PREFETCHER_ORDER
    from repro.workloads import ALL_WORKLOADS

    if name == "fig14-grid":
        # 7 lanes per trace stay below the batch tier's threshold of 8.
        return GridSpec(name, tuple(ALL_WORKLOADS),
                        tuple(PAPER_PREFETCHER_ORDER),
                        bypasses=("sim.batch_run",))
    if name == "related-grid":
        # All 30 workloads, not only the memory-intensive group: a pass
        # then lasts about as long as fig14-grid's, which averages out
        # more of the host's speed swings (the MI group alone, 12 s a
        # pass, spread 28% over ten runs).
        return GridSpec(name, tuple(ALL_WORKLOADS), RELATED_PREFETCHERS,
                        bypasses=("core.cbws.access", "core.cbws.block_end",
                                  "core.cbws.block_begin"))
    raise KeyError(name)


def _runner(seed: int, cache_dir: Path):
    """An in-process runner with the default engine tier selection."""
    from repro.harness.runner import GridRunner
    from repro.sim.config import REDUCED_CONFIG

    return GridRunner(config=REDUCED_CONFIG, scale=SCALE,
                      budget_fraction=BUDGET_FRACTION, seed=seed,
                      cache_dir=cache_dir, jobs=1)


#: What a fresh ``repro`` process does before its first grid cell.
_SETUP_SCRIPT = """
import sys, tempfile
sys.path.insert(0, {src!r})
from repro.exec.cache import ResultCache
from repro.harness.runner import GridRunner
import repro.exec.scheduler, repro.sim.batch, repro.harness.registry
root = tempfile.mkdtemp(prefix="setup-", dir={work!r})
GridRunner(cache_dir=root, jobs=1)
ResultCache(root + "/results")
"""


def measure_setup(work: Path, count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters reaching a ready runner."""
    script = _SETUP_SCRIPT.format(src=str(common.SRC), work=str(work))
    return [common.timed_subprocess([sys.executable, "-c", script])
            for _ in range(count)]


class GridCheck:
    """Counts attempted and failed cell checks for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def compare(self, label: str, grid: Any, expected: dict[str, str],
                cells: list[tuple[str, str]]) -> dict[str, str]:
        """Check one pass; returns its digests by ``workload|prefetcher``.

        Every cell is one attempted operation.  A missing or DEGRADED
        cell, a broken invariant or a digest that differs from
        ``expected`` (when it names the cell) is one failed operation.
        """
        from repro.harness.bench import result_digest

        digests: dict[str, str] = {}
        for workload, prefetcher in cells:
            key = f"{workload}|{prefetcher}"
            self.attempted += 1
            if not grid.has(workload, prefetcher):
                self.failed += 1
                common.log(f"FAIL {label} {key}: no result")
                continue
            result = grid.get(workload, prefetcher)
            problems = common.cell_problems(result)
            if not problems:
                digest = result_digest(result)
                digests[key] = digest
                want = expected.get(key)
                if want is not None and want != digest:
                    problems.append(f"digest {digest} != expected {want}")
            if problems:
                self.failed += 1
                common.log(f"FAIL {label} {key}: {'; '.join(problems)}")
        return digests


def _expected(spec: GridSpec, seed: int) -> dict[str, str]:
    """Pinned digests for the default seed; empty for any other seed."""
    if seed != common.DEFAULT_SEED:
        return {}
    if spec.name == "fig14-grid":
        document = json.loads(
            (common.ROOT / "BENCH_sim_hotpath.json").read_text("utf-8"))
        return {f"{cell['workload']}|{cell['prefetcher']}":
                cell["result_digest"] for cell in document["cells"]}
    return common.load_reference(spec.name)


def _grid_pass(spec: GridSpec, seed: int, cache_dir: Path,
               tracer: Tracer | None = None
               ) -> tuple[Any, float, Any, list[float]]:
    """One grid pass by a fresh runner with an empty trace LRU.

    Cold when ``cache_dir`` is new; a warm replay when its result cache
    already holds every cell.  Returns (grid, seconds, telemetry, the
    milliseconds from the start of the pass to each cell's delivery).
    """
    from repro.exec import telemetry as telemetry_module
    from repro.harness.runner import clear_trace_cache

    clear_trace_cache()
    runner = _runner(seed, cache_dir)
    delivered: list[float] = []
    started = time.perf_counter()

    def progress(workload: str, prefetcher: str) -> None:
        delivered.append((time.perf_counter() - started) * 1000.0)

    if tracer is None:
        grid = runner.run_grid(spec.workloads, spec.prefetchers, progress)
    else:
        grid = tracer.span("exec.grid", runner.run_grid, spec.workloads,
                           spec.prefetchers, progress)
    elapsed = time.perf_counter() - started
    return grid, elapsed, telemetry_module.LAST_RUN, delivered


def _events(spec: GridSpec, seed: int, cache_dir: Path) -> dict[str, int]:
    """Trace length per workload, read back from the trace store."""
    runner = _runner(seed, cache_dir)
    return {workload: len(runner.trace(workload))
            for workload in spec.workloads}


def _accuracy_statement(grid: Any, seed: int) -> None:
    """CBWS+SMS over SMS beside the paper's headline numbers."""
    from repro.metrics.speedup import speedup_table
    from repro.workloads import ALL_WORKLOADS, MI_WORKLOADS

    mi = speedup_table(grid, baseline="sms", workloads=MI_WORKLOADS)
    every = speedup_table(grid, baseline="sms", workloads=ALL_WORKLOADS)
    print(f"accuracy: CBWS+SMS over SMS, geomean IPC ratio at seed {seed}: "
          f"{mi['average']['cbws+sms']:.2f}x on the memory-intensive group "
          f"(paper 1.31x), {every['average']['cbws+sms']:.2f}x on all 30 "
          "(paper 1.16x).")
    print("accuracy: the timing model is not validated against hardware "
          "and runs the reduced machine (4 KB L1, 128 KB L2) at budget "
          f"fraction {BUDGET_FRACTION}; see DESIGN.md section 2.")


def run(name: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """One benchmark run of a grid workload; returns the result object."""
    spec = grid_spec(name)
    cells = [(w, p) for w in spec.workloads for p in spec.prefetchers]
    common.WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=common.WORK))
    try:
        check = GridCheck()
        expected = _expected(spec, seed)
        if traced:
            metrics = _traced(spec, seed, work, check, expected, cells)
        else:
            setups = measure_setup(work, SETUP_BEFORE)
            metrics = _untraced(spec, seed, seconds, work, check, expected,
                                cells)
            setups += measure_setup(work, SETUP_AFTER)
            metrics["setup_s"] = common.median(setups)
        return {"correct": check.failed == 0, "attempted": check.attempted,
                "failed": check.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced(spec: GridSpec, seed: int, seconds: float, work: Path,
              check: GridCheck, expected: dict[str, str],
              cells: list[tuple[str, str]]) -> dict[str, float]:
    window_started = time.perf_counter()
    cache_dir = work / "cache"
    grid, cold_s, _, delivered = _grid_pass(spec, seed, cache_dir)
    cold = check.compare("cold", grid, expected, cells)
    warm_times: list[float] = []
    while (len(warm_times) < MIN_WARM_REPLAYS
           or time.perf_counter() - window_started < seconds):
        warm_grid, warm_s, warm_telemetry, _ = _grid_pass(spec, seed,
                                                          cache_dir)
        warm_times.append(warm_s)
        check.compare("warm", warm_grid, cold, cells)
        if warm_telemetry.cache_hits != len(cells):
            check.failed += 1
            common.log(f"FAIL warm replay: {warm_telemetry.cache_hits} of "
                       f"{len(cells)} cells came from the result cache")
    events = _events(spec, seed, cache_dir)
    total_events = sum(events[w] for w, _ in cells)
    if spec.name == "fig14-grid":
        _accuracy_statement(grid, seed)
    tail = common.tail_percentile(len(delivered))
    common.log(f"{spec.name}: {len(cells)} cells, cold {cold_s:.3f} s, "
               f"{len(warm_times)} warm replays, delivery-latency tail "
               f"p{tail:g} over {len(delivered)} cells")
    return {
        "cold_s": cold_s,
        "warm_s": common.median(warm_times),
        "events_per_s": total_events / cold_s,
        "p50_ms": common.percentile(delivered, 50.0),
        "tail_ms": common.percentile(delivered, tail),
        "goodput_rps": len(cold) / cold_s,
        "peak_rss_mb": common.self_peak_rss_mb(),
    }


def _traced(spec: GridSpec, seed: int, work: Path, check: GridCheck,
            expected: dict[str, str],
            cells: list[tuple[str, str]]) -> dict[str, float]:
    """Untraced cold pass, then a traced cold pass and a traced replay."""
    from repro.core.hybrid import CbwsSmsPrefetcher
    from repro.core.prefetcher import CbwsPrefetcher

    grid, untraced_s, _, _ = _grid_pass(spec, seed, work / "untraced")
    untraced = check.compare("untraced", grid, expected, cells)

    tracer = Tracer()
    tracer.calibrate()
    predictor = {"lookups": 0, "hits": 0, "blocks": 0, "overflowed": 0}

    def after_run(prefetcher: Any, result: Any) -> None:
        if isinstance(prefetcher, CbwsSmsPrefetcher):
            prefetcher = prefetcher.cbws
        if isinstance(prefetcher, CbwsPrefetcher):
            stats = prefetcher.predictor.stats
            predictor["lookups"] += stats.table_lookups
            predictor["hits"] += stats.table_hits
            predictor["blocks"] += stats.blocks_completed
            predictor["overflowed"] += stats.blocks_overflowed

    cache_dir = work / "traced"
    installation = install_layers(tracer, after_run)
    try:
        traced_grid, traced_s, cold_telemetry, _ = _grid_pass(
            spec, seed, cache_dir, tracer)
        warm_grid, warm_s, warm_telemetry, _ = _grid_pass(
            spec, seed, cache_dir, tracer)
    finally:
        installation.remove()
    for span in spec.bypasses:
        check.attempted += 1
        if tracer.calls(span):
            check.failed += 1
            common.log(f"FAIL {spec.name} must bypass {span}, which ran "
                       f"{tracer.calls(span)} times")
    check.compare("traced", traced_grid, untraced, cells)
    check.compare("traced-warm", warm_grid, untraced, cells)
    tracer.write_spans(common.WORK / f"spans-{spec.name}-{seed}.jsonl")

    events = _events(spec, seed, cache_dir)
    results = [traced_grid.get(w, p) for w, p in cells
               if traced_grid.has(w, p)]
    total = {field: sum(getattr(r, field) for r in results)
             for field in ("demand_accesses", "l1_misses", "llc_misses",
                           "instructions", "prefetches_issued",
                           "useful_prefetches")}
    sim_events = sum(events[w] for w, _ in cells)
    hits = cold_telemetry.cache_hits + warm_telemetry.cache_hits
    lookups = hits + cold_telemetry.cache_misses + warm_telemetry.cache_misses
    journal_bytes = sum(path.stat().st_size
                        for path in cache_dir.glob("runs/*/journal.jsonl"))
    sim_self = tracer.self_time("sim.run") + tracer.self_time("sim.batch_run")

    attributed = sum(stat[2] for stat in tracer.stats.values())
    overhead = tracer.overhead_seconds()
    common.log(
        f"{spec.name} traced: self times {attributed:.3f} s + calibrated "
        f"wrapper cost {overhead:.3f} s ({tracer.total_calls()} calls x "
        f"{tracer.call_cost * 1e9:.0f} ns) = {attributed + overhead:.3f} s; "
        f"traced cold + warm passes took {traced_s + warm_s:.3f} s")

    metrics = {name: 0.0 for name in common.metric_units("per_layer")}
    metrics.update({
        "core.cbws.access_s": tracer.self_time("core.cbws.access"),
        "core.cbws.block_end_s": tracer.self_time("core.cbws.block_end"),
        "core.cbws.block_begin_s": tracer.self_time("core.cbws.block_begin"),
        "core.cbws.hook_calls": float(sum(
            tracer.calls(f"core.cbws.{hook}")
            for hook in ("access", "block_end", "block_begin"))),
        "core.cbws.table_hit_ratio": common.ratio(predictor["hits"],
                                                  predictor["lookups"]),
        "core.cbws.overflow_ratio": common.ratio(predictor["overflowed"],
                                                 predictor["blocks"]),
        "core.hybrid.hook_s": tracer.self_time("core.hybrid.hook"),
        "prefetchers.useful_ratio": common.ratio(
            total["useful_prefetches"], total["prefetches_issued"]),
        "sim.run_s": tracer.total("sim.run"),
        "sim.self_s": sim_self,
        "sim.self_ns_per_event": sim_self / sim_events * 1e9,
        "sim.events": float(sim_events),
        "sim.batch_run_s": tracer.total("sim.batch_run"),
        "sim.batch_lanes": float(tracer.counts.get("sim.batch_lanes", 0)),
        "memory.demand_s": tracer.self_time("memory.demand"),
        "memory.demand_calls": float(tracer.calls("memory.demand")),
        "memory.fill_s": tracer.self_time("memory.fill"),
        "memory.fill_calls": float(tracer.calls("memory.fill")),
        "memory.l1_miss_ratio": common.ratio(total["l1_misses"],
                                             total["demand_accesses"]),
        "memory.llc_mpki": common.ratio(1000.0 * total["llc_misses"],
                                        total["instructions"]),
        "workloads.build_trace_s": tracer.self_time("workloads.build_trace"),
        "workloads.build_trace_events": float(
            tracer.counts.get("workloads.build_trace_events", 0)),
        "trace.columns_s": tracer.self_time("trace.columns"),
        "trace.io_write_s": tracer.self_time("trace.io_write"),
        "trace.io_read_s": tracer.self_time("trace.io_read"),
        "trace.io_bytes": float(tracer.counts.get("trace.io_bytes", 0)),
        "exec.cache_get_s": tracer.self_time("exec.cache_get"),
        "exec.cache_put_s": tracer.self_time("exec.cache_put"),
        "exec.cache_hit_ratio": common.ratio(hits, lookups),
        "exec.self_s": tracer.self_time("exec.grid"),
        "exec.journal_bytes": float(journal_bytes),
        "bench.trace_overhead_frac": traced_s / untraced_s - 1.0,
        "bench.wrapper_overhead_s": overhead,
    })
    for label in ("sms", "stride", "ghb-pcdc", "ghb-gdc", "ampm", "markov",
                  "pangloss", "pythia"):
        metrics[f"prefetchers.{label}.hook_s"] = tracer.self_time(
            f"prefetchers.{label}.hook")
    return metrics
