"""Equivalence and wiring tests for the batch simulation engine.

``BatchSimulationEngine`` advances many prefetcher/config lanes over one
shared columnar trace.  Its contract is bit-identity: every lane must
produce the same ``SimResult`` *and* the same hierarchy stats as a
standalone fast-path run, because batch results flow into the same
content-addressed result cache as per-cell results.  Everything here
pins that contract, plus the engine-tier selection that decides when a
grid run batches at all.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check.diff import config_with_line_size, diff_batch
from repro.common.errors import ConfigError
from repro.exec import ExecOptions
from repro.exec.scheduler import (
    BATCH_THRESHOLD,
    ENGINE_TIERS,
    _should_batch,
    execute_grid,
)
from repro.harness.registry import (
    EXTENDED_PREFETCHER_ORDER,
    PREFETCHER_FACTORIES,
    make_prefetcher,
)
from repro.sim.batch import (
    BatchLane,
    BatchSimulationEngine,
    iter_batches,
    lanes_for,
    simulate_batch,
)
from repro.sim.config import REDUCED_CONFIG
from repro.sim.engine import SimulationEngine
from repro.workloads.base import build_trace, get_workload

from test_exec import tiny_plan


def _trace(name: str = "462.libquantum-ref", budget: int = 6000):
    return build_trace(get_workload(name), max_accesses=budget, seed=0)


def _fast(name: str, trace, config=REDUCED_CONFIG):
    return SimulationEngine(config, make_prefetcher(name)).run(trace)


class TestBatchEquivalence:
    """Batch lanes must be bit-identical to standalone fast-path runs."""

    @pytest.mark.parametrize("line_size", [64, 128])
    @pytest.mark.parametrize("name", sorted(PREFETCHER_FACTORIES))
    def test_bit_identical_per_prefetcher(self, name, line_size):
        # Every registered prefetcher, both line geometries, checked
        # through the differential harness (results + hierarchy stats).
        divergence = diff_batch(
            [name], _trace(), config=config_with_line_size(line_size)
        )
        assert divergence is None, str(divergence)

    def test_full_lane_set_in_one_batch(self):
        # All twelve prefetchers advanced together over one shared trace.
        divergence = diff_batch(list(EXTENDED_PREFETCHER_ORDER), _trace())
        assert divergence is None, str(divergence)

    def test_single_cell_batch(self):
        # A one-lane batch is legal and identical to the fast path.
        trace = _trace("stencil-default")
        lanes = [BatchLane("cbws", REDUCED_CONFIG)]
        (result,) = simulate_batch(lanes, trace)
        assert result.to_dict() == _fast("cbws", trace).to_dict()

    def test_mixed_config_lanes(self):
        # Lanes with different cache geometries in the same batch: each
        # lane must honour its own config, not a shared one.
        names = ["cbws", "stride", "no-prefetch", "cbws", "stride",
                 "no-prefetch"]
        configs = [config_with_line_size(64)] * 3 + \
                  [config_with_line_size(128)] * 3
        divergence = diff_batch(names, _trace(), configs=configs)
        assert divergence is None, str(divergence)

    def test_mshr_exhaustion_in_one_lane_only(self):
        # One lane gets a single L1 MSHR so it saturates constantly;
        # its neighbours keep the stock config.  Exhaustion stalls must
        # stay confined to the starved lane.
        base = config_with_line_size(64)
        starved = dataclasses.replace(
            base,
            hierarchy=dataclasses.replace(
                base.hierarchy,
                l1=dataclasses.replace(base.hierarchy.l1, mshrs=1),
            ),
        )
        names = ["cbws+sms", "cbws+sms", "stride"]
        configs = [starved, base, base]
        trace = _trace("429.mcf-ref")
        divergence = diff_batch(names, trace, configs=configs)
        assert divergence is None, str(divergence)
        # Sanity: the starved config actually changes behaviour, so the
        # test above exercised genuinely different lane dynamics.
        slow = _fast("cbws+sms", trace, config=starved)
        stock = _fast("cbws+sms", trace, config=base)
        assert slow.to_dict() != stock.to_dict()

    def test_empty_trace(self):
        trace = _trace(budget=1)
        lanes = lanes_for(["no-prefetch", "cbws"], REDUCED_CONFIG)
        results = simulate_batch(lanes, trace)
        for result, lane in zip(results, lanes):
            fast = _fast(lane.prefetcher, trace)
            assert result.to_dict() == fast.to_dict()


class TestBatchEngineApi:
    def test_empty_lanes_rejected(self):
        with pytest.raises(ConfigError):
            BatchSimulationEngine([])

    def test_bad_chunk_rejected(self):
        lanes = lanes_for(["stride"], REDUCED_CONFIG)
        with pytest.raises(ConfigError):
            BatchSimulationEngine(lanes, chunk_events=0)

    def test_iter_batches(self):
        assert list(iter_batches([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4],
                                                          [5]]
        assert list(iter_batches([], 4)) == []

    def test_hierarchies_exposed_per_lane(self):
        trace = _trace("stencil-default", budget=2000)
        engine = BatchSimulationEngine(
            lanes_for(["no-prefetch", "cbws"], REDUCED_CONFIG))
        engine.run(trace)
        assert len(engine.hierarchies) == 2
        solo = SimulationEngine(REDUCED_CONFIG,
                                make_prefetcher("cbws"))
        solo.run(trace)
        assert vars(engine.hierarchies[1].stats) == vars(
            solo.hierarchy.stats)


class TestTierSelection:
    """`execute_grid` picks the batch tier only when asked (or when
    enough inject-free cells share a trace under ``auto``)."""

    def test_engine_tiers_constant(self):
        assert ENGINE_TIERS == ("auto", "fast", "batch")

    def test_should_batch_thresholds(self):
        assert BATCH_THRESHOLD == 8
        assert not _should_batch(ExecOptions(engine="auto"), eligible=7)
        assert _should_batch(ExecOptions(engine="auto"), eligible=8)
        assert _should_batch(ExecOptions(engine="batch"), eligible=1)
        assert not _should_batch(ExecOptions(engine="batch"), eligible=0)
        assert not _should_batch(ExecOptions(engine="fast"), eligible=50)

    def test_forced_batch_matches_fast(self, fresh_trace_cache, tmp_path):
        plan = tiny_plan()
        fast, _ = execute_grid(
            plan, options=ExecOptions(jobs=1, engine="fast"),
            trace_dir=tmp_path / "f")
        batch, telemetry = execute_grid(
            plan, options=ExecOptions(jobs=1, engine="batch"),
            trace_dir=tmp_path / "b")
        assert telemetry.batched_cells == len(batch)
        assert fast.keys() == batch.keys()
        for cell, result in fast.items():
            assert batch[cell].to_dict() == result.to_dict()

    def test_auto_below_threshold_stays_per_cell(self, fresh_trace_cache,
                                                 tmp_path):
        prefetchers = EXTENDED_PREFETCHER_ORDER[:BATCH_THRESHOLD - 1]
        _, telemetry = execute_grid(
            tiny_plan(prefetchers=prefetchers),
            options=ExecOptions(jobs=1, engine="auto"),
            trace_dir=tmp_path)
        assert telemetry.sims_run == BATCH_THRESHOLD - 1
        assert telemetry.batched_cells == 0

    def test_auto_batches_at_threshold(self, fresh_trace_cache, tmp_path):
        prefetchers = EXTENDED_PREFETCHER_ORDER[:BATCH_THRESHOLD]
        _, telemetry = execute_grid(
            tiny_plan(prefetchers=prefetchers),
            options=ExecOptions(jobs=1, engine="auto"),
            trace_dir=tmp_path)
        assert telemetry.batched_cells == BATCH_THRESHOLD

    def test_pool_batch_matches_serial_batch(self, fresh_trace_cache,
                                             tmp_path):
        plan = tiny_plan(workloads=("nw", "stencil-default"))
        serial, _ = execute_grid(
            plan, options=ExecOptions(jobs=1, engine="batch"),
            trace_dir=tmp_path / "s")
        pooled, telemetry = execute_grid(
            plan, options=ExecOptions(jobs=2, engine="batch"),
            trace_dir=tmp_path / "p")
        assert telemetry.batched_cells == len(pooled)
        assert serial.keys() == pooled.keys()
        for cell, result in serial.items():
            assert pooled[cell].to_dict() == result.to_dict()
