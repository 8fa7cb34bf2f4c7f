"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import common, serving  # noqa: E402
from perfbench.tracing import Installation, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self time ---------------------------------------------------------------

def _tree(tracer: Tracer, clock: FakeClock) -> None:
    """root(10) -> a(4) -> leaf(1), leaf(1); root -> b(3)."""

    def leaf() -> None:
        clock.now += 1.0

    def a() -> None:
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 1.0

    def b() -> None:
        clock.now += 3.0

    def root() -> None:
        clock.now += 1.0
        traced_a()
        clock.now += 1.0
        traced_b()
        clock.now += 1.0

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_a = tracer.wrap(a, "a")
    traced_b = tracer.wrap(b, "b")
    tracer.span("root", root)


def test_self_time_is_span_minus_children() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)
    _tree(tracer, clock)
    assert tracer.total("root") == 10.0
    assert tracer.self_time("root") == 3.0
    assert tracer.total("a") == 4.0
    assert tracer.self_time("a") == 2.0
    assert tracer.calls("leaf") == 2
    assert tracer.self_time("leaf") == 2.0
    assert tracer.self_time("b") == 3.0
    assert sum(stat[2] for stat in tracer.stats.values()) == 10.0


def test_calibrated_cost_is_subtracted_once() -> None:
    # With a per-call cost, the self times plus calls x cost add up to
    # the root's raw duration (minus the root's own inner cost).
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.inner_cost = 0.25
    tracer.call_cost = 0.5
    _tree(tracer, clock)
    attributed = sum(stat[2] for stat in tracer.stats.values())
    children = tracer.total_calls() - 1
    assert attributed + children * tracer.call_cost == 10.0 - 0.25
    assert tracer.self_time("leaf") == 2 * (1.0 - 0.25)


def test_coarse_spans_are_kept_with_parent_and_cell(tmp_path: Path) -> None:
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.cell = "w|p"

    def sim() -> None:
        clock.now += 2.0

    def grid() -> None:
        tracer.wrap(sim, "sim.run")()

    tracer.span("exec.grid", grid)
    assert tracer.spans == [("sim.run", 0.0, 2.0, "exec.grid", "w|p"),
                            ("exec.grid", 0.0, 2.0, None, "w|p")]
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["name"] == "sim.run"
    assert {"aggregate": "exec.grid", "calls": 1, "total_s": 2.0,
            "self_s": 0.0} in lines


def test_calibration_measures_a_positive_cost() -> None:
    tracer = Tracer()
    tracer.calibrate(calls=20_000, rounds=3)
    assert 0.0 < tracer.call_cost < 1e-4
    assert 0.0 <= tracer.inner_cost <= tracer.call_cost


def test_installation_restores_the_originals() -> None:
    class Target:
        def hook(self) -> int:
            return 7

    original = Target.__dict__["hook"]
    tracer = Tracer()
    installation = Installation(tracer)
    installation.patch_hooks(Target, "t.hook", ("hook", "inherited"))
    assert Target().hook() == 7
    assert tracer.calls("t.hook") == 1
    installation.remove()
    assert Target.__dict__["hook"] is original
    assert "inherited" not in Target.__dict__


# -- percentiles ---------------------------------------------------------------

def test_tail_keeps_ten_samples_beyond() -> None:
    assert common.tail_percentile(1000) == 99.0
    assert common.tail_percentile(360) == 95.0
    assert common.tail_percentile(210) == 95.0
    assert common.tail_percentile(200) == 95.0
    assert common.tail_percentile(199) == 90.0
    assert common.tail_percentile(135) == 90.0
    for count in (135, 199, 200, 210, 360, 1000):
        assert common.beyond(count, common.tail_percentile(count)) >= 10
    try:
        common.tail_percentile(30)
    except ValueError:
        pass
    else:
        raise AssertionError("30 samples cannot support a tail")


def test_percentile_is_nearest_rank_with_failures_last() -> None:
    values = [float(v) for v in range(1, 101)]
    assert common.percentile(values, 50.0) == 50.0
    assert common.percentile(values, 95.0) == 95.0
    assert common.percentile(values[:90] + [float("inf")] * 10, 95.0) \
        == float("inf")


# -- open loop -------------------------------------------------------------------

class StallingClient:
    """Answers instantly, except one submit that blocks for ``stall``."""

    def __init__(self, stall_on: int, stall: float) -> None:
        self.stall_on = stall_on
        self.stall = stall
        self.submits = 0

    def submit(self, request: int) -> SimpleNamespace:
        self.submits += 1
        if self.submits == self.stall_on:
            time.sleep(self.stall)
        return SimpleNamespace(job_id=f"job-{request}", deduplicated=False,
                               status="queued")

    def job(self, job_id: str) -> SimpleNamespace:
        return SimpleNamespace(job_id=job_id, status="done", cache_hit=False,
                               wall_seconds=0.001, result={})


def test_a_stall_delays_every_request_due_during_it() -> None:
    plan = [serving.Planned(0.02 * index, "w", "p", index, "cold")
            for index in range(30)]
    client = StallingClient(stall_on=6, stall=0.3)
    loop = serving.OpenLoop(client, lambda item: item.seed, poll_s=0.001)
    outcomes = loop.run(plan)
    assert all(outcome.status == "done" for outcome in outcomes)
    latency = [outcome.latency_ms for outcome in outcomes]
    late = [(outcome.sent - outcome.due) * 1000.0 for outcome in outcomes]
    # Requests before the stall are quick; the stalled one and those due
    # while it blocked the sender wait for it, counted from their due time.
    assert max(latency[:5]) < 100.0
    assert latency[5] >= 290.0
    for index in range(6, 15):  # due 0.12 .. 0.28 s, before the stall ends
        assert latency[index] >= 300.0 - 20.0 * (index - 5) - 10.0
        assert late[index] > 0.0
    layer = serving._layer_metrics(outcomes, {}, {})
    assert layer["serve.gen_late_ms"] >= 250.0


def test_refusals_count_as_missing_the_limit() -> None:
    class Busy(Exception):
        pass

    class RefusingClient(StallingClient):
        def submit(self, request: int) -> SimpleNamespace:
            if request % 2:
                raise Busy("429")
            return super().submit(request)

    plan = [serving.Planned(0.001 * index, "w", "p", index, "cold")
            for index in range(6)]
    loop = serving.OpenLoop(RefusingClient(stall_on=0, stall=0.0),
                            lambda item: item.seed, busy_errors=(Busy,),
                            poll_s=0.001)
    outcomes = loop.run(plan)
    assert [o.status for o in outcomes] == ["done", "refused"] * 3
    assert [o.latency_ms == float("inf") for o in outcomes] == \
        [False, True] * 3


def test_polling_is_paced_whatever_is_outstanding() -> None:
    class SlowClient(StallingClient):
        """Every job finishes 0.2 s after its submit."""

        def __init__(self) -> None:
            super().__init__(stall_on=0, stall=0.0)
            self.finish_at: dict[str, float] = {}

        def submit(self, request: int) -> SimpleNamespace:
            view = super().submit(request)
            self.finish_at[view.job_id] = time.monotonic() + 0.2
            return view

        def job(self, job_id: str) -> SimpleNamespace:
            view = super().job(job_id)
            if time.monotonic() < self.finish_at[job_id]:
                view.status = "running"
            return view

    plan = [serving.Planned(0.0, "w", "p", index, "cold")
            for index in range(8)]
    loop = serving.OpenLoop(SlowClient(), lambda item: item.seed,
                            poll_s=0.01)
    outcomes = loop.run(plan)
    assert all(outcome.status == "done" for outcome in outcomes)
    # One GET per poll_s at most, however many jobs are outstanding.
    assert loop.polls <= loop.span_s / 0.01 + 1
    # Each of the 8 jobs is seen done within (8 + 1) polls of finishing.
    assert max(outcome.latency_ms for outcome in outcomes) < 200.0 + 9 * 15.0


def test_plan_covers_the_grid_once_and_is_seeded() -> None:
    workloads = [f"w{i}" for i in range(30)]
    prefetchers = [f"p{i}" for i in range(7)]
    plan = serving.plan_requests(3, 30.0, 12.0, workloads, prefetchers)
    assert plan == serving.plan_requests(3, 30.0, 12.0, workloads,
                                         prefetchers)
    assert plan != serving.plan_requests(4, 30.0, 12.0, workloads,
                                         prefetchers)
    kinds = [item.kind for item in plan]
    assert (kinds.count("cold"), kinds.count("join"),
            kinds.count("replay")) == (210, 60, 90)
    cold = [item for item in plan if item.kind == "cold"]
    assert len({(i.workload, i.prefetcher) for i in cold}) == 210
    assert len({i.seed for i in cold}) == 210
    first_due = {}
    for item in cold:
        first_due[item.key] = item.due
    for item in plan:
        if item.kind == "join":
            assert item.due == first_due[item.key]
        if item.kind == "replay":
            assert item.due - first_due[item.key] >= serving.REPLAY_AGE_S


def test_every_seed_simulates_the_same_cells() -> None:
    workloads = [f"w{i}" for i in range(30)]
    prefetchers = [f"p{i}" for i in range(7)]

    def cold_cells(seed: int) -> list[tuple[str, str]]:
        plan = serving.plan_requests(seed, 30.0, 16.0, workloads,
                                     prefetchers)
        return sorted((i.workload, i.prefetcher) for i in plan
                      if i.kind == "cold")

    # More cold requests than cells: the grid, then a fixed sample.
    assert len(cold_cells(0)) > 210
    assert cold_cells(0) == cold_cells(1) == cold_cells(2)


# -- names -------------------------------------------------------------------------

def test_names_units_and_bounds_are_valid() -> None:
    benchmark = common.load_benchmark()
    catalogue = json.loads(common.CATALOGUE.read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        names += [m["name"] for m in benchmark[kind]]
        for metric in benchmark[kind]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in benchmark["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    # The catalogue defines exactly the metrics and workloads named, and
    # every end-to-end metric once per workload.
    assert set(catalogue["workloads"]) == {w["name"]
                                          for w in benchmark["workloads"]}
    assert set(catalogue["end_to_end"]) == set(bounds)
    for definition in catalogue["end_to_end"].values():
        assert set(definition) == set(catalogue["workloads"])
    assert set(catalogue["per_layer"]) == {m["name"]
                                           for m in benchmark["per_layer"]}
    for entry in catalogue["per_layer"].values():
        assert set(entry["moves"]) <= set(bounds)
