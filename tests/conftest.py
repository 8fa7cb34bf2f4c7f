"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.harness.runner import GridRunner, clear_trace_cache
from repro.ir.nodes import ArrayDecl, Compute, For, Kernel, Load, Store
from repro.ir.builder import c, v
from repro.passes.annotate import annotate_tight_loops
from repro.ir.interp import run_kernel
from repro.trace.stream import Trace


def make_stream_kernel(
    name: str = "stream",
    length: int = 2048,
    element_size: int = 8,
    compute: int = 4,
) -> Kernel:
    """A unit-stride streaming kernel: one load + one store per iteration."""
    i = v("i")
    body = [
        For("i", 0, length, [
            Load("src", i),
            Compute(compute),
            Store("dst", i),
        ]),
    ]
    return Kernel(
        name,
        [ArrayDecl("src", length, element_size),
         ArrayDecl("dst", length, element_size)],
        body,
    )


def make_strided_kernel(
    name: str = "strided",
    iterations: int = 512,
    stride_elements: int = 128,
    element_size: int = 8,
    streams: int = 3,
) -> Kernel:
    """A kernel whose iteration working set is ``streams`` far-apart lines
    advancing by a constant multi-line stride — the CBWS sweet spot."""
    i = v("i")
    loads = [
        Load("data", i * c(stride_elements) + c(k * stride_elements // 8))
        for k in range(streams)
    ]
    body = [For("i", 0, iterations, [*loads, Compute(6)])]
    length = iterations * stride_elements + stride_elements
    return Kernel(name, [ArrayDecl("data", length, element_size)], body)


def annotated_trace(kernel: Kernel, seed: int = 0) -> Trace:
    """Annotate and execute a kernel, returning a validated trace."""
    annotate_tight_loops(kernel)
    trace = run_kernel(kernel, seed=seed)
    trace.validate()
    return trace


@pytest.fixture
def stream_trace() -> Trace:
    """Trace of the unit-stride streaming kernel."""
    return annotated_trace(make_stream_kernel())


@pytest.fixture
def strided_trace() -> Trace:
    """Trace of the constant-multi-line-stride kernel."""
    return annotated_trace(make_strided_kernel())


@pytest.fixture
def tiny_runner() -> GridRunner:
    """A grid runner with very small workload budgets for fast tests."""
    return GridRunner(budget_fraction=0.05)


@pytest.fixture(autouse=False)
def fresh_trace_cache():
    """Isolate tests that depend on trace-cache state."""
    clear_trace_cache()
    yield
    clear_trace_cache()


@pytest.fixture(autouse=True)
def _isolated_cli_cache(tmp_path, monkeypatch):
    """Point the CLI's default cache directory away from the repo.

    Without this, any test invoking ``repro.cli.main`` would create
    ``.repro-cache/`` in the current working directory.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """A real 2-shard ``repro cluster`` on a background thread."""
    from repro.cluster import ThreadedCluster

    cache_dir = tmp_path_factory.mktemp("cluster-cache")
    with ThreadedCluster(shards=2, cache_dir=cache_dir, jobs=1,
                         probe_interval=0.2) as running:
        yield running
