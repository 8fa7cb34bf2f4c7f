"""Paths, statistics and checks shared by the benchmark's workloads."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test, imported from source.
SRC = ROOT / "src"
#: Scratch space for caches, servers and span files (git-ignored).
WORK = ROOT / ".perfbench-work"
#: The benchmark definition: workloads and metric names with units.
BENCHMARK = ROOT / "BENCHMARK.json"
#: Definitions behind the names: per-workload meaning of each metric,
#: the layer -> end-to-end map, and recorded facts.
CATALOGUE = Path(__file__).resolve().parent / "metrics.json"
#: Digests pinned by the benchmark for the default seed.
REFERENCE = Path(__file__).resolve().parent / "reference"

#: The seed whose outputs are compared with pinned digests.
DEFAULT_SEED = 0

#: Tail percentiles tried from the highest down.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def use_program_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'repro'}; run from "
                         "the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for subprocesses that run the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def load_benchmark() -> dict[str, Any]:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def metric_units(kind: str) -> dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"]
            for metric in load_benchmark()[kind]}


# -- statistics --------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly beyond the nearest-rank ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ``MIN_BEYOND``
    samples beyond it; raises when even the lowest has too few."""
    for pct in TAIL_LADDER:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    raise ValueError(
        f"{count} samples leave fewer than {MIN_BEYOND} beyond every "
        f"percentile of {TAIL_LADDER}")


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- outputs -----------------------------------------------------------------

def cell_problems(result: Any) -> list[str]:
    """Invariants every simulated cell must satisfy."""
    problems = []
    if result.degraded:
        problems.append("cell is DEGRADED")
        return problems
    if sum(result.classes.values()) != result.l1_misses:
        problems.append(
            f"Fig. 13 classes sum to {sum(result.classes.values())}, "
            f"not l1_misses={result.l1_misses}")
    if result.useful_prefetches > result.prefetches_issued:
        problems.append(
            f"useful_prefetches={result.useful_prefetches} exceeds "
            f"prefetches_issued={result.prefetches_issued}")
    return problems


def load_reference(name: str) -> dict[str, str]:
    """Pinned ``"workload|prefetcher[|seed]" -> digest`` for one workload."""
    path = REFERENCE / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


# -- processes ---------------------------------------------------------------

def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sets (``VmHWM``) over a live process tree."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        pending.extend(children.get(current, []))
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def timed_subprocess(argv: Sequence[str], timeout: float = 120.0) -> float:
    """Wall time of one subprocess that must exit 0."""
    started = time.perf_counter()
    completed = subprocess.run(list(argv), env=program_env(), timeout=timeout,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(
            f"set-up subprocess failed ({completed.returncode}): "
            f"{completed.stderr.strip()[-2000:]}")
    return elapsed


def log(message: str) -> None:
    """Progress and findings go to stderr; stdout ends with the result."""
    print(message, file=sys.stderr, flush=True)
