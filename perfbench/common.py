"""Shared pieces of the benchmark: paths, statistics, metrics, run records."""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout root (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The package sources the benchmark drives.
SRC = ROOT / "src"
#: Scratch outputs (stores, span dumps, run records), inside the checkout.
OUT = ROOT / ".perfbench_out"
#: The expected digest the self-test plants to check failure accounting.
WRONG_DIGEST = "sha256:" + "0" * 64
#: Set-up passes per run; ``setup_s`` is their median.
SETUP_PASSES = 3

#: End-to-end metric units, by name.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric units, by name.
PER_LAYER_UNITS = {
    "datasets.generate_ms": "ms",
    "datasets.fingerprint_ms": "ms",
    "store.build_ms": "ms",
    "store.bytes": "bytes",
    "store.open_ms": "ms",
    "store.materialize_ms": "ms",
    "scoring.context_ms": "ms",
    "scoring.pool_build_ms": "ms",
    "scoring.patch_ms": "ms",
    "ext.apply_ms": "ms",
    "graph.cliques_ms": "ms",
    "graph.cliques_calls": "1/op",
    "kernel.score_ms": "ms",
    "kernel.batches": "1/op",
    "kernel.subsets": "1/op",
    "kernel.ns_per_subset": "ns",
    "core.profile_ms": "ms",
    "core.profiles": "1/op",
    "core.profiles_per_answer": "ratio",
    "core.serialize_ms": "ms",
    "engine.self_ms": "ms",
    "engine.hit_ratio": "ratio",
    "engine.misses": "1/op",
    "engine.evicted": "1/op",
    "engine.retained": "1/op",
    "engine.invalidations": "1/op",
    "engine.results": "count",
    "engine.profile_groups": "count",
    "plan.serial": "1/op",
    "plan.sharded": "1/op",
    "plan.model_warm": "1/op",
    "plan.fallback": "1/op",
    "parallel.dispatch_ms": "ms",
    "parallel.dispatches": "1/op",
    "serve.wire_ms_p50": "ms",
    "serve.fast_path_share": "ratio",
    "serve.wait_ms": "ms",
    "serve.errors": "count",
    "gc.pause_ms": "ms",
    "gc.gen2_collections": "1/op",
    "trace.untraced_share": "ratio",
    "trace.overhead": "ratio",
}

#: Layer span name -> the per-op self-time metric it feeds.
SELF_TIME_METRICS = {
    "datasets.fingerprint": "datasets.fingerprint_ms",
    "store.open": "store.open_ms",
    "store.materialize": "store.materialize_ms",
    "scoring.context": "scoring.context_ms",
    "scoring.pool_build": "scoring.pool_build_ms",
    "scoring.patch": "scoring.patch_ms",
    "ext.apply": "ext.apply_ms",
    "graph.cliques": "graph.cliques_ms",
    "kernel.score": "kernel.score_ms",
    "core.profile": "core.profile_ms",
    "core.serialize": "core.serialize_ms",
    "engine": "engine.self_ms",
    "parallel.dispatch": "parallel.dispatch_ms",
}


def require_sources() -> None:
    """Exit non-zero unless the checkout holds the package sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no package sources at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def default_knobs() -> List[str]:
    """Unset every ``REPRO_*`` knob so defaults apply; returns the names."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def server_env() -> Dict[str, str]:
    """Environment for a server process: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def stop_children() -> List[str]:
    """Kill and reap every child process still alive; returns their commands.

    Each workload stops what it starts.  This is the last guard on every
    path out of a run, so that no process outlives the benchmark.
    """
    me = os.getpid()
    stopped = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:  # the process exited meanwhile
            continue
        # Fields after the parenthesised command name: state, then parent pid.
        if int(stat[stat.rindex(")") + 2:].split()[1]) != me:
            continue
        pid = int(entry)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        stopped.append(command.strip() or f"pid {pid}")
    return stopped


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes (a diagnostic, never a scale)."""
    began = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - began


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


class Placement:
    """Runs each round on one CPU, alternating between the usable CPUs.

    The slow phases described at :class:`Rounds` hit one CPU at a time
    (in a probe, one CPU often ran a fixed loop 45% slower while the
    other did not), and the scheduler keeps a process where it started,
    so an unpinned run could spend all its rounds on the slow one.
    Alternating gives every run rounds on both.  The calling thread
    moves, and with it every thread of each process in ``pids`` (the
    server, so a round trip never crosses CPUs).
    """

    def __init__(self, pids: Sequence[int] = ()) -> None:
        self.original = os.sched_getaffinity(0)
        self.cpus = sorted(self.original)
        self.pids = list(pids)
        self.rounds = 0

    def _move(self, cpus) -> None:
        os.sched_setaffinity(0, cpus)
        for pid in self.pids:
            for tid in os.listdir(f"/proc/{pid}/task"):
                try:
                    os.sched_setaffinity(int(tid), cpus)
                except ProcessLookupError:  # the thread exited meanwhile
                    pass

    def next_round(self) -> None:
        """Move to the next CPU in turn."""
        self._move({self.cpus[self.rounds % len(self.cpus)]})
        self.rounds += 1

    def release(self) -> None:
        """Give every moved thread all usable CPUs back."""
        try:
            self._move(self.original)
        except FileNotFoundError:  # a moved process has exited
            pass


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def best(values: Sequence[float], higher_is_better: bool) -> float:
    """The least disturbed of per-round values: the highest or the lowest."""
    return max(values) if higher_is_better else min(values)


class Rounds:
    """Per-op latencies grouped into rounds of identical work.

    The two-core machine the benchmark was tuned on has slow phases:
    for seconds to minutes at a time a CPU runs every CPU-bound loop up
    to twice as slowly (process CPU time slows with it, so it cannot be
    factored out), and in busy periods only about one round in ten ran
    at full speed.  Medians, and even 90th percentiles, of per-round
    values then followed the machine, not the program.  Each timing is
    therefore computed per round, or per block of rounds for the tail,
    and reported for the least disturbed round or block: the highest
    per-round throughput, the lowest per-round median latency and the
    lowest per-block tail latency.  Rounds do identical work, so noise
    can only slow one down.  The cost of this choice: a cost that
    recurs in only some rounds (a full garbage collection every few
    rounds) does not reach these figures; it shows in the per-layer
    ``gc.*`` metrics and in the per-round lists of the run record.

    A block is the fewest consecutive rounds holding enough ops for
    ``tail_pct`` to have at least ``TAIL_BEYOND`` samples beyond it.
    """

    TAIL_BEYOND = 10

    def __init__(self, tail_pct: float) -> None:
        self.tail_pct = tail_pct
        self.latencies: List[List[float]] = []
        self.durations: List[float] = []

    def add(self, latencies: List[float], duration: float) -> None:
        if latencies:
            self.latencies.append(latencies)
            self.durations.append(duration)

    @property
    def ops(self) -> int:
        return sum(len(lat) for lat in self.latencies)

    def blocks(self) -> List[List[float]]:
        need = math.ceil(self.TAIL_BEYOND / (1.0 - self.tail_pct / 100.0))
        blocks: List[List[float]] = []
        current: List[float] = []
        for lat in self.latencies:
            current.extend(lat)
            if len(current) >= need:
                blocks.append(current)
                current = []
        if current:
            if blocks:
                blocks[-1].extend(current)
            else:
                blocks.append(current)
        return blocks

    def metrics(self) -> Dict[str, float]:
        throughput = [len(lat) / dur for lat, dur in zip(self.latencies, self.durations)]
        medians = [statistics.median(lat) for lat in self.latencies]
        tails = [percentile(block, self.tail_pct) for block in self.blocks()]
        return {
            "ops_per_s": best(throughput, True),
            "latency_ms_p50": 1e3 * best(medians, False),
            "latency_ms_tail": 1e3 * best(tails, False),
        }

    def describe(self) -> Dict[str, object]:
        blocks = self.blocks()
        beyond = []
        for block in blocks:
            threshold = percentile(block, self.tail_pct)
            beyond.append(sum(1 for value in block if value > threshold))
        return {
            "rounds": len(self.latencies),
            "ops": self.ops,
            "tail_percentile": self.tail_pct,
            "tail_blocks": len(blocks),
            "tail_samples_beyond_per_block": beyond,
            "round_ops_per_s": [
                round(len(lat) / dur, 3)
                for lat, dur in zip(self.latencies, self.durations)
            ],
            "round_p50_ms": [round(1e3 * statistics.median(lat), 4) for lat in self.latencies],
            "block_tail_ms": [round(1e3 * percentile(b, self.tail_pct), 4) for b in blocks],
        }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def environment() -> Dict[str, object]:
    """Versions and resolved knobs recorded with every run."""
    from repro import kernel, plan

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": kernel.backend_name(),
        "plan_mode": plan.plan_mode(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def write_record(name: str, record: Dict[str, object]) -> Path:
    """Write one run's full record under :data:`OUT`; returns the path."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str))
    return path
