"""``repro.workload`` — workload traces and differential conformance.

The serving stack has five ways to answer the same preview query — a
from-scratch engine, a warm incremental engine, a process-sharded
engine, the JSON-line socket service, and a replicated writer with two
read replicas behind a router — and the paper's contract is that all
five are *bit-identical* under any mix of reads and writes, whether
the starting graph is regenerated or cold-opened from a ``.rgs`` store.
This package makes that contract executable:

* :mod:`~repro.workload.trace` — the versioned JSONL trace format: one
  header line naming the dataset, one line per operation in serve-wire
  shape, optional per-op payload digests;
* :mod:`~repro.workload.generator` — seeded scenario generation
  (Zipf-skewed hot queries, mutation bursts, structural-change spikes,
  multi-client interleavings) producing deterministic traces;
* :mod:`~repro.workload.replay` — one replayer per execution path,
  each emitting canonical payloads and checking its own cache/counter
  accounting at every step;
* :mod:`~repro.workload.oracle` — the differential oracle: replay one
  trace through every path, diff the payload digests op by op, and
  verify recorded digests so a committed golden trace pins behavior
  across time.

CLI: ``repro-preview workload record|replay|run|diff`` (see
``docs/workloads.md``).
"""

from .generator import SCENARIOS, ScenarioSpec, generate_trace, scenario
from .oracle import format_report, run_conformance
from .replay import REPLAY_PATHS, ReplayResult, record_digests, replay_trace
from .trace import (
    TRACE_OPS,
    TRACE_VERSION,
    TraceOp,
    WorkloadTrace,
    canonical_payload,
    payload_digest,
)

__all__ = [
    "REPLAY_PATHS",
    "SCENARIOS",
    "ScenarioSpec",
    "TRACE_OPS",
    "TRACE_VERSION",
    "TraceOp",
    "ReplayResult",
    "WorkloadTrace",
    "canonical_payload",
    "format_report",
    "generate_trace",
    "payload_digest",
    "record_digests",
    "replay_trace",
    "run_conformance",
    "scenario",
]
