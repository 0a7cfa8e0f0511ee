"""Replay the committed golden workload trace through every path.

``tests/data/workload_golden.jsonl`` is a captured mixed read/write
session (Zipf-skewed hot queries, entity/relationship mutations,
structural spikes, sweeps, stats probes, three interleaved clients)
with the payload digest of every diffable op recorded at capture time.
This test mirrors the ``docs/serving.md`` replay pattern one level up:
every execution path must reproduce every recorded digest — i.e. the
recorded payloads byte-for-byte — and all paths must agree with each
other at every step.  If an algorithm, the scoring pipeline, the cache
machinery or the domain generator drifts, this fails and the fixture
must be deliberately re-captured.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import kernel
from repro import config, plan
from repro.workload import (
    REPLAY_PATHS,
    WorkloadTrace,
    replay_trace,
    run_conformance,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "workload_golden.jsonl"

#: Worker count for the sharded path (CI pins REPRO_TEST_JOBS=2).
JOBS = config.test_jobs()


@pytest.fixture(scope="module")
def golden() -> WorkloadTrace:
    return WorkloadTrace.load(GOLDEN)


def test_golden_trace_is_rich(golden):
    """The fixture keeps covering every feature of the format."""
    assert golden.domain == "architecture"
    assert len(golden.ops) == 48
    assert golden.has_digests()
    assert golden.fingerprint is not None  # starting graph is pinned
    kinds = {
        op.params.get("kind") for op in golden.ops if op.op == "mutate"
    }
    assert kinds == {"entity", "relationship"}
    assert any(op.op == "sweep" for op in golden.ops)
    assert any(op.op == "stats" for op in golden.ops)
    assert len({op.client for op in golden.ops}) >= 3
    spikes = [
        op
        for op in golden.ops
        if op.op == "mutate"
        and any("WL SPIKE" in t for t in op.params.get("types", []))
    ]
    assert spikes, "the golden trace lost its structural spikes"


@pytest.mark.parametrize("path", REPLAY_PATHS)
def test_golden_digests_reproduce_on_every_path(golden, path):
    """Each path alone reproduces the recorded payloads byte-for-byte."""
    result = replay_trace(
        golden,
        path=path,
        jobs=JOBS if path == "sharded" else 1,
        verify_digests=True,
    )
    assert result.ops == len(golden.ops)
    assert not result.digest_mismatches, (
        f"{path} diverged from the recorded payloads at op(s) "
        f"{[entry[0] for entry in result.digest_mismatches]}"
    )


@pytest.mark.parametrize(
    "backend",
    [
        "python",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                "numpy" not in kernel.available_backends(),
                reason="no numpy",
            ),
        ),
    ],
)
@pytest.mark.parametrize("path", ["incremental", "sharded"])
def test_golden_digests_reproduce_under_each_kernel_backend(
    golden, path, backend
):
    """Kernel backends replay the recorded payloads digest-for-digest.

    The trace was captured before the batched kernel existed, so every
    digest match proves the kernel (python and numpy alike, serial and
    sharded dispatch) is bit-identical to the original per-subset path
    on a real mixed read/write session — not merely on unit fixtures.
    """
    with kernel.use_backend(backend):
        result = replay_trace(
            golden,
            path=path,
            jobs=JOBS if path == "sharded" else 1,
            verify_digests=True,
        )
    assert result.ops == len(golden.ops)
    assert not result.digest_mismatches, (
        f"{path} under the {backend} backend diverged at op(s) "
        f"{[entry[0] for entry in result.digest_mismatches]}"
    )


@pytest.mark.parametrize("mode", plan.PLAN_MODES)
def test_golden_digests_reproduce_under_every_plan_mode(golden, mode):
    """Planner modes replay the recorded payloads digest-for-digest.

    The trace was captured before the execution planner existed, so a
    digest match under ``auto`` and under every forced mode proves
    planning moves wall time only, never payload bytes, on a real
    mixed read/write trace.
    """
    with plan.use_mode(mode):
        result = replay_trace(
            golden, path="sharded", jobs=JOBS, verify_digests=True
        )
    assert result.ops == len(golden.ops)
    assert not result.digest_mismatches, (
        f"sharded replay under REPRO_PLAN={mode} diverged at op(s) "
        f"{[entry[0] for entry in result.digest_mismatches]}"
    )


def test_golden_replicated_reads_at_every_generation_token(golden):
    """At every golden mutation's generation token, the replicas agree.

    The parametrized replay above already proves the ``replicated``
    topology reproduces the recorded payloads in trace order.  This
    test pins the stronger per-token guarantee: after *each* of the
    golden trace's mutations, a read carrying that mutation's
    generation token answers **byte-identically** on the writer and on
    both replicas — i.e. read-your-writes holds at every generation
    the trace ever produced, not just at the end.
    """
    import json

    from repro.replicate import (
        ReplicaHost,
        ReplicaService,
        WriterHost,
        WriterService,
    )
    from repro.serve import ServeClient, run_in_background
    from repro.workload.replay import _starting_graph

    def canonical(payload) -> str:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    probe = dict(
        next(op for op in golden.ops if op.op == "preview").params
    )
    writer_host = WriterHost(
        golden.domain,
        _starting_graph(golden),
        key_scorer=golden.key_scorer,
        nonkey_scorer=golden.nonkey_scorer,
    )
    servers = [
        run_in_background(WriterService({golden.domain: writer_host}))
    ]
    try:
        for _ in range(2):
            host = ReplicaHost(
                golden.domain,
                _starting_graph(golden),
                key_scorer=golden.key_scorer,
                nonkey_scorer=golden.nonkey_scorer,
            )
            servers.append(
                run_in_background(
                    ReplicaService(
                        {golden.domain: host},
                        upstream=("127.0.0.1", servers[0].port),
                    )
                )
            )
        clients = [
            ServeClient(port=server.port, dataset=golden.domain, timeout=120.0)
            for server in servers
        ]
        try:
            tokens = []
            for op in golden.ops:
                if op.op != "mutate":
                    continue
                token = clients[0].call("mutate", op.params)["generation"]
                tokens.append(token)
                payloads = [
                    canonical(
                        client.call(
                            "preview", dict(probe, min_generation=token)
                        )
                    )
                    for client in clients
                ]
                assert payloads[1] == payloads[0] and payloads[2] == payloads[0], (
                    f"replica payloads diverged at generation token {token}"
                )
            assert len(tokens) == 12  # every golden mutation was exercised
            assert tokens == sorted(tokens)
        finally:
            for client in clients:
                client.close()
    finally:
        for server in reversed(servers):
            server.stop()


def test_golden_conformance_across_paths(golden):
    """The differential oracle agrees with itself across every path."""
    report = run_conformance(golden, jobs=JOBS)
    assert report["identical"], report["first_divergence"]
    assert report["recorded_digests"]["ok"], report["recorded_digests"]
    incremental = report["paths"]["incremental"]["stats"]
    assert incremental["rescan_ok"] is True
    # The warm engine actually got warm: hot queries repeated.
    assert incremental["hits"] > 0


# ----------------------------------------------------------------------
# Store-opened starting graph (docs/disk-store.md)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_store(golden, tmp_path_factory):
    """The golden trace's starting graph, serialized to a binary store."""
    from repro.datasets import generate_domain
    from repro.store import build_store

    graph = generate_domain(
        golden.domain, scale=golden.scale, seed=golden.seed
    )
    path = tmp_path_factory.mktemp("golden-store") / "golden.rgs"
    build_store(graph, path)
    return str(path)


@pytest.mark.parametrize("path", ["serial", "incremental", "sharded"])
def test_golden_digests_reproduce_from_store(golden, golden_store, path):
    """A store-opened graph replays the golden trace digest-identically.

    The strongest round-trip statement the repo can make: the binary
    store's materialized graph is indistinguishable from the generated
    one under 48 mixed ops — previews, sweeps and mutations included —
    on the cold, warm and process-sharded paths alike.
    """
    result = replay_trace(
        golden,
        path=path,
        jobs=JOBS if path == "sharded" else 1,
        verify_digests=True,
        store=golden_store,
    )
    assert result.ops == len(golden.ops)
    assert not result.digest_mismatches, (
        f"{path} from the store diverged from the recorded payloads at "
        f"op(s) {[entry[0] for entry in result.digest_mismatches]}"
    )


def test_golden_store_fingerprint_mismatch_is_rejected(golden, tmp_path):
    """A store of the wrong graph fails fast, before any payload diffs."""
    from repro.datasets import generate_domain
    from repro.exceptions import WorkloadError
    from repro.store import build_store

    other = generate_domain(golden.domain, scale=golden.scale, seed=golden.seed + 1)
    path = tmp_path / "wrong.rgs"
    build_store(other, path)
    with pytest.raises(WorkloadError, match="dataset mismatch"):
        replay_trace(golden, path="serial", store=str(path))
