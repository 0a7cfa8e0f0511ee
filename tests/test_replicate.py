"""The replication tier: codecs, ring, tokens, and the conformance property.

Unit coverage for the pieces of :mod:`repro.replicate` — the
``MutationDelta`` wire codec, the replication window of the mutation
log, snapshot capture/restore, the consistent-hash ring — plus two
behavioural suites over real sockets:

* the stale-read regression the ``affinity`` field exists to catch: a
  replica that never applies deltas serves pre-mutation payloads to
  untokened pinned reads, while a ``min_generation`` token *never*
  observes the pre-mutation payload (it blocks, then answers
  ``lagging``);
* the hypothesis property that random multi-client traces replayed
  through the full writer + replicas + router topology stay
  byte-identical to the from-scratch serial oracle.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_conftest_spec = importlib.util.spec_from_file_location(
    "_replicate_test_fixtures", Path(__file__).with_name("conftest.py")
)
_conftest = importlib.util.module_from_spec(_conftest_spec)
_conftest_spec.loader.exec_module(_conftest)
build_fig1_graph = _conftest.build_fig1_graph

from repro.datasets import graph_fingerprint
from repro.exceptions import (
    ReplicationError,
    ServeRequestError,
    WorkloadError,
)
from repro.ext import IncrementalEntityGraph
from repro.model import RelationshipTypeId, TypeId
from repro.model.mutation_log import MutationDelta
from repro.replicate import (
    ReplicaHost,
    WriterHost,
    build_ring,
    capture_snapshot,
    preference_list,
    restore_snapshot,
)
from repro.serve import PreviewService, ServeClient, run_in_background
from repro.workload import ScenarioSpec, generate_trace, run_conformance
from repro.workload.trace import TraceOp


def canonical(payload) -> str:
    """The canonical JSON form digests are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# MutationDelta wire codec
# ----------------------------------------------------------------------
class TestDeltaCodec:
    def roundtrip(self, delta: MutationDelta) -> MutationDelta:
        record = delta.to_record()
        # The record must be wire-safe: canonical JSON round-trippable.
        assert json.loads(canonical(record)) == record
        return MutationDelta.from_record(record)

    def test_entity_delta_roundtrip(self):
        delta = MutationDelta(
            key_types=frozenset({TypeId("ARCHITECT"), TypeId("PERSON")}),
            rel_types=frozenset(),
            structural=False,
        )
        assert self.roundtrip(delta) == delta

    def test_relationship_delta_roundtrip(self):
        delta = MutationDelta(
            key_types=frozenset({TypeId("FIRM")}),
            rel_types=frozenset(
                {
                    RelationshipTypeId(
                        name="Employs",
                        source_type=TypeId("FIRM"),
                        target_type=TypeId("ARCHITECT"),
                    )
                }
            ),
            structural=True,
        )
        assert self.roundtrip(delta) == delta

    def test_full_delta_roundtrip(self):
        delta = MutationDelta(
            key_types=frozenset(), rel_types=frozenset(), full=True
        )
        restored = self.roundtrip(delta)
        assert restored.full is True

    @pytest.mark.parametrize(
        "record",
        [
            "not a dict",
            {"key_types": "FIRM", "rel_types": [], "structural": False},
            {"key_types": [], "rel_types": "Employs", "structural": False},
            {"key_types": [], "rel_types": [["only-two", "items"]], "structural": False},
            {"key_types": [], "rel_types": [[1, 2, 3]], "structural": False},
            {"key_types": [3], "rel_types": [], "structural": False},
        ],
    )
    def test_malformed_records_raise(self, record):
        with pytest.raises(ReplicationError):
            MutationDelta.from_record(record)


# ----------------------------------------------------------------------
# Mutation log: replication window primitives
# ----------------------------------------------------------------------
class TestMutationLogWindow:
    def graph(self) -> IncrementalEntityGraph:
        return IncrementalEntityGraph(base=build_fig1_graph())

    def test_entries_since_returns_oldest_first(self):
        graph = self.graph()
        start = graph.generation
        graph.add_entity("LOG E1", ["ARCHITECT"])
        graph.add_entity("LOG E2", ["ARCHITECT"])
        entries = graph.mutation_log.entries_since(start)
        assert [generation for generation, _ in entries] == [start + 1, start + 2]

    def test_entries_since_below_horizon_raises(self):
        graph = self.graph()
        with pytest.raises(ReplicationError):
            graph.mutation_log.entries_since(graph.mutation_log.horizon - 1)

    def test_fast_forward_never_rewinds(self):
        graph = self.graph()
        log = graph.mutation_log
        target = graph.generation + 10
        log.fast_forward(target)
        assert log.generation == target
        assert log.horizon == target
        with pytest.raises(ReplicationError):
            log.fast_forward(target - 1)


# ----------------------------------------------------------------------
# Snapshot capture / restore
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_roundtrip_preserves_fingerprint_and_generation(self):
        graph = IncrementalEntityGraph(base=build_fig1_graph())
        graph.add_entity("SNAP ENTITY", ["FILM ACTOR", "SNAP TYPE"])
        graph.add_relationship(
            "SNAP ENTITY",
            "Will Smith",
            RelationshipTypeId(
                name="Mentors",
                source_type=TypeId("FILM ACTOR"),
                target_type=TypeId("FILM ACTOR"),
            ),
        )
        record = capture_snapshot(graph.entity_graph, graph.generation)
        assert json.loads(canonical(record)) == record  # wire-safe
        restored = restore_snapshot(record)
        assert graph_fingerprint(restored) == graph_fingerprint(
            graph.entity_graph
        )
        assert restored.generation == graph.generation

    def test_restored_graph_extends_identically(self):
        """Post-restore mutations produce the same state as the original.

        This is the property replication actually needs: a replica
        bootstrapped from a snapshot then fed deltas must land on the
        writer's exact graph, so the restore must preserve every bit of
        order-sensitive internal state the scorers can observe.
        """
        graph = IncrementalEntityGraph(base=build_fig1_graph())
        record = capture_snapshot(graph.entity_graph, graph.generation)
        restored = IncrementalEntityGraph(base=restore_snapshot(record))
        for target in (graph, restored):
            target.add_entity("POST SNAP", ["ARCHITECT", "POST TYPE"])
        assert graph_fingerprint(graph.entity_graph) == graph_fingerprint(
            restored.entity_graph
        )

    def test_fingerprint_tamper_is_rejected(self):
        graph = IncrementalEntityGraph(base=build_fig1_graph())
        record = capture_snapshot(graph.entity_graph, graph.generation)
        record["fingerprint"] = "sha256:" + "0" * 64
        with pytest.raises(ReplicationError):
            restore_snapshot(record)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda r: r.update(kind="bogus"),
            lambda r: r.update(version=99),
            lambda r: r.update(entities="not a list"),
            lambda r: r.update(generation="ten"),
            lambda r: r.pop("type_order"),
            lambda r: r.update(relationships=[["too", "short"]]),
            # A generation behind the adds the restore replays.
            lambda r: r.update(generation=1),
        ],
    )
    def test_malformed_snapshots_raise(self, corrupt):
        graph = IncrementalEntityGraph(base=build_fig1_graph())
        record = capture_snapshot(graph.entity_graph, graph.generation)
        corrupt(record)
        with pytest.raises(ReplicationError):
            restore_snapshot(record)


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------
class TestRing:
    BACKENDS = ["10.0.0.1:9401", "10.0.0.2:9401", "10.0.0.3:9401"]

    def test_ring_is_deterministic_across_processes(self):
        """sha256, not ``hash()``: two routers must agree on placement."""
        assert build_ring(self.BACKENDS) == build_ring(list(self.BACKENDS))
        first = preference_list(build_ring(self.BACKENDS), "film")
        second = preference_list(build_ring(self.BACKENDS), "film")
        assert first == second

    def test_preference_list_covers_every_backend_once(self):
        ring = build_ring(self.BACKENDS)
        for dataset in ("film", "music", "architecture", "geography"):
            preference = preference_list(ring, dataset)
            assert sorted(preference) == sorted(self.BACKENDS)

    def test_datasets_spread_across_backends(self):
        ring = build_ring(self.BACKENDS)
        firsts = {
            preference_list(ring, f"dataset-{index}")[0]
            for index in range(32)
        }
        assert len(firsts) == len(self.BACKENDS)

    def test_empty_ring_yields_empty_preference(self):
        assert preference_list(build_ring([]), "film") == []


# ----------------------------------------------------------------------
# Generator affinity tagging (the PR's bugfix)
# ----------------------------------------------------------------------
class TestGeneratorAffinity:
    def test_multi_client_reads_carry_affinity(self):
        trace = generate_trace(
            domain="film", scale=600, seed=11, ops=24, scenario="multi-client"
        )
        reads = [op for op in trace.ops if op.op in ("preview", "sweep")]
        assert reads
        for op in reads:
            assert op.affinity == op.client

    def test_single_client_reads_have_no_affinity(self):
        trace = generate_trace(
            domain="film", scale=600, seed=11, ops=12, scenario="steady"
        )
        assert all(op.affinity is None for op in trace.ops)

    def test_affinity_survives_the_record_roundtrip(self):
        op = TraceOp(op="preview", client=2, params={"k": 2, "n": 5}, affinity=2)
        record = op.to_record()
        assert record["affinity"] == 2
        assert TraceOp.from_record(record, line=2).affinity == 2
        bare = TraceOp(op="preview", client=0, params={"k": 2, "n": 5})
        assert "affinity" not in bare.to_record()

    def test_invalid_affinity_is_rejected(self):
        with pytest.raises(WorkloadError):
            TraceOp.from_record(
                {"op": "preview", "client": 0, "params": {}, "affinity": -1},
                line=2,
            )
        with pytest.raises(WorkloadError):
            TraceOp.from_record(
                {"op": "preview", "client": 0, "params": {}, "affinity": True},
                line=2,
            )


# ----------------------------------------------------------------------
# The stale-read regression (real sockets)
# ----------------------------------------------------------------------
class TestStaleReadRegression:
    """One caught-up replica, one frozen replica, a router over both.

    Without affinity pinning this scenario is non-deterministic (the
    read may or may not land on the frozen replica); with it, the test
    deterministically aims reads at each replica and proves the
    ``min_generation`` token never observes a pre-mutation payload.
    """

    DATASET = "fig1"

    @pytest.fixture
    def topology(self):
        from repro.replicate import RouterService, WriterService

        servers = []
        try:
            writer_host = WriterHost(self.DATASET, build_fig1_graph())
            writer = run_in_background(
                WriterService({self.DATASET: writer_host})
            )
            servers.append(writer)

            from repro.replicate import ReplicaService

            fresh_host = ReplicaHost(self.DATASET, build_fig1_graph())
            fresh = run_in_background(
                ReplicaService(
                    {self.DATASET: fresh_host},
                    upstream=("127.0.0.1", writer.port),
                )
            )
            servers.append(fresh)

            # The frozen replica: a ReplicaHost served WITHOUT a
            # subscription loop — it never hears about mutations, the
            # deterministic stand-in for an arbitrarily lagging node.
            frozen_host = ReplicaHost(self.DATASET, build_fig1_graph())
            frozen_host.REPLICA_WAIT_SECONDS = 0.3
            frozen = run_in_background(
                PreviewService({self.DATASET: frozen_host})
            )
            servers.append(frozen)

            router = run_in_background(
                RouterService(
                    writer=("127.0.0.1", writer.port),
                    replicas=[
                        ("127.0.0.1", fresh.port),
                        ("127.0.0.1", frozen.port),
                    ],
                    datasets=[self.DATASET],
                )
            )
            servers.append(router)
            labels = sorted(
                (f"127.0.0.1:{fresh.port}", f"127.0.0.1:{frozen.port}")
            )
            preference = preference_list(build_ring(labels), self.DATASET)
            frozen_affinity = preference.index(f"127.0.0.1:{frozen.port}")
            fresh_affinity = preference.index(f"127.0.0.1:{fresh.port}")
            yield {
                "router": router,
                "frozen_affinity": frozen_affinity,
                "fresh_affinity": fresh_affinity,
            }
        finally:
            for server in reversed(servers):
                server.stop()

    def test_token_never_observes_pre_mutation_payload(self, topology):
        query = {"k": 2, "n": 5}
        with ServeClient(
            port=topology["router"].port, dataset=self.DATASET, timeout=30.0
        ) as client:
            def read(affinity, token=None):
                params = dict(query, affinity=affinity)
                if token is not None:
                    params["min_generation"] = token
                return client.call("preview", params)

            before = read(topology["frozen_affinity"])
            token = client.mutate_entity(
                "STALE PROBE", ["ARCHITECT", "STALE TYPE"]
            )["generation"]

            # The untokened pinned read IS stale: same payload as before
            # the acknowledged mutation — the bug affinity pinning makes
            # reproducible.
            stale = read(topology["frozen_affinity"])
            assert canonical(stale) == canonical(before)
            assert stale["generation"] < token

            # The tokened read on the same frozen replica never returns
            # the stale payload: it blocks, then answers ``lagging``.
            with pytest.raises(ServeRequestError) as excinfo:
                read(topology["frozen_affinity"], token=token)
            assert excinfo.value.code == "lagging"

            # The caught-up replica satisfies the token with the
            # post-mutation payload.
            fresh = read(topology["fresh_affinity"], token=token)
            assert fresh["generation"] >= token
            assert canonical(fresh) != canonical(before)


# ----------------------------------------------------------------------
# The conformance property (real sockets, full topology)
# ----------------------------------------------------------------------
PROPERTY = settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestReplicatedConformanceProperty:
    @PROPERTY
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mutate_rate=st.sampled_from([0.2, 0.4]),
        structural_rate=st.sampled_from([0.0, 0.2]),
    )
    def test_replicated_equals_serial_oracle(
        self, seed, mutate_rate, structural_rate
    ):
        """Random traces through writer + replicas + router stay
        byte-identical to the from-scratch serial oracle, with every
        read carrying the read-your-writes token of the last
        acknowledged mutation (so a stale answer would diverge)."""
        spec = ScenarioSpec(
            name="replicate-property",
            mutate_rate=mutate_rate,
            structural_rate=structural_rate,
            sweep_rate=0.15,
            stats_rate=0.1,
            clients=3,
            query_pool=5,
        )
        trace = generate_trace(
            domain="film", scale=500, seed=seed, ops=10, scenario=spec
        )
        report = run_conformance(trace, paths=("serial", "replicated"))
        assert report["identical"], report["first_divergence"]
