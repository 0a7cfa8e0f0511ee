"""The replication tier: codecs, ring, tokens, and the conformance property.

Unit coverage for the pieces of :mod:`repro.replicate` — the
``MutationDelta`` wire record, the mutation log's fast-forward, the
snapshot bootstrap from the ``.rgs`` store image, the consistent-hash
ring — plus two behavioural suites over real sockets:

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

import asyncio
import base64
import importlib.util
import json
import socket
import struct
import zlib
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
    ReplicaService,
    RouterService,
    WriterHost,
    WriterService,
    build_ring,
    preference_list,
)
from repro.serve import (
    PreviewService,
    ServeClient,
    apply_mutation,
    encode_frame,
    run_in_background,
)
from repro.store import disk, encode_store
from repro.workload import ScenarioSpec, generate_trace, run_conformance
from repro.workload.trace import TraceOp


def canonical(payload) -> str:
    """The canonical JSON form digests are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# MutationDelta wire record
# ----------------------------------------------------------------------
class TestDeltaCodec:
    """The shipped ``dirty`` record is compared as a plain dict.

    A replica checks the writer's record against its own
    ``to_record()`` with ``==``, so equal deltas must give equal,
    canonical-JSON-safe records with sorted type lists.
    """

    def roundtrip(self, delta: MutationDelta) -> dict:
        record = delta.to_record()
        # The record must be wire-safe: canonical JSON round-trippable.
        assert json.loads(canonical(record)) == record
        return record

    def test_entity_delta_roundtrip(self):
        delta = MutationDelta(
            key_types=frozenset({TypeId("PERSON"), TypeId("ARCHITECT")}),
            rel_types=frozenset(),
            structural=False,
        )
        assert self.roundtrip(delta) == {
            "key_types": ["ARCHITECT", "PERSON"],
            "rel_types": [],
            "structural": False,
            "full": False,
        }

    def test_relationship_delta_roundtrip(self):
        employs = RelationshipTypeId(
            name="Employs",
            source_type=TypeId("FIRM"),
            target_type=TypeId("ARCHITECT"),
        )
        designed = RelationshipTypeId(
            name="Designed",
            source_type=TypeId("ARCHITECT"),
            target_type=TypeId("BUILDING"),
        )
        delta = MutationDelta(
            key_types=frozenset({TypeId("FIRM")}),
            rel_types=frozenset({employs, designed}),
            structural=True,
        )
        record = self.roundtrip(delta)
        assert record["rel_types"] == [
            ["Designed", "ARCHITECT", "BUILDING"],
            ["Employs", "FIRM", "ARCHITECT"],
        ]
        assert record["structural"] is True

    def test_full_delta_roundtrip(self):
        delta = MutationDelta(
            key_types=frozenset(), rel_types=frozenset(), full=True
        )
        assert self.roundtrip(delta)["full"] is True


# ----------------------------------------------------------------------
# Mutation log: replication window primitives
# ----------------------------------------------------------------------
class TestMutationLogWindow:
    def graph(self) -> IncrementalEntityGraph:
        return IncrementalEntityGraph(base=build_fig1_graph())

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
# Snapshot bootstrap from the store image
# ----------------------------------------------------------------------
def encoded(image) -> str:
    """A snapshot frame's payload: the base64 text of a store image."""
    return base64.b64encode(bytes(image)).decode("ascii")


def snapshot_text(graph) -> str:
    """What a writer ships for ``graph``: its ``.rgs`` image, encoded."""
    return encoded(encode_store(graph))


def reseal(image: bytearray) -> bytearray:
    """Recompute the header checksum, as a drifted encoder would."""
    at = disk._CHECKSUM_OFFSET
    end = at + disk._CHECKSUM.size
    checksum = zlib.crc32(bytes(image[:at]) + bytes(image[end:]))
    disk._CHECKSUM.pack_into(image, at, checksum)
    return image


def with_field(image: bytes, fmt: str, offset: int, value) -> bytearray:
    damaged = bytearray(image)
    struct.pack_into(fmt, damaged, offset, value)
    return damaged


#: Header byte offsets: magic, version, header size, total size, then
#: the generation.
_VERSION_AT = 8
_GENERATION_AT = 24
_FINGERPRINT_AT = disk._HEADER.size - 72


def bootstrap_into(graph, snapshot):
    """Bootstrap a replica of ``graph`` from ``snapshot``; its live graph.

    Runs the replica's whole bootstrap (worker thread, write lock)
    inside one event loop and closes the host afterwards.
    """
    host = ReplicaHost("fig1", graph)
    try:
        asyncio.run(host.bootstrap(snapshot))
        return host.graph
    finally:
        host.close()


class TestSnapshot:
    def mutated_graph(self) -> IncrementalEntityGraph:
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
        return graph

    def test_roundtrip_preserves_fingerprint_and_generation(self):
        graph = self.mutated_graph()
        source = graph.entity_graph
        restored = bootstrap_into(
            build_fig1_graph(), snapshot_text(source)
        ).entity_graph
        assert graph_fingerprint(restored) == graph_fingerprint(source)
        assert restored.generation == graph.generation
        assert list(restored.entities()) == list(source.entities())
        assert restored.entity_types() == source.entity_types()
        assert restored.relationship_types() == source.relationship_types()
        assert list(restored.relationships()) == list(source.relationships())

    def test_restored_graph_extends_identically(self):
        """Post-restore mutations produce the same state as the original.

        This is the property replication actually needs: a replica
        bootstrapped from a snapshot then fed deltas must land on the
        writer's exact graph, so the restore must preserve every bit of
        order-sensitive internal state the scorers can observe.
        """
        graph = self.mutated_graph()
        restored = bootstrap_into(
            build_fig1_graph(), snapshot_text(graph.entity_graph)
        )
        for target in (graph, restored):
            apply_mutation(target, "entity", ("POST SNAP", ["ARCHITECT", "POST TYPE"]))
            apply_mutation(
                target,
                "relationship",
                ("POST SNAP", "Will Smith", "Mentors", "ARCHITECT", "FILM ACTOR"),
            )
        assert restored.generation == graph.generation
        assert graph_fingerprint(graph.entity_graph) == graph_fingerprint(
            restored.entity_graph
        )
        assert restored.entity_graph.entity_types() == graph.entity_graph.entity_types()
        assert list(restored.entity_graph.relationships()) == list(
            graph.entity_graph.relationships()
        )

    def test_fingerprint_tamper_is_rejected(self):
        """A resealed image whose header pins another graph never loads."""
        image = bytearray(encode_store(self.mutated_graph().entity_graph))
        tampered = ("sha256:" + "0" * 64).encode("ascii").ljust(72, b"\x00")
        image[_FINGERPRINT_AT:_FINGERPRINT_AT + 72] = tampered
        with pytest.raises(ReplicationError, match="fingerprint mismatch"):
            bootstrap_into(build_fig1_graph(), encoded(reseal(image)))

    def test_older_snapshot_never_rewinds_the_replica(self):
        ahead = self.mutated_graph()
        generation = ahead.generation
        host = ReplicaHost("fig1", ahead)
        try:
            with pytest.raises(ReplicationError, match="older than the replica"):
                asyncio.run(host.bootstrap(snapshot_text(build_fig1_graph())))
            assert host.graph is ahead
            assert host.graph.generation == generation
            assert host.replication_stats()["snapshots"] == 0
        finally:
            host.close()

    def test_writer_ships_its_store_image(self):
        """Behind the window, the stream's second line is the snapshot."""
        writer_host = WriterHost("fig1", build_fig1_graph(), window=1)
        writer = run_in_background(WriterService({"fig1": writer_host}))
        try:
            with ServeClient(port=writer.port, dataset="fig1") as client:
                for index in range(3):
                    client.mutate_entity(f"SHIPPED {index}", ["FILM ACTOR"])
            with socket.create_connection(("127.0.0.1", writer.port)) as sock:
                sock.sendall(
                    encode_frame(
                        {
                            "op": "subscribe",
                            "id": 1,
                            "dataset": "fig1",
                            "params": {"from_generation": 0},
                        }
                    )
                )
                stream = sock.makefile("rb")
                ack = json.loads(stream.readline())
                frame = json.loads(stream.readline())
            assert ack["result"]["snapshot"] is True
            assert frame["stream"] == "snapshot"
            image = base64.b64decode(frame["snapshot"], validate=True)
            assert image == encode_store(writer_host.graph.entity_graph)
        finally:
            writer.stop()

    @pytest.mark.parametrize(
        "corrupt",
        [
            # Each JSON-codec case's store-image counterpart.
            lambda image: encoded(b"NOTSTORE" + image[8:]),
            lambda image: encoded(with_field(image, "<I", _VERSION_AT, 99)),
            lambda image: {"entities": "not a list"},
            lambda image: "not base64: the snapshot is text!",
            lambda image: encoded(image[: len(image) // 2]),
            lambda image: encoded(
                image[:-1] + bytes([image[-1] ^ 0x01])
            ),
            # A generation behind the adds the restore replays.
            lambda image: encoded(
                reseal(with_field(image, "<Q", _GENERATION_AT, 1))
            ),
        ],
    )
    def test_malformed_snapshots_raise(self, corrupt):
        """A damaged snapshot frame never reaches the replica's graph."""
        writer_graph = self.mutated_graph()
        frame = {
            "stream": "snapshot",
            "snapshot": corrupt(encode_store(writer_graph.entity_graph)),
        }
        host = ReplicaHost("fig1", build_fig1_graph())
        service = ReplicaService({"fig1": host}, upstream=("127.0.0.1", 9))
        before = host.graph
        fingerprint = graph_fingerprint(before.entity_graph)
        generation = host.graph.generation
        try:
            with pytest.raises(ReplicationError):
                asyncio.run(service._consume_frame(host, frame))
            assert host.graph is before
            assert host.graph.generation == generation
            assert graph_fingerprint(host.graph.entity_graph) == fingerprint
            assert host.replication_stats()["snapshots"] == 0
        finally:
            host.close()


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
        servers = []
        try:
            writer_host = WriterHost(self.DATASET, build_fig1_graph())
            writer = run_in_background(
                WriterService({self.DATASET: writer_host})
            )
            servers.append(writer)

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
