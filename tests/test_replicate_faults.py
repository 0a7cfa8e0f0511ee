"""Fault injection for the replication tier.

Every scenario here breaks the writer→replica stream in a way a real
deployment would — a replica killed mid-stream that rejoins cold, a
transport that delays and reorders delta frames, a writer restart, a
subscriber too slow to keep up, a stream line longer than the replica
accepts — and then asserts what the tier promises: a tokened replica
read never returns a stale payload, after convergence replica reads
are **byte-identical** to the writer's, and the stats surface tells the
true story (snapshot bootstraps, resyncs and kicks are counted; lag
returns to zero).

All scenarios run over real sockets; the reordering proxy is a real TCP
proxy thread, not a monkeypatched queue.
"""

from __future__ import annotations

import base64
import importlib.util
import json
import logging
import socket
import threading
import time
from pathlib import Path

import pytest

_conftest_spec = importlib.util.spec_from_file_location(
    "_replicate_fault_fixtures", Path(__file__).with_name("conftest.py")
)
_conftest = importlib.util.module_from_spec(_conftest_spec)
_conftest_spec.loader.exec_module(_conftest)
build_fig1_graph = _conftest.build_fig1_graph

from repro.datasets import graph_fingerprint
from repro.exceptions import ServeRequestError
from repro.replicate import (
    ReplicaHost,
    ReplicaService,
    WriterHost,
    WriterService,
)
from repro.serve import ServeClient, encode_frame, run_in_background
from repro.store import encode_store

DATASET = "fig1"

#: A read every scenario replays on both sides of the topology.
PROBE = {"k": 2, "n": 5}


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.05):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    pytest.fail(f"condition not reached within {timeout}s: {predicate}")


def make_writer(**host_kwargs):
    host = WriterHost(DATASET, build_fig1_graph(), **host_kwargs)
    server = run_in_background(WriterService({DATASET: host}))
    return host, server


def make_replica(upstream_port: int):
    host = ReplicaHost(DATASET, build_fig1_graph())
    server = run_in_background(
        ReplicaService({DATASET: host}, upstream=("127.0.0.1", upstream_port))
    )
    return host, server


def replication_of(client: ServeClient) -> dict:
    """The probe dataset's replication stats block."""
    datasets = client.stats()["datasets"]
    (entry,) = [d for d in datasets if d["dataset"] == DATASET]
    return entry["replication"]


def assert_reads_identical(writer_port: int, replica_port: int, token: int):
    """The tokened probe answers byte-for-byte alike on both hosts."""
    params = dict(PROBE, min_generation=token)
    with ServeClient(port=writer_port, dataset=DATASET) as writer_client:
        expected = writer_client.call("preview", params)
    with ServeClient(port=replica_port, dataset=DATASET) as replica_client:
        actual = replica_client.call("preview", params)
    assert canonical(actual) == canonical(expected)
    assert actual["generation"] >= token


# ----------------------------------------------------------------------
# Scenario 1: replica killed mid-stream, rejoins from a snapshot
# ----------------------------------------------------------------------
class TestSnapshotRejoin:
    def test_cold_rejoin_bootstraps_from_snapshot(self):
        # A tiny retention window guarantees the rejoining replica's
        # baseline has fallen behind the horizon, forcing the snapshot
        # path rather than a delta backlog.
        writer_host, writer = make_writer(window=2)
        base = writer_host.graph.generation
        servers = [writer]
        try:
            first_host, first = make_replica(writer.port)
            servers.append(first)
            with ServeClient(port=writer.port, dataset=DATASET) as client:
                for index in range(2):
                    client.mutate_entity(f"PRE KILL {index}", ["FILM ACTOR"])
            wait_until(lambda: first_host.graph.generation == base + 2)

            # Kill the replica mid-stream; the writer keeps mutating far
            # past what its window retains.
            first.stop()
            servers.remove(first)
            with ServeClient(port=writer.port, dataset=DATASET) as client:
                for index in range(5):
                    client.mutate_entity(
                        f"POST KILL {index}", ["FILM ACTOR", f"SPIKE {index}"]
                    )
            assert writer_host.replication_horizon > base + 2

            # The rejoining replica starts cold (baseline = the built
            # graph's generation, behind the horizon) and must converge
            # via snapshot bootstrap.
            second_host, second = make_replica(writer.port)
            servers.append(second)
            wait_until(
                lambda: second_host.graph.generation
                == writer_host.graph.generation
            )
            assert graph_fingerprint(
                second_host.graph.entity_graph
            ) == graph_fingerprint(writer_host.graph.entity_graph)

            with ServeClient(port=second.port, dataset=DATASET) as client:
                replication = replication_of(client)
            assert replication["snapshots"] == 1
            assert replication["lag"] == 0
            assert replication["generation"] == writer_host.graph.generation
            assert_reads_identical(
                writer.port, second.port, writer_host.graph.generation
            )
        finally:
            for server in reversed(servers):
                server.stop()


# ----------------------------------------------------------------------
# Scenario 2: delta frames delayed and reordered by a flaky proxy
# ----------------------------------------------------------------------
class ReorderProxy:
    """A TCP proxy that reverses server→client lines in windows of 3.

    The client→server direction (the subscribe request) passes through
    verbatim.  Stream lines from the writer are buffered and flushed in
    reversed windows — with a short idle flush so a partial window
    (e.g. the acknowledgement alone) is merely *delayed*, not lost.
    """

    WINDOW = 3
    IDLE_FLUSH_SECONDS = 0.2
    #: Bound on the wait for the proxy's threads in :meth:`close`.
    JOIN_SECONDS = 5.0

    def __init__(self, upstream_port: int) -> None:
        self.upstream_port = upstream_port
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        # Guards _closing, _sockets and _threads between the accept
        # thread and close().
        self._lock = threading.Lock()
        self._closing = False
        self._sockets = [self._listener]
        self._threads = []
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._threads.append(accept)

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # close() shut the listener down
            upstream = socket.create_connection(
                ("127.0.0.1", self.upstream_port)
            )
            with self._lock:
                if self._closing:
                    client.close()
                    upstream.close()
                    return
                self._sockets += [client, upstream]
                for target, args in (
                    (self._pump_verbatim, (client, upstream)),
                    (self._pump_reordered, (upstream, client)),
                ):
                    thread = threading.Thread(
                        target=target, args=args, daemon=True
                    )
                    thread.start()
                    self._threads.append(thread)

    def _pump_verbatim(self, source: socket.socket, sink: socket.socket):
        try:
            while True:
                chunk = source.recv(65536)
                if not chunk:
                    break
                sink.sendall(chunk)
        except OSError:
            pass

    def _pump_reordered(self, source: socket.socket, sink: socket.socket):
        source.settimeout(self.IDLE_FLUSH_SECONDS)
        window: list = []
        buffer = b""
        try:
            while True:
                try:
                    chunk = source.recv(65536)
                    if not chunk:
                        break
                except socket.timeout:
                    chunk = b""
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    window.append(line + b"\n")
                # Full windows flush reversed; idle flushes whatever is
                # pending (still reversed — a delayed, shuffled wire).
                if len(window) >= self.WINDOW or (not chunk and window):
                    sink.sendall(b"".join(reversed(window)))
                    window.clear()
            if window:
                sink.sendall(b"".join(reversed(window)))
        except OSError:
            pass
        finally:
            for sock in (source, sink):
                try:
                    sock.close()
                except OSError:
                    pass

    def close(self) -> None:
        """Stop the proxy and join its threads (bounded wait).

        Closing a listening socket from another thread does not wake an
        ``accept()`` blocked on it on Linux, so every socket is shut down
        first: the accept loop then fails and each pump reads EOF.
        """
        with self._lock:
            self._closing = True
            sockets = list(self._sockets)
            threads = list(self._threads)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by a pump
            sock.close()
        deadline = time.monotonic() + self.JOIN_SECONDS
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))


class TestReorderedDeltas:
    def test_reordered_stream_converges_without_resync(self):
        writer_host, writer = make_writer()
        proxy = ReorderProxy(writer.port)
        servers = [writer]
        try:
            replica_host, replica = make_replica(proxy.port)
            servers.append(replica)
            with ServeClient(port=writer.port, dataset=DATASET) as client:
                for index in range(7):
                    client.mutate_entity(
                        f"REORDER {index}", ["FILM ACTOR", f"RT {index}"]
                    )
                token = writer_host.graph.generation
            wait_until(lambda: replica_host.graph.generation == token)

            with ServeClient(port=replica.port, dataset=DATASET) as client:
                replication = replication_of(client)
            # Order was restored by buffering, not by tearing the
            # subscription down: every delta applied, zero resyncs,
            # zero snapshots.
            assert replication["applied"] == 7
            assert replication["resyncs"] == 0
            assert replication["snapshots"] == 0
            assert replication["lag"] == 0
            assert_reads_identical(writer.port, replica.port, token)
        finally:
            proxy.close()
            for server in reversed(servers):
                server.stop()

    def test_close_stops_every_proxy_thread(self):
        """No proxy thread outlives close(), the blocked accept included."""
        upstream = socket.create_server(("127.0.0.1", 0))
        proxy = ReorderProxy(upstream.getsockname()[1])
        try:
            with socket.create_connection(("127.0.0.1", proxy.port)):
                wait_until(lambda: len(proxy._threads) == 3)
                proxy.close()
                alive = [thread for thread in proxy._threads if thread.is_alive()]
        finally:
            upstream.close()
        assert alive == []


# ----------------------------------------------------------------------
# Scenario 3: writer restart
# ----------------------------------------------------------------------
class TestWriterRestart:
    def test_replica_resyncs_across_writer_restart(self):
        writer_host, writer = make_writer()
        base = writer_host.graph.generation
        port = writer.port
        servers = [writer]
        try:
            replica_host, replica = make_replica(port)
            servers.append(replica)
            mutations = [(f"RESTART {i}", ["FILM ACTOR", f"GEN {i}"]) for i in range(3)]
            with ServeClient(port=port, dataset=DATASET) as client:
                for entity, types in mutations:
                    client.mutate_entity(entity, types)
            wait_until(lambda: replica_host.graph.generation == base + 3)

            # The writer dies.  The replica is now ahead of the *new*
            # writer until the operator replays the mutation prefix —
            # its subscription must keep retrying (resync), never
            # serve wrong data, and reattach once the writer catches
            # back up.
            writer.stop()
            servers.remove(writer)
            restarted_host = WriterHost(DATASET, build_fig1_graph())
            restarted = run_in_background(
                WriterService({DATASET: restarted_host}), port=port
            )
            servers.append(restarted)
            with ServeClient(port=port, dataset=DATASET) as client:
                for entity, types in mutations:
                    client.mutate_entity(entity, types)
                client.mutate_entity("POST RESTART", ["FILM ACTOR"])
                token = restarted_host.graph.generation
            assert token == base + 4

            wait_until(lambda: replica_host.graph.generation == token)
            assert graph_fingerprint(
                replica_host.graph.entity_graph
            ) == graph_fingerprint(restarted_host.graph.entity_graph)
            with ServeClient(port=replica.port, dataset=DATASET) as client:
                replication = replication_of(client)
            assert replication["resyncs"] >= 1
            assert replication["lag"] == 0
            assert_reads_identical(port, replica.port, token)
        finally:
            for server in reversed(servers):
                server.stop()


# ----------------------------------------------------------------------
# Scenario 4: slow replica backpressure (Redis-style kick)
# ----------------------------------------------------------------------
class BoundedWriterService(WriterService):
    """A writer whose per-subscriber buffers are tiny, so a slow
    subscriber hits its bounded queue within a handful of mutations
    instead of megabytes of kernel buffering."""

    STREAM_HIGH_WATER = 0
    STREAM_SNDBUF = 4096


class TestSlowReplicaBackpressure:
    def test_queue_overflow_kicks_subscriber_without_stalling_writer(self):
        writer_host = WriterHost(DATASET, build_fig1_graph(), queue_size=2)
        writer = run_in_background(BoundedWriterService({DATASET: writer_host}))
        servers = [writer]
        slow = None
        try:
            # A healthy replica rides along: the kick must be surgical.
            replica_host, replica = make_replica(writer.port)
            servers.append(replica)
            wait_until(
                lambda: replication_stats_subscribers(writer_host) == 1
            )

            # The slow subscriber: subscribes with a tiny receive
            # buffer, reads the acknowledgement, then stops reading.
            slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.connect(("127.0.0.1", writer.port))
            slow.sendall(
                encode_frame(
                    {
                        "op": "subscribe",
                        "id": 1,
                        "dataset": DATASET,
                        "params": {
                            "from_generation": writer_host.graph.generation
                        },
                    }
                )
            )
            slow_file = slow.makefile("rb")
            ack = json.loads(slow_file.readline())
            assert ack["ok"] and ack["result"]["snapshot"] is False
            wait_until(
                lambda: replication_stats_subscribers(writer_host) == 2
            )

            # Mutate until the slow subscriber's bounded queue
            # overflows.  Every mutate returns promptly — the writer
            # never blocks on the laggard.  The queue bound applies to
            # every subscriber, so the healthy replica catches up
            # before the next mutation: only the laggard may overflow.
            kicked_at = None
            with ServeClient(port=writer.port, dataset=DATASET) as client:
                for index in range(400):
                    client.mutate_entity(
                        f"FLOOD {index}", ["FILM ACTOR", f"FT {index % 7}"]
                    )
                    if writer_host.replication_stats()["kicked"]:
                        kicked_at = index + 1
                        break
                    wait_until(
                        lambda: replica_host.graph.generation
                        == writer_host.graph.generation,
                        interval=0.001,
                    )
                token = writer_host.graph.generation
            assert kicked_at is not None, "slow subscriber was never kicked"

            stats = writer_host.replication_stats()
            assert stats["kicked"] == 1
            assert stats["subscribers"] == 1  # only the healthy replica

            # The healthy replica was unaffected: fully caught up and
            # byte-identical.
            wait_until(lambda: replica_host.graph.generation == token)
            with ServeClient(port=replica.port, dataset=DATASET) as client:
                replication = replication_of(client)
            assert replication["lag"] == 0
            assert replication["resyncs"] == 0
            assert_reads_identical(writer.port, replica.port, token)

            # Once the laggard finally drains its socket it finds the
            # kick notice: deltas, then ``lagging``, then EOF.
            slow.settimeout(10.0)
            saw_lagging = False
            while True:
                line = slow_file.readline()
                if not line:
                    break
                frame = json.loads(line)
                if frame.get("stream") == "lagging":
                    saw_lagging = True
                    break
            assert saw_lagging
        finally:
            if slow is not None:
                slow.close()
            for server in reversed(servers):
                server.stop()


def replication_stats_subscribers(host: WriterHost) -> int:
    return host.replication_stats()["subscribers"]


# ----------------------------------------------------------------------
# Scenario 5: an upstream line longer than the replica's stream limit
# ----------------------------------------------------------------------
class TinyLimitReplicaService(ReplicaService):
    """A replica whose stream limit every fig1 snapshot frame exceeds."""

    STREAM_LIMIT = 1024
    RECONNECT_SECONDS = 0.05


class TestOverLimitLine:
    def test_over_limit_line_resyncs_and_never_serves_stale(
        self, caplog, monkeypatch
    ):
        caplog.set_level(logging.WARNING, logger="repro.replicate.replica")
        writer_host, writer = make_writer(window=2)
        servers = [writer]
        try:
            with ServeClient(port=writer.port, dataset=DATASET) as client:
                for index in range(5):
                    client.mutate_entity(
                        f"OVER LIMIT {index}", ["FILM ACTOR", f"OL {index}"]
                    )
            token = writer_host.graph.generation
            snapshot = base64.b64encode(
                encode_store(writer_host.graph.entity_graph)
            )
            assert len(snapshot) > TinyLimitReplicaService.STREAM_LIMIT

            # Every subscribe past the horizon makes the writer encode its
            # whole graph: count those captures.
            captures = []

            def counting_encode_store(graph):
                captures.append(time.monotonic())
                return encode_store(graph)

            monkeypatch.setattr(
                "repro.replicate.writer.encode_store", counting_encode_store
            )

            # The replica starts behind the writer's window, so every
            # subscribe answers with a snapshot line over its limit.
            replica_host = ReplicaHost(DATASET, build_fig1_graph())
            replica_host.REPLICA_WAIT_SECONDS = 0.3
            base = replica_host.graph.generation
            service = TinyLimitReplicaService(
                {DATASET: replica_host}, upstream=("127.0.0.1", writer.port)
            )
            started = time.monotonic()
            replica = run_in_background(service)
            servers.append(replica)

            # The subscription task survives each over-limit line and
            # keeps resyncing, counted in stats.
            wait_until(lambda: replica_host.replication_stats()["resyncs"] >= 3)
            resyncs = replica_host.replication_stats()["resyncs"]
            (task,) = service._subscriptions
            assert not task.done()
            assert replica_host.graph.generation == base
            assert any(
                "stream limit" in record.getMessage() for record in caplog.records
            )

            # A tokened read never observes the stale graph: it waits,
            # then answers ``lagging``.
            with ServeClient(port=replica.port, dataset=DATASET) as client:
                with pytest.raises(ServeRequestError) as excinfo:
                    client.call("preview", dict(PROBE, min_generation=token))
                assert excinfo.value.code == "lagging"
                replication = replication_of(client)
            assert replication["resyncs"] >= 3
            assert replication["snapshots"] == 0

            # The replica backs off: the delay doubles after each pass
            # that applied no frame, so the writer captures a handful of
            # times in 3 s instead of once per RECONNECT_SECONDS.
            time.sleep(max(0.0, started + 3.0 - time.monotonic()))
            assert len([t for t in captures if t < started + 3.0]) <= 7
            assert replica_host.replication_stats()["resyncs"] > resyncs
            assert not task.done()
        finally:
            for server in reversed(servers):
                server.stop()
