"""The preview-table service: protocol, coalescing, admission, edge cases.

Every service test drives the *real* socket path — a
:class:`PreviewService` bound to an ephemeral port on a background
thread, spoken to through :class:`ServeClient` (or raw sockets, for the
frames a well-behaved client would never send).  The edge cases the
ISSUE names are all here: malformed JSON frames, oversized requests,
client disconnect mid-computation, mutation/query interleaving over the
socket, and coalesced-request identity.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

import importlib.util
from pathlib import Path

# Loaded by path: plain ``from conftest import ...`` would collide with
# benchmarks/conftest.py when the whole repo is collected in one run.
_conftest_spec = importlib.util.spec_from_file_location(
    "_serve_test_fixtures", Path(__file__).with_name("conftest.py")
)
_conftest = importlib.util.module_from_spec(_conftest_spec)
_conftest_spec.loader.exec_module(_conftest)
build_fig1_graph = _conftest.build_fig1_graph

from repro.core import brute_force_discover
from repro.core.registry import (
    register_discovery_algorithm,
    unregister_discovery_algorithm,
)
from repro.core.serialize import result_to_dict
from repro.engine import PreviewEngine, PreviewQuery
from repro.exceptions import ProtocolError, ServeError, ServeRequestError
from repro.ext import IncrementalEntityGraph
from repro.model import RelationshipTypeId
from repro.serve import (
    EngineHost,
    PreviewService,
    ReadWriteLock,
    RequestCoalescer,
    ServeClient,
    apply_mutation,
    decode_frame,
    encode_frame,
    error_response,
    parse_mutation,
    parse_request,
    run_in_background,
)

#: Sleep of the deliberately slow test algorithm (long enough that a
#: second client provably arrives while the first computation is in
#: flight, short enough to keep the suite fast).
SLOW_SECONDS = 0.4


@contextmanager
def fig1_server(**service_kwargs):
    """A fresh service over a private Fig. 1 graph, torn down after."""
    host = EngineHost("fig1", build_fig1_graph())
    service = PreviewService({"fig1": host}, **service_kwargs)
    server = run_in_background(service)
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture
def slow_algorithm():
    """Register a sleeping brute-force clone for concurrency tests."""

    @register_discovery_algorithm("serve-slow", shapes=("concise", "tight", "diverse"))
    def _slow(context, size, distance=None):
        time.sleep(SLOW_SECONDS)
        return brute_force_discover(context, size, distance)

    yield "serve-slow"
    unregister_discovery_algorithm("serve-slow")


# ----------------------------------------------------------------------
# Protocol units (no sockets)
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip_is_key_sorted(self):
        frame = encode_frame({"op": "health", "id": 3})
        assert frame == b'{"id": 3, "op": "health"}\n'
        assert decode_frame(frame) == {"id": 3, "op": "health"}

    def test_decode_rejects_non_json_and_non_objects(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"not json\n")
        assert exc.value.code == "bad-frame"
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"[1, 2]\n")
        assert exc.value.code == "bad-frame"

    def test_decode_rejects_oversized(self):
        from repro.serve import MAX_FRAME_BYTES

        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))
        assert exc.value.code == "oversized"

    def test_parse_request_validation(self):
        request = parse_request({"op": "preview", "id": "a", "params": {"k": 1}})
        assert (request.op, request.id, request.params) == ("preview", "a", {"k": 1})
        for payload, code in (
            ({}, "bad-request"),
            ({"op": 7}, "bad-request"),
            ({"op": "noop"}, "unknown-op"),
            ({"op": "preview", "dataset": 9}, "bad-request"),
            ({"op": "preview", "params": []}, "bad-request"),
        ):
            with pytest.raises(ProtocolError) as exc:
                parse_request(payload)
            assert exc.value.code == code

    def test_unmapped_error_code_becomes_internal(self):
        response = error_response(1, "no-such-code", "boom")
        assert response["error"]["code"] == "internal"

    @pytest.mark.parametrize(
        "params",
        [
            {"kind": "entity", "entity": "Ali", "types": ["FILM", "BIOPIC"]},
            {
                "kind": "relationship",
                "source": "Peter Berg",
                "target": "I, Robot",
                "name": "Director",
                "source_type": "FILM DIRECTOR",
                "target_type": "FILM",
            },
        ],
        ids=["entity", "relationship"],
    )
    def test_one_mutation_applier_for_plain_and_live_graphs(self, params):
        """The service, replication and replay paths share one applier."""
        from repro.datasets import graph_fingerprint

        plain = build_fig1_graph()
        live = IncrementalEntityGraph(base=build_fig1_graph())
        kind, fields = parse_mutation(params)
        generation = apply_mutation(plain, kind, fields)
        assert generation == plain.generation == build_fig1_graph().generation + 1
        assert apply_mutation(live, kind, fields) == generation
        assert graph_fingerprint(live.entity_graph) == graph_fingerprint(plain)


# ----------------------------------------------------------------------
# Async primitives
# ----------------------------------------------------------------------
class TestReadWriteLock:
    def test_writer_excludes_readers_and_is_not_starved(self):
        events = []

        async def scenario():
            lock = ReadWriteLock()
            reader_entered = asyncio.Event()
            release_reader = asyncio.Event()

            async def reader(name, gate=None):
                async with lock.read_locked():
                    events.append(f"{name}-in")
                    reader_entered.set()
                    if gate is not None:
                        await gate.wait()
                    events.append(f"{name}-out")

            async def writer():
                await reader_entered.wait()
                async with lock.write_locked():
                    events.append("writer")

            first = asyncio.ensure_future(reader("r1", release_reader))
            write = asyncio.ensure_future(writer())
            await asyncio.sleep(0.05)  # writer now queued behind r1
            late = asyncio.ensure_future(reader("r2"))
            await asyncio.sleep(0.05)
            # Writer preference: r2 must not slip in ahead of the writer.
            assert "r2-in" not in events
            release_reader.set()
            await asyncio.gather(first, write, late)

        asyncio.run(scenario())
        assert events == ["r1-in", "r1-out", "writer", "r2-in", "r2-out"]


class TestRequestCoalescer:
    def test_identical_keys_share_one_computation(self):
        async def scenario():
            coalescer = RequestCoalescer()
            runs = []

            async def compute():
                runs.append(1)
                await asyncio.sleep(0.05)
                return {"value": 42}

            results = await asyncio.gather(
                *(coalescer.run("key", compute) for _ in range(5))
            )
            assert len(runs) == 1
            assert all(result is results[0] for result in results)
            stats = coalescer.stats()
            assert stats["leaders"] == 1
            assert stats["coalesced"] == 4
            assert stats["inflight"] == 0

        asyncio.run(scenario())

    def test_shared_failure_reaches_every_waiter(self):
        async def scenario():
            coalescer = RequestCoalescer()

            async def explode():
                await asyncio.sleep(0.05)
                raise ValueError("shared boom")

            results = await asyncio.gather(
                *(coalescer.run("key", explode) for _ in range(3)),
                return_exceptions=True,
            )
            assert len(results) == 3
            assert all(isinstance(result, ValueError) for result in results)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# The socket path
# ----------------------------------------------------------------------
class TestService:
    def test_health_errors_and_unknown_dataset(self):
        with fig1_server() as server, ServeClient(port=server.port) as client:
            assert client.health() == {"status": "ok", "datasets": ["fig1"]}
            response = client.request("preview", {"k": 1, "n": 1}, dataset="nope")
            assert response["ok"] is False
            assert response["error"]["code"] == "unknown-dataset"
            raw = client.send_raw(b'{"op": "reboot", "id": 9}\n')
            assert raw["error"]["code"] == "unknown-op"
            assert raw["id"] == 9

    def test_preview_matches_direct_engine_bit_for_bit(self):
        direct = PreviewEngine(build_fig1_graph())
        with fig1_server() as server, ServeClient(port=server.port) as client:
            for k, n, d, mode in ((1, 1, None, "tight"), (2, 4, None, "tight"),
                                  (2, 4, 2, "tight"), (2, 6, 2, "diverse")):
                served = client.preview(k=k, n=n, d=d, mode=mode)
                expected = direct.run(PreviewQuery(k=k, n=n, d=d, mode=mode))
                assert served["result"] == result_to_dict(expected)

    def test_sweep_matches_per_point_results(self):
        direct = PreviewEngine(build_fig1_graph())
        with fig1_server() as server, ServeClient(port=server.port) as client:
            served = client.sweep(k=2, ns=[2, 4, 6], d=2, mode="tight")
            for n, point in zip([2, 4, 6], served["results"]):
                query = PreviewQuery(k=2, n=n, d=2, mode="tight")
                if point is None:
                    with pytest.raises(Exception):
                        direct.run(query)
                else:
                    assert point == result_to_dict(direct.run(query))

    def test_malformed_frame_leaves_connection_usable(self):
        with fig1_server() as server, ServeClient(port=server.port) as client:
            for garbage in (b"}{ nope\n", b'"just a string"\n', b"[]\n"):
                response = client.send_raw(garbage)
                assert response["ok"] is False
                assert response["error"]["code"] == "bad-frame"
            # The framing survived: a well-formed request still answers.
            assert client.preview(k=1, n=1)["result"]["tables"]

    def test_oversized_request_answers_then_closes(self):
        with fig1_server(max_frame=512) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b'{"op": "health", "pad": "' + b"x" * 4096 + b'"}\n')
                response = decode_frame(reader.readline())
                assert response["error"]["code"] == "oversized"
                assert reader.readline() == b""  # server closed the stream
            # The service itself survived the connection.
            with ServeClient(port=server.port) as client:
                assert client.health()["status"] == "ok"

    def test_invalid_and_infeasible_queries(self):
        with fig1_server() as server, ServeClient(port=server.port) as client:
            with pytest.raises(ServeRequestError) as exc:
                client.preview(k=3, n=2)
            assert exc.value.code == "invalid-query"
            with pytest.raises(ServeRequestError) as exc:
                client.preview(k=2, n=4, d=9, mode="diverse")
            assert exc.value.code == "infeasible"
            response = client.request("preview", {"k": "two", "n": 4})
            assert response["error"]["code"] == "bad-request"

    def test_mutation_query_interleaving_over_the_socket(self):
        replica = IncrementalEntityGraph(base=build_fig1_graph())
        with fig1_server() as server, ServeClient(port=server.port) as client:
            before = client.preview(k=2, n=4)
            assert before["result"] == result_to_dict(
                replica.engine().run(PreviewQuery(k=2, n=4))
            )
            generation = client.mutate_entity("Bad Boys", ["FILM"])["generation"]
            replica.add_entity("Bad Boys", ["FILM"])
            assert generation == replica.generation
            generation = client.mutate_relationship(
                "Will Smith", "Bad Boys", "Actor", "FILM ACTOR", "FILM"
            )["generation"]
            replica.add_relationship(
                "Will Smith",
                "Bad Boys",
                RelationshipTypeId("Actor", "FILM ACTOR", "FILM"),
            )
            assert generation == replica.generation
            after = client.preview(k=2, n=4)
            assert after["generation"] == generation
            assert after["result"] == result_to_dict(
                replica.engine().run(PreviewQuery(k=2, n=4))
            )
            # A schema-violating mutation maps to invalid-query.
            with pytest.raises(ServeRequestError) as exc:
                client.mutate_relationship(
                    "Bad Boys", "Will Smith", "Actor", "FILM ACTOR", "FILM"
                )
            assert exc.value.code == "invalid-query"

    @pytest.mark.parametrize(
        "params",
        [
            {"kind": "entity", "entity": "bad\udc80", "types": ["FILM"]},
            {"kind": "entity", "entity": "Bad Boys", "types": ["FILM\udc80"]},
            {
                "kind": "relationship", "source": "Will Smith", "target": "Men in Black",
                "name": "Actor\udc80", "source_type": "FILM ACTOR", "target_type": "FILM",
            },
        ],
        ids=["entity", "type", "relationship"],
    )
    def test_mutation_with_a_name_that_is_not_utf8_is_rejected(self, params):
        """A lone surrogate is valid JSON, but no store, fingerprint or
        dataset file can hold it: the write must not land."""
        with fig1_server() as server, ServeClient(port=server.port) as client:
            generation = client.preview(k=2, n=4)["generation"]
            response = client.request("mutate", params)
            assert response["error"]["code"] == "bad-request"
            assert "UTF-8" in response["error"]["message"]
            assert client.preview(k=2, n=4)["generation"] == generation

    def test_stop_returns_promptly_with_an_idle_client_connected(self):
        """Regression: since Python 3.12 ``Server.wait_closed`` waits for
        every connection, so closing the server before cancelling the
        connection handlers hung ``stop()`` while any client stayed open."""
        with fig1_server() as server, ServeClient(port=server.port) as client:
            client.health()  # the connection is open, and now idle
            started = time.monotonic()
            server.stop(timeout=5.0)
            assert time.monotonic() - started < 2.0
            assert not server._thread.is_alive()

    def test_coalesced_requests_get_bit_identical_results(self, slow_algorithm):
        with fig1_server() as server:
            barrier = threading.Barrier(2)
            responses = {}

            def ask(name):
                with ServeClient(port=server.port) as client:
                    barrier.wait()
                    responses[name] = client.request(
                        "preview", {"k": 2, "n": 4, "algorithm": slow_algorithm}
                    )

            threads = [
                threading.Thread(target=ask, args=(name,)) for name in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert responses["a"]["ok"] and responses["b"]["ok"]
            # Bit-identical: the serialized result payloads are equal as
            # JSON text, not merely as approximately equal numbers.
            def dumps(r):
                return json.dumps(r["result"], sort_keys=True)

            assert dumps(responses["a"]) == dumps(responses["b"])

            with ServeClient(port=server.port) as client:
                stats = client.stats()["datasets"][0]
            assert stats["coalescer"]["leaders"] == 1
            assert stats["coalescer"]["coalesced"] == 1
            assert stats["engine"]["misses"] == 1  # one computation served both

    def test_client_disconnect_mid_computation(self, slow_algorithm):
        with fig1_server() as server:
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            sock.sendall(encode_frame({
                "op": "preview", "id": 1,
                "params": {"k": 2, "n": 4, "algorithm": slow_algorithm},
            }))
            sock.close()  # gone before the computation lands
            time.sleep(SLOW_SECONDS * 2)
            # The service survived, and the abandoned computation still
            # landed in the host's response cache: the same ask is
            # answered without touching the engine again.
            with ServeClient(port=server.port) as client:
                assert client.health()["status"] == "ok"
                result = client.request(
                    "preview", {"k": 2, "n": 4, "algorithm": slow_algorithm}
                )
                assert result["ok"]
                stats = client.stats()["datasets"][0]
                assert stats["engine"]["misses"] == 1
                assert stats["responses"]["hits"] == 1

    def test_admission_control_rejects_excess_requests(self, slow_algorithm):
        with fig1_server(max_pending=1) as server:
            barrier = threading.Barrier(3)
            codes = []

            def ask(n):
                with ServeClient(port=server.port) as client:
                    barrier.wait()
                    # Distinct budgets: these must not coalesce.
                    response = client.request(
                        "preview",
                        {"k": 2, "n": 3 + n, "algorithm": slow_algorithm},
                    )
                    codes.append(
                        "ok" if response["ok"] else response["error"]["code"]
                    )

            threads = [threading.Thread(target=ask, args=(n,)) for n in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert "ok" in codes
            assert "overloaded" in codes

    def test_request_timeout_answers_instead_of_hanging(self, slow_algorithm):
        with fig1_server(request_timeout=SLOW_SECONDS / 4) as server:
            with ServeClient(port=server.port) as client:
                start = time.monotonic()
                response = client.request(
                    "preview", {"k": 2, "n": 4, "algorithm": slow_algorithm}
                )
                elapsed = time.monotonic() - start
                assert response["ok"] is False
                assert response["error"]["code"] == "timeout"
                assert elapsed < SLOW_SECONDS * 5  # answered, not hung
                # health is instant and the connection still works.
                assert client.health()["status"] == "ok"

    def test_jobs_host_serves_identical_results_via_spawned_pool(self):
        """A jobs>1 host (spawn-based executor) matches the serial answer."""
        host = EngineHost("fig1", build_fig1_graph(), jobs=2)
        service = PreviewService({"fig1": host})
        server = run_in_background(service)
        try:
            direct = PreviewEngine(build_fig1_graph())
            with ServeClient(port=server.port) as client:
                for k, n, d, mode in ((2, 4, 2, "tight"), (2, 6, 2, "diverse")):
                    served = client.preview(k=k, n=n, d=d, mode=mode)
                    expected = direct.run(PreviewQuery(k=k, n=n, d=d, mode=mode))
                    assert served["result"] == result_to_dict(expected)
                swept = client.sweep(k=2, ns=[4, 5], d=2, mode="tight")
                assert all(point for point in swept["results"])
        finally:
            server.stop()

    def test_cli_serve_subcommand_serves_real_clients(self):
        """``repro-preview serve`` binds, serves, and shuts down on SIGINT."""
        import os
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--datasets", "film", "--port", "0", "--scale", "4000",
            ],
            cwd=str(Path(__file__).resolve().parents[1]),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving film on 127.0.0.1:"), banner
            port = int(banner.split(":")[1].split()[0])
            with ServeClient(port=port) as client:
                assert client.health() == {"status": "ok", "datasets": ["film"]}
                assert client.preview(k=2, n=4)["result"]["tables"]
        finally:
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=15) == 0

    def test_background_server_requires_valid_bind(self):
        host = EngineHost("fig1", build_fig1_graph())
        service = PreviewService({"fig1": host})
        with pytest.raises(ServeError):
            run_in_background(service, host="203.0.113.1")  # TEST-NET, unroutable
        host.close()
