"""Fault injection: the serve path under hostile workload conditions.

The conformance tests prove the service agrees with the engines when
clients behave; these tests prove a *misbehaving* client or an
over-capacity burst cannot corrupt it.  Each test replays a recorded
workload trace over the socket while injecting one fault — a client
vanishing mid-computation, admission-control rejections, per-request
timeouts — and then requires (a) the replayed payloads still match the
digests recorded from the direct incremental engine, byte for byte, and
(b) a follow-up ``stats`` op shows sane accounting (coalescer drained,
response cache within bounds, counters consistent).
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core import brute_force_discover
from repro.core.registry import (
    register_discovery_algorithm,
    unregister_discovery_algorithm,
)
from repro.datasets.freebase_like import generate_domain
from repro.exceptions import ServeRequestError
from repro.serve import (
    EngineHost,
    PreviewService,
    ServeClient,
    encode_frame,
    run_in_background,
)
from repro.workload import (
    generate_trace,
    payload_digest,
    record_digests,
    scenario,
)

SLOW_SECONDS = 0.4


@pytest.fixture(scope="module")
def trace():
    """The bursty session every fault is injected into, with its digests.

    Recorded by the direct incremental engine when the first test asks,
    not at import, so a fault there fails this module's tests and
    leaves the rest of the run to report.
    """
    return record_digests(
        generate_trace(
            domain="architecture",
            scale=1000,
            seed=77,
            ops=18,
            scenario=scenario("write-burst", clients=2),
        )
    )


@pytest.fixture
def slow_algorithm():
    """A sleeping brute-force clone, for in-flight/overload windows."""

    @register_discovery_algorithm(
        "workload-slow", shapes=("concise", "tight", "diverse")
    )
    def _slow(context, size, distance=None):
        time.sleep(SLOW_SECONDS)
        return brute_force_discover(context, size, distance)

    yield "workload-slow"
    unregister_discovery_algorithm("workload-slow")


@contextmanager
def trace_server(trace, **service_kwargs):
    """A service hosting a private copy of ``trace``'s starting graph."""
    host = EngineHost(
        trace.domain,
        generate_domain(trace.domain, scale=trace.scale, seed=trace.seed),
        key_scorer=trace.key_scorer,
        nonkey_scorer=trace.nonkey_scorer,
    )
    server = run_in_background(
        PreviewService({trace.domain: host}, **service_kwargs)
    )
    try:
        yield server
    finally:
        server.stop()


def serve_payload(client: ServeClient, op):
    """One trace op over the socket, shaped like the replayers shape it."""
    if op.op == "mutate":
        return client.call("mutate", op.params)
    if op.op == "preview":
        try:
            return {"result": client.call("preview", op.params)["result"]}
        except ServeRequestError as exc:
            if exc.code != "infeasible":
                raise
            return {"result": None}
    if op.op == "sweep":
        return {"results": client.call("sweep", op.params)["results"]}
    return None  # stats


def assert_stats_sane(client: ServeClient) -> dict:
    """The follow-up ``stats`` op: accounting must be internally sane."""
    stats = client.stats()
    dataset = stats["datasets"][0]
    for group in ("engine", "coalescer", "responses"):
        for name, value in dataset[group].items():
            assert not (isinstance(value, int) and value < 0), (group, name, value)
    assert dataset["responses"]["entries"] <= EngineHost.RESPONSE_CACHE_SIZE
    assert dataset["coalescer"]["inflight"] == 0
    service = stats["service"]
    assert service["ok"] + service["errors"] <= service["requests"]
    return stats


def assert_replay_matches(client: ServeClient, ops) -> None:
    """Replay ``ops`` on ``client``; recorded digests must reproduce."""
    for index, op in enumerate(ops):
        payload = serve_payload(client, op)
        if op.digest is not None:
            assert payload_digest(payload) == op.digest, (
                f"op #{index} ({op.op}) diverged from the recorded payload"
            )


class TestWorkloadFaults:
    def test_client_disconnect_mid_trace(self, trace, slow_algorithm):
        """A client dying mid-computation never perturbs the trace."""
        half = len(trace.ops) // 2
        with trace_server(trace) as server:
            with ServeClient(port=server.port, timeout=60) as client:
                assert_replay_matches(client, trace.ops[:half])
            # The replaying client is gone; a rogue one starts a slow
            # computation and vanishes before the answer exists.
            rogue = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            rogue.sendall(encode_frame({
                "op": "preview", "id": 1,
                "params": {"k": 2, "n": 4, "algorithm": slow_algorithm},
            }))
            rogue.close()
            time.sleep(SLOW_SECONDS * 2)  # let the abandoned work land
            with ServeClient(port=server.port, timeout=60) as client:
                assert client.health()["status"] == "ok"
                # The abandoned computation landed in the caches anyway:
                # the same ask is a response-cache hit, not a recompute.
                before = assert_stats_sane(client)["datasets"][0]
                answered = client.request(
                    "preview",
                    {"k": 2, "n": 4, "algorithm": slow_algorithm},
                )
                assert answered["ok"] is True
                after = assert_stats_sane(client)["datasets"][0]
                assert after["engine"]["misses"] == before["engine"]["misses"]
                assert after["responses"]["hits"] > before["responses"]["hits"]
                assert_replay_matches(client, trace.ops[half:])
                assert_stats_sane(client)

    def test_overload_burst_leaves_service_consistent(self, trace, slow_algorithm):
        """Admission rejections under a burst don't corrupt later replay."""
        with trace_server(trace, max_pending=1) as server:
            barrier = threading.Barrier(4)
            codes = []

            def hammer(n):
                with ServeClient(port=server.port, timeout=60) as client:
                    barrier.wait()
                    response = client.request(
                        "preview",
                        {"k": 2, "n": 3 + n, "algorithm": slow_algorithm},
                    )
                    codes.append(
                        "ok" if response["ok"] else response["error"]["code"]
                    )

            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(3)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            for thread in threads:
                thread.join(timeout=30)
            assert "overloaded" in codes, codes
            # The rejected burst is gone; the whole trace still replays
            # byte-identically and the accounting is sane.
            with ServeClient(port=server.port, timeout=60) as client:
                assert_replay_matches(client, trace.ops)
                stats = assert_stats_sane(client)
                assert stats["service"]["rejected"] >= 1

    def test_timeouts_answer_and_caches_stay_consistent(self, trace, slow_algorithm):
        """Timed-out requests answer, later land in cache, stats stay sane."""
        with trace_server(trace, request_timeout=SLOW_SECONDS / 4) as server:
            slow_params = {"k": 2, "n": 4, "algorithm": slow_algorithm}
            with ServeClient(port=server.port, timeout=60) as client:
                response = client.request("preview", slow_params)
                assert response["ok"] is False
                assert response["error"]["code"] == "timeout"
                # The computation the timeout abandoned still completes
                # on the worker thread and lands in the response cache.
                time.sleep(SLOW_SECONDS * 2)
                answered = client.request("preview", slow_params)
                assert answered["ok"] is True
                stats = assert_stats_sane(client)
                assert stats["service"]["timeouts"] >= 1
                before_hits = stats["datasets"][0]["responses"]["hits"]
                # A warm re-ask is served from the response cache: hit
                # accounting moves, the payload is literally identical.
                again = client.request("preview", slow_params)
                assert again["result"] == answered["result"]
                stats = assert_stats_sane(client)
                assert stats["datasets"][0]["responses"]["hits"] > before_hits
            # Ordinary trace ops fit the tight budget: the whole session
            # still replays byte-identically on the same service.
            with ServeClient(port=server.port, timeout=60) as client:
                assert_replay_matches(client, trace.ops)
                assert_stats_sane(client)
