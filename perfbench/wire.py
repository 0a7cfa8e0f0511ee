"""``serve-hot`` and ``serve-churn``: the preview service over a socket.

The server is the ``repro-preview serve --store`` CLI in its own
process (started through :mod:`perfbench.launcher` in traced runs, so
spans are recorded inside it).  One load-generator thread keeps one
request in flight on one connection and sends rounds of ops in order.
A round is one pass over a :func:`repro.workload.generate_trace`
segment: ``serve-hot`` repeats its read-only segment verbatim;
``serve-churn`` repeats its segment with every trace-created entity and
spike type renamed per round, so each round makes the same kinds of
writes into the same types.  ``--seed`` shuffles the reads within each
run of consecutive reads, which leaves the graph state every read sees
unchanged.  Request frames are encoded before the clock starts;
responses are decoded and checked after it stops, against digests of
the serial from-scratch replay (:func:`repro.workload.record_digests`).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets import generate_domain
from repro.serve.protocol import encode_frame
from repro.store import build_store
from repro.workload import WorkloadTrace, generate_trace, payload_digest, record_digests
from repro.workload.generator import ScenarioSpec

from . import layers
from . import spans as spanlib
from .common import (
    END_TO_END_UNITS, OUT, ROOT, SETUP_PASSES, SRC, WRONG_DIGEST, Placement, Rounds, metric,
    peak_rss_mb, server_env,
)

DOMAIN = "film"
SCALE = 1000
#: Generation seed of the domain and the trace segment (the CLI default).
DATA_SEED = 0
STARTUP_TIMEOUT = 120.0
REQUEST_TIMEOUT = 60.0


@dataclasses.dataclass(frozen=True)
class Shape:
    """How one serve workload generates and replays its rounds."""

    spec: ScenarioSpec
    #: Ops per round: the length of the generated segment.
    round_ops: int
    #: Rounds of request frames prepared; the window ends early if a
    #: run sends them all.  A read-only segment is sent cyclically.
    rounds: int
    tail_pct: float

    @property
    def cyclic(self) -> bool:
        return self.spec.mutate_rate == 0.0


SHAPES = {
    # Read-only Zipf previews and sweeps: after warm-up every request is
    # a response-cache hit answered on the service's fast path.
    "serve-hot": Shape(
        spec=ScenarioSpec(
            name="serve-hot", mutate_rate=0.0, stats_rate=0.0, sweep_rate=0.2,
            zipf_exponent=1.1, query_pool=48,
        ),
        round_ops=2000, rounds=1, tail_pct=99.0,
    ),
    # ~40% writes in bursts of 4 (2% of them add a new entity type)
    # beside Zipf previews and sweeps: every dirtying write forces
    # recomputation through the incremental pipeline.  The skew makes
    # about a quarter of all ops repeat a read since the last write (a
    # response-cache hit), which puts the median op inside the
    # populous write class rather than on its edge.
    "serve-churn": Shape(
        spec=ScenarioSpec(
            name="serve-churn", mutate_rate=0.57, burst_length=4,
            structural_rate=0.02, relationship_rate=0.5, sweep_rate=0.15,
            stats_rate=0.0, zipf_exponent=1.4, query_pool=16,
        ),
        round_ops=500, rounds=60, tail_pct=98.0,
    ),
}

_HEAD = b'{"id": '


class Server:
    """One ``repro-preview serve --store`` process on an ephemeral port."""

    def __init__(self, store: Path, spans_path: Optional[Path] = None) -> None:
        args = ["serve", "--store", str(store), "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            launcher = ROOT / "perfbench" / "launcher.py"
            command = [sys.executable, str(launcher), str(spans_path), *args]
        self._log = open(OUT / "server.log", "ab")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=server_env(), cwd=str(ROOT)
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT)
        line = self.proc.stdout.readline().decode("utf-8", "replace") if ready else ""
        match = re.search(r" on [^ ]+:(\d+) ", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start (see {OUT / 'server.log'}): {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait for the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Connection:
    """One blocking JSON-line connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def call(self, frame: bytes) -> bytes:
        self.sock.sendall(frame)
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def stats(self) -> Dict[str, object]:
        response = json.loads(self.call(encode_frame({"op": "stats", "id": "stats"})))
        return response["result"]

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _request_key(op) -> Tuple[str, str]:
    return op.op, json.dumps(op.params, sort_keys=True)


def _renamed(params: Dict[str, object], round_no: int) -> Dict[str, object]:
    """Mutation params for round ``round_no``: trace-created names made fresh."""
    params = dict(params)
    for field in ("entity", "source", "target"):
        if str(params.get(field, "")).startswith("wl-"):
            params[field] = f"{params[field]}.r{round_no}"
    if "types" in params:
        params["types"] = [
            f"{name} R{round_no:03d}" if " WL SPIKE " in name else name
            for name in params["types"]
        ]
    return params


def rounds_trace(shape: Shape) -> WorkloadTrace:
    """The generated segment repeated ``shape.rounds`` times, writes renamed per round."""
    segment = generate_trace(
        domain=DOMAIN, scale=SCALE, seed=DATA_SEED, ops=shape.round_ops, scenario=shape.spec
    )
    ops = [
        dataclasses.replace(op, params=_renamed(op.params, r)) if op.op == "mutate" else op
        for r in range(shape.rounds)
        for op in segment.ops
    ]
    return dataclasses.replace(segment, ops=tuple(ops))


def send_order(trace: WorkloadTrace, round_ops: int, seed: int) -> List[int]:
    """Per sent position, the trace position whose op is sent there.

    Reads are shuffled within each run of consecutive reads (the same
    shuffle every round); writes keep their places.
    """
    rng = random.Random(seed)
    within = list(range(round_ops))
    start = 0
    while start < round_ops:
        end = start
        while end < round_ops and trace.ops[end].op != "mutate":
            end += 1
        run = within[start:end]
        rng.shuffle(run)
        within[start:end] = run
        start = end + 1
    return [base + i for base in range(0, len(trace.ops), round_ops) for i in within]


def frame_tails(trace: WorkloadTrace, order: Sequence[int]) -> List[bytes]:
    """Per sent op, its request frame after the id: ``b', "op": ..., "params": ...}\\n'``."""
    tails = {}
    for position in set(order):
        op = trace.ops[position]
        tails[position] = b", " + encode_frame({"op": op.op, "params": op.params})[1:]
    return [tails[position] for position in order]


def distinct_reads(trace: WorkloadTrace, round_ops: int) -> List[int]:
    """Positions of the first ask of every distinct read of the first round."""
    seen = set()
    positions = []
    for position, op in enumerate(trace.ops[:round_ops]):
        if op.op != "mutate" and _request_key(op) not in seen:
            seen.add(_request_key(op))
            positions.append(position)
    return positions


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------
def _serial_chunk(text: str, skip: int) -> List[Optional[str]]:
    """Serial-replay digests of a sub-trace, minus its first ``skip`` ops."""
    recorded = record_digests(WorkloadTrace.loads(text), path="serial")
    return [op.digest for op in recorded.ops[skip:]]


def _replay_chunks(chunks: Sequence[Tuple[str, int]]) -> List[Optional[str]]:
    """Serial-replay digests of ``(trace text, skip)`` chunks, concatenated.

    Each chunk replays at the same time in a child process of its own
    (``python3 -m perfbench.wire IN OUT``), through files, so no pipe
    can stall a child.  Every child is waited for on every path out,
    and no multiprocessing helper (a resource tracker) outlives the run.
    """
    work = OUT / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    children = []
    try:
        for i, (text, skip) in enumerate(chunks):
            source = work / f"oracle-{os.getpid()}-{i}.json"
            target = source.with_suffix(".out")
            source.write_text(json.dumps({"trace": text, "skip": skip}))
            command = [sys.executable, "-m", "perfbench.wire", str(source), str(target)]
            children.append(
                (subprocess.Popen(command, env=server_env(), cwd=str(ROOT)), source, target)
            )
        digests: List[Optional[str]] = []
        for child, _, target in children:
            if child.wait() != 0:
                raise RuntimeError(f"oracle replay exited with code {child.returncode}")
            digests.extend(json.loads(target.read_text()))
        return digests
    finally:
        for child, source, target in children:
            if child.poll() is None:
                child.kill()
                child.wait()
            source.unlink(missing_ok=True)
            target.unlink(missing_ok=True)


def _chunk_trace(trace: WorkloadTrace, start: int, end: int) -> Tuple[str, int]:
    """Ops ``[start, end)`` preceded by every earlier mutation."""
    prefix = tuple(op for op in trace.ops[:start] if op.op == "mutate")
    sub = dataclasses.replace(trace, ops=prefix + trace.ops[start:end])
    return sub.dumps(), len(prefix)


def _reduced(trace: WorkloadTrace) -> Tuple[WorkloadTrace, List[int]]:
    """Every write plus the first ask of each read per run of reads.

    Returns the reduced trace and, per position of ``trace``, the index
    of the op in the reduced trace whose payload it must match: a read
    repeated before the next write sees the same graph.
    """
    kept: List = []
    index_of: List[int] = []
    seen: Dict[Tuple[str, str], int] = {}
    for op in trace.ops:
        if op.op == "mutate":
            seen = {}
            index_of.append(len(kept))
            kept.append(op)
            continue
        key = _request_key(op)
        if key not in seen:
            seen[key] = len(kept)
            kept.append(op)
        index_of.append(seen[key])
    return dataclasses.replace(trace, ops=tuple(kept)), index_of


def _sources_digest() -> str:
    """sha256 over the package sources, paths and contents."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def oracle_digests(trace: WorkloadTrace, positions: Sequence[int]) -> Dict[int, Optional[str]]:
    """Serial-replay digest of the op at each of ``positions`` of ``trace``.

    Digests depend only on the trace and the code, never on ``--seed``,
    so they are cached under ``.perfbench_out/oracle``, keyed by trace
    content and a digest of the package sources, and extended when a
    run gets further.  The cache file is replaced atomically.  New ops
    replay in two chunks in parallel, the second starting from the
    graph the first chunk's writes leave.
    """
    reduced, index_of = _reduced(trace)
    upto = max(index_of[p] for p in positions) + 1
    key = hashlib.sha256(reduced.dumps().encode())
    key.update(_sources_digest().encode())
    cache = OUT / "oracle" / (key.hexdigest() + ".json")
    known: List[Optional[str]] = json.loads(cache.read_text()) if cache.exists() else []
    if len(known) < upto:
        start = len(known)
        reads = [i for i in range(start, upto) if reduced.ops[i].op != "mutate"]
        middle = reads[len(reads) // 2] if reads else upto
        bounds = [(a, b) for a, b in ((start, middle), (middle, upto)) if b > a]
        known.extend(_replay_chunks([_chunk_trace(reduced, a, b) for a, b in bounds]))
        cache.parent.mkdir(parents=True, exist_ok=True)
        partial = cache.with_suffix(".partial")
        partial.write_text(json.dumps(known))
        partial.replace(cache)
    return {p: known[index_of[p]] for p in positions}


def canonical(op, body: bytes):
    """The serve replayer's per-op payload of one response, or None if failed."""
    if body.startswith(b"!"):
        response = json.loads(body[1:])
        error = response.get("error") or {}
        if not response.get("ok") and op.op == "preview" and error.get("code") == "infeasible":
            return {"result": None}
        return None
    result = json.loads(_HEAD + b"0, " + body)["result"]
    if op.op == "preview":
        return {"result": result["result"]}
    if op.op == "sweep":
        return {"results": result["results"]}
    return result


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------
class Drive:
    """What one timed window on the wire produced."""

    def __init__(self, tail_pct: float) -> None:
        self.rounds = Rounds(tail_pct)
        #: (sent position, response body) -> times seen.
        self.seen: Counter = Counter()
        self.broken: Optional[str] = None
        self.start_ns = 0
        self.end_ns = 0


def drive(conn: Connection, server: Server, tails: Sequence[bytes], shape: Shape,
          seconds: float, first_id: int, recorder=None) -> Drive:
    """Closed loop: send ops in trace order until ``seconds`` have passed.

    Rounds end only on a round boundary, so every round is the same
    work.  The load generator and the server share one CPU per round
    (see :class:`Placement`).  Each response is kept as raw bytes (id
    stripped) for the check after the window.
    """
    result = Drive(shape.tail_pct)
    count = len(tails)
    latencies: List[float] = []
    seq = first_id
    position = 0
    placement = Placement([server.proc.pid])
    gc.collect()
    result.start_ns = time.perf_counter_ns()
    deadline = time.perf_counter() + seconds
    try:
        placement.next_round()
        round_began = time.perf_counter()
        while shape.cyclic or position < count:
            id_bytes = str(seq).encode("ascii")
            frame = _HEAD + id_bytes + tails[position % count]
            if recorder is not None:
                recorder.request = seq
                span = recorder.begin("op")
            began = time.perf_counter()
            try:
                line = conn.call(frame)
            except OSError as exc:
                result.broken = f"op {position}: {exc!r}"
                result.seen[position % count, b"!{}"] += 1
                break
            ended = time.perf_counter()
            if recorder is not None:
                recorder.end(span)
            prefix = _HEAD + id_bytes + b", "
            body = line[len(prefix):] if line.startswith(prefix) else b"!" + line
            result.seen[position % count, body] += 1
            latencies.append(ended - began)
            seq += 1
            position += 1
            if len(latencies) == shape.round_ops:
                result.rounds.add(latencies, ended - round_began)
                latencies = []
                if ended >= deadline:
                    break
                placement.next_round()
                round_began = time.perf_counter()
        if latencies and not result.rounds.latencies:
            result.rounds.add(latencies, time.perf_counter() - round_began)
    finally:
        placement.release()
    result.end_ns = time.perf_counter_ns()
    return result


def verify(trace: WorkloadTrace, order: Sequence[int], result: Drive,
           expected: Dict[int, Optional[str]]) -> Tuple[int, int]:
    """(failed ops, infeasible answers) of a window, checked against ``expected``."""
    failed = infeasible = 0
    for (sent, body), times in result.seen.items():
        position = order[sent]
        try:
            payload = canonical(trace.ops[position], body)
        except (ValueError, KeyError, TypeError):
            payload = None
        if payload is None or payload_digest(payload) != expected[position]:
            failed += times
        elif body.startswith(b"!"):
            infeasible += times
    return failed, infeasible


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def setup_pass(store: Path, warm: Sequence[bytes], spans_path=None):
    """Raw inputs -> warm server: generate, store, start, warm up."""
    build_store(generate_domain(DOMAIN, scale=SCALE, seed=DATA_SEED), store)
    server = Server(store, spans_path)
    try:
        conn = Connection(server.port)
        for i, tail in enumerate(warm):
            conn.call(_HEAD + str(10**9 + i).encode("ascii") + tail)
    except BaseException:
        server.stop()
        raise
    return server, conn


def setup(store, warm, passes, spans_path=None):
    """``passes`` timed set-up passes; the last server stays up."""
    durations = []
    for i in range(passes):
        began = time.perf_counter()
        server, conn = setup_pass(store, warm, spans_path if i == passes - 1 else None)
        durations.append(time.perf_counter() - began)
        if i < passes - 1:
            conn.close()
            server.stop()
    return durations, server, conn


def _stats_delta(after, before) -> Dict[str, object]:
    a, b = after["datasets"][0], before["datasets"][0]
    engine = layers.counter_delta(a["engine"], b["engine"])
    return {
        "engine": engine,
        "engine_after": a["engine"],
        "plan": layers.counter_delta(a["engine"]["plan_decisions"], b["engine"]["plan_decisions"]),
        "responses_hits": a["responses"]["hits"] - b["responses"]["hits"],
        "service": layers.counter_delta(after["service"], before["service"]),
    }


def run(name: str, seed: int, seconds: float, trace_run: bool, corrupt: bool = False,
        setup_passes: Optional[int] = None):
    """One run of a serve workload: ``(summary, record, recorders)``."""
    shape = SHAPES[name]
    trace = rounds_trace(shape)
    order = send_order(trace, shape.round_ops, seed)
    tails = frame_tails(trace, order)
    # Warm-up asks every distinct read once in trace order, so the
    # engine state it leaves does not depend on the seed.
    warm = frame_tails(trace, distinct_reads(trace, shape.round_ops))
    store = OUT / f"{name}-{seed}.rgs"
    OUT.mkdir(exist_ok=True)
    passes = setup_passes or SETUP_PASSES
    record: Dict[str, object] = {"inputs": _inputs(trace, shape)}
    recorders: List[spanlib.Recorder] = []
    drives: List[Drive] = []
    recorder = None
    if trace_run:
        durations, server, conn = setup(store, warm, 1)
        try:
            drives.append(drive(conn, server, tails, shape, seconds / 2, 0))
        finally:
            conn.close()
            server.stop()
        recorder = spanlib.Recorder()
        installation = spanlib.install(recorder)
        spans_path = OUT / f"{name}-{seed}-server-spans.json"
        try:
            setup_start = time.perf_counter_ns()
            durations, server, conn = setup(store, warm, 1, spans_path)
            setup_end = time.perf_counter_ns()
        finally:
            installation.uninstall()
    else:
        durations, server, conn = setup(store, warm, passes)
    try:
        before = conn.stats()
        timed = drive(conn, server, tails, shape, seconds / 2 if trace_run else seconds,
                      10**6, recorder)
        drives.append(timed)
        after = conn.stats()
        rss = peak_rss_mb(server.proc.pid)
    finally:
        conn.close()
        server.stop()
    expected = oracle_digests(trace, sorted({order[sent] for d in drives for sent, _ in d.seen}))
    if corrupt:
        expected[order[0]] = WRONG_DIGEST
    failed = infeasible = 0
    for result in drives:
        f, i = verify(trace, order, result, expected)
        failed += f
        infeasible += i
    attempted = sum(sum(d.seen.values()) for d in drives)
    delta = _stats_delta(after, before)
    record.update(
        setup_s_passes=durations,
        rounds=timed.rounds.describe(),
        stats_delta=delta,
        broken=[d.broken for d in drives if d.broken],
        rss_mb=rss,
        rss_of="server process (VmHWM)",
    )
    if trace_run:
        server_recorder = spanlib.load(spans_path)
        recorders = [recorder, server_recorder]
        metrics = _per_layer(
            trace, order, timed, drives[0], recorder, server_recorder,
            (recorder, setup_start, setup_end), delta, infeasible,
        )
    else:
        values = dict(timed.rounds.metrics(), setup_s=statistics.median(durations),
                      peak_rss_mb=rss)
        metrics = {n: metric(values[n], unit) for n, unit in END_TO_END_UNITS.items()}
    summary = {
        "correct": failed == 0 and not record["broken"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return summary, record, recorders


def _per_layer(trace, order, timed: Drive, untraced: Drive, client, server, setup_window,
               delta, infeasible):
    start, end = timed.start_ns, timed.end_ns
    ops = timed.rounds.ops
    roots = [client.spans[i] for i in spanlib.window(client.spans, start, end)
             if client.spans[i][spanlib.LAYER] == "op"]
    top = [server.spans[i] for i in spanlib.window(server.spans, start, end)
           if server.spans[i][spanlib.PARENT] is None]
    host: Dict[object, int] = Counter()
    for span in top:
        if span[spanlib.LAYER] == "serve.host":
            host[span[spanlib.REQUEST]] += span[spanlib.END] - span[spanlib.START]
    wire = [
        (span[spanlib.END] - span[spanlib.START]) - host.get(span[spanlib.REQUEST], 0)
        for span in roots
    ]
    round_trip = sum(span[spanlib.END] - span[spanlib.START] for span in roots)
    covered = sum(span[spanlib.END] - span[spanlib.START] for span in top)
    host_totals = spanlib.layer_totals(
        server.spans, spanlib.window(server.spans, start, end)
    )["serve.host"]
    reads = sum(
        times for (sent, _), times in timed.seen.items()
        if trace.ops[order[sent]].op != "mutate"
    )
    service = delta["service"]
    engine = dict(delta["engine"])
    engine["results"] = delta["engine_after"]["results"]
    engine["profile_groups"] = delta["engine_after"]["profile_groups"]
    return layers.per_layer_metrics(
        ops=ops,
        timed=[(client, start, end), (server, start, end)],
        setup=setup_window,
        kernel={"batches": engine.get("kernel_batches", 0),
                "subsets": engine.get("kernel_subsets", 0)},
        engine=engine,
        plan=delta["plan"],
        gc_window=(server, start, end),
        untraced_share=1.0 - covered / round_trip if round_trip else 0.0,
        overhead=untraced.rounds.metrics()["ops_per_s"] / timed.rounds.metrics()["ops_per_s"],
        serve={
            "wire_ms_p50": statistics.median(wire) / 1e6 if wire else 0.0,
            "fast_path_share": delta["responses_hits"] / reads if reads else 0.0,
            "wait_ms": host_totals["self_ns"] / 1e6 / max(1, ops),
            "errors": service.get("errors", 0) - infeasible,
        },
    )


def _inputs(trace: WorkloadTrace, shape: Shape) -> Dict[str, object]:
    graph = generate_domain(DOMAIN, scale=SCALE, seed=trace.seed)
    first = trace.ops[: shape.round_ops]
    mix = Counter(op.op for op in first)
    structural = sum(
        1 for op in first
        if op.op == "mutate" and op.params.get("entity", "").startswith("wl-spike")
    )
    return {
        "domain": DOMAIN,
        "scale": SCALE,
        "entities": graph.entity_count,
        "relationships": graph.edge_count,
        "round_ops": shape.round_ops,
        "rounds_prepared": shape.rounds,
        "cyclic": shape.cyclic,
        "previews_per_round": mix["preview"],
        "sweeps_per_round": mix["sweep"],
        "writes_per_round": mix["mutate"],
        "structural_writes_per_round": structural,
        "distinct_requests": len(distinct_reads(trace, shape.round_ops)),
        "tail_percentile": shape.tail_pct,
        "scenario": trace.scenario,
    }


def _chunk_main(argv: Sequence[str]) -> int:
    """Oracle child: replay the chunk in file ``argv[0]``, write digests to ``argv[1]``."""
    source, target = argv
    chunk = json.loads(Path(source).read_text())
    Path(target).write_text(json.dumps(_serial_chunk(chunk["trace"], chunk["skip"])))
    return 0


if __name__ == "__main__":
    sys.exit(_chunk_main(sys.argv[1:]))
