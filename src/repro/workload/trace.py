"""The versioned JSONL workload-trace format.

A *workload trace* is one realistic session against a served dataset,
written down: a header line naming the dataset (a built-in domain plus
its generation parameters, so every replayer can rebuild the identical
starting graph) followed by one line per operation, in arrival order.
Operation lines reuse the serving layer's wire-params shapes verbatim —
a trace op's ``params`` dict is exactly what a
:class:`~repro.serve.ServeClient` would put in a request frame, and the
direct replayers parse it with the same
:func:`~repro.serve.parse_query`/:func:`~repro.serve.parse_mutation`
functions the service uses — so one format drives both the in-process
engines and the real socket path.

.. code-block:: text

    {"kind": "repro-workload", "version": 1, "dataset": {...}, ...}
    {"op": "mutate", "client": 0, "params": {"kind": "entity", ...}}
    {"op": "preview", "client": 1, "params": {"k": 2, "n": 5}, "digest": "sha256:..."}
    {"op": "stats", "client": 0}

Each op line may carry a ``digest`` — the SHA-256 of the *canonical
payload JSON* the op produced when it was recorded (see
:func:`payload_digest`).  A replayer that reproduces every digest has
reproduced the recorded payloads byte-for-byte; the differential oracle
(:mod:`repro.workload.oracle`) additionally compares the digests across
execution paths at every step.

The format is versioned: :data:`TRACE_VERSION` bumps on any
incompatible change, and :func:`WorkloadTrace.loads` rejects traces it
cannot faithfully replay.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from ..exceptions import WorkloadError

#: Identifies a trace file's first line (guards against feeding the
#: replayer an arbitrary JSONL file).
TRACE_KIND = "repro-workload"

#: Current trace-format version; bumped on incompatible changes.
TRACE_VERSION = 1

#: Operations a trace may contain.  ``preview``/``sweep``/``mutate``
#: carry serve-shaped ``params``; ``stats`` is a zero-param accounting
#: probe whose payload is *path-specific* and therefore sanity-checked
#: rather than diffed (see :mod:`repro.workload.replay`).
TRACE_OPS = ("mutate", "preview", "sweep", "stats")


def canonical_payload(payload: Any) -> str:
    """The canonical JSON text of one op payload.

    Compact separators and sorted keys make equal payloads textually
    identical, so digest equality means byte-identical payloads.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """``sha256:<hex>`` over :func:`canonical_payload` of ``payload``."""
    digest = hashlib.sha256(canonical_payload(payload).encode("utf-8"))
    return f"sha256:{digest.hexdigest()}"


@dataclass(frozen=True)
class TraceOp:
    """One operation of a workload trace.

    Attributes
    ----------
    op:
        Member of :data:`TRACE_OPS`.
    params:
        The serve-shaped parameter dict (empty for ``stats``).
    client:
        Logical client id (drives the serve replayer's
        connection-per-client mapping; the trace order is the total
        order regardless).
    affinity:
        Replica-affinity hint for replicated deployments: the router
        pins ops sharing an affinity value to the same replica, which
        is what makes cross-client read-after-write ordering visible
        (two clients on different replicas observe a write at
        different times unless a generation token is used).  None
        means unpinned; replayers fall back to ``client``.
    digest:
        Expected payload digest recorded at capture time, or None.
    """

    op: str
    params: Dict[str, Any] = field(default_factory=dict)
    client: int = 0
    digest: Optional[str] = None
    affinity: Optional[int] = None

    def to_record(self) -> Dict[str, Any]:
        """The JSON record of this op (one trace line)."""
        record: Dict[str, Any] = {"op": self.op, "client": self.client}
        if self.params:
            record["params"] = self.params
        if self.affinity is not None:
            record["affinity"] = self.affinity
        if self.digest is not None:
            record["digest"] = self.digest
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any], line: int) -> "TraceOp":
        """Validate one decoded op line into a :class:`TraceOp`.

        Raises
        ------
        WorkloadError
            For an unknown op or malformed field (with the 1-based line
            number, so a hand-edited trace fails with a usable message).
        """
        op = record.get("op")
        if op not in TRACE_OPS:
            raise WorkloadError(
                f"trace line {line}: unknown op {op!r} "
                f"(expected one of {', '.join(TRACE_OPS)})"
            )
        params = record.get("params", {})
        if not isinstance(params, dict):
            raise WorkloadError(f"trace line {line}: 'params' must be an object")
        client = record.get("client", 0)
        if not isinstance(client, int) or isinstance(client, bool) or client < 0:
            raise WorkloadError(
                f"trace line {line}: 'client' must be a non-negative integer"
            )
        affinity = record.get("affinity")
        if affinity is not None and (
            not isinstance(affinity, int)
            or isinstance(affinity, bool)
            or affinity < 0
        ):
            raise WorkloadError(
                f"trace line {line}: 'affinity' must be a non-negative integer"
            )
        digest = record.get("digest")
        if digest is not None and not isinstance(digest, str):
            raise WorkloadError(f"trace line {line}: 'digest' must be a string")
        return cls(
            op=op, params=params, client=client, digest=digest, affinity=affinity
        )


@dataclass(frozen=True)
class WorkloadTrace:
    """One recorded workload: the dataset identity plus the op sequence.

    Attributes
    ----------
    domain, scale, seed:
        :func:`~repro.datasets.generate_domain` parameters of the
        starting graph — every replay path rebuilds a private identical
        copy from these, so mutations in the trace apply cleanly.
    key_scorer, nonkey_scorer:
        Scoring measures every replay path uses.
    scenario:
        Free-form provenance of the generator (scenario name and knobs);
        not consumed by replay.
    ops:
        The operations, in arrival order.
    """

    domain: str
    scale: int
    seed: int
    ops: Tuple[TraceOp, ...]
    key_scorer: str = "coverage"
    nonkey_scorer: str = "coverage"
    scenario: Dict[str, Any] = field(default_factory=dict)
    #: Content digest of the starting graph
    #: (:func:`~repro.datasets.graph_fingerprint`); replayers verify
    #: their regenerated copy against it before replaying, so a drifted
    #: domain generator fails as a dataset mismatch, not as opaque
    #: payload divergence.  None = unpinned (fingerprint check skipped).
    fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mutation_count(self) -> int:
        """How many ops are mutations."""
        return sum(1 for op in self.ops if op.op == "mutate")

    @property
    def read_count(self) -> int:
        """How many ops are previews or sweeps."""
        return sum(1 for op in self.ops if op.op in ("preview", "sweep"))

    def has_digests(self) -> bool:
        """True when every diffable op carries a recorded digest."""
        return all(
            op.digest is not None for op in self.ops if op.op != "stats"
        )

    def with_digests(self, digests: Sequence[Optional[str]]) -> "WorkloadTrace":
        """A copy whose ops carry ``digests`` (positionally aligned).

        Raises
        ------
        WorkloadError
            If ``digests`` is not aligned with the op list.
        """
        if len(digests) != len(self.ops):
            raise WorkloadError(
                f"digest list has {len(digests)} entries for {len(self.ops)} ops"
            )
        ops = tuple(
            replace(op, digest=digest) for op, digest in zip(self.ops, digests)
        )
        return replace(self, ops=ops)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def header(self) -> Dict[str, Any]:
        """The header record (first JSONL line) of this trace."""
        dataset: Dict[str, Any] = {
            "domain": self.domain,
            "scale": self.scale,
            "seed": self.seed,
        }
        if self.fingerprint is not None:
            dataset["fingerprint"] = self.fingerprint
        return {
            "kind": TRACE_KIND,
            "version": TRACE_VERSION,
            "dataset": dataset,
            "scorers": {
                "key": self.key_scorer,
                "nonkey": self.nonkey_scorer,
            },
            "scenario": self.scenario,
            "ops": len(self.ops),
        }

    def dumps(self) -> str:
        """The full JSONL text (header line + one line per op)."""
        lines = [canonical_payload(self.header())]
        lines.extend(canonical_payload(op.to_record()) for op in self.ops)
        return "\n".join(lines) + "\n"

    def dump(self, path) -> None:
        """Write the JSONL text to ``path``.

        Raises
        ------
        WorkloadError
            When the file cannot be written (bad directory, permission)
            — symmetric with :meth:`load`, so CLI callers keep their
            clean ``error: ...`` contract.
        """
        file_path = Path(path)
        try:
            file_path.write_text(self.dumps(), encoding="utf-8")
        except OSError as exc:
            raise WorkloadError(f"cannot write trace {file_path}: {exc}") from exc

    @classmethod
    def loads(cls, text: str) -> "WorkloadTrace":
        """Parse and validate one JSONL trace.

        Raises
        ------
        WorkloadError
            For an empty document, a non-trace header, an unsupported
            version, or any malformed line.
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise WorkloadError("trace is empty (no header line)")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"trace header is not JSON: {exc}") from exc
        if not isinstance(header, dict) or header.get("kind") != TRACE_KIND:
            raise WorkloadError(
                f"not a workload trace (header 'kind' must be {TRACE_KIND!r})"
            )
        version = header.get("version")
        if version != TRACE_VERSION:
            raise WorkloadError(
                f"unsupported trace version {version!r} "
                f"(this build replays version {TRACE_VERSION})"
            )
        dataset = header.get("dataset")
        if not isinstance(dataset, dict):
            raise WorkloadError("trace header lacks a 'dataset' object")
        try:
            domain = dataset["domain"]
            scale = dataset["scale"]
            seed = dataset["seed"]
        except KeyError as exc:
            raise WorkloadError(f"trace dataset lacks {exc}") from exc
        if not isinstance(domain, str):
            raise WorkloadError("trace dataset 'domain' must be a string")
        for name, value in (("scale", scale), ("seed", seed)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise WorkloadError(f"trace dataset {name!r} must be an integer")
        fingerprint = dataset.get("fingerprint")
        if fingerprint is not None and not isinstance(fingerprint, str):
            raise WorkloadError("trace dataset 'fingerprint' must be a string")
        scorers = header.get("scorers", {})
        if not isinstance(scorers, dict):
            raise WorkloadError("trace header 'scorers' must be an object")
        scenario = header.get("scenario", {})
        if not isinstance(scenario, dict):
            raise WorkloadError("trace header 'scenario' must be an object")
        ops = []
        for index, text_line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(text_line)
            except json.JSONDecodeError as exc:
                raise WorkloadError(f"trace line {index} is not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise WorkloadError(f"trace line {index} must be a JSON object")
            ops.append(TraceOp.from_record(record, index))
        declared = header.get("ops")
        if isinstance(declared, int) and declared != len(ops):
            # A truncated file would otherwise replay (and "conform")
            # vacuously on whatever prefix survived.
            raise WorkloadError(
                f"trace is truncated or padded: header declares {declared} "
                f"ops but {len(ops)} op lines are present"
            )
        return cls(
            domain=domain,
            scale=scale,
            seed=seed,
            ops=tuple(ops),
            key_scorer=scorers.get("key", "coverage"),
            nonkey_scorer=scorers.get("nonkey", "coverage"),
            scenario=scenario,
            fingerprint=fingerprint,
        )

    @classmethod
    def load(cls, path) -> "WorkloadTrace":
        """Read and parse the JSONL trace at ``path``.

        Raises
        ------
        WorkloadError
            When the file does not exist, is not valid UTF-8 (the
            message names the byte offset and line of the first bad
            byte), or fails validation.
        """
        file_path = Path(path)
        try:
            data = file_path.read_bytes()
        except OSError as exc:
            raise WorkloadError(f"cannot read trace {file_path}: {exc}") from exc
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise WorkloadError(
                f"trace {file_path} is not valid UTF-8: byte "
                f"0x{data[exc.start]:02x} at offset {exc.start} (line {line})"
            ) from exc
        return cls.loads(text)
