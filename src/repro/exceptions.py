"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Errors raised by the graph substrate (``repro.graph``)."""


class NodeNotFoundError(GraphError):
    """A referenced node does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node not found: {node!r}")
        self.node = node


class ModelError(ReproError):
    """Errors raised by the entity-graph data model (``repro.model``)."""


class UnknownEntityError(ModelError):
    """A referenced entity does not exist in the entity graph."""

    def __init__(self, entity: object) -> None:
        super().__init__(f"unknown entity: {entity!r}")
        self.entity = entity


class UnknownTypeError(ModelError):
    """A referenced entity type does not exist in the entity graph."""

    def __init__(self, type_name: object) -> None:
        super().__init__(f"unknown entity type: {type_name!r}")
        self.type_name = type_name


class UnknownRelationshipTypeError(ModelError):
    """A referenced relationship type does not exist in the schema graph."""

    def __init__(self, rel_type: object) -> None:
        super().__init__(f"unknown relationship type: {rel_type!r}")
        self.rel_type = rel_type


class SchemaViolationError(ModelError):
    """A relationship contradicts an established relationship-type signature.

    The paper (Sec. 2) requires the type of a relationship to determine the
    types of its two end entities; the builder enforces this.
    """


class StoreError(ReproError):
    """Errors raised by dataset storage (``repro.store``)."""


class PersistenceError(StoreError):
    """A dataset file could not be read or written."""


class DiskStoreError(StoreError):
    """A binary store file is unreadable, corrupt or untrustworthy.

    Raised by :mod:`repro.store.disk` for every corruption shape —
    truncation, a bad magic/version, section bounds outside the file,
    dangling dictionary offsets, a checksum mismatch, or a materialized
    graph whose fingerprint no longer matches the header — so a damaged
    store file always fails loudly instead of materializing bad data.
    """


class ScoringError(ReproError):
    """Errors raised by scoring measures (``repro.scoring``)."""


class UnknownScorerError(ScoringError):
    """A scorer name was not found in the scorer registry."""

    def __init__(self, name: str, available: tuple) -> None:
        super().__init__(
            f"unknown scorer {name!r}; available: {', '.join(sorted(available))}"
        )
        self.name = name
        self.available = available


class KernelError(ScoringError):
    """Errors raised by the batched scoring kernel (``repro.kernel``).

    Raised when ``REPRO_KERNEL`` names an unknown backend, or when the
    requested backend's optional dependency (numpy) is unavailable.
    """


class PlanError(ReproError):
    """Errors raised by the execution planner (``repro.plan``).

    Raised when ``REPRO_PLAN`` (or ``use_mode``) names an unknown mode.
    """


class DiscoveryError(ReproError):
    """Errors raised by preview discovery (``repro.core``)."""


class InvalidConstraintError(DiscoveryError):
    """A size or distance constraint is malformed or unsatisfiable."""


class InfeasiblePreviewError(DiscoveryError):
    """No preview satisfies the given constraints.

    Raised, for example, when a diverse preview with ``k`` tables is
    requested but no ``k`` entity types are pairwise at distance ``>= d``.
    """


class ServeError(ReproError):
    """Errors raised by the preview-table service (``repro.serve``)."""


class ProtocolError(ServeError):
    """A wire frame violates the JSON-line protocol.

    Carries the machine-readable error ``code`` the service reports back
    to the client (see ``docs/serving.md`` for the full code table).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ReplicationError(ServeError):
    """Errors raised by the replication tier (``repro.replicate``).

    Covers malformed delta records on the wire, a snapshot frame that
    is not base64 or whose store image fails any
    :class:`DiskStoreError` check, over-limit stream lines, and
    attempts to rewind a mutation log's generation counter.
    """


class ServeRequestError(ServeError):
    """A request was rejected by the service (client-side view).

    Raised by :class:`~repro.serve.ServeClient` convenience methods when
    the server answers with an error response; ``code`` holds the
    protocol error code (``"infeasible"``, ``"timeout"``, ...).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class WorkloadError(ReproError):
    """Errors raised by the workload subsystem (``repro.workload``).

    Covers malformed or version-incompatible trace files, misconfigured
    scenario generators, and replay accounting violations (a replay
    path whose ``cache_info()``/coalescer counters stop being sane).
    """


class ConfigError(ReproError):
    """Errors raised by the environment-knob registry (``repro.config``).

    Raised when code reads an undeclared ``REPRO_*`` variable or a
    declared knob carries a malformed value.
    """


class LintError(ReproError):
    """Errors raised by the static invariant checker (``repro.lint``).

    Covers unreadable inputs, malformed suppression files and invalid
    rule registrations — not lint *findings*, which are data
    (:class:`repro.lint.Finding`), never exceptions.
    """


class EvaluationError(ReproError):
    """Errors raised by the evaluation harness (``repro.eval``)."""


class DatasetError(ReproError):
    """Errors raised by dataset generators and loaders (``repro.datasets``)."""
