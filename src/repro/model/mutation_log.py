"""The per-generation mutation changelog of an entity graph.

The paper's discovery pipeline assumes a static graph; the ROADMAP's live
workloads do not.  Incremental maintenance needs more than a *count* of
mutations (the seed's ``generation`` integer): every consumer downstream
— scoring contexts, candidate pools, engine memos —
wants to know *which* key types and relationship types a batch of
mutations touched, so it can patch in O(delta) instead of rebuilding in
O(graph).

:class:`MutationLog` records one entry per mutation, each tagged with the
generation it produced, the entity (key) types whose aggregates it
dirtied, the relationship types it touched, and whether it was
*structural*:

* **non-structural** — an entity of an already-known type, or a
  relationship instance of an already-known relationship type.  Schema
  vertices/edges, candidate-list membership ``Γτ``, type distances and
  eligibility are all unchanged; only the *scores* of the dirty types
  move.  This is the delta-patchable case.
* **structural** — a brand-new entity type or relationship type.  The
  schema graph itself changes (new vertex/edge), so distance oracles,
  clique enumerations and candidate lists may all shift: consumers must
  rebuild from scratch.

:meth:`MutationLog.dirty_since` folds every entry after a baseline
generation into one :class:`MutationDelta`.  The log retains a bounded
window (:attr:`MutationLog.max_entries`); a baseline older than the
window answers with ``full=True``, which consumers treat like a
structural change (full rebuild) — correct, merely less incremental.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, FrozenSet, Iterable, List, Tuple

from ..exceptions import ReplicationError
from .ids import RelationshipTypeId, TypeId

#: Default bound on retained entries; beyond it the oldest entries are
#: compacted into the "before the horizon" answer (``full=True``).
DEFAULT_MAX_ENTRIES = 4096


@dataclass(frozen=True)
class MutationDelta:
    """The union of every mutation between two generations.

    ``key_types`` are the entity types whose key/non-key scores may have
    changed; ``rel_types`` the relationship types whose instance counts
    moved.  ``structural`` means the schema graph gained a vertex or
    edge; ``full`` means the baseline predates the log's retention
    window (or the log never saw it) — both demand a full rebuild.
    """

    key_types: FrozenSet[TypeId] = frozenset()
    rel_types: FrozenSet[RelationshipTypeId] = frozenset()
    structural: bool = False
    full: bool = False

    @property
    def empty(self) -> bool:
        """True when nothing at all was dirtied (pure no-op mutations)."""
        return not (self.key_types or self.rel_types or self.structural or self.full)

    @property
    def patchable(self) -> bool:
        """True when O(delta) patching is sound (no schema change)."""
        return not (self.structural or self.full)

    # ------------------------------------------------------------------
    # Wire codec (the replication log ships deltas between processes)
    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, Any]:
        """The JSON-ready record of this delta.

        Relationship types serialize as ``[name, source_type,
        target_type]`` triples; both type lists are sorted so equal
        deltas produce byte-identical records (the replication stream
        is diffable the same way payloads are).
        """
        return {
            "key_types": sorted(self.key_types),
            "rel_types": sorted(
                [r.name, r.source_type, r.target_type] for r in self.rel_types
            ),
            "structural": self.structural,
            "full": self.full,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "MutationDelta":
        """Decode :meth:`to_record` output back into a delta.

        Raises
        ------
        ReplicationError
            For a malformed record (wrong field types or triple shapes).
        """
        if not isinstance(record, dict):
            raise ReplicationError(
                f"delta record must be an object, got {type(record).__name__}"
            )
        key_types = record.get("key_types", [])
        rel_types = record.get("rel_types", [])
        if not isinstance(key_types, list) or not all(
            isinstance(t, str) for t in key_types
        ):
            raise ReplicationError("delta 'key_types' must be a string array")
        if not isinstance(rel_types, list):
            raise ReplicationError("delta 'rel_types' must be an array")
        decoded = []
        for triple in rel_types:
            if (
                not isinstance(triple, (list, tuple))
                or len(triple) != 3
                or not all(isinstance(part, str) for part in triple)
            ):
                raise ReplicationError(
                    "delta 'rel_types' entries must be "
                    "[name, source_type, target_type] string triples"
                )
            decoded.append(RelationshipTypeId(*triple))
        return cls(
            key_types=frozenset(key_types),
            rel_types=frozenset(decoded),
            structural=bool(record.get("structural", False)),
            full=bool(record.get("full", False)),
        )


#: The "rebuild everything" answer for unknown/ancient baselines.
FULL_DELTA = MutationDelta(full=True)

#: One retained log entry: (generation, key_types, rel_types, structural).
_Entry = Tuple[int, Tuple[TypeId, ...], Tuple[RelationshipTypeId, ...], bool]


@dataclass
class MutationLog:
    """Append-only changelog, one entry per entity-graph mutation."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    #: The generation produced by the latest mutation (0 = pristine).
    generation: int = 0
    _entries: Deque[_Entry] = field(default_factory=deque)
    #: Highest generation already compacted away; baselines below it can
    #: only be answered with :data:`FULL_DELTA`.
    _horizon: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        key_types: Iterable[TypeId] = (),
        rel_types: Iterable[RelationshipTypeId] = (),
        structural: bool = False,
    ) -> int:
        """Append one mutation entry; returns the new generation."""
        self.generation += 1
        self._entries.append(
            (self.generation, tuple(key_types), tuple(rel_types), structural)
        )
        if len(self._entries) > self.max_entries:
            oldest = self._entries.popleft()
            self._horizon = oldest[0]
        return self.generation

    # ------------------------------------------------------------------
    # Replication bootstrap
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        """Highest generation already compacted out of the window.

        A baseline strictly below it can only be answered with
        :data:`FULL_DELTA`; replication subscribers that far behind must
        bootstrap from a snapshot instead of the delta stream.
        """
        return self._horizon

    def fast_forward(self, generation: int) -> None:
        """Jump this log to ``generation`` with an empty window.

        The snapshot-bootstrap primitive: a replica that restored a
        graph snapshot taken at writer generation ``G`` replayed fewer
        mutations than the writer ever applied (snapshots compact
        idempotent re-adds), so its log must be *renumbered* to ``G``
        for the replication stream's generation stamps to line up.
        After the jump the window is empty and the horizon equals the
        new generation — exactly the state of a fresh log that never
        saw the pre-snapshot history.

        Raises
        ------
        ReplicationError
            When ``generation`` is behind the log (generations are
            monotonic; rewinding would corrupt every downstream cache
            keyed by them).
        """
        if generation < self.generation:
            raise ReplicationError(
                f"cannot fast-forward a mutation log backwards "
                f"(at generation {self.generation}, asked for {generation})"
            )
        self.generation = generation
        self._horizon = generation
        self._entries.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries_since(self, generation: int) -> List[Tuple[int, MutationDelta]]:
        """Per-generation deltas after ``generation``, oldest first.

        Unlike :meth:`dirty_since` (which folds the window into one
        delta), this preserves the per-mutation granularity the
        replication stream ships.

        Raises
        ------
        ReplicationError
            When ``generation`` predates the retention horizon — the
            per-entry history no longer exists and the caller must fall
            back to a snapshot.
        """
        if generation < self._horizon:
            raise ReplicationError(
                f"generation {generation} predates the retention horizon "
                f"{self._horizon}; bootstrap from a snapshot instead"
            )
        return [
            (entry_generation, MutationDelta(
                key_types=frozenset(entry_keys),
                rel_types=frozenset(entry_rels),
                structural=entry_structural,
            ))
            for entry_generation, entry_keys, entry_rels, entry_structural
            in self._entries
            if entry_generation > generation
        ]

    def dirty_since(self, generation: int) -> MutationDelta:
        """Fold every entry after ``generation`` into one delta.

        A baseline at the current generation yields an empty delta; one
        before the retention horizon (or negative, the engine's "never
        synced" sentinel) yields :data:`FULL_DELTA`.
        """
        if generation >= self.generation:
            return MutationDelta()
        if generation < self._horizon:
            return FULL_DELTA
        key_types = set()
        rel_types = set()
        structural = False
        for entry_generation, entry_keys, entry_rels, entry_structural in reversed(
            self._entries
        ):
            if entry_generation <= generation:
                break
            key_types.update(entry_keys)
            rel_types.update(entry_rels)
            structural = structural or entry_structural
        return MutationDelta(
            key_types=frozenset(key_types),
            rel_types=frozenset(rel_types),
            structural=structural,
        )

    def __len__(self) -> int:
        return len(self._entries)
