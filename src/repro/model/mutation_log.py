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
from typing import Any, Deque, Dict, FrozenSet, Iterable, Tuple

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
    # Wire record (the replication log ships deltas between processes)
    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, Any]:
        """The JSON-ready record of this delta.

        Relationship types serialize as ``[name, source_type,
        target_type]`` triples; both type lists are sorted so equal
        deltas produce byte-identical records.  A replica compares the
        record the writer shipped with its own as plain dicts, so the
        record is never decoded back into a delta.
        """
        return {
            "key_types": sorted(self.key_types),
            "rel_types": sorted(
                [r.name, r.source_type, r.target_type] for r in self.rel_types
            ),
            "structural": self.structural,
            "full": self.full,
        }


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
    # Bulk loads
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        """Highest generation already compacted out of the window.

        A baseline strictly below it can only be answered with
        :data:`FULL_DELTA`.  A bulk-loaded graph's horizon is its
        generation: there is no earlier state to patch from.
        """
        return self._horizon

    def fast_forward(self, generation: int) -> None:
        """Jump this log to ``generation`` with an empty window.

        :meth:`~repro.model.entity_graph.EntityGraph.bulk_load` advances
        the log once by its number of adds, and
        :meth:`~repro.store.disk.DiskGraphStore.entity_graph` then jumps
        it to the stored generation.  A store image taken at writer
        generation ``G`` replays fewer mutations than the writer ever
        applied (it holds no idempotent re-adds), so a replica
        bootstrapped from it is *renumbered* to ``G`` here, and the
        replication stream's generation stamps line up.  After the jump
        the window is empty and the horizon equals the new generation —
        exactly the state of a fresh log that never saw the earlier
        history.

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
