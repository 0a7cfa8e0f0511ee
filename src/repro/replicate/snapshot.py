"""Graph snapshots: the bootstrap path for late-joining replicas.

The replication stream ships one framed delta per mutation, but a
subscriber whose baseline generation fell behind the writer's retained
window cannot catch up delta-by-delta — the per-entry history is gone
(see :meth:`~repro.model.mutation_log.MutationLog.horizon`).  Such a
subscriber receives one *snapshot* record instead: the writer's full
extensional graph content plus the generation it was captured at.

The codec must preserve more than set-equality.  Preview payloads are
diffed byte-for-byte across replicas, and tie-breaks downstream depend
on deterministic iteration orders (entity insertion order, type and
relationship-type first-seen order).  :func:`capture_snapshot` therefore
records entities and relationships in their live insertion order, with
each entity's types sorted by the *global* first-seen index — replaying
them in :func:`restore_snapshot` provably reproduces every first-seen
order the original graph had (a multi-new-type entity's types occupy
consecutive global positions in caller order, so the sort keeps their
relative order intact).  The restored graph's
:func:`~repro.datasets.loader.graph_fingerprint` is checked against the
one captured, and its mutation log is
:meth:`~repro.model.mutation_log.MutationLog.fast_forward`-ed to the
snapshot generation so subsequent stream deltas line up.
"""

from __future__ import annotations

from typing import Any, Dict

from ..datasets.loader import graph_fingerprint
from ..exceptions import ModelError, ReplicationError
from ..model.entity_graph import EntityGraph
from ..model.ids import RelationshipTypeId

#: Format marker + version carried by every snapshot record.
SNAPSHOT_KIND = "repro-graph-snapshot"
SNAPSHOT_VERSION = 1


def capture_snapshot(graph: EntityGraph, generation: int) -> Dict[str, Any]:
    """One JSON-ready snapshot of ``graph`` as of ``generation``.

    ``generation`` is the writer's generation at capture time (the
    graph must not mutate concurrently — the writer captures under its
    write-excluding read lock, on the host's worker thread).

    The record shape::

        {"kind": "repro-graph-snapshot", "version": 1,
         "name": ..., "generation": ..., "fingerprint": "sha256:...",
         "type_order": [type, ...],              # global first-seen order
         "entities": [[id, [type_index, ...]], ...],   # insertion order
         "relationships": [[src, tgt, name, st, tt], ...]}  # insertion order
    """
    type_order = graph.entity_types()
    type_index = {type_name: i for i, type_name in enumerate(type_order)}
    entities = [
        [entity, sorted(type_index[t] for t in graph.types_of(entity))]
        for entity in graph.entities()
    ]
    relationships = [
        [source, target, rel.name, rel.source_type, rel.target_type]
        for source, target, rel in graph.relationships()
    ]
    return {
        "kind": SNAPSHOT_KIND,
        "version": SNAPSHOT_VERSION,
        "name": graph.name,
        "generation": generation,
        "fingerprint": graph_fingerprint(graph),
        "type_order": type_order,
        "entities": entities,
        "relationships": relationships,
    }


def restore_snapshot(record: Dict[str, Any]) -> EntityGraph:
    """Rebuild the :class:`EntityGraph` a snapshot record describes.

    The restored graph's fingerprint must equal the captured one, and
    its mutation log is fast-forwarded to the snapshot generation (an
    empty delta window — a replica restored from a snapshot patches
    nothing, it *is* the snapshot state).

    Raises
    ------
    ReplicationError
        For a malformed record, an unsupported version, or a restored
        graph whose fingerprint does not match the captured one.
    """
    if not isinstance(record, dict) or record.get("kind") != SNAPSHOT_KIND:
        raise ReplicationError("not a graph snapshot record")
    if record.get("version") != SNAPSHOT_VERSION:
        raise ReplicationError(
            f"unsupported snapshot version {record.get('version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    generation = record.get("generation")
    if not isinstance(generation, int) or isinstance(generation, bool) or generation < 0:
        raise ReplicationError("snapshot 'generation' must be a non-negative integer")
    type_order = record.get("type_order")
    if not isinstance(type_order, list) or not all(
        isinstance(t, str) for t in type_order
    ):
        raise ReplicationError("snapshot 'type_order' must be a string array")
    name = record.get("name")
    if not isinstance(name, str):
        raise ReplicationError("snapshot 'name' must be a string")

    try:
        entities = (
            (entity, [type_order[i] for i in indexes])
            for entity, indexes in record.get("entities", ())
        )
        relationships = (
            (source, target, RelationshipTypeId(rel_name, source_type, target_type))
            for source, target, rel_name, source_type, target_type in record.get(
                "relationships", ()
            )
        )
        graph = EntityGraph.bulk_load(entities, relationships, name=name)
    except (TypeError, ValueError, IndexError, KeyError, ModelError) as exc:
        raise ReplicationError(f"malformed snapshot content: {exc}") from exc

    expected = record.get("fingerprint")
    actual = graph_fingerprint(graph)
    if expected != actual:
        raise ReplicationError(
            f"snapshot fingerprint mismatch: captured {expected}, "
            f"restored {actual} — the snapshot is corrupt or the codec drifted"
        )
    # Renumber: replaying the snapshot used fewer mutations than the
    # writer ever applied, but stream deltas are stamped with *writer*
    # generations.
    graph.mutation_log.fast_forward(generation)
    return graph
