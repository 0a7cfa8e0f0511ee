"""Tuple materialization and sampling for preview tables.

A preview table keyed on ``τ`` conceptually has one tuple per entity of
type ``τ``; each tuple's value on a non-key attribute is the (possibly
empty, possibly multi-valued) set of related entities (Definition 1).
Since a preview is meant for display, the paper "shows a few randomly
sampled tuples in each preview table" — selecting *representative* tuples
is explicitly future work, so we implement seeded uniform sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..exceptions import DiscoveryError
from ..model.attributes import NonKeyAttribute
from ..model.entity_graph import EntityGraph
from ..model.ids import EntityId
from .preview import Preview, PreviewTable

#: Default number of tuples displayed per table (Fig. 2 shows 2-4).
DEFAULT_SAMPLE_SIZE = 4


@dataclass(frozen=True)
class MaterializedRow:
    """One displayed tuple: the key entity plus per-attribute value sets."""

    key_entity: EntityId
    values: Tuple[FrozenSet[EntityId], ...]


@dataclass(frozen=True)
class MaterializedTable:
    """A preview table together with its sampled rows."""

    table: PreviewTable
    rows: Tuple[MaterializedRow, ...]
    total_tuples: int

    @property
    def shown(self) -> int:
        """Number of sample rows materialized."""
        return len(self.rows)


def materialize_table(
    entity_graph: EntityGraph,
    table: PreviewTable,
    sample_size: Optional[int] = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> MaterializedTable:
    """Materialize ``table`` against ``entity_graph``.

    ``sample_size=None`` materializes every tuple.  Sampling is uniform
    without replacement with a deterministic seed; entities are sorted
    before sampling so the result is stable across runs and platforms.
    """
    entities = sorted(entity_graph.entities_of_type(table.key))
    total = len(entities)
    if sample_size is not None and sample_size < 0:
        raise DiscoveryError(f"sample_size must be non-negative, got {sample_size}")
    if sample_size is not None and total > sample_size:
        rng = random.Random(seed)
        entities = sorted(rng.sample(entities, sample_size))
    rows = tuple(
        MaterializedRow(
            key_entity=entity,
            values=tuple(
                entity_graph.attribute_value(entity, attribute)
                for attribute in table.nonkey
            ),
        )
        for entity in entities
    )
    return MaterializedTable(table=table, rows=rows, total_tuples=total)


def materialize_preview(
    entity_graph: EntityGraph,
    preview: Preview,
    sample_size: Optional[int] = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> List[MaterializedTable]:
    """Materialize every table of ``preview`` (one seeded sample each)."""
    return [
        materialize_table(entity_graph, table, sample_size=sample_size, seed=seed + i)
        for i, table in enumerate(preview.tables)
    ]


def non_empty_ratio(
    entity_graph: EntityGraph, table: PreviewTable, attribute: NonKeyAttribute
) -> float:
    """Fraction of tuples with a non-empty value on ``attribute``.

    Diagnostic used by tests and the examples to show why entropy and
    coverage rank attributes differently.
    """
    if attribute not in table.nonkey:
        raise DiscoveryError(f"{attribute} is not an attribute of {table.key!r}")
    entities = entity_graph.entities_of_type(table.key)
    if not entities:
        return 0.0
    nonempty = sum(
        1 for entity in entities if entity_graph.attribute_value(entity, attribute)
    )
    return nonempty / len(entities)
