"""Entropy-based non-key attribute scoring (Sec. 3.3).

The goodness of a non-key attribute ``γ`` for a table keyed on ``τ`` is
how much information it provides, measured as the entropy of its values
over the table's tuples:

    Sτent(γ) = H(γ) = Σ_j (n_j / |t.γ|) · log(|t.γ| / n_j)

where tuples are grouped by *value* and ``|t.γ|`` is the number of tuples
with a non-empty value on ``γ``.  The paper's worked example pins down two
details the formula leaves implicit:

* multi-valued attribute values are compared as **sets** ("we consider
  them equivalent if and only if they have the same set of component
  values"), so grouping is by ``frozenset``;
* the logarithm is **base 10** (``SFILMent(Director) = 0.45`` only under
  log10).

Unlike coverage, the measure is asymmetric: ``Sτent(γ) ≠ Sτ'ent(γ)`` in
general, because the grouping is over the tuples of the specific table.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, FrozenSet, Optional

from ..exceptions import ScoringError
from ..model.attributes import NonKeyAttribute
from ..model.entity_graph import EntityGraph
from ..model.ids import EntityId, TypeId
from ..model.schema_graph import SchemaGraph
from .base import NonKeyScorer, register_nonkey_scorer

#: Logarithm base matching the paper's worked example.
DEFAULT_LOG_BASE = 10.0


def value_set_entropy(
    groups: Counter, total_nonempty: int, log_base: float = DEFAULT_LOG_BASE
) -> float:
    """Entropy of a value-group histogram.

    ``groups`` maps each distinct (non-empty) value to the number of
    tuples attaining it; ``total_nonempty`` is their sum.  Returns 0.0 for
    empty histograms (an attribute with no non-empty values conveys no
    information).

    The terms are summed with :func:`math.fsum`, which is correctly
    rounded and so independent of the histogram's iteration order —
    that order follows the entity set's, which varies with the
    process's string hash seed.
    """
    if total_nonempty <= 0:
        return 0.0
    log_b = math.log(log_base)
    return math.fsum(
        count / total_nonempty * (math.log(total_nonempty / count) / log_b)
        for count in groups.values()
    )


def attribute_entropy(
    entity_graph: EntityGraph,
    key_type: TypeId,
    attribute: NonKeyAttribute,
    log_base: float = DEFAULT_LOG_BASE,
) -> float:
    """``Sτent(γ)`` for one attribute of the table keyed on ``key_type``."""
    groups: Counter = Counter()
    nonempty = 0
    for entity in entity_graph.entities_of_type(key_type):
        value: FrozenSet[EntityId] = entity_graph.attribute_value(entity, attribute)
        if value:
            groups[value] += 1
            nonempty += 1
    return value_set_entropy(groups, nonempty, log_base=log_base)


@register_nonkey_scorer
class EntropyNonKeyScorer(NonKeyScorer):
    """Entropy-based non-key scoring over materialized attribute values."""

    name = "entropy"
    requires_entity_graph = True
    #: Entropy re-derives per-type value histograms from entity-level
    #: adjacency — a rescan of ``T.τ``, not an O(delta) patch — so the
    #: incremental pipeline falls back to a full context rebuild.
    supports_delta = False

    def __init__(self, log_base: float = DEFAULT_LOG_BASE) -> None:
        if log_base <= 1.0:
            raise ScoringError(f"log base must exceed 1, got {log_base}")
        self.log_base = log_base

    def score_candidates(
        self,
        key_type: TypeId,
        schema: SchemaGraph,
        entity_graph: Optional[EntityGraph] = None,
    ) -> Dict[NonKeyAttribute, float]:
        """Entropy scores restricted to ``candidates``."""
        if entity_graph is None:
            raise ScoringError(
                "entropy scoring requires the entity graph (it inspects "
                "tuple-level attribute values)"
            )
        return {
            attribute: attribute_entropy(
                entity_graph, key_type, attribute, log_base=self.log_base
            )
            for attribute in schema.candidate_attributes(key_type)
        }
