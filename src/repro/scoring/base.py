"""Scorer interfaces and registries.

The optimization results of Sec. 4 and the algorithms of Sec. 5 hold for
*any* scoring functions as long as the preview aggregation is monotonic in
``S(τ)`` and ``Sτ(γ)`` (the paper states this explicitly at the end of
Sec. 3.1).  We therefore decouple the discovery algorithms from concrete
measures behind two small interfaces:

* :class:`KeyScorer` — scores every entity type once per dataset;
* :class:`NonKeyScorer` — scores every candidate non-key attribute of a
  given key type.

Concrete measures register themselves in :data:`KEY_SCORERS` /
:data:`NONKEY_SCORERS` so callers can select them by the names used in the
paper's tables ("Coverage", "Random Walk", "Entropy").
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterable, Mapping, Optional

from ..exceptions import ScoringError, UnknownScorerError
from ..model.attributes import NonKeyAttribute
from ..model.entity_graph import EntityGraph
from ..model.ids import TypeId
from ..model.schema_graph import SchemaGraph


class KeyScorer(abc.ABC):
    """Scores candidate key attributes (entity types)."""

    #: Registry name; subclasses must override.
    name: str = ""

    #: Whether the measure can be maintained under *non-structural*
    #: mutations by rescoring only the dirty types: a dirty type's score
    #: must depend only on that type's own aggregates, and untouched
    #: types' scores must be bit-identical after the mutation.  Coverage
    #: qualifies (``Scov(τ)`` reads one count); the random walk does not
    #: (one edge weight moves every stationary probability), so it keeps
    #: the default and falls back to a full rebuild transparently.
    supports_delta: bool = False

    @abc.abstractmethod
    def score_all(
        self, schema: SchemaGraph, entity_graph: Optional[EntityGraph] = None
    ) -> Dict[TypeId, float]:
        """Return the score of every entity type in ``schema``.

        ``entity_graph`` is optional: measures that only need aggregate
        counts (coverage, random walk) read them from the schema graph,
        which caches per-type populations and per-relationship-type edge
        counts.
        """

    def score_types(
        self,
        types: Iterable[TypeId],
        schema: SchemaGraph,
        entity_graph: Optional[EntityGraph] = None,
    ) -> Dict[TypeId, float]:
        """Scores of ``types`` only — the O(delta) re-scoring hook.

        The default projects :meth:`score_all` (correct for any scorer);
        delta-capable measures override it to touch only the given
        types.  Only called on types already present in the schema.
        """
        wanted = set(types)
        return {
            type_name: score
            for type_name, score in self.score_all(schema, entity_graph).items()
            if type_name in wanted
        }


class NonKeyScorer(abc.ABC):
    """Scores candidate non-key attributes relative to a key type."""

    name: str = ""

    #: Whether the measure depends on entity-level data (entropy does).
    requires_entity_graph: bool = False

    #: Whether re-running :meth:`score_candidates` for just the dirty key
    #: types is sound under non-structural mutations (untouched types'
    #: candidate scores must be bit-identical).  Coverage qualifies: a
    #: relationship instance of type γ only moves ``Sτcov(γ)`` for the
    #: two endpoint types, exactly the dirty set the mutation log
    #: records.  Entropy keeps the default (full rebuild): it reads
    #: entity-level adjacency, and re-deriving per-type histograms is a
    #: rescan, not a delta.
    supports_delta: bool = False

    @abc.abstractmethod
    def score_candidates(
        self,
        key_type: TypeId,
        schema: SchemaGraph,
        entity_graph: Optional[EntityGraph] = None,
    ) -> Dict[NonKeyAttribute, float]:
        """Return ``Sτ(γ)`` for every candidate attribute of ``key_type``."""


#: Name -> factory registries (factories take no arguments).
KEY_SCORERS: Dict[str, Callable[[], KeyScorer]] = {}
NONKEY_SCORERS: Dict[str, Callable[[], NonKeyScorer]] = {}


def register_key_scorer(cls: type) -> type:
    """Class decorator adding a :class:`KeyScorer` to the registry."""
    if not cls.name:
        raise ScoringError(f"{cls.__name__} must define a non-empty name")
    KEY_SCORERS[cls.name] = cls
    return cls


def register_nonkey_scorer(cls: type) -> type:
    """Class decorator adding a :class:`NonKeyScorer` to the registry."""
    if not cls.name:
        raise ScoringError(f"{cls.__name__} must define a non-empty name")
    NONKEY_SCORERS[cls.name] = cls
    return cls


def make_key_scorer(name: str) -> KeyScorer:
    """Instantiate a registered key scorer by name."""
    try:
        return KEY_SCORERS[name]()
    except KeyError:
        raise UnknownScorerError(name, tuple(KEY_SCORERS)) from None


def make_nonkey_scorer(name: str) -> NonKeyScorer:
    """Instantiate a registered non-key scorer by name."""
    try:
        return NONKEY_SCORERS[name]()
    except KeyError:
        raise UnknownScorerError(name, tuple(NONKEY_SCORERS)) from None


def _supports_delta(scorer, registry: Mapping[str, Callable]) -> bool:
    if isinstance(scorer, str):
        scorer = registry.get(scorer)
    return bool(getattr(scorer, "supports_delta", False))


def scorer_pair_supports_delta(key_scorer, nonkey_scorer) -> bool:
    """Whether a scorer pairing allows per-type delta maintenance.

    The single source of truth for whether a scoring context is patched
    or rebuilt across a non-structural write: both scorers must declare
    :attr:`supports_delta`.
    Accepts instances, classes, or registry names; unknown names (and
    non-class factories) answer False, which degrades to a full
    rebuild — always sound.
    """
    return _supports_delta(key_scorer, KEY_SCORERS) and _supports_delta(
        nonkey_scorer, NONKEY_SCORERS
    )
