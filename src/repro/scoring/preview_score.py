"""Preview score aggregation (Eq. 1 / Eq. 2) and the scoring context.

The score of a preview table is the product of its key attribute's score
and the sum of its non-key attributes' scores; the score of a preview is
the sum of its tables' scores:

    S(P)    = Σ_i S(P[i])                             (Eq. 1)
    S(P[i]) = S(τ) × Σ_{γ ∈ P[i].nonkey} Sτ(γ)        (Eq. 2)

:class:`ScoringContext` bundles a schema graph (and optionally the entity
graph) with one key scorer and one non-key scorer, precomputes every score
once — the paper assumes exactly this precomputation before discovery
(Sec. 5) — and exposes the sorted candidate lists ``Γτ`` that Theorem 3
makes sufficient for optimality.

The context additionally materializes a :class:`CandidatePool`
(:meth:`ScoringContext.candidate_pool`, built lazily and cached): flat
parallel arrays of per-type key scores, sorted ``Γτ`` candidates with
their raw and ``S(τ)``-weighted scores, and top-``m`` prefix-sum tables
``prefix[i][m] = S(T_τ^m)`` with ``prefix[i][0] == 0``.  The discovery
algorithms read from the pool instead of re-deriving dictionaries and
sorts per call — see :mod:`repro.scoring.candidate_pool` for the exact
array layout and conventions.
"""

from __future__ import annotations

import copy
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..exceptions import ScoringError
from ..model.attributes import NonKeyAttribute
from ..model.entity_graph import EntityGraph
from ..model.ids import TypeId
from ..model.schema_graph import SchemaGraph
from .base import (
    KeyScorer,
    NonKeyScorer,
    make_key_scorer,
    make_nonkey_scorer,
    scorer_pair_supports_delta,
)
from .candidate_pool import CandidatePool


class ScoringContext:
    """Precomputed key/non-key scores over one dataset.

    Parameters
    ----------
    schema:
        The schema graph (always required).
    entity_graph:
        The underlying entity graph; required by entity-level measures
        (entropy), optional otherwise.
    key_scorer, nonkey_scorer:
        Registry names (``"coverage"``, ``"random_walk"``, ``"entropy"``)
        or scorer instances.
    """

    def __init__(
        self,
        schema: SchemaGraph,
        entity_graph: Optional[EntityGraph] = None,
        key_scorer: Union[str, KeyScorer] = "coverage",
        nonkey_scorer: Union[str, NonKeyScorer] = "coverage",
    ) -> None:
        self.schema = schema
        self.entity_graph = entity_graph
        self._key_scorer = (
            make_key_scorer(key_scorer) if isinstance(key_scorer, str) else key_scorer
        )
        self._nonkey_scorer = (
            make_nonkey_scorer(nonkey_scorer)
            if isinstance(nonkey_scorer, str)
            else nonkey_scorer
        )
        if self._nonkey_scorer.requires_entity_graph and entity_graph is None:
            raise ScoringError(
                f"non-key scorer {self._nonkey_scorer.name!r} requires an "
                "entity graph"
            )
        self._key_scores: Dict[TypeId, float] = self._key_scorer.score_all(
            schema, entity_graph
        )
        self._sorted_candidates: Dict[TypeId, List[Tuple[NonKeyAttribute, float]]] = {
            type_name: self._ranked(type_name) for type_name in schema.entity_types()
        }
        self._pool: Optional[CandidatePool] = None

    # ------------------------------------------------------------------
    # Names (for reports)
    # ------------------------------------------------------------------
    @property
    def key_scorer_name(self) -> str:
        """Name of the active key scorer."""
        return self._key_scorer.name

    @property
    def nonkey_scorer_name(self) -> str:
        """Name of the active non-key scorer."""
        return self._nonkey_scorer.name

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------
    @property
    def supports_delta(self) -> bool:
        """Whether :meth:`patched` is sound for this scorer pairing.

        True only when *both* scorers declare the per-type delta
        capability (see :class:`~repro.scoring.base.KeyScorer`); pairs
        with a global measure (random walk, entropy) rebuild from
        scratch instead.
        """
        return scorer_pair_supports_delta(self._key_scorer, self._nonkey_scorer)

    def patched(self, dirty_types: Iterable[TypeId]) -> "ScoringContext":
        """A new context with only ``dirty_types`` re-scored.

        The O(delta) sibling of ``__init__`` for *non-structural*
        mutations (no new entity types or relationship types): untouched
        types share their ranked candidate lists and candidate-pool rows
        with this context, so cost scales with the dirty set, not the
        schema.  Requires :attr:`supports_delta`; the caller (see
        :meth:`repro.engine.PreviewEngine.context`) is responsible for
        routing structural deltas to a full rebuild.
        """
        if not self.supports_delta:
            raise ScoringError(
                f"scorer pair ({self.key_scorer_name!r}, "
                f"{self.nonkey_scorer_name!r}) does not support delta "
                "patching — rebuild the context instead"
            )
        dirty = list(dict.fromkeys(dirty_types))
        unknown = [t for t in dirty if t not in self._key_scores]
        if unknown:
            raise ScoringError(
                "cannot patch scoring context: types "
                f"{sorted(map(str, unknown))} are unknown to it (structural "
                "mutation requires a rebuild)"
            )
        # A shallow copy keeps every attribute — including any added to
        # __init__ later — and we then replace only the score state that
        # the delta actually moves.
        clone = copy.copy(self)
        clone._key_scores = dict(self._key_scores)
        clone._key_scores.update(
            self._key_scorer.score_types(dirty, self.schema, self.entity_graph)
        )
        clone._sorted_candidates = dict(self._sorted_candidates)
        for type_name in dirty:
            clone._sorted_candidates[type_name] = self._ranked(type_name)
        # Patch the pool only if this context ever built one; otherwise
        # stay lazy and let the clone build it on first use.
        clone._pool = (
            self._pool.patched(dirty, clone) if self._pool is not None else None
        )
        return clone

    def _ranked(self, type_name: TypeId) -> List[Tuple[NonKeyAttribute, float]]:
        """``Γτ`` scored against the current schema, best first."""
        scores = self._nonkey_scorer.score_candidates(
            type_name, self.schema, self.entity_graph
        )
        return sorted(scores.items(), key=lambda item: (-item[1], str(item[0])))

    # ------------------------------------------------------------------
    # Scores
    # ------------------------------------------------------------------
    def key_score(self, type_name: TypeId) -> float:
        """``S(τ)`` — the key attribute score of an entity type."""
        try:
            return self._key_scores[type_name]
        except KeyError:
            from ..exceptions import UnknownTypeError

            raise UnknownTypeError(type_name) from None

    def key_scores(self) -> Dict[TypeId, float]:
        """Copy of the per-type key scores."""
        return dict(self._key_scores)

    def nonkey_score(self, key_type: TypeId, attribute: NonKeyAttribute) -> float:
        """``Sτ(γ)`` — the non-key attribute score relative to ``key_type``.

        A scan of the ranked row: discovered tables hold its own
        attribute objects, near its front, so an identity pass finds
        them without the dataclass ``==`` an equal copy needs.
        """
        ranked = self._sorted_candidates.get(key_type, ())
        for candidate, score in ranked:
            if candidate is attribute:
                return score
        for candidate, score in ranked:
            if candidate == attribute:
                return score
        raise ScoringError(f"{attribute} is not a candidate attribute of {key_type!r}")

    def sorted_candidates(self, key_type: TypeId) -> List[Tuple[NonKeyAttribute, float]]:
        """``Γτ`` sorted by descending score (ties broken lexically).

        This is the list Theorem 3 guarantees optimal tables draw their
        top-m prefix from.
        """
        try:
            return list(self._sorted_candidates[key_type])
        except KeyError:
            from ..exceptions import UnknownTypeError

            raise UnknownTypeError(key_type) from None

    def candidate_pool(self) -> CandidatePool:
        """The flat precomputed arrays the discovery algorithms consume.

        Built on first access and cached for the context's lifetime
        (scores are immutable once the context exists — mutations go
        through a new context, see ``ext.incremental``).
        """
        if self._pool is None:
            self._pool = CandidatePool.build(
                self.schema.entity_types(),
                self._key_scores,
                self._sorted_candidates,
            )
        return self._pool

    def ranked_key_types(self) -> List[Tuple[TypeId, float]]:
        """All entity types by descending key score (ties lexically)."""
        return sorted(
            self._key_scores.items(), key=lambda item: (-item[1], str(item[0]))
        )

    # ------------------------------------------------------------------
    # Aggregation (Eq. 1 / Eq. 2)
    # ------------------------------------------------------------------
    def table_score(
        self, key_type: TypeId, attributes: Iterable[NonKeyAttribute]
    ) -> float:
        """``S(T) = S(τ) × Σ Sτ(γ)`` (Eq. 2)."""
        total = 0.0
        for attribute in attributes:
            total += self.nonkey_score(key_type, attribute)
        return self.key_score(key_type) * total

    def top_m_table_score(self, key_type: TypeId, m: int) -> float:
        """Score of the table using the top-``m`` candidates of ``key_type``.

        Efficient building block for the discovery algorithms: an O(1)
        lookup in the candidate pool's precomputed prefix-sum table.
        """
        if m < 0:
            raise ScoringError(f"m must be non-negative, got {m}")
        try:
            return self.candidate_pool().top_m_score(key_type, m)
        except KeyError:
            from ..exceptions import UnknownTypeError

            raise UnknownTypeError(key_type) from None

    def preview_score(
        self, tables: Iterable[Tuple[TypeId, Iterable[NonKeyAttribute]]]
    ) -> float:
        """``S(P) = Σ S(P[i])`` (Eq. 1) over ``(key, attributes)`` pairs.

        Summed left to right: builtin ``sum`` compensates float sums
        since Python 3.12, which would make the score's bits depend on
        the interpreter.
        """
        return reduce(
            add,
            (self.table_score(key_type, attributes) for key_type, attributes in tables),
            0,
        )
