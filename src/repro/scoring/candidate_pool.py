"""Flat, precomputed candidate arrays shared by all discovery algorithms.

Every algorithm of Sec. 5 consumes the same artifacts: the key scores
``S(τ)``, the sorted candidate lists ``Γτ`` and, via Theorem 3, the
scores of top-``m`` prefix tables ``S(T_τ^m)``.  The seed implementation
rebuilt these per call from :class:`ScoringContext`'s dictionaries — the
hot path of the Fig. 8 / Fig. 9 efficiency sweeps.  :class:`CandidatePool`
computes them once per context into flat parallel arrays:

Layout (all tuples indexed by one *type index* ``i``):

* ``types[i]``        — the entity type (``TypeId``), in schema order;
* ``key_scores[i]``   — ``S(types[i])``;
* ``attrs[i][r]``     — rank-``r`` candidate of ``Γ_{types[i]}`` (rank 0 is
  the best candidate; ties broken lexically, matching
  :meth:`ScoringContext.sorted_candidates`);
* ``weighted[i][r]``  — ``S(τ) × Sτ(attrs[i][r])``, the merge key of
  Alg. 1;
* ``prefix[i][m]``    — ``S(T_τ^m)``, the score of the table keyed on
  ``types[i]`` with its top-``m`` candidates.  By convention
  ``prefix[i][0] == 0.0`` and ``len(prefix[i]) == len(attrs[i]) + 1``,
  so a prefix lookup replaces the per-call O(m) sums of
  ``top_m_table_score``.

``eligible`` lists the types with a non-empty candidate list (the only
ones that can key a preview table), preserving schema order so every
algorithm enumerates k-subsets in the exact order the seed code did —
tie-breaking between equal-scoring previews is unchanged.

``kernel_columns`` holds each kernel backend's lowering of the pool,
filled by :func:`repro.kernel.lowered` on first use, so a pool is
lowered once per backend however many batches score against it.  It
takes no part in equality, and a :meth:`CandidatePool.patched` pool
starts with it empty.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from ..exceptions import ScoringError
from ..model.attributes import NonKeyAttribute
from ..model.ids import TypeId

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from .preview_score import ScoringContext


@dataclass(frozen=True)
class CandidatePool:
    """Immutable flat view of one :class:`ScoringContext`'s scores."""

    types: Tuple[TypeId, ...]
    key_scores: Tuple[float, ...]
    attrs: Tuple[Tuple[NonKeyAttribute, ...], ...]
    weighted: Tuple[Tuple[float, ...], ...]
    prefix: Tuple[Tuple[float, ...], ...]
    index: Dict[TypeId, int]
    eligible: Tuple[TypeId, ...]
    kernel_columns: Dict[str, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def build(
        cls,
        types: Sequence[TypeId],
        key_scores: Dict[TypeId, float],
        sorted_candidates: Dict[TypeId, List[Tuple[NonKeyAttribute, float]]],
    ) -> "CandidatePool":
        """Assemble the pool from a context's precomputed dictionaries."""
        type_tuple = tuple(types)
        keys = array("d", (key_scores[t] for t in type_tuple))
        attrs: List[Tuple[NonKeyAttribute, ...]] = []
        weighted: List[Tuple[float, ...]] = []
        prefix: List[Tuple[float, ...]] = []
        for i, type_name in enumerate(type_tuple):
            ranked = sorted_candidates.get(type_name, [])
            row = cls._row(keys[i], ranked)
            attrs.append(row[0])
            weighted.append(row[1])
            prefix.append(row[2])
        return cls(
            types=type_tuple,
            key_scores=tuple(keys),
            attrs=tuple(attrs),
            weighted=tuple(weighted),
            prefix=tuple(prefix),
            index={t: i for i, t in enumerate(type_tuple)},
            eligible=tuple(t for i, t in enumerate(type_tuple) if attrs[i]),
        )

    @staticmethod
    def _row(
        key_weight: float,
        ranked: Sequence[Tuple[NonKeyAttribute, float]],
    ) -> Tuple[
        Tuple[NonKeyAttribute, ...],
        Tuple[float, ...],
        Tuple[float, ...],
    ]:
        """One type's flat arrays — shared by :meth:`build` and
        :meth:`patched` so a patched row is bit-identical to a fresh one
        (same accumulation order, same float operations)."""
        attrs = tuple(attr for attr, _score in ranked)
        scores = tuple(score for _attr, score in ranked)
        weighted = tuple(key_weight * score for score in scores)
        sums = array("d", [0.0])
        running = 0.0
        for score in scores:
            running += score
            sums.append(key_weight * running)
        return attrs, weighted, tuple(sums)

    def patched(
        self, dirty_types: Iterable[TypeId], context: "ScoringContext"
    ) -> "CandidatePool":
        """A new pool with only the dirty types' rows rebuilt.

        The delta-maintenance counterpart of :meth:`build`: every
        untouched type *shares* its tuples (``attrs``, ``weighted``,
        ``prefix``) with this pool — O(delta) row rebuilds plus an O(K)
        outer-tuple copy, instead of O(total candidates).
        ``context`` supplies the post-mutation scores (it is the patched
        :class:`~repro.scoring.preview_score.ScoringContext` this pool
        will belong to).

        Only valid for *non-structural* deltas: the type universe and
        every ``Γτ`` membership must be unchanged, so ``index``,
        ``types`` and (by construction) ``eligible`` carry over.  A
        dirty type outside this pool's universe raises
        :class:`~repro.exceptions.ScoringError` — callers should have
        detected the structural mutation and rebuilt from scratch.
        """
        dirty = set(dirty_types)
        unknown = dirty.difference(self.index)
        if unknown:
            raise ScoringError(
                f"cannot patch candidate pool: types {sorted(map(str, unknown))} "
                "are not in the pool (structural mutation requires a rebuild)"
            )
        key_scores = list(self.key_scores)
        attrs = list(self.attrs)
        weighted = list(self.weighted)
        prefix = list(self.prefix)
        for type_name in dirty:
            i = self.index[type_name]
            key_scores[i] = context.key_score(type_name)
            row = self._row(key_scores[i], context.sorted_candidates(type_name))
            if bool(row[0]) != bool(self.attrs[i]):
                raise ScoringError(
                    "cannot patch candidate pool: eligibility of "
                    f"{type_name!r} changed (structural mutation requires "
                    "a rebuild)"
                )
            attrs[i], weighted[i], prefix[i] = row
        return CandidatePool(
            types=self.types,
            key_scores=tuple(key_scores),
            attrs=tuple(attrs),
            weighted=tuple(weighted),
            prefix=tuple(prefix),
            index=self.index,
            eligible=self.eligible,
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def top_m_score(self, type_name: TypeId, m: int) -> float:
        """``S(T_τ^m)`` via the prefix table (O(1); ``m`` is clamped)."""
        row = self.prefix[self.index[type_name]]
        if m >= len(row):
            return row[-1]
        return row[m]

    def top_m_attrs(self, type_name: TypeId, m: int) -> Tuple[NonKeyAttribute, ...]:
        """The top-``m`` prefix of ``Γτ`` (Theorem 3's table contents)."""
        return self.attrs[self.index[type_name]][:m]
