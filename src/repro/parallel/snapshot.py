"""The picklable scoring snapshot shipped to worker processes.

A :class:`ScoringSnapshot` is the smallest projection of a
:class:`~repro.scoring.CandidatePool` that still lets a worker run the
Theorem-3 merge: the ``TypeId -> type index`` map and the per-type flat
tuples of weighted merge scores ``S(τ) × Sτ(γ)``.  No entity graph,
schema graph or attribute objects cross the pipe — key subsets travel as
tuples of ``TypeId`` strings and scores as tuples of floats.  The
schema, and with it the snapshot, does not grow with the data: music's
pickles to under 5 kB at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..model.ids import TypeId
from ..scoring.candidate_pool import CandidatePool


@dataclass(frozen=True)
class ScoringSnapshot:
    """Flat, picklable view of one candidate pool's merge scores.

    The snapshot duck-types the exact :class:`CandidatePool` surface that
    :func:`~repro.core.candidates.build_allocation_profile` reads —
    ``index``, ``weighted`` and ``attrs`` — so workers execute the very
    allocation code the serial path executes and accumulate floats in the
    identical order.  ``attrs`` is aliased to the weighted rows: the
    allocation only tests it for per-type emptiness and never dereferences
    an attribute object, and the pool builds both rows from the same
    ranked list, so lengths and truthiness agree by construction.
    Materializing a :class:`~repro.core.preview.Preview` needs the real
    pool and stays in the parent process.
    """

    index: Dict[TypeId, int]
    weighted: Tuple[Tuple[float, ...], ...]

    @property
    def attrs(self) -> Tuple[Tuple[float, ...], ...]:
        """Emptiness-equivalent stand-in for ``CandidatePool.attrs``."""
        return self.weighted

    @classmethod
    def from_pool(cls, pool: CandidatePool) -> "ScoringSnapshot":
        """Project ``pool`` into a fresh snapshot (full re-projection).

        Returns a snapshot whose ``weighted`` rows alias the pool's
        immutable tuples — cheap to build, cheap to pickle.
        """
        return cls(index=dict(pool.index), weighted=pool.weighted)

    def refresh(
        self, pool: CandidatePool, dirty_types: Iterable[TypeId]
    ) -> "ScoringSnapshot":
        """A new snapshot with only the dirty types' rows re-projected.

        The delta-maintenance hook that keeps a long-lived
        :class:`~repro.parallel.ShardedExecutor` warm across mutations:
        instead of re-projecting (and later re-pickling) every row,
        untouched rows *share* their float tuples with this snapshot —
        only dirty-type payloads are taken from the patched ``pool``.
        Falls back to :meth:`from_pool` when the pool's type universe
        differs (a structural mutation rebuilt it from scratch).
        """
        if pool.index != self.index:
            return self.from_pool(pool)
        rows = list(self.weighted)
        changed = False
        for type_name in dirty_types:
            i = self.index.get(type_name)
            if i is None:  # unknown dirty type: universe changed after all
                return self.from_pool(pool)
            rows[i] = pool.weighted[i]
            changed = True
        if not changed:
            return self
        return ScoringSnapshot(index=self.index, weighted=tuple(rows))
