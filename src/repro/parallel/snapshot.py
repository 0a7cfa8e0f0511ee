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
from typing import Dict, Tuple

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
        """Project ``pool`` (or another snapshot) into a fresh snapshot.

        Returns a snapshot whose ``weighted`` rows alias the pool's
        immutable tuples: only the index dict is copied, so a build
        costs microseconds, far below one pool dispatch.
        """
        return cls(index=dict(pool.index), weighted=pool.weighted)
