"""Pure-python batched backend — always available, stdlib only.

Lowers the per-type weighted rows once into top-1 scalars plus
cap-trimmed strictly-positive tails, then scores each subset with two
C-speed primitives (``list.sort`` and slicing) and a plain ``+=`` loop
instead of a per-pick heap.  The accumulation order — top-1 scores in
key order, then merged tail values in descending order — is exactly the
heap-merge pop order, so results are bit-identical to
:class:`~repro.kernel.base.OracleBackend` (see the base module
docstring for the identity this relies on).  Builtin ``sum`` would not
keep that order: since Python 3.12 it compensates float sums, and its
results then differ from the oracle's in the last bits.  The loop is
also twice as fast as ``functools.reduce(operator.add, ...)`` here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..exceptions import UnknownTypeError
from .base import KernelBackend


class PythonColumns:
    """Columnar lowering used by :class:`PythonBackend`.

    ``tops[i]`` is row ``i``'s mandatory top-1 weighted score (None for
    an empty row = infeasible key) and :meth:`tails` caches, per extra
    budget, each row's strictly-positive merge tail ``row[1 : cap + 1]``
    — the only candidates the Theorem-3 merge can ever pick at that
    budget.
    """

    __slots__ = ("index", "weighted", "tops", "_tails")

    def __init__(
        self,
        index: Dict[object, int],
        weighted: Tuple[Tuple[float, ...], ...],
    ) -> None:
        self.index = index
        self.weighted = weighted
        self.tops: Tuple[Optional[float], ...] = tuple(
            row[0] if row else None for row in weighted
        )
        self._tails: Dict[int, Tuple[Tuple[float, ...], ...]] = {}

    def tails(self, cap: int) -> Tuple[Tuple[float, ...], ...]:
        """Cached per-column tail-sum table for allocation cap ``cap``."""
        cached = self._tails.get(cap)
        if cached is None:
            cached = tuple(
                tuple(value for value in row[1 : cap + 1] if value > 0.0)
                for row in self.weighted
            )
            self._tails[cap] = cached
        return cached


class PythonBackend(KernelBackend):
    """Batched scoring with stdlib primitives only."""

    name = "python"

    def lower(self, source) -> PythonColumns:
        """Lower source columns to the stdlib batched layout."""
        return PythonColumns(source.index, source.weighted)

    def best_allocation(self, columns, subsets, extra_cap):
        """Batched best-allocation using stdlib-only arithmetic."""
        index = columns.index
        tops = columns.tops
        tails = columns.tails(extra_cap) if extra_cap > 0 else None
        best_score = float("-inf")
        best_at = -1
        for at, keys in enumerate(subsets):
            try:
                indices = [index[key] for key in keys]
            except KeyError as exc:
                raise UnknownTypeError(exc.args[0]) from None
            base = 0.0
            for i in indices:
                top = tops[i]
                if top is None:
                    base = None
                    break
                base += top
            if base is None or len(set(indices)) != len(indices):
                continue
            if tails is None:
                score = base
            else:
                merged: List[float] = []
                for i in indices:
                    merged += tails[i]
                if len(merged) > 1:
                    if len(indices) > 1:
                        # Single-key tails are already descending.
                        merged.sort(reverse=True)
                    del merged[extra_cap:]
                score = base
                for value in merged:
                    score += value
            if score > best_score:
                best_score = score
                best_at = at
        if best_at < 0:
            return None
        return best_score, best_at

    def batch_scores(self, columns, subsets, extra_cap):
        """Batched subset scores using stdlib-only arithmetic."""
        index = columns.index
        tops = columns.tops
        tails = columns.tails(extra_cap) if extra_cap > 0 else None
        scores: List[Optional[float]] = []
        for keys in subsets:
            try:
                indices = [index[key] for key in keys]
            except KeyError as exc:
                raise UnknownTypeError(exc.args[0]) from None
            base = 0.0
            for i in indices:
                top = tops[i]
                if top is None:
                    base = None
                    break
                base += top
            if base is None or len(set(indices)) != len(indices):
                scores.append(None)
                continue
            if tails is None:
                scores.append(base)
                continue
            merged: List[float] = []
            for i in indices:
                merged += tails[i]
            if len(merged) > 1:
                if len(indices) > 1:
                    merged.sort(reverse=True)
                del merged[extra_cap:]
            for value in merged:
                base += value
            scores.append(base)
        return scores
