"""Optional numpy backend — vectorized clique enumeration and batch scoring.

Imported only when selected (``REPRO_KERNEL=numpy`` or ``auto`` with
numpy installed); the module import itself fails cleanly when numpy is
absent, and :mod:`repro.kernel` turns that into a
:class:`~repro.exceptions.KernelError`.

**Enumeration.**  :meth:`NumpyBackend.qualifying_subsets` runs Alg. 3's
first step over integer ids.  L2 seeding is one threshold of the
schema's dense distance table (``dist <= d`` tight, ``dist >= d``
diverse), cut to its strictly upper triangle.  Each join level keeps,
per row, the nodes in its last member's upper row that are compatible
with every other member; ``np.repeat`` copies each row once per
extension and ``np.flatnonzero`` lists the extensions in row-major
order — the lexicographic order of
:func:`~repro.graph.cliques.apriori_k_cliques`, so every tie-break is
unchanged.  The group comes back as a :class:`SubsetMatrix`: one
``(m, k)`` matrix of node indices in the smallest unsigned dtype that
holds them, behind a read-only sequence of key tuples, with no
per-subset Python objects.

**Scoring.**  Lowering pads the per-type weighted rows into one
``(K, W)`` float64 rectangle with a row-length validity vector; per
extra budget a ``(K, cap)`` strictly-positive tail rectangle is cached.
:func:`repro.kernel.lowered` keeps the lowering on the candidate pool,
so the rectangles and their tail caches live as long as the pool.
A batch becomes a ``(B, k)`` pool-row matrix: a :class:`SubsetMatrix`
maps its ``nodes`` to pool rows once and indexes its matrix through
that table; any other sequence of tuples is resolved with
``np.fromiter``, which costs a Python-level lookup per key.  Scoring
gathers the top-1 column and the tail rectangles, keeps the ``cap``
largest tail values per subset via ``np.partition``, and accumulates
*column by column* — never ``np.sum`` over the reduction axis, whose
pairwise summation would break bit-identity with the sequential
oracle.  Sorted equal floats commute exactly and zero padding adds
``+0.0`` to non-negative partial sums, so every score matches the heap
merge bit for bit.  Join and gather temporaries are bounded by
processing :data:`~repro.kernel.base.BATCH_SIZE` rows at a time.

**Pruning.**  :meth:`NumpyBackend.subset_bounds` maps a
:class:`SubsetMatrix`'s nodes to pool rows once and, ``BATCH_SIZE``
rows at a time, adds the per-type bound vector column by column, the
bound's key order; duplicate pool rows within a subset set its bound
to ``-inf``.
:meth:`NumpyBackend.survivors` keeps the rows whose bound reaches the
floor as a smaller :class:`SubsetMatrix`, in their order.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import chain
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..core.constraints import DistanceMode
from ..exceptions import UnknownTypeError
from ..graph.cliques import clique_index
from ..model.ids import TypeId
from .base import BATCH_SIZE, KernelBackend


class SubsetMatrix(Sequence):
    """Key subsets held as one ``(m, k)`` matrix of indices into ``nodes``.

    A read-only sequence of key tuples: ``len``, an int index (a tuple
    of type ids), a slice (another :class:`SubsetMatrix` over a view of
    the rows), iteration and pickling behave as on the equivalent list,
    so every consumer that reads subsets as tuples works unchanged.
    :class:`NumpyBackend` scores the matrix as it stands.
    """

    __slots__ = ("nodes", "rows")

    def __init__(self, nodes: Tuple[TypeId, ...], rows: np.ndarray) -> None:
        rows.flags.writeable = False
        self.nodes = nodes
        self.rows = rows

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, at):
        if isinstance(at, slice):
            return SubsetMatrix(self.nodes, self.rows[at])
        nodes = self.nodes
        return tuple([nodes[i] for i in self.rows[operator.index(at)].tolist()])

    def __iter__(self) -> Iterator[Tuple[TypeId, ...]]:
        nodes = self.nodes
        for start in range(0, len(self), BATCH_SIZE):
            for row in self.rows[start : start + BATCH_SIZE].tolist():
                yield tuple([nodes[i] for i in row])

    def __reduce__(self):
        return SubsetMatrix, (self.nodes, self.rows)


class NumpyColumns:
    """Rectangular lowering used by :class:`NumpyBackend`."""

    __slots__ = ("index", "rect", "lengths", "_tails")

    def __init__(
        self,
        index: Dict[object, int],
        weighted: Tuple[Tuple[float, ...], ...],
    ) -> None:
        self.index = index
        width = max((len(row) for row in weighted), default=0)
        rect = np.zeros((len(weighted), max(width, 1)), dtype=np.float64)
        for i, row in enumerate(weighted):
            if row:
                rect[i, : len(row)] = row
        self.rect = rect
        self.lengths = np.array([len(row) for row in weighted], dtype=np.intp)
        self._tails: Dict[int, np.ndarray] = {}

    def tails(self, cap: int) -> np.ndarray:
        """``(K, cap)`` strictly-positive merge tails, zero-padded."""
        cached = self._tails.get(cap)
        if cached is None:
            body = self.rect[:, 1 : cap + 1]
            if body.shape[1] < cap:
                pad = np.zeros(
                    (body.shape[0], cap - body.shape[1]), dtype=np.float64
                )
                body = np.concatenate([body, pad], axis=1)
            # np.where, not np.maximum: keeps padding an exact +0.0 and
            # drops every non-positive value like the merge's early stop.
            cached = np.where(body > 0.0, body, 0.0)
            self._tails[cap] = cached
        return cached


class NumpyBackend(KernelBackend):
    """Vectorized batched scoring over :class:`NumpyColumns`."""

    name = "numpy"
    #: Measured on the crossover ladder (see ``KernelBackend``).
    shard_threshold = 49_223

    def lower(self, source) -> NumpyColumns:
        """Lower source columns to padded numpy rectangles."""
        return NumpyColumns(source.index, source.weighted)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _resolve(self, index: Dict[object, int], subsets, k: int) -> np.ndarray:
        """``(len(subsets), k)`` row-index matrix for uniform-arity subsets."""
        try:
            flat = np.fromiter(
                map(index.__getitem__, chain.from_iterable(subsets)),
                dtype=np.intp,
                count=len(subsets) * k,
            )
        except KeyError as exc:
            raise UnknownTypeError(exc.args[0]) from None
        return flat.reshape(len(subsets), k)

    def _uniform_scores(
        self, columns: NumpyColumns, idx: np.ndarray, extra_cap: int
    ) -> np.ndarray:
        """Scores for one ``(B, k)`` index chunk; ``-inf`` = infeasible."""
        count, k = idx.shape
        feasible = (columns.lengths[idx] > 0).all(axis=1)
        if k > 1:
            ordered = np.sort(idx, axis=1)
            feasible &= (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
        acc = np.zeros(count, dtype=np.float64)
        first = columns.rect[:, 0]
        for j in range(k):
            acc += first[idx[:, j]]
        if extra_cap > 0 and k > 0:
            tails = columns.tails(extra_cap)
            if k == 1:
                merged = tails[idx[:, 0]]
                # Rows are already descending: accumulate left to right.
                for j in range(merged.shape[1]):
                    acc += merged[:, j]
            else:
                flat_width = k * extra_cap
                merged = tails[idx].reshape(count, flat_width)
                if flat_width > extra_cap:
                    merged = np.partition(
                        merged, flat_width - extra_cap, axis=1
                    )[:, flat_width - extra_cap :]
                merged = np.sort(merged, axis=1)
                # Ascending sort, so accumulate right to left to match
                # the merge's descending pop order.
                for j in range(merged.shape[1] - 1, -1, -1):
                    acc += merged[:, j]
        return np.where(feasible, acc, -np.inf)

    @staticmethod
    def _node_rows(index: Dict[object, int], subsets: SubsetMatrix) -> np.ndarray:
        """Pool row of each of ``subsets.nodes`` (``-1`` where absent).

        Raises :class:`~repro.exceptions.UnknownTypeError` for the first
        absent node a subset uses, in row-major order: the key a
        per-tuple resolution would have stopped at.
        """
        nodes = subsets.nodes
        lookup = np.fromiter(
            (index.get(node, -1) for node in nodes),
            dtype=np.intp,
            count=len(nodes),
        )
        missing = lookup < 0
        if missing.any():
            rows = subsets.rows
            unknown = missing[rows].ravel()
            if unknown.any():
                at = int(np.argmax(unknown))
                raise UnknownTypeError(nodes[int(rows.ravel()[at])])
        return lookup

    def _matrix_scores(
        self, columns: NumpyColumns, subsets: SubsetMatrix, extra_cap: int
    ) -> np.ndarray:
        """:meth:`_scores_array` for a :class:`SubsetMatrix`, no per-key lookups."""
        lookup = self._node_rows(columns.index, subsets)
        rows = subsets.rows
        scores = np.empty(len(rows), dtype=np.float64)
        for start in range(0, len(rows), BATCH_SIZE):
            scores[start : start + BATCH_SIZE] = self._uniform_scores(
                columns, lookup[rows[start : start + BATCH_SIZE]], extra_cap
            )
        return scores

    def _scores_array(
        self, columns: NumpyColumns, subsets, extra_cap: int
    ) -> np.ndarray:
        """One score per subset (``-inf`` = infeasible), original order."""
        if isinstance(subsets, SubsetMatrix):
            return self._matrix_scores(columns, subsets, extra_cap)
        total = len(subsets)
        arities = np.fromiter(map(len, subsets), dtype=np.intp, count=total)
        scores = np.empty(total, dtype=np.float64)
        if arities.min() == arities.max():
            idx = self._resolve(columns.index, subsets, int(arities[0]))
            for start in range(0, total, BATCH_SIZE):
                scores[start : start + BATCH_SIZE] = self._uniform_scores(
                    columns, idx[start : start + BATCH_SIZE], extra_cap
                )
            return scores
        # Rare mixed-arity batch: vectorize per arity, scatter back.
        by_len: Dict[int, List[int]] = {}
        for position, keys in enumerate(subsets):
            by_len.setdefault(len(keys), []).append(position)
        for k, positions in by_len.items():
            idx = self._resolve(
                columns.index, [subsets[position] for position in positions], k
            )
            group = np.empty(len(positions), dtype=np.float64)
            for start in range(0, len(positions), BATCH_SIZE):
                group[start : start + BATCH_SIZE] = self._uniform_scores(
                    columns, idx[start : start + BATCH_SIZE], extra_cap
                )
            scores[np.array(positions, dtype=np.intp)] = group
        return scores

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    @staticmethod
    def _join(level: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Level ``i + 1`` of the Apriori join from lexicographic level ``i``.

        ``upper`` is the strictly-upper compatibility matrix: ``upper[a,
        b]`` holds when ``a < b`` and the pair meets the bound.  Row
        ``r`` extends by every node set in its last member's ``upper``
        row and in every other member's (each lies below the last
        member, so its upper row covers every node above it);
        ``np.flatnonzero`` yields those ``(r, node)`` pairs row-major,
        so the result stays lexicographic.  ``level`` must be non-empty.
        """
        width = upper.shape[0]
        parts = []
        for start in range(0, len(level), BATCH_SIZE):
            chunk = level[start : start + BATCH_SIZE]
            extend = upper[chunk[:, -1]]
            for j in range(chunk.shape[1] - 1):
                extend &= upper[chunk[:, j]]
            counts = np.count_nonzero(extend, axis=1)
            part = np.empty((int(counts.sum()), chunk.shape[1] + 1), level.dtype)
            part[:, :-1] = np.repeat(chunk, counts, axis=0)
            part[:, -1] = np.flatnonzero(extend) % width
            parts.append(part)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # ------------------------------------------------------------------
    # KernelBackend surface
    # ------------------------------------------------------------------
    def qualifying_subsets(self, nodes, oracle, distance, k) -> SubsetMatrix:
        """The level-wise join over a dense compatibility matrix."""
        nodes = tuple(nodes)
        clique_index(nodes, k)
        count = len(nodes)
        dtype = np.min_scalar_type(max(count - 1, 0))
        if k == 0:  # the vacuous clique
            return SubsetMatrix(nodes, np.empty((1, 0), dtype=dtype))
        if k == 1:
            return SubsetMatrix(nodes, np.arange(count, dtype=dtype)[:, None])
        if count < 2:  # no pair to check, so no distance is read
            return SubsetMatrix(nodes, np.empty((0, k), dtype=dtype))
        table = np.frombuffer(oracle.dense(nodes), dtype=np.float64).reshape(
            count, count
        )
        if distance.mode is DistanceMode.TIGHT:
            adjacent = table <= distance.d
        else:
            adjacent = table >= distance.d
        # L2 seeding (Alg. 3 lines 1-5): pairs i < j, lexicographic.
        upper = np.triu(adjacent, 1)
        first, second = np.nonzero(upper)
        level = np.stack((first, second), axis=1).astype(dtype)
        # Joins (lines 6-12) over the same strictly-upper rows: a row
        # only extends by nodes above its last member.
        while level.shape[1] < k and len(level):
            level = self._join(level, upper)
        if level.shape[1] != k:
            level = np.empty((0, k), dtype=dtype)
        return SubsetMatrix(nodes, level)

    def best_allocation(self, columns, subsets, extra_cap):
        """Vectorized best-allocation over the whole batch."""
        if not subsets:
            return None
        scores = self._scores_array(columns, subsets, extra_cap)
        # argmax keeps the first occurrence of the maximum: the winner is
        # the lowest-index subset among equal scores, matching the serial
        # strict-``>`` loops.
        position = int(np.argmax(scores))
        score = float(scores[position])
        if score == float("-inf"):
            return None
        return score, position

    def subset_bounds(self, index, subsets, table_bounds):
        """Per-subset bounds: a column-wise gather-sum over pool rows.

        Column by column, like the scores, so each bound adds its keys'
        entries in key order; :data:`~repro.kernel.base.BATCH_SIZE`
        rows at a time, so the pool-row gather stays bounded.
        """
        if isinstance(subsets, SubsetMatrix):
            lookup = self._node_rows(index, subsets)
            matrix = subsets.rows
        else:
            lookup = None
            matrix = self._resolve(index, subsets, len(subsets[0]) if subsets else 0)
        vector = np.asarray(table_bounds, dtype=np.float64)
        count, k = matrix.shape
        bounds = np.zeros(count, dtype=np.float64)
        for start in range(0, count, BATCH_SIZE):
            rows = matrix[start : start + BATCH_SIZE]
            if lookup is not None:
                rows = lookup[rows]
            chunk = bounds[start : start + BATCH_SIZE]
            for j in range(k):
                chunk += vector[rows[:, j]]
            for j in range(1, k):
                for i in range(j):
                    chunk[rows[:, i] == rows[:, j]] = -np.inf
        if not count:
            return bounds, None
        seed = int(np.argmax(bounds))
        if np.isneginf(bounds[seed]):
            return bounds, None
        return bounds, seed

    def survivors(self, subsets, bounds, floor):
        """The subsets whose bound reaches ``floor``, in their order."""
        positions = np.flatnonzero(bounds >= floor)
        if isinstance(subsets, SubsetMatrix):
            return SubsetMatrix(subsets.nodes, subsets.rows[positions])
        return [subsets[at] for at in positions.tolist()]

    def batch_scores(self, columns, subsets, extra_cap):
        """Vectorized scores for every subset in the batch."""
        if not subsets:
            return []
        scores = self._scores_array(columns, subsets, extra_cap)
        infeasible = np.isneginf(scores)
        return [
            None if dead else value
            for value, dead in zip(scores.tolist(), infeasible.tolist())
        ]
