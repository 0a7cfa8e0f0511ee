"""Stationary distributions of random walks over weighted graphs.

This powers the random-walk key-attribute scoring measure (Sec. 3.2).
The paper considers a walker over an undirected weighted graph ``G``
derived from the schema graph, with transition probability

    M_ij = w_ij / sum_k w_ik

and, to guarantee convergence on disconnected schema graphs, adds "a small
transition probability 1e-5 to every pair of entity types" (Sec. 6).  We
implement exactly that additive smoothing followed by row normalization,
then solve ``pi = pi M`` by power iteration.

Every float sum here runs left to right (``functools.reduce``), never
through builtin ``sum``, which compensates float sums since Python 3.12:
the distribution's bits, and so the random-walk scores, would otherwise
depend on the interpreter.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Dict, Hashable, List, Sequence

from ..exceptions import GraphError
from .simple import UndirectedGraph

Node = Hashable

#: Smoothing constant quoted in Sec. 6 of the paper.
DEFAULT_JUMP_PROBABILITY = 1e-5


def transition_matrix(
    graph: UndirectedGraph,
    nodes: Sequence[Node],
    jump_probability: float = DEFAULT_JUMP_PROBABILITY,
    self_loops: bool = False,
) -> List[List[float]]:
    """Row-stochastic transition matrix over ``nodes``.

    Each off-diagonal entry receives the additive smoothing term before
    normalization; a node with no incident weight still produces a valid
    (uniform-ish) row thanks to the smoothing.

    ``self_loops=True`` keeps diagonal weights (the YPS09 table-importance
    walk models a table's information content as a self-transition); the
    paper's schema random walk ignores them, the default.
    """
    if jump_probability < 0:
        raise GraphError("jump_probability must be non-negative")
    n = len(nodes)
    if n == 0:
        return []
    if n == 1:
        return [[1.0]]
    matrix: List[List[float]] = []
    for u in nodes:
        row = []
        for v in nodes:
            if u == v:
                row.append(graph.weight(u, v) if self_loops else 0.0)
            else:
                row.append(graph.weight(u, v) + jump_probability)
        total = reduce(add, row, 0)
        if total <= 0.0:
            # Isolated node with zero smoothing: make the row uniform over
            # the other nodes so the chain remains stochastic.
            uniform = 1.0 / (n - 1)
            row = [0.0 if v == u else uniform for v in nodes]
        else:
            row = [value / total for value in row]
        matrix.append(row)
    return matrix


def power_iteration(
    matrix: Sequence[Sequence[float]],
    tolerance: float = 1e-12,
    max_iterations: int = 10_000,
) -> List[float]:
    """Solve ``pi = pi M`` for a row-stochastic matrix by power iteration.

    Starts from the uniform distribution and iterates until the L1 change
    drops below ``tolerance``.  Raises :class:`GraphError` if the chain
    fails to converge within ``max_iterations`` (which indicates a
    periodic chain; smoothing prevents this in practice).
    """
    n = len(matrix)
    if n == 0:
        return []
    pi = [1.0 / n] * n
    for _ in range(max_iterations):
        nxt = [0.0] * n
        for i, p in enumerate(pi):
            if p == 0.0:
                continue
            row = matrix[i]
            for j, m in enumerate(row):
                if m:
                    nxt[j] += p * m
        total = reduce(add, nxt, 0)
        if total > 0:
            nxt = [value / total for value in nxt]
        delta = reduce(add, (abs(a - b) for a, b in zip(nxt, pi)), 0)
        pi = nxt
        if delta < tolerance:
            return pi
    raise GraphError(
        f"power iteration did not converge within {max_iterations} iterations"
    )


def stationary_distribution(
    graph: UndirectedGraph,
    jump_probability: float = DEFAULT_JUMP_PROBABILITY,
    tolerance: float = 1e-12,
    max_iterations: int = 10_000,
    self_loops: bool = False,
) -> Dict[Node, float]:
    """Stationary probability of each node of ``graph``.

    The returned mapping sums to 1 (up to floating point error).  The
    node iteration order of ``graph`` fixes the matrix indexing, so the
    result is deterministic for a deterministic graph construction order.
    """
    nodes = list(graph.nodes())
    matrix = transition_matrix(graph, nodes, jump_probability, self_loops=self_loops)
    # Power-iterate the *lazy* chain (I + M) / 2: it has the same
    # stationary distribution but is aperiodic, so bipartite schema
    # graphs (stars, trees) converge instead of oscillating.
    lazy = [
        [
            (value + (1.0 if i == j else 0.0)) / 2.0
            for j, value in enumerate(row)
        ]
        for i, row in enumerate(matrix)
    ]
    pi = power_iteration(lazy, tolerance=tolerance, max_iterations=max_iterations)
    return dict(zip(nodes, pi))
