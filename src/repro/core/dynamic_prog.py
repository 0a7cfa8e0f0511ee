"""Dynamic-programming optimal *concise* preview discovery (Alg. 2).

Order the ``K`` candidate key types arbitrarily.  Let ``best(i, j, x)`` be
the best score of a preview with exactly ``i`` tables and at most ``j``
non-key attributes drawn from the first ``x`` types.  The optimal
substructure (Sec. 5.2):

    best(i, j, x) = max( best(i, j, x-1),
                         max_m best(i-1, j-m, x-1) + score(T_x^m) )

where ``T_x^m`` is the table keyed on type ``x`` with its top-``m``
candidates and ``1 <= m <= min(j - (i-1), |Γτx|)`` (every other table
still needs one attribute).

Before the recurrence runs, :func:`undominated_rows` drops every type
that ``k`` other types beat outright: each of them has a one-attribute
table above the type's widest table, so swapping one of them in
improves any preview holding the type.  The recurrence then runs over
the ``K'`` kept types in their original order and finds the same
preview, bit for bit.  Complexity ``O(K N log N + K log K + K' k
n^2)``; on the built-in domains ``K'`` is a handful of the ``K`` types.

The substructure breaks under a distance constraint (a table's eligibility
would depend on *which* earlier tables were chosen, not just how many), so
this algorithm serves concise previews only — the paper makes the same
point and routes tight/diverse discovery to Alg. 3.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

from ..model.ids import TypeId
from ..scoring.preview_score import ScoringContext
from .candidates import sum_margin
from .constraints import DistanceConstraint, SizeConstraint, validate_constraints
from .preview import DiscoveryResult, Preview, PreviewTable
from .registry import register_discovery_algorithm

_NEG_INF = float("-inf")

#: ``(row position, m)``: a table keyed on that row's type with its
#: top-``m`` candidates.
Pick = Tuple[int, int]


def dynamic_programming_discover(
    context: ScoringContext,
    size: SizeConstraint,
) -> Optional[DiscoveryResult]:
    """Find an optimal concise preview in ``O(K log K + K' k n^2)`` DP time.

    Raises :class:`~repro.exceptions.InvalidConstraintError` when fewer
    than ``k`` types can key a table.  The DP runs over the types
    :func:`undominated_rows` keeps and maximizes total score; the
    preview is reconstructed from per-state choice records (``m``
    attributes taken for type ``x``, or skip).  ``candidates_examined``
    counts every eligible type's states.
    """
    pool = context.candidate_pool()
    key_pool = list(pool.eligible)
    validate_constraints(size, None, key_pool)
    k, n = size.k, size.n

    # Prefix table scores: rows[x][m] = S(T_x^m) for m = 0..cap — read
    # straight off the pool's precomputed prefix-sum rows.
    cap = size.max_attributes_per_table
    rows = [pool.prefix[pool.index[type_name]][: cap + 1] for type_name in key_pool]
    kept = undominated_rows(rows, k, n)
    found = concise_dp([rows[x] for x in kept], k, n)
    if found is None:
        return None
    return concise_result(
        context, key_pool, [(kept[x], m) for x, m in found[1]], size
    )


def undominated_rows(rows: Sequence[Sequence[float]], k: int, n: int) -> List[int]:
    """Positions of the prefix rows that can hold a table of an optimal preview.

    ``rows[x][m]`` is the score of type ``x``'s top-``m`` table, cut at
    the widest table allowed (``len(rows) >= k``, every row at least
    ``(0.0, top-1)``).  Row ``y`` is dropped when at least ``k`` other
    rows have a one-attribute table ``row[1]`` strictly above
    ``rows[y][-1] + margin``, where the margin is
    ``(2γ(n) + 3u)·T`` (:func:`~repro.core.candidates.sum_margin`) and
    ``T`` is the sum of the ``k`` largest widest tables.  A row's own
    ``row[1]`` never exceeds its ``row[-1]``, so the ``k`` rows with the
    largest ``row[1]`` are always kept, and so are identical rows and
    all-zero rows.  Two partial sorts: ``O(K log k)``.  The positions
    come back in their original order.

    Why it is exact.  Scores are non-negative, so every row is
    non-decreasing and a table of row ``y`` scores at most
    ``w = rows[y][-1]``.  A DP solution holds ``k`` tables of distinct
    rows; its computed value is their sum from ``0.0`` in row order:
    ``k - 1`` roundings of non-negative terms, within a factor
    ``1 ± γ(k - 1)`` of the exact sum ``Σ``, and ``Σ <= T*``, the
    exact sum of the ``k`` largest widest tables.

    * Swap.  Let solution ``S`` hold row ``y``, dropped.  At most
      ``k - 1`` of its other rows dominate ``y``, so a dominator ``z``
      lies outside ``S``.  Replacing ``y``'s table by ``z``'s
      one-attribute table keeps ``k`` tables and needs no more
      attributes, so it is a solution ``S'`` with exact sum
      ``Σ' = Σ - t_y + a`` where ``t_y <= w`` and ``a = rows[z][1]``.
      ``S'`` computes strictly above ``S`` when
      ``Σ'·(1 - γ(k-1)) > Σ·(1 + γ(k-1))``, which holds when
      ``a - w > 2γ(k-1)·T*/(1 - γ(k-1))``.
    * Margin.  The test ``a > fl(w + M)`` gives
      ``a - w > M·(1 - u) - u·T*``.  The computed ``T`` is at least
      ``T*·(1 - u)`` (:func:`math.fsum`), so ``M`` is at least
      ``(2γ(n) + 3u)·T*`` less a few relative ``u``.  As ``n >= k``,
      ``2γ(n) >= 2γ(k - 1) + 2u``, so the margin exceeds the swap's
      requirement by about ``4u·T*``.

    So no solution holding a dropped row reaches the DP's optimum
    ``V``.  Removing such rows changes no decision on the
    reconstruction path either.  Float addition is monotone, so each
    DP state holds the largest computed sum of its partial solutions,
    and each state on the path holds a partial sum of the reconstructed
    preview.  A partial solution through a dropped row that reached
    one of those values would, completed by the preview's remaining
    tables, reach ``V``.  So every value on the path is unchanged,
    every value read beside it can only fall, and the DP, which takes a
    type only when that is strictly better, takes the same ``m`` at
    every step.
    """
    widest = [row[-1] for row in rows]
    kth_single = heapq.nlargest(k, [row[1] for row in rows])[-1]
    margin = sum_margin(n) * math.fsum(heapq.nlargest(k, widest))
    return [x for x, bound in enumerate(widest) if kth_single <= bound + margin]


def concise_dp(
    rows: Sequence[Sequence[float]], k: int, n: int
) -> Optional[Tuple[float, List[Pick]]]:
    """Alg. 2's recurrence over explicit prefix rows, in their order.

    Returns the best value with exactly ``k`` tables and at most ``n``
    attributes, and the picks reconstructed for it in ascending row
    order; None when no ``k`` tables fit.  Ties keep the earlier
    choice: a type is taken only when that is strictly better.
    :func:`dynamic_programming_discover` runs it over the rows
    :func:`undominated_rows` keeps; run over every row, it is the
    unpruned reference.
    """
    big_k = len(rows)
    # dp[i][j] = best score with exactly i tables, <= j attributes, over
    # the first x types; choice[x][i][j] = m taken for type x-1 (0 = skip).
    dp = [[_NEG_INF] * (n + 1) for _ in range(k + 1)]
    for j in range(n + 1):
        dp[0][j] = 0.0
    choice = [
        [[0] * (n + 1) for _ in range(k + 1)] for _ in range(big_k + 1)
    ]

    for x in range(1, big_k + 1):
        scores_x = rows[x - 1]
        max_m = len(scores_x) - 1
        # Iterate i downward so dp rows can be updated in place (each type
        # is used at most once, like 0/1 knapsack).
        for i in range(min(k, x), 0, -1):
            row_prev = dp[i - 1]
            row_cur = dp[i]
            for j in range(n, i - 1, -1):
                best = row_cur[j]
                best_m = 0
                m_hi = min(j - (i - 1), max_m)
                for m in range(1, m_hi + 1):
                    base = row_prev[j - m]
                    if base == _NEG_INF:
                        continue
                    cand = base + scores_x[m]
                    if cand > best:
                        best = cand
                        best_m = m
                if best_m:
                    row_cur[j] = best
                choice[x][i][j] = best_m

    value = dp[k][n]
    if value == _NEG_INF:
        return None

    # Reconstruction: walk x from K down, replaying the in-place updates.
    # Because rows were updated in place, choice[x][i][j] records the m
    # chosen when type x was processed; if 0 the type was skipped.
    picks: List[Pick] = []
    i, j = k, n
    for x in range(big_k, 0, -1):
        m = choice[x][i][j]
        if m == 0:
            continue
        picks.append((x - 1, m))
        i -= 1
        j -= m
        if i == 0:
            break
    if i != 0:
        # Should be unreachable: dp said k tables fit.
        return None
    picks.reverse()
    return value, picks


def concise_result(
    context: ScoringContext,
    key_pool: Sequence[TypeId],
    picks: Sequence[Pick],
    size: SizeConstraint,
) -> DiscoveryResult:
    """The :class:`DiscoveryResult` for ``picks`` over ``key_pool``'s rows."""
    pool = context.candidate_pool()
    preview = Preview(
        tables=tuple(
            PreviewTable(key=key_pool[x], nonkey=pool.top_m_attrs(key_pool[x], m))
            for x, m in picks
        )
    )
    return DiscoveryResult(
        preview=preview,
        score=context.preview_score(preview.as_pairs()),
        algorithm="dynamic-programming",
        key_scorer=context.key_scorer_name,
        nonkey_scorer=context.nonkey_scorer_name,
        candidates_examined=len(key_pool) * size.k * size.n,
    )


@register_discovery_algorithm(
    "dynamic-programming",
    shapes=("concise",),
    auto_rank=0,
    notes=(
        "the optimal substructure breaks under distance constraints, "
        "Sec. 5.2 — use apriori or brute-force for tight/diverse previews"
    ),
)
def _registered_dynamic_programming(
    context: ScoringContext,
    size: SizeConstraint,
    distance: Optional[DistanceConstraint] = None,
) -> Optional[DiscoveryResult]:
    """Registry adapter: the DP serves concise previews only."""
    return dynamic_programming_discover(context, size)
