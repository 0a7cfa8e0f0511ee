"""Dominated-type pruning in the concise DP: the pruned answer is the unpruned one.

:func:`repro.core.dynamic_prog.dynamic_programming_discover` drops every
key type that ``k`` other types beat outright
(:func:`~repro.core.dynamic_prog.undominated_rows`) before it runs the
recurrence.  :func:`~repro.core.dynamic_prog.concise_dp` run over every
row is the unpruned reference, and every check here diffs against it:
the value's ``float.hex``, the picks, and the whole
:class:`~repro.core.preview.DiscoveryResult` payload,
``candidates_examined`` included.  Coverage:

* a hypothesis property over random pools with planted exact ties,
  identical rows, all-zero rows, one-candidate rows, rows of unequal
  length, and dominators one ulp above a widest table (inside the
  margin), for ``k`` 1-9 and ``n`` from ``k`` to ``3k + 3``;
* a hand-built pool where a margin-less prune changes the answer;
* a sweep over three built-in domains and two scorer pairs.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.constraints import SizeConstraint
from repro.core.discovery import make_context
from repro.core.dynamic_prog import (
    concise_dp,
    concise_result,
    dynamic_programming_discover,
    undominated_rows,
)
from repro.core.serialize import result_to_dict
from repro.datasets import load_domain
from repro.model import Direction, NonKeyAttribute, RelationshipTypeId
from repro.scoring.candidate_pool import CandidatePool


def attribute(key: str, rank: int) -> NonKeyAttribute:
    return NonKeyAttribute(
        RelationshipTypeId(f"r{rank}", key, f"V{rank}"), Direction.OUT
    )


class RowsContext:
    """A hand-built candidate pool behind the surface the DP reads."""

    key_scorer_name = "coverage"
    nonkey_scorer_name = "coverage"

    def __init__(self, key_scores, rows):
        self.pool = CandidatePool.build(
            list(key_scores),
            key_scores,
            {
                key: [(attribute(key, rank), score) for rank, score in enumerate(row)]
                for key, row in rows.items()
            },
        )

    def candidate_pool(self) -> CandidatePool:
        return self.pool

    def preview_score(self, tables) -> float:
        """Eq. 1 from the prefix tables, summed left to right."""
        pool = self.pool
        return reduce(
            add,
            (pool.prefix[pool.index[key]][len(attrs)] for key, attrs in tables),
            0,
        )


def payload(result):
    """Everything a caller reads off a result, the score as its bits."""
    if result is None:
        return None
    return result_to_dict(result), result.score.hex()


def assert_pruning_exact(context, size):
    """The pruned DP matches the unpruned loop in value, picks and payload."""
    pool = context.candidate_pool()
    key_pool = list(pool.eligible)
    cap = size.max_attributes_per_table
    rows = [pool.prefix[pool.index[key]][: cap + 1] for key in key_pool]
    got = dynamic_programming_discover(context, size)
    kept = undominated_rows(rows, size.k, size.n)
    assert kept == sorted(set(kept))
    by_single = sorted(range(len(rows)), key=lambda x: rows[x][1], reverse=True)
    assert set(by_single[: size.k]) <= set(kept)

    reference = concise_dp(rows, size.k, size.n)
    pruned = concise_dp([rows[x] for x in kept], size.k, size.n)
    if reference is None:
        assert pruned is None and got is None
        return len(rows) - len(kept)
    assert pruned is not None
    assert pruned[0].hex() == reference[0].hex()
    assert [(kept[x], m) for x, m in pruned[1]] == reference[1]
    expected = concise_result(context, key_pool, reference[1], size)
    assert payload(got) == payload(expected)
    assert got.candidates_examined == len(key_pool) * size.k * size.n
    return len(rows) - len(kept)


# ----------------------------------------------------------------------
# Random pools
# ----------------------------------------------------------------------
#: Few distinct values, so exact ties and identical rows are common.
SCORES = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0, 1.0 / 3])
KEY_SCORES = st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5, 0.1 + 0.2])


@st.composite
def pools(draw):
    """A pool with planted ties, zero rows and ulp-close dominators."""
    k = draw(st.integers(1, 9))
    n = draw(st.integers(k, 3 * k + 3))
    key_scores, rows = {}, {}

    def add_type(key_score, row):
        name = f"T{len(rows)}"
        key_scores[name] = key_score
        rows[name] = row
        return name

    for _ in range(draw(st.integers(k, k + 8))):
        shape = draw(st.sampled_from(["random", "copy", "zero", "single"]))
        if shape == "copy" and rows:
            source = draw(st.sampled_from(sorted(rows)))
            add_type(key_scores[source], rows[source])
        elif shape == "zero":
            add_type(draw(KEY_SCORES), (0.0,) * draw(st.integers(1, 4)))
        elif shape == "single":
            add_type(draw(KEY_SCORES), (draw(SCORES),))
        else:
            row = draw(st.lists(SCORES, min_size=1, max_size=n + 2))
            add_type(draw(KEY_SCORES), tuple(sorted(row, reverse=True)))

    # Dominators one ulp above some type's widest table: far inside the
    # margin, so that type must stay.
    if draw(st.booleans()):
        context = RowsContext(key_scores, rows)
        pool = context.pool
        cap = n - k + 1
        widest = [
            row[min(cap, len(row) - 1)] for row in pool.prefix if len(row) > 1
        ]
        target = draw(st.sampled_from(widest))
        for _ in range(draw(st.integers(k, k + 2))):
            add_type(1.0, (math.nextafter(target, math.inf),))
    return RowsContext(key_scores, rows), SizeConstraint(k=k, n=n)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(pools())
def test_pruned_dp_equals_unpruned(drawn):
    context, size = drawn
    assert_pruning_exact(context, size)


# ----------------------------------------------------------------------
# The margin is needed
# ----------------------------------------------------------------------
def test_margin_keeps_a_type_tied_with_its_dominators():
    """Types ``Z1``, ``Z2`` beat ``Y`` by one ulp, yet ``Y`` is the answer.

    ``1.0 + 0.25`` and ``1.0 + nextafter(0.25)`` round to the same
    float, so ``{Y, X}`` and ``{X, Z1}`` tie, and the DP keeps ``Y``,
    the earlier choice.  Without the margin, three types beat ``Y``'s
    widest table outright, ``Y`` would be dropped and ``{X, Z1}``
    returned.
    """
    above = math.nextafter(0.25, math.inf)
    context = RowsContext(
        {"Y": 1.0, "X": 1.0, "Z1": 1.0, "Z2": 1.0},
        {"Y": (0.25,), "X": (1.0,), "Z1": (above,), "Z2": (above,)},
    )
    size = SizeConstraint(k=2, n=2)
    rows = [context.pool.prefix[i] for i in range(4)]
    assert undominated_rows(rows, 2, 2) == [0, 1, 2, 3]
    assert concise_dp(rows, 2, 2)[1] == [(0, 1), (1, 1)]
    assert concise_dp(rows[1:], 2, 2)[1] == [(0, 1), (1, 1)]  # X, Z1
    assert_pruning_exact(context, size)
    result = dynamic_programming_discover(context, size)
    assert result.preview.keys() == ["Y", "X"]


def test_dominated_types_are_dropped():
    """Two types whose top-1 tables beat ``C``'s widest drop it at k=2."""
    context = RowsContext(
        {"A": 1.0, "B": 1.0, "C": 1.0},
        {"A": (0.9, 0.1), "B": (0.8,), "C": (0.3, 0.2)},
    )
    rows = [context.pool.prefix[i] for i in range(3)]
    assert undominated_rows(rows, 2, 4) == [0, 1]
    assert undominated_rows(rows, 3, 4) == [0, 1, 2]
    assert_pruning_exact(context, SizeConstraint(k=2, n=4))


# ----------------------------------------------------------------------
# Built-in domains
# ----------------------------------------------------------------------
@pytest.mark.parametrize("domain", ["film", "tv", "people"])
@pytest.mark.parametrize(
    "scorers", [("coverage", "coverage"), ("random_walk", "entropy")]
)
def test_domains_match_the_unpruned_dp(domain, scorers):
    context = make_context(
        load_domain(domain), key_scorer=scorers[0], nonkey_scorer=scorers[1]
    )
    dropped = 0
    for k, n in [(1, 1), (1, 4), (2, 6), (3, 9), (4, 12), (6, 10), (9, 30)]:
        dropped += assert_pruning_exact(context, SizeConstraint(k=k, n=n))
    assert dropped > 0
