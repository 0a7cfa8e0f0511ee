"""Unit tests for repro.scoring — including the paper's worked examples."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ScoringError, UnknownScorerError
from repro.model import RelationshipTypeId, SchemaGraph, incoming, outgoing
from repro.scoring import (
    CoverageKeyScorer,
    EntropyNonKeyScorer,
    RandomWalkKeyScorer,
    ScoringContext,
    attribute_entropy,
    make_key_scorer,
    make_nonkey_scorer,
    value_set_entropy,
)

DIRECTOR = RelationshipTypeId("Director", "FILM DIRECTOR", "FILM")
GENRES = RelationshipTypeId("Genres", "FILM", "FILM GENRE")
ACTOR = RelationshipTypeId("Actor", "FILM ACTOR", "FILM")


class TestCoverage:
    def test_key_scores_are_populations(self, fig1_schema):
        scores = CoverageKeyScorer().score_all(fig1_schema)
        assert scores["FILM"] == 4.0  # Scov(FILM) = 4 in the paper
        assert scores["FILM ACTOR"] == 2.0
        assert scores["AWARD"] == 2.0

    def test_nonkey_scores_are_edge_counts(self, fig1_context):
        # SFILMcov(Director) = 4 and SFILMcov(Genres) = 5 (Sec. 3.3).
        assert fig1_context.nonkey_score("FILM", incoming(DIRECTOR)) == 4.0
        assert fig1_context.nonkey_score("FILM", outgoing(GENRES)) == 5.0

    def test_coverage_symmetric(self, fig1_graph, fig1_schema):
        ctx = ScoringContext(fig1_schema, fig1_graph, "coverage", "coverage")
        assert ctx.nonkey_score("FILM", incoming(ACTOR)) == ctx.nonkey_score(
            "FILM ACTOR", outgoing(ACTOR)
        )


class TestRandomWalk:
    def test_transition_example(self, fig1_graph, fig1_schema):
        """Sec. 3.2: M(FILM -> FILM GENRE) = w / (total incident w).

        Our Fig. 1 excerpt has FILM incident weights Genres=5, Actor=6,
        Director=4, Executive Producer=1 (total 16); the paper's Fig. 3
        adds Producer edges it does not draw in Fig. 1.
        """
        weighted = fig1_schema.undirected_weighted()
        total = weighted.weighted_degree("FILM")
        assert total == pytest.approx(16.0)
        assert weighted.weight("FILM", "FILM GENRE") / total == pytest.approx(
            5 / 16
        )

    def test_scores_sum_to_one(self, fig1_schema):
        scores = RandomWalkKeyScorer().score_all(fig1_schema)
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_hub_ranks_first(self, fig1_schema):
        scores = RandomWalkKeyScorer().score_all(fig1_schema)
        assert max(scores, key=scores.get) == "FILM"

    def test_empty_schema(self):
        assert RandomWalkKeyScorer().score_all(SchemaGraph()) == {}


class TestEntropy:
    def test_paper_director_example(self, fig1_graph):
        """SFILMent(Director) = 0.45 (base-10, Sec. 3.3)."""
        value = attribute_entropy(fig1_graph, "FILM", incoming(DIRECTOR))
        assert value == pytest.approx(0.4515, abs=1e-3)

    def test_paper_genres_example(self, fig1_graph):
        """SFILMent(Genres) = 0.28: multi-valued sets compared as sets."""
        value = attribute_entropy(fig1_graph, "FILM", outgoing(GENRES))
        assert value == pytest.approx(0.2764, abs=1e-3)

    def test_entropy_asymmetric(self, fig1_graph):
        # Sτent(γ) depends on which side's tuples are grouped: Genres has
        # entropy 0.276 from FILM's side but log10(2) from FILM GENRE's.
        film_side = attribute_entropy(fig1_graph, "FILM", outgoing(GENRES))
        genre_side = attribute_entropy(fig1_graph, "FILM GENRE", incoming(GENRES))
        assert film_side == pytest.approx(0.2764, abs=1e-3)
        assert genre_side == pytest.approx(math.log10(2), abs=1e-9)
        assert film_side != pytest.approx(genre_side)

    def test_uniform_values_max_entropy(self):
        from collections import Counter

        groups = Counter({"a": 1, "b": 1, "c": 1, "d": 1})
        assert value_set_entropy(groups, 4) == pytest.approx(math.log10(4))

    def test_constant_value_zero_entropy(self):
        from collections import Counter

        assert value_set_entropy(Counter({"a": 7}), 7) == 0.0

    def test_empty_histogram_zero(self):
        from collections import Counter

        assert value_set_entropy(Counter(), 0) == 0.0

    def test_scores_do_not_depend_on_the_hash_seed(self):
        """Entropy-scored answers keep their bits across ``PYTHONHASHSEED``.

        Each value histogram is filled by iterating a frozenset of
        entity ids, whose order follows the process's string hash seed;
        the entropy sum over it must not.  Two processes with different
        seeds answer the same film queries and must agree on every
        score's ``float.hex`` and every payload digest.
        """
        code = (
            "import json\n"
            "from repro.core.serialize import result_to_dict\n"
            "from repro.datasets import load_domain\n"
            "from repro.engine import PreviewEngine, PreviewQuery\n"
            "from repro.workload import payload_digest\n"
            "engine = PreviewEngine(load_domain('film', scale=1000, seed=0),\n"
            "                       nonkey_scorer='entropy')\n"
            "queries = [PreviewQuery(k=2, n=2),\n"
            "           PreviewQuery(k=2, n=2, d=2, mode='tight'),\n"
            "           PreviewQuery(k=3, n=3, d=2, mode='tight')]\n"
            "results = [engine.run(query) for query in queries]\n"
            "print(json.dumps([[r.score.hex(),\n"
            "                   payload_digest({'result': result_to_dict(r)})]\n"
            "                  for r in results]))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        answers = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-c", code],
                check=True,
                env=env,
                capture_output=True,
                text=True,
            )
            answers.append(json.loads(done.stdout))
        assert answers[0] == answers[1]

    def test_requires_entity_graph(self, fig1_schema):
        with pytest.raises(ScoringError):
            ScoringContext(fig1_schema, None, "coverage", "entropy")

    def test_bad_log_base_rejected(self):
        with pytest.raises(ScoringError):
            EntropyNonKeyScorer(log_base=1.0)


class TestRegistry:
    def test_known_scorers(self):
        assert make_key_scorer("coverage").name == "coverage"
        assert make_key_scorer("random_walk").name == "random_walk"
        assert make_nonkey_scorer("coverage").name == "coverage"
        assert make_nonkey_scorer("entropy").name == "entropy"

    def test_unknown_scorer_raises(self):
        with pytest.raises(UnknownScorerError):
            make_key_scorer("pagerank9000")
        with pytest.raises(UnknownScorerError):
            make_nonkey_scorer("vibes")


class TestScoringContext:
    def test_table_score_eq2(self, fig1_context):
        """S(T) = S(τ) × Σ Sτ(γ): FILM table with Director+Genres."""
        score = fig1_context.table_score(
            "FILM", [incoming(DIRECTOR), outgoing(GENRES)]
        )
        assert score == pytest.approx(4.0 * (4.0 + 5.0))

    def test_preview_score_eq1_additive(self, fig1_context):
        tables = [
            ("FILM", (incoming(DIRECTOR),)),
            ("FILM ACTOR", (outgoing(ACTOR),)),
        ]
        total = fig1_context.preview_score(tables)
        parts = sum(
            fig1_context.table_score(key, attrs) for key, attrs in tables
        )
        assert total == pytest.approx(parts)

    def test_sorted_candidates_descending(self, fig1_context):
        ranked = fig1_context.sorted_candidates("FILM")
        scores = [score for _attr, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_top_m_prefix_sum(self, fig1_context):
        ranked = fig1_context.sorted_candidates("FILM")
        manual = fig1_context.key_score("FILM") * sum(s for _a, s in ranked[:2])
        assert fig1_context.top_m_table_score("FILM", 2) == pytest.approx(manual)

    def test_top_m_negative_rejected(self, fig1_context):
        with pytest.raises(ScoringError):
            fig1_context.top_m_table_score("FILM", -1)

    def test_nonkey_score_wrong_key_raises(self, fig1_context):
        with pytest.raises(ScoringError):
            fig1_context.nonkey_score("AWARD", outgoing(GENRES))

    def test_ranked_key_types_order(self, fig1_context):
        ranked = fig1_context.ranked_key_types()
        assert ranked[0][0] == "FILM"
        scores = [score for _t, score in ranked]
        assert scores == sorted(scores, reverse=True)
