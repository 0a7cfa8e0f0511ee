"""User-experience questionnaire (Table 8) and its simulation model.

Four Likert-scale questions follow the existence tests in each domain:
Q1 readability, Q2 perceived understanding, Q3 perceived helpfulness,
Q4 perceived completeness.  The paper's central observation is a
*mismatch* between perception and efficacy: complex presentations (Graph,
YPS09) inflate perceived understanding/completeness, and the objectively
fastest approach (Tight) leaves the worst readability impression.

Because perception cannot be derived from first principles, the simulator
encodes perception priors per (question, approach) calibrated to the
paper's Table 9 orderings and adds per-response noise; the downstream
aggregation (per-domain means, cross-domain ranking) is the paper's own
computation.  DESIGN.md records this as an explicit substitution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..exceptions import EvaluationError

#: Table 8, abbreviated question texts.
QUESTIONS: Tuple[str, ...] = (
    "Q1: How easy was it to read the schema summary of this domain?",
    "Q2: How much understanding of the data can you gain from the summary?",
    "Q3: How helpful was the summary in assisting you to understand the data?",
    "Q4: Is the schema summary missing important information?",
)

#: Likert option labels per question (Table 8), scores 1..5 in order.
OPTION_LABELS: Dict[str, Tuple[str, ...]] = {
    "Q1": ("Very hard", "Hard", "Neutral", "Easy", "Very easy"),
    "Q2": ("Very little", "A little", "Neutral", "Some", "Very much"),
    "Q3": (
        "Not helpful at all",
        "Did not help much",
        "Neutral",
        "Somewhat helpful",
        "Very helpful",
    ),
    "Q4": (
        "Provides very little important information",
        "Provides some important information",
        "Neutral",
        "Provides most of the important information",
        "Provides all important information",
    ),
}

#: Perception priors per question — calibrated to reproduce the paper's
#: Table 9 cross-domain orderings (higher = more favourable perception).
PERCEPTION_PRIORS: Dict[str, Dict[str, float]] = {
    "Q1": {
        "Freebase": 4.25,
        "Diverse": 4.05,
        "Graph": 3.95,
        "Experts": 3.87,
        "YPS09": 3.80,
        "Concise": 3.72,
        "Tight": 3.55,
    },
    "Q2": {
        "Graph": 4.45,
        "Freebase": 4.28,
        "YPS09": 4.16,
        "Diverse": 4.06,
        "Concise": 3.97,
        "Tight": 3.89,
        "Experts": 3.80,
    },
    "Q3": {
        "Graph": 4.40,
        "Freebase": 4.25,
        "YPS09": 4.14,
        "Diverse": 4.05,
        "Experts": 3.96,
        "Concise": 3.88,
        "Tight": 3.78,
    },
    "Q4": {
        "YPS09": 3.95,
        "Concise": 3.78,
        "Experts": 3.68,
        "Graph": 3.58,
        "Tight": 3.47,
        "Freebase": 3.38,
        "Diverse": 3.25,
    },
}

QUESTION_KEYS = ("Q1", "Q2", "Q3", "Q4")

#: Per-response Gaussian noise before clamping to the 1-5 scale.
RESPONSE_NOISE = 0.55


@dataclass(frozen=True)
class LikertResponse:
    """One participant's four answers (integers 1-5) for one domain."""

    scores: Tuple[int, int, int, int]


def simulate_response(approach: str, rng: random.Random) -> LikertResponse:
    """Draw one participant's Q1-Q4 answers for ``approach``."""
    scores = []
    for question in QUESTION_KEYS:
        try:
            prior = PERCEPTION_PRIORS[question][approach]
        except KeyError:
            raise EvaluationError(
                f"no perception prior for approach {approach!r}"
            ) from None
        raw = rng.gauss(prior, RESPONSE_NOISE)
        scores.append(int(min(5, max(1, round(raw)))))
    return LikertResponse(scores=tuple(scores))


def mean_scores(responses: Sequence[LikertResponse]) -> Dict[str, float]:
    """Per-question mean scores (one Table 17-21 row)."""
    if not responses:
        raise EvaluationError("no responses to aggregate")
    means = {}
    for idx, question in enumerate(QUESTION_KEYS):
        means[question] = sum(r.scores[idx] for r in responses) / len(responses)
    return means


def rank_approaches(
    per_approach_means: Dict[str, Dict[str, float]], question: str
) -> List[str]:
    """Approaches by descending mean score on ``question`` (Table 9 rows)."""
    if question not in QUESTION_KEYS:
        raise EvaluationError(f"unknown question {question!r}")
    return sorted(
        per_approach_means,
        key=lambda approach: (-per_approach_means[approach][question], approach),
    )
