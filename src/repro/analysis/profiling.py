"""Dataset profiling: the statistics a data worker inspects before
committing to a dataset — and the aggregates our generators are tuned to.

Produces per-domain profiles covering:

* size (entities, relationships, types) — the Table 2 shape;
* type population distribution (Zipf-ness, skew, top types);
* degree distribution of entities;
* schema-graph topology (diameter, average path length, density,
  distance histogram) — the quantities Sec. 6.2 quotes when discussing
  why certain distance constraints are (un)selective.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..graph import average_path_length, diameter
from ..model.entity_graph import EntityGraph
from ..model.schema_graph import SchemaGraph


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-plus-mean summary of a non-empty numeric sample."""

    count: int
    minimum: float
    median: float
    mean: float
    p90: float
    maximum: float

    @classmethod
    def of(cls, values: List[float]) -> "DistributionSummary":
        """Summarize ``values`` into distribution statistics."""
        if not values:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(values)
        n = len(ordered)
        return cls(
            count=n,
            minimum=ordered[0],
            median=ordered[n // 2],
            mean=sum(ordered) / n,
            p90=ordered[min(n - 1, int(0.9 * n))],
            maximum=ordered[-1],
        )


@dataclass(frozen=True)
class SchemaTopology:
    """Topological profile of a schema graph."""

    entity_types: int
    relationship_types: int
    diameter: int
    average_path_length: float
    density: float
    distance_histogram: Dict[int, int]

    def pairs_within(self, d: int) -> float:
        """Fraction of finite-distance pairs at distance <= d."""
        total = sum(self.distance_histogram.values())
        if total == 0:
            return 0.0
        close = sum(
            count for dist, count in self.distance_histogram.items() if dist <= d
        )
        return close / total


@dataclass(frozen=True)
class DatasetProfile:
    """Full profile of one entity graph."""

    name: str
    entities: int
    relationships: int
    type_populations: Dict[str, int]
    population_summary: DistributionSummary
    degree_summary: DistributionSummary
    zipf_exponent: float
    topology: SchemaTopology

    def top_types(self, count: int = 5) -> List[Tuple[str, int]]:
        """The ``count`` most frequent types, most frequent first."""
        return sorted(
            self.type_populations.items(), key=lambda item: (-item[1], item[0])
        )[:count]


def schema_topology(schema: SchemaGraph) -> SchemaTopology:
    """Compute the schema graph's topological profile."""
    graph = schema.undirected_weighted()
    oracle = schema.distance_oracle()
    types = schema.entity_types()
    histogram: Counter = Counter()
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            d = oracle.distance(a, b)
            if d != math.inf:
                histogram[int(d)] += 1
    k = schema.entity_type_count
    max_edges = k * (k - 1) if k > 1 else 1
    return SchemaTopology(
        entity_types=k,
        relationship_types=schema.relationship_type_count,
        diameter=diameter(graph) if k else 0,
        average_path_length=average_path_length(graph),
        density=schema.relationship_type_count / max_edges,
        distance_histogram=dict(histogram),
    )


def estimate_zipf_exponent(populations: List[int]) -> float:
    """Least-squares slope of log(count) vs. log(rank) (negated).

    Returns 0.0 for degenerate inputs (fewer than two distinct counts).
    """
    ordered = sorted((p for p in populations if p > 0), reverse=True)
    if len(ordered) < 2 or ordered[0] == ordered[-1]:
        return 0.0
    xs = [math.log(rank + 1) for rank in range(len(ordered))]
    ys = [math.log(count) for count in ordered]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        return 0.0
    return -(cov / var)


def profile_dataset(entity_graph: EntityGraph) -> DatasetProfile:
    """Profile an entity graph (sizes, skew, degrees, schema topology)."""
    schema = SchemaGraph.from_entity_graph(entity_graph)
    populations = {
        t: entity_graph.type_count(t) for t in entity_graph.entity_types()
    }
    degrees: Counter = Counter()
    for source, target, _rel in entity_graph.relationships():
        degrees[source] += 1
        degrees[target] += 1
    degree_values = [float(degrees.get(e, 0)) for e in entity_graph.entities()]
    return DatasetProfile(
        name=entity_graph.name,
        entities=entity_graph.entity_count,
        relationships=entity_graph.edge_count,
        type_populations=populations,
        population_summary=DistributionSummary.of(
            [float(v) for v in populations.values()]
        ),
        degree_summary=DistributionSummary.of(degree_values),
        zipf_exponent=estimate_zipf_exponent(list(populations.values())),
        topology=schema_topology(schema),
    )


def profile_report(profile: DatasetProfile) -> str:
    """Human-readable profile report (used by the CLI-style examples)."""
    lines = [
        f"dataset: {profile.name}",
        f"  entities: {profile.entities}   relationships: {profile.relationships}",
        f"  entity types: {profile.topology.entity_types}   "
        f"relationship types: {profile.topology.relationship_types}",
        f"  type population: median={profile.population_summary.median:.0f} "
        f"p90={profile.population_summary.p90:.0f} "
        f"max={profile.population_summary.maximum:.0f} "
        f"(zipf ~ {profile.zipf_exponent:.2f})",
        f"  entity degree: mean={profile.degree_summary.mean:.1f} "
        f"p90={profile.degree_summary.p90:.0f} "
        f"max={profile.degree_summary.maximum:.0f}",
        f"  schema: diameter={profile.topology.diameter} "
        f"avg path={profile.topology.average_path_length:.2f} "
        f"density={profile.topology.density:.3f}",
        "  top types: "
        + ", ".join(f"{t} ({c})" for t, c in profile.top_types(5)),
    ]
    return "\n".join(lines)
