"""repro — a reproduction of "Generating Preview Tables for Entity Graphs".

Yan, Hasani, Asudeh, Li.  SIGMOD 2016.

The package generates *preview tables* for entity graphs: given a large,
heterogeneous typed graph (a knowledge base domain, a social graph, ...),
it selects a few important entity types and, for each, a small set of
highly related relationship types, producing compact tables that fit a
display-size constraint.

Quickstart
----------
>>> from repro import EntityGraphBuilder, discover_preview, render_preview
>>> b = EntityGraphBuilder("tiny")
>>> _ = b.entity("Men in Black", "FILM").entity("Will Smith", "FILM ACTOR")
>>> _ = b.relate("Will Smith", "Actor", "Men in Black")
>>> graph = b.build()
>>> result = discover_preview(graph, k=1, n=1)
>>> result.preview.table_count
1

See ``examples/`` for realistic scenarios and ``benchmarks/`` for the
paper's full experimental suite.
"""

from .core import (
    DISCOVERY_ALGORITHMS,
    DiscoveryResult,
    DistanceConstraint,
    DistanceMode,
    Preview,
    PreviewTable,
    SizeConstraint,
    apriori_discover,
    brute_force_discover,
    discover_preview,
    dynamic_programming_discover,
    make_context,
    materialize_preview,
    register_discovery_algorithm,
    render_preview,
)
from .engine import PreviewEngine, PreviewQuery
from .parallel import ScoringSnapshot, ShardedExecutor, resolve_jobs
from .exceptions import (
    DiscoveryError,
    InfeasiblePreviewError,
    InvalidConstraintError,
    ModelError,
    ReproError,
    SchemaViolationError,
    ScoringError,
    StoreError,
    WorkloadError,
)
from .model import (
    Direction,
    EntityGraph,
    EntityGraphBuilder,
    MutationDelta,
    MutationLog,
    NonKeyAttribute,
    RelationshipTypeId,
    SchemaGraph,
)
from .scoring import ScoringContext

__version__ = "1.9.0"

__all__ = [
    "DISCOVERY_ALGORITHMS",
    "Direction",
    "DiscoveryError",
    "DiscoveryResult",
    "DistanceConstraint",
    "DistanceMode",
    "EntityGraph",
    "EntityGraphBuilder",
    "InfeasiblePreviewError",
    "InvalidConstraintError",
    "ModelError",
    "MutationDelta",
    "MutationLog",
    "NonKeyAttribute",
    "Preview",
    "PreviewEngine",
    "PreviewQuery",
    "PreviewTable",
    "RelationshipTypeId",
    "ReproError",
    "SchemaGraph",
    "SchemaViolationError",
    "ScoringContext",
    "ScoringError",
    "ScoringSnapshot",
    "ShardedExecutor",
    "SizeConstraint",
    "StoreError",
    "WorkloadError",
    "apriori_discover",
    "brute_force_discover",
    "discover_preview",
    "dynamic_programming_discover",
    "make_context",
    "materialize_preview",
    "register_discovery_algorithm",
    "render_preview",
    "resolve_jobs",
    "__version__",
]
