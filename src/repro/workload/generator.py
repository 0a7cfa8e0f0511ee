"""Seeded scenario generation for workload traces.

:func:`generate_trace` turns a named :class:`ScenarioSpec` (or a custom
one) into a deterministic :class:`~repro.workload.trace.WorkloadTrace`
over one built-in domain.  The generator reproduces the traffic shapes
the serving stack was built for:

* **Zipf-skewed hot queries** — reads draw from a small pool of
  distinct queries with Zipfian popularity, so a handful of queries
  dominate (the regime where response caching and coalescing matter);
* **mutation bursts** — writes arrive in runs of ``burst_length``, the
  way imports and backfills do, stressing invalidation batching;
* **structural-change spikes** — occasional mutations introduce a
  brand-new entity type, forcing the full-invalidation path instead of
  patching;
* **multi-client interleavings** — ops carry a logical client id; the
  serve replayer maps each id to its own connection while the trace
  order stays the total order.

Everything is derived from one :class:`random.Random` seeded by the
caller: the same ``(domain, scale, seed, spec, ops)`` always produces
the identical trace, byte for byte.  Relationship mutations only ever
reference entities that provably exist at that point in the replay —
base-graph entities (sorted, so hash randomization cannot perturb the
choice) or entities the trace itself created earlier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..datasets.freebase_like import DOMAINS, generate_domain
from ..datasets.loader import graph_fingerprint
from ..datasets.profiles import DEFAULT_SCALE
from ..engine import PreviewQuery
from ..exceptions import WorkloadError
from .trace import TraceOp, WorkloadTrace

#: Algorithms whose shape constraints the query-pool builder knows.
#: ``None`` d is the concise shape; a distance constraint is tight or
#: diverse.  (Mirrors the registry's declared shapes; kept literal so
#: generating a trace never imports algorithm modules.)
_CONCISE_CAPABLE = ("auto", "dynamic-programming", "brute-force", "branch-and-bound")
_DISTANCE_CAPABLE = ("auto", "apriori", "brute-force", "branch-and-bound")


@dataclass(frozen=True)
class ScenarioSpec:
    """The knobs of one workload scenario.

    Rates are fractions of the op stream (mutations are *burst starts*:
    a stream with ``mutate_rate=0.3`` and ``burst_length=4`` is still
    ~30% writes, arriving four at a time).
    """

    name: str
    #: Fraction of ops that are mutations.
    mutate_rate: float = 0.25
    #: Mutations arrive in runs of this length.
    burst_length: int = 1
    #: Fraction of mutations that introduce a brand-new entity type
    #: (a *structural* mutation: downstream caches fully invalidate).
    structural_rate: float = 0.0
    #: Fraction of non-structural mutations that add a relationship
    #: instance rather than an entity.
    relationship_rate: float = 0.5
    #: Fraction of read ops that are sweeps rather than single previews.
    sweep_rate: float = 0.1
    #: Fraction of ops that are ``stats`` accounting probes.
    stats_rate: float = 0.05
    #: Zipf exponent of the hot-query popularity ranking.
    zipf_exponent: float = 1.1
    #: Logical clients ops are attributed to.
    clients: int = 1
    #: Distinct queries in the hot pool.
    query_pool: int = 8
    #: Algorithms reads may name (filtered per query by shape).
    algorithms: Tuple[str, ...] = ("auto",)

    def validated(self) -> "ScenarioSpec":
        """This spec, or :class:`WorkloadError` on out-of-range knobs."""
        for name in ("mutate_rate", "structural_rate", "relationship_rate",
                     "sweep_rate", "stats_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"scenario {name} must be in [0, 1], got {value}")
        if self.mutate_rate + self.stats_rate > 1.0:
            raise WorkloadError("mutate_rate + stats_rate must not exceed 1")
        for name in ("burst_length", "clients", "query_pool"):
            if getattr(self, name) < 1:
                raise WorkloadError(f"scenario {name} must be at least 1")
        if self.zipf_exponent <= 0:
            raise WorkloadError("zipf_exponent must be positive")
        if not self.algorithms:
            raise WorkloadError("scenario needs at least one algorithm")
        return self


#: Built-in scenario presets, by name.
SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(name="steady"),
        ScenarioSpec(name="read-heavy", mutate_rate=0.06, sweep_rate=0.2,
                     zipf_exponent=1.4),
        ScenarioSpec(name="write-burst", mutate_rate=0.45, burst_length=5,
                     relationship_rate=0.6),
        ScenarioSpec(name="structural-spike", mutate_rate=0.3,
                     structural_rate=0.25),
        ScenarioSpec(name="multi-client", clients=4, mutate_rate=0.2,
                     stats_rate=0.08),
    )
}


def _zipf_pick(rng: random.Random, weights: Sequence[float]) -> int:
    """One index drawn from the normalized ``weights``."""
    total = sum(weights)
    roll = rng.random() * total
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if roll < acc:
            return index
    return len(weights) - 1


def _build_query_pool(
    rng: random.Random, spec: ScenarioSpec, type_count: int
) -> List[PreviewQuery]:
    """The hot-query pool: distinct, shape-valid queries for this domain.

    Distinctness keeps the Zipf popularity ranks honest, but the
    shape-valid query space can be smaller than the requested pool
    (e.g. a concise-only algorithm list admits only k×n combinations),
    so the rejection sampling is bounded: after enough consecutive
    duplicate draws the pool is returned as-is, smaller than asked.
    """
    pool: List[PreviewQuery] = []
    seen = set()
    k_max = max(2, min(3, type_count))
    rejections = 0
    while len(pool) < spec.query_pool and rejections < 50 * spec.query_pool:
        k = rng.randint(2, k_max)
        n = k + rng.randint(0, 5)
        algorithm = spec.algorithms[rng.randrange(len(spec.algorithms))]
        if algorithm in _CONCISE_CAPABLE and (
            algorithm not in _DISTANCE_CAPABLE or rng.random() < 0.45
        ):
            query = PreviewQuery(k=k, n=n, algorithm=algorithm)
        else:
            d = rng.randint(1, 3)
            mode = "tight" if rng.random() < 0.8 else "diverse"
            query = PreviewQuery(k=k, n=n, d=d, mode=mode, algorithm=algorithm)
        if query in seen:
            rejections += 1
            continue
        seen.add(query)
        pool.append(query)
    return pool


class _MutationPlanner:
    """Plans applicable mutations against the evolving graph state.

    Tracks, per entity type, which entities exist *at this point of the
    trace* (base-graph members, sorted for determinism, plus entities
    the trace created), so relationship mutations always name valid
    endpoints on every replay path.
    """

    def __init__(self, rng: random.Random, graph, domain: str) -> None:
        self._rng = rng
        self._domain = domain
        #: Hot types mutations concentrate on (sorted sample).
        types = sorted(graph.entity_types())
        self._hot_types = types[: min(len(types), 6)]
        self._members: Dict[str, List[str]] = {
            t: sorted(graph.entities_of_type(t)) for t in self._hot_types
        }
        #: Relationship types whose endpoints lie in the hot types.
        hot = set(self._hot_types)
        self._rel_types = [
            rel
            for rel in sorted(
                graph.relationship_types(),
                key=lambda r: (r.name, r.source_type, r.target_type),
            )
            if rel.source_type in hot and rel.target_type in hot
        ]
        self._entity_counter = 0
        self._spike_counter = 0

    def _pick_member(self, type_name: str) -> str:
        members = self._members[type_name]
        return members[self._rng.randrange(len(members))]

    def entity_params(self) -> Dict[str, object]:
        """A non-structural entity insert into one hot type."""
        self._entity_counter += 1
        type_name = self._hot_types[self._rng.randrange(len(self._hot_types))]
        entity = f"wl-entity-{self._entity_counter:04d}"
        self._members[type_name].append(entity)
        return {"kind": "entity", "entity": entity, "types": [type_name]}

    def structural_params(self) -> Dict[str, object]:
        """An entity insert that introduces a brand-new entity type."""
        self._spike_counter += 1
        self._entity_counter += 1
        type_name = f"{self._domain.upper()} WL SPIKE {self._spike_counter:02d}"
        entity = f"wl-spike-{self._entity_counter:04d}"
        # Deliberately not added to the hot pool: spike types stay
        # out-of-band, so every spike is a fresh structural event.
        return {"kind": "entity", "entity": entity, "types": [type_name]}

    def relationship_params(self) -> Optional[Dict[str, object]]:
        """A relationship insert of an existing type, or None if none fit."""
        if not self._rel_types:
            return None
        rel = self._rel_types[self._rng.randrange(len(self._rel_types))]
        return {
            "kind": "relationship",
            "source": self._pick_member(rel.source_type),
            "target": self._pick_member(rel.target_type),
            "name": rel.name,
            "source_type": rel.source_type,
            "target_type": rel.target_type,
        }

    def next_params(self, spec: ScenarioSpec) -> Dict[str, object]:
        """The params of the next mutation, per the scenario's mix."""
        if self._rng.random() < spec.structural_rate:
            return self.structural_params()
        if self._rng.random() < spec.relationship_rate:
            params = self.relationship_params()
            if params is not None:
                return params
        return self.entity_params()


def generate_trace(
    domain: str = "film",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    ops: int = 100,
    scenario: "str | ScenarioSpec" = "steady",
    key_scorer: str = "coverage",
    nonkey_scorer: str = "coverage",
) -> WorkloadTrace:
    """Generate one deterministic workload trace.

    Parameters
    ----------
    domain, scale, seed:
        The starting graph (:func:`~repro.datasets.generate_domain`
        parameters, recorded in the trace header).
    ops:
        Operations to emit (a burst may run slightly past a burst
        boundary; the stream is truncated to exactly ``ops``).
    scenario:
        A preset name from :data:`SCENARIOS` or a custom
        :class:`ScenarioSpec`.
    key_scorer, nonkey_scorer:
        Scoring measures recorded in the header and used by every
        replay path.

    Returns
    -------
    WorkloadTrace
        Without digests; record through
        :func:`repro.workload.replay.record_digests` to embed them.

    Raises
    ------
    WorkloadError
        For an unknown domain/scenario or out-of-range scenario knobs.
    """
    if domain not in DOMAINS:
        raise WorkloadError(
            f"unknown domain {domain!r}; available: {', '.join(DOMAINS)}"
        )
    if isinstance(scenario, str):
        try:
            spec = SCENARIOS[scenario]
        except KeyError:
            raise WorkloadError(
                f"unknown scenario {scenario!r}; available: "
                f"{', '.join(sorted(SCENARIOS))}"
            ) from None
    else:
        spec = scenario
    spec = spec.validated()
    if ops < 1:
        raise WorkloadError(f"a trace needs at least 1 op, got {ops}")

    rng = random.Random((seed * 1_000_003) ^ hash_text(f"{domain}/{spec.name}"))
    graph = generate_domain(domain, scale=scale, seed=seed)
    pool = _build_query_pool(rng, spec, type_count=len(graph.entity_types()))
    weights = [1.0 / (rank + 1) ** spec.zipf_exponent for rank in range(len(pool))]
    planner = _MutationPlanner(rng, graph, domain)

    trace_ops: List[TraceOp] = []
    # Multi-client presets pin each client's reads to its own replica
    # (affinity = client id) in replicated deployments: cross-client
    # read-after-write ordering is only exercised when two clients can
    # land on *different* replicas, one of which may not have applied a
    # write yet.  Single-client presets stay unpinned.
    affinity_of = (
        (lambda c: c) if spec.clients > 1 else (lambda c: None)
    )
    while len(trace_ops) < ops:
        client = rng.randrange(spec.clients)
        roll = rng.random()
        if roll < spec.stats_rate:
            trace_ops.append(TraceOp(op="stats", client=client))
        elif roll < spec.stats_rate + spec.mutate_rate / spec.burst_length:
            for _ in range(spec.burst_length):
                trace_ops.append(
                    TraceOp(op="mutate", params=planner.next_params(spec),
                            client=client)
                )
        elif rng.random() < spec.sweep_rate:
            base = pool[_zipf_pick(rng, weights)]
            start = base.k + rng.randint(0, 2)
            ns = list(range(start, start + rng.randint(2, 4)))
            params = dict(base.to_params())
            params.pop("n")
            params["ns"] = ns
            trace_ops.append(
                TraceOp(op="sweep", params=params, client=client,
                        affinity=affinity_of(client))
            )
        else:
            query = pool[_zipf_pick(rng, weights)]
            trace_ops.append(
                TraceOp(op="preview", params=query.to_params(), client=client,
                        affinity=affinity_of(client))
            )
    trace_ops = trace_ops[:ops]

    return WorkloadTrace(
        domain=domain,
        scale=scale,
        seed=seed,
        ops=tuple(trace_ops),
        key_scorer=key_scorer,
        nonkey_scorer=nonkey_scorer,
        fingerprint=graph_fingerprint(graph),
        scenario={
            "name": spec.name,
            "mutate_rate": spec.mutate_rate,
            "burst_length": spec.burst_length,
            "structural_rate": spec.structural_rate,
            "sweep_rate": spec.sweep_rate,
            "stats_rate": spec.stats_rate,
            "zipf_exponent": spec.zipf_exponent,
            "clients": spec.clients,
            "query_pool": spec.query_pool,
            "algorithms": list(spec.algorithms),
        },
    )


def hash_text(text: str) -> int:
    """A stable (hash-randomization-independent) 31-bit hash of ``text``."""
    digest = 0
    for ch in text:
        digest = (digest * 131 + ord(ch)) % (2**31)
    return digest


def scenario(name: str, **overrides) -> ScenarioSpec:
    """A preset :class:`ScenarioSpec` with ``overrides`` applied.

    >>> scenario("steady", clients=2).clients
    2

    Raises
    ------
    WorkloadError
        For an unknown preset name or unknown override fields.
    """
    try:
        base = SCENARIOS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    try:
        return replace(base, **overrides).validated()
    except TypeError as exc:
        raise WorkloadError(f"unknown scenario override: {exc}") from exc
