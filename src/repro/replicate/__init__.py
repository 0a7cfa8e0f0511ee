"""Multi-replica serving: mutation-log replication over JSON lines.

The replication tier promotes the per-generation
:class:`~repro.model.mutation_log.MutationLog` into a wire-streamable
replication log (ROADMAP: "Multi-replica serve tier").  Three roles,
all speaking the existing :mod:`repro.serve` protocol:

* **writer** (:class:`WriterHost` + :class:`WriterService`) — the one
  host that applies mutations; each mutation's wire params and dirty
  :class:`~repro.model.mutation_log.MutationDelta` are retained in a
  bounded window and pushed to subscribers via the ``subscribe``
  streaming op (subscribers behind the window bootstrap from the
  graph's ``.rgs`` store image, :func:`repro.store.encode_store`);
* **replica** (:class:`ReplicaHost` + :class:`ReplicaService`) — warm
  read-only engines that apply streamed deltas in generation order
  (buffering reordered frames, skipping reconnect duplicates) and honor
  ``min_generation`` read-your-writes tokens;
* **router** (:class:`RouterService`) — the engine-less front end that
  consistent-hashes reads across replicas (with ``affinity`` pinning
  and failover), sends mutations to the writer, and aggregates
  per-replica lag in its ``stats`` op.

The safety net is the differential conformance harness: the
``replicated`` replay path (:mod:`repro.workload.replay`) drives a full
writer + replicas + router topology and must stay byte-identical to the
from-scratch serial oracle at every generation.  See
``docs/replication.md``.
"""

from .replica import ReplicaHost, ReplicaService
from .router import RouterService, build_ring, preference_list
from .writer import WriterHost, WriterService

__all__ = [
    "ReplicaHost",
    "ReplicaService",
    "RouterService",
    "WriterHost",
    "WriterService",
    "build_ring",
    "preference_list",
]
