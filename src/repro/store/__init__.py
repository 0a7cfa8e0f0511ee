"""Triple-store substrate: indexed storage, pattern queries, persistence.

:mod:`repro.store.disk` adds the persistent binary backend — a single
checksummed ``.rgs`` file holding a string dictionary and the graph's
recorded orders — opened in O(header) time by :func:`open_store` and
materialized by :meth:`DiskGraphStore.entity_graph`.  The same image,
built in memory by :func:`encode_store`, bootstraps replicas.
"""

from .disk import (
    STORE_EXTENSION,
    DiskGraphStore,
    build_store,
    encode_store,
    open_store,
)
from .persistence import load_jsonl, load_tsv, save_jsonl, save_tsv
from .query import is_variable, match_pattern, query, select
from .schema_extract import (
    entity_graph_from_store,
    schema_graph_from_store,
    store_from_entity_graph,
)
from .triple_store import TripleStore

__all__ = [
    "STORE_EXTENSION",
    "DiskGraphStore",
    "TripleStore",
    "build_store",
    "encode_store",
    "entity_graph_from_store",
    "is_variable",
    "load_jsonl",
    "load_tsv",
    "match_pattern",
    "open_store",
    "query",
    "save_jsonl",
    "save_tsv",
    "schema_graph_from_store",
    "select",
    "store_from_entity_graph",
]
