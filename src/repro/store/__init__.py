"""Dataset storage: the text formats and the binary graph store.

:mod:`repro.store.persistence` writes and reads entity graphs as the
``.tsv``/``.jsonl`` text formats through the one triple codec
(:mod:`repro.model.triples`).  :mod:`repro.store.disk` is the persistent
binary backend — a single checksummed ``.rgs`` file holding a string
dictionary and the graph's recorded orders — opened in O(header) time by
:func:`open_store` and materialized by :meth:`DiskGraphStore.entity_graph`.
The same image, built in memory by :func:`encode_store`, bootstraps
replicas.
"""

from .disk import (
    STORE_EXTENSION,
    DiskGraphStore,
    build_store,
    encode_store,
    open_store,
)
from .persistence import load_jsonl, load_tsv, save_jsonl, save_tsv

__all__ = [
    "STORE_EXTENSION",
    "DiskGraphStore",
    "build_store",
    "encode_store",
    "load_jsonl",
    "load_tsv",
    "open_store",
    "save_jsonl",
    "save_tsv",
]
