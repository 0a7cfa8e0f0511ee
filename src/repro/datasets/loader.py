"""Save/load Freebase-like domains as dataset files, chosen by extension.

Lets users materialize a generated domain to disk once and reload it
without regeneration — the workflow the paper's MySQL import supports.
The ``.tsv``/``.jsonl`` text formats go through the one triple codec
(:mod:`repro.model.triples`, via :mod:`repro.store.persistence`); the
binary ``.rgs`` store (:mod:`repro.store.disk`) also keeps every recorded
order and the generation.
"""

from __future__ import annotations

import hashlib
import os
from typing import Union

from ..exceptions import DatasetError
from ..model.entity_graph import EntityGraph
from ..store.disk import STORE_EXTENSION, build_store, open_store
from ..store.persistence import load_jsonl, load_tsv, save_jsonl, save_tsv

PathLike = Union[str, "os.PathLike[str]"]


def graph_fingerprint(graph: EntityGraph) -> str:
    """A stable content digest of an entity graph (``sha256:<hex>``).

    Hashes the sorted entity→types mapping and the sorted relationship
    instances — the full extensional content, independent of insertion
    order and hash randomization.  Two graphs with the same fingerprint
    answer every preview query identically.

    The relationship rows are the ``(source, target, rel_type)`` edge
    tuples sorted as they are: :class:`~repro.model.ids.RelationshipTypeId`
    orders by ``(name, source_type, target_type)``, so that sort is the
    order of the hashed ``R`` lines, field by field.  Changing that
    class's fields or their order moves every pinned fingerprint.

    The workload-trace format (``docs/workloads.md``) embeds the
    fingerprint of a trace's starting graph in its header, so a
    replayer whose regenerated domain has drifted (generator change,
    profile edit) fails with a clear dataset-mismatch error instead of
    a wall of payload-digest mismatches.
    """
    lines = [
        f"E\t{entity}\t{','.join(sorted(graph.types_of(entity)))}\n"
        for entity in sorted(graph.entities())
    ]
    lines.extend(
        f"R\t{source}\t{target}\t{rel.name}\t{rel.source_type}\t{rel.target_type}\n"
        for source, target, rel in sorted(graph.relationships())
    )
    digest = hashlib.sha256("".join(lines).encode("utf-8"))
    return f"sha256:{digest.hexdigest()}"


def save_domain(graph: EntityGraph, path: PathLike) -> int:
    """Persist an entity graph; format chosen by extension.

    ``.tsv``/``.jsonl`` write the row-per-triple text formats and return
    the number of rows written; a graph they cannot encode raises
    :class:`~repro.exceptions.PersistenceError` before the file is
    created.  ``.rgs`` writes the binary graph store
    (:func:`repro.store.build_store`) and returns the bytes written.
    """
    text = str(path)
    if text.endswith(STORE_EXTENSION):
        return build_store(graph, path)
    if text.endswith(".tsv"):
        return save_tsv(graph, path)
    if text.endswith(".jsonl"):
        return save_jsonl(graph, path)
    raise DatasetError(
        f"unsupported dataset extension: {text!r} (use .tsv/.jsonl/{STORE_EXTENSION})"
    )


def load_domain_file(path: PathLike, name: str = "entity-graph") -> EntityGraph:
    """Reload an entity graph saved by :func:`save_domain`.

    For ``.rgs`` store files the graph's *stored* name and generation
    are authoritative (``name`` is ignored) and the materialized graph
    is verified against the header fingerprint.  A text file's graph is
    named ``name``; its entities come in the file's sorted row order.
    """
    text = str(path)
    if text.endswith(STORE_EXTENSION):
        with open_store(path) as store_file:
            return store_file.entity_graph()
    if text.endswith(".tsv"):
        return load_tsv(path, name=name)
    if text.endswith(".jsonl"):
        return load_jsonl(path, name=name)
    raise DatasetError(
        f"unsupported dataset extension: {text!r} "
        f"(use .tsv/.jsonl/{STORE_EXTENSION})"
    )
