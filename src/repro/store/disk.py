"""The persistent binary graph store: one file, O(header) cold opens.

The paper's pipeline imports the Freebase dump into a database before
deriving the schema graph and scores; this module is that import made
durable.  :func:`build_store` serializes an
:class:`~repro.model.entity_graph.EntityGraph` into a single binary
file and :func:`open_store` maps it back with a fixed-cost open —
validating the header, never walking the data — so serve hosts,
replicas and the workload oracle cold-start in O(header) instead of
regenerating and rebuilding O(entities) of state.

File format (version 1, little-endian)
--------------------------------------
A fixed :data:`MAGIC` header (version, total size, generation, counts,
the graph's ``sha256:`` fingerprint) is followed by a table of
``(offset, length)`` pairs, one per section in :data:`SECTION_NAMES`:

* a **sorted string dictionary** (``dict_offsets`` + ``dict_blob``):
  every term once, sorted, so dictionary ids order exactly like the
  strings they stand for and ``string -> id`` is a binary search;
* the **order-preserving graph encoding** (``type_order``,
  ``entity_ids``, ``entity_type_offsets``/``entity_type_indexes``,
  ``reltype_table``, ``relationships``): entities in insertion order,
  types in global first-seen order, per-entity type indexes sorted by
  that global order, relationship instances in insertion order — the
  exact codec :func:`~repro.replicate.snapshot.capture_snapshot` uses,
  so the materialized graph is bit-identical to the source and its
  fingerprint provably matches the header;
* **flat triple arrays** in all three permutation orders (``spo``,
  ``pos``, ``osp``): one ``(term, term, term, count)`` row of u64
  dictionary ids per distinct triple, sorted per permutation, so every
  pattern scan is a binary-searched range scan;
* **interval indexes** (``type_intervals``/``type_members`` and the
  ``adjacency_offsets``/``adjacency_targets`` CSR): "all entities of
  type τ" is one ``[start, end)`` slice of a sorted members array, and
  k-hop neighborhood membership walks sorted adjacency ranges — the
  XPath-accelerator-style interval encoding the ROADMAP cites, in
  place of dict-of-set traversal.

Every corruption shape — truncation, bad magic or version, section
bounds outside the file, dangling dictionary offsets, a fingerprint
that no longer matches the materialized graph — raises
:class:`~repro.exceptions.DiskStoreError` with a diagnostic; a damaged
store never answers queries.  See ``docs/disk-store.md``.
"""

from __future__ import annotations

import mmap
import os
import re
import struct
import sys
from array import array
from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..exceptions import DiskStoreError, ModelError, ReplicationError
from ..model.entity_graph import EntityGraph
from ..model.ids import RelationshipTypeId, qualified_name
from ..model.triples import TYPE_PREDICATE, Triple

PathLike = Union[str, "os.PathLike[str]"]

#: First 8 bytes of every store file (PNG-style: high bit, CRLF, ^Z, LF
#: — catches text-mode mangling and truncation-to-text corruption).
MAGIC = b"\x89RGS\r\n\x1a\n"

#: Current file-format version; readers reject anything else.
VERSION = 1

#: The canonical store-file extension (``repro graph store``).
STORE_EXTENSION = ".rgs"

#: Section names in header-table order.
SECTION_NAMES = (
    "dict_offsets",
    "dict_blob",
    "type_order",
    "entity_ids",
    "entity_type_offsets",
    "entity_type_indexes",
    "entity_index",
    "reltype_table",
    "relationships",
    "spo",
    "pos",
    "osp",
    "type_intervals",
    "type_members",
    "adjacency_offsets",
    "adjacency_targets",
)

#: magic, version, header_size, then 9 u64 counts, then fingerprint.
_HEADER = struct.Struct("<8sII9Q72s")

#: One (offset, length) pair per section.
_SECTION_ENTRY = struct.Struct("<QQ")

_HEADER_SIZE = _HEADER.size + _SECTION_ENTRY.size * len(SECTION_NAMES)

_FINGERPRINT_RE = re.compile(r"^sha256:[0-9a-f]{64}$")


def _pack_u64(values: Sequence[int]) -> bytes:
    """Little-endian u64 array bytes (byteswapped on big-endian hosts)."""
    data = array("Q", values)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        data.byteswap()
    return data.tobytes()


def _u64_view(buffer: memoryview, offset: int, length: int):
    """A random-access u64 sequence over ``buffer[offset:offset+length]``.

    Zero-copy (``memoryview.cast``) on little-endian hosts; a decoded
    copy on big-endian ones — same indexing semantics either way.
    """
    window = buffer[offset:offset + length]
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        data = array("Q")
        data.frombytes(bytes(window))
        data.byteswap()
        return data
    return window.cast("Q")


def _bisect_rows(view, width: int, prefix: Tuple[int, ...], upper: bool) -> int:
    """Lower (or upper) bound of ``prefix`` among fixed-width u64 rows."""
    k = len(prefix)
    lo, hi = 0, len(view) // width
    while lo < hi:
        mid = (lo + hi) // 2
        base = mid * width
        row_prefix = tuple(view[base:base + k])
        if row_prefix < prefix or (upper and row_prefix == prefix):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _equal_range(view, width: int, prefix: Tuple[int, ...]) -> Tuple[int, int]:
    """The ``[start, end)`` row range whose prefix equals ``prefix``."""
    return (
        _bisect_rows(view, width, prefix, upper=False),
        _bisect_rows(view, width, prefix, upper=True),
    )


def build_store(graph: EntityGraph, path: PathLike) -> int:
    """Serialize ``graph`` into a binary store file; returns bytes written.

    The graph's insertion orders, first-seen type order and
    ``graph_fingerprint`` are recorded so :meth:`DiskGraphStore.entity_graph`
    reproduces the graph bit-identically (same orders, same generation,
    verified fingerprint).

    Raises
    ------
    PersistenceError
        Never — write failures surface as :class:`DiskStoreError`.
    DiskStoreError
        When the file cannot be written.
    """
    # Lazy: repro.datasets imports repro.store at module scope, so the
    # reverse edge must resolve at call time.
    from ..datasets.loader import graph_fingerprint

    type_order = graph.entity_types()
    entities = list(graph.entities())
    relationships = list(graph.relationships())
    reltypes = graph.relationship_types()
    fingerprint = graph_fingerprint(graph)

    strings = set(entities)
    strings.update(type_order)
    strings.add(TYPE_PREDICATE)
    strings.add(graph.name)
    qualified = {}
    for rel in reltypes:
        strings.update((rel.name, rel.source_type, rel.target_type))
        qualified[rel] = qualified_name(rel)
        strings.add(qualified[rel])
    ordered_strings = sorted(strings)
    sid = {text: i for i, text in enumerate(ordered_strings)}

    blob_parts: List[bytes] = []
    dict_offsets = [0]
    position = 0
    for text in ordered_strings:
        encoded = text.encode("utf-8")
        blob_parts.append(encoded)
        position += len(encoded)
        dict_offsets.append(position)
    dict_blob = b"".join(blob_parts)

    type_rank = {t: i for i, t in enumerate(type_order)}
    entity_rows = {entity: row for row, entity in enumerate(entities)}

    entity_type_offsets = [0]
    entity_type_indexes: List[int] = []
    for entity in entities:
        for rank in sorted(type_rank[t] for t in graph.types_of(entity)):
            entity_type_indexes.append(rank)
        entity_type_offsets.append(len(entity_type_indexes))

    entity_index: List[int] = []
    for entity in sorted(entities):
        entity_index.extend((sid[entity], entity_rows[entity]))

    reltype_rank = {rel: i for i, rel in enumerate(reltypes)}
    reltype_table: List[int] = []
    for rel in reltypes:
        reltype_table.extend(
            (sid[rel.name], sid[rel.source_type], sid[rel.target_type])
        )

    relationship_rows: List[int] = []
    for source, target, rel in relationships:
        relationship_rows.extend(
            (entity_rows[source], reltype_rank[rel], entity_rows[target])
        )

    type_id = sid[TYPE_PREDICATE]
    triple_counts: Counter = Counter()
    for entity in entities:
        for rank in sorted(type_rank[t] for t in graph.types_of(entity)):
            triple_counts[(sid[entity], type_id, sid[type_order[rank]])] += 1
    for source, target, rel in relationships:
        triple_counts[(sid[source], sid[qualified[rel]], sid[target])] += 1
    spo_rows = sorted(triple_counts)
    spo: List[int] = []
    pos_list: List[int] = []
    osp: List[int] = []
    for s, p, o in spo_rows:
        spo.extend((s, p, o, triple_counts[(s, p, o)]))
    for p, o, s in sorted((p, o, s) for s, p, o in spo_rows):
        pos_list.extend((p, o, s, triple_counts[(s, p, o)]))
    for o, s, p in sorted((o, s, p) for s, p, o in spo_rows):
        osp.extend((o, s, p, triple_counts[(s, p, o)]))

    type_intervals: List[int] = []
    type_members: List[int] = []
    for type_name in type_order:
        members = sorted(
            entity_rows[entity] for entity in graph.entities_of_type(type_name)
        )
        type_intervals.extend((len(type_members), len(type_members) + len(members)))
        type_members.extend(members)

    neighbors: List[set] = [set() for _ in entities]
    for source, target, _rel in relationships:
        source_row = entity_rows[source]
        target_row = entity_rows[target]
        neighbors[source_row].add(target_row)
        neighbors[target_row].add(source_row)
    adjacency_offsets = [0]
    adjacency_targets: List[int] = []
    for row_neighbors in neighbors:
        adjacency_targets.extend(sorted(row_neighbors))
        adjacency_offsets.append(len(adjacency_targets))

    # dict_blob goes last so every u64 section stays 8-byte aligned.
    payloads = {
        "dict_offsets": _pack_u64(dict_offsets),
        "dict_blob": dict_blob,
        "type_order": _pack_u64([sid[t] for t in type_order]),
        "entity_ids": _pack_u64([sid[e] for e in entities]),
        "entity_type_offsets": _pack_u64(entity_type_offsets),
        "entity_type_indexes": _pack_u64(entity_type_indexes),
        "entity_index": _pack_u64(entity_index),
        "reltype_table": _pack_u64(reltype_table),
        "relationships": _pack_u64(relationship_rows),
        "spo": _pack_u64(spo),
        "pos": _pack_u64(pos_list),
        "osp": _pack_u64(osp),
        "type_intervals": _pack_u64(type_intervals),
        "type_members": _pack_u64(type_members),
        "adjacency_offsets": _pack_u64(adjacency_offsets),
        "adjacency_targets": _pack_u64(adjacency_targets),
    }
    write_order = [name for name in SECTION_NAMES if name != "dict_blob"]
    write_order.append("dict_blob")

    sections: Dict[str, Tuple[int, int]] = {}
    cursor = _HEADER_SIZE
    for name in write_order:
        sections[name] = (cursor, len(payloads[name]))
        cursor += len(payloads[name])
    total_size = cursor

    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _HEADER_SIZE,
        total_size,
        graph.generation,
        sid[graph.name],
        len(ordered_strings),
        len(entities),
        len(type_order),
        len(reltypes),
        len(relationships),
        len(spo_rows),
        fingerprint.encode("ascii").ljust(72, b"\x00"),
    )
    table = b"".join(
        _SECTION_ENTRY.pack(*sections[name]) for name in SECTION_NAMES
    )
    try:
        with open(path, "wb") as handle:
            handle.write(header)
            handle.write(table)
            for name in write_order:
                handle.write(payloads[name])
    except OSError as exc:
        raise DiskStoreError(f"cannot write store file {path!s}: {exc}") from exc
    return total_size


class DiskGraphStore:
    """A read-only, mmap-backed view over one binary store file.

    Opening is O(header): the magic, version, sizes, section bounds and
    fingerprint format are validated, and *nothing else is read* until
    a query or :meth:`entity_graph` touches the mapped sections (the OS
    pages them in on demand).  Use as a context manager, or call
    :meth:`close`.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = str(path)
        try:
            with open(path, "rb") as handle:
                file_size = os.fstat(handle.fileno()).st_size
                if file_size == 0:
                    raise DiskStoreError(f"{self._path}: empty store file")
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except OSError as exc:
            raise DiskStoreError(
                f"cannot open store file {self._path}: {exc}"
            ) from exc
        self._view = memoryview(self._mmap)
        try:
            self._read_header(file_size)
        except DiskStoreError:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Header
    # ------------------------------------------------------------------
    def _read_header(self, file_size: int) -> None:
        if file_size < _HEADER_SIZE:
            raise DiskStoreError(
                f"{self._path}: truncated header ({file_size} bytes, "
                f"need {_HEADER_SIZE})"
            )
        (
            magic,
            version,
            header_size,
            total_size,
            self.generation,
            self._name_id,
            self.dict_count,
            self.entity_count,
            self.type_count,
            self.reltype_count,
            self.relationship_count,
            self.triple_count,
            fingerprint_raw,
        ) = _HEADER.unpack_from(self._view, 0)
        if magic != MAGIC:
            raise DiskStoreError(
                f"{self._path}: bad magic {bytes(magic)!r} "
                f"(not a repro graph store)"
            )
        if version != VERSION:
            raise DiskStoreError(
                f"{self._path}: unsupported store version {version} "
                f"(this build reads version {VERSION})"
            )
        if header_size != _HEADER_SIZE:
            raise DiskStoreError(
                f"{self._path}: header size {header_size} does not match "
                f"the version-{VERSION} layout ({_HEADER_SIZE})"
            )
        if total_size != file_size:
            kind = "truncated" if file_size < total_size else "oversized"
            raise DiskStoreError(
                f"{self._path}: {kind} store file ({file_size} bytes on "
                f"disk, header promises {total_size})"
            )
        fingerprint_bytes = fingerprint_raw.rstrip(b"\x00")
        try:
            fingerprint = fingerprint_bytes.decode("ascii")
        except UnicodeDecodeError:
            fingerprint = ""
        if not _FINGERPRINT_RE.match(fingerprint):
            raise DiskStoreError(
                f"{self._path}: malformed fingerprint field "
                f"{fingerprint_bytes!r}"
            )
        self.fingerprint = fingerprint
        self._sections: Dict[str, Tuple[int, int]] = {}
        for position, name in enumerate(SECTION_NAMES):
            offset, length = _SECTION_ENTRY.unpack_from(
                self._view, _HEADER.size + position * _SECTION_ENTRY.size
            )
            if offset < _HEADER_SIZE or offset + length > total_size:
                raise DiskStoreError(
                    f"{self._path}: section {name!r} "
                    f"[{offset}, {offset + length}) falls outside the file"
                )
            self._sections[name] = (offset, length)
        expected_lengths = {
            "dict_offsets": (self.dict_count + 1) * 8,
            "type_order": self.type_count * 8,
            "entity_ids": self.entity_count * 8,
            "entity_type_offsets": (self.entity_count + 1) * 8,
            "entity_index": self.entity_count * 16,
            "reltype_table": self.reltype_count * 24,
            "relationships": self.relationship_count * 24,
            "spo": self.triple_count * 32,
            "pos": self.triple_count * 32,
            "osp": self.triple_count * 32,
            "type_intervals": self.type_count * 16,
            "adjacency_offsets": (self.entity_count + 1) * 8,
        }
        for name, expected in expected_lengths.items():
            actual = self._sections[name][1]
            if actual != expected:
                raise DiskStoreError(
                    f"{self._path}: section {name!r} holds {actual} bytes "
                    f"but the header counts imply {expected}"
                )
        for name in ("entity_type_indexes", "type_members", "adjacency_targets"):
            if self._sections[name][1] % 8:
                raise DiskStoreError(
                    f"{self._path}: section {name!r} length "
                    f"{self._sections[name][1]} is not a whole number of u64s"
                )
        if self._name_id >= self.dict_count:
            raise DiskStoreError(
                f"{self._path}: graph name id {self._name_id} is outside "
                f"the {self.dict_count}-entry dictionary"
            )

    def _section(self, name: str):
        offset, length = self._sections[name]
        return _u64_view(self._view, offset, length)

    # ------------------------------------------------------------------
    # Strings
    # ------------------------------------------------------------------
    def string(self, string_id: int) -> str:
        """The dictionary string with id ``string_id``.

        Raises
        ------
        DiskStoreError
            For an out-of-range id or a dangling dictionary offset.
        """
        if not 0 <= string_id < self.dict_count:
            raise self._outside_dictionary(string_id)
        # Plain ints and bytes only: a view into the mapping held by a
        # raising frame would make close() fail with BufferError.
        start, end = self._section("dict_offsets")[string_id:string_id + 2].tolist()
        blob_offset, blob_length = self._sections["dict_blob"]
        if not 0 <= start <= end <= blob_length:
            raise self._dangling(string_id, start, end, blob_length)
        encoded = bytes(self._view[blob_offset + start:blob_offset + end])
        try:
            return encoded.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self._not_utf8(string_id, exc) from exc

    def _strings(self) -> List[str]:
        """The whole dictionary, decoded once, with :meth:`string`'s checks."""
        offsets = self._section("dict_offsets").tolist()
        blob_offset, blob_length = self._sections["dict_blob"]
        blob = bytes(self._view[blob_offset:blob_offset + blob_length])
        strings = []
        for string_id in range(self.dict_count):
            start, end = offsets[string_id], offsets[string_id + 1]
            if not 0 <= start <= end <= blob_length:
                raise self._dangling(string_id, start, end, blob_length)
            try:
                strings.append(blob[start:end].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise self._not_utf8(string_id, exc) from exc
        return strings

    def _dangling(
        self, string_id: int, start: int, end: int, blob_length: int
    ) -> DiskStoreError:
        return DiskStoreError(
            f"{self._path}: dangling dictionary offset for string "
            f"{string_id} ([{start}, {end}) in a {blob_length}-byte blob)"
        )

    def _not_utf8(self, string_id: int, exc: UnicodeDecodeError) -> DiskStoreError:
        return DiskStoreError(
            f"{self._path}: string {string_id} is not valid UTF-8: {exc}"
        )

    def _outside_dictionary(self, string_id: int) -> DiskStoreError:
        return DiskStoreError(
            f"{self._path}: string id {string_id} is outside the "
            f"{self.dict_count}-entry dictionary"
        )

    def _decoded_section(self, strings: List[str], name: str) -> List[str]:
        """Section ``name``'s string ids looked up in decoded ``strings``."""
        ids = self._section(name).tolist()
        try:
            return [strings[string_id] for string_id in ids]
        except IndexError:
            bad = next(i for i in ids if i >= self.dict_count)
            raise self._outside_dictionary(bad) from None

    def string_id(self, text: str) -> Optional[int]:
        """The dictionary id of ``text`` (binary search), or ``None``."""
        lo, hi = 0, self.dict_count
        while lo < hi:
            mid = (lo + hi) // 2
            if self.string(mid) < text:
                lo = mid + 1
            else:
                hi = mid
        if lo < self.dict_count and self.string(lo) == text:
            return lo
        return None

    # ------------------------------------------------------------------
    # Header-level introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The stored graph's name."""
        return self.string(self._name_id)

    @property
    def path(self) -> str:
        """The store file this view maps."""
        return self._path

    def describe(self) -> Dict[str, object]:
        """O(header) store summary (the ``dataset info`` payload)."""
        offset, length = self._sections["dict_blob"]
        return {
            "path": self._path,
            "format": {"magic": "RGS", "version": VERSION},
            "name": self.name,
            "fingerprint": self.fingerprint,
            "generation": self.generation,
            "file_bytes": len(self._view),
            "counts": {
                "entities": self.entity_count,
                "entity_types": self.type_count,
                "relationship_types": self.reltype_count,
                "relationships": self.relationship_count,
                "distinct_triples": self.triple_count,
                "dictionary_strings": self.dict_count,
            },
            "sections": {
                name: {
                    "offset": self._sections[name][0],
                    "bytes": self._sections[name][1],
                }
                for name in SECTION_NAMES
            },
        }

    # ------------------------------------------------------------------
    # Interval-indexed queries
    # ------------------------------------------------------------------
    def _type_rank(self, type_name: str) -> Optional[int]:
        type_id = self.string_id(type_name)
        if type_id is None:
            return None
        order = self._section("type_order")
        for rank in range(self.type_count):
            if order[rank] == type_id:
                return rank
        return None

    def type_interval(self, type_name: str) -> Tuple[int, int]:
        """The ``[start, end)`` slice of ``type_members`` for a type.

        Raises
        ------
        DiskStoreError
            For a type the store does not contain.
        """
        rank = self._type_rank(type_name)
        if rank is None:
            raise DiskStoreError(
                f"{self._path}: unknown entity type {type_name!r}"
            )
        intervals = self._section("type_intervals")
        return intervals[2 * rank], intervals[2 * rank + 1]

    def entities_of_type(self, type_name: str) -> Tuple[str, ...]:
        """All entities of ``type_name``, via one interval range scan."""
        start, end = self.type_interval(type_name)
        members = self._section("type_members")
        entity_ids = self._section("entity_ids")
        return tuple(
            self.string(entity_ids[members[i]]) for i in range(start, end)
        )

    def entity_row(self, entity: str) -> Optional[int]:
        """The storage row of ``entity`` (binary search), or ``None``."""
        entity_id = self.string_id(entity)
        if entity_id is None:
            return None
        index = self._section("entity_index")
        lo, hi = 0, self.entity_count
        while lo < hi:
            mid = (lo + hi) // 2
            if index[2 * mid] < entity_id:
                lo = mid + 1
            else:
                hi = mid
        if lo < self.entity_count and index[2 * lo] == entity_id:
            return index[2 * lo + 1]
        return None

    def neighborhood(self, entity: str, hops: int = 1) -> "frozenset":
        """Entities within ``hops`` undirected hops of ``entity``.

        A breadth-first walk over the CSR adjacency index (sorted
        neighbor ranges, no graph object in sight); includes ``entity``
        itself.

        Raises
        ------
        DiskStoreError
            For an entity the store does not contain, or hops < 0.
        """
        if hops < 0:
            raise DiskStoreError(f"neighborhood hops must be >= 0, got {hops}")
        row = self.entity_row(entity)
        if row is None:
            raise DiskStoreError(f"{self._path}: unknown entity {entity!r}")
        offsets = self._section("adjacency_offsets")
        targets = self._section("adjacency_targets")
        seen = {row}
        frontier = [row]
        for _ in range(hops):
            next_frontier = []
            for current in frontier:
                for i in range(offsets[current], offsets[current + 1]):
                    neighbor = targets[i]
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            if not next_frontier:
                break
            frontier = next_frontier
        entity_ids = self._section("entity_ids")
        return frozenset(self.string(entity_ids[r]) for r in seen)

    # ------------------------------------------------------------------
    # Triple scans
    # ------------------------------------------------------------------
    def triples(self) -> Iterator[Tuple[Triple, int]]:
        """All distinct ``(triple, count)`` pairs in SPO order."""
        view = self._section("spo")
        for i in range(self.triple_count):
            s, p, o, count = view[4 * i:4 * i + 4]
            yield Triple(self.string(s), self.string(p), self.string(o)), count

    def scan_counted(
        self,
        subject: Optional[str] = None,
        predicate: Optional[str] = None,
        object: Optional[str] = None,
    ) -> Iterator[Tuple[Triple, int]]:
        """Pattern scan: ``(triple, count)`` pairs matching the bound terms.

        Picks the permutation whose sort order turns the bound terms
        into a row prefix (SPO for subject, POS for predicate, OSP for
        object) and binary-searches the matching row range — never a
        full walk unless nothing is bound.
        """
        bound = []
        for term in (subject, predicate, object):
            if term is None:
                bound.append(None)
                continue
            term_id = self.string_id(term)
            if term_id is None:
                return
            bound.append(term_id)
        s_id, p_id, o_id = bound
        if s_id is not None:
            view = self._section("spo")
            prefix = [s_id]
            if p_id is not None:
                prefix.append(p_id)
                if o_id is not None:
                    prefix.append(o_id)
            start, end = _equal_range(view, 4, tuple(prefix))
            for i in range(start, end):
                s, p, o, count = view[4 * i:4 * i + 4]
                if p_id is None and o_id is not None and o != o_id:
                    continue
                yield (
                    Triple(self.string(s), self.string(p), self.string(o)),
                    count,
                )
            return
        if p_id is not None:
            view = self._section("pos")
            prefix = [p_id]
            if o_id is not None:
                prefix.append(o_id)
            start, end = _equal_range(view, 4, tuple(prefix))
            for i in range(start, end):
                p, o, s, count = view[4 * i:4 * i + 4]
                yield (
                    Triple(self.string(s), self.string(p), self.string(o)),
                    count,
                )
            return
        if o_id is not None:
            view = self._section("osp")
            start, end = _equal_range(view, 4, (o_id,))
            for i in range(start, end):
                o, s, p, count = view[4 * i:4 * i + 4]
                yield (
                    Triple(self.string(s), self.string(p), self.string(o)),
                    count,
                )
            return
        yield from self.triples()

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def entity_graph(self, verify: bool = True) -> EntityGraph:
        """Materialize the stored graph, bit-identical to the source.

        Entities are replayed in insertion order with their types in
        global first-seen order, relationship instances in insertion
        order, and the mutation log is fast-forwarded to the stored
        generation — exactly the
        :func:`~repro.replicate.snapshot.restore_snapshot` contract.
        The dictionary and each section are decoded once, and one
        :meth:`~repro.model.entity_graph.EntityGraph.bulk_load` replays
        them with every per-entity and per-edge check.  With ``verify``
        (the default) the materialized graph's fingerprint is recomputed
        and checked against the header.

        Raises
        ------
        DiskStoreError
            For any structural corruption (out-of-range ids, schema
            violations) or a fingerprint mismatch.
        """
        from ..datasets.loader import graph_fingerprint

        strings = self._strings()
        type_names = self._decoded_section(strings, "type_order")
        entity_names = self._decoded_section(strings, "entity_ids")
        type_offsets = self._section("entity_type_offsets").tolist()
        type_indexes = self._section("entity_type_indexes").tolist()
        entities = []
        for row, entity in enumerate(entity_names):
            start, end = type_offsets[row], type_offsets[row + 1]
            if not 0 <= start <= end <= len(type_indexes):
                raise DiskStoreError(
                    f"{self._path}: entity {row} type slice "
                    f"[{start}, {end}) overruns the index section"
                )
            ranks = type_indexes[start:end]
            try:
                entities.append((entity, [type_names[rank] for rank in ranks]))
            except IndexError:
                rank = next(r for r in ranks if r >= self.type_count)
                raise DiskStoreError(
                    f"{self._path}: entity {row} references type "
                    f"rank {rank} of {self.type_count}"
                ) from None
        table = self._decoded_section(strings, "reltype_table")
        reltypes = [
            RelationshipTypeId(*fields)
            for fields in zip(table[0::3], table[1::3], table[2::3])
        ]
        rows = self._section("relationships").tolist()
        cells = iter(rows)
        relationships = (
            (entity_names[source_row], entity_names[target_row], reltypes[rank])
            for source_row, rank, target_row in zip(cells, cells, cells)
        )
        try:
            graph = EntityGraph.bulk_load(
                entities, relationships, name=strings[self._name_id]
            )
        except IndexError:
            # A row id out of range: name the first such row.
            self._check_relationship_rows(rows)
            raise
        except ModelError as exc:
            raise DiskStoreError(
                f"{self._path}: stored graph violates the data model: {exc}"
            ) from exc
        if verify:
            actual = graph_fingerprint(graph)
            if actual != self.fingerprint:
                raise DiskStoreError(
                    f"{self._path}: fingerprint mismatch — the materialized "
                    f"graph digests {actual} but the header pins "
                    f"{self.fingerprint}; the store file is corrupt or was "
                    "written by a drifted encoder"
                )
        try:
            graph.mutation_log.fast_forward(self.generation)
        except ReplicationError as exc:
            raise DiskStoreError(
                f"{self._path}: stored generation {self.generation} is "
                f"behind the {graph.generation} mutations the graph "
                f"replays to: {exc}"
            ) from exc
        return graph

    def _check_relationship_rows(self, rows: List[int]) -> None:
        """Raise for the first relationship row with an out-of-range id."""
        for i in range(self.relationship_count):
            source_row, rank, target_row = rows[3 * i:3 * i + 3]
            if source_row >= self.entity_count or target_row >= self.entity_count:
                raise DiskStoreError(
                    f"{self._path}: relationship {i} references entity "
                    f"row {max(source_row, target_row)} of "
                    f"{self.entity_count}"
                )
            if rank >= self.reltype_count:
                raise DiskStoreError(
                    f"{self._path}: relationship {i} references "
                    f"relationship type {rank} of {self.reltype_count}"
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the mapping (idempotent)."""
        view, self._view = getattr(self, "_view", None), None
        if view is not None:
            view.release()
        mapping, self._mmap = getattr(self, "_mmap", None), None
        if mapping is not None:
            mapping.close()

    def __enter__(self) -> "DiskGraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiskGraphStore(path={self._path!r}, "
            f"entities={self.entity_count}, "
            f"relationships={self.relationship_count})"
        )


def open_store(path: PathLike) -> DiskGraphStore:
    """Open a store file written by :func:`build_store` (O(header)).

    Raises
    ------
    DiskStoreError
        For every corruption shape: unreadable file, bad magic or
        version, truncation, out-of-bounds sections, malformed
        fingerprint.
    """
    return DiskGraphStore(path)
