"""The persistent binary graph store: one file, O(header) cold opens.

The paper's pipeline imports the Freebase dump into a database before
deriving the schema graph and scores; this module is that import made
durable.  :func:`encode_store` serializes an
:class:`~repro.model.entity_graph.EntityGraph` into one binary image,
:func:`build_store` writes that image to a file, and :func:`open_store`
maps it back with a fixed-cost open — validating the header, never
walking the data — so serve hosts and the workload oracle cold-start in
O(header) instead of regenerating and rebuilding O(entities) of state.
It is the repo's only whole-graph codec: a replica too far behind the
writer bootstraps from the same image, shipped in memory and opened by
:meth:`DiskGraphStore.from_bytes`.

File format (version 2, little-endian)
--------------------------------------
A fixed :data:`MAGIC` header (version, total size, generation, counts,
a CRC-32 checksum, the graph's ``sha256:`` fingerprint) is followed by
a table of ``(offset, length)`` pairs, one per section in
:data:`SECTION_NAMES`:

* a **string dictionary** (``dict_offsets`` + ``dict_blob``): every
  term once, sorted, so the file's bytes do not depend on the order a
  set of strings happens to iterate in;
* the **order-preserving graph encoding** (``type_order``,
  ``entity_ids``, ``entity_type_offsets``/``entity_type_indexes``,
  ``reltype_table``, ``relationships``): entities in insertion order,
  types in global first-seen order, per-entity type indexes sorted by
  that global order, relationship instances in insertion order — so
  the materialized graph is bit-identical to the source (a
  multi-new-type entity's types occupy consecutive global positions in
  caller order, so the sort keeps their relative order) and its
  fingerprint provably matches the header.

The file holds only what :meth:`DiskGraphStore.entity_graph` reads.

Every corruption shape — truncation, bad magic or version, section
bounds outside the file, dangling dictionary offsets, a checksum or a
fingerprint that no longer matches — raises
:class:`~repro.exceptions.DiskStoreError` with a diagnostic; a damaged
store never materializes.  See ``docs/disk-store.md``.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import re
import struct
import sys
import zlib
from array import array
from typing import Dict, List, Sequence, Tuple, Union

from ..exceptions import DiskStoreError, ModelError, ReplicationError
from ..model.entity_graph import EntityGraph
from ..model.ids import RelationshipTypeId

PathLike = Union[str, "os.PathLike[str]"]

#: First 8 bytes of every store file (PNG-style: high bit, CRLF, ^Z, LF
#: — catches text-mode mangling and truncation-to-text corruption).
MAGIC = b"\x89RGS\r\n\x1a\n"

#: Current file-format version; readers reject anything else.
VERSION = 2

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
    "reltype_table",
    "relationships",
)

#: magic, version, header_size, then 9 u64s (total size, generation,
#: graph name id, five counts, checksum), then the fingerprint.
_HEADER = struct.Struct("<8sII9Q72s")

#: The checksum field: the CRC-32 of every other byte of the file.
_CHECKSUM = struct.Struct("<Q")
_CHECKSUM_OFFSET = struct.calcsize("<8sII8Q")

#: One (offset, length) pair per section.
_SECTION_ENTRY = struct.Struct("<QQ")

_HEADER_SIZE = _HEADER.size + _SECTION_ENTRY.size * len(SECTION_NAMES)

_FINGERPRINT_RE = re.compile(r"^sha256:[0-9a-f]{64}$")


def _crc32_around_checksum(data) -> int:
    """CRC-32 of ``data`` with the checksum field's bytes left out."""
    head = zlib.crc32(data[:_CHECKSUM_OFFSET])
    return zlib.crc32(data[_CHECKSUM_OFFSET + _CHECKSUM.size:], head)


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


def encode_store(graph: EntityGraph) -> bytes:
    """The complete store image of ``graph``, as bytes.

    The graph's insertion orders, first-seen type order and
    ``graph_fingerprint`` are recorded so :meth:`DiskGraphStore.entity_graph`
    reproduces the graph bit-identically (same orders, same generation,
    verified fingerprint), and the header seals the whole image with a
    CRC-32.  :func:`build_store` writes this image to a file; a writer
    ships it base64-encoded to bootstrap a replica.

    Raises
    ------
    DiskStoreError
        When a name in ``graph`` cannot be encoded as UTF-8 (a lone
        surrogate).
    """
    # Lazy: repro.datasets imports repro.store at module scope, so the
    # reverse edge must resolve at call time.
    from ..datasets.loader import graph_fingerprint

    type_order = graph.entity_types()
    entities = list(graph.entities())
    relationships = list(graph.relationships())
    reltypes = graph.relationship_types()

    strings = set(entities)
    strings.update(type_order)
    strings.add(graph.name)
    for rel in reltypes:
        strings.update((rel.name, rel.source_type, rel.target_type))
    ordered_strings = sorted(strings)
    sid = {text: i for i, text in enumerate(ordered_strings)}
    try:
        fingerprint = graph_fingerprint(graph)
        blob_parts = [text.encode("utf-8") for text in ordered_strings]
    except UnicodeEncodeError as exc:
        raise DiskStoreError(f"cannot encode graph {graph.name!r}: {exc}") from exc

    dict_offsets = [0]
    position = 0
    for encoded in blob_parts:
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

    # dict_blob goes last so every u64 section stays 8-byte aligned.
    payloads = {
        "dict_offsets": _pack_u64(dict_offsets),
        "dict_blob": dict_blob,
        "type_order": _pack_u64([sid[t] for t in type_order]),
        "entity_ids": _pack_u64([sid[e] for e in entities]),
        "entity_type_offsets": _pack_u64(entity_type_offsets),
        "entity_type_indexes": _pack_u64(entity_type_indexes),
        "reltype_table": _pack_u64(reltype_table),
        "relationships": _pack_u64(relationship_rows),
    }
    write_order = [name for name in SECTION_NAMES if name != "dict_blob"]
    write_order.append("dict_blob")

    sections: Dict[str, Tuple[int, int]] = {}
    cursor = _HEADER_SIZE
    for name in write_order:
        sections[name] = (cursor, len(payloads[name]))
        cursor += len(payloads[name])
    total_size = cursor

    header = bytearray(
        _HEADER.pack(
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
            0,  # the checksum, sealed once the section table is in place
            fingerprint.encode("ascii").ljust(72, b"\x00"),
        )
    )
    for name in SECTION_NAMES:
        header += _SECTION_ENTRY.pack(*sections[name])
    checksum = _crc32_around_checksum(header)
    for name in write_order:
        checksum = zlib.crc32(payloads[name], checksum)
    _CHECKSUM.pack_into(header, _CHECKSUM_OFFSET, checksum)
    return b"".join([header, *(payloads[name] for name in write_order)])


def build_store(graph: EntityGraph, path: PathLike) -> int:
    """Write :func:`encode_store`'s image of ``graph`` to ``path``.

    The image goes to a new temporary file in ``path``'s directory, is
    flushed to disk, and is renamed onto ``path`` in one step.  A store
    already at ``path`` is never written in place, so a process that
    has it mapped keeps reading the old file, and a write that fails
    removes its temporary file and leaves the old store as it was.
    Returns the bytes written.

    Raises
    ------
    DiskStoreError
        When the graph cannot be encoded (see :func:`encode_store`;
        no file is created then) or the file cannot be written.
    """
    image = encode_store(graph)
    directory, name = os.path.split(os.path.abspath(path))
    temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        try:
            with open(temporary, "xb") as handle:
                handle.write(image)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise
    except OSError as exc:
        raise DiskStoreError(f"cannot write store file {path!s}: {exc}") from exc
    return len(image)


class DiskGraphStore:
    """A read-only view over one store image: an mmap-ed file or bytes.

    Opening is O(header): the magic, version, sizes, section bounds and
    fingerprint format are validated, and *nothing else is read* until
    :meth:`entity_graph` (or the dictionary lookup behind :attr:`name`)
    touches the sections (for a file, the OS pages them in on demand).
    Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = str(path)
        self._mmap = None
        try:
            with open(path, "rb") as handle:
                if os.fstat(handle.fileno()).st_size == 0:
                    raise DiskStoreError(f"{self._path}: empty store file")
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except OSError as exc:
            raise DiskStoreError(
                f"cannot open store file {self._path}: {exc}"
            ) from exc
        self._attach(memoryview(self._mmap))

    @classmethod
    def from_bytes(cls, image: bytes, label: str = "<store image>") -> "DiskGraphStore":
        """Open an in-memory store image, as :func:`encode_store` returns it.

        ``label`` stands in for the file path in diagnostics.  Every
        check a file gets applies unchanged.

        Raises
        ------
        DiskStoreError
            As for :func:`open_store`.
        """
        store = cls.__new__(cls)
        store._path = label
        store._mmap = None
        store._attach(memoryview(image))
        return store

    def _attach(self, view: memoryview) -> None:
        self._view = view
        try:
            self._read_header(len(view))
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
            self._checksum,
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
            "reltype_table": self.reltype_count * 24,
            "relationships": self.relationship_count * 24,
        }
        for name, expected in expected_lengths.items():
            actual = self._sections[name][1]
            if actual != expected:
                raise DiskStoreError(
                    f"{self._path}: section {name!r} holds {actual} bytes "
                    f"but the header counts imply {expected}"
                )
        indexes_length = self._sections["entity_type_indexes"][1]
        if indexes_length % 8:
            raise DiskStoreError(
                f"{self._path}: section 'entity_type_indexes' length "
                f"{indexes_length} is not a whole number of u64s"
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

    # ------------------------------------------------------------------
    # Header-level introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The stored graph's name."""
        return self.string(self._name_id)

    @property
    def path(self) -> str:
        """The store file this view maps, or an in-memory image's label."""
        return self._path

    def describe(self) -> Dict[str, object]:
        """O(header) store summary (the ``dataset info`` payload)."""
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
    # Materialization
    # ------------------------------------------------------------------
    def entity_graph(self, verify: bool = True) -> EntityGraph:
        """Materialize the stored graph, bit-identical to the source.

        Entities are replayed in insertion order with their types in
        global first-seen order, relationship instances in insertion
        order, and the mutation log is fast-forwarded to the stored
        generation, so stream deltas stamped with later generations
        line up after a replica bootstrap.
        The whole image is first checked against the header's CRC-32.
        The dictionary and each section are then decoded once, and one
        :meth:`~repro.model.entity_graph.EntityGraph.bulk_load` replays
        them with every per-entity and per-edge check.  With ``verify``
        (the default) the materialized graph's fingerprint is recomputed
        and checked against the header.

        Raises
        ------
        DiskStoreError
            For a checksum mismatch, any structural corruption
            (out-of-range ids, schema violations) or a fingerprint
            mismatch.
        """
        from ..datasets.loader import graph_fingerprint

        actual_checksum = _crc32_around_checksum(self._view)
        if actual_checksum != self._checksum:
            raise DiskStoreError(
                f"{self._path}: checksum mismatch — the file's bytes give "
                f"CRC-32 {actual_checksum:#010x} but the header pins "
                f"{self._checksum:#010x}; the store file is corrupt"
            )
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
