"""The persistent binary graph store (repro.store.disk).

Two properties carry the module:

* **round-trip bit-identity** — a reopened graph preserves insertion
  order, first-seen type order and the header fingerprint, so scorers
  cannot tell it from the source graph;
* **loud corruption** — every damaged-file shape raises
  ``DiskStoreError``, never a wrong graph, whether the image is a file
  or in memory (a replica's snapshot bootstrap, ``tests/test_replicate.py``);
  a seeded fuzz flips single bits and truncates at section boundaries
  to check it.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import random
import re
import struct
import subprocess
import sys
import threading
import zlib

import pytest

from repro.cli import main
from repro.datasets import generate_domain
from repro.datasets.loader import (
    graph_fingerprint,
    load_domain_file,
    save_domain,
)
from repro.exceptions import DiskStoreError, StoreError
from repro.store import STORE_EXTENSION, build_store, encode_store, open_store
from repro.store import disk
from repro.store.disk import SECTION_NAMES, VERSION, DiskGraphStore

import importlib.util
from pathlib import Path

# Loaded by path: plain ``from conftest import ...`` would collide with
# benchmarks/conftest.py when the whole repo is collected in one run.
_conftest_spec = importlib.util.spec_from_file_location(
    "_disk_store_test_fixtures", Path(__file__).with_name("conftest.py")
)
_conftest = importlib.util.module_from_spec(_conftest_spec)
_conftest_spec.loader.exec_module(_conftest)
build_fig1_graph = _conftest.build_fig1_graph


def _header_offsets():
    """The byte offset of every field of the store's header struct."""
    offsets, position = [], 0
    for count, code in re.findall(r"(\d*)([a-zA-Z])", disk._HEADER.format):
        if code == "s":
            fields, width = 1, int(count)
        else:
            fields, width = int(count or 1), struct.calcsize(f"<{code}")
        for _ in range(fields):
            offsets.append(position)
            position += width
    assert position == disk._HEADER.size
    return offsets


(
    _MAGIC_AT,
    _VERSION_AT,
    _HEADER_SIZE_AT,
    _TOTAL_SIZE_AT,
    _GENERATION_AT,
    _NAME_ID_AT,
    *_COUNTS_AT,
    _CHECKSUM_AT,
    _FINGERPRINT_AT,
) = _header_offsets()
_SECTION_TABLE = disk._HEADER.size


@pytest.fixture()
def fig1_store(tmp_path):
    path = tmp_path / f"fig1{STORE_EXTENSION}"
    build_store(build_fig1_graph(), path)
    return path


@pytest.fixture(scope="module")
def domain_pair(tmp_path_factory):
    """A generated domain graph and its store file, built once."""
    graph = generate_domain("architecture", scale=300, seed=11)
    path = tmp_path_factory.mktemp("store") / f"arch{STORE_EXTENSION}"
    build_store(graph, path)
    return graph, path


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_build_returns_file_size(self, tmp_path):
        path = tmp_path / f"g{STORE_EXTENSION}"
        written = build_store(build_fig1_graph(), path)
        assert written == path.stat().st_size

    def test_orders_and_fingerprint_survive(self, domain_pair):
        graph, path = domain_pair
        with open_store(path) as store:
            clone = store.entity_graph()
        assert clone.name == graph.name
        assert list(clone.entities()) == list(graph.entities())
        assert clone.entity_types() == graph.entity_types()
        assert list(clone.relationships()) == list(graph.relationships())
        assert clone.generation == graph.generation
        assert graph_fingerprint(clone) == graph_fingerprint(graph)

    def test_types_of_every_entity_survive(self, domain_pair):
        graph, path = domain_pair
        with open_store(path) as store:
            clone = store.entity_graph()
        for entity in graph.entities():
            assert clone.types_of(entity) == graph.types_of(entity)

    def test_header_is_o1_and_matches_graph(self, domain_pair):
        graph, path = domain_pair
        with open_store(path) as store:
            assert store.name == graph.name
            assert store.generation == graph.generation
            assert store.fingerprint == graph_fingerprint(graph)
            assert store.entity_count == len(list(graph.entities()))
            assert store.type_count == len(graph.entity_types())
            counts = store.describe()["counts"]
            assert counts["relationships"] == len(list(graph.relationships()))

    def test_loader_round_trip_via_extension(self, tmp_path):
        graph = build_fig1_graph()
        path = tmp_path / f"fig1{STORE_EXTENSION}"
        save_domain(graph, path)
        clone = load_domain_file(path)
        assert clone.name == "fig1"  # stored name wins over the default
        assert graph_fingerprint(clone) == graph_fingerprint(graph)

    def test_encode_store_is_the_file_image(self, tmp_path):
        graph = build_fig1_graph()
        path = tmp_path / f"g{STORE_EXTENSION}"
        build_store(graph, path)
        assert encode_store(graph) == path.read_bytes()

    def test_in_memory_image_materializes_like_the_file(self, domain_pair):
        graph, path = domain_pair
        with DiskGraphStore.from_bytes(path.read_bytes(), "<image>") as store:
            assert store.path == "<image>"
            assert store.describe()["file_bytes"] == path.stat().st_size
            clone = store.entity_graph()
        assert list(clone.entities()) == list(graph.entities())
        assert clone.entity_types() == graph.entity_types()
        assert list(clone.relationships()) == list(graph.relationships())
        assert clone.generation == graph.generation
        assert graph_fingerprint(clone) == graph_fingerprint(graph)

    def test_mutations_continue_from_stored_generation(self, fig1_store):
        """A reopened graph accepts mutations with agreeing generations.

        The mutation-op payload digests include the post-mutation
        generation, so a store-opened graph must count from the stored
        generation — not from zero — for replays to agree.
        """
        source = build_fig1_graph()
        with open_store(fig1_store) as store:
            clone = store.entity_graph()
        source.add_entity("NEW ONE", ["FILM"])
        clone.add_entity("NEW ONE", ["FILM"])
        assert clone.generation == source.generation
        assert graph_fingerprint(clone) == graph_fingerprint(source)


# ----------------------------------------------------------------------
# Rebuilding a store in place
# ----------------------------------------------------------------------
#: Opens a store, waits for a line on stdin, then materializes it.
_EARLY_READER = """
import sys
from repro.datasets.loader import graph_fingerprint
from repro.store import open_store
store = open_store(sys.argv[1])
print("open", flush=True)
sys.stdin.readline()
print(graph_fingerprint(store.entity_graph()), flush=True)
"""


class TestRebuild:
    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_write_leaves_the_old_store(
        self, fig1_store, monkeypatch, failing
    ):
        """A rebuild that fails before its rename changes nothing on disk."""

        def no_space(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        other = generate_domain("architecture", scale=1000, seed=0)
        monkeypatch.setattr(disk.os, failing, no_space)
        with pytest.raises(DiskStoreError, match="cannot write store file"):
            build_store(other, fig1_store)
        monkeypatch.undo()
        assert sorted(os.listdir(fig1_store.parent)) == [fig1_store.name]
        with open_store(fig1_store) as store:
            clone = store.entity_graph(verify=True)
        assert graph_fingerprint(clone) == graph_fingerprint(build_fig1_graph())

    def test_handle_opened_before_a_rebuild_reads_the_old_graph(self, tmp_path):
        """A reader that mapped the store keeps its graph across a rebuild.

        The reader runs in a subprocess: a store rewritten in place
        under its mapping can kill it with SIGBUS, which must not take
        pytest down with it.  The new image is smaller than the old one,
        the shape that ends in SIGBUS.
        """
        old = generate_domain("architecture", scale=300, seed=11)
        path = tmp_path / f"served{STORE_EXTENSION}"
        build_store(old, path)
        src = Path(__file__).resolve().parents[1] / "src"
        reader = subprocess.Popen(
            [sys.executable, "-c", _EARLY_READER, str(path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        try:
            assert reader.stdout.readline().strip() == "open"
            assert build_store(build_fig1_graph(), path) < len(encode_store(old))
            out, _ = reader.communicate("go\n", timeout=120)
        finally:
            if reader.poll() is None:
                reader.kill()
                reader.wait()
        assert reader.returncode == 0
        assert out.strip() == graph_fingerprint(old)
        with open_store(path) as store:
            assert store.fingerprint == graph_fingerprint(build_fig1_graph())


# ----------------------------------------------------------------------
# Corruption (every shape raises DiskStoreError)
# ----------------------------------------------------------------------
def _rewrite(path, mutate):
    data = bytearray(path.read_bytes())
    mutate(data)
    path.write_bytes(bytes(data))


def _reseal(data):
    """Store the CRC-32 of every byte but the checksum field's own.

    That is what an encoder that wrote ``data`` would do; the checks
    inside ``entity_graph`` that run after the checksum guard against
    such a drifted encoder, so their tests reseal what they damage.
    """
    end = _CHECKSUM_AT + 8
    checksum = zlib.crc32(bytes(data[:_CHECKSUM_AT]) + bytes(data[end:]))
    struct.pack_into("<Q", data, _CHECKSUM_AT, checksum)


def _rewrite_sealed(path, mutate):
    def mutate_and_reseal(data):
        mutate(data)
        _reseal(data)

    _rewrite(path, mutate_and_reseal)


def _truncate_half(data):
    del data[len(data) // 2:]


def _truncate_header(data):
    del data[100:]


def _bad_magic(data):
    data[0:8] = b"NOTSTORE"


def _bad_version(data):
    struct.pack_into("<I", data, _VERSION_AT, VERSION + 41)


def _version_one(data):
    # Version-1 files carried triple permutations and index sections;
    # no reader for them is kept.
    struct.pack_into("<I", data, _VERSION_AT, 1)


def _oversized(data):
    data.extend(b"\x00" * 64)


def _garbage_fingerprint(data):
    data[_FINGERPRINT_AT:_FINGERPRINT_AT + 72] = b"md5:garbage".ljust(72, b"\x00")


def _section_entry(name):
    """The byte offset of section ``name``'s (offset, length) entry."""
    return _SECTION_TABLE + SECTION_NAMES.index(name) * disk._SECTION_ENTRY.size


def _dangling_section(data):
    # Point the relationships section past the end of the file.
    struct.pack_into("<QQ", data, _section_entry("relationships"), len(data), 4096)


def _short_section(data):
    # Shrink the entity_ids section below what entity_count implies.
    entry = _section_entry("entity_ids")
    offset, length = struct.unpack_from("<QQ", data, entry)
    struct.pack_into("<QQ", data, entry, offset, max(0, length - 8))


#: Each damaged-header shape and the diagnostic it must raise.
_DAMAGED_HEADERS = [
    (_truncate_half, "truncated store file"),
    (_truncate_header, "truncated header"),
    (_bad_magic, "bad magic"),
    (_bad_version, "unsupported store version"),
    (
        _version_one,
        re.escape(f"unsupported store version 1 (this build reads version {VERSION})"),
    ),
    (_oversized, "oversized store file"),
    (_garbage_fingerprint, re.escape("malformed fingerprint field b'md5:garbage'") + "$"),
    (_dangling_section, "falls outside the file"),
    (_short_section, "header counts imply"),
]


def _section_bounds(data, name):
    return struct.unpack_from("<QQ", data, _section_entry(name))


def _set_u64(data, section, index, value):
    """Overwrite u64 number ``index`` of ``section`` in place."""
    offset, _length = _section_bounds(data, section)
    struct.pack_into("<Q", data, offset + 8 * index, value)


class TestCorruption:
    @pytest.mark.parametrize(
        "corrupt, diagnostic",
        _DAMAGED_HEADERS,
        ids=[corrupt.__name__.lstrip("_") for corrupt, _ in _DAMAGED_HEADERS],
    )
    def test_damaged_headers_fail_to_open(self, fig1_store, corrupt, diagnostic):
        _rewrite(fig1_store, corrupt)
        with pytest.raises(DiskStoreError, match=diagnostic):
            open_store(fig1_store)

    @pytest.mark.parametrize(
        "corrupt, diagnostic",
        _DAMAGED_HEADERS,
        ids=[corrupt.__name__.lstrip("_") for corrupt, _ in _DAMAGED_HEADERS],
    )
    def test_damaged_images_fail_in_memory(self, corrupt, diagnostic):
        """An in-memory image gets every check a file gets."""
        image = bytearray(encode_store(build_fig1_graph()))
        corrupt(image)
        with pytest.raises(DiskStoreError, match=f"^<image>: .*{diagnostic}"):
            DiskGraphStore.from_bytes(bytes(image), "<image>")

    def test_empty_and_missing_files_raise(self, tmp_path):
        empty = tmp_path / f"empty{STORE_EXTENSION}"
        empty.write_bytes(b"")
        with pytest.raises(DiskStoreError, match="empty"):
            open_store(empty)
        with pytest.raises(DiskStoreError, match="cannot open"):
            open_store(tmp_path / f"missing{STORE_EXTENSION}")

    def test_fingerprint_mismatch_is_rejected(self, fig1_store):
        """A valid-format but wrong fingerprint fails at materialization."""

        def flip_fingerprint(data):
            digest = bytes(
                data[_FINGERPRINT_AT:_FINGERPRINT_AT + 72]
            ).rstrip(b"\x00").decode("ascii")
            hex_part = digest[len("sha256:"):]
            flipped = ("0" if hex_part[0] != "0" else "1") + hex_part[1:]
            data[_FINGERPRINT_AT:_FINGERPRINT_AT + 72] = (
                f"sha256:{flipped}".encode("ascii").ljust(72, b"\x00")
            )

        _rewrite_sealed(fig1_store, flip_fingerprint)
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="fingerprint mismatch"):
                store.entity_graph()

    def test_dangling_dictionary_offset_is_rejected(self, fig1_store):
        """A dictionary offset past the blob raises, never misreads."""

        def dangle(data):
            # Bump the second cumulative offset past any possible blob.
            _set_u64(data, "dict_offsets", 1, 1 << 40)

        _rewrite(fig1_store, dangle)
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="dangling dictionary"):
                store.string(0)

    def test_checksum_mismatch_is_rejected(self, fig1_store):
        """Damage no structural check can see fails the checksum."""

        def advance(data):
            (generation,) = struct.unpack_from("<Q", data, _GENERATION_AT)
            struct.pack_into("<Q", data, _GENERATION_AT, generation + 1)

        _rewrite(fig1_store, advance)
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="checksum mismatch"):
                store.entity_graph(verify=False)

    # Each check inside entity_graph(), one damaged section apiece.
    def _materialize(self, path, mutate):
        _rewrite_sealed(path, mutate)
        with open_store(path) as store:
            return store.entity_graph()

    def test_type_slice_overrunning_the_index_section(self, fig1_store):
        def overrun(data):
            _, length = _section_bounds(data, "entity_type_indexes")
            _set_u64(data, "entity_type_offsets", 1, length // 8 + 5)

        with pytest.raises(
            DiskStoreError, match=r"entity 0 type slice \[0, \d+\) overruns"
        ):
            self._materialize(fig1_store, overrun)

    def test_type_rank_beyond_the_type_count(self, fig1_store):
        graph = build_fig1_graph()
        types = len(graph.entity_types())

        def bad_rank(data):
            _set_u64(data, "entity_type_indexes", 0, types + 7)

        with pytest.raises(
            DiskStoreError,
            match=f"entity 0 references type rank {types + 7} of {types}$",
        ):
            self._materialize(fig1_store, bad_rank)

    def test_relationship_row_beyond_the_entity_count(self, fig1_store):
        entities = build_fig1_graph().entity_count

        def bad_row(data):
            _set_u64(data, "relationships", 3 * 2 + 2, entities + 3)

        with pytest.raises(
            DiskStoreError,
            match=f"relationship 2 references entity row {entities + 3} "
            f"of {entities}$",
        ):
            self._materialize(fig1_store, bad_row)

    def test_relationship_type_rank_beyond_the_count(self, fig1_store):
        reltypes = len(build_fig1_graph().relationship_types())

        def bad_rank(data):
            _set_u64(data, "relationships", 1, reltypes + 2)

        with pytest.raises(
            DiskStoreError,
            match=f"relationship 0 references relationship type "
            f"{reltypes + 2} of {reltypes}$",
        ):
            self._materialize(fig1_store, bad_rank)

    def test_source_lacking_the_source_type(self, fig1_store):
        """The per-edge schema check runs on every stored relationship."""
        graph = build_fig1_graph()
        entities = list(graph.entities())
        _source, _target, rel = next(iter(graph.relationships()))
        # Re-point the first relationship's source at an entity of
        # another type.
        impostor = next(
            entity for entity in entities
            if rel.source_type not in graph.types_of(entity)
        )

        def retype(data):
            _set_u64(data, "relationships", 0, entities.index(impostor))

        with pytest.raises(DiskStoreError) as info:
            self._materialize(fig1_store, retype)
        message = str(info.value)
        assert "stored graph violates the data model" in message
        assert (
            f"source {impostor!r} lacks type {rel.source_type!r} "
            f"required by relationship type {rel}"
        ) in message

    def test_generation_below_the_replayed_adds(self, fig1_store):
        graph = build_fig1_graph()
        adds = graph.entity_count + graph.edge_count

        def rewind(data):
            struct.pack_into("<Q", data, _GENERATION_AT, adds - 1)

        with pytest.raises(
            DiskStoreError,
            match=f"stored generation {adds - 1} is behind the {adds} mutations",
        ):
            self._materialize(fig1_store, rewind)

    def test_invalid_utf8_in_the_dictionary(self, fig1_store):
        def garble(data):
            offset, _length = _section_bounds(data, "dict_blob")
            data[offset] = 0xFF

        with pytest.raises(DiskStoreError, match="string 0 is not valid UTF-8"):
            self._materialize(fig1_store, garble)

    def test_dangling_dictionary_offset_fails_materialization(self, fig1_store):
        def dangle(data):
            _set_u64(data, "dict_offsets", 1, 1 << 40)

        with pytest.raises(
            DiskStoreError, match="dangling dictionary offset for string 0 "
        ):
            self._materialize(fig1_store, dangle)

    def test_the_checks_run_with_verify_off(self, fig1_store):
        def bad_rank(data):
            _set_u64(data, "relationships", 1, 10**6)

        _rewrite_sealed(fig1_store, bad_rank)
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="relationship 0 references"):
                store.entity_graph(verify=False)

    def test_out_of_range_string_id_raises(self, fig1_store):
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="outside the"):
                store.string(10_000_000)

    def test_disk_store_error_is_a_store_error(self):
        assert issubclass(DiskStoreError, StoreError)


# ----------------------------------------------------------------------
# The collector pause around materialization
# ----------------------------------------------------------------------
class TestCollectorPause:
    """``entity_graph()`` pauses the cyclic collector and restores it."""

    @pytest.fixture(autouse=True)
    def _keep_the_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.fixture()
    def seen(self, monkeypatch):
        """``gc.isenabled()`` as each fingerprint recompute saw it."""
        from repro.datasets import loader

        states = []
        original = loader.graph_fingerprint

        def probe(graph):
            states.append(gc.isenabled())
            return original(graph)

        monkeypatch.setattr(loader, "graph_fingerprint", probe)
        return states

    def test_paused_inside_and_enabled_after(self, fig1_store, seen):
        gc.enable()
        with open_store(fig1_store) as store:
            store.entity_graph()
        assert seen == [False]
        assert gc.isenabled()

    def test_enabled_after_a_materialization_error(self, fig1_store):
        types = len(build_fig1_graph().entity_types())

        def bad_rank(data):
            _set_u64(data, "entity_type_indexes", 0, types + 7)

        _rewrite_sealed(fig1_store, bad_rank)
        gc.enable()
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="references type rank"):
                store.entity_graph()
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_keeps_it_disabled(self, fig1_store, seen):
        gc.disable()
        with open_store(fig1_store) as store:
            store.entity_graph()
        assert seen == [False]
        assert not gc.isenabled()

    @pytest.mark.parametrize("first_out", ["first_in", "second_in"])
    def test_overlapping_pauses_end_enabled(self, first_out):
        """The two orders in which two threads' pauses can overlap."""
        gc.enable()
        first, second = disk._collector_paused(), disk._collector_paused()
        first.__enter__()
        second.__enter__()
        assert not gc.isenabled()
        exits = [first, second] if first_out == "first_in" else [second, first]
        for pause in exits:
            pause.__exit__(None, None, None)
        assert gc.isenabled()

    def test_threads_materializing_at_once_end_enabled(self, domain_pair):
        graph, path = domain_pair
        gc.enable()
        workers, rounds = 4, 3
        start = threading.Barrier(workers)
        fingerprints = []

        def materialize():
            start.wait(timeout=30)
            for _ in range(rounds):
                with open_store(path) as store:
                    fingerprints.append(graph_fingerprint(store.entity_graph()))

        threads = [threading.Thread(target=materialize) for _ in range(workers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert fingerprints == [graph_fingerprint(graph)] * (workers * rounds)
        assert gc.isenabled()


# ----------------------------------------------------------------------
# Seeded corruption fuzz: raise DiskStoreError or answer as the clean file
# ----------------------------------------------------------------------
#: Random single-bit flips over the whole file.
_FUZZ_FLIPS = 1000
_FUZZ_SEED = 18
#: Random single-bit flips over the sections, each resealed.
_RESEALED_FLIPS = 2000


def _observed(graph):
    """Everything a materialized graph must keep: name, generation, orders."""
    return (
        graph.name,
        graph.generation,
        [(entity, graph.types_of(entity)) for entity in graph.entities()],
        graph.entity_types(),
        list(graph.relationships()),
        graph_fingerprint(graph),
    )


@pytest.fixture(scope="module")
def fuzz_target(tmp_path_factory):
    """A clean store's bytes, its clean graph, and a path to rewrite."""
    graph = generate_domain("architecture", scale=1000, seed=11)
    path = tmp_path_factory.mktemp("fuzz") / f"arch{STORE_EXTENSION}"
    build_store(graph, path)
    return path.read_bytes(), _observed(graph), path


def _wrong_answers(fuzz_target, damaged):
    """Labels of ``(label, bytes)`` cases that materialize a wrong graph.

    Any other exception than DiskStoreError propagates and fails the test.
    """
    _clean, expected, path = fuzz_target
    wrong = []
    for label, data in damaged:
        path.write_bytes(data)
        try:
            with open_store(path) as store:
                graph = store.entity_graph()
        except DiskStoreError:
            continue
        if _observed(graph) != expected:
            wrong.append(label)
    return wrong


def _flipped(data, bit):
    damaged = bytearray(data)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


def _field_bits(start, length):
    return range(8 * start, 8 * (start + length))


def _field_bytes(start, length):
    return range(start, start + length)


def _name_bytes(clean):
    """The ``[start, end)`` file bytes of the graph name's dictionary string."""
    (name_id,) = struct.unpack_from("<Q", clean, _NAME_ID_AT)
    blob_offset, _length = _section_bounds(clean, "dict_blob")
    offsets_at, _length = _section_bounds(clean, "dict_offsets")
    start, end = struct.unpack_from("<QQ", clean, offsets_at + 8 * name_id)
    return blob_offset + start, blob_offset + end


class TestCorruptionFuzz:
    def test_random_single_bit_flips(self, fuzz_target):
        clean = fuzz_target[0]
        rng = random.Random(_FUZZ_SEED)
        bits = [rng.randrange(8 * len(clean)) for _ in range(_FUZZ_FLIPS)]
        damaged = [(f"bit {bit}", _flipped(clean, bit)) for bit in bits]
        assert _wrong_answers(fuzz_target, damaged) == []

    def test_resealed_flips_reach_the_decoder(self, fuzz_target):
        """Flips the checksum no longer sees meet the decoder's own checks.

        Each damaged image is resealed, as a drifted encoder would seal
        it, so the section, offset, UTF-8, rank and schema checks and
        the fingerprint decide instead of the CRC-32.  The flips cover
        every section but the graph name's dictionary bytes: only the
        checksum covers the name (and the generation, in the header).
        """
        clean, expected, _path = fuzz_target
        name_at, name_end = _name_bytes(clean)
        positions = [
            at
            for section in SECTION_NAMES
            for at in _field_bytes(*_section_bounds(clean, section))
            if not name_at <= at < name_end
        ]
        rng = random.Random(_FUZZ_SEED)
        diagnostics, wrong = set(), []
        for _ in range(_RESEALED_FLIPS):
            at, bit = rng.choice(positions), rng.randrange(8)
            damaged = bytearray(clean)
            damaged[at] ^= 1 << bit
            _reseal(damaged)
            try:
                with DiskGraphStore.from_bytes(bytes(damaged), "<image>") as store:
                    graph = store.entity_graph()
            except DiskStoreError as exc:
                diagnostics.add(re.sub(r"[\d\[\](),]+", "#", str(exc))[:60])
                continue
            if graph_fingerprint(graph) != expected[-1]:
                wrong.append(f"byte {at} bit {bit}")
        assert wrong == []
        assert not any("checksum" in text for text in diagnostics)
        # The flips reach several of the decoder's checks, not just one.
        assert len(diagnostics) >= 5, diagnostics

    def test_flips_in_the_graph_name(self, fuzz_target):
        """The fingerprint does not cover the name; the checksum does."""
        clean = fuzz_target[0]
        name_at, name_end = _name_bytes(clean)
        assert clean[name_at:name_end] == b"architecture"
        damaged = [
            (f"name bit {bit - 8 * name_at}", _flipped(clean, bit))
            for bit in _field_bits(name_at, name_end - name_at)
        ]
        assert _wrong_answers(fuzz_target, damaged) == []

    def test_flips_in_the_generation_field(self, fuzz_target):
        """The fingerprint does not cover the generation; the checksum does."""
        clean, expected, _path = fuzz_target
        (generation,) = struct.unpack_from("<Q", clean, _GENERATION_AT)
        assert generation == expected[1]
        damaged = [
            (f"generation bit {bit - 8 * _GENERATION_AT}", _flipped(clean, bit))
            for bit in _field_bits(_GENERATION_AT, 8)
        ]
        assert _wrong_answers(fuzz_target, damaged) == []

    def test_truncation_at_every_section_boundary(self, fuzz_target):
        clean = fuzz_target[0]
        boundaries = {0, _SECTION_TABLE, disk._HEADER_SIZE, len(clean)}
        for name in SECTION_NAMES:
            offset, length = _section_bounds(clean, name)
            boundaries.update((offset, offset + length))
        cuts = sorted(
            {
                cut
                for boundary in boundaries
                for cut in (boundary - 1, boundary, boundary + 1)
                if 0 <= cut <= len(clean)
            }
        )
        damaged = [(f"cut at {cut}", clean[:cut]) for cut in cuts]
        assert _wrong_answers(fuzz_target, damaged) == []


# ----------------------------------------------------------------------
# CLI: repro-preview dataset build / info, --file .rgs
# ----------------------------------------------------------------------
class TestDatasetCli:
    def test_build_and_info(self, tmp_path, capsys):
        out = tmp_path / f"arch{STORE_EXTENSION}"
        code = main([
            "dataset", "build", "--domain", "architecture",
            "--scale", "300", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        printed = re.search(r"fingerprint (sha256:[0-9a-f]{64}) ", capsys.readouterr().out)
        assert printed is not None
        code = main(["dataset", "info", str(out), "--verify"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        graph = generate_domain("architecture", scale=300, seed=11)
        assert printed.group(1) == graph_fingerprint(graph) == summary["fingerprint"]
        assert summary["name"] == "architecture"
        assert summary["verified"] is True
        assert summary["counts"]["entities"] > 0
        assert set(summary["sections"]) == set(SECTION_NAMES)

    @pytest.mark.parametrize("ext", ["tsv", "jsonl"])
    def test_build_from_text_file(self, tmp_path, capsys, ext):
        text_path = tmp_path / f"arch.{ext}"
        save_domain(generate_domain("architecture", scale=300, seed=11), text_path)
        out = tmp_path / f"arch{STORE_EXTENSION}"
        code = main(["dataset", "build", "--file", str(text_path), "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        code = main(["dataset", "info", str(out), "--verify"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verified"] is True
        assert summary["fingerprint"] == graph_fingerprint(load_domain_file(text_path))
        # The graph is named after the file's stem, so stores imported
        # from different files can be served side by side.
        assert summary["name"] == "arch"

    def test_info_on_damaged_store_errors_cleanly(self, tmp_path, capsys):
        path = tmp_path / f"bad{STORE_EXTENSION}"
        path.write_bytes(b"NOTSTORE" + b"\x00" * 500)
        code = main(["dataset", "info", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_build_rejects_wrong_extension(self, tmp_path, capsys):
        code = main([
            "dataset", "build", "--domain", "film",
            "--out", str(tmp_path / "store.bin"),
        ])
        assert code == 1
        assert STORE_EXTENSION in capsys.readouterr().err

    def test_query_cli_accepts_store_file(self, tmp_path, capsys):
        store_path = tmp_path / f"q{STORE_EXTENSION}"
        build_store(generate_domain("film", scale=600, seed=0), store_path)
        code = main([
            "--file", str(store_path), "--tables", "2", "--attrs", "4",
        ])
        assert code == 0
        assert "preview: k=2 n=4" in capsys.readouterr().out
