"""The persistent binary graph store (repro.store.disk).

Three properties carry the module:

* **round-trip bit-identity** — a reopened graph preserves insertion
  order, first-seen type order and the header fingerprint, so scorers
  cannot tell it from the source graph;
* **index equivalence** — interval scans, permutation scans and the
  CSR neighborhood walk answer exactly what the in-memory structures
  answer;
* **loud corruption** — every damaged-file shape raises
  ``DiskStoreError`` (mirroring the snapshot corruption suite in
  ``tests/test_replicate.py``), never a wrong answer.
"""

from __future__ import annotations

import json
import re
import struct

import pytest

from repro.cli import main
from repro.datasets import generate_domain
from repro.datasets.loader import (
    graph_fingerprint,
    load_domain_file,
    save_domain,
)
from repro.exceptions import DiskStoreError, StoreError
from repro.store import (
    STORE_EXTENSION,
    build_store,
    open_store,
    store_from_entity_graph,
)
from repro.store.disk import SECTION_NAMES, VERSION

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

_HEADER_PREFIX = struct.calcsize("<8sII9Q")  # fingerprint field offset
_SECTION_TABLE = struct.calcsize("<8sII9Q72s")  # section table offset


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
# Index equivalence
# ----------------------------------------------------------------------
class TestQueries:
    def test_interval_scan_matches_entities_of_type(self, domain_pair):
        graph, path = domain_pair
        with open_store(path) as store:
            for type_name in graph.entity_types():
                start, end = store.type_interval(type_name)
                members = store.entities_of_type(type_name)
                assert end - start == len(members)
                assert set(members) == set(graph.entities_of_type(type_name))

    def test_unknown_type_raises(self, fig1_store):
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="unknown entity type"):
                store.type_interval("NO SUCH TYPE")

    def test_triple_scans_match_triple_store(self, domain_pair):
        graph, path = domain_pair
        expected = {
            (t.subject, t.predicate, t.object): count
            for t, count in store_from_entity_graph(graph).triples()
        }
        with open_store(path) as store:
            actual = {
                (t.subject, t.predicate, t.object): count
                for t, count in store.triples()
            }
            assert actual == expected
            subject = next(iter(graph.entities()))
            got = {
                (t.subject, t.predicate, t.object): count
                for t, count in store.scan_counted(subject=subject)
            }
            assert got == {
                key: count for key, count in expected.items() if key[0] == subject
            }
            predicate = "a"
            got = {
                (t.subject, t.predicate, t.object): count
                for t, count in store.scan_counted(predicate=predicate)
            }
            assert got == {
                key: count
                for key, count in expected.items()
                if key[1] == predicate
            }

    def test_scan_of_absent_term_is_empty(self, fig1_store):
        with open_store(fig1_store) as store:
            assert list(store.scan_counted(subject="nobody")) == []
            assert store.string_id("nobody") is None
            assert store.entity_row("nobody") is None

    def test_neighborhood_matches_graph_bfs(self, domain_pair):
        graph, path = domain_pair
        adjacency = {}
        for source, target, _rel in graph.relationships():
            adjacency.setdefault(source, set()).add(target)
            adjacency.setdefault(target, set()).add(source)
        with open_store(path) as store:
            for entity in list(graph.entities())[:20]:
                for hops in (0, 1, 2):
                    expected = {entity}
                    frontier = {entity}
                    for _ in range(hops):
                        frontier = {
                            neighbor
                            for node in frontier
                            for neighbor in adjacency.get(node, ())
                        } - expected
                        expected |= frontier
                    assert store.neighborhood(entity, hops=hops) == expected

    def test_neighborhood_of_unknown_entity_raises(self, fig1_store):
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="unknown entity"):
                store.neighborhood("nobody")
            with pytest.raises(DiskStoreError, match=">= 0"):
                store.neighborhood("Will Smith", hops=-1)


# ----------------------------------------------------------------------
# Corruption (every shape raises DiskStoreError)
# ----------------------------------------------------------------------
def _rewrite(path, mutate):
    data = bytearray(path.read_bytes())
    mutate(data)
    path.write_bytes(bytes(data))


def _truncate_half(data):
    del data[len(data) // 2:]


def _truncate_header(data):
    del data[100:]


def _bad_magic(data):
    data[0:8] = b"NOTSTORE"


def _bad_version(data):
    struct.pack_into("<I", data, 8, VERSION + 41)


def _oversized(data):
    data.extend(b"\x00" * 64)


def _garbage_fingerprint(data):
    data[_HEADER_PREFIX:_HEADER_PREFIX + 72] = b"md5:garbage".ljust(72, b"\x00")


def _dangling_section(data):
    # Point the spo section (index 9) past the end of the file.
    entry = _SECTION_TABLE + SECTION_NAMES.index("spo") * 16
    struct.pack_into("<QQ", data, entry, len(data), 4096)


def _short_section(data):
    # Shrink the entity_ids section below what entity_count implies.
    entry = _SECTION_TABLE + SECTION_NAMES.index("entity_ids") * 16
    offset, length = struct.unpack_from("<QQ", data, entry)
    struct.pack_into("<QQ", data, entry, offset, max(0, length - 8))


#: Each damaged-header shape and the diagnostic it must raise.
_DAMAGED_HEADERS = [
    (_truncate_half, "truncated store file"),
    (_truncate_header, "truncated header"),
    (_bad_magic, "bad magic"),
    (_bad_version, "unsupported store version"),
    (_oversized, "oversized store file"),
    (_garbage_fingerprint, re.escape("malformed fingerprint field b'md5:garbage'") + "$"),
    (_dangling_section, "falls outside the file"),
    (_short_section, "header counts imply"),
]


def _section_bounds(data, name):
    entry = _SECTION_TABLE + SECTION_NAMES.index(name) * 16
    return struct.unpack_from("<QQ", data, entry)


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
                data[_HEADER_PREFIX:_HEADER_PREFIX + 72]
            ).rstrip(b"\x00").decode("ascii")
            hex_part = digest[len("sha256:"):]
            flipped = ("0" if hex_part[0] != "0" else "1") + hex_part[1:]
            data[_HEADER_PREFIX:_HEADER_PREFIX + 72] = (
                f"sha256:{flipped}".encode("ascii").ljust(72, b"\x00")
            )

        _rewrite(fig1_store, flip_fingerprint)
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="fingerprint mismatch"):
                store.entity_graph()

    def test_dangling_dictionary_offset_is_rejected(self, fig1_store):
        """A dictionary offset past the blob raises, never misreads."""

        def dangle(data):
            # dict_offsets is the first section after the header table;
            # bump the second cumulative offset past any possible blob.
            entry = _SECTION_TABLE + SECTION_NAMES.index("dict_offsets") * 16
            offset, _length = struct.unpack_from("<QQ", data, entry)
            struct.pack_into("<Q", data, offset + 8, 1 << 40)

        _rewrite(fig1_store, dangle)
        with open_store(fig1_store) as store:
            with pytest.raises(DiskStoreError, match="dangling dictionary"):
                store.string(0)

    # Each check inside entity_graph(), one damaged section apiece.
    def _materialize(self, path, mutate):
        _rewrite(path, mutate)
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
        generation_offset = struct.calcsize("<8sII") + 8

        def rewind(data):
            struct.pack_into("<Q", data, generation_offset, adds - 1)

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

        _rewrite(fig1_store, bad_rank)
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
        assert "fingerprint sha256:" in capsys.readouterr().out
        code = main(["dataset", "info", str(out), "--verify"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["name"] == "architecture"
        assert summary["verified"] is True
        assert summary["counts"]["entities"] > 0
        assert set(summary["sections"]) == set(SECTION_NAMES)

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
