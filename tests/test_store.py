"""Unit tests for repro.store's text formats and the triple codec behind them."""

import gc
import hashlib
import json

import pytest

from repro.datasets import graph_fingerprint, load_domain_file, save_domain
from repro.exceptions import DiskStoreError, ModelError, PersistenceError, StoreError
from repro.model import (
    EntityGraph,
    RelationshipTypeId,
    SchemaGraph,
    entity_graph_to_triples,
    qualified_name,
    triples_to_entity_graph,
)
from repro.store import load_jsonl, load_tsv, save_jsonl, save_tsv

ACTED = RelationshipTypeId("acted", "ACTOR", "FILM")

EXTENSIONS = ("jsonl", "tsv")

#: sha256 of ``save_domain(fig1_graph, ...)``, recorded before the text
#: formats moved onto the triple codec; the move kept every byte.
FIG1_SHA256 = {
    "tsv": "6b387549c6b9d95055bbb89df4caf82cad60b52ca71d452e2c7bf7e91fcd1075",
    "jsonl": "144d489e5c6624ef27b56b96a625359820e5d59cf23c68c8618e765027b02ce3",
}


@pytest.fixture
def graph():
    """Two actors and a film; ``will`` acted in ``mib`` twice."""
    g = EntityGraph(name="cast")
    g.add_entity("will", ["ACTOR"])
    g.add_entity("mib", ["FILM"])
    g.add_entity("tommy", ["ACTOR"])
    g.add_relationship("will", "mib", ACTED)
    g.add_relationship("will", "mib", ACTED)
    g.add_relationship("tommy", "mib", ACTED)
    return g


def write_rows(path, rows):
    """Write ``(s, p, o, n)`` rows by hand in the format ``path`` names."""
    if path.suffix == ".tsv":
        lines = [f"{s}\t{p}\t{o}\t{n}" for s, p, o, n in rows]
    else:
        lines = [json.dumps({"s": s, "p": p, "o": o, "n": n}) for s, p, o, n in rows]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestPersistence:
    @pytest.mark.parametrize(
        "save,load,ext",
        [(save_tsv, load_tsv, "tsv"), (save_jsonl, load_jsonl, "jsonl")],
    )
    def test_round_trip(self, graph, tmp_path, save, load, ext):
        path = tmp_path / f"data.{ext}"
        rows = save(graph, path)
        assert rows == 5  # three typing rows, two distinct relationship rows
        loaded = load(path, name="cast")
        assert loaded.name == "cast"
        assert graph_fingerprint(loaded) == graph_fingerprint(graph)
        assert loaded.relationship_count(ACTED) == 3
        assert loaded.generation == graph.generation

    def test_tsv_escaping(self, tmp_path):
        g = EntityGraph(name="tricky")
        g.add_entity("a\tb", ["T\nU"])
        g.add_entity("o\\r", ["V\rW"])
        g.add_relationship("a\tb", "o\\r", RelationshipTypeId("p\nq", "T\nU", "V\rW"))
        path = tmp_path / "tricky.tsv"
        assert save_tsv(g, path) == 3
        assert path.read_bytes().count(b"\n") == 3
        assert graph_fingerprint(load_tsv(path)) == graph_fingerprint(g)

    def test_malformed_tsv_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only\ttwo\n")
        with pytest.raises(PersistenceError):
            load_tsv(path)

    def test_malformed_jsonl_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(PersistenceError):
            load_jsonl(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_tsv(tmp_path / "nope.tsv")


class TestRowCodec:
    """Writers emit sorted distinct rows; readers sum them and decode."""

    def test_writer_rows_are_sorted_distinct_counts(self, graph, tmp_path):
        path = tmp_path / "cast.tsv"
        save_tsv(graph, path)
        assert path.read_text(encoding="utf-8") == (
            "mib\ta\tFILM\t1\n"
            "tommy\tACTOR|acted|FILM\tmib\t1\n"
            "tommy\ta\tACTOR\t1\n"
            "will\tACTOR|acted|FILM\tmib\t2\n"
            "will\ta\tACTOR\t1\n"
        )

    @pytest.mark.parametrize("ext", EXTENSIONS)
    def test_repeated_rows_sum_in_first_seen_order(self, tmp_path, ext):
        knows = RelationshipTypeId("knows", "ZULU", "ALPHA")
        back = RelationshipTypeId("knows", "ALPHA", "ZULU")
        path = tmp_path / f"rows.{ext}"
        write_rows(path, [
            ("zed", "a", "ZULU", 1),
            ("amy", "a", "ALPHA", 1),
            ("zed", "ZULU|knows|ALPHA", "amy", 1),
            ("amy", "a", "ALPHA", 1),  # a repeated typing row is idempotent
            ("zed", "a", "MIKE", 1),  # joins zed's earlier typing row
            ("amy", "ALPHA|knows|ZULU", "zed", 1),
            ("zed", "ZULU|knows|ALPHA", "amy", 2),  # sums into row 3
        ])
        loaded = load_domain_file(path)
        assert list(loaded.entities()) == ["zed", "amy"]
        assert loaded.entity_types() == ["ZULU", "MIKE", "ALPHA"]
        assert list(loaded.relationships()) == [("zed", "amy", knows)] * 3 + [
            ("amy", "zed", back)
        ]
        assert loaded.generation == 2 + 4
        # As after .rgs materialization, the mutation-log window is empty.
        assert len(loaded.mutation_log) == 0
        assert loaded.mutation_log.horizon == loaded.generation

    @pytest.mark.parametrize("ext", EXTENSIONS)
    @pytest.mark.parametrize(
        "rows,diagnostic",
        [
            ([("a", "a", "A", 1), ("a", "A|r|B", "ghost", 1)], "unknown entity"),
            (
                [("a", "a", "A", 1), ("b", "a", "C", 1), ("a", "A|r|B", "b", 1)],
                "lacks type 'B'",
            ),
        ],
        ids=["untyped-endpoint", "wrong-endpoint-type"],
    )
    def test_undecodable_row_names_the_file(self, tmp_path, ext, rows, diagnostic):
        path = tmp_path / f"bad.{ext}"
        write_rows(path, rows)
        with pytest.raises(PersistenceError, match=rf"bad\.{ext}: .*{diagnostic}"):
            load_domain_file(path)

    @pytest.mark.parametrize("ext", EXTENSIONS)
    def test_undecodable_bytes_raise(self, tmp_path, ext):
        path = tmp_path / f"latin1.{ext}"
        path.write_bytes(b"caf\xe9\ta\tPLACE\t1\n")
        with pytest.raises(PersistenceError, match="cannot read"):
            load_domain_file(path)

    @pytest.mark.parametrize("ext", EXTENSIONS)
    @pytest.mark.parametrize(
        "rel_type",
        [
            RelationshipTypeId("r", "A|B", "C"),
            RelationshipTypeId("r|s", "A", "C"),
            RelationshipTypeId("r", "A", "C|D"),
        ],
        ids=["source-type", "name", "target-type"],
    )
    def test_pipe_in_relationship_type_fails_at_save(self, tmp_path, ext, rel_type):
        g = EntityGraph(name="pipes")
        g.add_entity("x", [rel_type.source_type])
        g.add_entity("y", [rel_type.target_type])
        g.add_relationship("x", "y", rel_type)
        path = tmp_path / f"pipes.{ext}"
        with pytest.raises(PersistenceError, match=r"pipes\.\w+: .*'\|'"):
            save_domain(g, path)
        assert not path.exists()
        with pytest.raises(ModelError):
            list(entity_graph_to_triples(g))

    @pytest.mark.parametrize(
        "ext, error",
        [("tsv", PersistenceError), ("jsonl", PersistenceError), ("rgs", DiskStoreError)],
    )
    def test_name_that_is_not_utf8_fails_before_the_file(self, tmp_path, ext, error):
        g = EntityGraph(name="surrogate")
        g.add_entity("bad\udc80", ["ACTOR"])  # a lone surrogate: valid str, not UTF-8
        path = tmp_path / f"surrogate.{ext}"
        with pytest.raises(error, match="surrogates not allowed"):
            save_domain(g, path)
        assert not path.exists()

    @pytest.mark.parametrize("ext", EXTENSIONS)
    def test_pipe_in_an_entity_type_alone_round_trips(self, tmp_path, ext):
        g = EntityGraph(name="pipes")
        g.add_entity("x|y", ["A|B"])
        path = tmp_path / f"pipes.{ext}"
        save_domain(g, path)
        assert graph_fingerprint(load_domain_file(path)) == graph_fingerprint(g)

    @pytest.mark.parametrize("ext", EXTENSIONS)
    def test_fig1_bytes_are_pinned(self, fig1_graph, tmp_path, ext):
        path = tmp_path / f"fig1.{ext}"
        save_domain(fig1_graph, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FIG1_SHA256[ext]


class TestTripleStore:
    """A stored row asserts its triple ``count >= 1`` times."""

    def test_add_nonpositive_count_rejected(self, tmp_path):
        # Each row is checked on its own: an earlier valid row for the same
        # triple must not let a zero or negative count sum its way in.
        for ext in EXTENSIONS:
            for count in (0, -1):
                path = tmp_path / f"rows.{ext}"
                write_rows(path, [("a", "a", "A", 1), ("a", "a", "A", count)])
                with pytest.raises(StoreError, match=rf"rows\.{ext}:2: count must be"):
                    load_domain_file(path)


class TestSchemaBridge:
    def test_entity_graph_round_trip(self, fig1_graph):
        clone = triples_to_entity_graph(entity_graph_to_triples(fig1_graph), name="fig1")
        assert clone.stats() == fig1_graph.stats()
        assert clone.generation == fig1_graph.generation
        assert list(clone.entities()) == list(fig1_graph.entities())
        assert clone.entity_types() == fig1_graph.entity_types()
        assert list(clone.relationships()) == list(fig1_graph.relationships())

    def test_schema_from_store(self, fig1_graph, tmp_path):
        path = tmp_path / "fig1.tsv"
        save_tsv(fig1_graph, path)
        schema = SchemaGraph.from_entity_graph(load_tsv(path))
        assert schema.entity_type_count == 6
        assert schema.relationship_type_count == 5

    def test_bad_predicate_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        write_rows(path, [("a", "a", "A", 1), ("a", "unqualified", "a", 1)])
        with pytest.raises(StoreError, match=r"bad\.tsv: bad relationship predicate"):
            load_tsv(path)


class TestRoundTripOrderRegression:
    """Codec round trips must preserve the orders scorers observe.

    Regression for a bug where ``entity_graph_to_triples`` emitted each
    entity's types in set-iteration order and the rebuild side replayed
    them through index sets, so a saved-and-reloaded graph could present
    types in a different first-seen order than its source — same
    extensional content, different preview payloads.
    """

    #: (algorithm, query kwargs) — each with a constraint shape the
    #: algorithm registers for.
    ALGORITHMS = (
        ("apriori", {"d": 2, "mode": "tight"}),
        ("branch-and-bound", {"d": 2, "mode": "tight"}),
        ("brute-force", {"d": 2, "mode": "tight"}),
        ("dynamic-programming", {}),
    )

    def test_fingerprint_survives_text_round_trip(self, fig1_graph, tmp_path):
        """The text formats preserve content (the binary store also
        preserves order — that lives in tests/test_disk_store.py)."""
        for ext in ("tsv", "jsonl"):
            path = tmp_path / f"fig1.{ext}"
            save_domain(fig1_graph, path)
            clone = load_domain_file(path, name="fig1")
            assert graph_fingerprint(clone) == graph_fingerprint(fig1_graph)
            for entity in fig1_graph.entities():
                assert clone.types_of(entity) == fig1_graph.types_of(entity)

    @pytest.mark.parametrize(
        "algorithm,kwargs", ALGORITHMS, ids=[name for name, _ in ALGORITHMS]
    )
    def test_preview_payloads_identical_after_round_trip(
        self, fig1_graph, algorithm, kwargs
    ):
        from repro.core.serialize import result_to_dict
        from repro.engine import PreviewEngine

        clone = triples_to_entity_graph(
            entity_graph_to_triples(fig1_graph), name=fig1_graph.name
        )
        reference = PreviewEngine(fig1_graph).query(
            k=2, n=4, algorithm=algorithm, **kwargs
        )
        result = PreviewEngine(clone).query(
            k=2, n=4, algorithm=algorithm, **kwargs
        )
        assert result_to_dict(result) == result_to_dict(reference)

    def test_multi_type_entity_order_survives(self):
        """An entity introducing several types keeps their caller order."""
        graph = EntityGraph(name="order")
        graph.add_entity("zed", ["ZULU", "ALPHA", "MIKE"])  # not sorted
        graph.add_entity("amy", ["ALPHA"])
        clone = triples_to_entity_graph(entity_graph_to_triples(graph), name="order")
        assert clone.entity_types() == graph.entity_types()


class TestStrictPersistence:
    """Malformed dataset rows fail loudly, shape by shape (PR 10)."""

    def test_unknown_escape_raises_with_row_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\\xb\tp\to\t1\n")
        with pytest.raises(PersistenceError, match=r"bad\.tsv:1.*unknown escape"):
            load_tsv(path)

    def test_trailing_backslash_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("s\tp\to\\\t1\n")
        with pytest.raises(PersistenceError, match="trailing lone backslash"):
            load_tsv(path)

    @pytest.mark.parametrize(
        "row",
        ["one\ttwo\tthree\n", "a\tb\tc\td\te\n"],
        ids=["three-columns", "five-columns"],
    )
    def test_wrong_column_count_raises(self, tmp_path, row):
        path = tmp_path / "bad.tsv"
        path.write_text(row)
        with pytest.raises(PersistenceError, match="expected 4"):
            load_tsv(path)

    @pytest.mark.parametrize("count", ["zero", "1.5", "0", "-3"])
    def test_bad_counts_raise(self, tmp_path, count):
        path = tmp_path / "bad.tsv"
        path.write_text(f"s\tp\to\t{count}\n")
        with pytest.raises(PersistenceError):
            load_tsv(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"s": "a", "p": "b", "o": "c", "n": 0}',
            '{"s": "a", "p": "b", "o": "c", "n": -2}',
            '{"s": "a", "p": "b", "o": "c", "n": "many"}',
            '{"s": "a", "p": "b"}',
            '{"s": "a", "p": "b", "o": "c", "n": 1.5}',
            '{"s": 7, "p": "a", "o": "A", "n": 1}',
            '["a", "a", "A", 1]',
        ],
        ids=[
            "zero-count",
            "negative-count",
            "nonint-count",
            "missing-term",
            "fractional-count",
            "nonstring-term",
            "not-an-object",
        ],
    )
    def test_bad_jsonl_rows_raise(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(PersistenceError, match=r"bad\.jsonl:1: "):
            load_jsonl(path)


class TestCollectorPause:
    """A text import decodes its graph with the cyclic collector paused."""

    @pytest.fixture(autouse=True)
    def _keep_the_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.fixture()
    def seen(self, monkeypatch):
        """``gc.isenabled()`` as each ``EntityGraph.bulk_load`` saw it."""
        states = []
        original = EntityGraph.bulk_load.__func__

        def probe(cls, *args, **kwargs):
            states.append(gc.isenabled())
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(EntityGraph, "bulk_load", classmethod(probe))
        return states

    @pytest.fixture()
    def cast_tsv(self, graph, tmp_path):
        path = tmp_path / "cast.tsv"
        save_tsv(graph, path)
        return path

    def test_paused_inside_and_enabled_after(self, cast_tsv, seen):
        gc.enable()
        load_tsv(cast_tsv)
        assert seen == [False]
        assert gc.isenabled()

    def test_enabled_after_a_persistence_error(self, tmp_path, seen):
        path = tmp_path / "untyped.tsv"
        write_rows(path, [("will", qualified_name(ACTED), "mib", 1)])
        gc.enable()
        with pytest.raises(PersistenceError, match="untyped"):
            load_tsv(path)
        assert seen == [False]
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_keeps_it_disabled(self, cast_tsv, seen):
        gc.disable()
        load_tsv(cast_tsv)
        assert seen == [False]
        assert not gc.isenabled()
