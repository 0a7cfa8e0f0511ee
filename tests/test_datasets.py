"""Tests for repro.datasets: profiles, generators, gold standard, loaders."""

import pytest

from repro.datasets import (
    DOMAINS,
    FREEBASE_PROFILES,
    GOLD_STANDARD,
    allocate_counts,
    expert_key_attributes,
    generate_domain,
    gold_key_attributes,
    gold_size_constraint,
    load_domain,
    load_domain_file,
    load_schema,
    random_entity_graph,
    random_schema_graph,
    save_domain,
    table2_row,
    zipf_weights,
)
from repro.exceptions import DatasetError
from repro.model import SchemaGraph


class TestZipfHelpers:
    def test_weights_normalized(self):
        weights = zipf_weights(10)
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_zero_count(self):
        assert zipf_weights(0) == []

    def test_allocate_minimum(self):
        counts = allocate_counts(10, zipf_weights(5), minimum=3)
        assert all(c >= 3 for c in counts)

    def test_allocate_negative_rejected(self):
        with pytest.raises(DatasetError):
            allocate_counts(-1, [1.0])


class TestRandomGenerators:
    def test_entity_graph_shape(self):
        graph = random_entity_graph(
            num_types=5, num_rel_types=8, num_entities=60, num_edges=150, seed=3
        )
        stats = graph.stats()
        assert stats["entity_types"] == 5
        assert stats["relationship_types"] == 8

    def test_deterministic(self):
        a = random_entity_graph(4, 6, 40, 80, seed=9)
        b = random_entity_graph(4, 6, 40, 80, seed=9)
        assert a.stats() == b.stats()
        assert sorted(a.entities()) == sorted(b.entities())

    def test_connected_schema(self):
        graph = random_entity_graph(6, 9, 60, 100, seed=1)
        schema = SchemaGraph.from_entity_graph(graph)
        from repro.graph import is_connected

        assert is_connected(schema.undirected_weighted())

    def test_invalid_shapes_rejected(self):
        with pytest.raises(DatasetError):
            random_entity_graph(0, 5, 10, 10)
        with pytest.raises(DatasetError):
            random_entity_graph(5, 2, 10, 10)  # cannot connect
        with pytest.raises(DatasetError):
            random_entity_graph(5, 6, 3, 10)  # fewer entities than types

    def test_random_schema_graph(self):
        schema = random_schema_graph(num_types=7, num_rel_types=11, seed=2)
        assert schema.entity_type_count == 7
        assert schema.relationship_type_count == 11


class TestFreebaseLike:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_schema_sizes_match_table2(self, domain):
        profile = FREEBASE_PROFILES[domain]
        schema = load_schema(domain)
        assert schema.entity_type_count == profile.entity_type_count
        assert schema.relationship_type_count == profile.relationship_type_count

    @pytest.mark.parametrize("domain", ("film", "people"))
    def test_gold_types_present(self, domain):
        schema = load_schema(domain)
        for gold in gold_key_attributes(domain):
            assert schema.has_entity_type(gold)

    @pytest.mark.parametrize("domain", ("film", "tv"))
    def test_expert_types_present(self, domain):
        schema = load_schema(domain)
        for expert in expert_key_attributes(domain):
            assert schema.has_entity_type(expert)

    def test_gold_attributes_resolvable(self):
        schema = load_schema("film")
        for key_type, attrs in GOLD_STANDARD["film"].items():
            names = {a.name for a in schema.candidate_attributes(key_type)}
            for attr in attrs:
                assert attr in names

    def test_deterministic_generation(self):
        a = generate_domain("basketball")
        b = generate_domain("basketball")
        assert a.stats() == b.stats()

    def test_unknown_domain_raises(self):
        with pytest.raises(DatasetError):
            generate_domain("cooking")

    def test_table2_row_reports_paper_columns(self):
        row = table2_row("film")
        assert row["entity_types"] == row["paper_entity_types"] == 63
        assert row["relationship_types"] == row["paper_relationship_types"] == 136

    def test_gold_types_rank_highly_by_coverage(self):
        from repro.scoring import ScoringContext

        schema = load_schema("film")
        context = ScoringContext(schema)
        top10 = [t for t, _ in context.ranked_key_types()[:10]]
        gold = gold_key_attributes("film")
        assert sum(1 for g in gold if g in top10) >= 4

    def test_load_domain_cached(self):
        assert load_domain("basketball") is load_domain("basketball")


class TestGoldStandard:
    def test_five_domains_six_keys(self):
        assert set(GOLD_STANDARD) == {"books", "film", "music", "tv", "people"}
        for domain, tables in GOLD_STANDARD.items():
            assert len(tables) == 6
            for attrs in tables.values():
                assert 1 <= len(attrs) <= 3

    def test_size_constraints_match_table10(self):
        assert gold_size_constraint("film") == (6, 9)
        # Table 10's header says n=15 for books, but the attributes it
        # lists sum to 16 (an off-by-one in the paper); we follow the
        # listed attributes.
        assert gold_size_constraint("books") == (6, 16)
        assert gold_size_constraint("music") == (6, 18)
        assert gold_size_constraint("tv") == (6, 9)
        assert gold_size_constraint("people") == (6, 16)

    def test_expert_overlap_levels(self):
        # Tables 22/23: P@6 between Freebase and Experts per domain.
        expected_overlap = {"books": 2, "film": 3, "music": 5, "tv": 3, "people": 3}
        for domain, expected in expected_overlap.items():
            gold = set(gold_key_attributes(domain))
            expert = set(expert_key_attributes(domain))
            assert len(gold & expert) == expected


class TestLoader:
    @pytest.mark.parametrize("ext", ["tsv", "jsonl"])
    def test_round_trip(self, tmp_path, ext):
        graph = load_domain("basketball")
        path = tmp_path / f"basketball.{ext}"
        rows = save_domain(graph, path)
        assert rows > 0
        clone = load_domain_file(path, name="basketball")
        assert clone.stats() == graph.stats()

    def test_unsupported_extension(self, tmp_path):
        graph = load_domain("basketball")
        with pytest.raises(DatasetError):
            save_domain(graph, tmp_path / "data.parquet")
        with pytest.raises(DatasetError):
            load_domain_file(tmp_path / "data.parquet")
