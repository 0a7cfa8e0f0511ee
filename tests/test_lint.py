"""repro.lint: the framework, every rule against its fixture pair, and
the repo-wide contract that the codebase lints clean.

The fixture corpus lives in ``tests/data/lint`` (one ``repNNN_bad.py``
true positive and one ``repNNN_ok.py`` clean snippet per rule); each
file is linted with an explicit ``module=`` override that places it in
the rule's scope.  The corpus directory is named ``data`` precisely so
the repo-wide run (and CI's lint leg) skips it.
"""

import json
from pathlib import Path

import pytest

from repro import config
from repro.exceptions import ConfigError, LintError
from repro.lint import (
    LINT_RULES,
    Finding,
    PARSE_ERROR_ID,
    STALE_SUPPRESSION_ID,
    apply_suppressions,
    lint_file,
    lint_paths,
    lint_source,
    load_suppressions,
    module_name_for,
    parse_suppressions,
    register_lint_rule,
    rules_for_module,
    unregister_lint_rule,
)
from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "tests" / "data" / "lint"

#: (fixture, module override, rule id): the bad file must produce the
#: rule's finding; the ok file must produce none.
RULE_FIXTURES = [
    ("rep101", "repro.core.sample", "REP101"),
    ("rep102", "repro.core.sample", "REP102"),
    ("rep103", "repro.scoring.sample", "REP103"),
    ("rep104", "repro.scoring.sample", "REP104"),
    ("rep105", "repro.anywhere.sample", "REP105"),
    ("rep106", "repro.anywhere.sample", "REP106"),
    ("rep107", "repro.anywhere.sample", "REP107"),
    ("rep108", "repro.serve.sample", "REP108"),
    ("rep109", "repro.serve.sample", "REP109"),
    ("rep110", "repro.anywhere.sample", "REP110"),
    ("rep111", "repro.plugins.sample", "REP111"),
    ("rep112", "repro.anywhere.sample", "REP112"),
]


class TestModuleNames:
    def test_src_tree(self):
        assert module_name_for("src/repro/core/apriori.py") == "repro.core.apriori"

    def test_absolute_src_tree(self):
        path = REPO / "src" / "repro" / "scoring" / "base.py"
        assert module_name_for(path) == "repro.scoring.base"

    def test_package_init_scopes_as_package(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"

    def test_bare_trees(self):
        assert module_name_for("tests/test_lint.py") == "tests.test_lint"
        assert module_name_for("tools/check_docs.py") == "tools.check_docs"

    def test_unanchored_path_maps_to_stem(self):
        assert module_name_for("/somewhere/else/script.py") == "script"


class TestRegistry:
    def test_builtin_rules_are_registered(self):
        expected = {f"REP1{i:02d}" for i in range(1, 13)}
        assert expected <= set(LINT_RULES)

    def test_scoping(self):
        in_core = {r.rule_id for r in rules_for_module("repro.core.apriori")}
        assert "REP102" in in_core and "REP103" in in_core
        in_tests = {r.rule_id for r in rules_for_module("tests.test_lint")}
        assert "REP102" not in in_tests  # determinism rules scope to repro
        assert "REP105" in in_tests  # bare-except applies everywhere

    def test_exclude_beats_modules(self):
        rule = LINT_RULES["REP110"]
        assert rule.applies_to("repro.plan.planner")
        assert not rule.applies_to("repro.config")

    def test_register_validates_checker_surface(self):
        with pytest.raises(LintError, match="interests"):
            register_lint_rule("REP900", "bad", "no surface")(object)
        assert "REP900" not in LINT_RULES

    def test_register_and_unregister_round_trip(self):
        @register_lint_rule("REP901", "test-rule", "fixture", modules=("repro",))
        class _Checker:
            interests = ()

            def check(self, node, ctx):
                return iter(())

        try:
            assert LINT_RULES["REP901"].checker is _Checker
        finally:
            unregister_lint_rule("REP901")
        assert "REP901" not in LINT_RULES


class TestFindings:
    def test_format_and_order(self):
        a = Finding("a.py", 3, "REP105", "msg", "hint")
        b = Finding("a.py", 9, "REP101", "msg")
        assert a.format() == "a.py:3: REP105 msg (hint)"
        assert b.format() == "a.py:9: REP101 msg"
        assert sorted([b, a]) == [a, b]

    def test_parse_error_is_a_finding_not_an_exception(self):
        findings = lint_source("def broken(:\n", path="x.py", module="repro.x")
        assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]

    def test_unreadable_file_raises(self):
        with pytest.raises(LintError, match="no such file"):
            lint_paths([str(REPO / "does-not-exist")])


@pytest.mark.parametrize("stem,module,rule_id", RULE_FIXTURES)
class TestRuleCorpus:
    def test_bad_fixture_fires(self, stem, module, rule_id):
        findings = lint_file(CORPUS / f"{stem}_bad.py", module=module)
        assert rule_id in {f.rule_id for f in findings}, findings

    def test_ok_fixture_is_clean(self, stem, module, rule_id):
        findings = lint_file(CORPUS / f"{stem}_ok.py", module=module)
        assert findings == [], findings


class TestRuleEdgeCases:
    def test_rep101_multiprocessing_at_top_level(self):
        findings = lint_file(CORPUS / "rep101_mp_bad.py", module="repro.engine")
        assert {f.rule_id for f in findings} == {"REP101"}

    def test_rep101_out_of_scope_for_tests(self):
        # numpy is a legitimate test dependency; the rule scopes to repro.
        findings = lint_file(
            CORPUS / "rep101_bad.py", module="tests.test_sample"
        )
        assert findings == []

    def test_rep103_counts_both_calls(self):
        findings = lint_file(CORPUS / "rep103_bad.py", module="repro.core.x")
        assert len([f for f in findings if f.rule_id == "REP103"]) == 2

    def test_rep110_resolves_module_constants(self):
        findings = lint_file(CORPUS / "rep110_bad.py", module="repro.sample")
        messages = [f.message for f in findings]
        assert len(findings) == 3
        assert any("REPRO_FIXTURE_FLAG" in m for m in messages)

    def test_rep999_reserves_the_whole_file(self):
        findings = lint_file(CORPUS / "rep999_bad.py", module="repro.sample")
        assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]


class TestSuppressions:
    def test_parse_comments_lines_and_line_numbers(self):
        text = "# header\nREP104 src/a.py\n\nREP107 src/b.py:88  # why\n"
        sups = parse_suppressions(text)
        assert [(s.rule_id, s.path, s.line) for s in sups] == [
            ("REP104", "src/a.py", None),
            ("REP107", "src/b.py", 88),
        ]

    def test_malformed_line_raises(self):
        with pytest.raises(LintError, match="expected 'RULE_ID"):
            parse_suppressions("REP104\n")

    def test_missing_file_means_no_suppressions(self, tmp_path):
        assert load_suppressions(tmp_path / "nope.txt") == []

    def test_matching_splits_active_and_suppressed(self):
        findings = [
            Finding("src/a.py", 3, "REP104", "m"),
            Finding("src/a.py", 9, "REP105", "m"),
        ]
        sups = parse_suppressions("REP104 src/a.py:3\n")
        active, suppressed = apply_suppressions(findings, sups)
        assert [f.rule_id for f in active] == ["REP105"]
        assert [f.rule_id for f in suppressed] == ["REP104"]

    def test_wrong_line_does_not_match(self):
        findings = [Finding("src/a.py", 3, "REP104", "m")]
        sups = parse_suppressions("REP104 src/a.py:4\n")
        active, _ = apply_suppressions(findings, sups)
        assert {f.rule_id for f in active} == {"REP104", STALE_SUPPRESSION_ID}

    def test_stale_suppression_is_fatal(self):
        sups = parse_suppressions("REP104 src/gone.py\n")
        active, suppressed = apply_suppressions([], sups)
        assert suppressed == []
        assert [f.rule_id for f in active] == [STALE_SUPPRESSION_ID]
        assert "src/gone.py" in active[0].message


class TestRepoIsClean:
    def test_whole_repo_lints_clean_with_empty_suppressions(self):
        paths = [
            REPO / tree
            for tree in ("src", "tests", "benchmarks", "examples", "tools")
            if (REPO / tree).exists()
        ]
        findings = lint_paths(paths)
        suppressions = load_suppressions(REPO / "lint-suppressions.txt")
        assert suppressions == [], (
            "lint-suppressions.txt must stay empty; fix findings instead"
        )
        active, _ = apply_suppressions(findings, suppressions)
        assert active == [], "\n".join(f.format() for f in active)

    def test_corpus_is_skipped_by_directory_walks(self):
        findings = lint_paths([REPO / "tests"])
        assert all("data/lint" not in f.path for f in findings)


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        code = lint_main(
            [
                str(CORPUS / "rep105_ok.py"),
                "--suppressions",
                str(tmp_path / "none.txt"),
            ]
        )
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_bad_file_exits_nonzero_with_text_report(self, tmp_path, capsys):
        code = lint_main(
            [
                str(CORPUS / "rep105_bad.py"),
                "--suppressions",
                str(tmp_path / "none.txt"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REP105" in out and "bare except" in out

    def test_json_format(self, tmp_path, capsys):
        code = lint_main(
            [
                str(CORPUS / "rep105_bad.py"),
                "--format",
                "json",
                "--suppressions",
                str(tmp_path / "none.txt"),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule_id"] == "REP105"
        assert payload["suppressed"] == []

    def test_stale_suppression_fails_the_run(self, tmp_path, capsys):
        sup = tmp_path / "sup.txt"
        sup.write_text("REP105 tests/data/lint/nothing.py\n")
        code = lint_main(
            [str(CORPUS / "rep105_ok.py"), "--suppressions", str(sup)]
        )
        assert code == 1
        assert STALE_SUPPRESSION_ID in capsys.readouterr().out

    def test_suppression_rescues_a_finding(self, tmp_path, capsys):
        sup = tmp_path / "sup.txt"
        bad = (CORPUS / "rep105_bad.py").as_posix()
        sup.write_text(f"REP105 {bad}\n")
        code = lint_main([str(CORPUS / "rep105_bad.py"), "--suppressions", str(sup)])
        assert code == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_malformed_suppressions_is_a_usage_error(self, tmp_path, capsys):
        sup = tmp_path / "sup.txt"
        sup.write_text("garbage\n")
        code = lint_main(
            [str(CORPUS / "rep105_ok.py"), "--suppressions", str(sup)]
        )
        assert code == 2
        assert "expected" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP101" in out and "REP112" in out

    def test_cli_subcommand_dispatch(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--list-rules"]) == 0
        assert "REP101" in capsys.readouterr().out


class TestConfigRegistry:
    def test_declared_knobs_are_enumerable(self):
        names = {k["name"] for k in config.knob_catalog()}
        assert {
            "REPRO_KERNEL",
            "REPRO_DISPATCH_THRESHOLD",
            "REPRO_TEST_JOBS",
            "REPRO_RESULTS_DIR",
        } <= names

    def test_undeclared_read_raises(self):
        with pytest.raises(ConfigError, match="undeclared"):
            config.raw_knob("REPRO_NOT_A_KNOB")

    def test_reads_are_lazy(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_JOBS", "7")
        assert config.test_jobs() == 7
        monkeypatch.delenv("REPRO_TEST_JOBS")
        assert config.test_jobs() == 2  # declared default

    def test_malformed_test_jobs_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_JOBS", "many")
        with pytest.raises(ConfigError, match="integer"):
            config.test_jobs()

    def test_kernel_backend_normalizes(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "  PYTHON ")
        assert config.kernel_backend() == "python"
        monkeypatch.delenv("REPRO_KERNEL")
        assert config.kernel_backend() == "auto"
