"""The workload subsystem: trace format, generator, replay, oracle, CLI.

The hypothesis property at the bottom is the subsystem's core
guarantee: a *random* generated trace — interleaved mutations included,
query pool spanning all four discovery algorithms — replayed through the
warm incremental engine and the sharded process pool equals the
from-scratch rebuild oracle at every step.  ``REPRO_TEST_JOBS`` defaults
to 2 workers, so every tier-1 run sends the sharded leg across a real
pool.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import PreviewQuery
from repro.exceptions import WorkloadError
from repro.serve import parse_query, parse_sweep
from repro import config
from repro.workload import (
    REPLAY_PATHS,
    SCENARIOS,
    ScenarioSpec,
    WorkloadTrace,
    canonical_payload,
    generate_trace,
    payload_digest,
    record_digests,
    replay_trace,
    run_conformance,
    scenario,
)

#: Worker count for the sharded legs (REPRO_TEST_JOBS, default 2).
JOBS = config.test_jobs()

#: Small, cheap domain every test trace runs against.
DOMAIN, SCALE = "architecture", 1000


def small_trace(seed=3, ops=16, spec="steady"):
    return generate_trace(
        domain=DOMAIN, scale=SCALE, seed=seed, ops=ops, scenario=spec
    )


# ----------------------------------------------------------------------
# Trace format
# ----------------------------------------------------------------------
class TestTraceFormat:
    def test_roundtrip_is_lossless(self):
        trace = record_digests(small_trace())
        assert WorkloadTrace.loads(trace.dumps()) == trace

    def test_dump_load_file(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl"
        trace.dump(path)
        assert WorkloadTrace.load(path) == trace

    def test_canonical_payload_is_key_sorted_and_compact(self):
        assert canonical_payload({"b": 1, "a": [None, True]}) == '{"a":[null,true],"b":1}'
        assert payload_digest({"a": 1}) == payload_digest({"a": 1})
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})
        assert payload_digest({}).startswith("sha256:")

    def test_counts_and_digest_presence(self):
        trace = small_trace(seed=2026, ops=30, spec="write-burst")
        assert trace.mutation_count + trace.read_count <= len(trace.ops)
        assert not trace.has_digests()
        stamped = record_digests(trace)
        assert stamped.has_digests()
        assert all(
            op.digest is None for op in stamped.ops if op.op == "stats"
        )

    def test_with_digests_requires_alignment(self):
        trace = small_trace(ops=5)
        with pytest.raises(WorkloadError, match="5 ops"):
            trace.with_digests(["x"])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty"),
            ('{"kind": "other"}', "not a workload trace"),
            ('{"kind": "repro-workload", "version": 99, "dataset": {}}', "version"),
            ('{"kind": "repro-workload", "version": 1}', "dataset"),
            ("not json", "not JSON"),
        ],
    )
    def test_malformed_headers_are_rejected(self, text, message):
        with pytest.raises(WorkloadError, match=message):
            WorkloadTrace.loads(text)

    def test_malformed_ops_are_rejected_with_line_numbers(self):
        header = json.dumps(small_trace(ops=1).header())
        for line, message in [
            ('{"op": "explode"}', "line 2: unknown op"),
            ('{"op": "preview", "params": 3}', "line 2: 'params'"),
            ('{"op": "preview", "client": -1}', "line 2: 'client'"),
            ('{"op": "preview", "digest": 5}', "line 2: 'digest'"),
            ("[1, 2]", "line 2 must be a JSON object"),
        ]:
            with pytest.raises(WorkloadError, match=message):
                WorkloadTrace.loads(header + "\n" + line + "\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match="cannot read trace"):
            WorkloadTrace.load(tmp_path / "nope.jsonl")

    def test_invalid_utf8_header_names_the_byte_offset(self, tmp_path):
        path = tmp_path / "bad-header.jsonl"
        path.write_bytes(b'{"kind": "\xff"}\n')
        with pytest.raises(WorkloadError) as caught:
            WorkloadTrace.load(path)
        message = str(caught.value)
        assert str(path) in message
        assert "not valid UTF-8: byte 0xff at offset 10 (line 1)" in message

    def test_invalid_utf8_op_line_names_the_byte_offset(self, tmp_path):
        header = json.dumps(small_trace(ops=1).header()).encode("utf-8")
        path = tmp_path / "bad-op.jsonl"
        path.write_bytes(header + b'\n{"op": "preview\xfe"}\n')
        offset = len(header) + 1 + len(b'{"op": "preview')
        with pytest.raises(WorkloadError) as caught:
            WorkloadTrace.load(path)
        message = str(caught.value)
        assert str(path) in message
        assert f"byte 0xfe at offset {offset} (line 2)" in message

    def test_dump_to_unwritable_path(self, tmp_path):
        with pytest.raises(WorkloadError, match="cannot write trace"):
            small_trace(ops=2).dump(tmp_path / "no-such-dir" / "t.jsonl")

    def test_truncated_trace_is_rejected(self):
        """Lost trailing op lines must not replay (and conform) vacuously."""
        text = small_trace(ops=6).dumps()
        truncated = "\n".join(text.splitlines()[:-2]) + "\n"
        with pytest.raises(WorkloadError, match="truncated"):
            WorkloadTrace.loads(truncated)

    def test_fingerprint_pins_the_starting_graph(self):
        """A drifted dataset fails fast, before any payload is computed."""
        from dataclasses import replace

        from repro.datasets import generate_domain, graph_fingerprint

        trace = small_trace(ops=3)
        assert trace.fingerprint == graph_fingerprint(
            generate_domain(DOMAIN, scale=SCALE, seed=trace.seed)
        )
        drifted = replace(trace, fingerprint="sha256:" + "0" * 64)
        with pytest.raises(WorkloadError, match="dataset mismatch"):
            replay_trace(drifted, path="serial")
        # Unpinned traces (hand-written, or recorded pre-fingerprint)
        # replay without the check.
        unpinned = replace(trace, fingerprint=None)
        assert replay_trace(unpinned, path="serial").ops == 3

    def test_fingerprint_is_content_addressed(self):
        from repro.datasets import generate_domain, graph_fingerprint

        one = graph_fingerprint(generate_domain(DOMAIN, scale=SCALE, seed=0))
        same = graph_fingerprint(generate_domain(DOMAIN, scale=SCALE, seed=0))
        other = graph_fingerprint(generate_domain(DOMAIN, scale=SCALE, seed=1))
        assert one == same
        assert one != other
        mutated = generate_domain(DOMAIN, scale=SCALE, seed=0)
        mutated.add_entity("fingerprint-probe", [mutated.entity_types()[0]])
        assert graph_fingerprint(mutated) != one


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
class TestGenerator:
    def test_same_seed_same_trace(self):
        assert small_trace(seed=9, ops=40) == small_trace(seed=9, ops=40)
        assert small_trace(seed=9, ops=40) != small_trace(seed=10, ops=40)

    def test_every_preset_generates_parseable_ops(self):
        """Every op of every preset is valid under the wire parsers."""
        for name in SCENARIOS:
            trace = small_trace(seed=4, ops=25, spec=name)
            assert len(trace.ops) == 25
            for op in trace.ops:
                if op.op == "preview":
                    parse_query(op.params)
                elif op.op == "sweep":
                    assert parse_sweep(op.params)

    def test_write_burst_bursts(self):
        trace = small_trace(seed=1, ops=120, spec="write-burst")
        runs, current = [], 0
        for op in trace.ops:
            if op.op == "mutate":
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert max(runs) >= SCENARIOS["write-burst"].burst_length

    def test_multi_client_uses_multiple_clients(self):
        trace = small_trace(seed=2, ops=60, spec="multi-client")
        assert len({op.client for op in trace.ops}) > 1

    def test_structural_spikes_introduce_new_types(self):
        trace = small_trace(seed=5, ops=120, spec="structural-spike")
        spikes = [
            op
            for op in trace.ops
            if op.op == "mutate"
            and any("WL SPIKE" in t for t in op.params.get("types", []))
        ]
        assert spikes, "structural-spike scenario produced no spikes"

    def test_scenario_override_helper(self):
        assert scenario("steady", clients=3).clients == 3
        with pytest.raises(WorkloadError, match="unknown scenario"):
            scenario("nope")
        with pytest.raises(WorkloadError, match="override"):
            scenario("steady", warp_factor=9)

    def test_invalid_inputs(self):
        with pytest.raises(WorkloadError, match="unknown domain"):
            generate_trace(domain="narnia")
        with pytest.raises(WorkloadError, match="unknown scenario"):
            small_trace(spec="nope")
        with pytest.raises(WorkloadError, match="at least 1 op"):
            small_trace(ops=0)
        with pytest.raises(WorkloadError, match="mutate_rate"):
            small_trace(spec=ScenarioSpec(name="bad", mutate_rate=1.5))
        with pytest.raises(WorkloadError, match="burst_length"):
            small_trace(spec=ScenarioSpec(name="bad", burst_length=0))

    def test_narrow_query_space_terminates(self):
        """A pool bigger than the shape-valid space must not hang.

        (Bug surfaced in review: concise-only algorithm lists admit only
        k x n combinations, and unbounded rejection sampling looped
        forever once every draw was a duplicate.)
        """
        spec = ScenarioSpec(
            name="narrow", query_pool=50,
            algorithms=("dynamic-programming",),  # concise-only: 12 shapes
        )
        trace = small_trace(seed=1, ops=10, spec=spec)
        assert len(trace.ops) == 10
        for op in trace.ops:
            if op.op == "preview":
                assert op.params.get("d") is None

    def test_query_to_params_roundtrip(self):
        for query in (
            PreviewQuery(k=2, n=5),
            PreviewQuery(k=3, n=9, d=2, mode="diverse"),
            PreviewQuery(k=2, n=4, d=1, mode="tight", algorithm="apriori"),
        ):
            assert parse_query(query.to_params()) == query


# ----------------------------------------------------------------------
# Replay + oracle
# ----------------------------------------------------------------------
class TestReplayAndOracle:
    def test_unknown_path_rejected(self):
        with pytest.raises(WorkloadError, match="unknown replay path"):
            replay_trace(small_trace(ops=2), path="quantum")

    def test_sharded_path_requires_jobs(self):
        with pytest.raises(WorkloadError, match="jobs >= 2"):
            replay_trace(small_trace(ops=2), path="sharded", jobs=1)

    def test_oracle_needs_a_path(self):
        with pytest.raises(WorkloadError, match="at least one"):
            run_conformance(small_trace(ops=2), paths=())

    def test_serial_and_incremental_agree_with_accounting(self):
        trace = small_trace(seed=12, ops=24, spec="write-burst")
        report = run_conformance(trace, paths=("serial", "incremental"))
        assert report["identical"], report["first_divergence"]
        stats = report["paths"]["incremental"]["stats"]
        assert stats["rescan_ok"] is True
        assert stats["hits"] + stats["misses"] >= trace.read_count

    def test_tampered_digest_is_detected(self):
        trace = record_digests(small_trace(seed=6, ops=10))
        index = next(
            i for i, op in enumerate(trace.ops) if op.digest is not None
        )
        digests = [op.digest for op in trace.ops]
        digests[index] = "sha256:" + "0" * 64
        tampered = trace.with_digests(digests)
        result = replay_trace(tampered, path="incremental", verify_digests=True)
        assert [entry[0] for entry in result.digest_mismatches] == [index]
        report = run_conformance(tampered, paths=("incremental",))
        assert not report["recorded_digests"]["ok"]

    def test_replay_paths_constant_matches_makers(self):
        assert set(REPLAY_PATHS) == {
            "serial", "incremental", "sharded", "serve", "replicated",
        }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestWorkloadCli:
    def test_record_replay_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([
            "workload", "record", "--domain", DOMAIN, "--ops", "12",
            "--seed", "3", "--scenario", "steady", "--out", str(out),
        ]) == 0
        assert "recorded 12 ops" in capsys.readouterr().out
        assert main(["workload", "replay", str(out), "--path", "incremental"]) == 0
        assert "reproduced byte-for-byte" in capsys.readouterr().out

    def test_replay_detects_tampering(self, tmp_path, capsys):
        trace = record_digests(small_trace(seed=6, ops=8))
        digests = [
            None if d is None else "sha256:" + "0" * 64
            for d in (op.digest for op in trace.ops)
        ]
        out = tmp_path / "tampered.jsonl"
        trace.with_digests(digests).dump(out)
        assert main(["workload", "replay", str(out), "--path", "serial"]) == 1
        assert "not reproduced" in capsys.readouterr().err

    def test_replay_detects_tampering_on_partially_digested_traces(
        self, tmp_path, capsys
    ):
        """One lost digest must not silence mismatches on the rest."""
        trace = record_digests(small_trace(seed=6, ops=8))
        digests = [op.digest for op in trace.ops]
        stamped = [i for i, d in enumerate(digests) if d is not None]
        assert len(stamped) >= 2
        digests[stamped[0]] = None  # this op lost its digest...
        digests[stamped[1]] = "sha256:" + "0" * 64  # ...this one is wrong
        out = tmp_path / "partial.jsonl"
        trace.with_digests(digests).dump(out)
        assert main(["workload", "replay", str(out), "--path", "serial"]) == 1
        assert "not reproduced" in capsys.readouterr().err

    def test_run_subcommand_diffs_paths(self, capsys):
        assert main([
            "workload", "run", "--domain", DOMAIN, "--ops", "10",
            "--seed", "4", "--paths", "serial,incremental",
        ]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_errors_are_reported(self, tmp_path, capsys):
        assert main(["workload", "replay", str(tmp_path / "none.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err
        out = tmp_path / "t.jsonl"
        small_trace(ops=2).dump(out)
        assert main(["workload", "replay", str(out), "--path", "bogus"]) == 1
        assert "unknown replay path" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The property: cached/sharded replay == from-scratch rebuild oracle
# ----------------------------------------------------------------------
#: Query pool spanning all four registered algorithms (the generator
#: matches shapes: concise-only DP never gets a distance constraint,
#: apriori always does).
ALL_ALGORITHMS = (
    "apriori", "brute-force", "branch-and-bound", "dynamic-programming",
)

PROPERTY = settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestConformanceProperty:
    @PROPERTY
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mutate_rate=st.sampled_from([0.2, 0.4]),
        burst_length=st.sampled_from([1, 3]),
        structural_rate=st.sampled_from([0.0, 0.2]),
    )
    def test_warm_and_sharded_equal_rebuild_oracle(
        self, seed, mutate_rate, burst_length, structural_rate
    ):
        spec = ScenarioSpec(
            name="property",
            mutate_rate=mutate_rate,
            burst_length=burst_length,
            structural_rate=structural_rate,
            sweep_rate=0.15,
            stats_rate=0.1,
            clients=2,
            query_pool=6,
            algorithms=ALL_ALGORITHMS,
        )
        trace = generate_trace(
            domain=DOMAIN, scale=SCALE, seed=seed, ops=14, scenario=spec
        )
        report = run_conformance(
            trace, paths=("serial", "incremental", "sharded"), jobs=JOBS
        )
        assert report["identical"], report["first_divergence"]
        assert report["paths"]["incremental"]["stats"]["rescan_ok"]
        assert report["paths"]["sharded"]["stats"]["rescan_ok"]
