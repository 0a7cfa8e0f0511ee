#!/usr/bin/env python3
"""Run one benchmark workload; the last stdout line is its JSON result.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload browse --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see ``perfbench/WORKLOADS.md``).
Every run also writes its full record (inputs, environment, reference
loop timings, per-round values, planner counts) to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("browse", "serve-hot", "serve-churn", "explore-grid")
SELFTEST_SECONDS = 1.0


def run_workload(name, seed, seconds, trace, corrupt=False, setup_passes=None):
    """One run of workload ``name``: ``(summary, record, recorders)``."""
    from perfbench import inproc

    before = common.reference_loop()
    if name in ("serve-hot", "serve-churn"):
        from perfbench import wire

        summary, record, recorders = wire.run(
            name, seed, seconds, bool(trace), corrupt=corrupt, setup_passes=setup_passes
        )
    else:
        if name == "browse":
            from perfbench.browse import Browse as workload_class
        else:
            from perfbench.explore import ExploreGrid as workload_class
        workload = workload_class(seed)
        try:
            summary, record, recorder = inproc.run(
                workload, seconds, bool(trace), corrupt, setup_passes
            )
            record["inputs"] = workload.inputs()
        finally:
            workload.close()
        recorders = [recorder] if recorder is not None else []
    record.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(bool(trace)),
        environment=common.environment(),
        reference_loop_s={"before": before, "after": common.reference_loop()},
        summary=summary,
    )
    common.write_record(f"{name}-seed{seed}-trace{int(bool(trace))}", record)
    return summary, record, recorders


def unmeasured(name, record):
    """Why a run left the ``parallel`` layer unmeasured, or None.

    explore-grid is the only workload whose batches reach the dispatch
    threshold, so a timed window of it without a sharded dispatch
    measured no ``parallel`` work.
    """
    if name == "explore-grid" and not record["plan"].get("sharded"):
        return "explore-grid made no sharded dispatch, so parallel went unmeasured"
    return None


def selftest() -> int:
    """Exercise every workload briefly and check the benchmark itself.

    Checks that every declared metric is emitted with its unit, that a
    deliberately wrong expected digest is reported as a failed op, that
    traced spans nest (each child interval inside its parent), and that
    explore-grid made sharded dispatches.
    """
    from perfbench import spans

    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            summary, record, recorders = run_workload(
                name, 0, SELFTEST_SECONDS, trace, setup_passes=1
            )
            got = {key: value["unit"] for key, value in summary["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} != declared")
            if summary["failed"] or not summary["correct"]:
                problems.append(f"{name} trace={trace}: {summary['failed']} failed ops")
            gap = unmeasured(name, record)
            if gap:
                problems.append(f"trace={trace}: {gap}")
            for recorder in recorders:
                bad = spans.nesting_violations(recorder.spans)
                if bad or not recorder.spans:
                    problems.append(
                        f"{name}: {len(bad)} of {len(recorder.spans)} spans do not nest"
                    )
        summary, _, _ = run_workload(
            name, 0, SELFTEST_SECONDS, 0, corrupt=True, setup_passes=1
        )
        if summary["correct"] or summary["failed"] < 1:
            problems.append(f"{name}: a wrong expected digest was not reported as failed")
        print(f"selftest {name}: done", file=sys.stderr)
    for problem in problems:
        print(f"selftest FAIL: {problem}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    common.require_sources()
    # Temporary files the program makes (the sharded executor's mmap
    # snapshots) stay inside the checkout; child processes inherit this.
    tmp = common.OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    removed = common.default_knobs()
    if removed:
        print(f"unset for this run: {', '.join(removed)}", file=sys.stderr)
    if args.workload is None and not args.selftest:
        parser.error("--workload is required")
    try:
        return selftest() if args.selftest else run_once(args)
    finally:
        stopped = common.stop_children()
        if stopped:
            print(f"stopped leftover child processes: {'; '.join(stopped)}", file=sys.stderr)


def run_once(args) -> int:
    """Run the workload ``args.workload`` and print its result line."""
    summary, record, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    gap = unmeasured(args.workload, record)
    if gap and args.trace:
        print(f"error: {gap}", file=sys.stderr)
        return 1
    shown = ", ".join(
        f"{key}={value['value']:.4g}{value['unit']}" for key, value in summary["metrics"].items()
    )
    print(f"{args.workload} seed={args.seed}: {shown}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
