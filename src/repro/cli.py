"""Command-line interface: generate previews for datasets from the shell.

Examples
--------
Preview a built-in Freebase-like domain::

    repro-preview --domain film --tables 5 --attrs 10

Tight/diverse previews::

    repro-preview --domain music --tables 5 --attrs 10 --tight 2
    repro-preview --domain music --tables 5 --attrs 10 --diverse 4

Preview a dataset file (TSV/JSONL in the repro triple format)::

    repro-preview --file mydata.tsv --tables 4 --attrs 8

Force a registered algorithm, or sweep the attribute budget through the
cache-aware engine (one line per point, shared pruning state)::

    repro-preview --domain film --tables 3 --attrs 9 --algorithm brute-force
    repro-preview --domain music --tables 5 --tight 2 --sweep-n 6:14

Shard the qualifying-subset evaluation across worker processes (results
are identical at any job count; 0 means all CPU cores)::

    repro-preview --domain music --tables 5 --tight 2 --sweep-n 6:14 --jobs 4

Serve preview tables to concurrent clients over the JSON-line protocol
(see ``docs/serving.md``)::

    repro-preview serve --datasets film,music --port 9400 --jobs 2

Run the replicated tier (``docs/replication.md``): one writer, any
number of read replicas subscribed to it, and a router in front::

    repro-preview serve --role writer --datasets film --port 9400
    repro-preview serve --role replica --datasets film --port 9401 \\
        --upstream 127.0.0.1:9400
    repro-preview serve --role router --datasets film --port 9500 \\
        --writer 127.0.0.1:9400 --replicas 127.0.0.1:9401

Record a workload trace and differentially verify it across the serial,
incremental, sharded, serve and replicated execution paths
(``docs/workloads.md``)::

    repro-preview workload record --domain film --ops 200 --out trace.jsonl
    repro-preview workload replay trace.jsonl --diff --jobs 2

Build a persistent binary store once, then cold-open it everywhere a
graph is accepted — O(header) instead of regeneration
(``docs/disk-store.md``)::

    repro-preview dataset build --domain film --out film.rgs
    repro-preview dataset info film.rgs --verify
    repro-preview --file film.rgs --tables 3 --attrs 9
    repro-preview serve --store film.rgs --port 9400
    repro-preview workload replay trace.jsonl --diff --store film.rgs
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional

from . import plan
from .core.registry import available_algorithms
from .core.render import render_preview
from .datasets.freebase_like import DOMAINS, generate_domain, load_domain
from .datasets.loader import load_domain_file
from .engine import PreviewEngine, PreviewQuery
from .exceptions import ReproError


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-preview`` query argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-preview",
        description="Generate preview tables for an entity graph.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--domain",
        choices=DOMAINS,
        help="built-in Freebase-like domain to preview",
    )
    source.add_argument(
        "--file",
        help=(
            "dataset file (.tsv/.jsonl in the repro triple format, or a "
            ".rgs binary store built by `dataset build`)"
        ),
    )
    parser.add_argument("--tables", "-k", type=int, default=3, help="preview tables (k)")
    parser.add_argument(
        "--attrs", "-n", type=int, default=9, help="total non-key attributes (n)"
    )
    distance = parser.add_mutually_exclusive_group()
    distance.add_argument(
        "--tight", type=int, metavar="D", help="tight preview: pairwise distance <= D"
    )
    distance.add_argument(
        "--diverse", type=int, metavar="D", help="diverse preview: pairwise distance >= D"
    )
    parser.add_argument(
        "--key-scorer",
        choices=("coverage", "random_walk"),
        default="coverage",
        help="key attribute scoring measure",
    )
    parser.add_argument(
        "--nonkey-scorer",
        choices=("coverage", "entropy"),
        default="coverage",
        help="non-key attribute scoring measure",
    )
    parser.add_argument(
        "--algorithm",
        choices=available_algorithms(),
        default="auto",
        help="discovery algorithm (auto resolves through the registry)",
    )
    parser.add_argument(
        "--sweep-n",
        metavar="LO:HI",
        help=(
            "sweep the attribute budget n from LO to HI through the "
            "cache-aware engine and print one summary line per point"
        ),
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for sharded subset evaluation (default 1 = "
            "serial, 0 = all CPU cores); results are identical at any "
            "job count"
        ),
    )
    parser.add_argument(
        "--plan",
        choices=plan.PLAN_MODES,
        default=None,
        help=(
            "execution planner mode (default: the REPRO_PLAN environment "
            "knob, i.e. auto); results are identical in every mode"
        ),
    )
    parser.add_argument(
        "--tuples", type=int, default=4, help="sampled tuples shown per table"
    )
    parser.add_argument(
        "--scale", type=int, default=1000, help="domain downscale factor (built-ins)"
    )
    parser.add_argument("--seed", type=int, default=0, help="generation seed")
    return parser


def _parse_sweep(spec: str) -> range:
    """``"LO:HI"`` -> inclusive range of attribute budgets."""
    try:
        lo_text, hi_text = spec.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ReproError(f"--sweep-n expects LO:HI, got {spec!r}") from None
    if lo > hi:
        raise ReproError(f"--sweep-n range is empty: {spec!r}")
    return range(lo, hi + 1)


def _run_sweep(engine: PreviewEngine, args: argparse.Namespace, d, mode) -> int:
    budgets = _parse_sweep(args.sweep_n)
    for n in budgets:
        if n < args.tables:
            print(f"k={args.tables}, n={n}: invalid (n must be at least k)")
    queries = [
        PreviewQuery(k=args.tables, n=n, d=d, mode=mode, algorithm=args.algorithm)
        for n in budgets
        if n >= args.tables
    ]
    results = engine.sweep(queries, skip_infeasible=True, jobs=args.jobs)
    for query, result in zip(queries, results):
        if result is None:
            print(f"{query.describe()}: infeasible")
            continue
        keys = ", ".join(str(key) for key in result.preview.keys())
        print(
            f"{query.describe()}: score={result.score:.4g} "
            f"algorithm={result.algorithm} keys=[{keys}]"
        )
    info = engine.cache_info()
    print(
        f"# engine: {info['misses']} computed, {info['hits']} cache hits, "
        f"{info['profile_groups']} shared pruning group(s)"
    )
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro-preview serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-preview serve",
        description=(
            "Serve preview tables to concurrent clients over the "
            "JSON-line protocol (docs/serving.md)."
        ),
    )
    parser.add_argument(
        "--datasets",
        default="film",
        metavar="NAMES",
        help=(
            "comma-separated built-in domains to host (each gets a "
            f"private copy); available: {', '.join(DOMAINS)}"
        ),
    )
    parser.add_argument(
        "--store",
        metavar="PATHS",
        help=(
            "comma-separated .rgs binary store files to host instead of "
            "--datasets; each cold-opens in O(header) and serves under "
            "its stored graph name (docs/disk-store.md)"
        ),
    )
    parser.add_argument(
        "--role",
        choices=("standalone", "writer", "replica", "router"),
        default="standalone",
        help=(
            "service role (docs/replication.md): standalone serves reads "
            "and writes itself; writer additionally streams mutation "
            "deltas to subscribed replicas; replica follows --upstream "
            "and serves reads only; router owns no engines and forwards "
            "to --writer / --replicas"
        ),
    )
    parser.add_argument(
        "--upstream",
        metavar="HOST:PORT",
        help="(replica) the writer service to subscribe to",
    )
    parser.add_argument(
        "--writer",
        metavar="HOST:PORT",
        help="(router) the writer service mutations are forwarded to",
    )
    parser.add_argument(
        "--replicas",
        metavar="HOST:PORT,...",
        help=(
            "(router) comma-separated replica services reads are "
            "consistent-hashed across (empty: reads fall back to the "
            "writer)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=9400, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes per dataset for sharded subset evaluation "
            "(default 1 = serial, 0 = all CPU cores); one executor stays "
            "alive across requests"
        ),
    )
    parser.add_argument(
        "--key-scorer",
        choices=("coverage", "random_walk"),
        default="coverage",
        help="key attribute scoring measure",
    )
    parser.add_argument(
        "--nonkey-scorer",
        choices=("coverage", "entropy"),
        default="coverage",
        help="non-key attribute scoring measure",
    )
    parser.add_argument(
        "--scale", type=int, default=1000, help="domain downscale factor"
    )
    parser.add_argument("--seed", type=int, default=0, help="generation seed")
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="admission control: reject requests beyond N in flight",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request timeout; expired requests answer a timeout error",
    )
    return parser


def _parse_address(text: str, flag: str) -> tuple:
    """``"HOST:PORT"`` -> ``(host, port)`` with CLI-grade errors."""
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(f"{flag} expects HOST:PORT, got {text!r}") from None
    if not host or not (0 < port < 65536):
        raise ReproError(f"{flag} expects HOST:PORT, got {text!r}")
    return host, port


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-preview serve``."""
    import asyncio

    from .serve import EngineHost, PreviewService

    args = build_serve_parser().parse_args(argv)
    try:
        store_paths = [
            text.strip() for text in (args.store or "").split(",") if text.strip()
        ]
        graphs = {}
        if store_paths:
            if args.role == "router":
                raise ReproError(
                    "--store does not apply to --role router (a router owns "
                    "no engines; point --writer/--replicas at store-backed "
                    "services instead)"
                )
            from .store import open_store

            for path in store_paths:
                # O(header) cold open: the graph materializes from the
                # mapped sections, fingerprint-verified, instead of being
                # regenerated from the domain profiles.
                with open_store(path) as store_file:
                    graph = store_file.entity_graph()
                if graph.name in graphs:
                    raise ReproError(
                        f"duplicate stored graph name {graph.name!r} "
                        f"across --store files"
                    )
                graphs[graph.name] = graph
            names = list(graphs)
        else:
            names = [name.strip() for name in args.datasets.split(",") if name.strip()]
            if not names:
                raise ReproError("--datasets must name at least one domain")
            for name in names:
                if name not in DOMAINS:
                    raise ReproError(
                        f"unknown domain {name!r}; available: {', '.join(DOMAINS)}"
                    )
        if args.role == "router":
            from .replicate import RouterService

            if not args.writer:
                raise ReproError("--role router requires --writer HOST:PORT")
            replicas = [
                _parse_address(text.strip(), "--replicas")
                for text in (args.replicas or "").split(",")
                if text.strip()
            ]
            service = RouterService(
                _parse_address(args.writer, "--writer"),
                replicas,
                names,
                max_pending=args.max_pending,
                request_timeout=args.timeout,
            )
        else:
            host_class = EngineHost
            if args.role == "writer":
                from .replicate import WriterHost

                host_class = WriterHost
            elif args.role == "replica":
                from .replicate import ReplicaHost

                host_class = ReplicaHost
            hosts = {}
            for name in names:
                # generate_domain (not the lru-cached load_domain): served
                # graphs accept mutations and must be private copies.  A
                # store-opened graph is already private to this process.
                graph = graphs.get(name) or generate_domain(
                    name, scale=args.scale, seed=args.seed
                )
                hosts[name] = host_class(
                    name,
                    graph,
                    key_scorer=args.key_scorer,
                    nonkey_scorer=args.nonkey_scorer,
                    jobs=args.jobs,
                )
            service_kwargs = dict(
                max_pending=args.max_pending,
                request_timeout=args.timeout,
            )
            if args.role == "writer":
                from .replicate import WriterService

                service = WriterService(hosts, **service_kwargs)
            elif args.role == "replica":
                from .replicate import ReplicaService

                if not args.upstream:
                    raise ReproError("--role replica requires --upstream HOST:PORT")
                service = ReplicaService(
                    hosts,
                    upstream=_parse_address(args.upstream, "--upstream"),
                    **service_kwargs,
                )
            else:
                service = PreviewService(hosts, **service_kwargs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    async def run() -> None:
        await service.start(args.host, args.port)
        bound_host, bound_port = service.address
        print(
            f"serving {', '.join(sorted(names))} on {bound_host}:{bound_port} "
            f"(role={args.role}, jobs={args.jobs}, "
            f"max_pending={args.max_pending}, timeout={args.timeout:g}s)",
            flush=True,
        )
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    except OSError as exc:
        # Bind failures (port in use, privileged port, bad address)
        # follow the same error convention as every other CLI path.
        print(f"error: cannot serve on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    return 0


def build_workload_parser() -> argparse.ArgumentParser:
    """The ``repro-preview workload`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-preview workload",
        description=(
            "Generate, record, replay and differentially verify workload "
            "traces (docs/workloads.md)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_generation_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--domain", choices=DOMAINS, default="film",
            help="built-in domain the trace runs against",
        )
        sub.add_argument(
            "--scale", type=int, default=1000, help="domain downscale factor"
        )
        sub.add_argument("--seed", type=int, default=0, help="generation seed")
        sub.add_argument(
            "--ops", type=int, default=100, help="operations to generate"
        )
        sub.add_argument(
            "--scenario", default="steady", metavar="NAME",
            help="scenario preset (see `repro.workload.SCENARIOS`)",
        )

    def add_jobs_arg(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--jobs", "-j", type=int, default=2, metavar="N",
            help="worker processes for the sharded path (default 2)",
        )

    def add_store_arg(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store", metavar="STORE.rgs",
            help=(
                "open the starting graph from a .rgs binary store "
                "(fingerprint-checked against the trace header) instead "
                "of regenerating the domain"
            ),
        )

    record = commands.add_parser(
        "record",
        help="generate a scenario, record payload digests, write a JSONL trace",
    )
    add_generation_args(record)
    record.add_argument(
        "--out", "-o", required=True, metavar="TRACE.jsonl",
        help="where to write the recorded trace",
    )

    replay = commands.add_parser(
        "replay", help="replay a recorded trace through one or all paths"
    )
    replay.add_argument("trace", metavar="TRACE.jsonl", help="trace file to replay")
    replay.add_argument(
        "--path", default="incremental", metavar="PATH",
        help=(
            "execution path: serial, incremental, sharded, serve, "
            "replicated (ignored with --diff, which runs all of them)"
        ),
    )
    replay.add_argument(
        "--diff", action="store_true",
        help="replay through every path and diff the payloads op by op",
    )
    add_jobs_arg(replay)
    add_store_arg(replay)

    diff = commands.add_parser(
        "diff", help="shorthand for `replay --diff` (all paths, differential)"
    )
    diff.add_argument("trace", metavar="TRACE.jsonl", help="trace file to diff")
    add_jobs_arg(diff)
    add_store_arg(diff)

    run = commands.add_parser(
        "run", help="generate a scenario and run the conformance oracle on it"
    )
    add_generation_args(run)
    add_jobs_arg(run)
    run.add_argument(
        "--paths",
        default=",".join(
            ("serial", "incremental", "sharded", "serve", "replicated")
        ),
        metavar="P1,P2,...", help="comma-separated replay paths to compare",
    )
    return parser


def _workload_diff(trace, jobs: int, paths=None, store=None) -> int:
    from .workload import REPLAY_PATHS, format_report, run_conformance

    report = run_conformance(
        trace, paths=paths or REPLAY_PATHS, jobs=jobs, store=store
    )
    print(format_report(report))
    ok = report["identical"] and report["recorded_digests"]["ok"]
    return 0 if ok else 1


def workload_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-preview workload``."""
    from .workload import (
        WorkloadTrace,
        generate_trace,
        record_digests,
        replay_trace,
    )

    args = build_workload_parser().parse_args(argv)
    try:
        if args.command == "record":
            trace = generate_trace(
                domain=args.domain, scale=args.scale, seed=args.seed,
                ops=args.ops, scenario=args.scenario,
            )
            trace = record_digests(trace)
            trace.dump(args.out)
            print(
                f"recorded {len(trace.ops)} ops ({trace.read_count} reads, "
                f"{trace.mutation_count} mutations) on {trace.domain} "
                f"-> {args.out}"
            )
            return 0
        if args.command == "run":
            trace = generate_trace(
                domain=args.domain, scale=args.scale, seed=args.seed,
                ops=args.ops, scenario=args.scenario,
            )
            paths = [name.strip() for name in args.paths.split(",") if name.strip()]
            return _workload_diff(trace, args.jobs, paths=paths)
        trace = WorkloadTrace.load(args.trace)
        if args.command == "diff" or args.diff:
            return _workload_diff(trace, args.jobs, store=args.store)
        result = replay_trace(
            trace, path=args.path, jobs=args.jobs, verify_digests=True,
            store=args.store,
        )
        print(
            f"{result.path}: {result.ops} ops in {result.seconds:.3f}s "
            f"({result.ops_per_second:.2f} ops/s, {result.reads} reads, "
            f"{result.mutations} mutations)"
        )
        # Checked unconditionally: a trace that carries digests on only
        # some ops (hand-edited, merge-damaged) must still fail loudly
        # when any of those digests is not reproduced.
        if result.digest_mismatches:
            first = result.digest_mismatches[0]
            print(
                f"error: {len(result.digest_mismatches)} recorded digest(s) "
                f"not reproduced (first at op #{first[0]})",
                file=sys.stderr,
            )
            return 1
        if trace.has_digests():
            print("recorded digests: reproduced byte-for-byte")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_dataset_parser() -> argparse.ArgumentParser:
    """The ``repro-preview dataset`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-preview dataset",
        description=(
            "Build and inspect persistent binary graph stores "
            "(docs/disk-store.md)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser(
        "build",
        help="serialize a domain or dataset file into a .rgs binary store",
    )
    source = build.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--domain", choices=DOMAINS, help="built-in domain to store"
    )
    source.add_argument(
        "--file", help="dataset file to store (.tsv/.jsonl)"
    )
    build.add_argument(
        "--scale", type=int, default=1000, help="domain downscale factor"
    )
    build.add_argument("--seed", type=int, default=0, help="generation seed")
    build.add_argument(
        "--out", "-o", required=True, metavar="STORE.rgs",
        help="where to write the store file",
    )

    info = commands.add_parser(
        "info",
        help="print a store's header summary (O(header), JSON)",
    )
    info.add_argument("path", metavar="STORE.rgs", help="store file to inspect")
    info.add_argument(
        "--verify", action="store_true",
        help=(
            "additionally materialize the graph and check it against the "
            "header fingerprint (O(data))"
        ),
    )
    return parser


def dataset_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-preview dataset``."""
    import json

    from .store import STORE_EXTENSION, build_store, open_store

    args = build_dataset_parser().parse_args(argv)
    try:
        if args.command == "build":
            if not args.out.endswith(STORE_EXTENSION):
                raise ReproError(
                    f"--out must end with {STORE_EXTENSION}, got {args.out!r}"
                )
            if args.domain:
                graph = generate_domain(
                    args.domain, scale=args.scale, seed=args.seed
                )
            else:
                graph = load_domain_file(args.file, name=Path(args.file).stem)
            total = build_store(graph, args.out)
            # The header already holds the fingerprint build_store computed.
            with open_store(args.out) as store_file:
                fingerprint = store_file.fingerprint
            print(
                f"stored {graph.name}: {total} bytes, "
                f"fingerprint {fingerprint} -> {args.out}"
            )
            return 0
        with open_store(args.path) as store_file:
            summary = store_file.describe()
            if args.verify:
                store_file.entity_graph(verify=True)
                summary["verified"] = True
            print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def lint_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-preview lint``."""
    from .lint import main as run_lint

    return run_lint(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-preview``: dispatch subcommands, run queries."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "workload":
        return workload_main(argv[1:])
    if argv and argv[0] == "dataset":
        return dataset_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.domain:
            graph = load_domain(args.domain, scale=args.scale, seed=args.seed)
        else:
            graph = load_domain_file(args.file)
        d = None
        mode = "tight"
        if args.tight is not None:
            d, mode = args.tight, "tight"
        elif args.diverse is not None:
            d, mode = args.diverse, "diverse"
        engine = PreviewEngine(
            graph,
            key_scorer=args.key_scorer,
            nonkey_scorer=args.nonkey_scorer,
        )
        forced = (
            plan.use_mode(args.plan) if args.plan is not None else nullcontext()
        )
        with forced:
            if args.sweep_n:
                return _run_sweep(engine, args, d, mode)
            result = engine.query(
                k=args.tables,
                n=args.attrs,
                d=d,
                mode=mode,
                algorithm=args.algorithm,
                jobs=args.jobs,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = (
        f"preview: k={args.tables} n={args.attrs} "
        f"key={args.key_scorer} nonkey={args.nonkey_scorer} "
        f"algorithm={result.algorithm} score={result.score:.4g}"
    )
    print(header)
    print("=" * len(header))
    print(render_preview(result.preview, graph, sample_size=args.tuples, seed=args.seed))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
