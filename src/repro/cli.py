"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``      — run one scenario under one algorithm, print the report
- ``compare``  — run a scenario under all three algorithms (Table-I style)
- ``table1``   — regenerate Table I (delegates to repro.bench.table1)
- ``figure10`` — regenerate Figure 10 (delegates to repro.bench.figure10)
- ``compile``  — compile an NSL source file and print the disassembly
- ``testcases``— run a scenario and emit distributed test cases
- ``trace``    — summarize, diff or schema-check run artifacts
  (``trace summary``, ``trace diff``, ``trace check-metrics``)

Scenario selectors for run/compare/testcases: ``grid:<side>``,
``line:<k>``, ``flood:<k>``, ``election:<k>``, ``quorum:<k>``
(e.g. ``grid:5`` is the paper's 25-node grid).  ``run`` accepts
``--trace-out events.jsonl`` and ``--metrics-out metrics.json`` to capture
the structured observability artifacts, ``--no-fuse`` to run on the
unfused base ISA, and the network-medium flags (``--medium``,
``--link-loss``, ``--link-jitter-ms``, ``--link-bandwidth``,
``--link-queue``, ``--net-seed``; docs/NETWORK.md).  ``run`` and
``compare`` take ``--workers N`` to run on a worker pool
(docs/DISTRIBUTED.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench.report import render_table1
from .core.config import DEFAULT_CHECKPOINT_EVERY_EVENTS, check_checkpoint_cadence
from .core.resilience import RetryPolicy
from .core.scenario import ALGORITHMS, Scenario, build_engine
from .core.testcase import generate_incrementally
from .obs import TraceEmitter, save_metrics
from .workloads import (
    election_scenario,
    flood_scenario,
    grid_scenario,
    line_scenario,
    quorum_scenario,
)

__all__ = ["main"]


def _parse_scenario(spec: str, sim_seconds: int) -> Scenario:
    kind, _, size_text = spec.partition(":")
    if not size_text:
        raise SystemExit(
            f"bad scenario {spec!r}: use grid:<side>, line:<k>, flood:<k>,"
            " election:<k> or quorum:<k>"
        )
    size = int(size_text)
    if kind == "grid":
        return grid_scenario(size, sim_seconds=sim_seconds)
    if kind == "line":
        return line_scenario(size, sim_seconds=sim_seconds)
    if kind == "flood":
        return flood_scenario(size, rounds=max(1, sim_seconds))
    if kind == "election":
        return election_scenario(size)
    if kind == "quorum":
        return quorum_scenario(size)
    raise SystemExit(f"unknown scenario kind {kind!r}")


#: ``--link-*`` flag dest -> RealisticMedium constructor parameter.
_LINK_FLAGS = {
    "link_loss": "loss",
    "link_jitter_ms": "jitter_ms",
    "link_bandwidth": "bandwidth_cells_per_ms",
    "link_queue": "queue_capacity",
    "net_seed": "seed",
}


def _medium_overrides(args) -> dict:
    """Engine overrides for ``--medium`` and the ``--link-*`` flags.

    Link parameters without an explicit ``--medium`` imply ``realistic``
    (the ideal medium has no links to configure — asking for both is a
    contradiction and fails loudly).  Returns ``{}`` when no medium flag
    was given, so scenario defaults (e.g. quorum's routed medium) stand.
    """
    medium = getattr(args, "medium", None)
    params = {
        param: value
        for dest, param in _LINK_FLAGS.items()
        if (value := getattr(args, dest, None)) is not None
    }
    if medium is None and not params:
        return {}
    if params and medium == "ideal":
        raise SystemExit(
            "--link-* flags configure the realistic medium; they cannot be"
            " combined with --medium ideal"
        )
    return {"medium": medium or "realistic", "medium_params": params}


def _checkpoint_cadence(parse, trigger: str):
    """An argparse type: ``parse`` the text, then refuse a cadence no run
    can keep (``check_checkpoint_cadence``) as a usage error."""

    def convert(text: str):
        value = parse(text)
        try:
            check_checkpoint_cadence(**{trigger: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    # argparse names the type in its "invalid int value: 'x'" message.
    convert.__name__ = parse.__name__
    return convert


def _checkpoint_overrides(args) -> dict:
    """Engine overrides for ``--checkpoint-out`` / ``--checkpoint-every``."""
    checkpoint_out = getattr(args, "checkpoint_out", None)
    if not checkpoint_out:
        return {}
    return dict(
        checkpoint_path=checkpoint_out,
        checkpoint_every_events=args.checkpoint_every,
        checkpoint_every_seconds=args.checkpoint_every_seconds,
    )


def _emit_artifacts(report, trace, args):
    """Write the trace/metrics artifacts a run was asked for (atomic)."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace is not None:
        trace.dump(trace_out)
        print(f"trace written to {trace_out} ({len(trace)} events)")
    if metrics_out is not None:
        save_metrics(report.metrics, metrics_out)
        print(f"metrics written to {metrics_out}")


def _retry_policy(args) -> RetryPolicy:
    """The policy ``run``'s retry flags set (``compare`` has none of them)."""
    if not hasattr(args, "max_retries"):
        return RetryPolicy()
    return RetryPolicy(
        max_retries=args.max_retries,
        allow_partial=args.allow_partial,
        task_timeout_seconds=args.task_timeout,
    )


def _run_report(scenario, algorithm, args, **caps):
    """One run: on a worker pool with ``--workers N``, else sequential."""
    trace = TraceEmitter() if getattr(args, "trace_out", None) else None
    caps.update(_checkpoint_overrides(args))
    caps.update(_medium_overrides(args))
    if getattr(args, "no_fuse", False):
        caps["fuse_ops"] = False
    if getattr(args, "symmetry", False):
        caps["symmetry"] = True
    if getattr(args, "por", False):
        caps["por"] = True
    if args.workers is not None:
        from .core.distributed import DistributedRunner

        report = DistributedRunner(
            scenario,
            algorithm,
            workers=args.workers,
            partition_depth=getattr(args, "partition_depth", None),
            steal=getattr(args, "steal", True),
            trace=trace,
            retry_policy=_retry_policy(args),
            **caps,
        ).run()
    else:
        engine = build_engine(scenario, algorithm, trace=trace, **caps)
        report = engine.run()
    _emit_artifacts(report, trace, args)
    return report


def _resume_report(args):
    """Continue an aborted or killed run from a ``--checkpoint-out`` file."""
    from .core.resilience import CheckpointError, resume_engine

    trace = TraceEmitter() if getattr(args, "trace_out", None) else None
    try:
        engine = resume_engine(
            args.resume, trace=trace, **_checkpoint_overrides(args)
        )
    except CheckpointError as exc:
        raise SystemExit(f"cannot resume: {exc}") from exc
    print(
        f"resumed from {args.resume}"
        f" ({engine.events_executed} events already executed)"
    )
    report = engine.run()
    _emit_artifacts(report, trace, args)
    return report


def _cmd_run(args) -> int:
    if args.resume:
        report = _resume_report(args)
        name = f"resume({args.resume})"
    else:
        if args.scenario is None:
            raise SystemExit("a scenario is required unless --resume is given")
        scenario = _parse_scenario(args.scenario, args.sim_seconds)
        report = _run_report(
            scenario,
            args.algorithm,
            args,
            max_states=args.max_states,
            max_wall_seconds=args.max_wall_seconds,
        )
        name = scenario.name
    print(render_table1([report], f"{name} under {report.algorithm}"))
    print(f"\n{report.summary()}")
    if report.checkpoints_written and args.checkpoint_out:
        print(
            f"checkpoints written: {report.checkpoints_written}"
            f" (latest: {args.checkpoint_out})"
        )
    if args.json:
        from .core.reporting import save_report

        save_report(report, args.json)
        print(f"report written to {args.json}")
    return 0


def _cmd_compare(args) -> int:
    reports = []
    for algorithm in ALGORITHMS:
        scenario = _parse_scenario(args.scenario, args.sim_seconds)
        caps = {}
        if algorithm == "cob":
            caps = dict(
                max_states=args.max_states or 500_000,
                max_wall_seconds=args.max_wall_seconds or 120.0,
            )
        reports.append(_run_report(scenario, algorithm, args, **caps))
    suffix = f" ({args.workers} workers)" if args.workers is not None else ""
    print(render_table1(reports, f"{args.scenario} — algorithm comparison{suffix}"))
    return 0


def _cmd_compile(args) -> int:
    from .lang import compile_source, disassemble

    with open(args.file) as handle:
        source = handle.read()
    program = compile_source(source)
    print(
        f"; {len(program.functions)} functions, {len(program.code)}"
        f" instructions, {program.memory_size} memory cells"
    )
    print(disassemble(program))
    return 0


def _cmd_testcases(args) -> int:
    scenario = _parse_scenario(args.scenario, args.sim_seconds)
    engine = build_engine(scenario, args.algorithm)
    report = engine.run()
    print(
        f"# {scenario.name}: {report.total_states} states,"
        f" {report.group_count} groups, {len(report.error_states)} defects"
    )
    emitted = 0
    for testcase in generate_incrementally(
        engine.mapper, engine.solver, limit=args.limit
    ):
        emitted += 1
        status = "ok" if not testcase.errors() else "DEFECT"
        if not testcase.feasible:
            status = "infeasible"
        inputs = " ".join(
            f"{name}={value}"
            for name, value in sorted(testcase.assignments.items())
        )
        print(f"testcase {emitted:4d} [{status}] {inputs}")
    return 0


def _cmd_trace(args) -> int:
    from .obs import diff_traces, load_trace, validate_metrics, validate_trace
    from .obs.tracetool import render_summary, summarize_trace

    if args.trace_command == "summary":
        events = load_trace(args.trace)
        print(render_summary(summarize_trace(events)))
        problems = validate_trace(events)
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1 if problems else 0
    if args.trace_command == "diff":
        diff = diff_traces(load_trace(args.a), load_trace(args.b))
        print(diff.render())
        return 0 if diff.equal else 1
    if args.trace_command == "check-metrics":
        import json

        with open(args.metrics) as handle:
            data = json.load(handle)
        errors = validate_metrics(data)
        for error in errors:
            print(f"INVALID: {error}", file=sys.stderr)
        if not errors:
            counters = data["counters"]
            print(
                f"metrics OK: {len(counters)} counters,"
                f" {len(data['gauges'])} gauges,"
                f" {len(data['histograms'])} histograms"
                f" ({counters['run.events_executed']} events,"
                f" {counters['states.total']} states)"
            )
        return 1 if errors else 0
    raise SystemExit(f"unknown trace command {args.trace_command!r}")


def _cmd_serve(args) -> int:
    from .service import ServiceLimits, serve_main

    limits = ServiceLimits(
        max_queue=args.max_queue,
        max_active=args.max_active,
        per_client=args.per_client,
        job_timeout_seconds=args.job_timeout,
        max_retries=args.job_retries,
        checkpoint_every_events=args.checkpoint_every,
    )
    serve_main(args.data_dir, host=args.host, port=args.port, limits=limits)
    return 0


_WORKERS_HELP = (
    "split one exploration tree by test depth across N worker processes"
    " (adaptive cut, work-stealing coordinator)"
)


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser.

    Exposed separately from :func:`main` so tooling can introspect the
    real flag surface — ``tools/docs_lint.py`` walks this parser to keep
    README/docs flag mentions honest.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SDE: scalable symbolic execution of distributed systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario")
    run_parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="grid:<side> | line:<k> | flood:<k> (omit with --resume)",
    )
    run_parser.add_argument("--algorithm", choices=ALGORITHMS, default="sds")
    run_parser.add_argument("--sim-seconds", type=int, default=10)
    run_parser.add_argument("--max-states", type=int, default=None)
    run_parser.add_argument("--max-wall-seconds", type=float, default=None)
    run_parser.add_argument(
        "--json", default=None, help="write the full report as JSON"
    )
    run_parser.add_argument(
        "--trace-out",
        default=None,
        help="write the structured event trace as JSONL",
    )
    run_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the metrics snapshot as JSON",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=_WORKERS_HELP,
    )
    run_parser.add_argument(
        "--partition-depth",
        type=int,
        default=None,
        help="fixed frontier cut for --workers, in executed events"
        " (default: adaptive — deepen until the sharing graph fractures)",
    )
    run_parser.add_argument(
        "--steal",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="work-stealing for --workers (--no-steal disables)",
    )
    run_parser.add_argument(
        "--checkpoint-out",
        default=None,
        help="write engine checkpoints to this path during the run",
    )
    run_parser.add_argument(
        "--checkpoint-every",
        type=_checkpoint_cadence(int, "every_events"),
        default=DEFAULT_CHECKPOINT_EVERY_EVENTS,
        help="checkpoint every N executed events (default %(default)s with"
        " --checkpoint-out)",
    )
    run_parser.add_argument(
        "--checkpoint-every-seconds",
        type=_checkpoint_cadence(float, "every_seconds"),
        default=None,
        help="also checkpoint every T wall-clock seconds",
    )
    run_parser.add_argument(
        "--resume",
        default=None,
        help="continue an aborted/killed run from a checkpoint file",
    )
    run_parser.add_argument(
        "--max-retries",
        type=int,
        default=RetryPolicy.max_retries,
        help="retries per failed worker partition (default %(default)s)",
    )
    run_parser.add_argument(
        "--allow-partial",
        action="store_true",
        default=False,
        help="report partitions that exhaust retries instead of aborting",
    )
    run_parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-partition wall-clock budget in seconds (workers only)",
    )
    run_parser.add_argument(
        "--no-fuse",
        action="store_true",
        default=False,
        help="disable opcode fusion (superinstructions)",
    )
    run_parser.add_argument(
        "--symmetry",
        action="store_true",
        default=False,
        help="symmetry reduction: park states whose canonical form under"
        " the topology's node automorphisms is already explored"
        " (docs/REDUCTION.md)",
    )
    run_parser.add_argument(
        "--por",
        action="store_true",
        default=False,
        help="partial-order reduction: sleep mapper twins whose exchange"
        " with an independent delivery commutes (docs/REDUCTION.md)",
    )
    from .net.medium import available_media

    run_parser.add_argument(
        "--medium",
        choices=available_media(),
        default=None,
        help="network medium (default: the scenario's choice, usually"
        " 'ideal'; docs/NETWORK.md)",
    )
    run_parser.add_argument(
        "--link-loss",
        type=float,
        default=None,
        help="per-hop packet loss probability in [0,1) (implies"
        " --medium realistic)",
    )
    run_parser.add_argument(
        "--link-jitter-ms",
        type=int,
        default=None,
        help="per-hop uniform jitter bound in ms (implies --medium realistic)",
    )
    run_parser.add_argument(
        "--link-bandwidth",
        type=int,
        default=None,
        help="link bandwidth in payload cells per ms; 0 = infinite"
        " (implies --medium realistic)",
    )
    run_parser.add_argument(
        "--link-queue",
        type=int,
        default=None,
        help="per-link egress queue capacity in packets; beyond it the"
        " tail is dropped (implies --medium realistic)",
    )
    run_parser.add_argument(
        "--net-seed",
        type=int,
        default=None,
        help="seed for the medium's loss/jitter draws (reports quote it;"
        " replays are bit-identical under the same seed)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="run all three algorithms on one scenario"
    )
    compare_parser.add_argument("scenario")
    compare_parser.add_argument("--sim-seconds", type=int, default=10)
    compare_parser.add_argument("--max-states", type=int, default=None)
    compare_parser.add_argument("--max-wall-seconds", type=float, default=None)
    compare_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=_WORKERS_HELP,
    )
    compare_parser.set_defaults(handler=_cmd_compare)

    table1_parser = sub.add_parser("table1", help="regenerate Table I")
    table1_parser.add_argument("nodes", nargs="?", type=int, default=100)
    table1_parser.set_defaults(
        handler=lambda args: __import__(
            "repro.bench.table1", fromlist=["main"]
        ).main([str(args.nodes)])
    )

    figure10_parser = sub.add_parser("figure10", help="regenerate Figure 10")
    figure10_parser.add_argument("nodes", nargs="*", type=int)
    figure10_parser.set_defaults(
        handler=lambda args: __import__(
            "repro.bench.figure10", fromlist=["main"]
        ).main([str(n) for n in args.nodes])
    )

    compile_parser = sub.add_parser("compile", help="compile + disassemble NSL")
    compile_parser.add_argument("file")
    compile_parser.set_defaults(handler=_cmd_compile)

    testcases_parser = sub.add_parser(
        "testcases", help="emit distributed test cases for a scenario"
    )
    testcases_parser.add_argument("scenario")
    testcases_parser.add_argument("--algorithm", choices=ALGORITHMS, default="sds")
    testcases_parser.add_argument("--sim-seconds", type=int, default=5)
    testcases_parser.add_argument("--limit", type=int, default=50)
    testcases_parser.set_defaults(handler=_cmd_testcases)

    serve_parser = sub.add_parser(
        "serve", help="run the SDE job service (HTTP API, docs/SERVICE.md)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--data-dir",
        default="sde-service-data",
        help="run store root; parked jobs in it resume on boot",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="queued submissions held before returning HTTP 429",
    )
    serve_parser.add_argument(
        "--max-active",
        type=int,
        default=2,
        help="jobs executing concurrently (one worker subprocess each)",
    )
    serve_parser.add_argument(
        "--per-client",
        type=int,
        default=8,
        help="live (queued+running) jobs allowed per X-Client-Id",
    )
    serve_parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall budget in seconds across all attempts"
        " (exceeding it is terminal, not retried)",
    )
    serve_parser.add_argument(
        "--job-retries",
        type=int,
        default=2,
        help="retries after a crashed/raising attempt (resumes from the"
        " job's checkpoint)",
    )
    serve_parser.add_argument(
        "--checkpoint-every",
        type=_checkpoint_cadence(int, "every_events"),
        default=DEFAULT_CHECKPOINT_EVERY_EVENTS,
        help="worker checkpoint cadence in executed events (default"
        " %(default)s; what drain and retry resume from, so a job shorter"
        " than this restarts fresh)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    trace_parser = sub.add_parser(
        "trace", help="inspect trace/metrics artifacts"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    summary_parser = trace_sub.add_parser(
        "summary", help="summarize + schema-check one trace"
    )
    summary_parser.add_argument("trace", help="JSONL trace from --trace-out")
    diff_parser = trace_sub.add_parser(
        "diff", help="compare two traces by canonical event multiset"
    )
    diff_parser.add_argument("a")
    diff_parser.add_argument("b")
    check_parser = trace_sub.add_parser(
        "check-metrics", help="schema-check a metrics snapshot"
    )
    check_parser.add_argument("metrics", help="JSON file from --metrics-out")
    trace_parser.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
