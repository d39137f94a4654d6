"""Command-line entry point: regenerate any of the paper's tables/figures.

Usage::

    vix-repro list              # show available experiments and schemes
    vix-repro t1                # Table 1 (stage delays)
    vix-repro f8 --full         # Figure 8 at paper-fidelity run lengths
    vix-repro f8 --jobs auto    # fan simulations out over all CPU cores
    vix-repro f8 --resume       # continue an interrupted sweep
    vix-repro all               # everything (slow)

Experiment ids and their descriptions come from the experiment registry
(:data:`repro.registry.experiments`); allocator/topology/pattern names come
from their registries, so ``list`` always reflects what is actually
pluggable and an unknown name fails with the registry's error listing the
valid choices.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import settings
from repro.experiments import EXPERIMENTS, get_experiment
from repro.registry import experiments as experiment_registry


def _descriptions() -> dict[str, str]:
    """Experiment id -> one-line description, from the registry."""
    return experiment_registry.labels()


def _list_experiments() -> str:
    labels = _descriptions()
    lines = ["available experiments:"]
    for key in sorted(EXPERIMENTS):
        lines.append(f"  {key:<4s} {labels.get(key, '')}")
    lines.append("  all  run every experiment in order")
    return "\n".join(lines)


def _list_schemes() -> str:
    """Every registered scheme, by kind, with aliases."""
    from repro.registry import allocators, patterns, topologies, vc_policies

    from repro.sim.vec import SUPPORTED_ALLOCATORS

    lines = ["registered schemes:"]
    for registry in (allocators, vc_policies, topologies, patterns):
        entries = []
        for info in registry.infos():
            entry = info.name
            if registry is allocators and info.name in SUPPORTED_ALLOCATORS:
                entry += "*"
            if info.aliases:
                entry += f" ({', '.join(info.aliases)})"
            entries.append(entry)
        lines.append(f"  {registry.kind}: {', '.join(entries)}")
    lines.append(
        "  (* has a struct-of-arrays kernel: runs on the vectorized engine by default)"
    )
    return "\n".join(lines)


def _list_engines() -> str:
    """The engine registry: name, aliases, and capability flags."""
    from repro.registry import engines

    lines = [
        "simulation engines (--engine NAME; unnamed = vectorized where it "
        "can run, else gated):"
    ]
    for info in engines.infos():
        aliases = f" ({', '.join(info.aliases)})" if info.aliases else ""
        flags = f" [{', '.join(sorted(info.flags))}]" if info.flags else ""
        lines.append(f"  {info.name + aliases:<28s}{flags}")
        lines.append(f"      {info.label} — {info.provenance}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="vix-repro",
        description="Regenerate the VIX (DAC 2014) evaluation tables and figures.",
        epilog=_list_experiments(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", help="experiment id, 'list', or 'all'")
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-fidelity run lengths (equivalent to REPRO_FULL=1)",
    )
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    parser.add_argument(
        "--jobs",
        metavar="N",
        help="worker processes for simulation fan-out: a count or 'auto' "
        "(one per CPU core); default 1 / $REPRO_JOBS",
    )
    parser.add_argument(
        "--engine",
        metavar="NAME",
        help="simulation engine backend for every fanned-out run: dense, "
        "gated, or vectorized — see 'list' for aliases and capabilities "
        "(equivalent to REPRO_ENGINE; non-vectorizable schemes fall back "
        "to gated).  Default: vectorized wherever the configuration has "
        "an array kernel and numpy is installed, gated otherwise",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (equivalent to REPRO_NO_CACHE=1)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep: skip jobs recorded complete in "
        "the run journal and served by the cache (equivalent to "
        "REPRO_RESUME=1)",
    )
    parser.add_argument(
        "--timeout",
        metavar="SECONDS",
        help="per-job time budget; a hung job's worker is killed and the "
        "job retried (equivalent to REPRO_TIMEOUT)",
    )
    parser.add_argument(
        "--max-retries",
        metavar="N",
        help="retries per job after a crash/timeout/exception before "
        "falling back (default 2; equivalent to REPRO_MAX_RETRIES)",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        help="also write each result as DIR/<experiment>.json",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        nargs="?",
        const="trace.jsonl",
        help="record a flit-level pipeline event trace to PATH "
        "(JSONL; default trace.jsonl)",
    )
    parser.add_argument(
        "--trace-sample",
        metavar="RATE",
        help="fraction of packets traced, in (0, 1] (default 1.0); "
        "sampling is deterministic per packet id",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="append per-run metrics snapshots (allocator matching "
        "telemetry, activity counters) to PATH as JSONL",
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        nargs="?",
        const="",
        default=None,
        help="record per-phase wall-time spans in the [perf_counters] "
        "footer; with DIR, also dump one cProfile .pstats file per "
        "simulation job into DIR",
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="stream run telemetry with a live progress line on stderr; "
        "events are appended as JSONL next to the run journal "
        "(equivalent to REPRO_MONITOR=1)",
    )
    parser.add_argument(
        "--serve",
        metavar="PORT",
        help="serve live run telemetry over HTTP on 127.0.0.1:PORT "
        "(/status JSON, /metrics Prometheus text, /events SSE); "
        "0 picks a free port (equivalent to REPRO_SERVE)",
    )
    parser.add_argument(
        "--trace-export",
        metavar="FORMAT[:PATH]",
        default=None,
        help="export the run's job timeline after each experiment; "
        "currently 'chrome' (Chrome trace-event JSON, loadable in "
        "Perfetto / chrome://tracing), optionally with an output "
        "path like chrome:f8_trace.json (equivalent to "
        "REPRO_TRACE_EXPORT / REPRO_TRACE_EXPORT_OUT)",
    )
    unknown = settings.undeclared()
    if unknown:
        parser.error(
            f"undeclared REPRO_* variable(s) set: {', '.join(unknown)} "
            f"('python -m repro list' prints the declared ones)"
        )
    args = parser.parse_args(argv)

    # Environment, not argument plumbing: every Simulation, runner and spec
    # executor (local or in a worker process) reads its settings at the
    # point of use, so a flag written here configures everything an
    # experiment fans out.  Each flag goes through its row of the settings
    # table, which validates the text exactly as a reader would.
    from repro.registry import engines

    trace_format, _, trace_out = (args.trace_export or "").partition(":")
    composite = {
        "REPRO_PROFILE": args.profile is not None,
        "REPRO_PROFILE_DIR": args.profile,
        "REPRO_TRACE_EXPORT": trace_format,
        "REPRO_TRACE_EXPORT_OUT": trace_out,
    }
    for setting in settings.SETTINGS.values():
        if setting.flag is None:
            continue
        name = setting.name
        if name in composite:
            value = composite[name]
        else:
            value = getattr(args, setting.flag[2:].replace("-", "_"))
        if value is None or value is False or value == "":
            continue
        text = "1" if value is True else value
        try:
            settings.parse(
                name, text, engines.canonical if name == "REPRO_ENGINE" else None
            )
        except ValueError as exc:
            parser.error(f"{setting.flag}: {exc}")
        os.environ[name] = text

    key = args.experiment.strip().lower()
    if key == "list":
        print(_list_experiments())
        print()
        print(_list_schemes())
        print()
        print(_list_engines())
        print()
        print("environment variables (a flag writes its variable):")
        print(settings.table())
        return 0
    targets = sorted(EXPERIMENTS) if key == "all" else [key]
    fast = not settings.get("REPRO_FULL")
    descriptions = _descriptions()
    for target in targets:
        try:
            module = get_experiment(target)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"=== {target.upper()}: {descriptions.get(target, '')} ===")
        run = module.run
        kwargs = {}
        if "fast" in run.__code__.co_varnames:
            kwargs["fast"] = fast
        if "seed" in run.__code__.co_varnames:
            kwargs["seed"] = args.seed
        if args.jobs is not None and "jobs" in run.__code__.co_varnames:
            kwargs["jobs"] = args.jobs
        result = run(**kwargs)
        print(module.report(result))
        if args.json:
            from repro.experiments.export import save_result

            path = save_result(
                f"{args.json}/{target}.json", target, result, fast=fast
            )
            print(f"[result written to {path}]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
