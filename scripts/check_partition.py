#!/usr/bin/env python
"""CI gates for the chiplet-partitioned engine (PR 9; vectorized PR 10)
and for the default engine (PR 17).

Four independent checks, all run by default:

* ``--equivalence`` — the golden-output gate.  The full f8 and t1
  reports are generated twice: once on the monolithic dense engine and
  once with ``REPRO_ENGINE=partitioned`` and a ``1x1`` partition with
  zero-latency links (the degenerate decomposition: one domain owning
  the whole network).  The two reports must be byte-identical modulo
  the wall-clock ``[perf_counters]`` footer — the partition machinery
  (domain build, link plumbing, per-domain injector paths, quiescence
  reduction) may not change one reported number.

* ``--invariants`` — the boundary-correctness smoke.  A 2x2-partitioned
  8x8 mesh runs with the flit-conservation and credit-accounting
  checkers executing every few cycles through the engine's ``on_cycle``
  hook, plus once at the end.  Any flit lost/duplicated at a cut, or
  any credit loop that does not still mirror its destination buffer
  exactly, fails at the first bad cycle.  A second pass runs the same
  smoke on **vectorized domains** with an asymmetric credit latency,
  and a third runs them at the chiplet benchmark's operating point
  (CMesh, saturated sources, no drain; both skipped without numpy).

* ``--vectorized`` — the SoA-domain gates (skipped without numpy):
  the f12 report (all of whose allocators have an SoA formulation)
  on ``REPRO_ENGINE=vectorized`` must be byte-identical to the
  1x1-partitioned ``REPRO_DOMAIN_ENGINE=vectorized`` report, and to
  the same partition's with no domain engine named;
  in-process, a 2x2 partition with vectorized domains must match gated
  domains on every supported allocator and on a saturated CMesh (the
  chiplet benchmark's operating point), and workers=2 runs must match
  serial.

* ``--engines`` — the default-engine golden-output gate.  The f8, f9
  (the augmenting-path unfairness figure) and t1 reports with no engine
  named — vectorized wherever the SoA kernel can run, gated elsewhere —
  must be byte-identical to the ``REPRO_ENGINE=dense`` reference loop's,
  modulo the ``[perf_counters]`` footer.

The checks run the simulations in subprocess-free, cache-free process
state where possible; the report comparisons go through the real CLI
in subprocesses so they cover the whole stack.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")

#: Wall-clock lines excluded from the report comparison.
VOLATILE_MARKERS = ("[perf_counters]",)


def _report(experiment: str, extra_env: dict[str, str]) -> list[str]:
    """One experiment report via the real CLI, volatile lines removed.

    Every ``REPRO_*`` variable is taken from ``extra_env`` only: a side
    that names no engine (or fidelity, or partition) is the built-in
    default, whatever the caller exported.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_NO_CACHE"] = "1"
    env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", experiment, "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"error: `repro {experiment}` with {extra_env} exited "
            f"{proc.returncode}:\n{proc.stderr}"
        )
    return [
        line
        for line in proc.stdout.splitlines()
        if not any(marker in line for marker in VOLATILE_MARKERS)
    ]


def _reports_match(
    tag: str,
    experiment: str,
    reference: tuple[str, dict[str, str]],
    *others: tuple[str, dict[str, str]],
) -> bool:
    """``experiment``'s report under the reference ``(label, environment)``
    side against each of the other sides (the reference runs once)."""

    def report(side: tuple[str, dict[str, str]]) -> list[str]:
        print(f"[{tag}] {experiment}: {side[0]} ...", flush=True)
        return _report(experiment, side[1])

    ref = report(reference)
    ok = True
    for other in others:
        new = report(other)
        if ref == new:
            print(f"[{tag}] {experiment}: OK ({len(ref)} lines identical)")
            continue
        ok = False
        print(f"[{tag}] {experiment}: REPORTS DIFFER")
        for i, (a, b) in enumerate(zip(ref, new)):
            if a != b:
                print(f"  line {i + 1}:")
                print(f"    {reference[0]}: {a}")
                print(f"    {other[0]}: {b}")
                break
        if len(ref) != len(new):
            print(f"  line counts differ: {reference[0]} {len(ref)}, {other[0]} {len(new)}")
    return ok


DENSE = ("monolithic dense", {"REPRO_ENGINE": "dense"})
#: The degenerate decomposition: one domain owning the whole network.
ONE_BY_ONE = {
    "REPRO_ENGINE": "partitioned",
    "REPRO_PARTITION": "1x1",
    "REPRO_LINK_LATENCY": "0",
}


def check_equivalence(experiments: tuple[str, ...] = ("f8", "t1")) -> bool:
    """1x1-partition-zero-latency reports == monolithic dense reports."""
    # Object domains: --vectorized covers the kernel's side.
    part = ("partitioned 1x1", {**ONE_BY_ONE, "REPRO_DOMAIN_ENGINE": "gated"})
    ok = True
    for experiment in experiments:
        ok &= _reports_match("equivalence", experiment, DENSE, part)
    return ok


def check_engines(experiments: tuple[str, ...] = ("f8", "f9", "t1")) -> bool:
    """Default-engine reports == monolithic dense reports."""
    ok = True
    for experiment in experiments:
        ok &= _reports_match("engines", experiment, DENSE, ("default engine", {}))
    return ok


def _have_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _invariant_run(
    partition_kwargs: dict,
    label: str,
    *,
    topology: str = "mesh",
    injection_rate: float = 0.08,
    windows: tuple[int, int, int] = (300, 900, 1200),
) -> bool:
    from repro.network.config import NetworkConfig, RouterConfig
    from repro.network.links import PartitionConfig
    from repro.sim.partition import PartitionedSimulation, check_invariants

    cfg = NetworkConfig(
        topology=topology,
        num_terminals=64,
        router=RouterConfig(num_vcs=6, buffer_depth=5, allocator="vix",
                            virtual_inputs=2, vc_policy="vix_dimension"),
    )
    sim = PartitionedSimulation(
        cfg,
        partition=PartitionConfig(dims=(2, 2), **partition_kwargs),
        injection_rate=injection_rate,
        seed=1,
    )
    checked = 0

    def hook(s):
        nonlocal checked
        if s.cycle % 5 == 0:
            check_invariants(s)
            checked += 1

    sim.on_cycle = hook
    print(f"[invariants] {label}: 2x2-partitioned 64-terminal {topology}, "
          "checking every 5 cycles ...", flush=True)
    warmup, measure, drain_limit = windows
    result = sim.run(warmup=warmup, measure=measure, drain_limit=drain_limit)
    check_invariants(sim)
    crossed = result.counters.get("interchip_flits", 0)
    print(f"[invariants] {label}: OK: {checked} mid-run checks, "
          f"{result.packets_ejected} packets ejected, "
          f"{crossed} inter-chip flit crossings, drained={result.drained}")
    if crossed == 0:
        print(f"[invariants] {label}: FAIL: no flit ever crossed a cut link "
              "(the smoke proved nothing)")
        return False
    return result.packets_ejected > 0


def check_invariants() -> bool:
    """2x2-partitioned 8x8 mesh under live invariant checking."""
    sys.path.insert(0, SRC)
    ok = _invariant_run(
        dict(link_latency=4, link_width=2, domain_engine="gated"), "gated"
    )
    if _have_numpy():
        # Asymmetric credit return exercises the separate credit-latency
        # path through the array-side boundary machinery.
        ok &= _invariant_run(
            dict(link_latency=4, link_width=2, link_credit_latency=1,
                 domain_engine="vectorized"),
            "vectorized+asym-credit",
        )
        ok &= _invariant_run(
            dict(link_latency=4, domain_engine="vectorized"),
            "vectorized+saturated-cmesh",
            topology="cmesh",
            injection_rate=1.0,
            windows=(100, 300, 0),
        )
    else:
        print("[invariants] vectorized pass skipped (no numpy)")
    return ok


def check_vectorized() -> bool:
    """Vectorized-domain gates: monolith identity + gated equivalence."""
    if not _have_numpy():
        print("[vectorized] skipped (no numpy)")
        return True
    sys.path.insert(0, SRC)
    ok = True
    # CLI-level golden gate: monolithic vectorized vs 1x1 vec partition.
    # f12 (not f8): every f12 allocator has an SoA formulation, so the
    # strict fail-loud domain-engine contract never trips.
    # The domain engine nobody names is worked out: same report body.
    ok &= _reports_match(
        "vectorized",
        "f12",
        ("monolithic vectorized", {"REPRO_ENGINE": "vectorized"}),
        (
            "partitioned 1x1 vectorized domains",
            {**ONE_BY_ONE, "REPRO_DOMAIN_ENGINE": "vectorized"},
        ),
        ("partitioned 1x1 unnamed domains", ONE_BY_ONE),
    )
    # In-process: 2x2 vectorized domains == gated domains, per allocator,
    # plus worker-count invariance.
    import dataclasses

    from repro.network.config import NetworkConfig, RouterConfig
    from repro.network.links import PartitionConfig
    from repro.sim.partition import PartitionedSimulation
    from repro.sim.vec import SUPPORTED_ALLOCATORS

    engine_counters = ("router_wakeups", "cycles_skipped", "vec_kernel_cycles")

    def comparable(result) -> dict:
        d = dataclasses.asdict(result)
        for key in engine_counters:
            d["counters"].pop(key, None)
        return d

    def run_one(
        allocator: str, domain_engine: str, workers: int = 1, saturated: bool = False
    ) -> dict:
        """The low-load mesh row, or the saturated-CMesh row (the chiplet
        benchmark's operating point: link latency 4, no drain)."""
        cfg = NetworkConfig(
            topology="cmesh" if saturated else "mesh",
            num_terminals=64,
            router=RouterConfig(num_vcs=4, allocator=allocator),
        )
        link = dict(link_latency=4) if saturated else dict(link_latency=2, link_width=2)
        sim = PartitionedSimulation(
            cfg,
            partition=PartitionConfig(
                dims=(2, 2), domain_engine=domain_engine, workers=workers, **link
            ),
            injection_rate=1.0 if saturated else 0.1,
            seed=1,
        )
        if saturated:
            return comparable(sim.run(warmup=100, measure=300, drain_limit=0))
        return comparable(sim.run(warmup=200, measure=600, drain_limit=800))

    def expect_equal(label: str, reference: dict, other: dict, what: str) -> bool:
        if reference == other:
            print(f"[vectorized] 2x2 {label}: OK (matches {what})")
            return True
        diff = [k for k in reference if reference[k] != other.get(k)]
        print(f"[vectorized] 2x2 {label}: MISMATCH in {diff}")
        return False

    for allocator in SUPPORTED_ALLOCATORS:
        ok &= expect_equal(
            allocator,
            run_one(allocator, "gated"),
            run_one(allocator, "vectorized"),
            "gated domains",
        )
    sat = run_one("vix", "vectorized", saturated=True)
    ok &= expect_equal(
        "vix saturated cmesh",
        run_one("vix", "gated", saturated=True),
        sat,
        "gated domains",
    )
    for label, serial, saturated in (
        ("vix", run_one("vix", "vectorized"), False),
        ("vix saturated cmesh", sat, True),
    ):
        ok &= expect_equal(
            f"{label} workers=2",
            serial,
            run_one("vix", "vectorized", workers=2, saturated=saturated),
            "serial",
        )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--equivalence", action="store_true",
                        help="run only the 1x1-vs-dense golden-output gate")
    parser.add_argument("--invariants", action="store_true",
                        help="run only the 2x2 invariant smoke")
    parser.add_argument("--vectorized", action="store_true",
                        help="run only the vectorized-domain gates")
    parser.add_argument("--engines", action="store_true",
                        help="run only the default-engine-vs-dense golden-output gate")
    args = parser.parse_args()
    explicit = args.equivalence or args.invariants or args.vectorized or args.engines
    run_eq = args.equivalence or not explicit
    run_inv = args.invariants or not explicit
    run_vec = args.vectorized or not explicit
    run_eng = args.engines or not explicit
    ok = True
    if run_inv:
        ok &= check_invariants()
    if run_eq:
        ok &= check_equivalence()
    if run_vec:
        ok &= check_vectorized()
    if run_eng:
        ok &= check_engines()
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
