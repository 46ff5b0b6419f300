"""Machine-readable performance baseline emitter.

Runs every registered figure experiment once (caches cleared in between,
so each number is the figure's true end-to-end cost) plus the kernel
event-throughput microbenchmarks, and writes one JSON document::

    PYTHONPATH=src python benchmarks/report.py --scale 0.1 --out BENCH_PR1.json

The checked-in ``BENCH_*.json`` files form the perf-regression trajectory
future PRs are judged against: a PR claiming a hot-path win should show
it here, and a PR must not silently regress the recorded numbers.

Schema (v1)::

    {
      "meta":    {... machine/run description ...},
      "kernel":  {"chain_events_per_sec": float,
                  "concurrent_events_per_sec": float},
      "figures": {"fig04": {"wall_s": float, "events": int,
                            "cache": {"churn_hits": int, ...}}, ...},
      "total_figures_wall_s": float,
      "sweep":   {"jobs": int, "wall_s": float, "figures": int,
                  "unit_backed_figures": int, "unit_refs": int,
                  "unique_units": int, "cache": {...}}
    }

The ``figures`` section isolates each figure (caches cleared in
between); ``sweep`` is the deployment shape — the whole campaign in one
batch through the sweep-unit scheduler, where cross-figure duplicate
simulations are deduplicated to unique units and executed once.  Its
``cache`` counters are the parent-process run-cache hits observed while
demuxing figures from unit payloads, i.e. direct evidence of how much
work the dedup plan avoided.

The *chain* kernel shape keeps a single pending timer (pure
schedule/pop overhead); the *concurrent* shape holds thousands of
pending timers, which is what real runs look like (every member has
detection/switch/gossip timers in flight) and is where heap-comparison
cost dominates.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from typing import Dict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

SCHEMA_VERSION = 1


def bench_kernel_chain(total: int = 200_000) -> float:
    """Events/sec with one pending timer (schedule/pop ping-pong)."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    counter = [0]

    def tick():
        counter[0] += 1
        if counter[0] < total:
            sim.schedule_in(1.0, tick)

    sim.schedule_in(1.0, tick)
    started = time.perf_counter()
    sim.run()
    return total / (time.perf_counter() - started)


def bench_kernel_concurrent(timers: int = 2_000, total: int = 200_000) -> float:
    """Events/sec with ``timers`` concurrent periodic timers in the heap."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    fired = [0]

    def tick(i: int):
        fired[0] += 1
        if fired[0] < total:
            sim.schedule_in(1.0 + (i % 7) * 0.1, lambda: tick(i))

    for i in range(timers):
        sim.schedule_in(1.0 + (i % 7) * 0.1, lambda i=i: tick(i))
    started = time.perf_counter()
    sim.run()
    return total / (time.perf_counter() - started)


def bench_figures(scale: float, seed: int) -> Dict[str, Dict[str, float]]:
    from repro.experiments import common, list_experiments
    from repro.sim.engine import total_events_processed

    figures: Dict[str, Dict[str, float]] = {}
    for experiment in list_experiments():
        common.clear_caches()
        stats_before = common.cache_stats()
        events_before = total_events_processed()
        started = time.perf_counter()
        experiment.run(scale=scale, seed=seed)
        wall = time.perf_counter() - started
        # In-process event count; a --jobs > 1 run dispatches most events
        # in workers, so this is only the parent's share there (meta.jobs
        # records which regime produced the numbers).
        events = total_events_processed() - events_before
        stats_after = common.cache_stats()
        cache = {name: stats_after[name] - stats_before.get(name, 0)
                 for name in stats_after}
        figures[experiment.experiment_id] = {"wall_s": round(wall, 3),
                                             "events": events,
                                             "cache": cache}
        print(f"  {experiment.experiment_id:16s} {wall:8.2f}s "
              f"{events:>10d} events", flush=True)
    common.clear_caches()
    return figures


def bench_sweep(scale: float, seed: int, jobs: int) -> Dict[str, object]:
    """One full campaign through the sweep-unit scheduler.

    Unlike :func:`bench_figures` (caches cleared per figure, so each
    number is that figure's standalone cost) this is the deployment
    shape: every figure in one batch, deduplicated to unique simulation
    units, each unit executed once and the figures demuxed from the
    payloads.  The recorded ``cache`` counters come from the parent
    process after the run — every demux hit is a simulation the dedup
    plan did not repeat.
    """
    from repro.experiments import common, list_experiments
    from repro.experiments.pool import ExperimentJob, run_jobs
    from repro.experiments.units import units_for

    figure_ids = [e.experiment_id for e in list_experiments()]
    unit_refs = 0
    unit_backed = 0
    unique = set()
    for figure_id in figure_ids:
        units = units_for(figure_id, scale=scale, seed=seed)
        if units is None:
            continue
        unit_backed += 1
        unit_refs += len(units)
        unique.update(unit.cache_key() for unit in units)

    common.clear_caches()
    # The figure pass above leaves a large dead heap; collect it so the
    # sweep timing measures scheduling, not the previous pass's garbage.
    gc.collect()
    batch = [ExperimentJob.make(figure_id, scale=scale, seed=seed)
             for figure_id in figure_ids]
    started = time.perf_counter()
    run_jobs(batch, jobs)
    wall = time.perf_counter() - started
    stats = common.cache_stats()
    common.clear_caches()
    print(f"  all ({len(batch)} figures) --jobs {jobs}: {wall:.2f}s, "
          f"{len(unique)} unique units for {unit_refs} unit refs, "
          f"cache {stats}", flush=True)
    return {
        "jobs": jobs,
        "wall_s": round(wall, 3),
        "figures": len(batch),
        "unit_backed_figures": unit_backed,
        "unit_refs": unit_refs,
        "unique_units": len(unique),
        "cache": stats,
    }


def best_of(func, repeats: int = 3) -> float:
    return max(func() for _ in range(repeats))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=str, default="BENCH_PR1.json")
    parser.add_argument(
        "--skip-figures",
        action="store_true",
        help="only run the kernel microbenchmarks (fast smoke)",
    )
    parser.add_argument(
        "--sweep-jobs",
        type=int,
        default=4,
        help="--jobs for the whole-campaign sweep pass (default 4)",
    )
    parser.add_argument(
        "--skip-sweep",
        action="store_true",
        help="skip the whole-campaign sweep pass",
    )
    args = parser.parse_args(argv)

    print("kernel microbenchmarks ...", flush=True)
    chain = best_of(bench_kernel_chain)
    concurrent = best_of(bench_kernel_concurrent)
    print(f"  chain       {chain:12.0f} events/s")
    print(f"  concurrent  {concurrent:12.0f} events/s", flush=True)

    figures: Dict[str, Dict[str, float]] = {}
    sweep: Dict[str, object] = {}
    if not args.skip_figures:
        print(f"figure suite at --scale {args.scale} ...", flush=True)
        figures = bench_figures(args.scale, args.seed)
        if not args.skip_sweep:
            print(f"campaign sweep at --jobs {args.sweep_jobs} ...", flush=True)
            sweep = bench_sweep(args.scale, args.seed, args.sweep_jobs)

    from repro.context import current
    from repro.experiments.pool import resolve_jobs

    context = current()
    obs_flags = {
        name: True
        for name in ("trace", "trace_events", "metrics", "profile")
        if getattr(context, name)
    }
    report = {
        "meta": {
            "schema_version": SCHEMA_VERSION,
            "generated_unix": int(time.time()),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "scale": args.scale,
            "seed": args.seed,
            # Comparability guards: a baseline produced with a different
            # worker count or with observability overhead enabled is not
            # an apples-to-apples reference.
            "jobs": resolve_jobs(None),
            "obs_enabled": bool(obs_flags),
            "obs_flags": obs_flags,
        },
        "kernel": {
            "chain_events_per_sec": round(chain),
            "concurrent_events_per_sec": round(concurrent),
        },
        "figures": figures,
        "total_figures_wall_s": round(
            sum(f["wall_s"] for f in figures.values()), 3
        ),
    }
    if sweep:
        report["sweep"] = sweep
    tmp_path = args.out + ".tmp"
    with open(tmp_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    os.replace(tmp_path, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
