"""One cold-process iteration of a benchmark workload.

``run.py`` starts this script once per iteration, so every iteration pays
its own interpreter start, imports, topology build and workload
generation, which is what ``setup_s`` measures.  The script writes one
JSON document to ``--result``:

* untraced (``--traced 0``): workload wall time, the time of each unit
  (the campaign's pool tasks) and how many ran at once, engine events
  (parent and pool workers), peak RSS (parent plus every worker), the
  first engine dispatch time, the outcome of the correctness checks;
* traced (``--traced 1``): the same plus the span totals and the
  per-layer metrics of :mod:`layers`.

The program is imported from ``src/`` of the checkout this file sits in,
never from anywhere else on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def run_workload(name: str, seed: int, workdir: str, scale: Optional[float] = None):
    """Run one workload in this process; returns ``(outcome, jobs)``."""
    import workloads

    kwargs = {} if scale is None else {"scale": scale}
    if name == "churn-sweep":
        return workloads.churn_sweep(seed, **kwargs), 1
    if name == "campaign":
        jobs = os.cpu_count() or 1
        return workloads.campaign(seed, workdir, jobs, **kwargs), jobs
    raise ValueError(f"unknown workload {name!r}; expected one of {workloads.WORKLOADS}")


def wait_for_pool() -> None:
    """Wait for the pool's management thread, which joins the workers."""
    for thread in threading.enumerate():
        if thread is not threading.current_thread() and not thread.daemon:
            thread.join(timeout=60)
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=60)


def environment_meta(jobs: int, workers: int) -> dict:
    import numpy

    from repro.sim.fastrand import replication_ok

    nproc = os.cpu_count() or 1
    if jobs > nproc:
        raise SystemExit(f"perfbench: jobs {jobs} exceeds nproc {nproc}")
    return {
        "nproc": nproc,
        "jobs": jobs,
        "workers_used": workers,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "fastrand_replication_ok": bool(replication_ok()),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "tmpdir": os.environ.get("TMPDIR"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--scale", type=float, default=None, help="override (self-tests only)")
    args = parser.parse_args(argv)

    import_program()
    import layers
    import spans

    recorder = spans.Recorder(args.workdir)
    if args.traced:
        installed = spans.install(recorder, layers.all_probes())
    else:
        installed = spans.arm_first_event(args.workdir)
        if args.workload == "campaign":
            installed.extend(spans.install(recorder, layers.task_probes()))
    started = time.perf_counter()
    outcome, jobs = run_workload(args.workload, args.seed, args.workdir, args.scale)
    wall_s = time.perf_counter() - started
    wait_for_pool()
    installed.restore()
    if args.workload == "campaign":
        import workloads

        kwargs = {} if args.scale is None else {"scale": args.scale}
        workloads.verify_campaign(outcome, args.seed, args.workdir, **kwargs)

    parent = recorder.dump()
    workers = spans.load_worker_dumps(args.workdir, os.getpid())
    first_event = spans.first_event_time(args.workdir)
    merged = spans.merge_dumps([parent, *workers])
    if args.workload == "campaign":
        unit_times = merged["tasks"]
        parallelism = max(1, len(workers))
    else:
        unit_times = {str(i): t for i, t in enumerate(outcome.unit_times)}
        parallelism = 1
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "wall_s": wall_s,
        "events": parent["counters"][spans.EVENTS] + sum(w["counters"][spans.EVENTS] for w in workers),
        "peak_rss_mb": parent["max_rss_mb"] + sum(w["max_rss_mb"] for w in workers),
        "setup_s": None if first_event is None else first_event - args.spawn_time,
        "unit_times": unit_times,
        "parallelism": parallelism,
        "outcome": outcome.to_json(),
        "meta": environment_meta(jobs, len(workers)),
    }
    if args.traced:
        result["layers"] = layers.layer_metrics(parent, workers, merged, wall_s)
        result["self_total_s"] = layers.self_time_total(merged)
        result["span_layers"] = merged["layers"]
        result["span_functions"] = merged["functions"]
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
