"""Benchmark of the ROST/CER reproduction: end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload churn-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --profile --seed 1

A run repeats the workload, each iteration in a fresh process
(``iteration.py``), until ``--seconds`` are used (at least three untraced
iterations, or one traced and one untraced with ``--trace 1``).  It
prints a summary table, a ``meta`` line with what makes two runs
comparable, and as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over iterations),
``--trace 1`` the per-layer metrics of the traced iterations.  README.md
describes the workloads and metrics.  The run exits non-zero without a
result when an iteration fails to run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Untraced iterations a timing run makes at least, for a median.
MIN_ITERATIONS = 3
#: Start no iteration expected to end later than this (runs end within 180 s).
LAST_END_S = 150.0
#: One iteration may take at most this long.
ITERATION_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "unit_success_rate": "ratio",
}


def child_env(workload: str, iteration_dir: Path) -> dict:
    """The iteration's environment: every ``REPRO_*`` variable cleared,
    temporary files kept inside the checkout.

    The campaign gets its own empty topology cache directory and the
    shared-memory tier switched off, so nothing is written outside the
    checkout and no iteration reuses another's cache.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    tmp = iteration_dir / "tmp"
    tmp.mkdir()
    env["TMPDIR"] = str(tmp)
    if workload == "campaign":
        env["REPRO_CACHE_DIR"] = str(iteration_dir / "topology-cache")
        env["REPRO_SHM"] = "0"
    return env


@contextlib.contextmanager
def scratch(name: str):
    """A private working directory under ``.perfbench/``, removed afterwards."""
    work = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def kill_group(process: subprocess.Popen) -> None:
    """Kill an iteration and its pool workers, and wait until all are gone."""
    os.killpg(process.pid, signal.SIGKILL)
    process.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_iteration(workload: str, seed: int, traced: bool, work: Path, index: int, scale=None) -> dict:
    """One cold-process iteration; raises ``RuntimeError`` if it fails."""
    directory = work / f"iteration-{index}"
    directory.mkdir()
    result_path = directory / "result.json"
    log_path = directory / "log.txt"
    command = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", workload, "--seed", str(seed), "--traced", str(int(traced)),
        "--workdir", str(directory), "--result", str(result_path),
    ]
    if scale is not None:
        command += ["--scale", repr(scale)]
    env = child_env(workload, directory)
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        process = subprocess.Popen(
            command + ["--spawn-time", repr(spawned)],
            cwd=str(ROOT), env=env, stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = process.wait(timeout=ITERATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if process.poll() is None:
                kill_group(process)
    if code != 0 or not result_path.exists():
        tail = log_path.read_text()[-3000:]
        raise RuntimeError(f"{workload} iteration {index} failed ({code}):\n{tail}")
    with open(result_path) as handle:
        return json.load(handle)


def iterate(workload: str, seed: int, seconds: float, trace: bool, work: Path, scale=None):
    """Iterations until ``seconds`` are used; traced runs alternate
    traced and untraced iterations, starting traced."""
    results = []
    started = time.monotonic()
    durations = {True: [], False: []}
    while True:
        traced = trace and len(results) % 2 == 0
        elapsed = time.monotonic() - started
        if results:
            done_minimum = (
                all(durations.values()) if trace else len(results) >= MIN_ITERATIONS
            )
            expected = statistics.median(durations[traced] or durations[not traced])
            if done_minimum and elapsed + expected > seconds:
                break
            if elapsed + expected > LAST_END_S:
                break
        began = time.monotonic()
        results.append(run_iteration(workload, seed, traced, work, len(results), scale))
        durations[traced].append(time.monotonic() - began)
    return results


def _median(values):
    return statistics.median(values) if values else 0.0


def typical_wall(results: list) -> float:
    """The workload's wall time, robust to the host slowing down for a while.

    Each iteration's wall time is split into its units, which run
    ``parallelism`` at a time, and the rest: ``wall - sum(units) /
    parallelism``.  The result is each unit's median time across
    iterations, summed and divided by the parallelism, plus the median of
    the rest; a slow patch of a few seconds then only costs the units it
    hit in one iteration.  Without comparable unit times (different unit
    sets or parallelism), the median iteration wall time.
    """
    per_unit = [r["unit_times"] for r in results]
    widths = {r["parallelism"] for r in results}
    if not all(per_unit) or len({tuple(sorted(t)) for t in per_unit}) != 1 or len(widths) != 1:
        return _median([r["wall_s"] for r in results])
    width = widths.pop()
    outside = _median([r["wall_s"] - sum(t.values()) / width for r, t in zip(results, per_unit)])
    return outside + sum(_median([t[key] for t in per_unit]) for key in per_unit[0]) / width


def summarize(results: list, trace: bool) -> dict:
    """The final result object (and the lines printed before it)."""
    outcomes = [r["outcome"] for r in results]
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    digests = {o["digest"] for o in outcomes}
    checks_ok = all(passed for o in outcomes for passed, _ in o["checks"].values())
    correct = failed == 0 and checks_ok and len(digests) == 1 and attempted > 0
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    if trace:
        metrics = {
            name: _median([r["layers"][name] for r in traced])
            for name in LAYER_METRICS
            if name != "trace_overhead_ratio"
        }
        untraced_wall = typical_wall(untraced) if untraced else 0.0
        metrics["trace_overhead_ratio"] = typical_wall(traced) / untraced_wall if untraced_wall else 0.0
        units = LAYER_METRICS
    else:
        wall_s = typical_wall(untraced)
        metrics = {
            "wall_s": wall_s,
            "events_per_s": _median([r["events"] for r in untraced]) / wall_s,
            "setup_s": _median([r["setup_s"] for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
            "unit_success_rate": 1.0 - failed / attempted if attempted else 0.0,
        }
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def report(workload: str, seed: int, results: list, summary: dict) -> None:
    """Human-readable lines printed before the result line."""
    untraced = [r for r in results if not r["traced"]]
    print(f"perfbench {workload} seed={seed}: {len(untraced)} untraced, "
          f"{len(results) - len(untraced)} traced iterations")
    for field in ("wall_s", "setup_s", "peak_rss_mb"):
        values = sorted(r[field] for r in untraced)
        print(f"  {field:12s} median {_median(values):.4f}  min {values[0]:.4f}  "
              f"max {values[-1]:.4f}  n={len(values)}")
    print(f"  wall_s reported {typical_wall(untraced):.4f} (per-unit medians)")
    outcome = results[0]["outcome"]
    for name, (passed, detail) in outcome["checks"].items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'} ({detail})")
    for name, note in outcome["notes"].items():
        print(f"  note {name}: {json.dumps(note)}")
    digests = sorted({r["outcome"]["digest"] for r in results})
    print(f"  digest {' '.join(digests)}")
    traced = [r for r in results if r["traced"]]
    if traced:
        print_layer_table(traced[0])
    print(json.dumps({"meta": results[0]["meta"]}, sort_keys=True))


def print_layer_table(result: dict) -> None:
    """Per-layer calls, busy and self time of one traced iteration."""
    wall = result["wall_s"]
    print(f"  traced wall {wall:.3f}s, self time over all layers {result['self_total_s']:.3f}s")
    print(f"  {'layer':12s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s} {'self%':>6s}")
    rows = sorted(result["span_layers"].items(), key=lambda item: -item[1][2])
    for layer, (calls, busy, own) in rows:
        print(f"  {layer:12s} {calls:9d} {busy:9.3f} {own:9.3f} {100 * own / wall:6.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ROST/CER reproduction benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None, help="override the workload scale (self-tests)")
    parser.add_argument("--selftest", action="store_true", help="run the harness self-tests")
    parser.add_argument("--profile", action="store_true", help="cProfile cross-check of churn-sweep")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit, so the running iteration is killed and the
    # scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest or args.profile:
        if args.selftest:
            import selftest

            return selftest.main()
        import profile_check

        return profile_check.main(args.seed, args.scale)
    if args.workload is None:
        parser.error("--workload is required")

    try:
        with scratch(f"{args.workload}-{args.seed}") as work:
            results = iterate(args.workload, args.seed, args.seconds, bool(args.trace), work, args.scale)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary = summarize(results, bool(args.trace))
    report(args.workload, args.seed, results, summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
