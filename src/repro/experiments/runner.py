"""Command-line interface for the experiment harness.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig04 --scale 0.1 --seed 7
    python -m repro.experiments all --scale 0.05 --out results.txt
    python -m repro.experiments all --scale 0.1 --replicas 4 --jobs 8

``--jobs N`` fans independent (experiment × seed) simulations out over N
worker processes (default: one per CPU); results are merged in
deterministic order, so the emitted tables are byte-identical to a
``--jobs 1`` run.  Output files (``--out``, ``--json``) are written
atomically — a crashed or killed run never leaves a truncated file.

``--store DIR`` additionally checkpoints every completed unit into a
durable run store (``docs/store.md``), and ``--resume`` replays the
units a previous — possibly killed — invocation already finished, so
only the missing work re-executes and the final report/trace is
byte-identical to an uninterrupted run at any ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import List, Optional

from ..context import RunContext, installed
from ..store.cli import ENV_STORE_DIR
from .pool import ExperimentJob, resolve_jobs, run_jobs
from .registry import get_experiment, list_experiments

#: The environment variable ``--jobs`` defaults to (then the CPU count).
ENV_JOBS = "REPRO_JOBS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of the DSN'06 ROST/CER paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all registered experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", help="e.g. fig04")
    _add_run_arguments(run)

    everything = sub.add_parser("all", help="run every experiment")
    _add_run_arguments(everything)

    _add_campaign_parser(
        sub,
        "faults_campaign",
        "faults",
        help="run a fault-injection campaign (see docs/faults.md)",
        default_spec="the built-in stub-outage example campaign",
        checked="every unit under the runtime invariant checker "
        "(see docs/invariants.md)",
        grid="(scenario x protocol x seed)",
    )
    _add_campaign_parser(
        sub,
        "multitree_campaign",
        "multitree",
        help="run a K-tree resilience campaign (see docs/multitree.md)",
        default_spec="the built-in K-tree resilience grid",
        checked="every stripe simulation under the non-strict runtime "
        "invariant checker",
        grid="(scenario x protocol x K x seed)",
    )
    return parser


def _add_campaign_parser(
    sub, name: str, family: str, help: str, default_spec: str, checked: str, grid: str
) -> None:
    """One campaign subcommand; ``family`` names its spec family."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(family=family)
    parser.add_argument(
        "spec_path",
        nargs="?",
        default=None,
        metavar="spec",
        help="campaign spec file (.json or .toml) or inline JSON object "
        f"(default: {default_spec})",
    )
    parser.add_argument(
        "--spec",
        type=str,
        default=None,
        help="alternative to the positional spec argument",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help=f"run {checked}; violations are reported in the summary and "
        "make the command exit non-zero",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.environ.get(ENV_JOBS) or None,
        help=f"worker processes for the {grid} grid (default: ${ENV_JOBS} "
        "or the CPU count); reports are byte-identical at any value",
    )
    parser.add_argument("--job-timeout", type=float, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--json", type=str, default=None)
    _add_validate_argument(parser)
    _add_obs_arguments(parser)
    _add_store_arguments(parser)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="population/underlay scale factor (1.0 = paper scale)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="run each experiment over this many consecutive seeds and "
        "report mean +/- 95%% CI where the series are mergeable",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.environ.get(ENV_JOBS) or None,
        help="worker processes for independent (experiment x seed) runs "
        f"(default: ${ENV_JOBS} or the CPU count; 1 = fully in-process)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock limit in seconds when running with worker "
        "processes; a timed-out job is retried once in-process",
    )
    parser.add_argument(
        "--out", type=str, default=None, help="also append tables to this file"
    )
    parser.add_argument(
        "--json", type=str, default=None, help="dump raw data as JSON to this file"
    )
    parser.add_argument(
        "--svg",
        type=str,
        default=None,
        help="directory to write one SVG chart per experiment with series data",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="run every simulation under the strict runtime invariant "
        "checker (see docs/invariants.md); the first violation aborts",
    )
    _add_validate_argument(parser)
    _add_obs_arguments(parser)
    _add_store_arguments(parser)


def _add_validate_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--validate",
        type=str,
        default=None,
        metavar="BASELINE_DIR",
        help="after the run, gate the registered experiments against the "
        "golden baselines in this directory (see docs/validation.md); a "
        "failing gate makes the command exit non-zero and, with --json, "
        "embeds the structured report under '_validate'",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="write a JSONL trace of every observed run to PATH "
        "(see docs/observability.md); byte-identical at any --jobs value",
    )
    parser.add_argument(
        "--trace-events",
        action="store_true",
        help="include one trace record per dispatched engine event "
        "(high volume; implies --trace semantics for record content)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect per-subsystem metrics registries and report their "
        "aggregated totals (also exported under _obs_metrics in --json)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute wall time per event type and pool stage; printed "
        "as a report section (never written into the trace or JSON)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        type=str,
        default=os.environ.get(ENV_STORE_DIR) or None,
        metavar="DIR",
        help="checkpoint every completed unit into this durable run store "
        f"(see docs/store.md); defaults to ${ENV_STORE_DIR} when set",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay units the store's ledger already has instead of "
        "re-executing them; the final report is byte-identical to an "
        f"uninterrupted run (requires --store or ${ENV_STORE_DIR})",
    )


def _atomic_write(path: str, content: str) -> None:
    """Write ``content`` to ``path`` via a temp file + rename.

    Readers either see the previous complete version or the new complete
    version — never a truncated file, even if the process dies mid-write.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".repro-out-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


class _Emitter:
    """Prints to stdout and mirrors the text into ``out_path`` atomically.

    Append semantics are preserved (an existing file's content is kept as
    the prefix), but every flush rewrites the whole file through a
    temp-file + rename, so a crashed run cannot leave a truncated table.
    """

    def __init__(self, out_path: Optional[str]):
        self._path = out_path
        self._content = ""
        #: Text emitted by this invocation only (no pre-existing --out
        #: prefix); the durable run store records it as the run's report.
        self.session_content = ""
        if out_path and os.path.exists(out_path):
            with open(out_path) as handle:
                self._content = handle.read()

    def emit(self, text: str) -> None:
        print(text)
        self.session_content += text + "\n"
        if self._path:
            self._content += text + "\n"
            _atomic_write(self._path, self._content)


def _iter_results(batch: List[ExperimentJob], jobs: int, timeout_s):
    """Yield results in submission order.

    With ``jobs == 1`` this lazily executes each job right before yielding
    it, so a long serial run emits tables progressively (and pdb/coverage
    see plain in-process calls); with ``jobs > 1`` the whole batch is
    fanned out first and the completed results replayed in order.
    """
    if jobs == 1:
        for job in batch:
            yield run_jobs([job], parallel_jobs=1)[0]
    else:
        yield from run_jobs(batch, parallel_jobs=jobs, timeout_s=timeout_s)


class _ArtifactCollector:
    """Merges per-result obs artifacts in submission order."""

    def __init__(self) -> None:
        self.trace_lines: List[str] = []
        self.metrics_units: List[dict] = []
        self.profile_units: List[dict] = []

    def collect(self, artifacts: dict) -> None:
        self.trace_lines.extend(artifacts.get("trace", []))
        self.metrics_units.extend(artifacts.get("metrics", []))
        self.profile_units.extend(artifacts.get("profile", []))

    def emit_sections(self, args, emitter: _Emitter, json_data: dict) -> None:
        """Write the trace file and print metrics/profile sections.

        The trace and metrics outputs are deterministic; the profile
        section carries wall times, so it goes to stdout/--out only and
        never into --json or the trace.
        """
        if getattr(args, "trace", None):
            from ..obs.trace import write_trace_lines

            write_trace_lines(args.trace, self.trace_lines)
            emitter.emit(
                f"[trace: {len(self.trace_lines)} records -> {args.trace}]"
            )
        if getattr(args, "metrics", False):
            from ..obs.metrics import aggregate_units, render_metrics_section

            totals = aggregate_units(self.metrics_units)
            emitter.emit(render_metrics_section(totals))
            json_data["_obs_metrics"] = totals
        if getattr(args, "profile", False):
            from ..obs.profile import drain_stages, render_profile_section

            emitter.emit(
                render_profile_section(self.profile_units, drain_stages())
            )


class _StoreRunRecorder:
    """Links one CLI invocation to the durable run store (if active).

    Snapshots the ledger's aggregate counters up front so the
    replayed/executed split it reports covers exactly this invocation's
    units — including the simulation units a job schedules.  The
    summary goes to stderr: stdout and ``--out`` must stay byte-identical
    between resumed and uninterrupted runs.
    """

    def __init__(self) -> None:
        from ..store.runstore import active_store

        self.store = active_store()
        self._before = (
            self.store.ledger.totals() if self.store is not None else None
        )

    def finish(
        self,
        name: str,
        command: str,
        params: dict,
        report_text: Optional[str],
        json_data: Optional[dict],
    ) -> None:
        if self.store is None:
            return
        after = self.store.ledger.totals()
        executed = after["executions"] - self._before["executions"]
        replayed = after["hits"] - self._before["hits"]
        run_id = self.store.record_run(
            name=name,
            command=command,
            params=params,
            report_text=report_text,
            json_data=json_data,
            units_total=executed + replayed,
            units_replayed=replayed,
        )
        print(
            f"[store] run #{run_id}: {replayed} unit(s) replayed, "
            f"{executed} executed -> {self.store.root}",
            file=sys.stderr,
        )


def _run_validation(args, emitter: _Emitter, json_data: dict) -> bool:
    """Gate the run against golden baselines (the ``--validate`` flag).

    Runs through the same ``execute_job`` chokepoint as the experiments
    themselves, so an active run store records (or replays) the gate's
    units too.  Emits the human-readable verdicts, embeds the structured
    report under ``_validate`` in the ``--json`` payload, and returns
    whether every gate passed.
    """
    if not getattr(args, "validate", None):
        return True
    from ..validate.baseline import load_baseline_dir
    from ..validate.gate import run_gates

    report = run_gates(
        load_baseline_dir(args.validate),
        baseline_dir=args.validate,
        jobs=resolve_jobs(getattr(args, "jobs", None)),
    )
    emitter.emit(report.render_text())
    json_data["_validate"] = report.to_payload()
    return report.passed


def _run_ids(ids: List[str], args) -> int:
    jobs = resolve_jobs(args.jobs)
    recorder = _StoreRunRecorder()
    emitter = _Emitter(args.out)
    json_data = {}
    collector = _ArtifactCollector()
    segment_started = time.time()
    if args.replicas > 1:
        from .replication import merge_replicas

        seeds = list(range(args.seed, args.seed + args.replicas))
        batch = [
            ExperimentJob.make(experiment_id, scale=args.scale, seed=seed)
            for experiment_id in ids
            for seed in seeds
        ]
        results = _iter_results(batch, jobs, args.job_timeout)
        for experiment_id in ids:
            replicas = []
            for _ in seeds:
                result = next(results)
                collector.collect(result.artifacts)
                replicas.append(result)
            replicated = merge_replicas(experiment_id, seeds, replicas)
            emitter.emit(str(replicated))
            json_data[experiment_id] = {
                "seeds": replicated.seeds,
                "summary": replicated.summary,
                "replicas": [r.data for r in replicated.replicas],
            }
            elapsed = time.time() - segment_started
            segment_started = time.time()
            emitter.emit(f"[{experiment_id} finished in {elapsed:.1f}s]\n")
    else:
        batch = [
            ExperimentJob.make(experiment_id, scale=args.scale, seed=args.seed)
            for experiment_id in ids
        ]
        results = _iter_results(batch, jobs, args.job_timeout)
        for experiment_id, result in zip(ids, results):
            collector.collect(result.artifacts)
            emitter.emit(result.table)
            json_data[experiment_id] = result.data
            if args.svg:
                _write_svg(result, args.svg)
            elapsed = time.time() - segment_started
            segment_started = time.time()
            emitter.emit(f"[{experiment_id} finished in {elapsed:.1f}s]\n")
    collector.emit_sections(args, emitter, json_data)
    validated = _run_validation(args, emitter, json_data)
    if args.json:
        _atomic_write(
            args.json, json.dumps(json_data, indent=2, default=str)
        )
    recorder.finish(
        name=args.command if args.command == "all" else f"run {ids[0]}",
        command=f"repro.experiments {args.command}",
        params={
            "experiments": ids,
            "scale": args.scale,
            "seed": args.seed,
            "replicas": args.replicas,
            "jobs": jobs,
        },
        report_text=emitter.session_content,
        json_data=json_data,
    )
    return 0 if validated else 1


def _write_svg(result, directory: str) -> None:
    from ..metrics.svgplot import experiment_chart

    try:
        chart = experiment_chart(result)
    except ValueError:
        return  # experiment without series data (e.g. fig14)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.experiment_id}.svg")
    with open(path, "w") as handle:
        handle.write(chart)


def _run_context(args) -> RunContext:
    """The run-wide settings of one invocation, from its flags."""
    return RunContext(
        trace=bool(args.trace),
        trace_events=args.trace_events,
        metrics=args.metrics,
        profile=args.profile,
        # Campaigns carry --check-invariants in their units instead.
        check_invariants=args.command in ("run", "all") and args.check_invariants,
        store_dir=args.store,
        resume=args.resume,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.store:
        parser.error(f"--resume requires --store DIR (or ${ENV_STORE_DIR})")
    if getattr(args, "validate", None) and not os.path.isdir(args.validate):
        parser.error(f"--validate: baseline directory not found: {args.validate}")
    if args.command == "list":
        for experiment in list_experiments():
            print(
                f"{experiment.experiment_id:8s} {experiment.paper_artifact:10s} "
                f"{experiment.title}"
            )
        return 0
    with installed(_run_context(args)):
        if args.command in ("faults_campaign", "multitree_campaign"):
            return _run_campaign(args, args.family)
        if args.command == "run":
            get_experiment(args.experiment_id)  # fail fast on unknown ids
            return _run_ids([args.experiment_id], args)
        return _run_ids([e.experiment_id for e in list_experiments()], args)


def _run_campaign(args, family: str) -> int:
    """Run a campaign subcommand: the spec's grid goes through the pool's
    unit path, then the report is assembled here from the cached runs."""
    from ..faults.campaign import FAMILIES
    from ..obs.capture import job_capture
    from .campaigns import campaign_units, run_campaign
    from .pool import ExperimentPool

    spec = args.spec_path if args.spec_path is not None else args.spec
    campaign = FAMILIES[family].resolve(spec)
    recorder = _StoreRunRecorder()
    ExperimentPool(jobs=args.jobs, timeout_s=args.job_timeout).run_units(
        campaign_units(campaign, args.scale, args.seed, args.check_invariants)
    )
    with job_capture() as capture:
        report = run_campaign(
            campaign, args.scale, args.seed, args.check_invariants
        )
    emitter = _Emitter(args.out)
    emitter.emit(report.table)
    violations = report.data.get("invariant_violations")
    if args.check_invariants:
        runs = len(report.data.get("runs", []))
        emitter.emit(
            f"invariants: {violations or 0} violation(s) across {runs} "
            f"checked run(s)"
        )
    collector = _ArtifactCollector()
    collector.collect(capture.artifacts() if capture is not None else {})
    collector.emit_sections(args, emitter, report.data)
    validated = _run_validation(args, emitter, report.data)
    if args.json:
        _atomic_write(args.json, json.dumps(report.data, indent=2, default=str))
    recorder.finish(
        name=f"{args.command} {campaign.name}",
        command=f"repro.experiments {args.command}",
        params={
            "spec": campaign.to_spec(),
            "scale": args.scale,
            "seed": args.seed,
            "jobs": args.jobs,
            "check_invariants": args.check_invariants,
        },
        report_text=emitter.session_content,
        json_data=report.data,
    )
    return 1 if (violations or not validated) else 0


if __name__ == "__main__":
    sys.exit(main())
