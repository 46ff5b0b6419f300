"""The benchmark workloads, their correctness checks and digests.

Each workload drives the program only through its public entry points:
``repro.experiments.common.churn_run`` for the in-process sweep, and the
``python -m repro.experiments`` command line (``repro.experiments.runner.main``,
which fans out through ``repro.experiments.pool.run_jobs``) for the campaign.

* ``churn-sweep`` — Fig. 4's 25 churn units (5 protocols x 5 sizes).
  Join placement dominates; the recovery layer does no work.
* ``campaign`` — every figure through the pool at ``--jobs`` = CPU count,
  with a fresh run store and tracing on, at a small scale, so the pool,
  payload serialization, store writes and obs capture carry a real share.
  Its figures include Figs. 12-14, so the recovery layer is measured here.

A run returns a :class:`Outcome`: units attempted and failed, the named
checks, and a digest of the result payloads, so a change that alters the
program's outputs shows up as a new digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

#: Scales chosen so one iteration takes 5-8 s on a 2-vCPU container, and a
#: run holds six or more iterations.
CHURN_SCALE = 0.035
CAMPAIGN_SCALE = 0.015

WORKLOADS = ("churn-sweep", "campaign")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: name -> (passed, detail)
    checks: Dict[str, tuple] = field(default_factory=dict)
    digest: str = ""
    #: Information printed beside the checks but not gated.
    notes: Dict[str, object] = field(default_factory=dict)
    #: Wall time of each unit, in unit order (in-process workloads only).
    unit_times: List[float] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str, covers: int) -> None:
        """Record a check; a failing one fails the ``covers`` units it compared."""
        self.checks[name] = (bool(passed), detail)
        if not passed:
            self.failed += covers

    def to_json(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": min(self.failed, self.attempted),
            "checks": {name: list(value) for name, value in self.checks.items()},
            "digest": self.digest,
            "notes": self.notes,
        }


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _sane_churn(result) -> bool:
    value = result.avg_disruptions_per_node
    return (
        result.sessions_total > 0
        and 0 <= result.sessions_rejected <= result.sessions_total
        and result.extras.get("events_processed", 0) > 0
        and math.isfinite(value)
        and value >= 0
    )


def _sweep_mean(series: List[float]) -> float:
    return sum(series) / len(series)


def churn_sweep(seed: int, scale: float = CHURN_SCALE) -> Outcome:
    from repro.experiments.common import PROTOCOL_ORDER, churn_run
    from repro.experiments.fig04_disruptions import units

    outcome = Outcome()
    digest = hashlib.sha256()
    series: Dict[str, List[float]] = {p: [] for p in PROTOCOL_ORDER}
    for unit in units(scale=scale, seed=seed):
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            result = churn_run(unit.protocol, unit.population, unit.settings)
        except Exception as exc:  # a unit that raises is a failed unit
            outcome.failed += 1
            outcome.notes[f"{unit.protocol}@{unit.population}"] = repr(exc)
            continue
        finally:
            outcome.unit_times.append(time.perf_counter() - started)
        if not _sane_churn(result):
            outcome.failed += 1
        series[unit.protocol].append(result.avg_disruptions_per_node)
        digest.update(_canonical(result.to_payload()))
    outcome.digest = digest.hexdigest()
    rost, min_depth, longest = (series[p] for p in ("rost", "min-depth", "longest-first"))
    if len(rost) == len(min_depth) == len(longest) > 0:
        # Fig. 4: ROST disrupts fewer members than min-depth.  Gated on the
        # mean over the size sweep: at a single seed and this scale the
        # per-size ordering flips for some seeds, the sweep mean did not on
        # seeds 1-30 (scale 0.05) or 1-18 (scale 0.035).  The per-size and
        # longest-first orderings are printed.
        outcome.check(
            "fig04.rost_below_min_depth",
            _sweep_mean(rost) < _sweep_mean(min_depth),
            f"sweep mean rost {_sweep_mean(rost):.4f} vs min-depth {_sweep_mean(min_depth):.4f}",
            covers=len(rost) + len(min_depth),
        )
        outcome.notes["fig04.largest_size"] = {
            "rost": rost[-1], "min-depth": min_depth[-1], "longest-first": longest[-1]
        }
        outcome.notes["fig04.sweep_mean_longest_first"] = _sweep_mean(longest)
    return outcome


def _expected_sim_units(scale: float, seed: int) -> int:
    """Distinct simulation units the campaign's figures declare."""
    from repro.experiments.registry import list_experiments
    from repro.experiments.units import units_for

    distinct = set()
    for experiment in list_experiments():
        for unit in units_for(experiment.experiment_id, scale, seed) or ():
            distinct.add(_canonical(unit.store_doc()))
    return len(distinct)


def campaign(seed: int, workdir: str, jobs: int, scale: float = CAMPAIGN_SCALE) -> Outcome:
    """Every figure through the command line; checked by :func:`verify_campaign`."""
    from repro.experiments.runner import main

    outcome = Outcome()
    argv = [
        "all", "--scale", repr(scale), "--seed", str(seed), "--jobs", str(jobs),
        "--store", os.path.join(workdir, "store"), "--trace", os.path.join(workdir, "trace.jsonl"),
        "--json", os.path.join(workdir, "figures.json"), "--out", os.path.join(workdir, "figures.txt"),
    ]
    try:
        outcome.notes["exit_code"] = main(argv)
    except Exception as exc:  # the whole campaign failed
        outcome.notes["error"] = repr(exc)
    return outcome


def verify_campaign(outcome: Outcome, seed: int, workdir: str, scale: float = CAMPAIGN_SCALE) -> None:
    """The campaign's checks, run after the timed (and traced) region:
    every unit executed exactly once, the trace valid, the output digested."""
    from repro.experiments.registry import list_experiments
    from repro.obs.schema import TraceSchemaError, validate_trace_lines
    from repro.store.ledger import Ledger

    figures = [e.experiment_id for e in list_experiments()]
    expected_units = _expected_sim_units(scale, seed)
    outcome.attempted = expected_units + len(figures)
    json_path = os.path.join(workdir, "figures.json")
    code = outcome.notes.get("exit_code")
    outcome.check("campaign.exit_code", code == 0, f"exit code {code}", covers=outcome.attempted)
    if not os.path.exists(json_path):
        return
    with open(json_path, "rb") as handle:
        outcome.digest = hashlib.sha256(handle.read()).hexdigest()

    rows = Ledger(os.path.join(workdir, "store", "ledger.sqlite")).units()
    sim_rows = [r for r in rows if str(r["experiment_id"]).startswith("sim:")]
    not_once = [r["unit_key"] for r in rows if r["executions"] != 1 or r["hits"] != 0]
    recorded = {r["experiment_id"] for r in rows}
    missing = [f for f in figures if f not in recorded]
    outcome.check(
        "campaign.ledger_once",
        not not_once and len(sim_rows) == expected_units and not missing,
        f"{len(sim_rows)}/{expected_units} simulation units, {len(not_once)} not executed "
        f"exactly once, figures missing {missing}",
        covers=len(not_once) + abs(len(sim_rows) - expected_units) + len(missing),
    )
    try:
        with open(os.path.join(workdir, "trace.jsonl")) as handle:
            records = validate_trace_lines(line.rstrip("\n") for line in handle)
        trace_ok, detail = records > 0, f"{records} records valid"
    except (OSError, TraceSchemaError) as exc:
        trace_ok, detail = False, str(exc)
    outcome.check("campaign.trace_schema", trace_ok, detail, covers=outcome.attempted)
    outcome.notes["store_rows"] = len(rows)


def input_digest(seed: int, scale: float) -> str:
    """Digest of the churn sessions generated for the smallest sweep size:
    equal for equal seeds, different for different ones."""
    from repro.experiments.common import PAPER_SIZES, SweepSettings, shared_workload

    config = SweepSettings(scale=scale, seed=seed).config(PAPER_SIZES[0])
    sessions = shared_workload(config).sessions
    rows = [[s.arrival_s, s.lifetime_s, s.bandwidth, s.underlay_node] for s in sessions]
    return hashlib.sha256(_canonical(rows)).hexdigest()
