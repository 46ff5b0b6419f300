"""Differential oracles: pairs of implementations that must agree.

The repo deliberately retains slower reference implementations next to
every optimized path (naive MLC kernels beside the vectorized ones, the
per-packet episode simulator beside the closed-form pricing, the serial
runner beside the process pool, plain runs beside store-replayed ones).
Each oracle here replays *identical seeds and schedules* through one
such A/B pair and diffs the outputs with the NaN-aware numeric walk
borrowed from ``repro.store`` diff — any disagreement is a bug in one
side, found without needing to know which.

Oracles (see :data:`ORACLES`):

``mlc_kernels``
    Drives a fault-schedule-perturbed churn run, then compares the
    epoch-cached/vectorized root-path and loss-correlation kernels
    against their naive references over the surviving tree.
``delay_oracle``
    Scalar :meth:`DelayOracle.delay_ms` vs the case-masked batch
    :meth:`DelayOracle.delays_from`; the contract is *bit*-identical
    IEEE doubles.
``episode_pricing``
    Closed-form :func:`starvation_episode` vs the event-driven
    per-packet :class:`EpisodeSimulator` over random striped and
    sequential episodes.
``jobs``
    One experiment grid through ``--jobs 1`` vs ``--jobs 2`` worker
    fan-out; merged reports must be identical.
``resume``
    A store-recorded run replayed via ``--resume`` vs the same run
    uninterrupted.
``obs``
    The same run with observability capture enabled vs disabled; the
    experiment data must not depend on being observed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..context import current, installed
from ..errors import ValidationError
from .report import DiffReport, OracleOutcome

#: (experiment_id, scale, seeds, kwargs) the execution-path oracles
#: (jobs / resume / obs) replay; tiny but exercises a full sweep.
_EXECUTION_UNIT = ("fig04", 0.05, (1, 2), {"sizes": (2000,)})


def _diff_payloads(a, b, rtol: float = 0.0, atol: float = 0.0) -> List[Dict[str, str]]:
    from ..store.cli import iter_report_diff

    # Compare the canonical JSON form of both sides: experiment payloads
    # use int dict keys (e.g. network sizes) which any persisted leg —
    # the run store, a report file — legitimately round-trips to strings.
    a = json.loads(json.dumps(a))
    b = json.loads(json.dumps(b))
    return [
        {"path": path or "<root>", "detail": detail}
        for path, detail in iter_report_diff(a, b, rtol=rtol, atol=atol)
    ]


# -- kernel oracles ----------------------------------------------------------------


def _tiny_config(seed: int):
    """A self-contained small simulation config (no test fixtures)."""
    from ..config import SimulationConfig, TopologyConfig, WorkloadConfig

    cfg = SimulationConfig(
        topology=TopologyConfig(
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
            stub_nodes_per_domain=4,
            seed=11,
        ),
        workload=WorkloadConfig(target_population=50),
        warmup_lifetimes=0.5,
        measure_lifetimes=0.5,
    )
    return cfg.with_seed(seed)


def _random_fault_schedule(seed: int):
    """A seed-deterministic small fault schedule (crashes + an outage)."""
    from ..faults import FaultSchedule, NodeCrash, StubDomainOutage

    rng = np.random.default_rng(seed)
    faults = []
    for _ in range(int(rng.integers(1, 4))):
        faults.append(
            NodeCrash(
                at_s=float(rng.uniform(50.0, 400.0)),
                count=int(rng.integers(1, 6)),
                selector=NodeCrash.SELECTORS[
                    int(rng.integers(0, len(NodeCrash.SELECTORS)))
                ],
            )
        )
    if rng.integers(0, 2):
        faults.append(
            StubDomainOutage(
                at_s=float(rng.uniform(50.0, 400.0)),
                domains=int(rng.integers(1, 3)),
            )
        )
    return FaultSchedule(seed=seed, faults=tuple(faults))


def run_mlc_kernel_differential(
    seed: int = 0, schedule=None
) -> OracleOutcome:
    """Vectorized/cached MLC kernels vs naive references, post-faults.

    Runs a small churn simulation under ``schedule`` (a seed-derived
    random one by default) so crashes, outages and the resulting repairs
    have churned the tree — the epoch-based path caches have been
    invalidated and rebuilt many times — then compares, over every
    attached member: the cached root path, all pairwise loss
    correlations, and the vectorized group sum on random subsets,
    against the walk-the-parent-chain ground truth.
    """
    from ..faults import FaultInjector
    from ..protocols import PROTOCOLS
    from ..recovery.mlc import (
        group_loss_correlation,
        loss_correlation,
        naive_group_loss_correlation,
        naive_loss_correlation,
        naive_root_path_ids,
        root_path_ids,
    )
    from ..simulation.churn import ChurnSimulation

    cfg = _tiny_config(seed + 100)
    sim = ChurnSimulation(cfg, PROTOCOLS["rost"])
    if schedule is None:
        schedule = _random_fault_schedule(seed)
    FaultInjector(schedule).bind(sim)
    sim.run()

    nodes = [node for node in sim.tree.members.values() if node.attached]
    differences: List[Dict[str, str]] = []
    comparisons = 0
    for node in nodes:
        comparisons += 1
        fast = root_path_ids(node)
        slow = naive_root_path_ids(node)
        if fast != slow:
            differences.append(
                {
                    "path": f"root_path[{node.member_id}]",
                    "detail": f"cached {fast} != naive {slow}",
                }
            )
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            comparisons += 1
            fast = loss_correlation(a, b)
            slow = naive_loss_correlation(a, b)
            if fast != slow:
                differences.append(
                    {
                        "path": f"loss_correlation[{a.member_id},{b.member_id}]",
                        "detail": f"{fast} != naive {slow}",
                    }
                )
    rng = np.random.default_rng(seed)
    for trial in range(8):
        size = int(rng.integers(2, max(3, len(nodes))))
        subset = [nodes[int(i)] for i in rng.choice(len(nodes), size=size)]
        comparisons += 1
        fast = group_loss_correlation(subset)
        slow = naive_group_loss_correlation(subset)
        if fast != slow:
            differences.append(
                {
                    "path": f"group_loss_correlation[trial {trial}]",
                    "detail": f"{fast} != naive {slow} "
                    f"(members {[n.member_id for n in subset]})",
                }
            )
    return OracleOutcome(
        oracle="mlc_kernels",
        equal=not differences,
        differences=differences,
        meta={
            "seed": seed,
            "members": len(nodes),
            "faults": len(schedule.faults),
            "comparisons": comparisons,
        },
    )


def run_delay_oracle_differential(seed: int = 0) -> OracleOutcome:
    """Scalar vs batch delay queries: must be bit-identical doubles."""
    from ..topology.routing import DelayOracle
    from ..topology.transit_stub import generate_transit_stub

    cfg = _tiny_config(seed).topology
    topology = generate_transit_stub(cfg)
    oracle = DelayOracle(topology)
    rng = np.random.default_rng(seed)
    nodes = list(topology.stub_nodes) + list(topology.transit_nodes)
    differences: List[Dict[str, str]] = []
    comparisons = 0
    for _ in range(16):
        source = nodes[int(rng.integers(0, len(nodes)))]
        targets = [
            nodes[int(i)]
            for i in rng.choice(len(nodes), size=int(rng.integers(1, 24)))
        ]
        batch = oracle.delays_from(source, targets)
        for target, vectorized in zip(targets, batch):
            comparisons += 1
            scalar = oracle.delay_ms(source, target)
            if scalar != vectorized and not (
                math.isnan(scalar) and math.isnan(float(vectorized))
            ):
                differences.append(
                    {
                        "path": f"delay[{source},{target}]",
                        "detail": f"scalar {scalar!r} != batch "
                        f"{float(vectorized)!r}",
                    }
                )
    return OracleOutcome(
        oracle="delay_oracle",
        equal=not differences,
        differences=differences,
        meta={"seed": seed, "comparisons": comparisons},
    )


def run_episode_pricing_differential(seed: int = 0) -> OracleOutcome:
    """Closed-form episode pricing vs the per-packet event simulator."""
    from ..metrics.stats import within_tolerance
    from ..recovery.episode import BackfillSpec, RepairSource, starvation_episode
    from ..recovery.packet_sim import simulate_episode

    rng = np.random.default_rng(seed)
    differences: List[Dict[str, str]] = []
    comparisons = 0
    for trial in range(24):
        gap = int(rng.integers(0, 120))
        rate = float(rng.uniform(5.0, 60.0))
        sources = [
            RepairSource(
                member_id=i,
                rate_pps=float(rng.uniform(0.0, rate)),
                has_data=bool(rng.integers(0, 4)),
                delay_ms=float(rng.uniform(0.0, 50.0)),
            )
            for i in range(int(rng.integers(1, 5)))
        ]
        backfill = None
        if rng.integers(0, 2):
            backfill = BackfillSpec(
                start_s=float(rng.uniform(0.0, 3.0)),
                rate_pps=float(rng.uniform(1.0, rate)),
                cutoff_seq=int(rng.integers(0, max(1, gap))),
            )
        kwargs = dict(
            gap_packets=gap,
            packet_rate_pps=rate,
            buffer_ahead_s=float(rng.uniform(0.0, 2.0)),
            detect_s=float(rng.uniform(0.0, 1.0)),
            request_hop_s=float(rng.uniform(0.0, 0.2)),
            sources=sources,
            striped=bool(rng.integers(0, 2)),
            backfill=backfill,
        )
        comparisons += 1
        closed = starvation_episode(**kwargs)
        packet = simulate_episode(**kwargs)
        for field in ("gap_packets", "repaired_in_time", "missed_packets"):
            a, b = getattr(closed, field), getattr(packet, field)
            if a != b:
                differences.append(
                    {
                        "path": f"episode[{trial}].{field}",
                        "detail": f"closed-form {a!r} != packet-sim {b!r} "
                        f"(striped={kwargs['striped']}, gap={gap})",
                    }
                )
        # The integer packet counts must match exactly; the derived float
        # fields only to the discretisation the two models share (the
        # existing unit tests pin the same 1e-6 contract).
        for field in ("starving_s", "coverage", "repair_end_s"):
            a, b = getattr(closed, field), getattr(packet, field)
            if not within_tolerance(a, b, rtol=1e-6, atol=1e-6):
                differences.append(
                    {
                        "path": f"episode[{trial}].{field}",
                        "detail": f"closed-form {a!r} != packet-sim {b!r}",
                    }
                )
    return OracleOutcome(
        oracle="episode_pricing",
        equal=not differences,
        differences=differences,
        meta={"seed": seed, "comparisons": comparisons},
    )


# -- execution-path oracles --------------------------------------------------------


def _run_execution_unit(jobs: int):
    """Run the shared small experiment grid; returns per-seed data dicts.

    Fresh in-process caches per call: a differential between two
    execution paths must not let the first leg's cached runs leak into
    the second.
    """
    from ..experiments.common import clear_caches
    from ..experiments.pool import ExperimentJob, run_jobs

    experiment_id, scale, seeds, kwargs = _EXECUTION_UNIT
    clear_caches()
    try:
        batch = [
            ExperimentJob.make(experiment_id, scale=scale, seed=seed, **kwargs)
            for seed in seeds
        ]
        results = run_jobs(batch, parallel_jobs=jobs)
        return [result.data for result in results]
    finally:
        clear_caches()


def run_jobs_differential(seed: int = 0) -> OracleOutcome:
    """Serial in-process execution vs 2-worker process fan-out."""
    serial = _run_execution_unit(jobs=1)
    parallel = _run_execution_unit(jobs=2)
    differences = _diff_payloads(serial, parallel)
    return OracleOutcome(
        oracle="jobs",
        equal=not differences,
        differences=differences,
        meta={"unit": _EXECUTION_UNIT[0], "jobs": [1, 2],
              "comparisons": len(serial)},
    )


def run_resume_differential(seed: int = 0) -> OracleOutcome:
    """Store-recorded + ``--resume``-replayed results vs uninterrupted."""
    fresh = _run_execution_unit(jobs=1)
    base = current()
    with tempfile.TemporaryDirectory(prefix="repro-validate-store-") as root:
        with installed(dataclasses.replace(base, store_dir=root, resume=False)):
            _run_execution_unit(jobs=1)  # record every unit
        with installed(dataclasses.replace(base, store_dir=root, resume=True)):
            replayed = _run_execution_unit(jobs=1)
    differences = _diff_payloads(fresh, replayed)
    return OracleOutcome(
        oracle="resume",
        equal=not differences,
        differences=differences,
        meta={"unit": _EXECUTION_UNIT[0], "comparisons": len(fresh)},
    )


def run_obs_differential(seed: int = 0) -> OracleOutcome:
    """Observability-on vs observability-off: observation must not perturb."""
    plain = _run_execution_unit(jobs=1)
    # execute_job opens its own job_capture(); enabling the channels in
    # the run context is all that is needed for the observed leg.
    with installed(dataclasses.replace(current(), trace=True, metrics=True)):
        observed = _run_execution_unit(jobs=1)
    differences = _diff_payloads(plain, observed)
    return OracleOutcome(
        oracle="obs",
        equal=not differences,
        differences=differences,
        meta={"unit": _EXECUTION_UNIT[0], "comparisons": len(plain)},
    )


#: Registry: oracle name -> callable(seed) -> OracleOutcome.  Pluggable —
#: tests register throwaway oracles to exercise the CLI.
ORACLES: Dict[str, Callable[[int], OracleOutcome]] = {
    "mlc_kernels": run_mlc_kernel_differential,
    "delay_oracle": run_delay_oracle_differential,
    "episode_pricing": run_episode_pricing_differential,
    "jobs": run_jobs_differential,
    "resume": run_resume_differential,
    "obs": run_obs_differential,
}


def run_oracle(name: str, seed: int = 0) -> OracleOutcome:
    try:
        oracle = ORACLES[name]
    except KeyError:
        raise ValidationError(
            f"unknown differential oracle {name!r}; known: {sorted(ORACLES)}"
        ) from None
    return oracle(seed)


def run_oracles(
    names: Optional[Sequence[str]] = None, seed: int = 0
) -> DiffReport:
    """Run the named oracles (default: all) into one report."""
    targets = list(names) if names else sorted(ORACLES)
    return DiffReport(outcomes=[run_oracle(n, seed=seed) for n in targets])
