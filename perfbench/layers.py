"""The layers the benchmark times, and the per-layer metrics built from them.

Each layer is named after the repro module that owns it.  The probes wrap
the public entry points of that module (plus ROST's periodic switch
check, the protocol decision that is not reached through ``place``), and
:func:`layer_metrics` turns the recorded spans and counters into the
``per_layer`` metrics of ``BENCHMARK.json``.  README.md lists which
end-to-end metric each one should move.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict, List, Optional

from spans import EVENTS, Probe

#: Functions whose outermost calls form ``tree.mutations``.
TREE_MUTATORS = ("attach", "detach", "remove_departed", "swap_with_parent", "promote_to_grandparent")
CHURN_METRICS_RECORDERS = (
    "record_population",
    "record_disruptions",
    "record_optimization_reconnections",
    "record_failure_reconnection",
    "record_departure",
    "record_arrival",
    "record_tree_sample",
)
PROTOCOL_ENTRY_POINTS = ("place", "on_departure", "on_recovery_lock")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_sample(args, kwargs, result):
    return {"membership.requested": _arg(args, kwargs, 1, "k"), "membership.returned": len(result)}


def _count_place(args, kwargs, result):
    return {"protocols.place_failed": 0 if result else 1}


def _count_pairs(args, kwargs, result):
    return {"oracle.pairs": len(result) if hasattr(result, "__len__") else 1}


def _count_sessions(args, kwargs, result):
    return {"workload.sessions": len(result.sessions)}


def _count_episodes(args, kwargs, result):
    return {"recovery.episodes": sum(s.episodes for s in result.schemes.values())}


def _count_retries(args, kwargs, result):
    return {"pool.retries": args[0].retried_jobs}


def _count_refs(args, kwargs, result):
    return {"units.refs": len(result) if result else 0}


def _count_payload(args, kwargs, result):
    return {"units.payload_bytes": len(result)}


def _count_artifact(args, kwargs, result):
    return {"store.bytes_written": len(args[1])}


def _count_trace(args, kwargs, result):
    return {"obs.trace_records": len(args[1]), "obs.trace_bytes": os.path.getsize(args[0])}


def _protocol_probes() -> List[Probe]:
    from repro.protocols import PROTOCOLS

    probes, seen = [], set()
    for protocol in PROTOCOLS.values():
        for cls in protocol.__mro__:
            for name in PROTOCOL_ENTRY_POINTS:
                if name in cls.__dict__ and (cls, name) not in seen:
                    seen.add((cls, name))
                    probes.append(
                        Probe(
                            "protocols",
                            f"{cls.__module__}:{cls.__qualname__}.{name}",
                            _count_place if name == "place" else None,
                        )
                    )
    probes.append(Probe("protocols", "repro.protocols.rost.protocol:RostProtocol._switch_check"))
    return probes


def task_probes() -> List[Probe]:
    """The pool's top-level task entry points.

    Installed in every run, traced or not: they flush each worker's event
    count and peak memory for the parent, one write per task.
    """
    return [
        Probe("experiments", "repro.experiments.pool:execute_job", task=True),
        Probe("units", "repro.experiments.units:run_unit_task", _count_payload, task=True),
    ]


#: Modules that import probed functions by name: loaded before the
#: wrappers go in, so their aliases are patched too.
PRELOAD = (
    "repro.experiments",
    "repro.experiments.runner",
    "repro.simulation.streaming",
    "repro.obs.attach",
    "repro.obs.trace",
    "repro.store.runstore",
    "repro.store.artifacts",
)


def all_probes() -> List[Probe]:
    """Every probe of the traced run (loads :data:`PRELOAD` first)."""
    for module in PRELOAD:
        importlib.import_module(module)
    probes = [
        Probe("sim", "repro.sim.engine:Simulator.run_until"),
        Probe("sim", "repro.sim.engine:Simulator.run"),
        Probe("membership", "repro.overlay.membership:MembershipService.sample", _count_sample),
        Probe("membership", "repro.overlay.membership:MembershipService.sample_for"),
        Probe("membership", "repro.overlay.membership:MembershipService.random_member"),
        *_protocol_probes(),
        *(Probe("tree", f"repro.overlay.tree:MulticastTree.{name}") for name in TREE_MUTATORS),
        Probe("oracle", "repro.topology.routing:DelayOracle.delay_ms", _count_pairs),
        Probe("oracle", "repro.topology.routing:DelayOracle.delays_from", _count_pairs),
        Probe("topology", "repro.topology.cache:TopologyCache.get"),
        Probe("workload", "repro.workload.generator:generate_workload", _count_sessions),
        *(Probe("metrics", f"repro.metrics.collectors:ChurnMetrics.{name}") for name in CHURN_METRICS_RECORDERS),
        Probe("metrics", "repro.overlay.messages:MessageStats.record"),
        Probe("recovery", "repro.recovery.mlc:PartialTreeView.from_members"),
        Probe("recovery", "repro.recovery.mlc:select_mlc_group"),
        Probe("recovery", "repro.recovery.mlc:select_random_group"),
        Probe("recovery", "repro.recovery.episode:starvation_episode"),
        Probe("recovery", "repro.simulation.streaming:RecoverySimulation.run", _count_episodes, count_only=True),
        Probe("pool", "repro.experiments.pool:run_jobs"),
        Probe("pool", "repro.experiments.pool:ExperimentPool.run", _count_retries),
        *task_probes(),
        Probe("units", "repro.experiments.units:_payload"),
        Probe("units", "repro.experiments.units:seed_unit"),
        Probe("units", "repro.experiments.units:units_for", _count_refs, count_only=True),
        Probe("store", "repro.store.runstore:RunStore.record_sim_unit"),
        Probe("store", "repro.store.runstore:RunStore.record_result"),
        Probe("store", "repro.store.runstore:RunStore.record_run"),
        Probe("store", "repro.store.artifacts:ArtifactStore.put", _count_artifact),
        Probe("obs", "repro.obs.attach:ObsAttachment.attach"),
        Probe("obs", "repro.obs.attach:ObsAttachment.finalize"),
        Probe("obs", "repro.obs.trace:write_trace_lines", _count_trace),
    ]
    return probes


#: ``per_layer`` metric name -> unit, in report order.
LAYER_METRICS: Dict[str, str] = {
    "sim.events": "count",
    "sim.self_s": "s",
    "membership.calls": "count",
    "membership.busy_s": "s",
    "membership.fill_ratio": "ratio",
    "membership.wall_share": "ratio",
    "protocols.place_calls": "count",
    "protocols.self_s": "s",
    "protocols.place_fail_ratio": "ratio",
    "tree.mutations": "count",
    "tree.busy_s": "s",
    "oracle.pairs": "count",
    "oracle.busy_s": "s",
    "topology.build_s": "s",
    "workload.sessions": "count",
    "workload.generate_s": "s",
    "metrics.records": "count",
    "metrics.busy_s": "s",
    "recovery.views": "count",
    "recovery.view_s": "s",
    "recovery.selects": "count",
    "recovery.select_s": "s",
    "recovery.pricings": "count",
    "recovery.pricing_s": "s",
    "recovery.pricings_per_episode": "ratio",
    "pool.parent_wait_s": "s",
    "pool.worker_busy_share": "ratio",
    "pool.critical_unit_s": "s",
    "pool.dedup_ratio": "ratio",
    "pool.retries": "count",
    "units.payload_bytes": "bytes",
    "units.encode_s": "s",
    "units.decode_s": "s",
    "store.records": "count",
    "store.record_s": "s",
    "store.bytes_written": "bytes",
    "obs.attach_s": "s",
    "obs.finalize_s": "s",
    "obs.trace_records": "count",
    "obs.trace_bytes": "bytes",
    "trace_overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(parent: dict, workers: List[dict], merged: dict, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run (``trace_overhead_ratio`` aside).

    ``merged`` sums ``parent`` and ``workers`` (see
    :func:`spans.merge_dumps`); the pool metrics read the two sides apart.
    """
    functions, layers, counters = merged["functions"], merged["layers"], merged["counters"]

    def layer(name: str, field: int) -> float:
        return layers.get(name, (0, 0.0, 0.0))[field]

    def fn(name: str, field: int, where: Optional[dict] = None) -> float:
        return (where or functions).get(name, (0, 0, 0.0, 0.0, 0.0))[field]

    def fns(suffix: str, field: int) -> float:
        return sum(stats[field] for name, stats in functions.items() if name.endswith(suffix))

    def count(name: str) -> float:
        return counters.get(name, 0)

    place_calls = fns(".place", 1)
    pricings = fn("starvation_episode", 1)
    tasks = ("execute_job", "run_unit_task")
    worker_busy = sum(fn(task, 2, w["functions"]) for w in workers for task in tasks)
    pool_wall = fn("run_jobs", 2, parent["functions"])
    return {
        "sim.events": count(EVENTS),
        "sim.self_s": layer("sim", 2),
        "membership.calls": layer("membership", 0),
        "membership.busy_s": layer("membership", 1),
        "membership.fill_ratio": _ratio(count("membership.returned"), count("membership.requested")),
        "membership.wall_share": _ratio(layer("membership", 1), wall_s),
        "protocols.place_calls": place_calls,
        "protocols.self_s": layer("protocols", 2),
        "protocols.place_fail_ratio": _ratio(count("protocols.place_failed"), place_calls),
        "tree.mutations": layer("tree", 0),
        "tree.busy_s": layer("tree", 1),
        "oracle.pairs": count("oracle.pairs"),
        "oracle.busy_s": layer("oracle", 1),
        "topology.build_s": layer("topology", 1),
        "workload.sessions": count("workload.sessions"),
        "workload.generate_s": layer("workload", 1),
        "metrics.records": layer("metrics", 0),
        "metrics.busy_s": layer("metrics", 1),
        "recovery.views": fn("PartialTreeView.from_members", 1),
        "recovery.view_s": fn("PartialTreeView.from_members", 2),
        "recovery.selects": fn("select_mlc_group", 1) + fn("select_random_group", 1),
        "recovery.select_s": fn("select_mlc_group", 2) + fn("select_random_group", 2),
        "recovery.pricings": pricings,
        "recovery.pricing_s": fn("starvation_episode", 2),
        "recovery.pricings_per_episode": _ratio(pricings, count("recovery.episodes")),
        "pool.parent_wait_s": parent["layers"].get("pool", (0, 0.0, 0.0))[2],
        "pool.worker_busy_share": _ratio(worker_busy, len(workers) * pool_wall),
        "pool.critical_unit_s": max([fn(task, 4, w["functions"]) for w in workers for task in tasks] or [0.0]),
        "pool.dedup_ratio": _ratio(fn("run_unit_task", 1), count("units.refs")),
        "pool.retries": count("pool.retries"),
        "units.payload_bytes": count("units.payload_bytes"),
        "units.encode_s": fn("run_unit_task", 3) + fn("_payload", 2),
        "units.decode_s": fn("seed_unit", 2),
        "store.records": layer("store", 0),
        "store.record_s": layer("store", 1),
        "store.bytes_written": count("store.bytes_written"),
        "obs.attach_s": fn("ObsAttachment.attach", 2),
        "obs.finalize_s": fn("ObsAttachment.finalize", 2),
        "obs.trace_records": count("obs.trace_records"),
        "obs.trace_bytes": count("obs.trace_bytes"),
    }


def self_time_total(merged: dict) -> float:
    """Self time summed over every layer (partitions the traced time)."""
    return sum(stats[2] for stats in merged["layers"].values())
