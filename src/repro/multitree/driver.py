"""The K-tree churn orchestrator.

Runs K stripe trees over the *same* member population and underlay.
Each member is interior-capable only in its **home tree** (member id
modulo K — the SplitStream interior-disjointness rule); in the other
trees it joins with zero out-degree.  The multicast source serves every
stripe, its outbound budget split evenly, which leaves it the same
per-tree fan-out as in the single-tree system (each stripe carries 1/K
of the rate).

Stripe trees are *independent* given the capacity assignment — they
share no overlay state — so the orchestrator composes K single-tree
simulations over one workload and combines their outage timelines:

* a member's **stripe outage** is the real detach→reattach (or
  detach→departure) window an upstream failure opens in one stripe,
  recorded by that stripe's :class:`~repro.metrics.collectors.
  ResilienceMetrics` (quality degrades by 1/K);
* a **blackout** is an instant where *all* K stripes are down at once —
  the single-tree "streaming disruption" equivalent, which
  interior-disjointness is designed to make rare.

Beyond the original sketch, the orchestrator composes the rest of the
stack per stripe:

* **protocols** — each stripe tree can run a different registered
  protocol (``stripe_protocols``), and ``switch_interval_s`` enables
  periodic BTP switching inside every stripe;
* **repair** — a scheme grid turns every stripe into a
  :class:`~repro.simulation.streaming.RecoverySimulation` (CER/MLC per
  stripe) with the residual-bandwidth budget split evenly across
  stripes;
* **faults** — a :class:`~repro.faults.schedule.FaultSchedule` is
  planned once by :class:`~repro.multitree.faults.StripeFaultPlanner`
  and replayed into every stripe, so a correlated crash removes the
  member from *all* trees atomically;
* **observability** — per-stripe trace attachments plus
  ``stripe_outage_open``/``stripe_outage_close`` records driven by the
  resilience outage callbacks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..config import SimulationConfig
from ..faults.injector import _chain, wire_resilience
from ..faults.schedule import FaultSchedule
from ..metrics.collectors import ResilienceMetrics
from ..metrics.stats import mean_and_ci
from ..overlay.node import OverlayNode
from ..protocols import PROTOCOLS
from ..simulation.churn import ChurnRunResult, ChurnSimulation
from ..simulation.streaming import RecoverySimulation
from ..workload.generator import ChurnWorkload
from .faults import StripeFaultPlanner
from .metrics import MultiTreeResilienceMetrics


def home_tree(member_id: int, num_trees: int) -> int:
    """The one stripe where ``member_id`` is interior-capable
    (SplitStream interior-disjointness: member id modulo K)."""
    return member_id % num_trees


ProtocolSpec = Union[str, Callable]


def _resolve_protocol(spec: ProtocolSpec) -> Callable:
    """A registered protocol name, or any factory callable, per stripe."""
    if isinstance(spec, str):
        return PROTOCOLS[spec]
    if callable(spec):
        return spec
    raise TypeError(f"stripe protocol must be a name or factory, got {spec!r}")


def _protocol_label(spec: ProtocolSpec) -> str:
    if isinstance(spec, str):
        return spec
    return getattr(spec, "protocol_name", None) or getattr(
        spec, "__name__", type(spec).__name__
    )


@dataclass
class MultiTreeResult:
    """Combined metrics of a K-tree run."""

    num_trees: int
    #: Per-stripe run results (ChurnRunResult, or RecoveryRunResult when a
    #: scheme grid was evaluated per stripe).
    per_tree: List
    #: Stripe outages experienced per member lifetime (mean over departed
    #: members): how often *some* stripe was interrupted.
    stripe_disruptions_per_node: float
    #: Blackouts (all stripes down simultaneously) per member lifetime.
    blackouts_per_node: float
    #: Mean fraction of the stream delivered over members' lifetimes
    #: (1 - lost stripe-time / (K * view time)).
    mean_delivered_quality: float
    #: Mean over members of max-over-stripes service delay (all stripes
    #: are needed, so the slowest stripe gates playback).
    effective_delay_ms: float
    members_measured: int
    #: Fraction of member view-time spent in total blackout.
    blackout_rate: float = 0.0
    #: Fraction of member stripe-time (K x view) lost to outages.
    stripe_outage_rate: float = 0.0
    #: Time-binned blackout/outage/quality series (see multitree.metrics).
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: Full resilience aggregate, JSON-ready.
    resilience: Dict[str, object] = field(default_factory=dict)
    #: Injected faults that fired: (time, kind, detail) per fault.
    fault_log: List[Tuple[float, str, dict]] = field(default_factory=list)
    #: The protocol running in each stripe, by label.
    stripe_protocols: Tuple[str, ...] = ()

    @property
    def avg_tree_delay_ms(self) -> float:
        mean, _ = mean_and_ci(
            [getattr(r, "churn", r).avg_service_delay_ms for r in self.per_tree]
        )
        return mean


class MultiTreeSimulation:
    """Compose K stripe-tree simulations over one workload."""

    def __init__(
        self,
        config: SimulationConfig,
        protocol_factory: Optional[Callable] = None,
        num_trees: int = 2,
        topology=None,
        oracle=None,
        workload: Optional[ChurnWorkload] = None,
        stripe_protocols: Optional[Sequence[ProtocolSpec]] = None,
        switch_interval_s: Optional[float] = None,
        schemes: Optional[Sequence] = None,
        faults: Optional[FaultSchedule] = None,
        check_invariants=False,
        obs_meta: Optional[Dict[str, object]] = None,
    ):
        if num_trees < 1:
            raise ValueError(f"num_trees must be >= 1, got {num_trees}")
        self.num_trees = num_trees
        self.base_config = config
        self.schemes = list(schemes) if schemes else None
        stripe_rate = config.workload.stream_rate / num_trees
        # Per-stripe config: the stripe carries 1/K of the rate and the
        # source commits 1/K of its outbound budget to it.
        stripe_config = dataclasses.replace(
            config,
            workload=dataclasses.replace(
                config.workload,
                stream_rate=stripe_rate,
                root_bandwidth=config.workload.root_bandwidth / num_trees,
            ),
        )
        if switch_interval_s is not None:
            stripe_config = stripe_config.with_switch_interval(switch_interval_s)
        if self.schemes:
            # The residual repair budget is a per-member resource; split it
            # evenly so K stripes together spend what one tree would.
            stripe_config = dataclasses.replace(
                stripe_config,
                recovery=dataclasses.replace(
                    stripe_config.recovery,
                    residual_max_pps=config.recovery.residual_max_pps / num_trees,
                ),
            )
        self.stripe_config = stripe_config

        if stripe_protocols is None:
            if protocol_factory is None:
                raise ValueError(
                    "provide protocol_factory or stripe_protocols"
                )
            specs: List[ProtocolSpec] = [protocol_factory] * num_trees
        else:
            specs = list(stripe_protocols)
            if len(specs) == 1:
                specs = specs * num_trees
            if len(specs) != num_trees:
                raise ValueError(
                    f"stripe_protocols needs 1 or {num_trees} entries, "
                    f"got {len(specs)}"
                )
        self.stripe_protocol_names: Tuple[str, ...] = tuple(
            _protocol_label(spec) for spec in specs
        )

        self._sims: List = []
        self._churns: List[ChurnSimulation] = []
        self.stripe_resilience: List[ResilienceMetrics] = []
        self._measured: Dict[int, Tuple[float, float]] = {}
        self._attachments: List = [None] * num_trees
        self._obs_meta = dict(obs_meta or {})
        self.resilience = MultiTreeResilienceMetrics(
            num_trees, stripe_config.warmup_s, stripe_config.horizon_s
        )

        for tree_index in range(num_trees):

            def member_setup(node: OverlayNode, tree_index=tree_index) -> None:
                if home_tree(node.member_id, self.num_trees) == tree_index:
                    # Home tree: full forwarding capacity, measured against
                    # the stripe rate.
                    node.out_degree_cap = int(
                        node.bandwidth / self.stripe_config.workload.stream_rate
                    )
                else:
                    # Leaf everywhere else (interior-disjointness).
                    node.out_degree_cap = 0

            seeded = self.stripe_config.with_seed(config.seed * 7 + tree_index)
            factory = _resolve_protocol(specs[tree_index])
            # A callable (non-bool) check_invariants is a factory: each
            # stripe simulation gets its own fresh checker instance (a
            # checker binds to exactly one simulation).
            stripe_check = (
                check_invariants()
                if callable(check_invariants)
                else check_invariants
            )
            if self.schemes:
                sim = RecoverySimulation(
                    seeded,
                    factory,
                    self.schemes,
                    topology=topology,
                    oracle=oracle,
                    workload=workload,
                    member_setup=member_setup,
                    check_invariants=stripe_check,
                )
                churn = sim.churn
            else:
                sim = churn = ChurnSimulation(
                    seeded,
                    factory,
                    topology=topology,
                    oracle=oracle,
                    workload=workload,
                    member_setup=member_setup,
                    check_invariants=stripe_check,
                )
            # All stripes share one underlay and one workload.
            topology, oracle = churn.topology, churn.oracle
            if workload is None:
                workload = churn.workload

            resilience = ResilienceMetrics(
                seeded.warmup_s, seeded.horizon_s
            )
            resilience.outage_opened = self._outage_opened_for(tree_index)
            resilience.outage_closed = self._outage_closed_for(tree_index)
            # RecoverySimulation installs its own observers in its ctor;
            # chain ours after the fact, never replace.
            wire_resilience(churn, resilience)
            if tree_index == 0:
                churn.departure_observer = _chain(
                    churn.departure_observer, self._capture_departure
                )
            self._sims.append(sim)
            self._churns.append(churn)
            self.stripe_resilience.append(resilience)
        self.topology, self.oracle, self.workload = topology, oracle, workload

        self.fault_planner: Optional[StripeFaultPlanner] = None
        if faults is not None:
            self.fault_planner = StripeFaultPlanner(
                faults, self.workload, self.topology
            )
            for tree_index, churn in enumerate(self._churns):
                self.fault_planner.bind_stripe(
                    tree_index, churn, self.stripe_resilience[tree_index]
                )

    @property
    def invariant_checkers(self) -> List:
        """Per-stripe attached checkers (``None`` entries when disabled)."""
        return [churn.invariant_checker for churn in self._churns]

    # -- hooks ------------------------------------------------------------------

    def _capture_departure(self, now: float, node: OverlayNode) -> None:
        """Record (join, departure) of members measured inside the window.

        Departure bookkeeping only runs once, on stripe 0 — the workload
        (and hence the member timeline) is shared across stripes.
        """
        if not node.ever_attached:
            return
        if not self._churns[0].metrics.in_window(now):
            return
        self._measured[node.member_id] = (node.join_time, now)

    def _outage_opened_for(self, tree_index: int):
        def opened(t: float, member_id: int, cause: str) -> None:
            self.resilience.stripe_opened(member_id)
            attachment = self._attachments[tree_index]
            if attachment is not None and attachment.writer is not None:
                attachment.writer.emit(
                    {
                        "type": "stripe_outage_open",
                        "t": float(t),
                        "member": int(member_id),
                        "stripe": tree_index,
                        "cause": str(cause),
                    }
                )

        return opened

    def _outage_closed_for(self, tree_index: int):
        def closed(start: float, end: float, member_id: int, cause: str) -> None:
            self.resilience.stripe_closed(member_id)
            attachment = self._attachments[tree_index]
            if attachment is not None and attachment.writer is not None:
                attachment.writer.emit(
                    {
                        "type": "stripe_outage_close",
                        "t": float(end),
                        "member": int(member_id),
                        "stripe": tree_index,
                    }
                )

        return closed

    def _attach_obs(self) -> None:
        from ..context import current

        if not current().observed:
            return
        from ..obs.attach import ObsAttachment

        for tree_index, sim in enumerate(self._sims):
            meta: Dict[str, object] = dict(self._obs_meta)
            meta.update(
                {
                    "kind": "multitree",
                    "protocol": self.stripe_protocol_names[tree_index],
                    "population": int(
                        self.base_config.workload.target_population
                    ),
                    "seed": int(self.base_config.seed),
                    "stripe": tree_index,
                    "trees": self.num_trees,
                }
            )
            self._attachments[tree_index] = ObsAttachment(meta=meta).attach(sim)

    # -- run ----------------------------------------------------------------------

    def run(self) -> MultiTreeResult:
        self._attach_obs()
        results = [sim.run() for sim in self._sims]
        for tree_index, resilience in enumerate(self.stripe_resilience):
            resilience.finish(self._churns[tree_index].sim.now)
        result = self._combine(results)
        if any(a is not None for a in self._attachments):
            from ..obs.capture import emit_unit

            for attachment in self._attachments:
                if attachment is not None:
                    emit_unit(attachment.finalize(result))
        return result

    def _combine(self, results: Sequence) -> MultiTreeResult:
        aggregate = self.resilience
        for member_id in sorted(self._measured):
            join_s, departure_s = self._measured[member_id]
            per_stripe = [
                r.outage_intervals.get(member_id, [])
                for r in self.stripe_resilience
            ]
            aggregate.observe_member(member_id, join_s, departure_s, per_stripe)

        effective_delay = self._effective_delay()
        return MultiTreeResult(
            num_trees=self.num_trees,
            per_tree=list(results),
            stripe_disruptions_per_node=aggregate.stripe_outages_per_node,
            blackouts_per_node=aggregate.blackouts_per_node,
            mean_delivered_quality=aggregate.mean_delivered_quality,
            effective_delay_ms=effective_delay,
            members_measured=aggregate.members_measured,
            blackout_rate=aggregate.blackout_rate,
            stripe_outage_rate=aggregate.stripe_outage_rate,
            series=aggregate.series(),
            resilience=aggregate.as_dict(),
            fault_log=list(self.fault_planner.log) if self.fault_planner else [],
            stripe_protocols=self.stripe_protocol_names,
        )

    def _effective_delay(self) -> float:
        """Mean over members of the slowest stripe's delay (end state)."""
        delays: List[float] = []
        for member_id in self._churns[0].tree.members:
            if member_id == 0:
                continue
            per_stripe = []
            for churn in self._churns:
                node = churn.tree.members.get(member_id)
                if node is None or not node.attached:
                    break
                per_stripe.append(churn.ctx.service_delay_ms(node))
            else:
                delays.append(max(per_stripe))
        mean, _ = mean_and_ci(delays or [float("nan")])
        return mean
