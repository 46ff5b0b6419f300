"""ObsAttachment: wires tracing/metrics/profiling onto one simulation.

Like :class:`repro.invariants.InvariantChecker`, the attachment is a set
of subscribers on the run's probe bus (:mod:`repro.sim.bus`): the
engine's ``event_pre``/``profile`` points and the overlay's
``disruption``, ``reattach``, ``optimization``, ``switch`` and
``episode_priced`` points.  Protocol and kernel code is never modified,
and when no channel is enabled :meth:`attach` subscribes nothing at all,
preserving the engine's ``trace_pre is None`` fast path.

Counting is done with plain integer attributes in the subscriber
closures (cheaper than any instrument indirection); dispatched events
and control messages are read from the simulator and the message ledger
at :meth:`finalize`, where the metrics registry is populated once.  The registry is therefore a pure
export surface and the counts stay independent of the legacy
:mod:`repro.metrics` collectors — which is what lets the reconciliation
tests assert the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..context import current
from .capture import ObsUnit
from .metrics import Histogram, MetricsRegistry
from .profile import Profiler
from .schema import TRACE_SCHEMA_VERSION
from .trace import TraceWriter


def _event_profile_key(event) -> str:
    label = event.label
    if label:
        return label
    action = event.action
    return getattr(action, "__qualname__", type(action).__name__)


class ObsAttachment:
    """One attachment observes one simulation run.

    ``trace``/``trace_events``/``metrics``/``profile`` default to the
    corresponding flags of the run context (:mod:`repro.context`, the
    channel the CLI uses); tests pass them explicitly.  ``meta``
    identifies the run in artifacts (protocol, population, seed,
    scenario, ...) and supplies the optional fields of the ``run_start``
    record.
    """

    def __init__(
        self,
        meta: Optional[Dict[str, object]] = None,
        trace: Optional[bool] = None,
        trace_events: Optional[bool] = None,
        metrics: Optional[bool] = None,
        profile: Optional[bool] = None,
        trace_path: Optional[str] = None,
    ) -> None:
        self.meta: Dict[str, object] = dict(meta or {})
        context = current()
        self._trace = context.trace if trace is None else trace
        if trace_path is not None:
            self._trace = True
        self._trace_events = (
            context.trace_events if trace_events is None else trace_events
        )
        self._metrics = context.metrics if metrics is None else metrics
        self._profile = context.profile if profile is None else profile
        self.writer: Optional[TraceWriter] = (
            TraceWriter(trace_path) if self._trace else None
        )
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if self._metrics else None
        )
        self.profiler: Optional[Profiler] = Profiler() if self._profile else None

        # Subscriber tallies (plain ints; exported to the registry at
        # finalize).  All are virtual-time deterministic.  Dispatched
        # events and control messages need no subscriber: finalize reads
        # the simulator's and the message ledger's own totals.
        self._fault_activations = 0
        self._disruption_failures = 0
        self._disruption_events = 0  # in-window affected members (legacy mirror)
        self._switches = 0
        self._promotions = 0
        self._opt_reconnections = 0
        self._failure_reconnections = 0
        self._subtree_hist = Histogram()
        # scheme name -> [episodes, gap_packets, repaired_packets]
        self._recovery: Dict[str, List[int]] = {}

        self._churn = None
        self._sim = None
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._trace or self._metrics or self._profile

    def attach(self, target) -> "ObsAttachment":
        """Subscribe to a ChurnSimulation's bus (or that of anything
        exposing ``.churn``, e.g. a
        :class:`~repro.simulation.streaming.RecoverySimulation`, whose
        recovery observer emits the ``episode_priced`` point)."""
        if not self.enabled:
            return self
        churn = getattr(target, "churn", None)
        if churn is None:
            churn = target
        self._churn = churn
        self._sim = churn.sim
        self._emit_run_start(churn)
        self._subscribe_engine(churn.bus)
        if self.writer is not None or self._metrics:
            self._subscribe_overlay(churn)
        return self

    def attach_engine(self, sim) -> "ObsAttachment":
        """Engine-only attachment for bare :class:`Simulator` users.

        Subscribes just the event/fault trace and the profiler; no overlay
        point.  With every channel disabled this is a strict no-op (used
        by the hot-loop overhead regression test).
        """
        if not self.enabled:
            return self
        self._sim = sim
        self._subscribe_engine(sim.bus)
        return self

    # -- wiring ------------------------------------------------------------------------

    def _emit_run_start(self, churn) -> None:
        writer = self.writer
        meta = self.meta
        config = churn.config
        meta.setdefault(
            "kind", "recovery" if "scenario" in meta else "churn"
        )
        meta.setdefault(
            "protocol",
            getattr(churn.protocol, "name", None)
            or type(churn.protocol).__name__,
        )
        meta.setdefault("population", int(config.workload.target_population))
        meta.setdefault("seed", int(config.seed))
        if writer is None:
            return
        record: Dict[str, object] = {
            "type": "run_start",
            "v": TRACE_SCHEMA_VERSION,
            "kind": str(meta["kind"]),
            "protocol": str(meta["protocol"]),
            "population": int(meta["population"]),
            "seed": int(meta["seed"]),
            "horizon_s": float(config.horizon_s),
        }
        for optional in (
            "scenario",
            "scale",
            "replica",
            "switch_interval_s",
            "stripe",
            "trees",
        ):
            value = meta.get(optional)
            if value is not None:
                record[optional] = value
        writer.emit(record)

    def _subscribe_engine(self, bus) -> None:
        writer = self.writer
        if writer is not None or self._metrics:
            trace_events = self._trace_events and writer is not None

            def pre(event) -> None:
                label = event.label
                if trace_events:
                    writer.emit(
                        {
                            "type": "event",
                            "t": float(event.time),
                            "seq": int(event.seq),
                            "label": label,
                            "priority": int(event.priority),
                        }
                    )
                if label and label.startswith("fault:"):
                    self._fault_activations += 1
                    if writer is not None:
                        writer.emit(
                            {
                                "type": "fault",
                                "t": float(event.time),
                                "label": label,
                            }
                        )

            bus.subscribe("event_pre", pre)
        if self.profiler is not None:
            record = self.profiler.record

            def profile(event, wall_s: float) -> None:
                record(_event_profile_key(event), wall_s)

            bus.subscribe("profile", profile)

    def _subscribe_overlay(self, churn) -> None:
        writer = self.writer
        sim = churn.sim
        metrics = churn.metrics
        bus = churn.bus

        def on_disruption(event) -> None:
            self._disruption_failures += 1
            if event.in_window:
                self._disruption_events += event.subtree_size - 1
            self._subtree_hist.observe(event.subtree_size)
            if writer is not None:
                writer.emit(
                    {
                        "type": "disruption",
                        "t": float(event.time),
                        "cause": event.cause,
                        "failed": int(event.failed.member_id),
                        "subtree_size": int(event.subtree_size),
                        "in_window": bool(event.in_window),
                        "co_failed": sorted(
                            int(m) for m in event.co_failed_ids
                        ),
                    }
                )
                for child in sorted(
                    event.failed.children, key=lambda n: n.member_id
                ):
                    writer.emit(
                        {
                            "type": "episode_open",
                            "t": float(event.time),
                            "member": int(child.member_id),
                            "cause": event.cause,
                        }
                    )

        def on_reattach(now: float, orphan) -> None:
            if metrics.in_window(now):
                self._failure_reconnections += 1
            if writer is not None:
                writer.emit(
                    {
                        "type": "episode_close",
                        "t": float(now),
                        "member": int(orphan.member_id),
                    }
                )

        def on_optimization(n: int) -> None:
            if metrics.in_window(sim.now):
                self._opt_reconnections += n

        def on_switch(probe) -> None:
            if probe.op == "swap":
                self._switches += 1
            else:
                self._promotions += 1
            if writer is not None:
                writer.emit(
                    {
                        "type": "switch",
                        "t": float(sim.now),
                        "op": probe.op,
                        "member": int(probe.member.member_id),
                    }
                )

        bus.subscribe("disruption", on_disruption)
        bus.subscribe("reattach", on_reattach)
        bus.subscribe("optimization", on_optimization)
        bus.subscribe("switch", on_switch)
        if self._metrics:
            bus.subscribe("episode_priced", self._on_episode_priced)

    def _on_episode_priced(self, probe) -> None:
        """Per-scheme episode, gap and repaired-packet tallies."""
        members = len(probe.members)
        result = probe.observer.results[probe.scheme.name]
        tally = self._recovery.get(probe.scheme.name)
        if tally is None:
            tally = self._recovery[probe.scheme.name] = [0, 0, 0]
        tally[0] += members
        tally[1] += probe.gap_packets * members
        tally[2] += result.repaired_packets_total - probe.totals_before[3]

    # -- export ------------------------------------------------------------------------

    def _events_processed(self) -> int:
        return self._sim.events_processed if self._sim is not None else 0

    def _populate_registry(self) -> None:
        registry = self.registry
        if registry is None:
            return
        registry.counter("sim", "events_processed").inc(self._events_processed())
        registry.counter("faults", "activations").inc(self._fault_activations)
        if self._churn is not None:
            counter = registry.counter
            counter("overlay", "disruption_failures").inc(self._disruption_failures)
            counter("overlay", "disruption_events").inc(self._disruption_events)
            counter("overlay", "optimization_reconnections").inc(
                self._opt_reconnections
            )
            counter("overlay", "failure_reconnections").inc(
                self._failure_reconnections
            )
            counter("overlay", "control_messages").inc(
                self._churn.ctx.messages.total
            )
            counter("overlay", "tree_switch_ops").inc(self._switches)
            counter("overlay", "tree_promotions").inc(self._promotions)
            hist = registry.histogram("overlay", "disruption_subtree_size")
            if self._subtree_hist.count:
                hist.count = self._subtree_hist.count
                hist.total = self._subtree_hist.total
                hist.min = self._subtree_hist.min
                hist.max = self._subtree_hist.max
            protocol = self._churn.protocol
            for name in ("switches", "promotions", "lock_failures"):
                if hasattr(protocol, name):
                    counter("rost", name).inc(int(getattr(protocol, name)))
            registry.gauge("sim", "pending_events_final").set(
                float(self._sim.pending_events)
            )
            registry.gauge("overlay", "final_attached").set(
                float(self._churn.tree.num_attached)
            )
        for scheme_name, (episodes, gap, repaired) in sorted(
            self._recovery.items()
        ):
            registry.counter("recovery", f"episodes.{scheme_name}").inc(episodes)
            registry.counter("recovery", f"gap_packets.{scheme_name}").inc(gap)
            registry.counter("recovery", f"repaired_packets.{scheme_name}").inc(
                repaired
            )

    def finalize(self, result=None) -> ObsUnit:
        """Emit the run_end record, snapshot metrics, build the unit.

        Safe to call once; the unit is also handed to the ambient
        :func:`~repro.obs.capture.job_capture` by the *caller* (the
        cached run helpers need to stash the unit for replay, so emission
        stays their responsibility).
        """
        if self._finalized:
            raise ValueError("ObsAttachment.finalize called twice")
        self._finalized = True
        del result  # reserved for future schema additions
        if not self.enabled:
            return ObsUnit(meta=dict(self.meta))
        writer = self.writer
        if writer is not None and self._sim is not None:
            writer.emit(
                {
                    "type": "run_end",
                    "t": float(self._sim.now),
                    "events_processed": int(self._events_processed()),
                    "disruptions": int(self._disruption_events),
                    "switches": int(self._switches + self._promotions),
                }
            )
        self._populate_registry()
        trace_lines: List[str] = []
        if writer is not None:
            if writer._path is not None:
                writer.close()
            else:
                trace_lines = list(writer.lines)
        return ObsUnit(
            meta=dict(self.meta),
            trace_lines=trace_lines,
            metrics=self.registry.snapshot() if self.registry else {},
            profile=self.profiler.as_dict() if self.profiler else {},
        )
