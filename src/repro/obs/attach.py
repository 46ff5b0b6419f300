"""ObsAttachment: wires tracing/metrics/profiling onto one simulation.

Follows the :class:`repro.invariants.InvariantChecker` attachment
pattern exactly — the observation surface is the engine's
``trace_pre``/``trace_post``/``profile`` hooks, the churn simulation's
observer callbacks, and per-instance wraps of a handful of overlay
operations.  Protocol and kernel code is never modified, every hook
chains the previously-installed callback, and when no channel is
enabled :meth:`attach` installs nothing at all, preserving the engine's
``trace_pre is None`` fast path.

Counting is done with plain integer attributes in the hook closures
(cheaper than any instrument indirection); the metrics registry is
populated once at :meth:`finalize`.  The registry is therefore a pure
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

        # Hot-loop tallies (plain ints; exported to the registry at
        # finalize).  All are virtual-time deterministic.
        self._events_dispatched = 0
        self._fault_activations = 0
        self._disruption_failures = 0
        self._disruption_events = 0  # in-window affected members (legacy mirror)
        self._switches = 0
        self._promotions = 0
        self._opt_reconnections = 0
        self._failure_reconnections = 0
        self._control_messages = 0
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
        """Attach to a ChurnSimulation (or anything exposing ``.churn``).

        A :class:`~repro.simulation.streaming.RecoverySimulation` is
        recognised by its ``observer`` attribute and gets the recovery
        episode surface wired automatically.
        """
        if not self.enabled:
            return self
        churn = getattr(target, "churn", None)
        if churn is None:
            churn = target
        self._churn = churn
        self._sim = churn.sim
        self._emit_run_start(churn)
        self._chain_engine_hooks(churn.sim)
        self._chain_observers(churn)
        self._wrap_tree_switches(churn)
        self._wrap_messages(churn)
        observer = getattr(target, "observer", None)
        if observer is not None:
            self.attach_recovery(observer)
        return self

    def attach_engine(self, sim) -> "ObsAttachment":
        """Engine-only attachment for bare :class:`Simulator` users.

        Installs just the event/fault trace hooks and the profiler; no
        overlay surface is touched.  With every channel disabled this is
        a strict no-op (used by the hot-loop overhead regression test).
        """
        if not self.enabled:
            return self
        self._sim = sim
        self._chain_engine_hooks(sim)
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

    def _chain_engine_hooks(self, sim) -> None:
        writer = self.writer
        if writer is not None or self._metrics:
            prev_pre = sim.trace_pre
            prev_post = sim.trace_post
            trace_events = self._trace_events and writer is not None

            def pre(event) -> None:
                if prev_pre is not None:
                    prev_pre(event)
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

            def post(event) -> None:
                if prev_post is not None:
                    prev_post(event)
                self._events_dispatched += 1

            sim.trace_pre = pre
            sim.trace_post = post
        if self.profiler is not None:
            prev_profile = sim.profile
            profiler = self.profiler

            def profile(event, wall_s: float) -> None:
                if prev_profile is not None:
                    prev_profile(event, wall_s)
                profiler.record(_event_profile_key(event), wall_s)

            sim.profile = profile

    def _chain_observers(self, churn) -> None:
        writer = self.writer
        sim = churn.sim
        metrics = churn.metrics

        prev_disruption = churn.disruption_observer

        def on_disruption(event) -> None:
            if prev_disruption is not None:
                prev_disruption(event)
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

        churn.disruption_observer = on_disruption

        prev_reattach = churn.reattach_observer

        def on_reattach(now: float, orphan) -> None:
            if prev_reattach is not None:
                prev_reattach(now, orphan)
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

        churn.reattach_observer = on_reattach

        protocol = churn.protocol
        if hasattr(protocol, "overhead_callback"):
            prev_overhead = protocol.overhead_callback

            def on_overhead(n: int) -> None:
                if prev_overhead is not None:
                    prev_overhead(n)
                if metrics.in_window(sim.now):
                    self._opt_reconnections += n

            protocol.overhead_callback = on_overhead

    def _wrap_tree_switches(self, churn) -> None:
        tree = churn.tree
        sim = churn.sim
        writer = self.writer
        orig_swap = tree.swap_with_parent
        orig_promote = tree.promote_to_grandparent

        def traced_swap(child, overflow_priority):
            result = orig_swap(child, overflow_priority)
            self._switches += 1
            if writer is not None:
                writer.emit(
                    {
                        "type": "switch",
                        "t": float(sim.now),
                        "op": "swap",
                        "member": int(child.member_id),
                    }
                )
            return result

        def traced_promote(node):
            result = orig_promote(node)
            self._promotions += 1
            if writer is not None:
                writer.emit(
                    {
                        "type": "switch",
                        "t": float(sim.now),
                        "op": "promote",
                        "member": int(node.member_id),
                    }
                )
            return result

        tree.swap_with_parent = traced_swap
        tree.promote_to_grandparent = traced_promote

    def _wrap_messages(self, churn) -> None:
        stats = churn.ctx.messages
        # Anything recorded before attach (normally nothing) still counts.
        self._control_messages = stats.total
        orig_record = stats.record

        def counted_record(message_type, count: int = 1) -> None:
            orig_record(message_type, count)
            self._control_messages += count

        stats.record = counted_record

    def attach_recovery(self, observer) -> "ObsAttachment":
        """Wrap the recovery observer's episode pricing (per scheme)."""
        if not (self._trace or self._metrics):
            return self
        orig_apply = observer._apply_episode

        def counted_apply(scheme, now, members, sources, gap_packets, backfill=None):
            result = observer.results[scheme.name]
            repaired_before = result.repaired_packets_total
            orig_apply(scheme, now, members, sources, gap_packets, backfill)
            tally = self._recovery.get(scheme.name)
            if tally is None:
                tally = self._recovery[scheme.name] = [0, 0, 0]
            tally[0] += len(members)
            tally[1] += gap_packets * len(members)
            tally[2] += result.repaired_packets_total - repaired_before

        observer._apply_episode = counted_apply
        return self

    # -- export ------------------------------------------------------------------------

    def _populate_registry(self) -> None:
        registry = self.registry
        if registry is None:
            return
        registry.counter("sim", "events_processed").inc(self._events_dispatched)
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
            counter("overlay", "control_messages").inc(self._control_messages)
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
                    "events_processed": int(self._events_dispatched),
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
