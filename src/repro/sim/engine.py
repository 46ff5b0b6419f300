"""The simulation engine: a virtual clock driving an event queue."""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, Optional

from ..errors import SimulationError
from .bus import Bus
from .events import Event, EventQueue

#: Process-wide count of events dispatched by every Simulator instance.
#: Accumulated once per run (not per event) so the hot loop stays clean;
#: benchmarks snapshot it around a figure to report per-figure workload.
_TOTAL_EVENTS = 0


def total_events_processed() -> int:
    """Events dispatched by all simulators in this process so far."""
    return _TOTAL_EVENTS


class Simulator:
    """Single-threaded discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule_at(10.0, lambda: print("fires at t=10"))
        sim.run_until(100.0)
    """

    #: Per-event observation slots: ``trace_pre(event)`` runs after the
    #: clock advances but before the action, ``trace_post(event)`` after
    #: the action returns (a quiescent point — no handler is on the
    #: stack), ``profile(event, wall_s)`` after each action with its
    #: wall-clock duration.  ``None`` (the default) costs one check per
    #: event and keeps the loop free of timing calls.  Only the bus
    #: (:attr:`bus`, :mod:`repro.sim.bus`) writes them, when something
    #: subscribes to its ``event_pre``/``event_post``/``profile`` points.
    trace_pre: Optional[Callable[[Event], None]] = None
    trace_post: Optional[Callable[[Event], None]] = None
    profile: Optional[Callable[[Event, float], None]] = None

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        #: The run's observation bus (engine, tree, driver probe points).
        self.bus = Bus(self)

    @property
    def event_queue(self) -> EventQueue:
        """The underlying queue (read-only diagnostic surface)."""
        return self._queue

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired events."""
        return len(self._queue)

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute virtual time ``time``.

        Scheduling in the past raises :class:`SimulationError` — silent
        time travel is a classic source of unreproducible runs.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        if time != time:  # NaN guard (mirrors EventQueue.schedule)
            raise SimulationError("cannot schedule an event at time NaN")
        queue = self._queue
        seq = next(queue._seq)
        event = Event(time, priority, seq, action, label, False, queue)
        heappush(queue._heap, (time, priority, seq, event))
        queue._live += 1
        return event

    def schedule_in(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` after a relative ``delay`` (>= 0) seconds.

        The queue insert is inlined (same steps as ``EventQueue.schedule``)
        because this is the single hottest scheduling entry point — every
        timer in every simulation goes through here.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        if time != time:  # NaN guard (mirrors EventQueue.schedule)
            raise SimulationError("cannot schedule an event at time NaN")
        queue = self._queue
        seq = next(queue._seq)
        event = Event(time, priority, seq, action, label, False, queue)
        heappush(queue._heap, (time, priority, seq, event))
        queue._live += 1
        return event

    def run_until(self, end_time: float) -> None:
        """Process events in order until virtual time reaches ``end_time``.

        The clock is left exactly at ``end_time`` even if the queue drains
        earlier, so back-to-back ``run_until`` calls compose naturally.
        """
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time}) but now is t={self._now}"
            )
        if self._running:
            raise SimulationError("run_until re-entered from an event action")
        self._running = True
        entered = self._events_processed
        # Dispatch-loop fast path: the queue head test and pop are inlined
        # (same steps as EventQueue.peek_time + EventQueue.pop, minus most
        # of the method-call overhead) and the observation hooks are
        # snapshotted once — per-event cost is what pays for 300k+ events
        # per figure.  The cancelled-head filter stays a queue method so
        # the filtering policy has exactly one implementation (it is also
        # the seam the mutation-smoke suite sabotages to prove the
        # invariant checker catches cancelled events firing).
        queue = self._queue
        heap = queue._heap
        drop_cancelled = queue._drop_cancelled_head
        trace_pre = self.trace_pre
        trace_post = self.trace_post
        profile = self.profile
        processed = entered
        try:
            while True:
                drop_cancelled()
                if not heap or heap[0][0] > end_time:
                    break
                event = heappop(heap)[3]
                queue._live -= 1
                event._queue = None
                self._now = event.time
                processed += 1
                if trace_pre is not None:
                    trace_pre(event)
                if profile is None:
                    event.action()
                else:
                    started = perf_counter()
                    event.action()
                    profile(event, perf_counter() - started)
                if trace_post is not None:
                    trace_post(event)
            self._now = end_time
        finally:
            self._running = False
            self._events_processed = processed
            global _TOTAL_EVENTS
            _TOTAL_EVENTS += processed - entered

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the queue completely (or up to ``max_events`` events)."""
        if self._running:
            raise SimulationError("run re-entered from an event action")
        self._running = True
        fired = 0
        entered = self._events_processed
        # Same inlined fast path as run_until (see comment there).
        queue = self._queue
        heap = queue._heap
        drop_cancelled = queue._drop_cancelled_head
        trace_pre = self.trace_pre
        trace_post = self.trace_post
        profile = self.profile
        processed = entered
        try:
            while queue._live > 0:
                if max_events is not None and fired >= max_events:
                    break
                drop_cancelled()
                event = heappop(heap)[3]
                queue._live -= 1
                event._queue = None
                self._now = event.time
                processed += 1
                if trace_pre is not None:
                    trace_pre(event)
                if profile is None:
                    event.action()
                else:
                    started = perf_counter()
                    event.action()
                    profile(event, perf_counter() - started)
                if trace_post is not None:
                    trace_post(event)
                fired += 1
        finally:
            self._running = False
            self._events_processed = processed
            global _TOTAL_EVENTS
            _TOTAL_EVENTS += processed - entered

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0
