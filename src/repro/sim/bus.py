"""The run's probe bus: one subscriber list per probe point.

Every :class:`~repro.sim.engine.Simulator` owns one :class:`Bus`
(``sim.bus``).  The engine, the churn driver, the tree and the recovery
observer emit on it; observability, invariant checking, resilience
accounting and the K-tree driver subscribe.  Emission is
``if subscribers:`` and a plain loop, so an unobserved point costs one
list truth test.  Subscribers run in subscription order.

Points (payload): ``event_pre(event)``, ``event_post(event)`` and
``profile(event, wall_s)`` from the engine; ``disruption(DisruptionEvent)``
(before the failed member is dismantled), ``departure(now, node)``,
``reattach(now, orphan)`` and ``optimization(n)`` (the protocol's
``overhead_callback``) from the churn driver; ``switch(SwitchProbe)``
from the tree; ``episode_priced(EpisodePriced)`` from the recovery
observer.  The bus is the only writer of the engine's
``trace_pre``/``trace_post``/``profile`` slots: no subscriber leaves a
slot ``None``, one is installed directly, several share one fan-out.
The dispatch loop reads the slots when it starts, so subscribing to an
engine point while the simulator runs raises
:class:`~repro.errors.SimulationError`.  This module imports no emitter
and no subscriber.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

from ..errors import SimulationError

if TYPE_CHECKING:  # payload types only; no runtime dependency
    from ..overlay.node import OverlayNode
    from ..overlay.tree import SwitchProbe
    from ..simulation.churn import DisruptionEvent
    from ..simulation.streaming import EpisodePriced
    from .events import Event

#: Engine point -> the :class:`Simulator` slot it is installed into.
ENGINE_SLOTS = {
    "event_pre": "trace_pre",
    "event_post": "trace_post",
    "profile": "profile",
}

POINTS = (
    "event_pre",
    "event_post",
    "profile",
    "disruption",
    "departure",
    "reattach",
    "optimization",
    "switch",
    "episode_priced",
)


class Bus:
    """Subscriber lists of one run, one per probe point (see module doc)."""

    __slots__ = ("_sim",) + POINTS

    def __init__(self, sim=None) -> None:
        #: The simulator whose engine slots this bus writes (None for a
        #: tree or observer built outside any simulation).
        self._sim = sim
        self.event_pre: List[Callable[["Event"], None]] = []
        self.event_post: List[Callable[["Event"], None]] = []
        self.profile: List[Callable[["Event", float], None]] = []
        self.disruption: List[Callable[["DisruptionEvent"], None]] = []
        self.departure: List[Callable[[float, "OverlayNode"], None]] = []
        self.reattach: List[Callable[[float, "OverlayNode"], None]] = []
        self.optimization: List[Callable[[int], None]] = []
        self.switch: List[Callable[["SwitchProbe"], None]] = []
        self.episode_priced: List[Callable[["EpisodePriced"], None]] = []

    def subscribe(self, point: str, subscriber: Callable) -> None:
        """Append ``subscriber`` to ``point``'s list (runs after earlier ones)."""
        subscribers = getattr(self, point)
        slot = ENGINE_SLOTS.get(point)
        if slot is not None and self._sim._running:
            raise SimulationError(
                f"cannot subscribe to {point!r} while the simulator is "
                "running: the dispatch loop read its hooks when it started"
            )
        subscribers.append(subscriber)
        if slot is not None:
            setattr(self._sim, slot, _engine_hook(subscribers))


def _engine_hook(subscribers: List[Callable]) -> Callable:
    """What an engine slot holds for ``subscribers``: the one subscriber
    itself, or a fan-out over a frozen copy of several."""
    if len(subscribers) == 1:
        return subscribers[0]
    frozen = tuple(subscribers)

    def fan_out(*args) -> None:
        for subscriber in frozen:
            subscriber(*args)

    return fan_out
