"""The probe bus: subscriber lists, engine-slot installation, late
subscription."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.bus import POINTS, Bus
from repro.sim.engine import Simulator


def test_unsubscribed_engine_slots_stay_none():
    sim = Simulator()
    sim.bus.subscribe("disruption", lambda event: None)
    assert sim.trace_pre is None
    assert sim.trace_post is None
    assert sim.profile is None


def test_single_engine_subscriber_is_installed_directly():
    sim = Simulator()
    seen = []
    sim.bus.subscribe("event_pre", seen.append)
    assert sim.trace_pre == seen.append
    sim.schedule_at(1.0, lambda: None, label="tick")
    sim.run()
    assert [event.label for event in seen] == ["tick"]


def test_engine_subscribers_run_in_subscription_order():
    sim = Simulator()
    calls = []
    sim.bus.subscribe("event_post", lambda event: calls.append("first"))
    sim.bus.subscribe("event_post", lambda event: calls.append("second"))
    sim.bus.subscribe("profile", lambda event, wall_s: calls.append("profile"))
    sim.schedule_at(1.0, lambda: calls.append("action"))
    sim.run()
    assert calls == ["action", "profile", "first", "second"]


def test_subscribing_to_an_engine_point_while_running_raises():
    """The dispatch loop reads its hooks once at entry, so a subscription
    made from inside an event action could only take effect at the next
    run call; the bus refuses it instead."""
    sim = Simulator()
    errors = []

    def subscribe_late():
        with pytest.raises(SimulationError, match="while the simulator is running"):
            sim.bus.subscribe("event_pre", lambda event: None)
        errors.append("raised")

    sim.schedule_at(1.0, subscribe_late)
    sim.run_until(2.0)
    assert errors == ["raised"]
    assert sim.trace_pre is None
    # Overlay points are read at emission time: subscribing mid-run is fine.
    sim.schedule_at(3.0, lambda: sim.bus.subscribe("departure", print))
    sim.run()
    assert sim.bus.departure == [print]


def test_overlay_points_need_no_simulator():
    bus = Bus()
    for point in POINTS[3:]:
        bus.subscribe(point, print)
        assert getattr(bus, point) == [print]
    with pytest.raises(AttributeError):
        bus.subscribe("fault_applied", print)
