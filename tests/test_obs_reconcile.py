"""The metrics registry must reconcile *exactly* with the legacy
collectors in :mod:`repro.metrics` — same runs, two independent counting
paths (the registry hooks observers; the collectors live inside the
simulation), so any drift is a real accounting bug in one of them.
"""

import pytest

from repro.context import RunContext, installed
from repro.experiments import common
from repro.experiments.pool import ExperimentJob, execute_job


@pytest.fixture(autouse=True)
def metrics_enabled():
    common.clear_caches()
    with installed(RunContext(metrics=True)):
        yield
    common.clear_caches()


def _churn_run_for(meta):
    """Find the cached ChurnRunResult this metrics unit was captured from."""
    matches = [
        run
        for key, run in common._churn_cache.items()
        if key[1] == meta["protocol"] and key[2] == meta["population"]
    ]
    assert len(matches) == 1, f"ambiguous cache match for {meta}"
    return matches[0]


@pytest.mark.parametrize("experiment_id", ["fig04", "fig10"])
def test_registry_reconciles_with_legacy_collectors(experiment_id):
    result = execute_job(
        ExperimentJob.make(experiment_id, scale=0.02, seed=3, sizes=(2000, 5000))
    )

    units = result.artifacts.get("metrics", [])
    assert units, "metrics channel enabled but no units captured"
    # One unit per executed churn run, nothing double- or under-counted.
    assert len(units) == len(common._churn_cache)

    for unit in units:
        meta = unit["meta"]
        assert meta["kind"] == "churn"
        run = _churn_run_for(meta)
        counters = unit["counters"]

        # Window-gated overlay accounting vs repro.metrics.ChurnMetrics.
        assert (
            counters.get("overlay.disruption_events", 0)
            == run.metrics.disruption_events
        )
        assert (
            counters.get("overlay.optimization_reconnections", 0)
            == run.metrics.optimization_reconnections
        )
        assert (
            counters.get("overlay.failure_reconnections", 0)
            == run.metrics.failure_reconnections
        )

        # Control-plane traffic vs MessageStats.
        assert counters.get("overlay.control_messages", 0) == run.messages.total

        # Kernel accounting vs the simulation's own extras.
        assert counters["sim.events_processed"] == run.extras["events_processed"]
        assert unit["gauges"]["overlay.final_attached"] == run.extras["final_attached"]

        # ROST-specific protocol counters (only rost exposes these).
        if "switches" in run.extras:
            assert counters.get("rost.switches", 0) == run.extras["switches"]
            assert counters.get("rost.promotions", 0) == run.extras["promotions"]
            assert (
                counters.get("rost.lock_failures", 0) == run.extras["lock_failures"]
            )
        else:
            assert "rost.switches" not in counters


def test_registry_absent_when_metrics_disabled():
    common.clear_caches()
    with installed(RunContext()):
        result = execute_job(
            ExperimentJob.make("fig04", scale=0.02, seed=3, sizes=(2000,))
        )
    assert result.artifacts == {}
