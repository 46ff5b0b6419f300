"""Observability artifacts must survive worker crashes and timeouts.

A worker that dies takes its in-memory capture with it; the pool's
in-process retry re-runs the job under a fresh capture, so the retried
result carries the *full* artifact set — the merged trace is identical to
a run in which the worker never crashed.
"""

import json
import multiprocessing
import os

import pytest

from repro.context import RunContext, installed
from repro.experiments import common
from repro.experiments.pool import ExperimentJob, ExperimentPool
from repro.experiments.registry import REGISTRY, ExperimentResult, register
from repro.obs.capture import ObsUnit, emit_unit


@pytest.fixture(autouse=True)
def obs_enabled():
    common.clear_caches()
    with installed(RunContext(trace=True, metrics=True)):
        yield
    common.clear_caches()


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _fault_line(seed):
    return json.dumps(
        {"type": "fault", "t": 1.0, "label": f"fault:retry-{seed}"},
        separators=(",", ":"),
    )


def _emit_marker_unit(seed):
    emit_unit(
        ObsUnit(
            meta={"kind": "churn", "seed": seed},
            trace_lines=[_fault_line(seed)],
            metrics={
                "counters": {"sim.events_processed": seed},
                "gauges": {},
                "histograms": {},
            },
        )
    )


def _register_flaky(experiment_id, run):
    register(experiment_id, f"test helper {experiment_id}", "test")(run)


def _assert_full_artifacts(results, pool):
    assert pool.retried_jobs >= 1
    for seed, result in zip((1, 2), results):
        assert result.artifacts["trace"] == [_fault_line(seed)]
        (unit,) = result.artifacts["metrics"]
        assert unit["meta"] == {"kind": "churn", "seed": seed}
        assert unit["counters"] == {"sim.events_processed": seed}


def test_crashed_worker_artifacts_are_reemitted_on_retry():
    experiment_id = "testobscrash"

    def run(scale=1.0, seed=42, **_):
        if _in_worker():
            os._exit(17)  # kill the worker before it can return artifacts
        _emit_marker_unit(seed)
        return ExperimentResult(experiment_id, "crashy", table=f"ok seed={seed}")

    _register_flaky(experiment_id, run)
    try:
        assert not _in_worker()
        pool = ExperimentPool(jobs=2)
        results = pool.run([ExperimentJob.make(experiment_id, seed=s) for s in (1, 2)])
        assert [r.table for r in results] == ["ok seed=1", "ok seed=2"]
        _assert_full_artifacts(results, pool)
    finally:
        REGISTRY.pop(experiment_id, None)


def test_timed_out_worker_artifacts_are_reemitted_on_retry():
    experiment_id = "testobsslow"

    def run(scale=1.0, seed=42, **_):
        if _in_worker():
            import time

            time.sleep(3.0)
        _emit_marker_unit(seed)
        return ExperimentResult(experiment_id, "slow", table=f"done seed={seed}")

    _register_flaky(experiment_id, run)
    try:
        assert not _in_worker()
        pool = ExperimentPool(jobs=2, timeout_s=0.25)
        results = pool.run([ExperimentJob.make(experiment_id, seed=s) for s in (1, 2)])
        assert [r.table for r in results] == ["done seed=1", "done seed=2"]
        _assert_full_artifacts(results, pool)
    finally:
        REGISTRY.pop(experiment_id, None)


def test_artifacts_absent_when_obs_disabled():
    experiment_id = "testobsoff"

    def run(scale=1.0, seed=42, **_):
        _emit_marker_unit(seed)  # no ambient capture: must be a no-op
        return ExperimentResult(experiment_id, "off", table="ok")

    _register_flaky(experiment_id, run)
    try:
        with installed(RunContext()):
            results = ExperimentPool(jobs=1).run([ExperimentJob.make(experiment_id)])
        assert results[0].artifacts == {}
    finally:
        REGISTRY.pop(experiment_id, None)
