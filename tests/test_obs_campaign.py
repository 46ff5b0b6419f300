"""Observability through the fault-injection campaign path.

Each (scenario × protocol × seed) cell is a scenario unit: at ``--jobs``
above 1 it runs in a worker and its captured artifacts replay in the
parent.  The merged artifacts must stay in grid order and reconcile with
the per-run records the resilience report already carries.
"""

import json

import pytest

from repro.experiments import common
from repro.experiments.pool import ExperimentJob, run_jobs
from repro.faults import CampaignSpec
from repro.obs.schema import validate_trace_lines

SMALL_SPEC = {
    "name": "obs-small",
    "population": 400,
    "warmup_lifetimes": 0.25,
    "measure_lifetimes": 0.5,
    "protocols": ["min-depth"],
    "seeds": [1],
    "group_size": 2,
    "root_bandwidth": 6.0,
    "scenarios": [
        {"name": "baseline", "faults": []},
        {
            "name": "outage",
            "faults": [
                {"kind": "stub-domain-outage", "domains": 2, "at_frac": 0.6}
            ],
        },
    ],
}
SCALE = 0.1


@pytest.fixture(autouse=True)
def obs_enabled(monkeypatch):
    common.clear_caches()
    monkeypatch.setenv("REPRO_OBS_TRACE", "1")
    monkeypatch.setenv("REPRO_OBS_METRICS", "1")
    yield
    common.clear_caches()


@pytest.fixture(scope="module")
def spec_json():
    return CampaignSpec.from_spec(SMALL_SPEC).canonical_json()


def _run_campaign_job(spec_json, jobs):
    job = ExperimentJob.make("faults_campaign", scale=SCALE, seed=1, spec=spec_json)
    (result,) = run_jobs([job], parallel_jobs=jobs)
    if jobs > 1:
        # The scenarios ran in worker processes: the parent only replayed
        # them (and their captured artifacts) from its run cache.
        stats = common.cache_stats()
        assert stats["scenario_misses"] == 0, stats
        assert stats["scenario_hits"] == len(result.data["runs"]), stats
    return result


def test_campaign_artifacts_reconcile_with_report(spec_json):
    result = _run_campaign_job(spec_json, jobs=2)
    runs = result.data["runs"]
    units = result.artifacts["metrics"]
    assert len(units) == len(runs) == 2

    # Submission order: metrics units line up 1:1 with the run records.
    for record, unit in zip(runs, units):
        meta = unit["meta"]
        assert meta["kind"] == "recovery"
        assert meta["scenario"] == record["scenario"]
        assert meta["protocol"] == record["protocol"]
        assert meta["seed"] == record["seed"]

        counters = unit["counters"]
        for name, scheme in record["schemes"].items():
            assert counters[f"recovery.episodes.{name}"] == scheme["episodes"]
            assert (
                counters[f"recovery.gap_packets.{name}"] == scheme["gap_packets"]
            )
            assert (
                counters[f"recovery.repaired_packets.{name}"]
                == scheme["repaired_packets"]
            )


def test_campaign_trace_carries_fault_records(spec_json):
    result = _run_campaign_job(spec_json, jobs=1)
    lines = result.artifacts["trace"]
    assert validate_trace_lines(lines) == len(lines) > 0

    fault_labels = {
        json.loads(line)["label"]
        for line in lines
        if json.loads(line)["type"] == "fault"
    }
    assert any("stub-domain-outage" in label for label in fault_labels)

    # The injector's activation count reconciles with the trace.
    outage_unit = result.artifacts["metrics"][1]
    outage_record = result.data["runs"][1]
    assert outage_record["scenario"] == "outage"
    assert outage_unit["counters"]["faults.activations"] == len(
        outage_record["fault_log"]
    )


def test_campaign_artifacts_identical_at_any_jobs(spec_json):
    serial = _run_campaign_job(spec_json, jobs=1)
    common.clear_caches()
    fanned = _run_campaign_job(spec_json, jobs=2)
    assert serial.artifacts["trace"] == fanned.artifacts["trace"]
    assert serial.artifacts["metrics"] == fanned.artifacts["metrics"]
