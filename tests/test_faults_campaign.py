"""Campaign specs, fan-out determinism, and the resilience report schema."""

import json
from pathlib import Path

import pytest

from repro.errors import FaultError
from repro.experiments import common
from repro.experiments.pool import ExperimentJob, run_jobs
from repro.faults import DEFAULT_CAMPAIGN_SPEC, CampaignSpec
from repro.faults.campaign import REPORT_SCHEMA_VERSION

SMALL_SPEC = {
    "name": "unit-small",
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
SCALE = 0.1  # population 40 under a 6-slot root: deep trees, fast runs


def run_campaign(spec, scale, jobs, **kwargs):
    """One ``faults_campaign`` job through the pool at ``jobs``.

    Returns the result and the parent's run-cache counters: at
    ``jobs > 1`` every scenario must come back from a worker, so the
    parent reads the runs from its cache and simulates none itself.
    """
    common.clear_caches()
    job = ExperimentJob.make(
        "faults_campaign", scale=scale, spec=spec.canonical_json(), **kwargs
    )
    (result,) = run_jobs([job], parallel_jobs=jobs)
    stats = common.cache_stats()
    if jobs > 1:
        assert stats["scenario_misses"] == 0, stats
        assert stats["scenario_hits"] == len(result.data["runs"]), stats
    common.clear_caches()
    return result


@pytest.fixture(scope="module")
def small_reports():
    spec = CampaignSpec.from_spec(SMALL_SPEC)
    serial = run_campaign(spec, scale=SCALE, jobs=1)
    fanned = run_campaign(spec, scale=SCALE, jobs=2)
    return serial, fanned


def test_default_spec_round_trip():
    spec = CampaignSpec.resolve(None)
    assert spec.name == DEFAULT_CAMPAIGN_SPEC["name"]
    assert CampaignSpec.resolve(spec) is spec
    assert CampaignSpec.resolve(spec.canonical_json()) == spec
    assert CampaignSpec.from_spec(spec.to_spec()) == spec


def test_campaign_validation():
    with pytest.raises(FaultError):
        CampaignSpec.from_spec({**SMALL_SPEC, "bogus_key": 1})
    with pytest.raises(FaultError):
        CampaignSpec.from_spec({**SMALL_SPEC, "scenarios": []})
    with pytest.raises(FaultError):
        CampaignSpec.from_spec(
            {
                **SMALL_SPEC,
                "scenarios": [
                    {"name": "dup", "faults": []},
                    {"name": "dup", "faults": []},
                ],
            }
        )
    with pytest.raises(FaultError):
        CampaignSpec.from_spec({**SMALL_SPEC, "seeds": [-3]})
    with pytest.raises(FaultError):
        CampaignSpec.from_spec({**SMALL_SPEC, "root_bandwidth": 0.5})
    with pytest.raises(FaultError):
        CampaignSpec.resolve(3.5)


def test_scheme_list_includes_domain_aware_variant():
    spec = CampaignSpec.from_spec({**SMALL_SPEC, "domain_aware": True})
    names = [s.name for s in spec.scheme_list()]
    assert len(names) == 3
    assert sum(name.endswith("-da") for name in names) == 1
    plain = CampaignSpec.from_spec({**SMALL_SPEC, "domain_aware": False})
    assert len(plain.scheme_list()) == 2


def test_report_byte_identical_at_any_jobs(small_reports):
    serial, fanned = small_reports
    dump = lambda r: json.dumps(r.data, sort_keys=True, default=str)  # noqa: E731
    assert dump(serial) == dump(fanned)
    assert serial.table == fanned.table


def test_report_schema(small_reports):
    report, _ = small_reports
    data = report.data
    assert data["schema_version"] == REPORT_SCHEMA_VERSION
    assert data["campaign"] == "unit-small"
    assert data["scale"] == SCALE
    assert data["seeds"] == [1]
    assert data["protocols"] == ["min-depth"]
    assert data["scenarios"] == ["baseline", "outage"]
    assert len(data["runs"]) == 2  # 2 scenarios x 1 protocol x 1 seed
    for scenario in data["scenarios"]:
        entry = data["summary"][scenario]["min-depth"]
        for key in (
            "fault_disruption_events",
            "mttr_s",
            "mttr_churn_s",
            "delivered_data_ratio",
            "repair_success_rate",
            "mean_group_domain_correlation",
        ):
            assert key in entry
        assert set(entry["repair_success_rate"]) == set(data["schemes"])
    for run in data["runs"]:
        assert set(run) >= {
            "scenario",
            "protocol",
            "seed",
            "fault_log",
            "fault_disruption_events",
            "mttr_s",
            "delivered_data_ratio",
            "resilience",
            "schemes",
        }
        assert "disruption_events" in run["resilience"]
    baseline, outage = data["runs"]
    assert baseline["fault_disruption_events"] == 0
    assert outage["fault_disruption_events"] >= 1
    assert outage["fault_log"][0]["kind"] == "stub-domain-outage"


@pytest.mark.slow
def test_checked_report_byte_identical_across_jobs_and_seeds():
    """--jobs {1,2,4} x 3 seeds with invariant checking on: reports must
    be byte-identical and every run must come back checked and clean."""
    spec = CampaignSpec.from_spec({**SMALL_SPEC, "seeds": [1, 2, 3]})
    dumps = []
    for jobs in (1, 2, 4):
        report = run_campaign(spec, scale=SCALE, jobs=jobs, check_invariants=True)
        dumps.append(json.dumps(report.data, sort_keys=True, default=str))
        assert report.data["invariant_violations"] == 0
        runs = report.data["runs"]
        assert len(runs) == 6  # 2 scenarios x 1 protocol x 3 seeds
        for run in runs:
            assert run["invariants"]["checked"]
            assert run["invariants"]["sweeps"] > 0
            assert run["invariants"]["violations"] == 0
    assert dumps[0] == dumps[1] == dumps[2]


def test_example_campaign_specs_load():
    campaigns = Path(__file__).resolve().parents[1] / "examples" / "campaigns"
    mirror = CampaignSpec.resolve(str(campaigns / "stub_outage.json"))
    assert mirror == CampaignSpec.from_spec(DEFAULT_CAMPAIGN_SPEC)
    smoke = CampaignSpec.resolve(str(campaigns / "smoke.json"))
    assert smoke.root_bandwidth is not None  # deep trees even at tiny scale
    assert smoke.seeds  # pinned seeds: CI runs are reproducible
    assert any(
        fault.kind == "stub-domain-outage"
        for scenario in smoke.scenarios
        for fault in scenario.faults
    )


def test_experiments_registered():
    from repro.experiments import REGISTRY

    assert "faults_scenario" in REGISTRY
    assert "faults_campaign" in REGISTRY
