"""Correlated loss vs MLC recovery (satellite of the faults subsystem).

A stub-domain outage kills whole recovery groups at once when their
members share a domain; these tests pin down (a) that the injected outage
measurably degrades CER repair against the no-fault baseline, (b) that
the loss-correlation accounting is deterministic per seed, and (c) that
domain-aware MLC selection actually reduces underlay correlation.
"""

import json

import numpy as np
import pytest

from repro.faults import CampaignSpec
from repro.recovery.mlc import (
    PartialTreeView,
    group_underlay_correlation,
    select_mlc_group,
)

SPEC = CampaignSpec.from_spec(
    {
        "name": "correlated-unit",
        "population": 400,
        "warmup_lifetimes": 0.25,
        "measure_lifetimes": 0.75,
        "protocols": ["min-depth"],
        "group_size": 3,
        "root_bandwidth": 6.0,
        "scenarios": [
            {"name": "baseline", "faults": []},
            {
                "name": "outage",
                "faults": [
                    {"kind": "stub-domain-outage", "domains": 3, "at_frac": 0.5}
                ],
            },
        ],
    }
)
SCALE = 0.1
SEED = 3


@pytest.fixture(scope="module")
def baseline_run():
    return SPEC.run_cell("baseline", "min-depth", seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def outage_run():
    return SPEC.run_cell("outage", "min-depth", seed=SEED, scale=SCALE)


def test_outage_fires_and_disrupts(outage_run):
    assert outage_run["fault_log"], "the scheduled outage never fired"
    entry = outage_run["fault_log"][0]
    assert entry["kind"] == "stub-domain-outage"
    assert len(entry["detail"]["domains"]) == 3
    assert entry["detail"]["killed"]
    assert outage_run["fault_disruption_events"] >= 1
    assert "fault:stub-domain-outage" in (
        outage_run["resilience"]["disruption_events"]
    )


def test_outage_degrades_cer_repair(baseline_run, outage_run):
    """Killing the domains hosting recovery nodes must hurt CER repair."""
    name = "cer-k3-b5"
    base = baseline_run["schemes"][name]
    hit = outage_run["schemes"][name]
    assert base["episodes"] > 0 and hit["episodes"] > 0
    assert not np.isnan(base["repair_success_rate"])
    assert not np.isnan(hit["repair_success_rate"])
    assert hit["repair_success_rate"] < base["repair_success_rate"]


def test_correlation_accounting_deterministic_per_seed(outage_run):
    rerun = SPEC.run_cell("outage", "min-depth", seed=SEED, scale=SCALE)
    dump = lambda r: json.dumps(r, sort_keys=True, default=str)  # noqa: E731
    assert dump(rerun) == dump(outage_run)
    for name, scheme in outage_run["schemes"].items():
        assert (
            rerun["schemes"][name]["mean_group_domain_correlation"]
            == scheme["mean_group_domain_correlation"]
        ) or (
            np.isnan(scheme["mean_group_domain_correlation"])
            and np.isnan(rerun["schemes"][name]["mean_group_domain_correlation"])
        )


def test_group_underlay_correlation_counts_same_domain_pairs():
    domain_of = {1: 0, 2: 0, 3: 1, 4: -1, 5: -1}.get
    assert group_underlay_correlation([1, 2, 3], domain_of) == 1
    assert group_underlay_correlation([1, 3], domain_of) == 0
    # unknown (negative) domains never count as shared
    assert group_underlay_correlation([4, 5], domain_of) == 0


class _FakeNode:
    """Stand-in for OverlayNode: mlc only walks member_id/parent."""

    def __init__(self, member_id, parent=None):
        self.member_id = member_id
        self.parent = parent


def _synthetic_view():
    """Root 0 with three subtrees; every subtree has a domain-5 member and
    one member in a domain unique to that subtree (6, 7, 8)."""
    root = _FakeNode(0)
    leaves = []
    for child_id, unique_domain_leaf in ((1, 12), (2, 22), (3, 32)):
        child = _FakeNode(child_id, root)
        leaves.append(_FakeNode(child_id * 10 + 1, child))  # domain 5
        leaves.append(_FakeNode(unique_domain_leaf, child))  # unique domain
    return PartialTreeView.from_members(leaves)


_DOMAINS = {1: 5, 11: 5, 12: 6, 2: 5, 21: 5, 22: 7, 3: 5, 31: 5, 32: 8}


def _domain_of(member_id):
    return _DOMAINS.get(member_id, -1)


def test_domain_aware_selection_reduces_underlay_correlation():
    view = _synthetic_view()
    plain_correlations = []
    aware_correlations = []
    for seed in range(20):
        plain = select_mlc_group(view, 3, np.random.default_rng(seed))
        aware = select_mlc_group(
            view, 3, np.random.default_rng(seed), domain_of=_domain_of
        )
        assert len(plain) == 3 and len(aware) == 3
        plain_correlations.append(group_underlay_correlation(plain, _domain_of))
        aware_correlations.append(group_underlay_correlation(aware, _domain_of))
    # every subtree offers a fresh domain, so the aware pick never collides
    assert all(c == 0 for c in aware_correlations)
    # ...whereas the paper's domain-blind Algorithm 1 regularly does
    assert any(c > 0 for c in plain_correlations)


def test_domain_aware_scheme_not_more_correlated(outage_run):
    """End-to-end: the -da scheme's selected groups share domains no more
    often than plain CER on the identical run."""
    plain = outage_run["schemes"]["cer-k3-b5"]
    aware = outage_run["schemes"]["cer-k3-b5-da"]
    plain_corr = plain["mean_group_domain_correlation"]
    aware_corr = aware["mean_group_domain_correlation"]
    assert not np.isnan(plain_corr) and not np.isnan(aware_corr)
    assert aware_corr <= plain_corr
