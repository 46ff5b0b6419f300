"""Registered experiments over the campaign grids of :mod:`repro.faults.campaign`.

``faults_scenario`` / ``multitree_scenario`` run one grid cell of a spec
(the built-in one by default); ``faults_campaign`` /
``multitree_resilience`` run its whole grid.  ``multitree_resilience``
is the surface the ``multitree.json`` golden baseline gates.  All four
declare their cells as ``ScenarioUnit`` s, so the pool runs each cell
once across the requested experiments and the reports are assembled in
the parent from the cached runs.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from ..faults.campaign import FAMILIES, CampaignReport, build_report, gate_data
from ..metrics.report import render_table
from .registry import ExperimentResult, register
from .units import ScenarioUnit, declare_units


def campaign_units(
    campaign, scale: float, seed: int, check_invariants: bool = False
) -> List[ScenarioUnit]:
    """One unit per grid cell, in report order."""
    spec_json = campaign.canonical_json()
    return [
        ScenarioUnit(campaign.family, spec_json, *cell, scale, check_invariants)
        for cell in campaign.grid(seed)
    ]


def run_campaign(
    campaign, scale: float, seed: int, check_invariants: bool = False
) -> CampaignReport:
    """The campaign report, from the cached runs of its units.

    A cell the cache does not hold (a serial run) is simulated here.
    """
    units = campaign_units(campaign, scale, seed, check_invariants)
    runs = [unit.run() for unit in units]
    return build_report(campaign, scale, list(campaign.grid_seeds(seed)), runs)


def _campaign(
    run, family: str, scale: float, seed: int, spec=None, check_invariants=False, **_
):
    """``run`` (:func:`campaign_units` or :func:`run_campaign`) on the
    family spec an experiment job's kwargs name."""
    return run(FAMILIES[family].resolve(spec), scale, seed, check_invariants)


def _scenario_unit(
    family: str,
    scale: float = 1.0,
    seed: int = 42,
    spec=None,
    scenario: Optional[str] = None,
    protocol: Optional[str] = None,
    trees: Optional[int] = None,
    check_invariants: bool = False,
    **_,
) -> ScenarioUnit:
    """One cell; unset axes default to the spec's first value."""
    campaign = FAMILIES[family].resolve(spec)
    return ScenarioUnit(
        family,
        campaign.canonical_json(),
        scenario if scenario is not None else campaign.scenarios[0].name,
        protocol if protocol is not None else campaign.protocols[0],
        trees if trees is not None else campaign.tree_axis()[0],
        seed,
        scale,
        check_invariants,
    )


declare_units("faults_scenario")(lambda **kw: [_scenario_unit("faults", **kw)])
declare_units("faults_campaign")(partial(_campaign, campaign_units, "faults"))
declare_units("multitree_scenario")(
    lambda **kw: [_scenario_unit("multitree", **kw)]
)
declare_units("multitree_resilience")(
    partial(_campaign, campaign_units, "multitree")
)


@register(
    "faults_scenario",
    "One fault-injection scenario run (scenario x protocol x seed unit)",
    "Extension",
)
def run_faults_scenario(
    scale: float = 1.0, seed: int = 42, **kwargs
) -> ExperimentResult:
    unit = _scenario_unit("faults", scale, seed, **kwargs)
    data = unit.run()
    scheme_names = sorted(data["schemes"])
    table = render_table(
        f"Fault scenario {unit.scenario!r} ({unit.protocol}, seed {seed})",
        [
            "fault events",
            "MTTR s",
            "delivered",
            *[f"{name} success" for name in scheme_names],
        ],
        [
            [
                data["fault_disruption_events"],
                data["mttr_s"],
                data["delivered_data_ratio"],
                *[
                    data["schemes"][name]["repair_success_rate"]
                    for name in scheme_names
                ],
            ]
        ],
    )
    return ExperimentResult(
        "faults_scenario", f"Fault scenario {unit.scenario!r}", table, data
    )


@register(
    "faults_campaign",
    "Fault-injection campaign: correlated-failure resilience report",
    "Extension",
)
def run_faults_campaign(
    scale: float = 1.0, seed: int = 42, **kwargs
) -> ExperimentResult:
    report = _campaign(run_campaign, "faults", scale, seed, **kwargs)
    return ExperimentResult(
        "faults_campaign",
        f"Fault campaign {report.data['campaign']!r}",
        report.table,
        report.data,
    )


@register(
    "multitree_scenario",
    "One K-tree scenario run (scenario x protocol x K x seed unit)",
    "Extension",
)
def run_multitree_scenario(
    scale: float = 1.0, seed: int = 42, **kwargs
) -> ExperimentResult:
    unit = _scenario_unit("multitree", scale, seed, **kwargs)
    data = unit.run()
    table = render_table(
        f"K-tree scenario {unit.scenario!r} "
        f"({unit.protocol}, K={unit.trees}, seed {seed})",
        ["blackout rate", "outage rate", "quality %", "blackouts/node"],
        [
            [
                data["blackout_rate"],
                data["stripe_outage_rate"],
                100.0 * data["mean_delivered_quality"],
                data["blackouts_per_node"],
            ]
        ],
    )
    return ExperimentResult(
        "multitree_scenario", f"K-tree scenario {unit.scenario!r}", table, data
    )


@register(
    "multitree_resilience",
    "Multi-tree resilience campaign: blackout/quality vs stripe count K",
    "Extension",
)
def run_multitree_resilience(
    scale: float = 1.0, seed: int = 42, **kwargs
) -> ExperimentResult:
    report = _campaign(run_campaign, "multitree", scale, seed, **kwargs)
    # The gated data is the seed-averaged summary only: per-run records
    # carry seed-shaped leaves (fault victim lists, possibly-NaN
    # diagnostics) that would make baseline paths ragged.  The full
    # per-run dump is available via the ``multitree_campaign``
    # subcommand's --json.
    return ExperimentResult(
        "multitree_resilience",
        f"Multi-tree campaign {report.data['campaign']!r}",
        report.table,
        gate_data(report.data),
    )
