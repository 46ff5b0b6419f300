"""Fault-injection campaign subsystem for correlated-failure stress tests.

The paper's evaluation covers independent member churn; this package adds
the correlated-failure axis: typed fault primitives (:mod:`.model`),
seed-deterministic composable schedules (:mod:`.schedule`), an
engine-level injector that replays them into an unmodified
:class:`~repro.simulation.churn.ChurnSimulation` (:mod:`.injector`), and
campaign specs whose (scenario x protocol x [K x] seed) grids the
sweep-unit scheduler runs into one resilience report (:mod:`.campaign`,
for single-tree and K-tree runs alike).

See ``docs/faults.md`` for the campaign spec format and semantics.
"""

from .model import (
    FAULT_KINDS,
    ChurnSurge,
    Fault,
    FlashCrowd,
    LinkDegradation,
    NodeCrash,
    StubDomainOutage,
    fault_from_spec,
)
from .schedule import FaultSchedule, load_schedule
from .injector import DegradedOracle, FaultInjector, wire_resilience
from .campaign import (
    DEFAULT_CAMPAIGN_SPEC,
    DEFAULT_MULTITREE_SPEC,
    CampaignReport,
    CampaignSpec,
    MultiTreeCampaignSpec,
    ScenarioSpec,
    build_report,
)

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "NodeCrash",
    "StubDomainOutage",
    "LinkDegradation",
    "FlashCrowd",
    "ChurnSurge",
    "fault_from_spec",
    "FaultSchedule",
    "load_schedule",
    "FaultInjector",
    "DegradedOracle",
    "wire_resilience",
    "CampaignSpec",
    "MultiTreeCampaignSpec",
    "ScenarioSpec",
    "CampaignReport",
    "DEFAULT_CAMPAIGN_SPEC",
    "DEFAULT_MULTITREE_SPEC",
    "build_report",
]
