"""Fault-injection campaigns: (scenario x protocol x [K x] seed) grids.

A campaign spec names a set of *scenarios* (fault lists), the protocols
to subject to them, and the seeds to replicate over.  Two families share
this module:

* **faults** (:class:`CampaignSpec`): single-tree recovery runs under a
  :class:`~repro.faults.injector.FaultInjector`.  The report gives MTTR
  split by cause, the delivered-data ratio, and CER repair success under
  correlated loss (e.g. a stub-domain outage) vs the independent-loss
  baseline, for the plain, single-source and domain-aware schemes.
* **multitree** (:class:`MultiTreeCampaignSpec`): K-tree runs swept over
  the stripe counts K.  The report gives blackout rate, stripe-outage
  rate and delivered quality per (scenario, protocol, K) cell, with
  time-binned series.  The ``multitree_resilience`` validate gate
  freezes its claim: under correlated crashes, blackouts fall with K.

Spec round-trip and resolution, config shaping, the invariants block,
the grid and the report envelope are shared; a family supplies its
extra spec fields and checks, one scenario run, the per-cell metrics and
the table columns.  This module never fans work out: each grid cell is a
:class:`~repro.experiments.units.ScenarioUnit` on the sweep-unit
scheduler, and every random draw is keyed by the run seed, so a report
is byte-identical at any ``--jobs`` value.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import SimulationConfig, paper_config
from ..errors import FaultError
from ..metrics.report import render_table
from ..recovery.schemes import cer_scheme, single_source_scheme
from .model import Fault, fault_from_spec
from .schedule import FaultSchedule, _load_spec_file

#: Version of the JSON report layout (asserted by CI's smoke jobs).
REPORT_SCHEMA_VERSION = 1

#: Cap on embedded violation reports per run record (keeps a pathological
#: run's JSON bounded; the total count is always exact).
MAX_VIOLATION_REPORTS = 25

#: The built-in example campaign: correlated stub-domain loss and plain
#: node crashes against an undisturbed baseline.  Checked-in mirror:
#: ``examples/campaigns/stub_outage.json``.
DEFAULT_CAMPAIGN_SPEC: dict = {
    "name": "stub-outage-vs-independent",
    "description": (
        "CER repair success and MTTR under a correlated stub-domain "
        "outage vs independent node crashes vs no faults"
    ),
    "population": 600,
    "warmup_lifetimes": 0.5,
    "measure_lifetimes": 1.0,
    "protocols": ["rost"],
    "group_size": 3,
    "buffer_s": 5.0,
    "domain_aware": True,
    "scenarios": [
        {"name": "baseline", "faults": []},
        {
            "name": "node-crashes",
            "faults": [{"kind": "node-crash", "count": 12, "at_frac": 0.55}],
        },
        {
            "name": "stub-outage",
            "faults": [
                {"kind": "stub-domain-outage", "domains": 2, "at_frac": 0.55}
            ],
        },
    ],
}

#: The built-in K-tree campaign: K in {1, 2, 4, 8} ROST stripe trees
#: under no faults, correlated node crashes, and a stub-domain outage.
#: The small root fan-out keeps stripe trees deep (the per-stripe root
#: cap is K-invariant: int((root_bw/K) / (rate/K)) == int(root_bw/rate)),
#: so upstream failures actually orphan subtrees at smoke scales.
DEFAULT_MULTITREE_SPEC: dict = {
    "name": "ktree-resilience",
    "description": (
        "Blackout, stripe-outage and delivered-quality vs stripe count K "
        "under correlated faults"
    ),
    "population": 500,
    "protocols": ["rost"],
    "tree_counts": [1, 2, 4, 8],
    "root_bandwidth": 4.0,
    "scenarios": [
        {"name": "baseline", "faults": []},
        {
            "name": "crash",
            "faults": [
                {"kind": "node-crash", "count": 8, "at_frac": 0.45},
                {"kind": "node-crash", "count": 8, "at_frac": 0.7},
            ],
        },
        {
            "name": "outage",
            "faults": [
                {"kind": "stub-domain-outage", "domains": 2, "at_frac": 0.55}
            ],
        },
    ],
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One named fault list within a campaign."""

    name: str
    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultError("scenario name must be non-empty")
        object.__setattr__(self, "faults", tuple(self.faults))

    def to_spec(self) -> dict:
        return {"name": self.name, "faults": [f.to_spec() for f in self.faults]}

    @classmethod
    def from_spec(cls, spec: dict) -> "ScenarioSpec":
        if not isinstance(spec, dict):
            raise FaultError(
                f"scenario spec must be a mapping, got {type(spec).__name__}"
            )
        unknown = sorted(set(spec) - {"name", "faults"})
        if unknown:
            raise FaultError(f"unknown scenario spec keys {unknown}")
        return cls(
            name=spec.get("name", ""),
            faults=tuple(fault_from_spec(f) for f in spec.get("faults", [])),
        )


@dataclass
class CampaignReport:
    """The merged outcome of one campaign."""

    table: str
    data: dict


def _nanmean(values: Sequence[float]) -> float:
    clean = [v for v in values if isinstance(v, (int, float)) and v == v]
    return sum(clean) / len(clean) if clean else math.nan


@dataclass(frozen=True)
class _Campaign:
    """Spec fields, checks and machinery shared by both families.

    A family subclass overrides field defaults, adds its own fields and
    checks (``_check``) and supplies the hooks: ``tree_axis`` (the
    stripe counts swept; ``(None,)`` for single-tree runs),
    ``_simulate`` (one cell's run and record), ``summarize`` (one cell's
    seed-averaged entry), ``report_axes`` (the grid axes the report
    lists, in output order), ``table_columns`` / ``table_row``.
    """

    name: str
    description: str = ""
    population: int = 600
    warmup_lifetimes: float = 0.5
    measure_lifetimes: float = 1.0
    protocols: Tuple[str, ...] = ("rost",)
    #: Replication seeds; empty means "derive from the CLI --seed".
    seeds: Tuple[int, ...] = ()
    group_size: int = 3
    buffer_s: float = 5.0
    #: Root fan-out override.  ``None`` keeps the paper's 100-slot root;
    #: small smoke campaigns set a low value so trees have depth (and
    #: recovery episodes) even with a dozen members.
    root_bandwidth: Optional[float] = None
    scenarios: Tuple[ScenarioSpec, ...] = ()

    #: The family name a :class:`~repro.experiments.units.ScenarioUnit`
    #: carries, the built-in spec, the report title, and how many
    #: consecutive seeds from ``--seed`` a spec without ``seeds`` runs.
    family: ClassVar[str]
    default_spec: ClassVar[dict]
    title: ClassVar[str]
    default_seed_count: ClassVar[int]

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultError("campaign name must be non-empty")
        if self.population < 1:
            raise FaultError(f"population must be >= 1, got {self.population}")
        if self.root_bandwidth is not None and self.root_bandwidth < 1:
            raise FaultError(
                f"root_bandwidth must be >= 1, got {self.root_bandwidth}"
            )
        if not self.protocols:
            raise FaultError("campaign needs at least one protocol")
        if not self.scenarios:
            raise FaultError("campaign needs at least one scenario")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise FaultError(f"duplicate scenario names: {names}")
        if self.group_size < 0:
            raise FaultError(f"group_size must be >= 0, got {self.group_size}")
        for seed in self.seeds:
            if seed < 0:
                raise FaultError(f"seeds must be >= 0, got {seed}")
        for f in dataclasses.fields(self):
            if isinstance(f.default, tuple):
                object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        self._check()

    def _check(self) -> None:
        """Family-specific spec checks."""

    def scenario(self, name: str) -> ScenarioSpec:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise FaultError(
            f"unknown scenario {name!r}; known: {[s.name for s in self.scenarios]}"
        )

    # -- spec round-trip ---------------------------------------------------------

    def to_spec(self) -> dict:
        spec: dict = {"name": self.name}
        for f in dataclasses.fields(self):
            if f.name in ("name", "scenarios"):
                continue
            value = getattr(self, f.name)
            if value == f.default:
                continue
            spec[f.name] = list(value) if isinstance(value, tuple) else value
        spec["scenarios"] = [s.to_spec() for s in self.scenarios]
        return spec

    def canonical_json(self) -> str:
        """A canonical string form (hashable, picklable unit parameter)."""
        return json.dumps(self.to_spec(), sort_keys=True)

    @classmethod
    def from_spec(cls, spec: dict):
        if not isinstance(spec, dict):
            raise FaultError(
                f"campaign spec must be a mapping, got {type(spec).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise FaultError(
                f"unknown campaign spec keys {unknown}; known: {sorted(known)}"
            )
        kwargs = dict(spec)
        kwargs["scenarios"] = tuple(
            ScenarioSpec.from_spec(s) for s in kwargs.get("scenarios", [])
        )
        return cls(**kwargs)

    @classmethod
    def resolve(cls, spec=None):
        """Coerce any accepted spec form into this family's spec.

        ``None`` -> the built-in default; a dict -> parsed spec; a string
        -> inline JSON (when it looks like an object) or a spec file path.
        """
        if spec is None:
            return cls.from_spec(cls.default_spec)
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, dict):
            return cls.from_spec(spec)
        if isinstance(spec, str):
            if spec.lstrip().startswith("{"):
                return cls.from_spec(json.loads(spec))
            return cls.from_spec(_load_spec_file(spec))
        raise FaultError(f"cannot resolve campaign spec from {type(spec).__name__}")

    # -- the grid ----------------------------------------------------------------

    def grid_seeds(self, seed: int) -> Tuple[int, ...]:
        return self.seeds or tuple(seed + i for i in range(self.default_seed_count))

    def grid(self, seed: int) -> Iterator[tuple]:
        """Every (scenario, protocol, K or None, seed) cell, in report order."""
        for scenario in self.scenarios:
            for protocol in self.protocols:
                for trees in self.tree_axis():
                    for run_seed in self.grid_seeds(seed):
                        yield scenario.name, protocol, trees, run_seed

    # -- one cell ----------------------------------------------------------------

    def config(self, seed: int, scale: float) -> SimulationConfig:
        """The simulation config every run of this campaign shares."""
        config = dataclasses.replace(
            paper_config(population=self.population, seed=seed, scale=scale),
            warmup_lifetimes=self.warmup_lifetimes,
            measure_lifetimes=self.measure_lifetimes,
        )
        if self.root_bandwidth is not None:
            config = dataclasses.replace(
                config,
                workload=dataclasses.replace(
                    config.workload, root_bandwidth=self.root_bandwidth
                ),
            )
        return config

    def run_cell(
        self,
        scenario_name: str,
        protocol_name: str,
        seed: int,
        scale: float = 1.0,
        check_invariants: bool = False,
        trees: Optional[int] = None,
    ) -> dict:
        """Run one grid cell; returns the JSON-ready per-run record (the
        report's ``runs`` entries).

        With ``check_invariants`` every simulation carries its own
        non-strict :class:`~repro.invariants.InvariantChecker`; findings
        land in the record's ``invariants`` block instead of aborting.
        """
        from ..experiments.common import shared_topology

        checkers: list = []
        new_checker = None
        if check_invariants:
            from ..invariants import InvariantChecker

            def new_checker():
                checkers.append(InvariantChecker(strict=False))
                return checkers[-1]

        config = self.config(seed, scale)
        topology, oracle = shared_topology(config)
        record = self._simulate(
            self.scenario(scenario_name), protocol_name, trees, seed, scale,
            config, topology, oracle, new_checker,
        )
        if check_invariants:
            violations = [v for c in checkers for v in c.violations]
            record["invariants"] = {
                "checked": True,
                "sweeps": sum(c.sweeps for c in checkers),
                "violations": len(violations),
                "reports": [
                    v.as_dict() for v in violations[:MAX_VIOLATION_REPORTS]
                ],
            }
        return record


#: The per-cell metrics a fault summary averages over seeds (plus the
#: per-scheme repair success and group domain correlation).
_FAULT_METRICS = (
    "fault_disruption_events",
    "mttr_s",
    "mttr_churn_s",
    "delivered_data_ratio",
)


@dataclass(frozen=True)
class CampaignSpec(_Campaign):
    """A fault campaign: scenarios x protocols x seeds of recovery runs."""

    #: Also evaluate the domain-aware CER variant (distinct stub domains
    #: preferred in MLC selection).
    domain_aware: bool = True

    family: ClassVar[str] = "faults"
    default_spec: ClassVar[dict] = DEFAULT_CAMPAIGN_SPEC
    title: ClassVar[str] = "Fault campaign"
    default_seed_count: ClassVar[int] = 2

    def scheme_list(self):
        """The recovery schemes every run of this campaign evaluates."""
        schemes = [
            cer_scheme(self.group_size, self.buffer_s),
            single_source_scheme(self.group_size, self.buffer_s),
        ]
        if self.domain_aware:
            schemes.append(
                cer_scheme(self.group_size, self.buffer_s, domain_aware=True)
            )
        return schemes

    def tree_axis(self) -> Tuple[Optional[int], ...]:
        return (None,)

    def _simulate(
        self, scenario, protocol, trees, seed, scale, config, topology, oracle,
        new_checker,
    ) -> dict:
        from ..experiments.common import protocol_factory
        from ..metrics.collectors import ResilienceMetrics
        from ..context import current
        from ..obs.capture import emit_unit
        from ..simulation.streaming import RecoverySimulation
        from .injector import FaultInjector

        sim = RecoverySimulation(
            config,
            protocol_factory(protocol),
            self.scheme_list(),
            topology=topology,
            oracle=oracle,
            check_invariants=new_checker() if new_checker else False,
        )
        resilience = ResilienceMetrics(config.warmup_s, config.horizon_s)
        injector = FaultInjector(FaultSchedule(seed=seed, faults=scenario.faults))
        injector.bind(sim.churn, resilience=resilience)
        attachment = None
        if current().observed:
            from ..obs.attach import ObsAttachment

            attachment = ObsAttachment(
                meta={
                    "kind": "recovery",
                    "scenario": scenario.name,
                    "protocol": protocol,
                    "population": self.population,
                    "seed": seed,
                    "scale": scale,
                }
            ).attach(sim)
        result = sim.run()
        resilience.finish(config.horizon_s)
        if attachment is not None:
            emit_unit(attachment.finalize(result))

        churn_metrics = result.churn.metrics
        schemes = {}
        for name in sorted(result.schemes):
            scheme_result = result.schemes[name]
            groups = scheme_result.groups_selected
            schemes[name] = {
                "starving_ratio_pct": scheme_result.avg_starving_ratio_pct,
                "repair_success_rate": scheme_result.repair_success_rate,
                "episodes": scheme_result.episodes,
                "gap_packets": scheme_result.gap_packets_total,
                "repaired_packets": scheme_result.repaired_packets_total,
                "mean_group_domain_correlation": (
                    scheme_result.mean_group_domain_correlation
                ),
                "mean_group_tree_correlation": (
                    scheme_result.group_tree_correlation_sum / groups
                    if groups
                    else float("nan")
                ),
            }
        fault_events = sum(
            count
            for cause, count in resilience.disruption_events.items()
            if cause.startswith("fault:")
        )
        return {
            "scenario": scenario.name,
            "protocol": protocol,
            "seed": seed,
            "mean_population": churn_metrics.mean_population,
            "fault_log": [
                {"t": t, "kind": kind, "detail": detail}
                for t, kind, detail in injector.log
            ],
            "fault_disruption_events": fault_events,
            "mttr_s": resilience.mttr_s(),
            "mttr_churn_s": resilience.mttr_s("churn"),
            "delivered_data_ratio": resilience.delivered_data_ratio(
                churn_metrics.node_seconds
            ),
            "resilience": resilience.as_dict(),
            "schemes": schemes,
        }

    def summarize(self, group: List[dict]) -> dict:
        entry = {key: _nanmean([r[key] for r in group]) for key in _FAULT_METRICS}
        for key in ("repair_success_rate", "mean_group_domain_correlation"):
            entry[key] = {
                s.name: _nanmean([r["schemes"][s.name][key] for r in group])
                for s in self.scheme_list()
            }
        return entry

    def report_axes(self) -> dict:
        return {
            "protocols": list(self.protocols),
            "scenarios": [s.name for s in self.scenarios],
            "schemes": [s.name for s in self.scheme_list()],
        }

    def table_columns(self) -> List[str]:
        return [
            "fault events",
            "MTTR s",
            "delivered",
            *[f"{s.name} success" for s in self.scheme_list()],
        ]

    def table_row(self, trees: Optional[int], entry: dict) -> list:
        return [
            entry["fault_disruption_events"],
            entry["mttr_s"],
            entry["delivered_data_ratio"],
            *[entry["repair_success_rate"][s.name] for s in self.scheme_list()],
        ]


#: The per-cell metrics a K-tree summary averages over seeds.
_MULTITREE_METRICS = (
    "blackout_rate",
    "stripe_outage_rate",
    "mean_delivered_quality",
    "blackouts_per_node",
    "stripe_outages_per_node",
    "members_measured",
)
_MULTITREE_SERIES = ("blackout_rate", "stripe_outage_rate", "delivered_quality")


def _mean_series(group: List[dict], series_key: str) -> List[float]:
    """Element-wise seed mean of one per-run resilience series."""
    rows = [r["resilience"]["series"][series_key] for r in group]
    if not rows:
        return []
    length = min(len(row) for row in rows)
    return [_nanmean([row[i] for row in rows]) for i in range(length)]


@dataclass(frozen=True)
class MultiTreeCampaignSpec(_Campaign):
    """A K-tree campaign: scenarios x protocols x tree counts x seeds."""

    population: int = 500
    root_bandwidth: Optional[float] = 4.0
    #: CER/MLC group size per stripe; 0 disables repair-scheme pricing.
    group_size: int = 0
    tree_counts: Tuple[int, ...] = (1, 2, 4, 8)
    #: Per-stripe BTP switching interval; ``None`` disables switching.
    switch_interval_s: Optional[float] = None

    family: ClassVar[str] = "multitree"
    default_spec: ClassVar[dict] = DEFAULT_MULTITREE_SPEC
    title: ClassVar[str] = "Multi-tree campaign"
    default_seed_count: ClassVar[int] = 1

    def _check(self) -> None:
        if not self.tree_counts:
            raise FaultError("campaign needs at least one tree count")
        for count in self.tree_counts:
            if count < 1:
                raise FaultError(f"tree counts must be >= 1, got {count}")
        if len(set(self.tree_counts)) != len(self.tree_counts):
            raise FaultError(f"duplicate tree counts: {list(self.tree_counts)}")
        object.__setattr__(
            self, "tree_counts", tuple(int(k) for k in self.tree_counts)
        )

    def scheme_list(self) -> list:
        """The per-stripe repair schemes (empty when repair is disabled)."""
        if self.group_size < 1:
            return []
        return [cer_scheme(self.group_size, self.buffer_s)]

    def tree_axis(self) -> Tuple[Optional[int], ...]:
        return self.tree_counts

    def _simulate(
        self, scenario, protocol, trees, seed, scale, config, topology, oracle,
        new_checker,
    ) -> dict:
        from ..multitree.driver import MultiTreeSimulation

        sim = MultiTreeSimulation(
            config,
            num_trees=trees,
            topology=topology,
            oracle=oracle,
            stripe_protocols=[protocol],
            switch_interval_s=self.switch_interval_s,
            schemes=self.scheme_list() or None,
            faults=(
                FaultSchedule(seed=seed, faults=scenario.faults)
                if scenario.faults
                else None
            ),
            check_invariants=new_checker or False,
            obs_meta={"scenario": scenario.name, "scale": scale},
        )
        result = sim.run()

        churn_result = getattr(result.per_tree[0], "churn", result.per_tree[0])
        record: dict = {
            "scenario": scenario.name,
            "protocol": protocol,
            "trees": trees,
            "seed": seed,
            "mean_population": churn_result.metrics.mean_population,
            "fault_log": [
                {"t": t, "kind": kind, "detail": detail}
                for t, kind, detail in result.fault_log
            ],
            "blackout_rate": result.blackout_rate,
            "stripe_outage_rate": result.stripe_outage_rate,
            "mean_delivered_quality": result.mean_delivered_quality,
            "blackouts_per_node": result.blackouts_per_node,
            "stripe_outages_per_node": result.stripe_disruptions_per_node,
            "members_measured": result.members_measured,
            "effective_delay_ms": result.effective_delay_ms,
            "resilience": result.resilience,
        }
        if self.group_size >= 1:
            # Per-stripe scheme results, averaged (episodes summed).
            stripes = result.per_tree
            record["schemes"] = {
                name: {
                    "starving_ratio_pct": _nanmean(
                        [t.schemes[name].avg_starving_ratio_pct for t in stripes]
                    ),
                    "repair_success_rate": _nanmean(
                        [t.schemes[name].repair_success_rate for t in stripes]
                    ),
                    "episodes": sum(t.schemes[name].episodes for t in stripes),
                }
                for name in sorted(stripes[0].schemes)
            }
        return record

    def summarize(self, group: List[dict]) -> dict:
        entry = {
            key: _nanmean([r[key] for r in group]) for key in _MULTITREE_METRICS
        }
        entry["series"] = {key: _mean_series(group, key) for key in _MULTITREE_SERIES}
        return entry

    def report_axes(self) -> dict:
        return {
            "protocols": list(self.protocols),
            "tree_counts": list(self.tree_counts),
            "scenarios": [s.name for s in self.scenarios],
        }

    def table_columns(self) -> List[str]:
        return ["K", "blackout rate", "outage rate", "quality %", "blackouts/node"]

    def table_row(self, trees: Optional[int], entry: dict) -> list:
        return [
            trees,
            entry["blackout_rate"],
            entry["stripe_outage_rate"],
            100.0 * entry["mean_delivered_quality"],
            entry["blackouts_per_node"],
        ]


#: Campaign families by the name a scenario unit carries.
FAMILIES = {cls.family: cls for cls in (CampaignSpec, MultiTreeCampaignSpec)}


def build_report(
    spec: _Campaign, scale: float, seeds: List[int], runs: List[dict]
) -> CampaignReport:
    """Aggregate per-run records, in grid order, into the report."""
    cells: Dict[tuple, List[dict]] = {}
    for run in runs:
        key = (run["scenario"], run["protocol"], run.get("trees"))
        cells.setdefault(key, []).append(run)
    summary: Dict[str, dict] = {}
    rows = []
    for (scenario, protocol, trees), group in cells.items():
        entry = spec.summarize(group)
        by_protocol = summary.setdefault(scenario, {})
        if trees is None:
            by_protocol[protocol] = entry
        else:
            by_protocol.setdefault(protocol, {})[f"K{trees}"] = entry
        rows.append([scenario, protocol, *spec.table_row(trees, entry)])
    table = render_table(
        f"{spec.title} {spec.name!r} "
        f"(seeds {seeds}, scale {scale:g}, {len(runs)} runs)",
        ["scenario", "protocol", *spec.table_columns()],
        rows,
    )
    data = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "campaign": spec.name,
        "description": spec.description,
        "scale": scale,
        "seeds": list(seeds),
        **spec.report_axes(),
        "summary": summary,
        "runs": runs,
    }
    if any("invariants" in r for r in runs):
        data["invariant_violations"] = sum(
            r.get("invariants", {}).get("violations", 0) for r in runs
        )
    return CampaignReport(table=table, data=data)


def gate_data(report_data: dict) -> dict:
    """The NaN-free subset of a K-tree report the validate gate freezes.

    Per-run records carry diagnostic leaves that may legitimately be NaN
    at tiny scales (e.g. ``effective_delay_ms`` when no member holds all
    K stripes at the end state); the gated surface is the seed-averaged
    summary, whose rates and series are finite by construction.
    """
    return {
        key: value
        for key, value in report_data.items()
        if key not in ("description", "runs")
    }
