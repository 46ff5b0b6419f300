"""First-class simulation units for the sweep-unit scheduler.

The paper's figures are *views* over a much smaller set of simulations:
Figs 4/7/8/10 read different metrics off the same five-protocol size
sweep, Fig 5 and the message accounting share its 8000-member column,
and Figs 6/9 share the probe runs.  With ``--jobs 1`` the in-process
caches in :mod:`~repro.experiments.common` already exploit that; with
``--jobs N`` the legacy pool sharded work *by figure* and every worker
re-simulated the shared runs from scratch.

This module makes the underlying simulations schedulable objects:

* :class:`ChurnUnit` / :class:`RecoveryUnit` / :class:`ScenarioUnit`
  identify one simulation by exactly the parameters the run caches key
  on — so a unit executed in a worker can be installed into the
  parent's cache under the very key the consuming figures will look up;
  a :class:`ScenarioUnit` is one cell of a fault or K-tree campaign grid
  (:mod:`repro.faults.campaign`);
* experiment modules declare their units with :func:`declare_units`; the
  pool plans over ``units_for(...)``, dedups across figures, executes
  each unit once, and replays the figures in-process as cheap demux
  (see :meth:`~repro.experiments.pool.ExperimentPool.run`);
* payloads cross process boundaries as canonical JSON built from the
  exact serializers on :class:`~repro.simulation.churn.ChurnRunResult` /
  :class:`~repro.simulation.streaming.RecoveryRunResult` (a scenario's
  record is JSON already), so floats are bit-identical on both sides and
  captured :class:`ObsUnit` traces replay byte-for-byte;
* with the durable store active, executed units are recorded under
  ``sim:churn`` / ``sim:recovery`` / ``sim:scenario`` ledger ids and
  ``--resume`` replays them instead of re-simulating
  (:func:`run_unit_task`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..obs.capture import ObsUnit, obs_fingerprint
from ..recovery.schemes import RecoveryScheme
from ..simulation.churn import ChurnRunResult
from ..simulation.streaming import RecoveryRunResult
from ..store.keys import unit_key
from ..store.runstore import active_store, resume_enabled
from . import common
from .common import SweepSettings

#: Schema tag embedded in every unit payload (bump on layout changes so
#: a stale store entry can never be deserialized into the wrong shape).
#: Version 2: ``obs`` is a list of captured units (a K-tree scenario
#: captures one per stripe).
PAYLOAD_VERSION = 2

#: Marker carried by probe units instead of a :class:`Session`: the
#: Fig. 6/9 probe is a deterministic function of (settings, population),
#: so the unit stays a small frozen value and the session is rebuilt
#: where the unit executes.
DEFAULT_PROBE = "default"


@dataclass(frozen=True)
class ChurnUnit:
    """One churn simulation: (protocol, population, settings, variant)."""

    protocol: str
    population: int
    settings: SweepSettings
    probe: Optional[str] = None
    switch_interval_s: Optional[float] = None
    #: Sorted (name, value) pairs — hashable form of the rost_flags dict.
    rost_flags: Tuple[Tuple[str, bool], ...] = ()

    kind = "churn"
    scale = property(lambda self: self.settings.scale)
    seed = property(lambda self: self.settings.seed)

    def cache_key(self) -> tuple:
        """The parent/worker run-cache key (environment-dependent: folds
        the invariant flag and obs fingerprint at call time)."""
        probe_lifetime_s = (
            common.DEFAULT_PROBE_LIFETIME_S if self.probe == DEFAULT_PROBE else None
        )
        return common.churn_key(
            self.protocol,
            self.population,
            self.settings,
            probe_lifetime_s=probe_lifetime_s,
            switch_interval_s=self.switch_interval_s,
            rost_flags=dict(self.rost_flags),
        )

    def store_doc(self) -> dict:
        """Canonical JSON-able identity for the durable store's ledger."""
        return {
            "unit": "churn",
            "version": PAYLOAD_VERSION,
            "protocol": self.protocol,
            "population": self.population,
            "settings": dataclasses.asdict(self.settings),
            "probe": self.probe,
            "switch_interval_s": self.switch_interval_s,
            "rost_flags": [list(pair) for pair in self.rost_flags],
            "checked": common._invariants_enabled(),
        }

    def execute(self) -> dict:
        """Run (or hit the local cache for) this unit; exact payload."""
        probe = None
        if self.probe == DEFAULT_PROBE:
            probe = common.default_probe(self.settings, self.population)
        result = common.churn_run(
            self.protocol,
            self.population,
            self.settings,
            probe=probe,
            switch_interval_s=self.switch_interval_s,
            rost_flags=dict(self.rost_flags) or None,
        )
        obs_units = common.captured_obs(self.cache_key())
        return _payload(self, result.to_payload(), obs_units)

    def install(self, payload: dict) -> None:
        """Install a deserialized payload into this process's run cache."""
        result = ChurnRunResult.from_payload(payload["result"])
        common.seed_run("churn", self.cache_key(), result, _obs_from(payload))


@dataclass(frozen=True)
class RecoveryUnit:
    """One recovery simulation: a scheme grid over one churn pass."""

    protocol: str
    population: int
    settings: SweepSettings
    schemes: Tuple[RecoveryScheme, ...]
    replica: int = 0

    kind = "recovery"
    scale = property(lambda self: self.settings.scale)
    seed = property(lambda self: self.settings.seed)

    def cache_key(self) -> tuple:
        return common.recovery_key(
            self.protocol,
            self.population,
            self.settings,
            [s.name for s in self.schemes],
            replica=self.replica,
        )

    def store_doc(self) -> dict:
        return {
            "unit": "recovery",
            "version": PAYLOAD_VERSION,
            "protocol": self.protocol,
            "population": self.population,
            "settings": dataclasses.asdict(self.settings),
            "schemes": [dataclasses.asdict(s) for s in self.schemes],
            "replica": self.replica,
            "checked": common._invariants_enabled(),
        }

    def execute(self) -> dict:
        result = common.recovery_run(
            self.protocol,
            self.population,
            self.settings,
            list(self.schemes),
            replica=self.replica,
        )
        obs_units = common.captured_obs(self.cache_key())
        return _payload(self, result.to_payload(), obs_units)

    def install(self, payload: dict) -> None:
        result = RecoveryRunResult.from_payload(payload["result"])
        common.seed_run("recovery", self.cache_key(), result, _obs_from(payload))


@dataclass(frozen=True)
class ScenarioUnit:
    """One campaign grid cell: (scenario, protocol, K, seed) of a spec.

    ``family`` names the campaign family (``faults`` or ``multitree``,
    see :data:`repro.faults.campaign.FAMILIES`) and ``spec_json`` is the
    spec's canonical JSON; ``trees`` is ``None`` for single-tree runs.
    """

    family: str
    spec_json: str
    scenario: str
    protocol: str
    trees: Optional[int]
    seed: int
    scale: float
    check_invariants: bool = False

    kind = "scenario"

    def cache_key(self) -> tuple:
        return ("scenario", *dataclasses.astuple(self), obs_fingerprint())

    def store_doc(self) -> dict:
        return {
            "unit": "scenario",
            "version": PAYLOAD_VERSION,
            **dataclasses.asdict(self),
        }

    def run(self) -> dict:
        """This cell's record, from the run cache when it holds one."""
        return common.scenario_run(self)

    def execute(self) -> dict:
        record = self.run()
        return _payload(self, record, common.captured_obs(self.cache_key()))

    def install(self, payload: dict) -> None:
        obs_units = _obs_from(payload)
        common.seed_run("scenario", self.cache_key(), payload["result"], obs_units)


SimulationUnit = Union[ChurnUnit, RecoveryUnit, ScenarioUnit]


def _payload(unit: SimulationUnit, result: dict, obs_units: List[ObsUnit]) -> dict:
    return {
        "version": PAYLOAD_VERSION,
        "kind": unit.kind,
        "result": result,
        "obs": [dataclasses.asdict(obs_unit) for obs_unit in obs_units],
    }


def _obs_from(payload: dict) -> List[ObsUnit]:
    return [ObsUnit(**data) for data in payload["obs"]]


def sim_unit_store_key(unit: SimulationUnit) -> str:
    """The durable-store ledger key for one simulation unit.

    Reuses the canonical-JSON key folding of :mod:`repro.store.keys`;
    the obs fingerprint is folded in for the same reason figure-level
    job keys fold it (traced and untraced captures must never
    cross-replay).
    """
    doc = unit.store_doc()
    return unit_key(
        f"sim:{doc['unit']}",
        unit.scale,
        unit.seed,
        sorted(doc.items()),
        obs_fingerprint(),
    )


def run_unit_task(unit: SimulationUnit) -> str:
    """Execute one unit (worker entry point); returns the payload JSON.

    The durable store composes at this level: with ``--resume`` a stored
    unit is replayed instead of simulated, and every genuinely executed
    unit is recorded, so a campaign killed mid-sweep resumes at unit —
    not figure — granularity.  Shipping the canonical JSON string (not
    the dict) across the process boundary makes the byte-exactness of
    the payload independent of pickle's float handling.
    """
    store = active_store()
    key = sim_unit_store_key(unit) if store is not None else None
    if store is not None and resume_enabled():
        stored = store.replay_sim_unit(key)
        if stored is not None:
            parsed = json.loads(stored)
            if parsed.get("version") == PAYLOAD_VERSION:
                return stored
            store.ledger.forget_unit(key)
    payload = unit.execute()
    blob = json.dumps(payload, separators=(",", ":"))
    if store is not None:
        store.record_sim_unit(key, unit, blob)
    return blob


def seed_unit(unit: SimulationUnit, payload_json: str) -> None:
    """Install a worker-produced payload into this process's caches."""
    unit.install(json.loads(payload_json))


# -- figure declarations ----------------------------------------------------------

_DECLARERS: Dict[str, Callable[..., List[SimulationUnit]]] = {}


def declare_units(experiment_id: str):
    """Register the unit declarer for one experiment.

    The declarer receives the same kwargs as the experiment's ``run``
    (scale, seed, and any figure-specific overrides) and must return the
    exact simulation units ``run`` will consume — same parameters, same
    cache keys — or the demux phase would re-simulate in the parent.
    Experiments without a declarer (the direct-sim extensions) are
    scheduled as whole jobs.
    """

    def decorate(fn):
        _DECLARERS[experiment_id] = fn
        return fn

    return decorate


def units_for(
    experiment_id: str, scale: float, seed: int, **kwargs
) -> Optional[List[SimulationUnit]]:
    """The units one job would simulate, or ``None`` if not declared."""
    declarer = _DECLARERS.get(experiment_id)
    if declarer is None:
        return None
    return declarer(scale=scale, seed=seed, **kwargs)
