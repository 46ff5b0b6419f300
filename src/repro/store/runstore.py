"""The durable run store: ledger + artifact store behind one facade.

A store is a directory::

    <root>/ledger.sqlite   # schema-versioned unit/run ledger
    <root>/objects/...     # content-addressed result payloads
    <root>/quarantine/     # corrupted payloads moved aside on read
    <root>/.lock           # advisory lock shared by all writers

Activation travels in the run context (:mod:`repro.context`), which the
pool ships to its worker processes:

* ``store_dir`` (``--store``) — record every completed unit into this
  store at the :func:`repro.experiments.pool.execute_job` chokepoint;
* ``resume`` (``--resume``) — additionally *replay* units the ledger
  already has (skip execution, reconstruct the result — including its
  captured obs artifacts — from the stored payload).

Replay is what makes ``--resume`` byte-exact: a completed unit's table
string, data dict and artifact lists come back from the store in the
very bytes the original execution produced, so merged reports and
traces cannot tell a resumed run from an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

from ..context import current
from ..errors import StoreError
from .artifacts import ArtifactStore
from .keys import STORE_SCHEMA_VERSION, canonical_json, unit_key
from .ledger import Ledger
from .locks import FileLock

class RunStore:
    """One store directory; cheap to construct, safe to share via path."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.lock = FileLock(os.path.join(self.root, ".lock"))
        self.artifacts = ArtifactStore(self.root, lock=self.lock)
        self.ledger = Ledger(
            os.path.join(self.root, "ledger.sqlite"), lock=self.lock
        )

    # -- unit identity -----------------------------------------------------------

    def job_key(self, job) -> str:
        """The ledger key for one pool job (see :mod:`repro.store.keys`).

        Takes any object with the :class:`~repro.experiments.pool.
        ExperimentJob` attributes; the obs fingerprint is folded in so
        traced and untraced captures of the same parameters never
        cross-replay.
        """
        from ..obs.capture import obs_fingerprint

        return unit_key(
            job.experiment_id,
            job.scale,
            job.seed,
            job.kwargs,
            obs_fingerprint(),
        )

    # -- record / replay ---------------------------------------------------------

    def record_result(self, key: str, job, result) -> str:
        """Persist one completed unit; returns the payload digest.

        The payload is the result's JSON form (``default=str``, matching
        the runner's ``--json`` conversion) so anything the final report
        derives from it round-trips to the same bytes.  Publication is
        artifact-first: the ledger row commits only after the payload is
        durably on disk, so a kill between the two leaves an unreferenced
        object (reclaimed by ``gc``), never a dangling ledger row.
        """
        payload = dict(result.to_payload())
        payload["store_schema"] = STORE_SCHEMA_VERSION
        data = json.dumps(payload, separators=(",", ":"), default=str).encode(
            "utf-8"
        )
        digest = self.artifacts.put(data)
        self.ledger.record_unit(
            key,
            experiment_id=job.experiment_id,
            scale=job.scale,
            seed=job.seed,
            params_json=canonical_json(dict(job.kwargs)),
            artifact=digest,
        )
        return digest

    def replay(self, key: str):
        """The stored result for ``key``, or ``None`` on miss/corruption.

        A hit bumps the unit's ledger ``hits`` counter (the resume tests
        assert on it).  A corrupt or truncated payload quarantines the
        object, drops the now-unservable ledger row, and reports a miss —
        the caller re-executes and republishes.
        """
        from ..experiments.registry import ExperimentResult

        row = self.ledger.lookup_unit(key)
        if row is None:
            return None
        data = self.artifacts.get(row["artifact"])
        if data is None:
            self.ledger.forget_unit(key)
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"artifact {row['artifact']} passed hash verification but "
                f"is not a result payload: {exc}"
            ) from exc
        self.ledger.record_hit(key)
        return ExperimentResult.from_payload(payload)

    def has_unit(self, key: str) -> bool:
        """Ledger-only membership test; never bumps the ``hits`` counter.

        The sweep-unit planner uses this to decide which jobs still need
        their simulation units scheduled: replay accounting must reflect
        actual replays, not planning probes.
        """
        return self.ledger.lookup_unit(key) is not None

    # -- simulation units (sweep-unit scheduler) ---------------------------------

    def record_sim_unit(self, key: str, unit, payload_json: str) -> str:
        """Persist one executed simulation unit's exact payload.

        Same artifact-first publication order as :meth:`record_result`.
        The ledger row's ``experiment_id`` is the unit kind (``sim:churn``
        / ``sim:recovery`` / ``sim:scenario``), so figure-level rows and
        simulation-unit rows share one ledger without colliding, and the
        acceptance assert (*each deduped unit executes exactly once*) can
        filter on the prefix and read the ``executions`` counters.
        """
        doc = unit.store_doc()
        digest = self.artifacts.put(payload_json.encode("utf-8"))
        self.ledger.record_unit(
            key,
            experiment_id=f"sim:{doc['unit']}",
            scale=unit.scale,
            seed=unit.seed,
            params_json=canonical_json(doc),
            artifact=digest,
        )
        return digest

    def replay_sim_unit(self, key: str) -> Optional[str]:
        """The stored payload JSON for a simulation unit, or ``None``.

        Follows :meth:`replay`'s contract: a hit bumps the ledger
        counter; a missing/corrupt artifact drops the row and reports a
        miss so the caller re-simulates.
        """
        row = self.ledger.lookup_unit(key)
        if row is None:
            return None
        data = self.artifacts.get(row["artifact"])
        if data is None:
            self.ledger.forget_unit(key)
            return None
        self.ledger.record_hit(key)
        return data.decode("utf-8")

    # -- run records -------------------------------------------------------------

    def record_run(
        self,
        name: str,
        command: str,
        params: Dict[str, object],
        report_text: Optional[str],
        json_data: Optional[dict],
        units_total: int,
        units_replayed: int,
    ) -> int:
        """Link one completed CLI invocation to its final outputs."""
        report_digest = None
        if report_text is not None:
            report_digest = self.artifacts.put(report_text.encode("utf-8"))
        json_digest = None
        if json_data is not None:
            json_digest = self.artifacts.put(
                json.dumps(json_data, indent=2, default=str).encode("utf-8")
            )
        return self.ledger.record_run(
            name=name,
            command=command,
            params_json=canonical_json(params),
            report_artifact=report_digest,
            json_artifact=json_digest,
            units_total=units_total,
            units_replayed=units_replayed,
        )

    def run_report(self, run_id: int) -> Tuple[dict, Optional[str], Optional[dict]]:
        """A run row plus its verified report text and JSON data."""
        row = self.ledger.get_run(run_id)
        report_text = None
        if row.get("report_artifact"):
            data = self.artifacts.get(row["report_artifact"])
            report_text = data.decode("utf-8") if data is not None else None
        json_data = None
        if row.get("json_artifact"):
            data = self.artifacts.get(row["json_artifact"])
            json_data = json.loads(data.decode("utf-8")) if data else None
        return row, report_text, json_data

    # -- maintenance -------------------------------------------------------------

    def gc(self, purge_quarantine: bool = False) -> Dict[str, int]:
        """Drop unreferenced objects (and optionally quarantined ones)."""
        referenced = set(self.ledger.referenced_artifacts())
        removed = 0
        with self.lock:
            for digest in list(self.artifacts.digests()):
                if digest not in referenced:
                    self.artifacts.delete(digest)
                    removed += 1
        quarantined = (
            self.artifacts.purge_quarantine() if purge_quarantine else 0
        )
        return {"removed": removed, "quarantine_purged": quarantined}


# -- the store of the running invocation -----------------------------------------

_active: Dict[Tuple[int, str], RunStore] = {}


def active_store() -> Optional[RunStore]:
    """The store named by the run context's ``store_dir``, or ``None``.

    Cached per ``(pid, path)``: a forked worker builds its own instance
    instead of inheriting the parent's (no SQLite connections are held
    open, but the lock file descriptor must not be shared either).
    """
    path = current().store_dir
    if not path:
        return None
    cache_key = (os.getpid(), os.path.abspath(path))
    store = _active.get(cache_key)
    if store is None:
        store = RunStore(path)
        _active.clear()  # at most one live store per process
        _active[cache_key] = store
    return store
