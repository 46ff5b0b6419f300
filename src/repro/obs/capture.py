"""Per-job artifact capture for the observability layer.

The CLI's ``--trace`` / ``--trace-events`` / ``--metrics`` / ``--profile``
switches travel in the run context (:mod:`repro.context`), which the
pool ships to its workers; the capture machinery below and the run-key
fingerprint read it from there.

Within one experiment job, every simulation that runs under an
:class:`~repro.obs.attach.ObsAttachment` finalizes into one
:class:`ObsUnit` and emits it into the ambient :class:`JobCapture`.  The
pool chokepoint (:func:`repro.experiments.pool.execute_job`) opens the
capture around the job and attaches the collected artifacts to the job's
:class:`~repro.experiments.registry.ExperimentResult`, so the runner can
merge them in submission order and produce output that is byte-identical
at any ``--jobs`` value.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..context import current


def obs_fingerprint() -> Tuple[bool, bool, bool, bool]:
    """The enabled-channel tuple (trace, trace-events, metrics, profile),
    for inclusion in run cache keys.

    Cached runs in :mod:`repro.experiments.common` store their emitted
    :class:`ObsUnit` next to the result; keying on the fingerprint keeps
    a unit captured with one channel set from being replayed under
    another.  The durable run store folds the same fingerprint into its
    ledger unit keys (:func:`repro.store.keys.unit_key`) for the same
    reason: a ``--resume`` must only replay results whose captured
    artifacts match the channels the resumed invocation has enabled,
    or merged traces would gain/lose records relative to an
    uninterrupted run.
    """
    return current().obs_fingerprint()


@dataclass
class ObsUnit:
    """Everything one observed simulation run produced.

    ``trace_lines`` are pre-serialized JSONL strings (no trailing
    newline) so replaying a cached unit is byte-exact by construction.
    ``metrics`` is a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    and is fully deterministic; ``profile`` holds wall-clock data and is
    the only nondeterministic field — it never feeds the trace channel.
    """

    meta: Dict[str, object] = field(default_factory=dict)
    trace_lines: List[str] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    profile: Dict[str, object] = field(default_factory=dict)


class JobCapture:
    """Collects the ObsUnits emitted while one experiment job runs."""

    def __init__(self) -> None:
        self.units: List[ObsUnit] = []

    def artifacts(self) -> Dict[str, object]:
        """Fold captured units into the artifact dict a result carries.

        Keys are present only when their channel produced something, so
        merging into an existing artifacts dict never clobbers data with
        empty lists.
        """
        out: Dict[str, object] = {}
        trace = [line for unit in self.units for line in unit.trace_lines]
        if trace:
            out["trace"] = trace
        metrics = [
            {"meta": unit.meta, **unit.metrics}
            for unit in self.units
            if unit.metrics
        ]
        if metrics:
            out["metrics"] = metrics
        profile = [
            {"meta": unit.meta, **unit.profile}
            for unit in self.units
            if unit.profile
        ]
        if profile:
            out["profile"] = profile
        return out


_current: Optional[JobCapture] = None


def current_capture() -> Optional[JobCapture]:
    return _current


def emit_unit(unit: ObsUnit) -> None:
    """Hand a finalized unit to the ambient capture (no-op without one)."""
    if _current is not None:
        _current.units.append(unit)


@contextmanager
def job_capture() -> Iterator[Optional[JobCapture]]:
    """Open a capture for one job; yields ``None`` when obs is inactive.

    Nests safely: an inner capture (e.g. a cached campaign scenario run
    collecting its own units) shadows the outer one for its duration
    and restores it afterwards.
    """
    global _current
    if not current().observed:
        yield None
        return
    previous = _current
    capture = JobCapture()
    _current = capture
    try:
        yield capture
    finally:
        _current = previous
