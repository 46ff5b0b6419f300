"""Golden-trace determinism and TraceWriter behaviour.

Three checked-in goldens pin the trace byte format:

* ``tests/golden/trace_engine.jsonl`` — a scripted bare-kernel run
  (no RNG involved, fully platform-independent) covering the
  high-volume ``event`` records plus ``fault`` and ``run_end``.
* ``tests/golden/trace_churn_small.jsonl`` — a tiny ROST churn run
  covering the structural records (``run_start``/``switch``/
  ``disruption``/``episode_open``/``episode_close``).
* ``tests/golden/trace_multitree_small.jsonl`` — a tiny K=2 striped
  run with a correlated crash, covering ``stripe_outage_open``/
  ``stripe_outage_close`` and the per-stripe ``run_start`` metadata.

Regenerate after an intentional format change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_trace.py
"""

import dataclasses
import json
import os
from functools import lru_cache
from pathlib import Path

import pytest

from repro.obs.attach import ObsAttachment
from repro.obs.schema import RECORD_TYPES, validate_trace_lines
from repro.obs.trace import TraceWriter
from repro.protocols import PROTOCOLS
from repro.sim.engine import Simulator
from repro.simulation.churn import ChurnSimulation

from .conftest import small_sim_config

GOLDEN_DIR = Path(__file__).parent / "golden"
ENGINE_GOLDEN = GOLDEN_DIR / "trace_engine.jsonl"
CHURN_GOLDEN = GOLDEN_DIR / "trace_churn_small.jsonl"
MULTITREE_GOLDEN = GOLDEN_DIR / "trace_multitree_small.jsonl"
ALL_GOLDENS = (ENGINE_GOLDEN, CHURN_GOLDEN, MULTITREE_GOLDEN)


def _engine_trace_unit():
    """A scripted kernel run: deterministic without any RNG."""
    sim = Simulator()
    attachment = ObsAttachment(
        meta={"kind": "engine"},
        trace=True,
        trace_events=True,
        metrics=True,
        profile=False,
    ).attach_engine(sim)

    def noop():
        pass

    sim.schedule_at(1.0, noop, label="tick")
    sim.schedule_at(2.0, noop, label="fault:test-outage", priority=-2)
    sim.schedule_at(2.0, noop, priority=1)
    cancelled = sim.schedule_at(3.0, noop, label="never-fires")
    cancelled.cancel()
    sim.schedule_at(4.0, noop, label="fault:test-crash")
    sim.run_until(5.0)
    return attachment.finalize()


def _golden_churn_config():
    # The paper's 100-slot root would absorb every member at this size
    # (flat tree, nothing to switch or recover); a 3-slot root forces
    # depth so the golden exercises switches and recovery episodes.
    cfg = small_sim_config(
        population=40,
        seed=9,
        warmup_lifetimes=0.4,
        measure_lifetimes=1.0,
        switch_interval_s=30.0,
    )
    return dataclasses.replace(
        cfg, workload=dataclasses.replace(cfg.workload, root_bandwidth=3.0)
    )


@lru_cache(maxsize=None)
def _multitree_trace_lines():
    """A tiny K=2 striped run under a correlated crash, traced per stripe.

    The driver attaches its own per-stripe ObsAttachments from the
    ambient obs environment, so this harness flips the trace flag and
    collects the emitted units through a job capture — the same path a
    traced campaign uses.
    """
    from repro.faults import FaultSchedule, NodeCrash
    from repro.multitree import MultiTreeSimulation
    from repro.context import RunContext, installed
    from repro.obs.capture import job_capture

    cfg = _golden_churn_config()
    schedule = FaultSchedule(
        seed=3, faults=(NodeCrash(count=4, at_frac=0.5),)
    )
    with installed(RunContext(trace=True)), job_capture() as capture:
        MultiTreeSimulation(
            cfg,
            num_trees=2,
            stripe_protocols=["rost", "rost"],
            faults=schedule,
        ).run()
    return [line for unit in capture.units for line in unit.trace_lines]


@lru_cache(maxsize=None)
def _churn_trace_unit(profile: bool):
    sim = ChurnSimulation(_golden_churn_config(), PROTOCOLS["rost"])
    attachment = ObsAttachment(
        meta={"kind": "churn", "protocol": "rost"},
        trace=True,
        trace_events=False,
        metrics=True,
        profile=profile,
    ).attach(sim)
    result = sim.run()
    return attachment.finalize(result)


def _check_golden(golden_path: Path, lines):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text("".join(line + "\n" for line in lines))
    expected = golden_path.read_text().splitlines()
    assert lines == expected, (
        f"trace diverged from {golden_path.name}; if the format change is "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_engine_trace_matches_golden():
    _check_golden(ENGINE_GOLDEN, _engine_trace_unit().trace_lines)


def test_churn_trace_matches_golden():
    _check_golden(CHURN_GOLDEN, _churn_trace_unit(False).trace_lines)


def test_multitree_trace_matches_golden():
    lines = _multitree_trace_lines()
    _check_golden(MULTITREE_GOLDEN, lines)
    types = {json.loads(line)["type"] for line in lines}
    assert {"stripe_outage_open", "stripe_outage_close"} <= types


def test_engine_trace_repeat_generation_is_byte_identical():
    assert _engine_trace_unit().trace_lines == _engine_trace_unit().trace_lines


def test_goldens_are_schema_valid():
    for path in ALL_GOLDENS:
        lines = path.read_text().splitlines()
        assert validate_trace_lines(lines) == len(lines) > 0


def test_goldens_cover_every_record_type():
    types = set()
    for path in ALL_GOLDENS:
        for line in path.read_text().splitlines():
            types.add(json.loads(line)["type"])
    assert types == set(RECORD_TYPES)


def test_trace_is_independent_of_profile_channel():
    """Wall-time data must never leak into trace records: enabling the
    profiler cannot change a single trace byte."""
    plain = _churn_trace_unit(False)
    profiled = _churn_trace_unit(True)
    assert plain.trace_lines == profiled.trace_lines
    assert plain.metrics == profiled.metrics
    assert plain.profile == {}
    assert profiled.profile["by_key"]  # wall times live here, and only here
    for line in profiled.trace_lines:
        assert "wall" not in line


def test_engine_trace_skips_cancelled_events_and_counts_faults():
    unit = _engine_trace_unit()
    labels = [
        json.loads(line)["label"]
        for line in unit.trace_lines
        if json.loads(line)["type"] == "event"
    ]
    assert "never-fires" not in labels
    assert unit.metrics["counters"]["faults.activations"] == 2
    assert unit.metrics["counters"]["sim.events_processed"] == 4


# -- TraceWriter file mode -------------------------------------------------------------


def test_file_writer_publishes_atomically(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    writer = TraceWriter(str(path), buffer_records=2)
    writer.emit({"type": "fault", "t": 1.0, "label": "fault:a"})
    writer.emit({"type": "fault", "t": 2.0, "label": "fault:b"})
    writer.emit({"type": "fault", "t": 3.0, "label": "fault:c"})
    # Nothing at the final path until close(), even though the buffer
    # (2 records) has already spilled to the temp file.
    assert not path.exists()
    assert list(tmp_path.glob("*.tmp-*"))
    writer.close()
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp-*"))
    lines = path.read_text().splitlines()
    assert validate_trace_lines(lines) == 3
    writer.close()  # idempotent


def test_file_writer_abort_leaves_nothing(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    writer = TraceWriter(str(path))
    writer.emit({"type": "fault", "t": 1.0, "label": "fault:a"})
    writer.abort()
    assert not path.exists()
    assert not list(tmp_path.glob("*.tmp-*"))


def test_file_writer_context_manager_aborts_on_error(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    with pytest.raises(RuntimeError):
        with TraceWriter(str(path)) as writer:
            writer.emit({"type": "fault", "t": 1.0, "label": "fault:a"})
            raise RuntimeError("boom")
    assert not path.exists()


def test_memory_writer_guards():
    writer = TraceWriter()
    writer.emit({"type": "fault", "t": 1.0, "label": "fault:a"})
    assert writer.records_emitted == 1
    writer.close()
    with pytest.raises(ValueError):
        writer.emit({"type": "fault", "t": 2.0, "label": "fault:b"})
    with pytest.raises(ValueError):
        TraceWriter(buffer_records=0)
    with pytest.raises(ValueError):
        TraceWriter("/tmp/x.jsonl").lines  # noqa: B018 - file mode has no lines
