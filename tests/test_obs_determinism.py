"""End-to-end determinism of the traced CLI path.

The observability contract: a traced run's merged JSONL and its ``--json``
report are byte-identical across ``--jobs`` values and across repeat
invocations.  Only the profile channel (stdout-only) may differ.
"""

import json

import pytest

from repro.context import RunContext, current
from repro.experiments import common
from repro.experiments.runner import main
from repro.obs.schema import validate_trace_lines


@pytest.fixture(autouse=True)
def fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


def _traced_run(tmp_path, tag, jobs, extra=()):
    trace = tmp_path / f"trace-{tag}.jsonl"
    dump = tmp_path / f"data-{tag}.json"
    common.clear_caches()
    code = main([
        "run", "fig05",
        "--scale", "0.02",
        "--seed", "3",
        "--replicas", "2",
        "--jobs", str(jobs),
        "--trace", str(trace),
        "--metrics",
        "--json", str(dump),
        *extra,
    ])
    assert code == 0
    return trace.read_text(), dump.read_text()


def test_trace_byte_identical_across_jobs(tmp_path):
    serial = _traced_run(tmp_path, "j1", jobs=1)
    parallel = _traced_run(tmp_path, "j2", jobs=2)
    assert serial[0] == parallel[0], "merged trace differs between --jobs 1 and 2"
    assert serial[1] == parallel[1], "--json report differs between --jobs 1 and 2"

    lines = serial[0].splitlines()
    assert validate_trace_lines(lines) == len(lines) > 0


def test_trace_byte_identical_across_repeat_runs(tmp_path):
    first = _traced_run(tmp_path, "a", jobs=2)
    second = _traced_run(tmp_path, "b", jobs=2)
    assert first == second


def test_profile_channel_does_not_touch_trace_or_json(tmp_path):
    plain = _traced_run(tmp_path, "plain", jobs=2)
    profiled = _traced_run(tmp_path, "prof", jobs=2, extra=["--profile"])
    assert plain == profiled


def test_metrics_land_in_json_report(tmp_path):
    _, dump = _traced_run(tmp_path, "json", jobs=1)
    data = json.loads(dump)
    totals = data["_obs_metrics"]
    assert totals["units"] > 0
    assert totals["counters"]["sim.events_processed"] > 0


def test_obs_env_restored_after_main(tmp_path):
    """The obs flags live in a run context scoped to ``main()``."""
    assert current() == RunContext()
    _traced_run(tmp_path, "env", jobs=1)
    assert current() == RunContext(), "obs flags leaked out of main()"


def test_untraced_run_writes_no_trace_file(tmp_path):
    common.clear_caches()
    code = main(["run", "fig05", "--scale", "0.02", "--seed", "3", "--jobs", "1"])
    assert code == 0
    assert list(tmp_path.glob("*.jsonl")) == []
