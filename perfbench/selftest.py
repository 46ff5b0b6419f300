"""Self-tests of the benchmark harness, at a tiny scale.

Run with ``python3 perfbench/run.py --selftest`` (or point pytest at this
file).  They check that

* every metric named in ``BENCHMARK.json`` is printed, with its unit;
* the traced run puts every wrapped function back afterwards;
* the self times of the traced layers add up to no more than the wall time;
* a different seed gives different inputs, and the same seed the same.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import traceback

import iteration
import run

TINY = {"churn-sweep": 0.01, "campaign": 0.005}


def _benchmark_metrics(trace: int) -> dict:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def test_every_metric_is_emitted_with_its_unit():
    # The paper orderings need the benchmark's own scales; at this scale
    # only the shape of the result is checked.
    for workload, scale in TINY.items():
        for trace in (0, 1):
            command = [
                sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", repr(scale),
            ]
            done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] > 0, result
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == _benchmark_metrics(trace), (workload, trace)


def _traced(workload_fn, *args):
    import layers
    import spans

    recorder = spans.Recorder(str(run.ROOT))
    installed = spans.install(recorder, layers.all_probes())
    wrappers = {id(new) for _, _, _, new in installed.patches}
    started = time.perf_counter()
    try:
        workload_fn(*args)
    finally:
        wall = time.perf_counter() - started
        installed.restore()
    return recorder, wrappers, wall


def test_wrapped_functions_are_restored():
    iteration.import_program()
    import layers
    import spans
    import workloads

    def raw(target):
        owner, attr = spans.resolve(target)
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = {probe.target: raw(probe.target) for probe in layers.all_probes()}
    _, wrappers, _ = _traced(workloads.churn_sweep, 1, TINY["churn-sweep"])
    assert {target: raw(target) for target in before} == before
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            leftover = [alias for alias, value in vars(module).items() if id(value) in wrappers]
            assert not leftover, (name, leftover)


def test_self_times_add_up_to_at_most_the_wall_time():
    iteration.import_program()
    import layers
    import workloads

    recorder, _, wall = _traced(workloads.churn_sweep, 2, TINY["churn-sweep"])
    merged = recorder.dump()
    total = layers.self_time_total(merged)
    assert 0 < total <= wall, (total, wall)
    assert merged["layers"]["membership"][1] > 0


def test_a_different_seed_gives_different_inputs():
    iteration.import_program()
    import workloads
    from repro.experiments.common import clear_caches

    scale = TINY["churn-sweep"]
    first = workloads.input_digest(1, scale)
    clear_caches()
    assert workloads.input_digest(1, scale) == first
    clear_caches()
    assert workloads.input_digest(2, scale) != first


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failures = 0
    for test in tests:
        started = time.perf_counter()
        try:
            test()
        except Exception:
            failures += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
        else:
            print(f"ok   {test.__name__} ({time.perf_counter() - started:.1f}s)")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
