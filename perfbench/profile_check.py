"""cProfile cross-check of the span-based layer table on ``churn-sweep``.

Runs the workload once traced (a cold iteration, as the benchmark does)
and once under cProfile in this process, then prints

* cProfile self time per module, and
* each layer's share of the run by spans (self time / traced wall) beside
  its share by cProfile.

To give cProfile the spans' meaning, a profiled function's self time goes
to the layer of the probed function it belongs to: its own layer if it is
probed, otherwise the layers of its callers, weighted by the time each
caller spent in it.  Time outside every probed call is ``other``.
cProfile charges every call, builtins included, so layers making many small
calls (membership above all) weigh more there than under spans.  The
membership line also prints the self time of the membership modules alone,
the measure ROADMAP quotes, which agrees with the spans within a few points.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from collections import defaultdict

import iteration
import run

#: The membership layer's own modules: ``fastrand`` only serves sampling.
MEMBERSHIP_MODULES = ("repro/overlay/membership.py", "repro/sim/fastrand.py")


def _probe_layers() -> dict:
    """pstats key -> layer for every probed function."""
    import layers
    import spans

    keys = {}
    for probe in layers.all_probes():
        owner, attr = spans.resolve(probe.target)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(fn, "__func__", fn)
        code = fn.__code__
        keys[(code.co_filename, code.co_firstlineno, code.co_name)] = probe.layer
    return keys


def layer_shares(stats: dict, probed: dict) -> dict:
    """Layer -> share of total cProfile self time, attributed as above."""
    mixes = {}

    def mix(func) -> dict:
        if func in probed:
            return {probed[func]: 1.0}
        if func in mixes:
            return mixes[func]
        mixes[func] = {"other": 1.0}  # stands in while resolving a cycle
        callers = stats[func][4]
        weights = {caller: edge[3] for caller, edge in callers.items() if caller in stats}
        total = sum(weights.values())
        if total <= 0:
            return mixes[func]
        combined = defaultdict(float)
        for caller, weight in weights.items():
            for layer, share in mix(caller).items():
                combined[layer] += share * weight / total
        mixes[func] = dict(combined)
        return mixes[func]

    totals = defaultdict(float)
    grand = 0.0
    for func, (_, _, tottime, _, _) in stats.items():
        grand += tottime
        for layer, share in mix(func).items():
            totals[layer] += tottime * share
    return {layer: value / grand for layer, value in totals.items()}


def module_self_times(stats: dict) -> list:
    by_module = defaultdict(float)
    src = str(iteration.SRC) + os.sep
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        name = filename[len(src):] if filename.startswith(src) else filename
        by_module[name] += tottime
    return sorted(by_module.items(), key=lambda item: -item[1])


def main(seed: int, scale=None) -> int:
    iteration.import_program()
    import workloads

    scale = workloads.CHURN_SCALE if scale is None else scale
    with run.scratch("profile") as work:
        traced = run.run_iteration("churn-sweep", seed, True, work, 0, scale)
    wall = traced["wall_s"]
    span_shares = {layer: own / wall for layer, (_, _, own) in traced["span_layers"].items()}
    span_shares["other"] = 1.0 - sum(span_shares.values())

    profiler = cProfile.Profile()
    profiler.runcall(workloads.churn_sweep, seed, scale)
    stats = pstats.Stats(profiler).stats
    total = sum(entry[2] for entry in stats.values())

    print(f"cProfile self time per module (churn-sweep, seed {seed}, scale {scale:g}, total {total:.2f}s)")
    for module, seconds in module_self_times(stats)[:20]:
        print(f"  {100 * seconds / total:6.1f}%  {seconds:8.3f}s  {module}")
    modules = dict(module_self_times(stats))
    membership_modules = sum(modules.get(name, 0.0) for name in MEMBERSHIP_MODULES) / total
    profile_shares = layer_shares(stats, _probe_layers())
    print(f"\nlayer self-time shares: spans (traced wall {wall:.2f}s) vs cProfile")
    print(f"  {'layer':12s} {'spans%':>7s} {'cProfile%':>9s} {'diff':>6s}")
    for layer in sorted(set(span_shares) | set(profile_shares), key=lambda l: -span_shares.get(l, 0)):
        a, b = 100 * span_shares.get(layer, 0.0), 100 * profile_shares.get(layer, 0.0)
        print(f"  {layer:12s} {a:7.1f} {b:9.1f} {a - b:6.1f}")
    busy = traced["layers"]["membership.busy_s"] / wall
    print(f"\nmembership busy share: spans {100 * busy:.1f}%; cProfile self time of "
          f"{' + '.join(MEMBERSHIP_MODULES)} {100 * membership_modules:.1f}%, "
          f"with the builtins they call {100 * profile_shares.get('membership', 0.0):.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 1))
