"""Span recording around the program's layer boundaries.

The benchmark never edits the program: it installs wrappers from its own
files around the functions listed in :mod:`layers`, records one span per
call, and restores every patched attribute afterwards.

A span's *self time* is its duration minus the time of the spans it
directly encloses, so summing self time over every span partitions the
traced wall time between layers.  A layer's *busy time* and *call
count* only take the outermost span of that layer into account, so a
layer calling itself (``sample_for`` -> ``sample``, ``swap_with_parent``
-> ``attach``) is not counted twice.

The experiment pool forks its workers, so wrappers installed before the
pool starts are inherited.  A worker starts from the parent's copy of the
recorder; the first span opened in a new process clears it, and every
top-level task (``run_unit_task`` / ``execute_job``) writes the worker's
totals to ``spans-<pid>.json`` in the recorder's directory before the
task returns, i.e. before the worker can exit.  The parent merges those
files with :func:`load_worker_dumps`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the counter holding engine events dispatched in one process.
EVENTS = "sim.events"


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``target`` is ``"module:attr"`` or
    ``"module:Class.attr"``; ``count(args, kwargs, result)`` returns
    counter increments and runs on every call, nested or not."""

    layer: str
    target: str
    count: Optional[Callable[[tuple, dict, object], Dict[str, float]]] = None
    #: A top-level pool task: flush the worker's totals when it returns.
    task: bool = False
    #: Only count (no span, no timing): for result inspection hooks.
    count_only: bool = False

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


def _events_processed() -> int:
    from repro.sim.engine import total_events_processed

    return total_events_processed()


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def task_key(name: str, args: tuple, kwargs: dict) -> str:
    """A short key naming one pool task by its (deterministic) arguments."""
    text = f"{name}{args!r}{sorted(kwargs.items())!r}"
    return f"{name}:{hashlib.sha1(text.encode()).hexdigest()[:16]}"


class Recorder:
    """Per-process span statistics.

    ``functions[name]`` holds ``[calls, outer_calls, busy_s, self_s,
    max_s]``; ``layers[layer]`` holds ``[outer_calls, busy_s, self_s]``;
    ``tasks[key]`` the time of each top-level pool task, keyed by the
    task's arguments, which the same seed makes equal in every iteration.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stack: List[List[float]] = []
        self.active: Dict[str, int] = defaultdict(int)
        self.functions: Dict[str, List[float]] = {}
        self.layers: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.tasks: Dict[str, float] = defaultdict(float)
        self.events_base = _events_processed()

    def wrap(self, fn: Callable, probe: Probe) -> Callable:
        recorder = self
        layer, name, count = probe.layer, probe.name, probe.count

        if probe.count_only:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if recorder.pid != os.getpid():
                    recorder._reset()
                result = fn(*args, **kwargs)
                for key, value in count(args, kwargs, result).items():
                    recorder.counters[key] += value
                return result

            return counted

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if recorder.pid != os.getpid():
                recorder._reset()
            stack = recorder.stack
            active = recorder.active
            frame = [0.0]
            stack.append(frame)
            depth = active[layer]
            active[layer] = depth + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                active[layer] = depth
                if stack:
                    stack[-1][0] += elapsed
                recorder._close(layer, name, elapsed, elapsed - frame[0], depth == 0)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    recorder.counters[key] += value
            if probe.task and not stack:
                recorder.tasks[task_key(name, args, kwargs)] += elapsed
                if recorder.pid != recorder.root_pid:
                    recorder.flush()
            return result

        return span

    def _close(self, layer: str, name: str, elapsed: float, own: float, outer: bool) -> None:
        stats = self.functions.get(name)
        if stats is None:
            stats = self.functions[name] = [0, 0, 0.0, 0.0, 0.0]
        stats[0] += 1
        stats[3] += own
        totals = self.layers.get(layer)
        if totals is None:
            totals = self.layers[layer] = [0, 0.0, 0.0]
        totals[2] += own
        if outer:
            stats[1] += 1
            stats[2] += elapsed
            if elapsed > stats[4]:
                stats[4] = elapsed
            totals[0] += 1
            totals[1] += elapsed

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters[EVENTS] = counters.get(EVENTS, 0) + _events_processed() - self.events_base
        return {
            "pid": os.getpid(),
            "functions": self.functions,
            "layers": self.layers,
            "counters": counters,
            "tasks": dict(self.tasks),
            "max_rss_mb": _max_rss_mb(),
        }

    def flush(self) -> None:
        """Write this process's totals (atomically) for the parent."""
        path = os.path.join(self.directory, f"spans-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.dump(), handle)
        os.replace(tmp, path)


def load_worker_dumps(directory: str, parent_pid: int) -> List[dict]:
    """Every worker dump written under ``directory``."""
    dumps = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                dump = json.load(handle)
            if dump["pid"] != parent_pid:
                dumps.append(dump)
    return dumps


def merge_dumps(dumps: List[dict]) -> dict:
    """Sum span, counter and task totals over processes (max of maxima)."""
    functions: Dict[str, List[float]] = {}
    layers: Dict[str, List[float]] = {}
    counters: Dict[str, float] = defaultdict(float)
    tasks: Dict[str, float] = defaultdict(float)
    for dump in dumps:
        for name, stats in dump["functions"].items():
            into = functions.setdefault(name, [0, 0, 0.0, 0.0, 0.0])
            for i in range(4):
                into[i] += stats[i]
            into[4] = max(into[4], stats[4])
        for layer, stats in dump["layers"].items():
            into = layers.setdefault(layer, [0, 0.0, 0.0])
            for i in range(3):
                into[i] += stats[i]
        for key, value in dump["counters"].items():
            counters[key] += value
        for key, value in dump["tasks"].items():
            tasks[key] += value
    return {"functions": functions, "layers": layers, "counters": dict(counters), "tasks": dict(tasks)}


# -- installing and restoring wrappers ------------------------------------------------


def resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Installation:
    """Patched attributes; :meth:`restore` puts the originals back."""

    def __init__(self) -> None:
        #: (owner, attribute, original raw value, replacement)
        self.patches: List[Tuple[object, str, object, object]] = []

    def patch(self, owner: object, attr: str, original: object, replacement: object) -> None:
        self.patches.append((owner, attr, original, replacement))
        setattr(owner, attr, replacement)

    def extend(self, other: "Installation") -> None:
        self.patches.extend(other.patches)

    def restore(self) -> None:
        """Undo every patch, including aliases that modules imported after
        the patch bound to a replacement (``from x import f``)."""
        originals = {id(new): original for _, _, original, new in self.patches}
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro"):
                for alias, value in list(vars(module).items()):
                    if id(value) in originals:
                        setattr(module, alias, originals[id(value)])
        self.patches.clear()


def install(recorder: Recorder, probes: List[Probe]) -> Installation:
    """Wrap every probe's target, including module-level aliases.

    A function imported by name into another module (``from x import f``)
    is patched there too, found by identity among the loaded ``repro``
    modules.  Class attributes keep their descriptor kind.
    """
    done = Installation()
    try:
        for probe in probes:
            owner, attr = resolve(probe.target)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(raw.__func__, probe))
            else:
                wrapped = recorder.wrap(raw, probe)
            done.patch(owner, attr, raw, wrapped)
            if isinstance(owner, type):
                continue
            for module_name, module in list(sys.modules.items()):
                if module is owner or not module_name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        done.patch(module, alias, raw, wrapped)
    except BaseException:
        done.restore()
        raise
    return done


def arm_first_event(directory: str) -> Installation:
    """Record, once per process, when the engine first dispatches.

    Wraps ``Simulator.run_until`` and ``Simulator.run``; the first call in
    a process writes ``first-event-<pid>`` (a ``time.monotonic`` reading,
    comparable across processes) and puts the originals back in that
    process, so the timed run pays one extra call.
    """
    from repro.sim.engine import Simulator

    done = Installation()
    originals = {name: Simulator.__dict__[name] for name in ("run_until", "run")}

    def make(name: str) -> Callable:
        original = originals[name]

        @functools.wraps(original)
        def first(self, *args, **kwargs):
            stamp = time.monotonic()
            for other, fn in originals.items():
                setattr(Simulator, other, fn)
            with open(os.path.join(directory, f"first-event-{os.getpid()}"), "w") as handle:
                handle.write(repr(stamp))
            return original(self, *args, **kwargs)

        return first

    for name, original in originals.items():
        done.patch(Simulator, name, original, make(name))
    return done


def first_event_time(directory: str) -> Optional[float]:
    """The earliest first-event stamp written by any process, or None."""
    stamps = []
    for entry in os.listdir(directory):
        if entry.startswith("first-event-"):
            with open(os.path.join(directory, entry)) as handle:
                stamps.append(float(handle.read()))
    return min(stamps) if stamps else None
