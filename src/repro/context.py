"""The run context: one invocation's run-wide settings, as a frozen value.

The command line builds one :class:`RunContext` from its flags and
installs it for the duration of ``main()`` (:func:`installed`); the
experiment pool ships the same value to every worker process as the one
argument of its initializer, which makes it reach workers under both the
``fork`` and ``spawn`` start methods.  Everything that used to read a
flag from the environment — obs capture, the durable run store, the
invariant checker of the cached run helpers — reads :func:`current`
instead.

This module imports nothing from the package, so the observability and
store layers can depend on it without importing the experiment harness.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


@dataclass(frozen=True)
class RunContext:
    """The settings one CLI invocation applies to every run it makes."""

    #: Capture JSONL trace records (``--trace``).
    trace: bool = False
    #: Add one trace record per dispatched engine event (``--trace-events``).
    trace_events: bool = False
    #: Collect per-subsystem metrics registries (``--metrics``).
    metrics: bool = False
    #: Attribute wall time per event type and pool stage (``--profile``).
    profile: bool = False
    #: Run the cached experiment simulations under the strict invariant
    #: checker (``run``/``all --check-invariants``).
    check_invariants: bool = False
    #: Durable run store directory (``--store``); None disables the store.
    store_dir: Optional[str] = None
    #: Replay units the store already holds (``--resume``).
    resume: bool = False

    @property
    def observed(self) -> bool:
        """Whether any obs channel is on."""
        return self.trace or self.trace_events or self.metrics or self.profile

    def obs_fingerprint(self) -> Tuple[bool, bool, bool, bool]:
        """The enabled obs channels, in the order run keys fold them."""
        return (self.trace, self.trace_events, self.metrics, self.profile)


_current = RunContext()


def current() -> RunContext:
    """The context of the running invocation (all defaults outside one)."""
    return _current


def install(context: RunContext) -> None:
    """Make ``context`` current for the rest of this process (pool workers)."""
    global _current
    _current = context


@contextmanager
def installed(context: RunContext) -> Iterator[RunContext]:
    """Make ``context`` current for a block, restoring the previous one."""
    previous = _current
    install(context)
    try:
        yield context
    finally:
        install(previous)
