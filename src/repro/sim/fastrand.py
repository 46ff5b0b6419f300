"""Draw-exact batched replication of ``Generator.integers(0, n)``.

The simulator no longer uses this module: membership sampling draws its
batches through numpy's public ``integers(size=...)`` API (see
:mod:`repro.overlay.membership`).  It stays only because the benchmark
harness (``perfbench/iteration.py``) imports :func:`replication_ok` for
its ``fastrand_replication_ok`` meta field; it can be deleted together
with that field.

The decoder replays the *identical* draw sequence of scalar
``Generator.integers(0, bound)`` calls from batched raw 64-bit outputs
of the underlying PCG64 bit generator and then rewinds the generator to
exactly the state the scalar loop would have left, so interleaved
``choice()`` / ``random()`` calls on the same stream stay byte-identical.

How numpy draws a bounded integer for ``0 < n <= 2**32`` (the
``buffered_bounded_lemire_uint32`` path):

* ``next_uint32`` splits each raw 64-bit output into two halves: the low
  half is returned first and the high half is buffered in the bit
  generator state (``has_uint32`` / ``uinteger``), persisting across
  calls;
* each draw computes ``m = next_uint32() * n`` and rejects while
  ``m & 0xffffffff < (2**32 - n) % n``; the value is ``m >> 32``.

Both the splitting and the rejection are deterministic, so a batch of raw
outputs decodes into the exact scalar draw sequence with vectorized
numpy arithmetic.  State resync after a partial batch uses
``bit_generator.advance`` (to rewind unused raws) plus the state-dict
setter (to restore a pending half-buffer).

Safety: the replication is verified once per process against an actual
``Generator`` on a cloned state (:func:`replication_ok`); any mismatch —
e.g. a future numpy changing the bounded-integer path — permanently
disables the fast path, falling back to scalar draws.  Wrong results are
impossible; only speed is at stake.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

_M32 = (1 << 32) - 1
_PERIOD = 1 << 128
#: Bounds verified against numpy's implementation (the 32-bit Lemire path
#: covers up to 2**32, but staying strictly below 2**31 keeps all
#: intermediate products inside verified territory).
_MAX_BOUND = (1 << 31) - 1

_REPLICATION_OK: Optional[bool] = None


def replication_ok() -> bool:
    """True when this numpy's ``integers`` path matches our decoder."""
    global _REPLICATION_OK
    if _REPLICATION_OK is None:
        try:
            _REPLICATION_OK = _verify_replication()
        except Exception:
            _REPLICATION_OK = False
    return _REPLICATION_OK


class BatchedIntegers:
    """Batched, draw-exact ``integers(0, bound)`` over one generator.

    Usage::

        batch = BatchedIntegers(generator)
        if batch.begin(population):
            try:
                while ...:
                    idx = batch.next()     # == int(generator.integers(0, population))
            finally:
                batch.end()                # generator state resynced exactly
        else:
            ...scalar fallback...

    Between ``begin`` and ``end`` nothing else may draw from the
    generator.  ``begin`` returns False (and touches nothing) when the
    fast path is unavailable — non-PCG64 bit generator, out-of-range
    bound, or a failed replication self-check.
    """

    #: Raw uint64s fetched per refill (each yields two 32-bit draws).
    BLOCK = 64

    def __init__(self, generator: np.random.Generator, _unchecked: bool = False):
        self._bg = generator.bit_generator
        self._enabled = type(self._bg).__name__ == "PCG64" and (
            _unchecked or replication_ok()
        )
        self._active = False
        self._bound = 0
        self._threshold = 0
        self._off = 0  # 1 when a pre-existing half-buffer heads the u32 stream
        self._init_half = 0
        self._raws: List[int] = []  # every raw fetched this batch, in order
        self._fetched = 0
        self._accepted: List[int] = []  # decoded draw values, in order
        self._uidx: List[int] = []  # u32-stream index consumed by each draw
        self._ai = 0  # next accepted index to hand out

    def begin(self, bound: int) -> bool:
        if not self._enabled or self._active or not 2 <= bound <= _MAX_BOUND:
            return False
        state = self._bg.state
        self._off = 1 if state["has_uint32"] else 0
        #: Captured verbatim: numpy leaves the last split-off high half in
        #: ``uinteger`` even once consumed (``has_uint32 == 0``), so exact
        #: state reproduction must carry it through untouched batches.
        self._init_half = int(state["uinteger"])
        self._bound = bound
        self._threshold = ((1 << 32) - bound) % bound
        self._raws = []
        self._fetched = 0
        self._accepted = []
        self._uidx = []
        self._ai = 0
        self._active = True
        return True

    def _refill(self) -> None:
        chunk = self._bg.random_raw(self.BLOCK)
        base_u = self._off + 2 * len(self._raws)
        self._raws.extend(int(r) for r in chunk.tolist())
        self._fetched += self.BLOCK
        # Interleave low/high halves in consumption order; a pending
        # pre-batch half heads the very first chunk.
        u = np.empty(2 * self.BLOCK + (self._off if base_u == self._off else 0),
                     dtype=np.uint64)
        if base_u == self._off and self._off:
            u[0] = self._init_half
            u[1::2] = chunk & np.uint64(_M32)
            u[2::2] = chunk >> np.uint64(32)
            base_u = 0
        else:
            u[0::2] = chunk & np.uint64(_M32)
            u[1::2] = chunk >> np.uint64(32)
        m = u * np.uint64(self._bound)
        leftover = m & np.uint64(_M32)
        keep = np.nonzero(leftover >= np.uint64(self._threshold))[0]
        self._accepted.extend((m[keep] >> np.uint64(32)).tolist())
        self._uidx.extend((keep + base_u).tolist() if base_u else keep.tolist())

    def next(self) -> int:
        """The next draw, identical to ``int(gen.integers(0, bound))``."""
        i = self._ai
        if i == len(self._accepted):
            self._refill()
            while i == len(self._accepted):  # pathological all-rejected block
                self._refill()
        self._ai = i + 1
        return self._accepted[i]

    def end(self) -> None:
        """Rewind the bit generator to the exact post-sequence state."""
        if not self._active:
            return
        self._active = False
        if self._ai == 0:
            consumed_u = 0
        else:
            consumed_u = self._uidx[self._ai - 1] + 1
        c = consumed_u - self._off
        if consumed_u == 0:
            # Nothing drawn: any pre-existing half-buffer is still pending.
            raws_used = 0
            has_half, half = bool(self._off), self._init_half
        elif c == 0:
            # Only the pre-existing half was consumed; it goes stale.
            raws_used = 0
            has_half, half = False, self._init_half
        else:
            q, r = divmod(c, 2)
            raws_used = q + r
            has_half = bool(r)
            # The last raw split in two leaves its high half in the
            # buffer slot — still there (stale) even when consumed.
            half = self._raws[q] >> 32 if r else self._raws[q - 1] >> 32
        unused = self._fetched - raws_used
        if unused:
            self._bg.advance((-unused) % _PERIOD)
        state = self._bg.state
        state["has_uint32"] = 1 if has_half else 0
        state["uinteger"] = int(half)
        self._bg.state = state
        self._raws = []
        self._accepted = []
        self._uidx = []


def _verify_replication() -> bool:
    """Mirror fast draws against a real Generator on a cloned state."""
    bg_fast = np.random.PCG64(0x5EED_CAFE)
    bg_ref = np.random.PCG64(0x5EED_CAFE)
    gen_fast = np.random.Generator(bg_fast)
    gen_ref = np.random.Generator(bg_ref)
    batch = BatchedIntegers(gen_fast, _unchecked=True)
    bounds = (2, 3, 5, 7, 13, 100, 1000, 15601, (1 << 16) + 1, _MAX_BOUND)
    for rounds in (1, 3, 7):
        for bound in bounds:
            if not batch.begin(bound):
                return False
            got = [batch.next() for _ in range(rounds)]
            batch.end()
            want = [int(gen_ref.integers(0, bound)) for _ in range(rounds)]
            if got != want:
                return False
        # Interleave other draw kinds so a broken state resync (including
        # a mishandled pending half-buffer) is caught immediately.
        if float(gen_fast.random()) != float(gen_ref.random()):
            return False
        a = gen_fast.choice(50, size=5, replace=False)
        b = gen_ref.choice(50, size=5, replace=False)
        if a.tolist() != b.tolist():
            return False
    return bg_fast.state == bg_ref.state
