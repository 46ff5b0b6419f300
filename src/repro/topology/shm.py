"""Zero-copy sharing of topology/oracle arrays via POSIX shared memory.

A parallel sweep at high ``--jobs`` makes every worker load (or worse,
recompute) its own copy of the underlay arrays: at paper scale ~4.6 MB
per worker, 2.4 MB of delay-oracle matrices plus 2.2 MB of graph and
domain arrays (measured in ``docs/performance.md``).  This
module lets the first process that materialises a topology *publish* its
arrays into one ``multiprocessing.shared_memory`` segment; every other
worker *attaches* and maps the same physical pages read-only, so N
workers hold one copy total and attachment costs microseconds instead of
an ``.npz`` parse.

Lifecycle
---------

* The experiment pool opens a **session** before forking workers: it
  picks a unique token and exports it as ``REPRO_SHM_SESSION``.  All
  segment names are derived from it (``rpt<session>-<cache key>``), so
  concurrent sweeps on one machine never collide.
* Any process in the session may :func:`publish` a keyed array bundle.
  Creation is exclusive; losing a publish race (another worker created
  the segment first) is not an error — the loser simply attaches.
* :func:`attach` maps a published bundle and returns **read-only** numpy
  views.  The mapped :class:`~multiprocessing.shared_memory.SharedMemory`
  object is kept alive in a per-process registry so the views can never
  outlive their buffer.
* The pool closes the session in a ``finally``: :func:`cleanup_session`
  unlinks every segment with the session prefix — by scanning
  ``/dev/shm`` rather than trusting bookkeeping, so segments published
  by a worker that later **crashed** are reclaimed too.  A crashed
  worker can never leak: the parent outlives it and sweeps the prefix.

Python 3.8–3.12 ``resource_tracker`` registers *attached* segments as if
the attaching process owned them, and would unlink them (with a noisy
warning) when that process exits — wrong for our parent-owned lifecycle,
so both :func:`publish` and :func:`attach` unregister their handle from
the tracker; ownership rests solely with the session sweep.

Set ``REPRO_SHM=0`` to disable the tier entirely (e.g. on a machine with
a tiny ``/dev/shm``); everything falls back to the disk cache.
"""

from __future__ import annotations

import os
import pickle
import secrets
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Session token exported by the pool; empty/unset = no shm tier.
ENV_SHM_SESSION = "REPRO_SHM_SESSION"
#: Kill switch: set to "0" to disable shared-memory publishing/attaching.
ENV_SHM_ENABLE = "REPRO_SHM"

_NAME_PREFIX = "rpt"
_ALIGN = 64

#: Attached/published segments kept alive for the life of this process
#: (numpy views into a closed SharedMemory buffer would be fatal).
_keepalive: Dict[str, object] = {}


def shm_available() -> bool:
    """True when the platform shared-memory primitive is importable."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    return True


def shm_enabled() -> bool:
    """True when a session is open and the kill switch is not set."""
    if os.environ.get(ENV_SHM_ENABLE, "1") == "0":
        return False
    return bool(os.environ.get(ENV_SHM_SESSION)) and shm_available()


def new_session_token() -> str:
    """A short unique token naming one pool run's segment family."""
    return secrets.token_hex(4)


def segment_name(key: str, session: Optional[str] = None) -> str:
    """The shared-memory segment name for a cache key in a session."""
    if session is None:
        session = os.environ.get(ENV_SHM_SESSION, "")
    return f"{_NAME_PREFIX}{session}-{key}"


def _untrack(shm) -> None:
    """Stop resource_tracker from unlinking a segment it does not own."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _pack_layout(
    arrays: Dict[str, np.ndarray]
) -> Tuple[bytes, List[Tuple[str, str, tuple, int]], int]:
    """Compute the segment layout: header bytes, entries, total size."""
    entries: List[Tuple[str, str, tuple, int]] = []
    offset = 0
    # Array offsets are relative to the end of the (length-prefixed) header.
    for name, arr in arrays.items():
        arr = _contiguous(arr)
        entries.append((name, arr.dtype.str, arr.shape, offset))
        offset += (arr.nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
    header = pickle.dumps(entries, protocol=4)
    return header, entries, offset


def _contiguous(a) -> np.ndarray:
    """C-contiguous view/copy preserving shape (0-d scalars included —
    ``ascontiguousarray`` would promote them to 1-d)."""
    arr = np.asarray(a)
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


def publish(key: str, arrays: Dict[str, np.ndarray]) -> bool:
    """Publish an array bundle under ``key`` in the current session.

    Returns True when this process created the segment, False when it
    already existed (another worker won the race — the existing copy is
    byte-identical by construction, both sides derived it from the same
    content key) or when the tier is disabled.  Never raises for
    resource exhaustion: a full ``/dev/shm`` degrades to the disk tier.
    """
    if not shm_enabled():
        return False
    from multiprocessing import shared_memory

    header, entries, payload_size = _pack_layout(arrays)
    total = 8 + len(header) + payload_size
    name = segment_name(key)
    try:
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
    except FileExistsError:
        return False
    except OSError:
        return False
    _untrack(shm)
    base = 8 + len(header)
    shm.buf[:8] = len(header).to_bytes(8, "little")
    shm.buf[8:base] = header
    for (name_, dtype, shape, offset), src in zip(
        entries, (_contiguous(a) for a in arrays.values())
    ):
        dst = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf,
                         offset=base + offset)
        dst[...] = src
    _keepalive[name] = shm
    return True


def attach(key: str) -> Optional[Dict[str, np.ndarray]]:
    """Map a published bundle; None when absent or the tier is disabled.

    The returned arrays are zero-copy read-only views into the shared
    pages; they stay valid for the life of this process (the segment
    handle is pinned in a module registry).
    """
    if not shm_enabled():
        return None
    from multiprocessing import shared_memory

    name = segment_name(key)
    shm = _keepalive.get(name)
    if shm is None:
        try:
            shm = shared_memory.SharedMemory(name=name, create=False)
        except (FileNotFoundError, OSError):
            return None
        _untrack(shm)
        _keepalive[name] = shm
    try:
        header_len = int.from_bytes(bytes(shm.buf[:8]), "little")
        entries = pickle.loads(bytes(shm.buf[8 : 8 + header_len]))
        base = 8 + header_len
        arrays: Dict[str, np.ndarray] = {}
        for name_, dtype, shape, offset in entries:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf,
                              offset=base + offset)
            view.flags.writeable = False
            arrays[name_] = view
        return arrays
    except Exception:
        # Torn or foreign segment: treat as a miss, fall back to disk.
        return None


def cleanup_session(session: Optional[str] = None) -> int:
    """Unlink every segment belonging to ``session``; returns the count.

    Scans ``/dev/shm`` for the session prefix so segments created by
    since-dead workers are reclaimed too.  Safe to call repeatedly and
    from processes that never published anything.
    """
    if session is None:
        session = os.environ.get(ENV_SHM_SESSION, "")
    if not session or not shm_available():
        return 0
    from multiprocessing import shared_memory

    prefix = f"{_NAME_PREFIX}{session}-"
    removed = 0
    # Release our own handles first so unlink fully frees the pages.
    for name in [n for n in _keepalive if n.startswith(prefix)]:
        try:
            _keepalive.pop(name).close()
        except Exception:
            pass
    shm_dir = "/dev/shm"
    names: List[str] = []
    if os.path.isdir(shm_dir):
        names = [n for n in os.listdir(shm_dir) if n.startswith(prefix)]
    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name, create=False)
        except (FileNotFoundError, OSError):
            continue
        # No _untrack here: this attach registers with resource_tracker
        # and unlink() unregisters — they balance out exactly.
        try:
            seg.close()
            seg.unlink()
            removed += 1
        except (FileNotFoundError, OSError):
            pass
    return removed


def active_segments(session: Optional[str] = None) -> List[str]:
    """Names of live segments for a session (diagnostics and tests)."""
    if session is None:
        session = os.environ.get(ENV_SHM_SESSION, "")
    prefix = f"{_NAME_PREFIX}{session}-"
    shm_dir = "/dev/shm"
    if not session or not os.path.isdir(shm_dir):
        return []
    return sorted(n for n in os.listdir(shm_dir) if n.startswith(prefix))
