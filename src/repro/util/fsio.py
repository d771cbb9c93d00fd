"""Durable file I/O primitives: atomic replace and advisory locking.

Several subsystems persist artefacts that must survive a crash mid-write:
the evaluation cache, sweep result files and the content-addressed
result store.  They all need the same two disciplines:

* **Atomic replacement** (:func:`atomic_write_text`) -- write the new
  content to a temporary file *in the destination directory* (same
  filesystem, so the rename cannot degrade to a copy) and ``os.replace``
  it over the target.  A reader either sees the old complete file or the
  new complete file, never a truncated hybrid; a crash between the two
  steps leaves the old file untouched.
* **Advisory locking** (:class:`FileLock`) -- serialise read-modify-write
  cycles (the store index rebuild) across processes.  On POSIX the guard
  is ``flock``, which the kernel releases even when the holder is
  SIGKILLed, so there are no stale locks to clean up; on platforms
  without ``fcntl`` it degrades to a best-effort no-op (single-writer
  usage remains correct thanks to the atomic replace).

:class:`~repro.core.execution.EvaluationCache.put` pioneered this
discipline inside ``core``; this module lifts it into a utility both
``core`` and the higher layers (``repro.store``) can share without
import cycles.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

try:  # POSIX advisory locking; see FileLock for the fallback semantics.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]


def atomic_write_text(path: str | Path, text: str, *, fsync: bool = False) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives next to the destination so the final rename
    stays within one filesystem.  On any failure the temporary file is
    removed and the destination keeps its previous content.  ``fsync``
    additionally flushes the data to stable storage before the rename,
    for files whose loss is more expensive than one extra disk round-trip
    (hours-long sweep results).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=f".{path.name}.", suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        Path(handle.name).unlink(missing_ok=True)
        raise
    return path


def atomic_write_json(path: str | Path, payload, *, indent: int | None = 1,
                      sort_keys: bool = False, fsync: bool = False) -> Path:
    """:func:`atomic_write_text` of ``json.dumps(payload)`` + newline."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    return atomic_write_text(path, text + "\n", fsync=fsync)


class FileLock:
    """Advisory inter-process lock around a sidecar ``.lock`` file.

    Context manager: ``with FileLock(path): ...`` blocks until the lock
    is free (unlike :class:`~repro.core.execution.SweepCheckpoint`'s
    fail-fast guard -- ledger appends *want* to queue, not to abort).
    Reentrant within one instance; distinct instances in one process
    still exclude each other through the kernel lock, so thread races on
    separate instances are covered too.
    """

    def __init__(self, target: str | Path):
        self.lock_path = Path(str(target) + ".lock")
        self._handle = None
        self._depth = 0

    def acquire(self) -> None:
        if self._depth:
            self._depth += 1
            return
        self.lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.lock_path, "a+")
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        self._handle = handle
        self._depth = 1

    def release(self) -> None:
        if not self._depth:
            return
        self._depth -= 1
        if self._depth:
            return
        handle, self._handle = self._handle, None
        # The lock file is deliberately left in place: unlinking it would
        # reopen the locked-a-ghost-inode race for waiting acquirers.
        handle.close()

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
