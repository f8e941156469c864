"""Opt-in structured JSONL run log.

One JSON object per line, one record per interesting event (HTTP request,
job transition, engine attempt, store warning), each carrying a
``record`` type tag, a wall-clock ``ts``, and whatever fields the caller
attaches (trace id, job id, approach, tier, outcome, ...).

Disabled by default: :func:`log` is a no-op until :func:`configure` sets
a path, either programmatically (``repro-map map --log-json run.jsonl``)
or via the ``REPRO_LOG_JSON`` environment variable (picked up once, at
first use).  Each record is written and flushed atomically under a lock
so daemon worker threads interleave whole lines, never fragments.

Forked children never write the file (they would share the parent's
file offset); instead a child that wants its records kept -- every
:mod:`repro.core.workers` job -- brackets the work with
:func:`capture_begin`/:func:`capture_end` and ships the captured
records back over its result pipe for the parent to :func:`emit`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, IO, List, Optional

__all__ = ["configure", "configured", "log", "emit", "capture_begin",
           "capture_end", "close"]

ENV_VAR = "REPRO_LOG_JSON"

_lock = threading.Lock()
_handle: Optional[IO[str]] = None
_path: Optional[str] = None
_env_checked = False
_capture: Optional[List[Dict[str, Any]]] = None


def _after_fork_in_child() -> None:
    # a forked worker shares the parent's file offset through the
    # inherited handle; drop it (and take a fresh lock) so only the
    # parent process ever writes the run log
    global _lock, _handle, _path, _env_checked, _capture
    _lock = threading.Lock()
    _handle = None
    _path = None
    _env_checked = True
    _capture = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_after_fork_in_child)


def configure(path: Optional[str]) -> None:
    """Open (append) the run log at ``path``; ``None`` turns logging off."""
    global _handle, _path, _env_checked
    with _lock:
        if _handle is not None:
            try:
                _handle.close()
            except OSError:
                pass
        _handle = None
        _path = None
        _env_checked = True  # explicit configure wins over the env var
        if path:
            _handle = open(path, "a", encoding="utf-8")
            _path = path


def configured() -> Optional[str]:
    """The active log path, or ``None``."""
    _maybe_env()
    return _path


def _maybe_env() -> None:
    global _env_checked
    if _env_checked:
        return
    with _lock:
        if _env_checked:
            return
        _env_checked = True
    path = os.environ.get(ENV_VAR)
    if path:
        configure(path)


def capture_begin() -> None:
    """Start buffering records in memory instead of dropping them.

    Used by worker children (where the file handle is deliberately
    absent): the captured list is shipped back over the job pipe and the
    parent writes it via :func:`emit`, re-stamped with the job's ids.
    """
    global _capture
    _capture = []


def capture_end() -> List[Dict[str, Any]]:
    """Stop capturing; returns the buffered records."""
    global _capture
    captured, _capture = _capture, None
    return captured or []


def log(record: str, **fields: Any) -> None:
    """Append one structured record; no-op when unconfigured."""
    if _capture is None:
        _maybe_env()
        if _handle is None:
            return
    payload = {"record": record, "ts": round(time.time(), 6)}
    payload.update(fields)
    emit(payload)


def emit(payload: Dict[str, Any]) -> None:
    """Append a pre-built record dict (capture-aware, like :func:`log`)."""
    if _capture is not None:
        _capture.append(dict(payload))
        return
    _maybe_env()
    if _handle is None:
        return
    line = json.dumps(payload, sort_keys=True, default=str)
    with _lock:
        if _handle is None:
            return
        _handle.write(line + "\n")
        _handle.flush()


def close() -> None:
    """Close the log (tests; daemons on shutdown)."""
    configure(None)
