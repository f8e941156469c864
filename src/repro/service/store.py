"""The content-addressed mapping-result store.

This module owns the *key derivation* and the *persistence format* shared
by the batch experiment cache and the compile service:

**Key derivation.** A result is addressed by :func:`content_key`: the
SHA-256 digest (truncated to 24 hex characters) of the canonical JSON
serialisation (sorted keys, no whitespace variance) of the *configuration
record* that produced it. Everything that can change the result must be in
the record, and nothing else, so equal configurations collide onto one key
whatever their spelling. The SAT tier is never in it: every tier computes
the same result. Two methods build records under this contract:

* :meth:`repro.experiments.batch.BatchCase.cache_key` -- benchmark, size,
  approach, time budget, architecture, optimization level/passes, and the
  resolved RNG seed of the stochastic engines;
* :meth:`repro.service.jobs.MapRequest.store_record` -- the DFG content
  (not its name), the resolved fabric, the engine, optimization
  level/passes, the resolved seed, and, for the stochastic engines only,
  the budget and sweep strategy (an exact engine's stored outcome does not
  depend on its budget: timeouts are never stored).

**Persistence.** Two layouts, one class:

* *sharded directory* (the service's layout): ``root/shards/<xx>.jsonl``
  where ``xx`` is the first two hex characters of the key, giving up to
  256 shard files that stay small and append-contended only by requests
  that share a prefix. Every record is one JSON line ``{"key": ...,
  "record": ...}`` written with a single ``write()`` call, so concurrent
  appenders interleave whole lines (POSIX append semantics). A torn
  final line from a crash is skipped by the loader, and the next append
  to that file starts a fresh line rather than extending the fragment.
  A line that is not UTF-8 JSON is skipped and counted the same way.
* *single JSONL file* (the historical batch-cache layout, selected by a
  path ending in ``.jsonl``): the same line format the batch runner has
  always written (``{"key": ..., "case": ..., "result": ...}`` plus
  optional ``{"header": ...}`` provenance lines, which carry no key and
  are ignored by the loader).

**Readers never write.** Opening a store never creates directories,
files, or header lines; all writes happen inside :meth:`ResultStore.put`
(and the header, when one is configured, is written lazily right before
the first record). A store opened with ``writable=False`` refuses
:meth:`~ResultStore.put` outright -- client-mode opens are guaranteed
side-effect-free.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import logjson, metrics
from repro.obs import trace as obs_trace

#: truncated-digest length; 96 bits of SHA-256 -- collision-safe for any
#: realistic store size while keeping keys short enough to read in logs
KEY_HEX_CHARS = 24

#: number of leading key characters that select a shard file (256 shards)
SHARD_PREFIX_CHARS = 2


def content_key(record: Dict[str, object]) -> str:
    """The store key of a configuration record.

    ``record`` must be JSON-serialisable; the key is the truncated SHA-256
    of its canonical dump (``sort_keys=True``), so key equality is exactly
    structural equality of the record.
    """
    payload = json.dumps(record, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:KEY_HEX_CHARS]


def scan_jsonl(path: str) -> Iterator[Tuple[bytes, Optional[Dict[str, object]]]]:
    """Every line of a JSONL file as ``(bytes, JSON object or None)``.

    The one reader of store files and of the service's drain journal:
    the loader and :meth:`ResultStore.compact` share it, so both classify
    a line alike, and no line's content can raise. A line ends at
    ``\\n`` only, which is not part of its bytes. ``None`` stands for a
    line that is blank, torn, not UTF-8, not JSON, or JSON but not an
    object.
    """
    with open(path, "rb") as handle:
        for line in handle:
            if line.endswith(b"\n"):
                line = line[:-1]
            try:
                record = json.loads(line.decode("utf-8")) \
                    if line.strip() else None
            except (ValueError, RecursionError):  # incl. UnicodeDecodeError
                record = None
            yield line, record if isinstance(record, dict) else None


def file_content_hash(path: str) -> str:
    """Full SHA-256 of a file's bytes (arch-spec files in cache keys)."""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class ResultStore:
    """A content-addressed record store over sharded (or single) JSONL.

    Args:
        path: a directory (sharded layout) or a ``*.jsonl`` file path
            (the flat batch-cache layout).
        writable: when ``False`` the store is a pure reader --
            :meth:`put` raises and nothing on disk is ever created or
            modified, not even for a path that does not exist yet.
        header: optional provenance record; written once as a keyless
            ``{"header": ...}`` line immediately before the first
            :meth:`put` of this store instance (never on open, so a run
            that only *reads* leaves the file byte-identical).
    """

    def __init__(
        self,
        path: str,
        writable: bool = True,
        header: Optional[Dict[str, object]] = None,
    ) -> None:
        self.path = path
        self.writable = writable
        self.header = header
        self._sharded = not path.endswith(".jsonl")
        self._index: Optional[Dict[str, Dict[str, object]]] = None
        self._header_written = False
        self._appends = 0
        # load-time hygiene counters: lines the loader had to skip
        # (torn/foreign -> skipped_lines, keyless provenance headers ->
        # header_lines), surfaced via stats() and /v1/store/stats
        self._skipped_lines = 0
        self._header_lines = 0

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _shard_path(self, key: str) -> str:
        return os.path.join(
            self.path, "shards", f"{key[:SHARD_PREFIX_CHARS]}.jsonl"
        )

    def _iter_files(self) -> Iterator[str]:
        if not self._sharded:
            if os.path.exists(self.path):
                yield self.path
            return
        shard_dir = os.path.join(self.path, "shards")
        if not os.path.isdir(shard_dir):
            return
        for name in sorted(os.listdir(shard_dir)):
            if name.endswith(".jsonl"):
                yield os.path.join(shard_dir, name)

    def _iter_records(self, path: str) -> Iterator[Tuple[str, Dict[str, object]]]:
        for line, record in scan_jsonl(path):
            if record is None:
                # torn trailing line from a crash, bytes that are not
                # UTF-8, or a foreign file: skipped, but not silently
                if line.strip():
                    self._skipped_lines += 1
                continue
            key = record.get("key")
            if not isinstance(key, str):
                # keyless provenance headers are expected; anything
                # else keyless is a foreign record worth counting
                if "header" in record:
                    self._header_lines += 1
                else:
                    self._skipped_lines += 1
                continue
            yield key, record

    def _load(self) -> Dict[str, Dict[str, object]]:
        if self._index is None:
            self._index = {}
            self._skipped_lines = 0
            self._header_lines = 0
            for path in self._iter_files():
                for key, record in self._iter_records(path):
                    self._index[key] = record
            if self._skipped_lines:
                metrics.inc("repro_store_skipped_lines_total",
                            self._skipped_lines)
                logjson.log(
                    "store_warning",
                    path=self.path,
                    skipped_lines=self._skipped_lines,
                    header_lines=self._header_lines,
                    message="skipped malformed store lines during load",
                    job=obs_trace.current_trace() or None,
                    trace_id=obs_trace.current_trace_id() or None,
                )
        return self._index

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The full stored line-record for ``key``, or ``None``."""
        return self._load().get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._load()

    def __len__(self) -> int:
        return len(self._load())

    def keys(self):
        return self._load().keys()

    def stats(self) -> Dict[str, object]:
        """Size/layout summary (the service's ``/v1/store/stats``)."""
        index = self._load()
        shards = 0
        size_bytes = 0
        for path in self._iter_files():
            shards += 1
            try:
                size_bytes += os.path.getsize(path)
            except OSError:  # pragma: no cover - raced with compaction
                pass
        return {
            "path": self.path,
            "layout": "sharded" if self._sharded else "jsonl",
            "records": len(index),
            "files": shards,
            "size_bytes": size_bytes,
            "appends_this_session": self._appends,
            "skipped_lines": self._skipped_lines,
            "header_lines": self._header_lines,
            "writable": self.writable,
        }

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _append_line(self, path: str, text: str) -> None:
        # one write() call per line: concurrent appenders (batch workers,
        # service workers) interleave whole records, never fragments. A
        # crash can still leave the file ending mid-line; the record then
        # starts a fresh line instead of being glued onto the fragment
        line = text.encode("utf-8") + b"\n"
        with open(path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def _target_path(self, key: str) -> str:
        if not self._sharded:
            return self.path
        shard_dir = os.path.join(self.path, "shards")
        os.makedirs(shard_dir, exist_ok=True)
        return self._shard_path(key)

    def put(self, key: str, record: Dict[str, object]) -> None:
        """Append ``record`` under ``key`` and index it in memory.

        ``record`` is stored as the line ``{"key": key, **record}`` --
        callers choose the payload fields (the batch runner stores
        ``case``/``result``, the service stores ``request``/``result``).
        The configured header, if any, is written lazily before the first
        record of this instance.
        """
        if not self.writable:
            raise PermissionError(
                f"result store {self.path!r} was opened read-only"
            )
        if "key" in record and record["key"] != key:
            raise ValueError("record carries a conflicting 'key' field")
        line_record = {"key": key, **record}
        target = self._target_path(key)
        if self.header is not None and not self._header_written:
            self._append_line(target if not self._sharded
                              else os.path.join(self.path, "header.jsonl"),
                              json.dumps({"header": self.header},
                                         sort_keys=True))
            self._header_written = True
        self._append_line(target, json.dumps(line_record, sort_keys=True))
        self._appends += 1
        self._load()[key] = line_record

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def compact(self) -> Dict[str, object]:
        """Rewrite the store's files, dropping dead lines.

        Dropped: blank lines, lines :func:`scan_jsonl` cannot read as a JSON
        object (torn, not UTF-8, foreign), keyless non-header records, and
        superseded duplicates (several appends under one key; the last
        occurrence wins, matching the loader). Every surviving record and
        header line is preserved **byte-identically** -- the original
        line text is carried over, never re-serialized. Each file is
        rewritten to a temp file and atomically renamed into place (files
        left with nothing live are removed); a file that is already clean
        is not touched at all.
        """
        if not self.writable:
            raise PermissionError(
                f"result store {self.path!r} was opened read-only")
        files = 0
        rewritten = 0
        removed_files = 0
        dropped_lines = 0
        records = 0
        for path in list(self._iter_files()):
            files += 1
            lines: List[bytes] = []
            last_for_key: Dict[str, int] = {}
            live = set()  # header lines, then each key's last record
            for index, (line, record) in enumerate(scan_jsonl(path)):
                lines.append(line)
                if record is None:
                    continue
                key = record.get("key")
                if isinstance(key, str):
                    last_for_key[key] = index
                elif "header" in record:
                    live.add(index)
            live.update(last_for_key.values())
            dropped_lines += len(lines) - len(live)
            records += len(last_for_key)
            if len(live) == len(lines):
                continue  # already clean; leave the file untouched
            if not live:
                os.remove(path)
                removed_files += 1
                continue
            tmp = path + ".compact.tmp"
            with open(tmp, "wb") as handle:
                handle.write(b"".join(lines[index] + b"\n"
                                      for index in sorted(live)))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            rewritten += 1
        self._index = None  # force a reload; skipped-line counters reset
        summary = {
            "path": self.path,
            "files": files,
            "rewritten": rewritten,
            "removed_files": removed_files,
            "dropped_lines": dropped_lines,
            "records": records,
        }
        logjson.log("store_compact", **summary)
        return summary
