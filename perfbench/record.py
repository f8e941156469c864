"""The cross-run half of the determinism gate.

Within a run, every repeat of a case must reproduce its first result
exactly (see the workload modules). Across runs of the same program --
identical files under ``src/repro`` -- the first run of a workload
records each case's outcome (status, II, solver and space counts, and a
digest of the mapping) in ``.perfbench_out/``; every later run of that
program compares its own outcomes with that record and reports each
difference as a failure. Host speed moves timings between runs; it must
never move these. A changed program has another digest and so starts a
new record: a change may legitimately alter conflicts, explored nodes
or the chosen placement.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List

PROGRAM_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")


def digest(value: object) -> str:
    return hashlib.sha1(repr(value).encode("utf-8")).hexdigest()[:16]


def program_digest(root: str = PROGRAM_ROOT) -> str:
    """A digest of every file of the program under test, paths included."""
    sha = hashlib.sha1()
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(directory, name)
            sha.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                sha.update(handle.read())
            sha.update(b"\0")
    return sha.hexdigest()[:16]


def compare(out_dir: str, workload: str, outcomes: Dict[str, List],
            report) -> None:
    """Record ``outcomes`` on first use, else report every difference."""
    name = (f"determinism-{workload}-{program_digest()}-"
            f"{digest(sorted(outcomes))}.json")
    path = os.path.join(out_dir, name)
    try:
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        partial = f"{path}.{os.getpid()}"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(outcomes, handle, indent=1, sort_keys=True)
        os.replace(partial, path)
        report.log(f"  determinism record written: {path}")
        return
    differing = 0
    for label, outcome in sorted(outcomes.items()):
        if recorded.get(label) != outcome:
            differing += 1
            report.fail(f"{label}: {outcome} differs from an earlier run "
                        f"of the same program: {recorded.get(label)}")
    if not differing:
        report.log(f"  determinism: all {len(outcomes)} outcomes match "
                   "earlier runs of the same program")
