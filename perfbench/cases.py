"""Workload inputs: case lists and seeded case orders.

Every workload is a fixed set of cases; ``--seed`` only permutes the
order of each pass (and the service's request interleaving), so the
work a run does is identical across seeds and the deterministic counts
(``ii_sum``, conflicts, explored space nodes) can be compared exactly.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional, Sequence

#: the 17 benchmarks of the paper's Table III
TABLE3 = (
    "aes", "backprop", "basicmath", "bitcount", "cfd", "crc32", "fft",
    "gsm", "heartwall", "hotspot3D", "lud", "nw", "particlefilter",
    "sha1", "sha2", "stringsearch", "susan",
)

#: Table III cases whose 2x2 compile time equals the 30 s budget (no
#: mapping is found in time); left out of ``table3-2x2`` by name
BUDGET_BOUND_2X2 = ("backprop", "cfd", "hotspot3D", "particlefilter")

#: also left out of ``table3-2x2``: nw maps, but in one 14-20 s SAT solve
#: (94% of a pass). With it, a run was one pass whose throughput moved by
#: 25% (IQR over 10 runs) with host speed; without it the 12 remaining
#: cases, still SAT-bound, fill a run with many passes.
SLOW_2X2 = ("nw",)

#: per-case compile budget of every workload, in seconds
BUDGET_SECONDS = 30.0


class Case(NamedTuple):
    benchmark: str
    size: str
    arch: Optional[str] = None      # preset name; None = the paper's torus

    @property
    def label(self) -> str:
        fabric = self.arch or "torus"
        return f"{self.benchmark}@{self.size}/{fabric}"


def table3_large() -> List[Case]:
    return [Case(b, size) for size in ("10x10", "20x20") for b in TABLE3]


def table3_2x2() -> List[Case]:
    return [Case(b, "2x2") for b in TABLE3
            if b not in BUDGET_BOUND_2X2 + SLOW_2X2]


def space_bound() -> List[Case]:
    """Cases whose space phase is >= 90% of compile time, each under 1.5 s.

    The long space-bound cases are left out: hotspot3D on the 4x4 and
    5x5 tori (2-4 s, up to 695,946 space nodes), particlefilter on the
    6x6 memory-column mesh (1.3 s) and cfd on that mesh (6.7 s). One
    compile each filled a run, and host speed moved such single samples
    so much that ``compile_ms_p50`` spread by 43% over 10 runs. lud on
    the 6x6 mesh is left out because its space share is only 87%, and
    gsm on the 6x6 checkerboard (about 0.8 s; gsm stays, on the 4x4) so
    that a 20 s run fits 8 passes rather than 5.
    """
    mesh, sparse = "memory_column_mesh", "mul_sparse_checkerboard"
    return [
        Case("lud", "4x4", mesh),
        Case("lud", "5x5", mesh),
        Case("particlefilter", "5x5", mesh),
        Case("hotspot3D", "6x6", mesh),
        Case("gsm", "4x4", sparse),
    ]


COMPILE_WORKLOADS = {
    "table3-large": table3_large,
    "table3-2x2": table3_2x2,
    "space-bound": space_bound,
}


def shuffled(items: Sequence, rng: random.Random) -> list:
    order = list(items)
    rng.shuffle(order)
    return order


def another_pass(passes: int, timed: float, seconds: float) -> bool:
    """Whole passes only: run one more if it should end within ``seconds``.

    Called once ``passes`` (at least one) have run. Stopping before an
    overrun, rather than after, keeps a run close to ``seconds``.
    """
    return timed * (passes + 1) / passes <= seconds


# --------------------------------------------------------------------- #
# serve-kernels
# --------------------------------------------------------------------- #
#: 7 kernels x 6 fabrics x 2 opt levels = 84 cold keys per round
SERVE_SIZES = ("3x3", "4x4", "5x5", "6x6", "7x7", "8x8")
SERVE_OPT_LEVELS = ("O0", "O2")

#: warm (store-hit) requests sent after each cold one. An assumption:
#: the repository has no request log to take a real mix from. Only
#: ``cases_per_s`` depends on it: the latency metrics are cold-only or
#: warm-only.
WARM_PER_COLD = 2


class ServeKey(NamedTuple):
    kernel: str
    size: str
    opt_level: str

    @property
    def label(self) -> str:
        return f"{self.kernel}@{self.size}/{self.opt_level}"

    def payload(self, sources) -> dict:
        return {"kernel": sources[self.kernel], "cgra": self.size,
                "opt_level": self.opt_level,
                "budget_seconds": BUDGET_SECONDS}


def serve_keys(kernel_names: Sequence[str]) -> List[ServeKey]:
    return [ServeKey(k, size, level) for k in sorted(kernel_names)
            for size in SERVE_SIZES for level in SERVE_OPT_LEVELS]


def serve_schedule(keys: Sequence[ServeKey], rng: random.Random):
    """The closed-loop request list of a round: ``(key, expect_cache)``.

    Keys are sent cold in a seeded order; after each cold request come
    ``WARM_PER_COLD`` repeats drawn from the keys served so far.
    """
    schedule = []
    served: List[ServeKey] = []
    for key in shuffled(keys, rng):
        schedule.append((key, "miss"))
        served.append(key)
        for _ in range(WARM_PER_COLD):
            schedule.append((rng.choice(served), "hit"))
    return schedule

