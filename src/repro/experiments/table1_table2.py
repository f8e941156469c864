"""Reproduce paper Table I (ASAP/ALAP/MobS) and Table II (KMS).

Both tables are derived from the running-example DFG of Fig. 2a. The
reconstruction in :mod:`repro.workloads.running_example` matches the paper's
Table I row for row, which this driver prints side by side with the
expected values.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.graphs.analysis import mobility_schedule, min_ii, rec_ii, res_ii
from repro.graphs.kms import KernelMobilitySchedule
from repro.reporting.tables import Table
from repro.workloads.running_example import running_example_dfg

#: Table I exactly as printed in the paper (rows are time steps).
PAPER_TABLE1: Dict[str, List[List[int]]] = {
    "asap": [
        [0, 1, 2, 3, 4],
        [5, 11],
        [6, 12],
        [7, 8, 13],
        [9],
        [10],
    ],
    "alap": [
        [4],
        [3, 5],
        [0, 2, 6],
        [1, 8, 11],
        [7, 9, 12],
        [10, 13],
    ],
    "mobs": [
        [0, 1, 2, 3, 4],
        [0, 1, 2, 3, 5, 11],
        [0, 1, 2, 6, 11, 12],
        [1, 7, 8, 11, 12, 13],
        [7, 9, 12, 13],
        [10, 13],
    ],
}

PAPER_RUNNING_EXAMPLE_II = 4


def _cells(rows: Sequence[Sequence[int]]) -> List[str]:
    return [" ".join(str(n) for n in row) for row in rows]


def build_table1() -> Table:
    """ASAP / ALAP / MobS of the running example vs the paper's Table I."""
    dfg = running_example_dfg()
    mobs = mobility_schedule(dfg)
    table = Table(
        headers=["Time", "ASAP", "ALAP", "MobS",
                 "paper ASAP", "paper ALAP", "paper MobS", "match"],
        title="Table I -- ASAP, ALAP and MobS for the running example",
    )
    asap_rows = _cells(mobs.asap_rows())
    alap_rows = _cells(mobs.alap_rows())
    mobs_rows = _cells(mobs.rows())
    paper_asap = _cells(PAPER_TABLE1["asap"])
    paper_alap = _cells(PAPER_TABLE1["alap"])
    paper_mobs = _cells(PAPER_TABLE1["mobs"])
    for time_step in range(mobs.length):
        match = (
            asap_rows[time_step] == paper_asap[time_step]
            and alap_rows[time_step] == paper_alap[time_step]
            and mobs_rows[time_step] == paper_mobs[time_step]
        )
        table.add_row(
            time_step,
            asap_rows[time_step],
            alap_rows[time_step],
            mobs_rows[time_step],
            paper_asap[time_step],
            paper_alap[time_step],
            paper_mobs[time_step],
            "yes" if match else "NO",
        )
    return table


def build_table2(ii: int = PAPER_RUNNING_EXAMPLE_II) -> Table:
    """The Kernel Mobility Schedule of the running example for a given II."""
    dfg = running_example_dfg()
    mobs = mobility_schedule(dfg)
    kms = KernelMobilitySchedule(mobs, ii)
    table = Table(
        headers=["Slot", "Entries (node_iteration)"],
        title=f"Table II -- KMS for the MobS of Table I and II={ii} "
              f"({kms.num_foldings} foldings)",
    )
    for slot, row in enumerate(kms.rows()):
        table.add_row(slot, " ".join(f"{node}_{it}" for node, it in row))
    return table


def summary_lines() -> List[str]:
    """mII derivation of the running example (Sec. IV-B)."""
    dfg = running_example_dfg()
    resource = res_ii(dfg, 4)
    recurrence = rec_ii(dfg)
    return [
        f"ResII = ceil({dfg.num_nodes} / 4) = {resource}",
        f"RecII = {recurrence}",
        f"mII = max(ResII, RecII) = {min_ii(dfg, 4)} "
        f"(paper: {PAPER_RUNNING_EXAMPLE_II})",
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-map table1",
                                     description=__doc__)
    parser.add_argument("--ii", type=int, default=PAPER_RUNNING_EXAMPLE_II,
                        help="II used to fold the MobS into the KMS")
    parser.add_argument("--csv", type=str, default=None,
                        help="write Table I to this CSV file")
    args = parser.parse_args(argv)

    table1 = build_table1()
    print(table1.render())
    print()
    for line in summary_lines():
        print(line)
    print()
    table2 = build_table2(args.ii)
    print(table2.render())
    if args.csv:
        table1.to_csv(args.csv)
        print(f"\nTable I written to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
