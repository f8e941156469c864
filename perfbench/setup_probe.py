"""One fresh set-up of a workload, in its own process.

``run.py`` starts this script several times and reports the median wall
clock as ``setup_s``: interpreter start, the package imports, building
the workload's inputs (DFGs and fabrics, or the example kernels), and
for ``serve-kernels`` starting the daemon and answering one health
request.

    python3 perfbench/setup_probe.py <workload> <scratch-dir>
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def compile_setup(workload: str) -> None:
    from compile_load import load_benchmark, runner
    from cases import COMPILE_WORKLOADS

    for case in COMPILE_WORKLOADS[workload]():
        load_benchmark(case.benchmark)
        runner.build_cgra_from_arch(case.size, case.arch)


def serve_setup(scratch: str) -> None:
    from repro.frontend import EXAMPLE_KERNELS, extract_dfg

    from serve_load import Daemon

    for source in EXAMPLE_KERNELS.values():
        extract_dfg(source)
    daemon = Daemon(scratch)
    try:
        daemon.client.health()
    finally:
        daemon.close()


if __name__ == "__main__":
    name, scratch_dir = sys.argv[1], sys.argv[2]
    if name == "serve-kernels":
        serve_setup(scratch_dir)
    else:
        compile_setup(name)
