"""The package runs without networkx, which only the test oracles use.

A fresh interpreter blocks every ``networkx`` import, then imports the
entry points and runs the strongest end-to-end check there is: a frontend
kernel mapped through the O2 pipeline (with its verify replay), validated,
and simulated against the sequential reference.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys


class BlockNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockNetworkx())

import repro
import repro.cli
import repro.service.jobs
from repro.arch.cgra import CGRA
from repro.core.engine import create_engine
from repro.core.validation import validate_mapping
from repro.frontend import EXAMPLE_KERNELS, extract_dfg
from repro.sim.executor import run_and_compare

program = extract_dfg(EXAMPLE_KERNELS["bitcount4"], name="bitcount4")
engine = create_engine("monomorphism", CGRA(3, 3), budget_seconds=60.0,
                       opt_level=2)
result = engine.map(program.dfg)
assert result.success, result.status
assert result.opt is not None and result.opt.verified
assert result.opt.changed  # reassociation rebalanced the chain
assert validate_mapping(result.mapping) == []
run_and_compare(result.mapping, iterations=8,
                initial_values=program.remapped(result.opt).initial_values)
assert repro.cli.main(["map", "--kernel-example", "dot_product",
                       "--cgra", "3x3", "--opt-level", "O2",
                       "--simulate"]) == 0
assert not any(name.split(".")[0] == "networkx" for name in sys.modules)
print("mapped without networkx")
"""


def test_maps_and_simulates_with_networkx_blocked():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "mapped without networkx" in proc.stdout
