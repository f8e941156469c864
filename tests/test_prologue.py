"""Pinned numbers of the mapping prologue and the fabric's lookup tables.

The prologue (feasibility, ResII/RecII, ASAP/ALAP) and the fabric build
are exact computations, so their results are pinned: the values in
``data/table3_prologue.json`` were recorded for the 17 Table III DFGs
with the networkx-based implementation these routines replaced. The
fabric's per-opcode PE sets are checked against a brute-force scan, and
its lazily built neighbour sets against the eager whole-fabric table
they replaced, including their iteration order, which the space
search's candidate order follows.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.arch.spec import build_preset, preset_names
from repro.arch.topology import Topology
from repro.core.feasibility import analyze_feasibility
from repro.graphs.analysis import (
    alap_schedule,
    asap_schedule,
    critical_path_length,
    mobility_schedule,
    rec_ii,
    res_ii,
)
from repro.workloads.suite import load_benchmark

from oracles.prologue import neighbor_table

PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "table3_prologue.json")
    .read_text(encoding="utf-8"))
FABRICS = {"10x10": CGRA(10, 10), "20x20": CGRA(20, 20)}
SIZES = [(rows, cols) for rows in range(2, 7) for cols in range(2, 7)]


@pytest.mark.parametrize("name", sorted(PINS))
def test_table3_prologue_numbers(name):
    pins = PINS[name]
    dfg = load_benchmark(name)
    ids = dfg.node_ids()
    assert rec_ii(dfg) == pins["rec_ii"]
    assert critical_path_length(dfg) == pins["critical_path_length"]
    asap, alap = asap_schedule(dfg), alap_schedule(dfg)
    assert [asap[n] for n in ids] == pins["asap"]
    assert [alap[n] for n in ids] == pins["alap"]
    mobs = mobility_schedule(dfg)
    assert (mobs.asap, mobs.alap) == (asap, alap)
    assert mobs.length == pins["critical_path_length"]
    for size, cgra in FABRICS.items():
        assert res_ii(dfg, cgra.num_pes) == pins["res_ii"][size]
        assert analyze_feasibility(dfg, cgra).op_res_ii == \
            pins["op_res_ii"][size]


def _scanned(cgra, opcode):
    return frozenset(pe.index for pe in cgra.pes if opcode in pe.operations)


@pytest.mark.parametrize("preset", preset_names())
def test_supporting_pes_equals_a_per_pe_scan(preset):
    for rows, cols in SIZES:
        cgra = build_preset(preset, rows, cols).build()
        for opcode in Opcode:
            supporting = cgra.supporting_pes(opcode)
            scanned = _scanned(cgra, opcode)
            assert supporting == scanned, (preset, rows, cols, opcode)
            assert list(supporting) == list(scanned)
            assert all(cgra.supports(i, opcode) == (i in scanned)
                       for i in range(cgra.num_pes))
        assert cgra.is_homogeneous == (len(set(cgra.operation_sets())) == 1)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=6),
    cols=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_supporting_pes_on_random_heterogeneous_fabrics(rows, cols, data):
    opcodes = sorted(Opcode, key=lambda op: op.value)
    overrides = data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=rows * cols - 1),
        st.sets(st.sampled_from(opcodes), max_size=6),
        max_size=rows * cols))
    cgra = CGRA(rows, cols, pe_operations=overrides)
    for opcode in opcodes:
        scanned = _scanned(cgra, opcode)
        assert cgra.supporting_pes(opcode) == scanned
        assert list(cgra.supporting_pes(opcode)) == list(scanned)


#: every grid from 1x2 to 24x24, both orientations
GRIDS = [(rows, cols) for rows in range(1, 25) for cols in range(1, 25)
         if rows * cols >= 2]


@pytest.mark.parametrize("topology", list(Topology))
def test_lazy_neighbors_equal_the_old_table(topology):
    for rows, cols in GRIDS:
        table = neighbor_table(rows, cols, topology)
        cgra = CGRA(rows, cols, topology=topology)
        # last PE first, and the "or self" set before the plain one, so
        # no set is built in the order the eager table built them
        for index in reversed(range(rows * cols)):
            assert list(cgra.neighbors_or_self(index)) == \
                list(table[index] | {index}), (topology, rows, cols, index)
            assert list(cgra.neighbors(index)) == list(table[index])


@pytest.mark.parametrize("topology", list(Topology))
def test_lazy_degrees_equal_a_full_scan(topology):
    for rows, cols in GRIDS:
        degrees = [len(n) + 1 for n in neighbor_table(rows, cols, topology)]
        # a fresh fabric, so on a torus the PE-0 shortcut answers
        cgra = CGRA(rows, cols, topology=topology)
        assert cgra.connectivity_degree == max(degrees), (topology, rows, cols)
        assert cgra.has_uniform_degree == (len(set(degrees)) == 1)
        assert [cgra.degree(i) for i in range(rows * cols)] == degrees
