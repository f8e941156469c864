"""Mapping validation.

Checks everything the paper requires of a valid space-time mapping:

* **mono1** -- at most one operation per (PE, slot) pair;
* **mono2** -- every node executes in the slot assigned by the schedule
  (true by construction here, but re-derived from the MRRG labelling);
* **mono3** -- every dependence connects PEs that can exchange data through
  the interconnect (adjacent or identical PEs);
* **operation support** -- every node runs on a PE whose ALU implements its
  opcode (bites on heterogeneous fabrics; trivially true on homogeneous
  arrays);
* **dependence timing** -- every (possibly loop-carried) dependence produces
  its value before it is consumed;
* **capacity / connectivity** -- the Sec. IV-B2/3 bounds, which must hold for
  any mapping that exists (they are necessary conditions);
* optionally, **register pressure** -- the number of live rotating values per
  PE fits the register file (an extension beyond the paper, disabled by
  default because the paper ignores register-file capacity).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.exceptions import InvalidMappingError
from repro.core.mapping import Mapping


def _check_injectivity(mapping: Mapping, violations: List[str]) -> None:
    seen: Dict[tuple, int] = {}
    for node_id in mapping.dfg.node_ids():
        key = (mapping.pe(node_id), mapping.slot(node_id))
        if key in seen:
            violations.append(
                f"mono1: nodes {seen[key]} and {node_id} both mapped to "
                f"PE {key[0]} at slot {key[1]}"
            )
        else:
            seen[key] = node_id


def _check_labels(mapping: Mapping, violations: List[str]) -> None:
    for node_id in mapping.dfg.node_ids():
        slot = mapping.slot(node_id)
        vertex = mapping.mrrg_vertex(node_id)
        derived_slot = vertex // mapping.cgra.num_pes
        if slot != derived_slot or not (0 <= slot < mapping.ii):
            violations.append(
                f"mono2: node {node_id} has slot {slot} but MRRG vertex {vertex}"
            )


def _check_adjacency(mapping: Mapping, violations: List[str]) -> None:
    cgra = mapping.cgra
    for a, b in mapping.dfg.undirected_edges():
        pe_a, pe_b = mapping.pe(a), mapping.pe(b)
        slot_a, slot_b = mapping.slot(a), mapping.slot(b)
        if pe_a == pe_b and slot_a == slot_b:
            # already reported by mono1; avoid double-reporting adjacency
            continue
        if pe_a == pe_b:
            continue  # a PE can always read its own register file
        if not cgra.adjacent(pe_a, pe_b):
            violations.append(
                f"mono3: dependence ({a}, {b}) maps to non-adjacent "
                f"PEs {pe_a} and {pe_b}"
            )


def _check_op_support(mapping: Mapping, violations: List[str]) -> None:
    cgra = mapping.cgra
    for node in mapping.dfg.nodes():
        pe_index = mapping.pe(node.id)
        if not cgra.supports(pe_index, node.opcode):
            violations.append(
                f"op-support: node {node.id} ({node.opcode}) mapped to "
                f"PE {pe_index}, which does not implement that opcode"
            )


def _check_dependence_timing(mapping: Mapping, violations: List[str]) -> None:
    schedule = mapping.schedule
    for violation in schedule.validate_dependences():
        violations.append(f"timing: {violation}")


def _check_capacity(mapping: Mapping, violations: List[str]) -> None:
    for slot, nodes in enumerate(mapping.schedule.slot_population()):
        if len(nodes) > mapping.cgra.num_pes:
            violations.append(
                f"capacity: slot {slot} holds {len(nodes)} operations but the "
                f"CGRA has {mapping.cgra.num_pes} PEs"
            )


def _check_connectivity(mapping: Mapping, violations: List[str]) -> None:
    degree = mapping.cgra.connectivity_degree
    for node_id in mapping.dfg.node_ids():
        # |S_v^i| for every slot i at once: one pass over the neighbours
        counts = [0] * mapping.ii
        for u in mapping.dfg.neighbor_ids(node_id):
            counts[mapping.slot(u)] += 1
        for slot, count in enumerate(counts):
            if count > degree:
                violations.append(
                    f"connectivity: node {node_id} has {count} neighbours in "
                    f"slot {slot}, exceeding D_M={degree}"
                )


def _check_register_pressure(mapping: Mapping, violations: List[str]) -> None:
    """Count rotating copies needed per PE (modulo variable expansion)."""
    pressure: Dict[int, int] = {pe.index: 0 for pe in mapping.cgra.pes}
    for node_id in mapping.dfg.node_ids():
        produced = mapping.time(node_id) + mapping.dfg.node(node_id).latency
        longest = produced  # value must at least exist at production time
        for edge in mapping.dfg.out_edges(node_id):
            consumed = mapping.time(edge.dst) + edge.distance * mapping.ii
            longest = max(longest, consumed)
        lifetime = longest - mapping.time(node_id)
        copies = max(1, -(-lifetime // mapping.ii))  # ceil division
        pressure[mapping.pe(node_id)] += copies
    for pe_index, used in pressure.items():
        capacity = mapping.cgra.pe(pe_index).register_file_size
        if used > capacity:
            violations.append(
                f"registers: PE {pe_index} needs {used} rotating registers "
                f"but provides {capacity}"
            )


def validate_mapping(mapping: Mapping, check_registers: bool = False) -> List[str]:
    """Return the list of violated properties (empty when valid)."""
    violations: List[str] = []
    _check_injectivity(mapping, violations)
    _check_labels(mapping, violations)
    _check_adjacency(mapping, violations)
    _check_op_support(mapping, violations)
    _check_dependence_timing(mapping, violations)
    _check_capacity(mapping, violations)
    _check_connectivity(mapping, violations)
    if check_registers:
        _check_register_pressure(mapping, violations)
    return violations


def assert_valid_mapping(mapping: Mapping, check_registers: bool = False) -> None:
    """Raise :class:`InvalidMappingError` if the mapping is not valid."""
    violations = validate_mapping(mapping, check_registers=check_registers)
    if violations:
        raise InvalidMappingError(violations)
