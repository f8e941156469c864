"""networkx views of the package's graphs, for tests that use networkx as
an independent oracle.

The package runs on the DFG's own adjacency lists and on the MRRG's
implicit adjacency; these builders materialise the same graphs as
networkx objects so that networkx's algorithms can cross-check the
package's on small instances.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import networkx as nx
from networkx.algorithms import isomorphism

from repro.arch.mrrg import MRRG
from repro.graphs.dfg import DFG
from repro.matching.monomorphism import PatternGraph


def data_dag(dfg: DFG) -> nx.DiGraph:
    """The distance-0 subgraph as a networkx DAG."""
    graph = nx.DiGraph()
    graph.add_nodes_from(dfg.node_ids())
    graph.add_edges_from((e.src, e.dst) for e in dfg.data_edges())
    return graph


def full_digraph(dfg: DFG) -> nx.DiGraph:
    """Every dependence, keeping the smallest distance of parallel edges."""
    graph = nx.DiGraph()
    graph.add_nodes_from(dfg.node_ids())
    for e in dfg.edges():
        if not graph.has_edge(e.src, e.dst) or \
                e.distance < graph[e.src][e.dst]["distance"]:
            graph.add_edge(e.src, e.dst, distance=e.distance)
    return graph


def undirected_graph(dfg: DFG) -> nx.Graph:
    """The DFG's undirected view (the paper's ``E_G``)."""
    graph = nx.Graph()
    graph.add_nodes_from(dfg.node_ids())
    graph.add_edges_from(dfg.undirected_edges())
    return graph


def mrrg_graph(mrrg: MRRG) -> nx.Graph:
    """The MRRG materialised vertex by vertex (small instances only)."""
    graph = nx.Graph()
    graph.add_nodes_from(mrrg.vertices())
    for v in mrrg.vertices():
        graph.add_edges_from((v, u) for u in mrrg.neighbors(v) if u > v)
    return graph


def rec_ii_by_cycle_enumeration(dfg: DFG) -> int:
    """RecII as the maximum of ``ceil(length / distance)`` over every
    simple cycle (exponential in the worst case: small graphs only)."""
    graph = full_digraph(dfg)
    best = 1
    for cycle in nx.simple_cycles(graph):
        length = sum(dfg.node(n).latency for n in cycle)
        distance = 0
        for i, u in enumerate(cycle):
            v = cycle[(i + 1) % len(cycle)]
            distance += graph[u][v]["distance"]
        if distance == 0:
            raise ValueError(f"cycle {cycle} has zero total distance")
        best = max(best, math.ceil(length / distance))
    return best


def networkx_monomorphism(
    pattern: PatternGraph, target: nx.Graph
) -> Optional[Dict[int, int]]:
    """Find a label-preserving monomorphism with networkx, or ``None``.

    ``target`` must carry a ``label`` attribute on every node. networkx's
    ``subgraph_monomorphisms_iter`` maps *target* nodes to *pattern*
    nodes, so the returned dictionary is inverted to the pattern -> target
    convention used elsewhere.
    """
    pattern_nx = nx.Graph()
    for v in pattern.vertices:
        pattern_nx.add_node(v, label=pattern.labels[v])
    for v, neighbors in pattern.adjacency.items():
        pattern_nx.add_edges_from((v, u) for u in neighbors if u > v)
    matcher = isomorphism.GraphMatcher(
        target,
        pattern_nx,
        node_match=lambda t_attrs, p_attrs: t_attrs.get("label") == p_attrs.get("label"),
    )
    for big_to_small in matcher.subgraph_monomorphisms_iter():
        return {pattern_vertex: target_vertex
                for target_vertex, pattern_vertex in big_to_small.items()}
    return None
