"""Zone-connectivity graph analyses (built on networkx).

Turns the extraction results into a directed graph whose nodes are
sensible zones and observation points and whose edges are the
structural "failure can migrate from A to B" relations of §3 — the
graph behind Figures 1-3.  Useful for:

* ranking zones by *reach* (how many observation points a failure can
  touch) and by *betweenness* (zones every failure path funnels
  through — natural checker locations);
* finding zones with no path to any diagnostic alarm (structurally
  undetectable failures: λDU by construction);
* exporting the graph for visualization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .effects import EffectPredictor
from .extractor import ZoneSet
from .model import ObservationKind, ZoneKind

if TYPE_CHECKING:
    import networkx as nx

# networkx is imported inside the functions that need it: this module
# is loaded at CLI start, and networkx alone roughly doubles the
# number of modules an import of the CLI pulls in.


def build_zone_graph(zone_set: ZoneSet,
                     kinds=(ZoneKind.REGISTER, ZoneKind.MEMORY,
                            ZoneKind.PRIMARY_INPUT)) -> nx.DiGraph:
    """Zones/observation-points digraph with sequential-distance
    weights.

    An edge zone -> point exists when the zone's failure structurally
    reaches the observation point; the ``distance`` attribute is the
    minimum number of register crossings.
    """
    import networkx as nx
    graph = nx.DiGraph()
    predictor = EffectPredictor(zone_set.circuit,
                                zone_set.observation_points)
    for point in zone_set.observation_points:
        graph.add_node(point.name, kind="observation",
                       observation_kind=point.kind.value)
    for zone in zone_set.zones:
        if zone.kind not in kinds:
            continue
        graph.add_node(zone.name, kind="zone",
                       zone_kind=zone.kind.value,
                       bits=zone.size_bits)
        for effect in predictor.predict(zone).effects:
            graph.add_edge(zone.name, effect.observation,
                           distance=effect.distance,
                           main=effect.is_main)
    return graph


def undiagnosed_zones(zone_set: ZoneSet,
                      kinds=(ZoneKind.REGISTER,
                             ZoneKind.MEMORY)) -> list[str]:
    """Zones that reach a functional output but no diagnostic alarm.

    These are structurally dangerous-undetected: no diagnostic can ever
    flag their failures — the graph-theoretic face of the baseline's
    decoder-pipeline blind spot.
    """
    graph = build_zone_graph(zone_set, kinds=kinds)
    alarms = {p.name for p in zone_set.diagnostic_points()}
    functional = {p.name for p in zone_set.observation_points
                  if p.kind is ObservationKind.OUTPUT}
    out = []
    for node, data in graph.nodes(data=True):
        if data.get("kind") != "zone":
            continue
        succ = set(graph.successors(node))
        if succ & functional and not succ & alarms:
            out.append(node)
    return sorted(out)


def zone_reach(zone_set: ZoneSet) -> dict[str, int]:
    """Number of observation points each zone's failure can touch."""
    graph = build_zone_graph(zone_set)
    return {node: graph.out_degree(node)
            for node, data in graph.nodes(data=True)
            if data.get("kind") == "zone"}


def diagnostic_reach_ratio(zone_set: ZoneSet) -> float:
    """Fraction of storage zones with a structural path to an alarm."""
    graph = build_zone_graph(zone_set,
                             kinds=(ZoneKind.REGISTER, ZoneKind.MEMORY))
    alarms = {p.name for p in zone_set.diagnostic_points()}
    zones = [n for n, d in graph.nodes(data=True)
             if d.get("kind") == "zone"]
    if not zones:
        return 1.0
    reached = sum(1 for z in zones
                  if set(graph.successors(z)) & alarms)
    return reached / len(zones)


def checker_placement_candidates(zone_set: ZoneSet,
                                 top: int = 5) -> list[tuple[str, float]]:
    """Zones with the highest betweenness in the zone/cone graph.

    High-betweenness zones funnel many failure-propagation paths — the
    natural places to add checkers (the §6 redesign put them exactly at
    such funnels: after the coder, after the decoder pipeline).
    Computed on the net-level graph projected to zones.
    """
    import networkx as nx
    graph = build_zone_graph(zone_set)
    centrality = nx.betweenness_centrality(graph)
    zones = [(node, score) for node, score in centrality.items()
             if graph.nodes[node].get("kind") == "zone"]
    zones.sort(key=lambda kv: -kv[1])
    return zones[:top]


def export_graphml(zone_set: ZoneSet, path) -> None:
    """Write the zone graph for external visualization tools."""
    import networkx as nx
    nx.write_graphml(build_zone_graph(zone_set), path)
