"""Probe-set computation and the baseline beacon-selection heuristic.

The paper relies on the two-phase approach of [Nguyen & Thiran, PAM 2004]:

1. starting from the set of *possible* beacons ``V_B``, compute an optimal
   set of probes ``Φ`` -- IP packets sent from a beacon towards a network
   node -- such that every link of the network is traversed by at least one
   probe (a link failure is detected when consecutive probes stop using the
   same path);
2. from ``Φ``, choose the *effective* beacons, i.e. for every probe one of
   its two extremities must host a beacon.

The original reference is treated as a black box by the paper; this module
re-implements phase 1 as a minimum probe cover over shortest-path probes
(every candidate probe starts at a candidate beacon, so phase 2 always has a
feasible solution), and implements the original arbitrary-order selection
heuristic used as the "Thiran" baseline of Figures 9-11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.covering.set_cover import SetCoverInstance, greedy_set_cover
from repro.optim.errors import InfeasibleError
from repro.topology.pop import LinkKey, POPTopology, link_key


@dataclass(frozen=True)
class Probe:
    """A probe, identified by its two extremities.

    The probe from ``u`` to ``v`` is the same object as the probe from ``v``
    to ``u`` (the paper's ``φ_u`` / ``φ_v`` convention); the stored path runs
    from ``source`` to ``target`` but either extremity can emit it provided it
    hosts a beacon.
    """

    source: Hashable
    target: Hashable
    path: Tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("a probe path needs at least two nodes")
        if self.path[0] != self.source or self.path[-1] != self.target:
            raise ValueError("probe path must run from source to target")

    @property
    def endpoints(self) -> Tuple[Hashable, Hashable]:
        """Unordered pair of extremities, canonically ordered."""
        return (self.source, self.target) if repr(self.source) <= repr(self.target) else (
            self.target,
            self.source,
        )

    @property
    def links(self) -> Tuple[LinkKey, ...]:
        """Links covered (traversed) by the probe."""
        return tuple(link_key(u, v) for u, v in zip(self.path[:-1], self.path[1:]))


@dataclass
class ProbeSet:
    """The probe set ``Φ`` together with bookkeeping information.

    Attributes
    ----------
    probes:
        The selected probes.
    candidate_beacons:
        The candidate set ``V_B`` the probes were computed from.
    covered_links:
        Links traversed by at least one selected probe.
    uncoverable_links:
        Links that no candidate probe traverses (they cannot be monitored
        from ``V_B`` under shortest-path probing and are excluded from the
        cover requirement).
    """

    probes: List[Probe]
    candidate_beacons: Set[Hashable]
    covered_links: Set[LinkKey] = field(default_factory=set)
    uncoverable_links: Set[LinkKey] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.probes)

    def __iter__(self):
        return iter(self.probes)

    def probes_emittable_by(self, node: Hashable) -> List[Probe]:
        """Probes having ``node`` as one of their extremities."""
        return [p for p in self.probes if node in p.endpoints]


def _candidate_probes(
    graph: nx.Graph,
    candidate_beacons: Sequence[Hashable],
    weight: Optional[str] = None,
) -> List[Probe]:
    """Enumerate shortest-path probes from every candidate beacon to every node."""
    probes: List[Probe] = []
    seen_pairs: Set[Tuple[Hashable, Hashable]] = set()
    for beacon in candidate_beacons:
        lengths, paths = nx.single_source_dijkstra(graph, beacon, weight=weight)
        for target, path in paths.items():
            if target == beacon:
                continue
            pair = (beacon, target) if repr(beacon) <= repr(target) else (target, beacon)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            probes.append(Probe(source=beacon, target=target, path=tuple(path)))
    return probes


def compute_probe_set(
    pop: POPTopology,
    candidate_beacons: Iterable[Hashable],
    links_to_cover: Optional[Iterable[LinkKey]] = None,
    weight: Optional[str] = None,
) -> ProbeSet:
    """Compute a minimal probe set covering the network links.

    This is the re-implementation of phase 1 of [Nguyen & Thiran]: candidate
    probes are the shortest paths from each candidate beacon to every other
    node, and a minimum subset of them covering every (coverable) link is
    selected with the set-cover greedy.  Every selected probe has a candidate
    beacon as one extremity, so the subsequent placement ILP is always
    feasible.

    Parameters
    ----------
    pop:
        The POP topology.
    candidate_beacons:
        The candidate set ``V_B``; must be non-empty and contained in the
        topology's nodes.
    links_to_cover:
        Links whose monitoring is required; defaults to the router-to-router
        links of the POP (probing customer attachment links is usually
        pointless).
    weight:
        Optional edge attribute used as the routing metric.
    """
    candidates = list(dict.fromkeys(candidate_beacons))
    if not candidates:
        raise ValueError("the candidate beacon set V_B is empty")
    missing = [b for b in candidates if b not in pop.graph]
    if missing:
        raise ValueError(f"candidate beacons not in the topology: {missing}")

    if links_to_cover is None:
        wanted = set(pop.router_links())
        if not wanted:
            wanted = {link_key(u, v) for u, v in pop.graph.edges()}
    else:
        wanted = {link_key(*l) for l in links_to_cover}

    probes = _candidate_probes(pop.graph, candidates, weight=weight)
    # Lists, not sets: SetCoverInstance copies each subset into a set of its
    # own, and with ~12k candidate probes on pop80 a second set per probe
    # was the largest transient of the Figure-11 sweep.
    coverage: Dict[int, List[LinkKey]] = {
        i: [link for link in p.links if link in wanted] for i, p in enumerate(probes)
    }
    coverable = set().union(*coverage.values()) if coverage else set()
    uncoverable = wanted - coverable

    if not coverable:
        return ProbeSet(
            probes=[],
            candidate_beacons=set(candidates),
            covered_links=set(),
            uncoverable_links=uncoverable,
        )

    cover_instance = SetCoverInstance(
        universe=coverable,
        subsets={i: links for i, links in coverage.items() if links},
    )
    selected_indices = greedy_set_cover(cover_instance)
    selected = [probes[i] for i in sorted(selected_indices)]
    covered = set()
    for probe in selected:
        covered |= set(probe.links) & wanted
    return ProbeSet(
        probes=selected,
        candidate_beacons=set(candidates),
        covered_links=covered,
        uncoverable_links=uncoverable,
    )


def thiran_placement(probe_set: ProbeSet, order: Optional[Sequence[Hashable]] = None) -> List[Hashable]:
    """Baseline beacon selection of [Nguyen & Thiran] (the "Thiran" curve).

    The original heuristic does not optimize the choice: it repeatedly
    "selects a beacon, removes the set of probes that can be sent with this
    beacon, and so on".  Concretely the candidate beacons are scanned in an
    arbitrary (but deterministic) order and a beacon is kept whenever it can
    emit at least one still-unassigned probe.

    Parameters
    ----------
    probe_set:
        The probe set ``Φ``.
    order:
        Optional explicit scan order of the candidate beacons; defaults to the
        insertion order of ``probe_set.candidate_beacons`` sorted by label,
        which mimics an arbitrary operator-chosen ordering.
    """
    remaining = set(range(len(probe_set.probes)))
    if not remaining:
        return []
    scan = list(order) if order is not None else sorted(probe_set.candidate_beacons, key=repr)
    selection: List[Hashable] = []
    for beacon in scan:
        emittable = {
            i for i in remaining if beacon in probe_set.probes[i].endpoints
        }
        if emittable:
            selection.append(beacon)
            remaining -= emittable
        if not remaining:
            break
    if remaining:
        raise InfeasibleError(
            f"{len(remaining)} probe(s) cannot be emitted by any candidate beacon"
        )
    return selection
