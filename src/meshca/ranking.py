"""Multi-criterion node scoring and the descending link schedule.

Nodes are scored on four criteria: hop count to the nearest gateway,
Euclidean proximity to the nearest gateway, usage frequency (how many
nodes route through this node on some shortest path toward a gateway),
and radio capacity. Each criterion is min-max normalized, inverted where
smaller is better, and averaged. A link's rank is the sum of its
endpoint scores; the schedule orders links by descending rank and drives
the greedy channel assignment.

Every result is an array indexed by node or link id; ``score_nodes``
returns the scores alone. Hop levels come from one breadth-first search
from the gateways over the topology's ``incident_links``, and usage
from one sweep back over that search order (see ``score_nodes``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoGateway
from .topology import Topology, _euclid


@dataclass(frozen=True)
class LinkRankTable:
    """Per-link rank values and the rank-descending schedule.

    ``ranks`` is indexed by link id; ``schedule`` is a permutation of all
    link ids, ties broken by lower link id.
    """

    ranks: np.ndarray
    schedule: np.ndarray


def _minmax(values: np.ndarray, invert: bool) -> np.ndarray:
    """Min-max scale to [0, 1]; all-equal inputs map to 1.0 for every
    node (avoids 0/0 and keeps equal nodes equally ranked)."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.ones_like(values)
    scaled = (values - lo) / (hi - lo)
    return 1.0 - scaled if invert else scaled


def score_nodes(t: Topology) -> np.ndarray:
    """Score every node on the four ranking criteria, equally weighted,
    and return the (n,) scores indexed by node id.

    Hops and proximity are computed against the nearest gateway; usage
    frequency counts, for each node v, how many nodes u have v on at
    least one shortest path from u to u's nearest gateway (endpoints
    included). Smaller hops/proximity and larger usage/capacity all map
    to higher normalized values.

    Those u are exactly the nodes that reach v in the gateway-BFS DAG,
    whose edges run from hop level h to h - 1 (a shortest u-v path of
    length hops(u) - hops(v) drops one level per step). So each node
    keeps a Python-int bitset, starting at ``1 << v``; the nodes are
    visited in descending hop order and each ORs its bitset into its
    neighbours one level down. The counts are exact integers.

    Raises
    ------
    NoGateway
        If the topology has no gateway node, or a node has no path to
        any gateway.
    """
    if not t.gateways:
        raise NoGateway("topology has no gateway node")
    n = t.node_count
    ends = (t.link_a + t.link_b).tolist()  # a link's other end is ends - v
    nbrs = [[ends[lid] - v for lid in links]
            for v, links in enumerate(t.incident_links)]
    level = [-1] * n
    order = list(t.gateways)  # breadth-first, so levels never decrease
    for g in order:
        level[g] = 0
    for v in order:
        for w in nbrs[v]:
            if level[w] < 0:
                level[w] = level[v] + 1
                order.append(w)
    if len(order) < n:
        raise NoGateway(f"node {level.index(-1)} has no path to a gateway")
    upstream = [1 << v for v in range(n)]
    for v in reversed(order):
        for w in nbrs[v]:
            if level[w] == level[v] - 1:
                upstream[w] |= upstream[v]
    usage = [u.bit_count() for u in upstream]
    proximity = _euclid(t.positions[:, None],
                        t.positions[None, list(t.gateways)]).min(axis=1)
    # the pinned rank tables hold the rounding of this order of the sum
    return (_minmax(level, invert=True) + _minmax(proximity, invert=True)
            + _minmax(usage, invert=False)
            + _minmax(t.radios, invert=False)) / 4


def rank_links(t: Topology, score: np.ndarray) -> LinkRankTable:
    """Rank links by the sum of their endpoint scores (``score`` indexed
    by node id, as :func:`score_nodes` returns it) and order the schedule
    by descending rank, lower link id first on ties."""
    ranks = score[t.link_a] + score[t.link_b]
    return LinkRankTable(ranks=ranks,
                         schedule=np.argsort(-ranks, kind="stable"))
