"""Multi-criterion node scoring and the descending link schedule.

Nodes are scored on four criteria: hop count to the nearest gateway,
Euclidean proximity to the nearest gateway, usage frequency (how many
nodes route through this node on some shortest path toward a gateway),
and radio capacity. Each criterion is min-max normalized, inverted where
smaller is better, and averaged. A link's rank is the sum of its
endpoint scores; the schedule orders links by descending rank and drives
the greedy channel assignment.

Hop levels come from one breadth-first search from the gateways, and
usage from one sweep back over that search order (see ``score_nodes``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoGateway
from .topology import Topology

CRITERIA = ("hops", "proximity", "usage", "capacity")


@dataclass(frozen=True)
class NodeScore:
    node_id: int
    hops: int
    proximity: float
    usage: int
    capacity: int
    normalized: dict[str, float]
    score: float


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


def score_nodes(t: Topology) -> list[NodeScore]:
    """Score every node on the four ranking criteria, equally weighted.

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
    level = [-1] * n
    order = list(t.gateways)  # breadth-first, so levels never decrease
    for g in order:
        level[g] = 0
    for v in order:
        for w, _ in t.adjacency[v]:
            if level[w] < 0:
                level[w] = level[v] + 1
                order.append(w)
    if len(order) < n:
        raise NoGateway(f"node {level.index(-1)} has no path to a gateway")
    upstream = [1 << v for v in range(n)]
    for v in reversed(order):
        for w, _ in t.adjacency[v]:
            if level[w] == level[v] - 1:
                upstream[w] |= upstream[v]
    usage = [u.bit_count() for u in upstream]
    gw_pos = t.positions[list(t.gateways)]
    proximity = np.min(
        np.linalg.norm(t.positions[:, None, :] - gw_pos[None, :, :], axis=-1),
        axis=1,
    )

    capacity = t.radios
    norm = {
        "hops": _minmax(level, invert=True),
        "proximity": _minmax(proximity, invert=True),
        "usage": _minmax(usage, invert=False),
        "capacity": _minmax(capacity, invert=False),
    }
    scores = sum(norm[c] for c in CRITERIA) / len(CRITERIA)
    return [
        NodeScore(
            node_id=i,
            hops=level[i],
            proximity=float(proximity[i]),
            usage=usage[i],
            capacity=int(capacity[i]),
            normalized={c: float(norm[c][i]) for c in CRITERIA},
            score=float(scores[i]),
        )
        for i in range(n)
    ]


def rank_links(t: Topology, scores: list[NodeScore]) -> LinkRankTable:
    """Rank links by the sum of their endpoint scores (``scores`` in node
    id order, as :func:`score_nodes` gives them) and order the schedule
    by descending rank, lower link id first on ties."""
    score = np.array([s.score for s in scores], dtype=float)
    ranks = score[t.link_a] + score[t.link_b]
    schedule = np.array(
        sorted(range(t.link_count), key=lambda lid: (-ranks[lid], lid)),
        dtype=np.int64,
    )
    return LinkRankTable(ranks=ranks, schedule=schedule)
