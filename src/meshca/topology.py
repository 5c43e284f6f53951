"""Random mesh topologies and the derived conflict graph.

A topology is a connected random geometric graph: nodes are placed
uniformly in the area and any two nodes closer than the communication
range share a link. Placement is retried until the link graph comes out
connected. The conflict graph lifts links to vertices and joins two
links whenever the closest pair of their endpoints is within the
interference distance, which is the protocol interference model used by
every downstream computation.
"""

from __future__ import annotations

import json
import math
from collections import deque
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .errors import (ConnectivityUnreachable, InvalidConfig,
                     InvalidRequiredRate, ParseError)

PLACEMENT_ATTEMPTS = 1000


class Topology:
    """Immutable mesh topology held as arrays.

    A node ``v`` sits at ``positions[v]`` (an (n, 2) float array) with
    ``radios[v]`` radios; ``gateways`` lists the gateway node ids. A link
    ``l`` joins ``link_a[l]`` and ``link_b[l]`` with a required rate of
    ``required_rates[l]``, and its length ``lengths[l]`` is the distance
    between its endpoints. ``incident_links[v]`` lists node ``v``'s links
    in ascending id order, the one node adjacency.

    Safe to share across threads; all mutation happens during
    construction.
    """

    def __init__(self, positions, radios, gateways, link_a, link_b,
                 required_rates, params: ScenarioConfig, seed: int):
        self.params = params
        self.seed = seed
        self.positions = np.array(positions, dtype=float).reshape(-1, 2)
        self.radios = np.array(radios, dtype=np.int64)
        self.gateways = tuple(int(v) for v in gateways)
        self.link_a = np.array(link_a, dtype=np.int64)
        self.link_b = np.array(link_b, dtype=np.int64)
        self.lengths = _euclid(self.positions[self.link_a],
                               self.positions[self.link_b])
        self.required_rates = np.array(required_rates, dtype=float)
        n = len(self.positions)
        self.incident_links: list[list[int]] = [[] for _ in range(n)]
        for lid, (a, b) in enumerate(zip(self.link_a.tolist(),
                                         self.link_b.tolist())):
            self.incident_links[a].append(lid)
            self.incident_links[b].append(lid)

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def link_count(self) -> int:
        return len(self.link_a)

    def to_dict(self) -> dict:
        gateways = set(self.gateways)
        return {
            "seed": self.seed,
            "params": self.params.to_dict(),
            "nodes": [
                {"id": v, "x": x, "y": y, "radios": r, "gateway": v in gateways}
                for v, ((x, y), r) in enumerate(zip(self.positions.tolist(),
                                                     self.radios.tolist()))
            ],
            "links": [
                {"id": lid, "a": a, "b": b, "required_rate": rate}
                for lid, (a, b, rate) in enumerate(zip(
                    self.link_a.tolist(), self.link_b.tolist(),
                    self.required_rates.tolist()))
            ],
        }


class ConflictGraph:
    """Link-conflict structure: vertices are link ids, edges join links
    whose closest endpoints are within the interference distance. It
    holds only what is built once for its topology: the (E, 2) ``edges``
    and the (L, L) float32 0/1 ``adjacency``, the interference kernel's
    operand and the one quadratic array it keeps, plus the properties
    cached from them. ``neighbors`` is read off ``adjacency`` lazily.

    ``count_bits``, the bit length of the largest conflict degree, is the
    width of one channel's field in the kernel's packed counts (1 without
    edges): a float32 column holds 24 // width of them."""

    def __init__(self, link_count: int, edges: np.ndarray):
        self.link_count = link_count
        self.edges = edges  # (E, 2) with edges[:, 0] < edges[:, 1]
        # dense 0/1 adjacency: one float32 product counts every link's
        # neighbours on every channel for a population, in packed fields
        self.adjacency = np.zeros((link_count, link_count), dtype=np.float32)
        self.adjacency[edges[:, 0], edges[:, 1]] = 1.0
        self.adjacency[edges[:, 1], edges[:, 0]] = 1.0

    @cached_property
    def neighbors(self) -> list[np.ndarray]:
        return [np.flatnonzero(row) for row in self.adjacency]

    @cached_property
    def degree(self) -> np.ndarray:
        """(L,) conflict degree of each link."""
        return np.bincount(self.edges.ravel(), minlength=self.link_count)

    @cached_property
    def count_bits(self) -> int:
        """Bits that hold any link's neighbour count on one channel: the
        bit length of the largest degree, 0 without edges."""
        return int(self.degree.max(initial=0)).bit_length()

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _euclid(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances between the points of ``p`` and ``q``, broadcasting
    (..., 2) arrays: the one distance formula, so every distance in the
    package agrees bit-for-bit with every other."""
    dx = p[..., 0] - q[..., 0]
    dy = p[..., 1] - q[..., 1]
    return np.sqrt(dx ** 2 + dy ** 2)


_BLOCK_BYTES = 1 << 18  # about the working set of one block of rows


def _block_rows(row_bytes: int) -> int:
    """Rows per block when each row takes ``row_bytes`` bytes: about
    ``_BLOCK_BYTES`` a block, and at least one row."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _node_distance_rows(positions: np.ndarray):
    """Yield ``(i0, d)`` where ``d[r, j]`` is the distance from node
    ``i0 + r`` to node ``j``, a block of rows at a time: each block's two
    (rows, n) coordinate differences stay near ``_BLOCK_BYTES``, and
    every distance is :func:`_euclid`'s, as in one dense (n, n) pass."""
    n = len(positions)
    step = _block_rows(16 * n)
    for i0 in range(0, n, step):
        yield i0, _euclid(positions[i0:i0 + step, None], positions[None])


def _placement_pairs(positions: np.ndarray,
                     comm_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Node pairs ``i < j`` at most ``comm_range`` apart, as index arrays
    in row-major order."""
    ia, ib = [], []
    for i0, d in _node_distance_rows(positions):
        rows, cols = np.nonzero(np.triu(d <= comm_range, k=i0 + 1))
        ia.append(rows + i0)
        ib.append(cols)
    return np.concatenate(ia), np.concatenate(ib)


def build_conflict_graph(t: Topology) -> ConflictGraph:
    """Conflict edges join distinct links whose minimum endpoint distance
    is strictly below the interference distance.

    Links sharing a node are always in conflict (distance zero). The
    result is symmetric and irreflexive, with edges in row-major
    ``a < b`` order.

    Only an (n, n) bool ``near`` (node distance below the interference
    distance, true on the diagonal) and the graph's (L, L) float32
    ``adjacency`` grow with the square of the size: distances are taken
    a block of node rows at a time, and edges a block of link rows at a
    time, each block near ``_BLOCK_BYTES``. Two links conflict iff one
    of their four endpoint pairs is ``near``, which for finite distances
    is the same test as their minimum being below the distance.
    """
    L, n = t.link_count, t.node_count
    near = np.empty((n, n), dtype=bool)
    for i0, d in _node_distance_rows(t.positions):
        np.less(d, t.params.interference_distance, out=near[i0:i0 + len(d)])
    a, b = t.link_a, t.link_b
    step = _block_rows(4 * L + n)
    edges = [np.empty((0, 2), dtype=np.int64)]
    for l0 in range(0, L, step):
        # nodes near either endpoint of each link in the block
        hit = near[a[l0:l0 + step]] | near[b[l0:l0 + step]]
        ia, ib = np.nonzero(np.triu(hit[:, a] | hit[:, b], k=l0 + 1))
        edges.append(np.stack([ia + l0, ib], axis=1))
    return ConflictGraph(L, np.concatenate(edges))


def _adjacency(n: int, pairs: list[tuple[int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _search(adj: list[set[int]], src: int, dst: int = -1) -> set[int]:
    """Nodes reached by a breadth-first search from ``src``; the search
    stops early once it reaches ``dst``, so a ``dst`` a few hops away
    costs only the nodes within those hops."""
    seen = {src}
    queue = deque([src])
    while queue and dst not in seen:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _prune_to_degree_cap(adj: list[set[int]],
                         lengths: dict[tuple[int, int], float],
                         cap: int) -> list[tuple[int, int]]:
    """Drop each over-connected node's longest links (ties by pair) while
    the graph stays connected, pruning ``adj`` in place; return the kept
    ``(a, b)`` pairs, ``a < b``, sorted. The cap is a target, not a
    guarantee: a removal that would disconnect the graph is skipped.

    ``adj`` must be connected on entry, as placement guarantees. Removing
    ``(a, b)`` then keeps it connected iff ``b`` is still reachable from
    ``a``, and each accepted removal keeps that precondition. A common
    neighbour of ``a`` and ``b`` settles that at once; only otherwise
    does a search run.
    """
    for v, nbrs in enumerate(adj):
        if len(nbrs) <= cap:
            continue
        incident = sorted(((min(v, w), max(v, w)) for w in nbrs),
                          key=lambda p: (-lengths[p], p))
        for a, b in incident:
            if len(nbrs) <= cap:
                break
            adj[a].discard(b)
            adj[b].discard(a)
            if adj[a].isdisjoint(adj[b]) and b not in _search(adj, a, b):
                adj[a].add(b)
                adj[b].add(a)
    return [(a, b) for a, nbrs in enumerate(adj) for b in sorted(nbrs) if a < b]


def _zero_interference_rate(length: float, cfg: ScenarioConfig) -> float:
    rm = cfg.radio_model
    snr = rm.tss / (10.0 * rm.path_loss_exp
                    * math.log10(max(length, rm.min_distance)))
    return rm.bandwidth * math.log2(1.0 + snr)


def generate_topology(config: ScenarioConfig, seed: int) -> Topology:
    """Generate a connected random topology for the given scenario.

    Placement is rejection-sampled: node positions are drawn uniformly in
    the area until the induced link graph (pairs within the communication
    range) is connected, up to ``PLACEMENT_ATTEMPTS`` draws. Degrees are
    then pruned toward the configured cap, the ``gateway_count`` nodes
    nearest the area center are marked gateways, and each link gets a
    required rate drawn uniformly from ``[rate_lo, rate_hi]`` times its
    zero-interference rate.

    Node distances are taken a block of rows at a time, so no draw holds
    an (n, n) array: what grows with the size is the adjacency sets and
    the pruning's length table, linear in the link count.

    Deterministic for a given ``(config, seed)`` pair.

    Raises
    ------
    InvalidConfig
        If the seed is negative (``config`` was checked when built).
    ConnectivityUnreachable
        If no connected placement is found within the attempt budget.
    InvalidRequiredRate
        If the radio model gives a link a required rate that is not
        positive and finite (say, a path-loss exponent so large that
        every rate rounds to 0).
    """
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n = config.node_count
    for _ in range(PLACEMENT_ATTEMPTS):
        xs = rng.uniform(0.0, config.area_w, size=n)
        ys = rng.uniform(0.0, config.area_h, size=n)
        positions = np.stack([xs, ys], axis=1)
        ia, ib = _placement_pairs(positions, config.comm_range)
        pairs = list(zip(ia.tolist(), ib.tolist()))
        adj = _adjacency(n, pairs)
        if len(_search(adj, 0)) == n:
            break
    else:
        raise ConnectivityUnreachable(
            f"no connected placement for {n} nodes in "
            f"{config.area_w}x{config.area_h} with range {config.comm_range} "
            f"after {PLACEMENT_ATTEMPTS} attempts"
        )

    lengths = dict(zip(pairs, _euclid(positions[ia], positions[ib]).tolist()))
    pairs = _prune_to_degree_cap(adj, lengths, config.degree_cap)

    center_dist = _euclid(positions,
                          np.array([config.area_w / 2.0, config.area_h / 2.0]))
    gateways = sorted(np.argsort(center_dist, kind="stable")
                      [: config.gateway_count].tolist())

    required = [
        float(rng.uniform(config.rate_lo, config.rate_hi)
              * _zero_interference_rate(lengths[pair], config))
        for pair in pairs
    ]
    for pair, rate in zip(pairs, required):
        if not (rate > 0 and math.isfinite(rate)):
            raise InvalidRequiredRate(
                f"the radio model gives link {pair[0]}-{pair[1]} (length "
                f"{lengths[pair]!r}) a required rate of {rate!r}; rates "
                f"must be positive and finite")
    link_a, link_b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return Topology(positions, np.full(n, config.radios), gateways,
                    link_a, link_b, required, config, seed)


def save_topology(t: Topology, path: str | Path) -> None:
    Path(path).write_text(json.dumps(t.to_dict(), indent=1) + "\n")


def load_topology(path: str | Path) -> Topology:
    """Load a topology document written by :func:`save_topology`.

    Link lengths are recomputed from node coordinates, so a save/load
    round trip is bit-exact.

    Raises
    ------
    ParseError
        If the file is unreadable or malformed: fewer than two nodes,
        node or link ids that are not the ints ``0..n-1`` in order, a seed
        that is not an int >= 0, a coordinate that is not a finite number
        or so far from another that a link length overflows, a radio
        count that is not a positive int, a gateway flag that is
        not a bool, no gateway, an endpoint that is not a node id, a
        self-loop, a repeated node pair, a required rate that is not a
        number (a bool is not one), or links that do not connect every
        node.
    InvalidConfig
        If the scenario parameters are invalid (see :mod:`meshca.config`).
    InvalidRequiredRate
        If a link's required rate is a number but not positive and finite.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # bad UTF-8, JSON or a huge int
        raise ParseError(f"cannot read topology file {path}: {exc}") from exc
    try:
        params = ScenarioConfig.from_dict(doc["params"])
        if type(doc["seed"]) is not int or doc["seed"] < 0:
            raise ParseError(f"{path}: seed {doc['seed']!r} is not an int "
                             f">= 0")
        nodes = doc["nodes"]
        n = len(nodes)
        if n < 2:
            raise ParseError(f"{path}: a topology needs at least two nodes, "
                             f"got {n}")
        if any(type(nd["id"]) is not int or nd["id"] != v
               for v, nd in enumerate(nodes)):
            raise ParseError(f"{path}: node ids must be 0..{n - 1} in order")
        positions = [(nd["x"], nd["y"]) for nd in nodes]
        if not all(type(c) in (int, float) for p in positions for c in p):
            raise ParseError(f"{path}: node coordinates must be numbers")
        with np.errstate(over="ignore", invalid="ignore"):
            xy = np.array(positions, dtype=float)
            span = _euclid(xy.max(axis=0), xy.min(axis=0))  # no link is longer
        if not math.isfinite(span):
            raise ParseError(f"{path}: a node coordinate or distance is not finite")
        radios = [nd["radios"] for nd in nodes]
        if not all(type(r) is int and r >= 1 for r in radios):
            raise ParseError(f"{path}: every node needs a whole number of "
                             f"radios, at least one")
        if not all(type(nd["gateway"]) is bool for nd in nodes):
            raise ParseError(f"{path}: every node's gateway flag must be "
                             f"true or false")
        gateways = [v for v, nd in enumerate(nodes) if nd["gateway"]]
        if not gateways:
            raise ParseError(f"{path}: no node is a gateway")
        link_a, link_b, rates = [], [], []
        pairs = set()
        for lid, ld in enumerate(doc["links"]):
            a, b, rate = ld["a"], ld["b"], ld["required_rate"]
            if type(ld["id"]) is not int or ld["id"] != lid:
                raise ParseError(f"{path}: link {lid} has id {ld['id']!r}; "
                                 f"link ids must be 0..L-1 in order")
            if not (type(a) is int and type(b) is int
                    and 0 <= a < n and 0 <= b < n and a != b):
                raise ParseError(f"{path}: link {lid} joins {a!r} and {b!r}; "
                                 f"endpoints must be two distinct node ids")
            if (min(a, b), max(a, b)) in pairs:
                raise ParseError(f"{path}: link {lid} repeats node pair {a}-{b}")
            pairs.add((min(a, b), max(a, b)))
            if type(rate) not in (int, float):
                raise ParseError(f"{path}: link {lid} has required_rate "
                                 f"{rate!r}, which is not a number")
            if not (rate > 0 and math.isfinite(rate)):
                raise InvalidRequiredRate(
                    f"{path}: link {lid} has required_rate {rate!r}, "
                    f"which must be positive and finite")
            link_a.append(a)
            link_b.append(b)
            rates.append(rate)
        if len(_search(_adjacency(n, pairs), 0)) < n:
            raise ParseError(f"{path}: the links do not connect every node")
        return Topology(positions, radios, gateways, link_a, link_b, rates,
                        params, doc["seed"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed topology file {path}: {exc}") from exc
