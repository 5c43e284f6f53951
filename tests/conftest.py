import math
from collections import deque

import numpy as np
import pytest

from meshca.assignment import (UNASSIGNED, ChannelAssignment, OverlapMatrix,
                               within_budget)
from meshca.config import RadioModel, ScenarioConfig
from meshca.fitness import _batch_link_fairness, jain_index
from meshca.ga import Problem
from meshca.harness import OracleResult
from meshca.topology import Topology, build_conflict_graph


def make_topology(positions, link_pairs=None, radios=3, gateways=(0,),
                  comm_range=252.0, interference=514.0, channels=3,
                  required=None, area=None):
    """Hand-built topology with explicit geometry.

    ``link_pairs`` defaults to every node pair within the communication
    range; ``required`` is a scalar or per-link list of required rates
    (default 1.0, generous under the default radio model).
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if area is None:
        area = max(1000.0, float(positions.max(initial=0.0)) + 1.0)
    params = ScenarioConfig(
        name="manual",
        node_count=max(n, 2),
        area_w=area,
        area_h=area,
        comm_range=comm_range,
        interference_distance=interference,
        radios=radios,
        channels=channels,
    )
    if link_pairs is None:
        link_pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if np.linalg.norm(positions[i] - positions[j]) <= comm_range
        ]
    if required is None:
        required = 1.0
    if np.isscalar(required):
        required = [float(required)] * len(link_pairs)
    link_a = [a for a, _ in link_pairs]
    link_b = [b for _, b in link_pairs]
    return Topology(positions, [radios] * n, gateways, link_a, link_b,
                    required, params, seed=0)


def line_topology(n=4, spacing=100.0, **kwargs):
    """Nodes on a horizontal line, gateway at node 0, chain links only."""
    positions = [(i * spacing, 0.0) for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    return make_topology(positions, link_pairs=pairs, **kwargs)


def make_problem(t, m=None, rm=None):
    """``t``'s problem, by default with orthogonal channels and the
    default radio model."""
    m = m or OverlapMatrix.orthogonal(t.params.channels)
    return Problem(t, build_conflict_graph(t), m, rm or RadioModel())


def reference_score(t, usage):
    """Node scores from criteria computed apart from the library: hop
    levels by a breadth-first search from the gateways, proximity as the
    Python-float distance ``sqrt(dx*dx + dy*dy)`` to the nearest gateway
    (``math.dist`` is correctly rounded, so for some points it differs
    in the last bit), the given per-node ``usage`` counts and the radios.
    Each is min-max scaled to [0, 1], inverted for hops and proximity,
    all-equal values scaling to 1.0, and the four are summed in that
    order and divided by 4."""
    n = t.node_count
    nbrs = [[int(t.link_a[l] + t.link_b[l]) - v for l in t.incident_links[v]]
            for v in range(n)]
    hops = {g: 0 for g in t.gateways}
    queue = deque(t.gateways)
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if w not in hops:
                hops[w] = hops[v] + 1
                queue.append(w)
    pos = t.positions.tolist()
    proximity = [min(math.sqrt((x - gx) * (x - gx) + (y - gy) * (y - gy))
                     for gx, gy in (pos[g] for g in t.gateways))
                 for x, y in pos]

    def scaled(values, invert):
        lo, hi = min(values), max(values)
        if lo == hi:
            return [1.0] * len(values)
        return [1.0 - (v - lo) / (hi - lo) if invert else (v - lo) / (hi - lo)
                for v in values]

    criteria = zip(scaled([hops[v] for v in range(n)], True),
                   scaled(proximity, True),
                   scaled([int(u) for u in usage], False),
                   scaled(t.radios.tolist(), False))
    return np.array([(h + p + u + c) / 4 for h, p, u, c in criteria])


def reference_radio_violations(genes, t):
    """Nodes whose assigned incident links use more distinct channels
    than the node has radios, as (node, channel count) pairs; a
    set-based check independent of the library's budget code."""
    out = []
    for v in range(t.node_count):
        channels = {int(genes[l]) for l in t.incident_links[v]
                    if genes[l] >= 0}
        if len(channels) > t.radios[v]:
            out.append((v, len(channels)))
    return out


def assert_valid(genes, t, channel_count):
    """One gene per link, each in range, and every radio budget kept."""
    genes = np.asarray(genes)
    assert genes.shape == (t.link_count,)
    assert ((genes >= 0) & (genes < channel_count)).all()
    assert reference_radio_violations(genes, t) == []


class ReferenceRadioBook:
    """A gene row plus, per binding node (``Problem.binding``), how many
    of its assigned incident links hold each channel: the per-row radio
    book that the library's link-major walk replaced. :meth:`set` keeps
    the row and the counts in step."""

    def __init__(self, problem, genes):
        self.problem, self.t, self.genes = problem, problem.t, genes
        row = genes.tolist()
        self.counts = {}
        for v in problem.binding.tolist():
            held = self.counts[v] = {}
            for c in (row[lid] for lid in self.t.incident_links[v]):
                if c >= 0:
                    held[c] = held.get(c, 0) + 1

    def set(self, lid, channel):
        """Give ``lid`` the channel, in the row and in the counts."""
        old = int(self.genes[lid])
        self.genes[lid] = channel
        for v in (int(self.t.link_a[lid]), int(self.t.link_b[lid])):
            held = self.counts.get(v)
            if held is None:
                continue
            if old >= 0:
                held[old] -= 1
                if not held[old]:
                    del held[old]
            held[channel] = held.get(channel, 0) + 1


def reference_channel_interference(lid, genes, problem):
    """Interference index of link ``lid`` for every candidate channel,
    against its assigned conflict neighbours (unassigned ones add 0)."""
    nbr_genes = genes[problem.cg.neighbors[lid]]
    nbr_genes = nbr_genes[nbr_genes >= 0]
    if not len(nbr_genes):
        return np.zeros(problem.channels)
    return problem.m.ratio[:, nbr_genes].sum(axis=1)


def reference_book_feasible(lid, book):
    """Channels link ``lid`` may hold, keeping both endpoints within
    their radio budgets given every other link recorded in ``book``; the
    link's own recorded channel is always included."""
    t = book.t
    own = int(book.genes[lid])
    allowed = None
    for v in (int(t.link_a[lid]), int(t.link_b[lid])):
        held = book.counts.get(v, {})
        used = {c for c, n in held.items() if n > (c == own)}
        if len(used) >= t.radios[v]:
            allowed = used if allowed is None else allowed & used
    if allowed is None:
        return list(range(book.problem.channels))
    if own >= 0:
        allowed.add(own)
    return sorted(c for c in allowed if c < book.problem.channels)


def reference_assign_stuck(lid, book):
    """Both endpoints are at budget with disjoint palettes: the link
    takes the least-interfering channel already used at either endpoint,
    and every endpoint pushed over budget has its assigned links
    collapsed onto it, cascading."""
    t, genes = book.t, book.genes
    u, v = int(t.link_a[lid]), int(t.link_b[lid])
    pool = sorted(book.counts[u].keys() | book.counts[v].keys())
    per_channel = reference_channel_interference(lid, genes, book.problem)
    c = min(pool, key=lambda ch: (per_channel[ch], ch))
    book.set(lid, c)
    queue = [u, v]
    while queue:
        x = queue.pop()
        if len(book.counts.get(x, ())) <= t.radios[x]:
            continue
        for l2 in t.incident_links[x]:
            old = int(genes[l2])
            if old >= 0 and old != c:
                book.set(l2, c)
                queue.extend((int(t.link_a[l2]), int(t.link_b[l2])))


def reference_repair(genes, problem):
    """One row rebuilt link by link through its radio book: each
    requested gene is kept when the budgets allow it, else the
    least-interfering feasible channel against the links already rebuilt
    (ties to the lower channel), else a stuck merge. A valid row comes
    back as the same object."""
    if within_budget(genes, problem):
        return genes
    out = np.full(problem.t.link_count, UNASSIGNED, dtype=np.int64)
    book = ReferenceRadioBook(problem, out)
    for lid in range(len(out)):
        cand = reference_book_feasible(lid, book)
        if not cand:
            reference_assign_stuck(lid, book)
            continue
        if genes[lid] in cand:
            c = int(genes[lid])
        else:
            per_channel = reference_channel_interference(lid, out, problem)
            c = min(cand, key=lambda ch: (per_channel[ch], ch))
        book.set(lid, c)
    return out


def reference_mclr(problem, schedule):
    """MCLR link by link through a radio book: in ``schedule`` order,
    each link takes the feasible channel least interfering with its
    assigned conflict neighbours (ties to the lower channel), else a
    stuck merge."""
    out = np.full(problem.t.link_count, UNASSIGNED, dtype=np.int64)
    book = ReferenceRadioBook(problem, out)
    for lid in schedule:
        cand = reference_book_feasible(lid, book)
        if not cand:
            reference_assign_stuck(lid, book)
            continue
        per_channel = reference_channel_interference(lid, out, problem)
        book.set(lid, min(cand, key=lambda ch: (per_channel[ch], ch)))
    return out


def reference_brute_force(t, cg, m, rm, channels, fitness_kind="fairness"):
    """The oracle by full enumeration: every one of the ``channels **
    link_count`` assignments in lexicographic order, in chunks, keeping
    the first optimum. Counts cover every assignment."""
    problem = Problem(t, cg, m, rm)
    L = t.link_count
    total = channels ** L
    weights = channels ** np.arange(L - 1, -1, -1, dtype=np.int64)
    best_fitness = -np.inf
    best_genes = None
    feasible_total = 0
    for start in range(0, total, 1 << 15):
        idx = np.arange(start, min(start + (1 << 15), total), dtype=np.int64)
        genes = (idx[:, None] // weights[None, :]) % channels
        if problem.binding.size:
            genes = genes[within_budget(genes, problem)]
            if not len(genes):
                continue
        feasible_total += len(genes)
        interference, fairness = _batch_link_fairness(genes, problem)
        if fitness_kind == "fairness":
            values = jain_index(fairness)
        else:
            values = -interference.sum(axis=1)
        i = int(np.argmax(values))
        if values[i] > best_fitness:
            best_fitness = float(values[i])
            best_genes = genes[i].copy()
    return OracleResult(ChannelAssignment(best_genes, channels), best_fitness,
                        total, feasible_total)


@pytest.fixture
def small_random_topology():
    from meshca.topology import generate_topology

    cfg = ScenarioConfig(name="small", node_count=12)
    return generate_topology(cfg, seed=5)


@pytest.fixture
def small_conflict(small_random_topology):
    return build_conflict_graph(small_random_topology)
