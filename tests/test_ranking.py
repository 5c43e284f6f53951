import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshca import NoGateway, ScenarioConfig
from meshca.ranking import rank_links, score_nodes
from meshca.topology import Topology, generate_topology
from conftest import line_topology, make_topology, reference_score


def enumerate_shortest_path_nodes(t):
    """Brute-force usage oracle: DFS over every shortest path from every
    node to its nearest gateway, collecting visited nodes."""
    n = t.node_count
    adj = [[int(t.link_b[lid] if t.link_a[lid] == v else t.link_a[lid])
            for lid in t.incident_links[v]] for v in range(n)]

    def bfs(sources):
        dist = {s: 0 for s in sources}
        frontier = list(sources)
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    to_gateway = bfs(list(t.gateways))
    usage = np.zeros(n, dtype=int)
    for u in range(n):
        on_some_path = set()

        def walk(v, path):
            if to_gateway[v] == 0:
                on_some_path.update(path)
                return
            for w in adj[v]:
                if to_gateway[w] == to_gateway[v] - 1:
                    walk(w, path + [w])

        walk(u, [u])
        for v in on_some_path:
            usage[v] += 1
    return usage


def bfs_usage(t):
    """Usage by one breadth-first search per node: v counts u iff
    d(u, v) + hops(v) == hops(u), hops being the distance to the nearest
    gateway."""
    adj = [[int(t.link_b[lid] if t.link_a[lid] == v else t.link_a[lid])
            for lid in t.incident_links[v]] for v in range(t.node_count)]

    def bfs(sources):
        dist = np.full(t.node_count, -1, dtype=np.int64)
        dist[sources] = 0
        queue = deque(sources)
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    hops = bfs(list(t.gateways))
    usage = np.zeros(t.node_count, dtype=np.int64)
    for u in range(t.node_count):
        usage += bfs([u]) + hops == hops[u]
    return usage


@st.composite
def connected_topologies(draw):
    """Connected topologies with 1 to 3 gateways: a random spanning tree
    plus random extra links (so hop levels tie and same-level links
    occur), with node labels permuted and links in random order."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        a, b = rng.choice(n, size=2, replace=False).tolist()
        if (b, a) not in pairs:
            pairs.add((a, b))
    label = rng.permutation(n).tolist()
    pairs = [(label[a], label[b]) for a, b in sorted(pairs)]
    order = rng.permutation(len(pairs)).tolist()
    gateways = rng.choice(n, size=draw(st.integers(1, min(3, n))),
                          replace=False).tolist()
    return make_topology(rng.integers(0, 1000, size=(n, 2)),
                         link_pairs=[pairs[i] for i in order],
                         gateways=gateways)


class TestScoreNodes:
    def test_gateway_normalizes_to_one(self, small_random_topology):
        t = small_random_topology
        scores = score_nodes(t)
        assert scores.tolist() == reference_score(t, bfs_usage(t)).tolist()
        # the one gateway leads on all four criteria: it is at hop 0 and
        # distance 0 from a gateway, and every node routes through it
        assert scores[t.gateways[0]] == 1.0

    def test_star_leaves_score_equal(self):
        # gateway at the center, four symmetric leaves
        t = make_topology(
            [(0, 0), (100, 0), (-100, 0), (0, 100), (0, -100)],
            link_pairs=[(0, 1), (0, 2), (0, 3), (0, 4)],
            gateways=(0,),
        )
        scores = score_nodes(t)
        leaf_scores = {scores[i] for i in range(1, 5)}
        assert len(leaf_scores) == 1

    def test_line_usage_strictly_decreasing_and_matches_enumeration(self):
        t = line_topology(n=6, gateways=(0,))
        oracle = enumerate_shortest_path_nodes(t)
        assert all(oracle[i] > oracle[i + 1] for i in range(5))
        scores = score_nodes(t).tolist()
        assert scores == reference_score(t, oracle).tolist()
        # farther out on every criterion, so strictly lower
        assert all(scores[i] > scores[i + 1] for i in range(5))

    def test_diamond_usage_matches_enumeration(self):
        # two equal-length shortest paths from node 3 to the gateway
        t = make_topology(
            [(0, 0), (100, 50), (100, -50), (200, 0)],
            link_pairs=[(0, 1), (0, 2), (1, 3), (2, 3)],
            gateways=(0,),
        )
        oracle = enumerate_shortest_path_nodes(t)
        assert (score_nodes(t).tolist()
                == reference_score(t, oracle).tolist())

    def test_all_equal_criterion_maps_to_one(self):
        # two nodes, symmetric in every criterion
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)],
                          gateways=(0, 1))
        assert score_nodes(t).tolist() == [1.0, 1.0]

    def test_normalization_attains_bounds(self, small_random_topology):
        # radios of 1 to 3, so all four criteria vary
        s = small_random_topology
        t = Topology(s.positions, np.arange(s.node_count) % 3 + 1,
                     s.gateways, s.link_a, s.link_b, s.required_rates,
                     s.params, s.seed)
        scores = score_nodes(t)
        assert scores.tolist() == reference_score(t, bfs_usage(t)).tolist()
        assert ((0.0 <= scores) & (scores <= 1.0)).all()

    def test_no_gateway_raises(self):
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)],
                          gateways=())
        with pytest.raises(NoGateway):
            score_nodes(t)

    def test_unreachable_node_raises(self):
        t = make_topology([(0, 0), (100, 0), (0, 500), (100, 500)],
                          link_pairs=[(0, 1), (2, 3)], gateways=(0,))
        with pytest.raises(NoGateway, match="no path"):
            score_nodes(t)

    @given(connected_topologies())
    @settings(max_examples=150, deadline=None)
    def test_usage_matches_per_node_bfs(self, t):
        usage = bfs_usage(t)
        assert score_nodes(t).tolist() == reference_score(t, usage).tolist()
        if t.node_count <= 12:
            assert usage.tolist() == enumerate_shortest_path_nodes(t).tolist()


class TestRankLinks:
    def test_equal_scores_order_by_link_id(self):
        # symmetric triangle with every node a gateway: all scores equal
        t = make_topology([(0, 0), (100, 0), (50, 87)],
                          link_pairs=[(0, 1), (1, 2), (0, 2)],
                          gateways=(0, 1, 2))
        table = rank_links(t, score_nodes(t))
        assert table.schedule.tolist() == [0, 1, 2]

    def test_gateway_link_scheduled_first(self):
        # link 1 touches the gateway and dominates on every criterion
        t = line_topology(n=4, gateways=(0,))
        table = rank_links(t, score_nodes(t))
        assert table.schedule[0] == 0
        assert table.schedule[-1] == 2

    def test_matches_independent_sort(self, small_random_topology):
        t = small_random_topology
        scores = score_nodes(t)
        table = rank_links(t, scores)
        by_id = dict(enumerate(scores.tolist()))
        expected_ranks = [by_id[a] + by_id[b]
                          for a, b in zip(t.link_a.tolist(), t.link_b.tolist())]
        assert np.allclose(table.ranks, expected_ranks)
        expected_schedule = [
            lid for _, lid in sorted(
                (-rank, lid) for lid, rank in enumerate(expected_ranks))
        ]
        assert table.schedule.tolist() == expected_schedule

    def test_schedule_is_permutation(self, small_random_topology):
        table = rank_links(small_random_topology,
                           score_nodes(small_random_topology))
        assert sorted(table.schedule.tolist()) == list(
            range(small_random_topology.link_count)
        )

    def test_raising_endpoint_score_never_demotes_link(self):
        t = line_topology(n=4, gateways=(0,))
        scores = score_nodes(t)
        table = rank_links(t, scores)
        boosted = scores.copy()
        boosted[0] += 0.5
        table2 = rank_links(t, boosted)
        # link 0 touches node 0; its position must not get worse
        pos = list(table.schedule).index(0)
        pos2 = list(table2.schedule).index(0)
        assert pos2 <= pos

    # SHA-256 prefixes of the ranks and schedule bytes on the topologies
    # pinned in test_topology.py, from the per-node-BFS usage
    @pytest.mark.parametrize("n, seed, digest", [
        (94, 1, "9cd07cacc67480da"),
        (200, 1, "46e689456a2a676f"),
        (300, 7, "19caed4e76394e6f"),
    ])
    def test_generated_rank_tables_are_pinned(self, n, seed, digest):
        side = round(1000 * math.sqrt(n / 94), 1)
        t = generate_topology(ScenarioConfig(node_count=n, area_w=side,
                                             area_h=side), seed)
        table = rank_links(t, score_nodes(t))
        data = table.ranks.tobytes() + table.schedule.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest
