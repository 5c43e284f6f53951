import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshca import (
    ConnectivityUnreachable,
    InvalidConfig,
    InvalidRequiredRate,
    ParseError,
    ScenarioConfig,
)
from meshca.topology import (
    _BLOCK_BYTES,
    _adjacency,
    _block_rows,
    _node_distance_rows,
    _placement_pairs,
    _prune_to_degree_cap,
    build_conflict_graph,
    generate_topology,
    load_topology,
    save_topology,
)
from conftest import make_topology


BAD_SCENARIO_FIELDS = [
    dict(node_count=1),
    dict(area_w=0.0),
    dict(comm_range=600.0),  # >= interference distance
    dict(radios=0),
    dict(channels=0),
    dict(rate_lo=0.0),
    dict(gateway_count=0),
    dict(master_seed=-1),
]


def bfs_reaches_all(t):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for lid in t.incident_links[v]:
            w = int(t.link_b[lid] if t.link_a[lid] == v else t.link_a[lid])
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == t.node_count


class TestGenerateTopology:
    def test_table_parameters_give_connected_topology(self):
        cfg = ScenarioConfig(node_count=50, area_w=1000, area_h=1000,
                             comm_range=252, interference_distance=514,
                             radios=3)
        t = generate_topology(cfg, seed=42)
        assert t.node_count == 50
        assert bfs_reaches_all(t)
        assert (t.lengths <= cfg.comm_range).all()
        assert (t.required_rates > 0).all()
        assert len(t.gateways) == 1

    def test_two_close_nodes_give_single_link(self):
        cfg = ScenarioConfig(node_count=2, area_w=100, area_h=100,
                             comm_range=252, interference_distance=514)
        t = generate_topology(cfg, seed=0)
        assert t.link_count == 1
        assert {int(t.link_a[0]), int(t.link_b[0])} == {0, 1}

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = ScenarioConfig(node_count=25)
        t1 = generate_topology(cfg, seed=9)
        t2 = generate_topology(cfg, seed=9)
        assert json.dumps(t1.to_dict()) == json.dumps(t2.to_dict())

    def test_different_seeds_differ(self):
        cfg = ScenarioConfig(node_count=25)
        t1 = generate_topology(cfg, seed=1)
        t2 = generate_topology(cfg, seed=2)
        assert json.dumps(t1.to_dict()) != json.dumps(t2.to_dict())

    def test_degree_cap_prunes_excess_links(self):
        cfg = ScenarioConfig(node_count=40, degree_cap=3)
        t = generate_topology(cfg, seed=3)
        degrees = [len(t.incident_links[v]) for v in range(t.node_count)]
        # the cap is a target: most nodes respect it, none drop to zero
        assert np.mean(degrees) <= 4.0
        assert min(degrees) >= 1
        assert bfs_reaches_all(t)

    def test_unreachable_connectivity_raises(self):
        cfg = ScenarioConfig(node_count=12, area_w=100000, area_h=100000,
                             comm_range=10, interference_distance=20)
        with pytest.raises(ConnectivityUnreachable):
            generate_topology(cfg, seed=0)

    @pytest.mark.parametrize("bad", BAD_SCENARIO_FIELDS)
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(InvalidConfig):
            generate_topology(ScenarioConfig(**bad), seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfig, match="seed"):
            generate_topology(ScenarioConfig(), seed=-1)

    def test_gateway_is_nearest_center(self):
        cfg = ScenarioConfig(node_count=30)
        t = generate_topology(cfg, seed=11)
        center = np.array([cfg.area_w / 2, cfg.area_h / 2])
        dist = np.linalg.norm(t.positions - center, axis=1)
        assert dist[t.gateways[0]] == dist.min()

    def test_gateway_count_configurable(self):
        cfg = ScenarioConfig(node_count=30, gateway_count=3)
        t = generate_topology(cfg, seed=11)
        assert len(t.gateways) == 3


def connected_full_bfs(n, pairs):
    """Reference connectivity check: one BFS over the whole pair array."""
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


def prune_full_bfs(n, pairs, lengths, cap):
    """Reference degree-cap prune: every trial removal rebuilds the sorted
    pair array and checks connectivity with a full BFS."""
    kept = set(pairs)
    degree = [0] * n
    for a, b in pairs:
        degree[a] += 1
        degree[b] += 1
    for v in range(n):
        if degree[v] <= cap:
            continue
        incident = sorted(
            (p for p in kept if v in p),
            key=lambda p: (-lengths[p], p),
        )
        for p in incident:
            if degree[v] <= cap:
                break
            trial = kept - {p}
            if connected_full_bfs(n, np.array(sorted(trial), dtype=np.int64)):
                kept = trial
                degree[p[0]] -= 1
                degree[p[1]] -= 1
    return sorted(kept)


@st.composite
def connected_geometric_graphs(draw):
    """Connected geometric graphs on an integer grid, so that equal link
    lengths (and coincident nodes) occur and exercise the tie order."""
    n = draw(st.integers(2, 40))
    grid = draw(st.integers(4, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pos = rng.integers(0, grid, size=(n, 2)).tolist()
    radius = draw(st.floats(1.0, grid / 2))
    while True:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if math.dist(pos[i], pos[j]) <= radius]
        if connected_full_bfs(n, pairs):
            break
        radius *= 1.25
    lengths = {(i, j): math.dist(pos[i], pos[j]) for i, j in pairs}
    return n, pairs, lengths, draw(st.integers(1, 6))


class TestDegreeCapPrune:
    @given(connected_geometric_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_bfs_reference(self, graph):
        n, pairs, lengths, cap = graph
        pruned = _prune_to_degree_cap(_adjacency(n, pairs), lengths, cap)
        assert pruned == prune_full_bfs(n, pairs, lengths, cap)
        assert connected_full_bfs(n, pruned)

    # SHA-256 prefixes of json.dumps(to_dict()) from the full-BFS prune
    @pytest.mark.parametrize("n, seed, digest", [
        (94, 1, "4323cee9e6647af1"),
        (200, 1, "cac20e6944bde507"),
        (300, 7, "f299eb5be4f62f3e"),
        (800, 1, "12e6a6327bb5a02b"),
    ])
    def test_generated_topology_bytes_are_pinned(self, n, seed, digest):
        side = round(1000 * math.sqrt(n / 94), 1)
        cfg = ScenarioConfig(node_count=n, area_w=side, area_h=side)
        doc = json.dumps(generate_topology(cfg, seed).to_dict())
        assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest


def min_link_distance(a, b, t):
    """Shortest distance between an endpoint of link ``a`` and one of
    link ``b``, by enumerating the four endpoint pairs."""
    p, ends = t.positions, (t.link_a, t.link_b)
    return min(math.dist(p[i[a]], p[j[b]]) for i in ends for j in ends)


def conflicts(t, i, j):
    """Whether the conflict graph joins links ``i`` and ``j``."""
    return bool(build_conflict_graph(t).adjacency[i, j])


def two_link_topology(positions, interference):
    """Links (0, 1) and (2, 3) with the given interference distance."""
    return make_topology(positions, link_pairs=[(0, 1), (2, 3)],
                         comm_range=interference / 2,
                         interference=interference, area=1000.0)


class TestMinLinkDistance:
    def test_shared_endpoint_gives_zero(self):
        # a shared node is at distance zero, below any interference distance
        for d in (1e-9, 1.0, 514.0):
            t = make_topology([(0, 0), (100, 0), (200, 0)],
                              link_pairs=[(0, 1), (1, 2)],
                              comm_range=d / 2, interference=d)
            assert min_link_distance(0, 1, t) == 0.0
            assert conflicts(t, 0, 1)

    def test_axis_aligned_parallel_links(self):
        pos = [(0, 0), (100, 0), (0, 300), (100, 300)]
        assert min_link_distance(0, 1, two_link_topology(pos, 300.0)) == 300.0
        # the rule is strict: 300 m apart conflict only beyond 300 m
        assert conflicts(two_link_topology(pos, 300.0001), 0, 1)
        assert not conflicts(two_link_topology(pos, 300.0), 0, 1)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_endpoint_pair_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 500, size=(4, 2))
        expected = min(math.dist(pos[i], pos[j]) for i in (0, 1)
                       for j in (2, 3))
        for d, joined in ((expected * (1 + 1e-9), True),
                          (expected * (1 - 1e-9), False)):
            t = two_link_topology(pos, d)
            assert conflicts(t, 0, 1) == conflicts(t, 1, 0) == joined
        t = two_link_topology(pos, 2e3)
        assert min_link_distance(0, 1, t) == pytest.approx(expected, rel=1e-12)


def dense_node_distances(positions):
    """The (n, n) distance matrix the dense code built in one piece."""
    return np.linalg.norm(positions[:, None, :] - positions[None, :, :],
                          axis=-1)


def dense_placement_pairs(positions, comm_range):
    """Placement pairs as the dense code found them: every ``i < j`` pair
    of the (n, n) matrix within the range, in row-major order."""
    return np.nonzero(np.triu(dense_node_distances(positions) <= comm_range,
                              k=1))


def dense_conflict_edges(t):
    """Conflict edges as the dense code found them: the minimum of the
    four (L, L) endpoint-distance gathers below the interference
    distance, upper triangle in row-major order."""
    nd, a, b = dense_node_distances(t.positions), t.link_a, t.link_b
    d = np.minimum(np.minimum(nd[np.ix_(a, a)], nd[np.ix_(a, b)]),
                   np.minimum(nd[np.ix_(b, a)], nd[np.ix_(b, b)]))
    ia, ib = np.nonzero(np.triu(d < t.params.interference_distance, k=1))
    return np.stack([ia, ib], axis=1)


@st.composite
def grid_layouts(draw):
    """Nodes on a 10 m grid with ranges that are whole multiples of 10 m,
    so some node distances equal the communication range or the
    interference distance exactly (axis-aligned and 3-4-5 offsets are
    exact under ``norm``), plus random distinct node pairs as links. The
    sizes span several node-row and link-row blocks."""
    n = draw(st.integers(130, 260))
    comm = 10.0 * draw(st.integers(1, 12))
    interference = comm + 10.0 * draw(st.integers(1, 12))
    side = draw(st.integers(int(interference) // 10 + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pos = rng.integers(0, side, size=(n, 2)) * 10.0
    L = draw(st.integers(520, 800))
    a = rng.integers(0, n, size=4 * L)
    b = rng.integers(0, n, size=4 * L)
    pairs = sorted({(min(i, j), max(i, j))
                    for i, j in zip(a.tolist(), b.tolist()) if i != j})
    pairs = [pairs[k] for k in rng.permutation(len(pairs))[:L]]
    return pos, comm, interference, pairs


class TestBlockedDistances:
    @given(grid_layouts())
    @settings(max_examples=30, deadline=None)
    def test_blocked_paths_match_dense_reference(self, layout):
        pos, comm, interference, pairs = layout
        n, L = len(pos), len(pairs)
        assert len(list(_node_distance_rows(pos))) > 1
        assert _block_rows(4 * L + n) < L  # the conflict graph's link rows
        got = _placement_pairs(pos, comm)
        want = dense_placement_pairs(pos, comm)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        t = make_topology(pos, link_pairs=pairs, comm_range=comm,
                          interference=interference)
        assert np.array_equal(build_conflict_graph(t).edges,
                              dense_conflict_edges(t))

    def test_grid_layouts_hit_both_thresholds_exactly(self):
        # the ties the property test relies on do occur on such a grid
        pos = np.array([(0, 0), (30, 40), (30, 140), (90, 220)], dtype=float)
        d = dense_node_distances(pos)
        assert d[0, 1] == 50.0 and d[1, 2] == 100.0 and d[2, 3] == 100.0
        ia, ib = _placement_pairs(pos, 50.0)
        assert list(zip(ia.tolist(), ib.tolist())) == [(0, 1)]
        t = make_topology(pos, link_pairs=[(0, 1), (2, 3)], comm_range=50.0,
                          interference=100.0)
        # the closest endpoints of the two links are exactly 100 m apart
        assert min_link_distance(0, 1, t) == 100.0
        edges = build_conflict_graph(t).edges
        assert len(edges) == 0
        assert np.array_equal(edges, dense_conflict_edges(t))


class TestMemory:
    def test_800_node_generation_and_conflict_graph_peaks(self):
        # paper density, seed 1: the dense code peaked at 29.3 MB and
        # 36.2 MB; blocked distances and a bool ``near`` stay well under
        side = round(1000 * math.sqrt(800 / 94), 1)
        cfg = ScenarioConfig(node_count=800, area_w=side, area_h=side)
        tracemalloc.start()
        try:
            t = generate_topology(cfg, 1)
            generate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            build_conflict_graph(t)
            conflict_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert generate_peak < 12 * 2 ** 20
        assert conflict_peak < 12 * 2 ** 20


class TestConflictGraph:
    def test_far_links_do_not_conflict(self):
        t = make_topology([(0, 0), (100, 0), (0, 600), (100, 600)],
                          link_pairs=[(0, 1), (2, 3)], interference=514.0)
        cg = build_conflict_graph(t)
        assert cg.edge_count == 0

    def test_links_sharing_a_node_conflict(self):
        t = make_topology([(0, 0), (100, 0), (200, 0)],
                          link_pairs=[(0, 1), (1, 2)])
        cg = build_conflict_graph(t)
        assert cg.edge_count == 1
        assert [tuple(e) for e in cg.edges] == [(0, 1)]

    def test_matches_pairwise_brute_force(self, small_random_topology):
        t = small_random_topology
        cg = build_conflict_graph(t)
        expected = set()
        for a in range(t.link_count):
            for b in range(a + 1, t.link_count):
                if min_link_distance(a, b, t) < t.params.interference_distance:
                    expected.add((a, b))
        assert {tuple(e) for e in cg.edges} == expected

    def test_symmetric_irreflexive(self, small_random_topology,
                                   small_conflict):
        cg = small_conflict
        for a, b in cg.edges:
            assert a != b
            assert a in cg.neighbors[b]
            assert b in cg.neighbors[a]

    def test_edges_shrink_with_interference_distance(self):
        cfg_wide = ScenarioConfig(node_count=20, interference_distance=514)
        cfg_narrow = ScenarioConfig(node_count=20, interference_distance=300)
        t_wide = generate_topology(cfg_wide, seed=4)
        t_narrow = generate_topology(cfg_narrow, seed=4)
        # same seed, same placement: only the conflict rule differs
        assert np.array_equal(t_wide.positions, t_narrow.positions)
        assert (build_conflict_graph(t_narrow).edge_count
                <= build_conflict_graph(t_wide).edge_count)


class TestTopologyFile:
    def test_round_trip_is_bit_exact(self, tmp_path, small_random_topology):
        path = tmp_path / "t.json"
        save_topology(small_random_topology, path)
        loaded = load_topology(path)
        assert json.dumps(loaded.to_dict()) == json.dumps(
            small_random_topology.to_dict()
        )
        assert np.array_equal(loaded.lengths, small_random_topology.lengths)
        path2 = tmp_path / "t2.json"
        save_topology(loaded, path2)
        assert path.read_text() == path2.read_text()

    def test_malformed_file_raises_parse_error(self, tmp_path):
        from meshca import ParseError

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_topology(path)
        path.write_text(json.dumps({"nodes": []}))
        with pytest.raises(ParseError):
            load_topology(path)


class TestLoadTopologyValidation:
    @pytest.mark.parametrize("edit, error", [
        (lambda d: d["links"][0].update(required_rate=0.0), InvalidRequiredRate),
        (lambda d: d["links"][0].update(required_rate=-2.5), InvalidRequiredRate),
        (lambda d: d["links"][1].update(id=999), ParseError),
        (lambda d: d["links"].reverse(), ParseError),
        (lambda d: d["links"][0].update(b=len(d["nodes"])), ParseError),
        (lambda d: d["links"][0].update(a=-1), ParseError),
        (lambda d: d["links"][0].update(b=d["links"][0]["a"]), ParseError),
        (lambda d: d["links"].append({**d["links"][0], "id": len(d["links"])}),
         ParseError),
        (lambda d: d["nodes"][0].update(id=99), ParseError),
        (lambda d: d["nodes"][0].update(radios=0), ParseError),
        (lambda d: d["params"].update(channels=0), InvalidConfig),
        (lambda d: d["nodes"][0].update(x=math.nan), ParseError),
        (lambda d: d["nodes"][1].update(y=-math.inf), ParseError),
        (lambda d: d["nodes"][0].update(x="12.5"), ParseError),
        (lambda d: d["nodes"][0].update(x=10 ** 400), ParseError),
        (lambda d: d["nodes"][0].update(radios=2.5), ParseError),
        (lambda d: d["nodes"][0].update(radios=True), ParseError),
        (lambda d: d["links"][0].update(required_rate=math.inf), InvalidRequiredRate),
        (lambda d: d["links"][0].update(required_rate=math.nan), InvalidRequiredRate),
        (lambda d: d["links"][0].update(a=float(d["links"][0]["a"])), ParseError),
        (lambda d: d["nodes"][0].update(gateway="no"), ParseError),
        (lambda d: d.update(seed="7"), ParseError),
        (lambda d: d.update(seed=-7), ParseError),
        (lambda d: d.update(nodes=d["nodes"][:1], links=[]), ParseError),
        (lambda d: [nd.update(gateway=False) for nd in d["nodes"]], ParseError),
        (lambda d: d["links"][0].update(required_rate=True), ParseError),
        (lambda d: d["nodes"][1].update(id=1.0), ParseError),
        (lambda d: d["nodes"][1].update(id=True), ParseError),
        (lambda d: d["links"][1].update(id=1.0), ParseError),
        (lambda d: d["nodes"][0].update(x=1e308), ParseError),
    ], ids=["zero_rate", "negative_rate", "link_id_999", "link_ids_out_of_order",
            "endpoint_past_last_node", "negative_endpoint", "self_loop",
            "repeated_pair", "node_id_gap", "node_without_radios",
            "invalid_params", "nan_x", "infinite_y", "string_x", "huge_x",
            "fractional_radios", "bool_radios", "infinite_rate", "nan_rate",
            "float_endpoint", "string_gateway", "string_seed",
            "negative_seed", "one_node", "no_gateway", "bool_rate",
            "float_node_id", "bool_node_id", "float_link_id", "far_x"])
    def test_malformed_document_rejected(self, tmp_path, small_random_topology,
                                         edit, error):
        doc = small_random_topology.to_dict()
        edit(doc)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            load_topology(path)

    def test_disconnected_links_rejected(self, tmp_path):
        # a generated topology is connected; dropping node 0's links
        # (and renumbering the rest) leaves node 0 isolated
        doc = generate_topology(ScenarioConfig(), 3).to_dict()
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert load_topology(path).link_count == len(doc["links"])
        isolate_node_zero(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="do not connect"):
            load_topology(path)

    @pytest.mark.parametrize("half_span, loads", [(5e153, True),
                                                  (1e154, False)])
    def test_node_distances_must_be_finite(self, tmp_path, half_span, loads):
        # a three-node chain: its two links are half the chain's span
        # long, so at 2e154 only the distance across it overflows
        doc = {"seed": 0, "params": ScenarioConfig().to_dict(),
               "nodes": [{"id": v, "x": x, "y": 0.0, "radios": 2,
                          "gateway": v == 1}
                         for v, x in enumerate((-half_span, 0.0, half_span))],
               "links": [{"id": 0, "a": 0, "b": 1, "required_rate": 1.0},
                         {"id": 1, "a": 1, "b": 2, "required_rate": 1.0}]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        if loads:
            assert load_topology(path).lengths.tolist() == [half_span] * 2
        else:
            with pytest.raises(ParseError, match="coordinate or distance"):
                load_topology(path)


def isolate_node_zero(doc):
    """Drop every link of node 0 and renumber the others."""
    links = [ld for ld in doc["links"] if 0 not in (ld["a"], ld["b"])]
    doc["links"] = [{**ld, "id": i} for i, ld in enumerate(links)]
