import ctypes
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meshca import (InvalidAssignment, InvalidConfig, ParseError, ScenarioConfig,
                    assignment)
from meshca.assignment import (
    UNASSIGNED,
    ChannelAssignment,
    OverlapMatrix,
    _assign_stuck,
    _least_interfering,
    channels_in_use,
    feasible_channels,
    interference_matrix,
    load_assignment,
    mclr_assign,
    overlap_for_config,
    repair_radio_constraint,
    save_assignment,
    within_budget,
)
from meshca.config import MAX_CHANNELS, RadioModel
from meshca.ga import Problem
from meshca.ranking import LinkRankTable, rank_links, score_nodes
from meshca.topology import (
    ConflictGraph,
    Topology,
    build_conflict_graph,
    generate_topology,
)
from conftest import (
    assert_valid,
    line_topology,
    make_problem,
    make_topology,
    reference_mclr,
    reference_radio_violations,
    reference_repair,
)

RM = RadioModel()


def clique_topology(n_links=4, **kwargs):
    """Chain of short links packed so every pair is in conflict."""
    positions = [(i * 50.0, 0.0) for i in range(n_links + 1)]
    pairs = [(i, i + 1) for i in range(n_links)]
    return make_topology(positions, link_pairs=pairs, **kwargs)


class TestOverlapMatrix:
    def test_orthogonal_is_identity(self):
        m = OverlapMatrix.orthogonal(4)
        assert np.array_equal(m.ratio, np.eye(4))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_identity_flag(self, k):
        assert OverlapMatrix.orthogonal(k).identity
        assert OverlapMatrix.graded(k, span=1).identity
        for span in range(2, 7):
            assert OverlapMatrix.graded(k, span).identity == (k == 1)

    def test_graded_preset(self):
        m = OverlapMatrix.graded(12)
        assert m.ratio[0, 0] == 1.0
        assert m.ratio[0, 4] == pytest.approx(0.2)
        assert m.ratio[0, 5] == 0.0
        assert np.array_equal(m.ratio, m.ratio.T)

    @pytest.mark.parametrize("ratio", [
        [[1.0, 0.5], [0.4, 1.0]],      # asymmetric
        [[0.9, 0.0], [0.0, 1.0]],      # diagonal != 1
        [[1.0, 1.5], [1.5, 1.0]],      # out of range
    ])
    def test_invalid_matrices_rejected(self, ratio):
        with pytest.raises(InvalidConfig):
            OverlapMatrix(np.array(ratio))

    def test_channel_count_bounded(self):
        # a radio budget holds a node's channels in one 64-bit mask
        assert OverlapMatrix.orthogonal(MAX_CHANNELS).channel_count == 64
        assert OverlapMatrix.graded(MAX_CHANNELS).channel_count == 64
        message = rf"^overlap matrix has over {MAX_CHANNELS} channels$"
        with pytest.raises(InvalidConfig, match=message):
            OverlapMatrix.orthogonal(MAX_CHANNELS + 1)
        with pytest.raises(InvalidConfig, match=message):
            OverlapMatrix.graded(MAX_CHANNELS + 1)


class TestLinkInterferenceIndex:
    def test_isolated_link_is_zero(self):
        t = make_topology([(0, 0), (100, 0), (0, 600), (100, 600)],
                          link_pairs=[(0, 1), (2, 3)], interference=514.0)
        cg = build_conflict_graph(t)
        got = interference_matrix(np.array([0, 0]), cg, OverlapMatrix.orthogonal(3))
        assert got[0] == 0.0

    def test_three_same_channel_neighbors(self):
        t = clique_topology(4)
        cg = build_conflict_graph(t)
        assert len(cg.neighbors[0]) == 3
        got = interference_matrix(np.zeros(4, dtype=int), cg,
                                  OverlapMatrix.orthogonal(3))
        assert got[0] == 3.0

    def test_graded_matrix_matches_term_by_term_sum(self):
        t = clique_topology(5)
        cg = build_conflict_graph(t)
        m = OverlapMatrix.graded(6)
        genes = np.array([0, 2, 5, 1, 4])
        got = interference_matrix(genes, cg, m)
        for lid in range(5):
            expected = sum(
                m.ratio[genes[lid], genes[n]] for n in cg.neighbors[lid]
            )
            assert got[lid] == pytest.approx(expected, rel=1e-12)

    def test_binary_matrix_counts_same_channel_neighbors(self):
        t = clique_topology(6)
        cg = build_conflict_graph(t)
        rng = np.random.default_rng(0)
        for _ in range(20):
            genes = rng.integers(3, size=6)
            got = interference_matrix(genes, cg, OverlapMatrix.orthogonal(3))
            for lid in range(6):
                same = sum(
                    1 for n in cg.neighbors[lid] if genes[n] == genes[lid]
                )
                assert got[lid] == float(same)


def reference_interference(genes, cg, m):
    """The per-edge gather that the neighbour-count kernel replaced:
    ``ratio[gene(src), gene(dst)]`` over both orientations of every
    conflict edge, summed per source link in neighbour order."""
    g = np.atleast_2d(genes)
    out = np.zeros(g.shape)
    if cg.edge_count:
        src = np.concatenate([cg.edges[:, 0], cg.edges[:, 1]])
        dst = np.concatenate([cg.edges[:, 1], cg.edges[:, 0]])
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        contrib = m.ratio[g[:, src], g[:, dst]]
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        out[:, src[starts]] = np.add.reduceat(contrib, starts, axis=1)
    return out[0] if np.ndim(genes) == 1 else out


def reference_count_kernel(genes, cg, m):
    """The neighbour-count kernel before its float32 rewrite: a float64
    one-hot by broadcast compare, a float64 adjacency, weighting by
    ``ratio[g.T]`` and a sum over channels. The rewrite must match it bit
    for bit under every overlap."""
    g = np.atleast_2d(genes)
    p, n_links = g.shape
    k = m.channel_count
    onehot = (g.T[:, :, None] == np.arange(k)).astype(float)  # (L, P, K)
    counts = (cg.adjacency.astype(float) @ onehot.reshape(n_links, p * k)
              ).reshape(n_links, p, k)
    out = np.ascontiguousarray((counts * m.ratio[g.T]).sum(axis=2).T)
    return out[0] if np.ndim(genes) == 1 else out


@st.composite
def kernel_cases(draw):
    """A random conflict graph (possibly empty), channel count 1..12 and
    genes of shape (L,), (1, L), (P, L) with P in 2..6, or (P, L) with P
    near 300, the shape of an oracle chunk; the near-300-row batches take
    their genes from a seeded generator."""
    n_links = draw(st.integers(0, 16))
    pairs = [(a, b) for a in range(n_links) for b in range(a + 1, n_links)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    cg = ConflictGraph(n_links, np.array(edges, dtype=np.int64).reshape(-1, 2))
    k = draw(st.integers(1, 12))
    rows = draw(st.sampled_from([None, 1, draw(st.integers(2, 6)),
                                 draw(st.integers(280, 320))]))
    shape = (n_links,) if rows is None else (rows, n_links)
    if rows is not None and rows >= 280:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return cg, k, rng.integers(0, k, shape)
    flat = draw(st.lists(st.integers(0, k - 1), min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    return cg, k, np.array(flat, dtype=np.int64).reshape(shape)


class TestInterferenceKernel:
    @given(kernel_cases(), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_edge_reference(self, case, span):
        cg, k, genes = case
        orthogonal, graded = OverlapMatrix.orthogonal(k), OverlapMatrix.graded(k, span)
        got = interference_matrix(genes, cg, orthogonal)
        assert got.shape == genes.shape
        assert np.array_equal(got, reference_interference(genes, cg, orthogonal))
        got = interference_matrix(genes, cg, graded)
        assert got.shape == genes.shape
        np.testing.assert_allclose(
            got, reference_interference(genes, cg, graded), rtol=1e-12, atol=0)
        # a row's indices do not depend on the rest of the batch
        for row, want in zip(np.atleast_2d(genes), np.atleast_2d(got)):
            assert np.array_equal(interference_matrix(row, cg, graded), want)

    @given(kernel_cases(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_float64_kernel(self, case, span, seed):
        cg, k, genes = case
        upper = np.triu(np.random.default_rng(seed).uniform(size=(k, k)), 1)
        for m in (OverlapMatrix.orthogonal(k), OverlapMatrix.graded(k, span),
                  OverlapMatrix(upper + upper.T + np.eye(k))):
            got = interference_matrix(genes, cg, m)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == genes.shape
            assert np.array_equal(got, reference_count_kernel(genes, cg, m))

    def test_empty_conflict_graph_is_interference_free(self):
        # no edges: count_bits is 0, and the counts pack in 1-bit fields
        for m in (OverlapMatrix.graded(4), OverlapMatrix.orthogonal(4)):
            cg = ConflictGraph(5, np.empty((0, 2), dtype=np.int64))
            for genes in (np.zeros(5, dtype=int), np.zeros((1, 5), dtype=int),
                          np.arange(15).reshape(3, 5) % 4):
                assert np.array_equal(interference_matrix(genes, cg, m),
                                      np.zeros(genes.shape))
            assert cg.count_bits == 0

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_gene_out_of_range_raises(self, bad):
        cg = build_conflict_graph(clique_topology(4))
        m = OverlapMatrix.orthogonal(3)
        genes = np.array([0, 1, bad, 2])
        with pytest.raises(InvalidAssignment):
            interference_matrix(genes, cg, m)
        with pytest.raises(InvalidAssignment):
            interference_matrix(np.stack([genes * 0, genes]), cg, m)


class TestKernelScratch:
    """``interference_matrix`` allocates what it works in afresh each
    call, and changes nothing it is given: no call may see what an
    earlier one did."""

    @given(kernel_cases(), st.lists(
        st.tuples(st.integers(1, 12),
                  st.sampled_from([None, 1, 3, 40, 300]),
                  st.integers(1, 6),
                  st.sampled_from([None, "below", "above"]),
                  st.integers(0, 2**32 - 1)),
        min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_calls_in_a_row_match_a_fresh_graph(self, case, steps):
        """Each step is (channels, rows, span, bad gene, seed): span 1 is
        the identity overlap, and a gene put below or above the channel
        range must raise. The steps run forwards then backwards, so the
        batch grows and shrinks on one graph. Every result must equal the
        result on a fresh graph, share memory with no other, and stay as
        it was returned through all later calls."""
        cg, k, genes = case
        calls = [(genes, OverlapMatrix.graded(k, 5), None)]
        for channels, rows, span, bad, seed in steps + steps[::-1]:
            shape = (cg.link_count,) if rows is None else (rows, cg.link_count)
            g = np.random.default_rng(seed).integers(0, channels, shape)
            if bad is not None and g.size:
                g.flat[seed % g.size] = -1 if bad == "below" else channels
            else:
                bad = None
            calls.append((g, OverlapMatrix.graded(channels, span), bad))
        kept = []
        for g, m, bad in calls:
            if bad is not None:
                with pytest.raises(InvalidAssignment):
                    interference_matrix(g, cg, m)
                continue
            got = interference_matrix(g, cg, m)
            want = interference_matrix(g, ConflictGraph(cg.link_count, cg.edges), m)
            assert np.array_equal(got, want)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            kept.append((got, want))
        for i, (got, want) in enumerate(kept):
            assert np.array_equal(got, want)
            for other, _ in kept[i + 1:]:
                assert not np.shares_memory(got, other)

    @pytest.mark.parametrize("rows", [None, 1, 40, 300])
    @pytest.mark.parametrize("overlap", ["orthogonal", "graded", "random"])
    def test_changes_nothing_it_is_given(self, overlap, rows):
        """After a warm-up call, which fills the graph's ``degree`` and
        ``count_bits``, a call leaves every attribute of the graph the
        same object with the same bytes, and the genes and overlap
        ratios as they were."""
        k = 11
        cg = random_conflict_graph(60, 7, density=0.2)
        upper = np.triu(np.random.default_rng(3).uniform(size=(k, k)), 1)
        m = {"orthogonal": OverlapMatrix.orthogonal(k),
             "graded": OverlapMatrix.graded(k),
             "random": OverlapMatrix(upper + upper.T + np.eye(k))}[overlap]
        shape = (60,) if rows is None else (rows, 60)
        genes = np.random.default_rng(rows).integers(0, k, shape)
        interference_matrix(genes, cg, m)

        def snapshot():
            return {name: (value, value.tobytes() if isinstance(
                value, np.ndarray) else value)
                for name, value in vars(cg).items()}

        before, genes_before, ratio = snapshot(), genes.copy(), m.ratio.copy()
        for g in (genes, genes[..., ::-1]):
            interference_matrix(g, cg, m)
        after = snapshot()
        assert after.keys() == before.keys()
        for name, (value, data) in before.items():
            assert after[name][0] is value and after[name][1] == data
        assert np.array_equal(genes, genes_before)
        assert np.array_equal(m.ratio, ratio)

    @pytest.mark.parametrize("channels, overlap_kind", [
        (3, "orthogonal"), (12, "orthogonal"), (11, "graded")])
    def test_warm_calls_take_no_page_faults(self, channels, overlap_kind):
        """A (40, L) population on a 94-node topology: warm calls average
        under 5 minor page faults. 3 orthogonal channels pack in one
        column group and 12 in four; both read the own channel's field.
        11 graded channels unpack every field into fresh (40, L, 11)
        counts and weights. Called alone at one shape, malloc reuses what
        the previous call freed, so this catches only a call that maps
        fresh memory every time: inside a radio_bound pass, among the
        GA's arrays, int32 counts took about 140 faults a call at this
        shape and still passed here."""
        resource = pytest.importorskip("resource")
        cfg = ScenarioConfig(node_count=94, channels=channels,
                             overlap_kind=overlap_kind)
        t = generate_topology(cfg, 1)
        cg, m = build_conflict_graph(t), overlap_for_config(cfg)
        batches = np.random.default_rng(0).integers(
            0, channels, (8, 40, t.link_count))
        for genes in batches:
            interference_matrix(genes, cg, m)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for i in range(200):
            interference_matrix(batches[i % 8], cg, m)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 200 < 5


# (count_bits, channels): a float32 column packs 24 // b b-bit fields, so
# these take from one column group (K * b <= 24) to 16 (6 bits, 64
# channels); 7 bits and 3 channels is paper density, and 7 bits and 12
# channels radio_bound's
FIELD_WIDTHS = [(1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (7, 3), (8, 3),
                (1, 25), (5, 5), (7, 12), (5, 11), (1, 64), (6, 64)]


def dense_conflict_graph(bits, seed=None, density=1.0):
    """A conflict graph on 2**bits links in which link 0 conflicts with
    every other, so the largest degree is 2**bits - 1 and ``count_bits``
    is ``bits``; each other edge is kept with probability ``density``
    (complete at 1.0)."""
    n_links = 2 ** bits
    a, b = np.triu_indices(n_links, 1)
    keep = (a == 0) | (np.random.default_rng(seed).random(a.size) < density)
    return ConflictGraph(n_links, np.stack([a[keep], b[keep]], axis=1))


def group_tops(bits, k):
    """The top channel of each column group of K channels packed in
    ``bits``-bit fields: the channel in the highest field of its column."""
    per = min(24 // bits, k)
    return [min(j + per, k) - 1 for j in range(0, k, per)]


@st.composite
def packed_cases(draw):
    """A :func:`dense_conflict_graph` with K channels from
    ``FIELD_WIDTHS``, and genes of shape (L,) (one column group only) or
    (P, L), P in {G, 40, 4096} while P * L * K stays at most 2**22. Row i
    puts every gene on group i mod G's top channel, or only the first G
    rows do and the rest are random; either way, for each group, link 0
    has a full top field in one row."""
    bits, k = draw(st.sampled_from(FIELD_WIDTHS))
    seed = draw(st.integers(0, 2**32 - 1))
    cg = dense_conflict_graph(bits, seed,
                              draw(st.sampled_from([1.0, 0.5, 0.05])))
    tops = group_tops(bits, k)
    rows = [r for r in (len(tops), 40, 4096)
            if r * cg.link_count * k <= 2**22]
    rows = draw(st.sampled_from(rows + [None] * (len(tops) == 1)))
    if rows is None:
        return cg, k, np.full(cg.link_count, k - 1), seed
    genes = np.resize(tops, rows)[:, None].repeat(cg.link_count, axis=1)
    if draw(st.booleans()):
        genes[len(tops):] = np.random.default_rng(seed).integers(
            0, k, (rows - len(tops), cg.link_count))
    return cg, k, genes, seed


class TestPackedKernel:
    """The kernel packs every channel's count in b-bit fields of float32
    columns, in as many column groups as K needs, under every overlap. It
    gives the float64 reference's results, bit for bit, in one product."""

    @staticmethod
    def overlaps(k, seed):
        upper = np.triu(np.random.default_rng(seed).uniform(size=(k, k)), 1)
        return (OverlapMatrix.orthogonal(k), OverlapMatrix.graded(k, 3),
                OverlapMatrix(upper + upper.T + np.eye(k)))

    def check(self, cg, k, genes, seed=0):
        full = 2 ** cg.count_bits - 1
        for m in self.overlaps(k, seed):
            got = interference_matrix(genes, cg, m)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == genes.shape
            assert not np.shares_memory(got, interference_matrix(genes, cg, m))
            assert np.array_equal(got, reference_count_kernel(genes, cg, m))
            narrow = interference_matrix(genes.astype(np.uint8), cg, m)
            assert np.array_equal(got, narrow)
            if m.identity:  # link 0's field is full in each group's row
                top = np.atleast_2d(got)[:len(group_tops(cg.count_bits, k)), 0]
                assert (top == full).all()

    @given(packed_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_under_every_overlap(self, case):
        self.check(*case)

    @pytest.mark.parametrize("rows", [1, 40, 4096])
    @pytest.mark.parametrize("bits, k", [(8, 3), (6, 4), (1, 25), (5, 5)])
    def test_full_top_field_on_a_complete_graph(self, bits, k, rows):
        """Every link's 2**b - 1 neighbours on the top channel: the top
        field of the last group is full, and that column's sum, up to
        (2**b - 1) * 2**(b * (per - 1)), is below 2**24."""
        cg = dense_conflict_graph(bits)
        assert cg.count_bits == bits
        genes = np.full((rows, cg.link_count), k - 1)
        self.check(cg, k, genes)
        assert (interference_matrix(genes, cg, OverlapMatrix.orthogonal(k))
                == 2 ** bits - 1).all()

    @pytest.mark.parametrize("bits, k", [(9, 3), (10, 2)])
    def test_counts_wider_than_a_byte(self, bits, k):
        """Over 8 bits the graded readout unpacks each count into 16 bits:
        link 0's full fields, 2**b - 1, and random genes in later rows."""
        cg = dense_conflict_graph(bits)
        tops = group_tops(bits, k)
        genes = np.random.default_rng(bits).integers(0, k, (40, cg.link_count))
        genes[:len(tops)] = np.array(tops)[:, None]
        self.check(cg, k, genes)

    @pytest.mark.parametrize("k", [1, 3, 11, 12, 25, 64])
    def test_one_product_of_every_group_per_call(self, monkeypatch, k):
        """Whatever the overlap and K, a call makes one product, whose
        left operand is the (G * P, L) packed rows."""
        cg = random_conflict_graph(60, k, density=0.2)
        genes = np.random.default_rng(k).integers(0, k, (40, 60))
        shapes, product = [], assignment._product

        def spy(a, b, out):
            shapes.append(a.shape)
            product(a, b, out)

        monkeypatch.setattr(assignment, "_product", spy)
        groups = len(group_tops(cg.count_bits, k))
        for m in self.overlaps(k, k):
            interference_matrix(genes, cg, m)
        assert shapes == [(groups * 40, 60)] * 3


def random_conflict_graph(n_links, seed, density=0.05):
    rng = np.random.default_rng(seed)
    a, b = np.triu_indices(n_links, 1)
    keep = rng.random(a.size) < density
    return ConflictGraph(n_links, np.stack([a[keep], b[keep]], axis=1))


class FakeOpenBlas:
    """Stands in for numpy's OpenBLAS: a thread count, and every count
    set, in order."""

    def __init__(self, count):
        self.count, self.sets = count, []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def no_thread_vars(monkeypatch):
    """Neither BLAS thread variable set, and the OpenBLAS lookup undone,
    so the next kernel call looks it up again; undone again afterwards,
    so no later test sees this test's lookup."""
    for name in assignment.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    lookup = assignment._openblas_threads  # a test may patch it out
    lookup.cache_clear()
    yield
    lookup.cache_clear()


@pytest.fixture
def fake_blas(monkeypatch, no_thread_vars):
    blas = FakeOpenBlas(4)
    monkeypatch.setattr(assignment, "_openblas_threads",
                        lambda: (blas.get, blas.set))
    return blas


class TestBlasThreadRule:
    """The kernel's product runs on one OpenBLAS thread, and every call
    leaves the count as it found it."""

    def case(self, n_links=30, rows=40, channels=3):
        cg = random_conflict_graph(n_links, 0)
        genes = np.random.default_rng(1).integers(0, channels, (rows, n_links))
        return genes, cg, OverlapMatrix.orthogonal(channels)

    def spy_matmul(self, monkeypatch, get_threads):
        """Record the thread count each product runs with."""
        seen, matmul = [], np.matmul

        def spy(*args, **kwargs):
            seen.append(get_threads())
            return matmul(*args, **kwargs)

        monkeypatch.setattr(assignment.np, "matmul", spy)
        return seen

    def test_product_runs_on_one_thread_then_restores(self, fake_blas,
                                                      monkeypatch):
        seen = self.spy_matmul(monkeypatch, fake_blas.get)
        genes, cg, m = self.case()
        got = interference_matrix(genes, cg, m)
        assert np.array_equal(got, reference_count_kernel(genes, cg, m))
        assert seen == [1]
        assert fake_blas.sets == [1, 4] and fake_blas.count == 4

    def test_one_thread_already_sets_nothing(self, fake_blas):
        fake_blas.count = 1
        interference_matrix(*self.case())
        assert fake_blas.sets == []

    def test_count_restored_when_the_product_raises(self, fake_blas,
                                                    monkeypatch):
        def failing(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(assignment.np, "matmul", failing)
        with pytest.raises(MemoryError):
            interference_matrix(*self.case())
        assert fake_blas.sets == [1, 4] and fake_blas.count == 4

    def test_count_unchanged_when_genes_are_out_of_range(self, fake_blas):
        genes, cg, m = self.case()
        genes[3, 5] = 3
        with pytest.raises(InvalidAssignment):
            interference_matrix(genes, cg, m)
        assert fake_blas.sets == [] and fake_blas.count == 4

    @pytest.mark.parametrize("missing", ["library", "symbol"])
    def test_noop_without_the_openblas_symbols(self, no_thread_vars,
                                               monkeypatch, missing):
        def cdll(path):
            if missing == "library":
                raise OSError(f"cannot load {path}")
            return object()  # no scipy_openblas_* attribute

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        genes, cg, m = self.case()
        assert np.array_equal(interference_matrix(genes, cg, m),
                              reference_count_kernel(genes, cg, m))
        assert assignment._openblas_threads.cache_info().misses == 1
        assert assignment._openblas_threads() == ()

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_noop_when_the_user_sets_the_threads(self, no_thread_vars,
                                                 monkeypatch, name):
        def cdll(path):
            raise AssertionError("looked up OpenBLAS despite " + name)

        monkeypatch.setenv(name, "2")
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        genes, cg, m = self.case()
        assert np.array_equal(interference_matrix(genes, cg, m),
                              reference_count_kernel(genes, cg, m))
        assert assignment._openblas_threads.cache_info().misses == 1
        assert assignment._openblas_threads() == ()

    def test_numpys_openblas_count_is_restored(self, no_thread_vars,
                                               monkeypatch):
        api = assignment._openblas_threads()
        if not api:
            pytest.skip("numpy does not bundle scipy-openblas here")
        get = api[0]
        before = get()
        seen = self.spy_matmul(monkeypatch, get)
        interference_matrix(*self.case())
        assert seen == [1]
        assert get() == before


class TestThreadCountIndependence:
    """The same arrays on one BLAS thread and on the default count."""

    @pytest.mark.parametrize("n_links", [60, 760])  # 4.3e5 and 6.9e7 at (40, L, 3)
    @pytest.mark.parametrize("overlap", ["identity", "graded"])
    def test_same_arrays_with_and_without_the_rule(self, no_thread_vars,
                                                    monkeypatch, n_links,
                                                    overlap):
        cg = random_conflict_graph(n_links, n_links)
        m = (OverlapMatrix.orthogonal(3) if overlap == "identity"
             else OverlapMatrix.graded(3, 2))
        genes = np.random.default_rng(2).integers(0, 3, (40, n_links))
        got = [interference_matrix(genes, cg, m)]
        # the default count
        monkeypatch.setattr(assignment, "_openblas_threads", lambda: ())
        got.append(interference_matrix(genes, cg, m))
        want = reference_count_kernel(genes, cg, m)
        for g in got:
            assert np.array_equal(g, want)


class TestLeastInterferingChannel:
    """The channel choice of MCLR, repair and stuck merges: the allowed
    channel least interfering with the given conflict neighbours, ties to
    the lower channel. Narrowing ``allowed`` reads the order of the
    per-channel interference off the choice."""

    @staticmethod
    def least_interfering(lid, genes, problem, allowed=None):
        """The choice against ``lid``'s assigned neighbours, by default
        among its feasible channels."""
        if allowed is None:
            allowed = feasible_channels(lid, genes, problem)
        nbrs = problem.cg.neighbors[lid]
        return int(_least_interfering(genes, nbrs[genes[nbrs] >= 0],
                                      np.asarray(allowed), problem))

    @staticmethod
    def masks(k):
        """Every non-empty (K,) allowed mask."""
        return [np.array(bits, dtype=bool)
                for bits in product((False, True), repeat=k) if any(bits)]

    def test_no_assigned_neighbors_gives_channel_zero(self):
        problem = make_problem(clique_topology(3))
        genes = np.full(3, -1)
        assert self.least_interfering(0, genes, problem) == 0
        # every channel costs the same, so any mask picks its lowest
        for allowed in self.masks(3):
            assert (self.least_interfering(0, genes, problem, allowed)
                    == np.flatnonzero(allowed)[0])

    def test_picks_the_free_channel(self):
        problem = make_problem(clique_topology(3))
        genes = np.array([0, -1, 1])
        assert self.least_interfering(1, genes, problem) == 2
        # costs [1, 1, 0]: channel 2 wins wherever allowed, and 0 ties 1
        assert self.least_interfering(1, genes, problem, [True, True, False]) == 0
        assert self.least_interfering(1, genes, problem, [False, True, True]) == 2
        assert self.least_interfering(1, genes, problem, [True, False, True]) == 2

    def test_matches_exhaustive_per_channel_evaluation(self):
        m = OverlapMatrix.graded(3)
        problem = make_problem(clique_topology(6), m)
        cg = problem.cg
        rng = np.random.default_rng(7)
        for _ in range(25):
            genes = rng.integers(-1, 3, size=6)
            lid = int(rng.integers(6))
            scores = [(sum(m.ratio[c, genes[n]]
                           for n in cg.neighbors[lid] if genes[n] >= 0), c)
                      for c in range(3)]
            assert self.least_interfering(lid, genes, problem) == min(scores)[1]
            for allowed in self.masks(3):
                want = min(scores[c] for c in np.flatnonzero(allowed))[1]
                assert self.least_interfering(lid, genes, problem,
                                              allowed) == want

    def test_radio_budget_restricts_candidates(self):
        # node 1 has one radio already busy on channel 2
        problem = make_problem(line_topology(n=3, radios=1))
        genes = np.array([2, -1])
        # link 1 shares node 1 with link 0, so it must reuse channel 2
        assert np.flatnonzero(feasible_channels(1, genes, problem)).tolist() == [2]
        assert self.least_interfering(1, genes, problem) == 2

    def test_no_feasible_channel_raises(self):
        # middle link of a 3-link path with 1 radio per node and the two
        # outer links pinned to different channels: no candidate is left,
        # which is the case MCLR and repair hand to the stuck-link merge
        problem = make_problem(line_topology(n=4, radios=1))
        genes = np.array([0, -1, 1])
        assert np.flatnonzero(feasible_channels(1, genes, problem)).tolist() == []


class TestMclrAssign:
    def _table(self, t):
        return rank_links(t, score_nodes(t))

    def test_three_link_path_two_channels_alternates(self):
        # all three links mutually conflict; gateway at node 0 makes the
        # schedule follow the chain, so channels come out 0, 1, 0
        t = clique_topology(3, gateways=(0,), channels=2)
        cg = build_conflict_graph(t)
        assert cg.edge_count == 3
        m = OverlapMatrix.orthogonal(2)
        a = mclr_assign(Problem(t, cg, m, RM), self._table(t))
        assert a.genes.tolist() == [0, 1, 0]
        assert interference_matrix(a.genes, cg, m)[1] == 0.0
        # exhaustive check: no assignment of 2 channels does better in
        # total interference
        def total(genes):
            return sum(
                2 for x, y in cg.edges if genes[x] == genes[y]
            )
        best = min(total(g) for g in product(range(2), repeat=3))
        assert total(a.genes) == best

    def test_enough_channels_gives_zero_interference(self):
        t = clique_topology(4, channels=5, radios=5)
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(5)
        a = mclr_assign(Problem(t, cg, m, RM), self._table(t))
        assert (interference_matrix(a.genes, cg, m) == 0.0).all()

    def test_single_link_gets_channel_zero(self):
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)])
        cg = build_conflict_graph(t)
        a = mclr_assign(make_problem(t), self._table(t))
        assert a.genes.tolist() == [0]

    def test_respects_radio_constraint(self):
        t = clique_topology(8, radios=2, channels=6)
        a = mclr_assign(make_problem(t), self._table(t))
        assert_valid(a.genes, t, 6)

    @pytest.mark.parametrize("overlap", [OverlapMatrix.orthogonal,
                                         OverlapMatrix.graded])
    def test_never_worse_than_common_channel(self, small_random_topology,
                                             overlap):
        t = small_random_topology
        cg = build_conflict_graph(t)
        m = overlap(t.params.channels)
        a = mclr_assign(Problem(t, cg, m, RM), self._table(t))
        degrees = np.array([len(n) for n in cg.neighbors])
        assert (interference_matrix(a.genes, cg, m) <= degrees).all()

    def test_relabeling_invariance(self):
        # reversing link ids while keeping the same rank order reproduces
        # the same channels under the relabeling
        t = clique_topology(4, gateways=(0,))
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(2)
        table = self._table(t)
        a = mclr_assign(Problem(t, cg, m, RM), table)

        # manual relabel: new link k corresponds to old link rev[k]
        rev = [3, 2, 1, 0]
        t2 = make_topology(
            [(i * 50.0, 0.0) for i in range(5)],
            link_pairs=[(3 - k, 4 - k) for k in range(4)],
            gateways=(0,),
            channels=2,
        )
        cg2 = build_conflict_graph(t2)
        table2 = self._table(t2)
        a2 = mclr_assign(Problem(t2, cg2, m, RM), table2)
        # same schedule order by rank implies identical channel pattern
        # under the relabeling
        for k in range(4):
            assert a2.genes[k] == a.genes[rev[k]]

    def test_all_links_assigned(self, small_random_topology):
        t = small_random_topology
        a = mclr_assign(make_problem(t), self._table(t))
        assert (a.genes >= 0).all()
        assert (a.genes < 3).all()

    def test_tight_radios_still_yields_valid_assignment(self):
        # radios=1 forces whole neighborhoods onto shared channels
        t = clique_topology(6, radios=1, channels=4)
        a = mclr_assign(make_problem(t), self._table(t))
        assert_valid(a.genes, t, 4)


class TestRadioConstraintHelpers:
    def test_violations_detected(self):
        problem = make_problem(line_topology(n=4, radios=1))
        genes = np.array([0, 1, 2])
        assert problem.binding.tolist() == [1, 2]
        assert channels_in_use(genes, problem).tolist() == [2, 2]
        assert not within_budget(genes, problem)
        assert within_budget(np.array([0, 0, 0]), problem)

    def test_feasible_channels_includes_own(self):
        problem = make_problem(line_topology(n=4, radios=1))
        genes = np.array([0, 0, 1])
        assert np.flatnonzero(feasible_channels(1, genes, problem)).tolist() == [0]
        assert np.flatnonzero(feasible_channels(2, genes, problem)).tolist() == [0, 1]

    def test_repair_produces_valid_assignment(self):
        t = clique_topology(6, radios=2, channels=5)
        problem = make_problem(t)
        rng = np.random.default_rng(3)
        for _ in range(50):
            genes = rng.integers(5, size=6)
            repaired = repair_radio_constraint(genes, problem)
            assert_valid(repaired, t, 5)

    def test_repair_keeps_feasible_genes(self):
        problem = make_problem(clique_topology(4, radios=3, channels=3))
        genes = np.array([0, 1, 2, 0])
        assert np.array_equal(repair_radio_constraint(genes, problem), genes)


def reference_feasible_channels(lid, genes, t, channel_count):
    """The set-rebuilding candidate rule that the radio book replaced."""
    allowed = None
    for v in (t.link_a[lid], t.link_b[lid]):
        used = {int(genes[l]) for l in t.incident_links[v]
                if l != lid and genes[l] >= 0}
        if len(used) >= t.radios[v]:
            allowed = used if allowed is None else allowed & used
    if allowed is None:
        return list(range(channel_count))
    own = int(genes[lid])
    if own >= 0:
        allowed = allowed | {own}
    return sorted(c for c in allowed if 0 <= c < channel_count)


@st.composite
def budget_cases(draw):
    """A small topology with 1-3 radios per node, 1-6 or 64 channels and
    a (P, L) batch of genes in [-1, K), weighted to -1 and K - 1: valid,
    over budget, partial."""
    n = draw(st.integers(2, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    link_pairs = draw(st.lists(st.sampled_from(pairs), min_size=1,
                               max_size=len(pairs), unique=True))
    radios = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    k = draw(st.one_of(st.integers(1, 6), st.just(MAX_CHANNELS)))
    L = len(link_pairs)
    t = Topology([(40.0 * i, 0.0) for i in range(n)], radios, [0],
                 [a for a, _ in link_pairs], [b for _, b in link_pairs],
                 [1.0] * L,
                 ScenarioConfig(name="budget", node_count=n, channels=k), 0)
    gene = st.one_of(st.integers(UNASSIGNED, k - 1),
                     st.sampled_from([UNASSIGNED, k - 1]))
    rows = draw(st.lists(st.lists(gene, min_size=L, max_size=L),
                         min_size=1, max_size=4))
    return t, k, np.array(rows, dtype=np.int64)


class TestRadioBudgetProperties:
    @given(budget_cases())
    # channel 63 sets the sign bit of a node's 64-bit channel mask
    @example((line_topology(n=4, radios=1, channels=MAX_CHANNELS),
              MAX_CHANNELS, np.array([[63, UNASSIGNED, 63], [UNASSIGNED, 63, 0],
                                      [UNASSIGNED] * 3])))
    @settings(max_examples=300, deadline=None)
    def test_matches_set_based_references(self, case):
        t, k, genes = case
        problem = make_problem(t)
        counts = channels_in_use(genes, problem)
        assert counts.shape == (len(genes), len(problem.binding))
        for row, row_counts in zip(genes, counts):
            assert np.array_equal(channels_in_use(row, problem), row_counts)
            for v, c in zip(problem.binding, row_counts):
                assert c == len({g for g in row[t.incident_links[v]] if g >= 0})
            over = [(int(v), int(c)) for v, c in zip(problem.binding, row_counts)
                    if c > t.radios[v]]
            assert over == reference_radio_violations(row, t)
            assert within_budget(row, problem) == (not over)
            valid = repair_radio_constraint(np.maximum(row, 0), problem)
            assert_valid(valid, t, k)
            for r in (row, valid):
                for lid in range(t.link_count):
                    assert (np.flatnonzero(feasible_channels(lid, r, problem)).tolist()
                            == reference_feasible_channels(lid, r, t, k))

    @given(budget_cases())
    @settings(max_examples=300, deadline=None)
    def test_non_binding_budget_allows_every_channel(self, case):
        t, k, genes = case
        problem = make_problem(t)
        if problem.binding.size:
            return
        for row in genes:
            for lid in range(t.link_count):
                assert (np.flatnonzero(feasible_channels(lid, row, problem)).tolist()
                        == list(range(k)))
            assert repair_radio_constraint(row, problem) is row

    def test_binding_needs_a_node_with_more_links_than_radios(self):
        # every node of a 3-link path has at most 2 links
        t = line_topology(n=4, radios=2)
        assert make_problem(t, OverlapMatrix.orthogonal(6)).binding.tolist() == []
        # the hub of a 3-link star has 3 links for 2 radios
        star = make_topology([(0, 0), (100, 0), (0, 100), (-100, 0)],
                             link_pairs=[(0, 1), (0, 2), (0, 3)], radios=2)
        assert make_problem(star, OverlapMatrix.orthogonal(2)).binding.tolist() == []
        assert make_problem(star, OverlapMatrix.orthogonal(3)).binding.tolist() == [0]


@st.composite
def repair_cases(draw):
    """A random tree of 3-9 nodes plus up to three extra links (ids in
    random order), 1-3 radios per node, 2-6 channels, orthogonal or
    graded overlap, and a (P, L) batch of complete gene rows."""
    n = draw(st.integers(3, 9))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [(a, b) for a in range(n) for b in range(a + 1, n)
              if (a, b) not in pairs]
    pairs += draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    pairs = draw(st.permutations(pairs))
    radios = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    k = draw(st.integers(2, 6))
    L = len(pairs)
    x = [80.0 * draw(st.integers(0, 12)) for _ in range(n)]
    t = Topology([(x[v], 10.0 * v) for v in range(n)], radios, [0],
                 [a for a, _ in pairs], [b for _, b in pairs], [1.0] * L,
                 ScenarioConfig(name="repair", node_count=n, channels=k), 0)
    m = OverlapMatrix.graded(k) if draw(st.booleans()) else \
        OverlapMatrix.orthogonal(k)
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=L,
                                  max_size=L), min_size=1, max_size=6))
    return make_problem(t, m), np.array(rows, dtype=np.int64)


class TestBatchedRepair:
    """The repair walks only the bound links, each across every
    over-budget row at once; it must equal the link-by-link rebuild of
    one row at a time."""

    @given(repair_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_row_reference(self, case):
        problem, genes = case
        batch = repair_radio_constraint(genes, problem)
        assert batch.shape == genes.shape
        for row, got in zip(genes, batch):
            want = reference_repair(row, problem)
            assert np.array_equal(got, want)
            single = repair_radio_constraint(row, problem)
            assert single.shape == row.shape
            assert np.array_equal(single, want)
            assert (single is row) == (want is row)
            assert_valid(single, problem.t, problem.channels)

    def test_one_radio_forces_stuck_merges(self, monkeypatch):
        # one radio per node on the path 0-1-2-3-4, link ids (0,1), (2,3),
        # (1,2), (3,4): links 0 and 1 are placed first, so link 2 meets two
        # full endpoints whenever they hold different channels. Link 4,
        # (5,6), is free and conflicts with link 2; having a higher id, it
        # must not weigh in the merge's choice of channel.
        t = make_topology([(50.0 * i, 0.0) for i in range(5)]
                          + [(100.0, 60.0), (150.0, 60.0)],
                          link_pairs=[(0, 1), (2, 3), (1, 2), (3, 4), (5, 6)],
                          radios=1, channels=4)
        problem = make_problem(t)
        assert problem.bound_links.tolist() == [True] * 4 + [False]
        merges = []

        def counted(lid, genes, nbrs, problem):
            merges.append(lid)
            _assign_stuck(lid, genes, nbrs, problem)

        monkeypatch.setattr("meshca.assignment._assign_stuck", counted)
        genes = np.array([[0, 1, 2, 3, 0], [3, 2, 2, 1, 1], [2, 2, 3, 2, 3]])
        out = repair_radio_constraint(genes, problem)
        assert merges == [2, 2]  # the third row keeps links 0 and 1 equal
        for row, got in zip(genes, out):
            assert np.array_equal(got, reference_repair(row, problem))
            assert_valid(got, t, 4)
        # one radio: one channel per row on the path, and the merge of
        # row 0 ties channels 0 and 1 on links 0 and 1 alone
        assert out.tolist() == [[0, 0, 0, 0, 0], [2, 2, 2, 2, 1],
                                [2, 2, 2, 2, 3]]

    def test_valid_input_is_returned_as_is(self):
        # one radio per node on a 6-link chain: only one-channel rows fit
        problem = make_problem(clique_topology(6, radios=1, channels=5))
        valid = np.array([[0, 0, 0, 0, 0, 0], [2, 2, 2, 2, 2, 2]])
        assert repair_radio_constraint(valid, problem) is valid
        row = valid[0]
        assert repair_radio_constraint(row, problem) is row
        over = np.array([0, 1, 2, 3, 4, 0])
        out = repair_radio_constraint(over, problem)
        assert out is not over and out.shape == over.shape
        assert over.tolist() == [0, 1, 2, 3, 4, 0]  # the input is kept


class TestMclrReference:
    """MCLR on the repair topologies, whose tight budgets reach its stuck
    merges (no benchmark workload does reliably), must equal the
    link-by-link reference for any schedule."""

    @given(repair_cases(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_mclr_equals_per_link_reference(self, case, data):
        problem, _ = case
        L = problem.t.link_count
        schedule = data.draw(st.permutations(range(L)))
        table = LinkRankTable(np.zeros(L), np.array(schedule, dtype=np.int64))
        got = mclr_assign(problem, table).genes
        assert np.array_equal(got, reference_mclr(problem, schedule))
        assert_valid(got, problem.t, problem.channels)


class TestAssignmentFile:
    def test_round_trip(self, tmp_path):
        a = ChannelAssignment(np.array([0, 2, 1, 1]), 3)
        path = tmp_path / "a.csv"
        save_assignment(a, path, algorithm="fa_scga", seed=99, iterations=17)
        loaded, meta = load_assignment(path)
        assert loaded == a
        assert meta == {"algorithm": "fa_scga", "seed": 99, "iterations": 17}

    def test_out_of_range_channel_names_link(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# channels: 3\nlink_id,channel\n0,0\n1,7\n")
        with pytest.raises(ParseError, match="link 1"):
            load_assignment(path)

    def test_duplicate_link_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# channels: 3\nlink_id,channel\n0,0\n0,1\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_assignment(path)

    def test_missing_channels_header_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("link_id,channel\n0,0\n")
        with pytest.raises(ParseError, match="channels"):
            load_assignment(path)

    @pytest.mark.parametrize("header", ["# channels: three", "# seed: x",
                                        "# seed: -3", "# iterations: 2.5",
                                        "# iterations: -1"])
    def test_non_integer_header_rejected(self, tmp_path, header):
        """A header that is not an integer, or a negative seed (no
        topology can be generated from it) or iteration count, is
        rejected at its line."""
        path = tmp_path / "a.csv"
        path.write_text(f"# channels: 3\n{header}\nlink_id,channel\n0,0\n")
        with pytest.raises(ParseError,
                           match=r"a\.csv:2: .*(not an integer|negative)"):
            load_assignment(path)

    def test_non_contiguous_ids_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# channels: 3\nlink_id,channel\n0,0\n2,1\n")
        with pytest.raises(ParseError, match="contiguous"):
            load_assignment(path)
