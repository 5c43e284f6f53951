import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meshca import AllZeroValues, InvalidRequiredRate
from meshca.assignment import (ChannelAssignment, OverlapMatrix,
                               interference_matrix)
from meshca.config import RadioModel
from meshca.fitness import (_batch_link_fairness, _link_fairness, _snr_values,
                            actual_link_rate, evaluate, jain_index)
from meshca.ga import Problem
from meshca.topology import build_conflict_graph, load_topology, save_topology
from conftest import line_topology, make_problem, make_topology


def link_snr(length, interference, rm):
    """The SNR of one link, through the kernel that scores every link."""
    return float(_snr_values(length, interference, rm))


class TestLinkSnr:
    def test_hand_evaluated_value(self):
        rm = RadioModel(tss=20, path_loss_exp=2, bandwidth=20, min_distance=10)
        assert link_snr(100.0, 0.0, rm) == pytest.approx(0.5, abs=0)
        # the same value comes out of a whole-chromosome evaluation
        problem = make_problem(line_topology(n=2), rm=rm)
        report = evaluate(problem, np.array([0]))
        snr = _snr_values(problem.t.lengths, report.interference, rm)
        assert snr[0] == link_snr(100.0, 0.0, rm)

    def test_interference_halves_snr(self):
        rm = RadioModel()
        base = link_snr(150.0, 0.0, rm)
        assert link_snr(150.0, 1.0, rm) == pytest.approx(base / 2)
        assert link_snr(150.0, 3.0, rm) == pytest.approx(base / 4)

    def test_strictly_decreasing_in_interference(self):
        rm = RadioModel()
        values = [link_snr(80.0, i, rm) for i in np.linspace(0, 40, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_non_increasing_in_length(self):
        rm = RadioModel()
        values = [link_snr(d, 0.5, rm) for d in np.linspace(2, 900, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_short_lengths_clamped(self):
        rm = RadioModel(min_distance=10)
        assert link_snr(10.0, 0.0, rm) == link_snr(5.0, 0.0, rm)


class TestActualLinkRate:
    def test_zero_snr_gives_zero(self):
        assert actual_link_rate(0.0, RadioModel()) == 0.0

    def test_unit_snr_unit_bandwidth(self):
        assert actual_link_rate(1.0, RadioModel(bandwidth=1.0)) == 1.0

    def test_cross_checked_against_math_log2(self):
        rm = RadioModel(bandwidth=20.0)
        assert actual_link_rate(0.5, rm) == pytest.approx(
            20.0 * math.log2(1.5), rel=1e-15
        )
        assert actual_link_rate(0.5, rm) == pytest.approx(11.699250014, rel=1e-9)


class TestLinkFairness:
    """Link fairness is the achieved fraction of the required rate,
    clamped to 1; checked on a single interference-free link whose
    required rate is set against its achieved rate."""

    @staticmethod
    def single_link_report(required):
        t = line_topology(n=2, required=required)
        return evaluate(make_problem(t), np.array([0]))

    def rate(self):
        """The link's achieved rate, from its evaluated interference."""
        t = line_topology(n=2, required=1.0)
        report = evaluate(make_problem(t), np.array([0]))
        rm = RadioModel()
        snr = _snr_values(t.lengths, report.interference, rm)
        return actual_link_rate(snr, rm)[0]

    def test_exact_satisfaction(self):
        rate = self.rate()
        assert self.single_link_report(rate).link_fairness[0] == 1.0

    def test_zero_rate(self):
        # the rate model never gives exactly zero: a rate negligible
        # against the requirement gives a fairness of almost zero
        rate = self.rate()
        report = self.single_link_report(rate * 1e12)
        assert report.link_fairness[0] == rate / (rate * 1e12)
        assert 0.0 < report.link_fairness[0] < 1e-11

    def test_overshoot_clamped(self):
        rate = self.rate()
        assert self.single_link_report(rate / 2).link_fairness[0] == 1.0
        assert self.single_link_report(rate * 2).link_fairness[0] == 0.5

    def test_invalid_required_rate(self, tmp_path):
        path = tmp_path / "t.json"
        save_topology(line_topology(n=2, required=0.0), path)
        with pytest.raises(InvalidRequiredRate):
            load_topology(path)


class TestJainIndex:
    def test_equal_allocation_is_exactly_one(self):
        for c in (0.1, 1.0, 3.7, 1e-9):
            for n in (1, 2, 3, 7, 100):
                assert jain_index([c] * n) == 1.0

    def test_single_user_gives_one_over_n(self):
        assert jain_index([1, 0, 0, 0]) == 0.25
        for n in (2, 5, 13):
            assert jain_index([1.0] + [0.0] * (n - 1)) == 1.0 / n

    def test_direct_arithmetic(self):
        assert jain_index([0.5, 1.0]) == pytest.approx(0.9, abs=1e-15)

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroValues):
            jain_index([0.0, 0.0])

    # zero or values that stay normal floats after scaling by k >= 1e-6:
    # a subnormal such as 5e-324 scales to 0.0 and the scaled vector
    # would be all zero
    @given(st.lists(st.just(0.0) | st.floats(1e-290, 1e6), min_size=1,
                    max_size=40),
           st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    # all but equal: unclamped, rounding gave 1.0000000000000002 for both
    @example([3.0, 3.0000000000000004, 3.0], 1.0)
    @example([1e-290, 1.0000000000000002e-290], 1.0)
    def test_scale_invariance_and_bounds(self, values, k):
        if max(values) == 0.0:
            return
        j = jain_index(values)
        assert 0.0 < j <= 1.0
        assert jain_index([k * v for v in values]) == pytest.approx(j, abs=1e-12)

    def test_one_iff_all_equal(self):
        assert jain_index([2.0, 2.0, 2.0]) == 1.0
        assert jain_index([2.0, 2.0, 2.0001]) < 1.0

    @given(st.integers(1, 30).flatmap(lambda n: st.lists(
        st.lists(st.just(0.0) | st.floats(1e-290, 1e6), min_size=n,
                 max_size=n).filter(lambda row: max(row) > 0.0),
        min_size=1, max_size=8)))
    @settings(max_examples=200, deadline=None)
    @example([[3.0, 3.0000000000000004, 3.0], [3.0, 3.0, 3.0]])
    def test_batch_equals_rows_bit_for_bit(self, rows):
        batch = jain_index(np.array(rows))
        assert batch.shape == (len(rows),)
        assert batch.tolist() == [jain_index(row) for row in rows]
        assert ((0.0 < batch) & (batch <= 1.0)).all()

    def test_batch_with_an_all_zero_row_raises(self):
        with pytest.raises(AllZeroValues):
            jain_index(np.array([[1.0, 0.5], [0.0, 0.0]]))


class TestFairnessFitness:
    def _setup(self, genes, channels=2, required=None):
        t = make_topology(
            [(0.0, 0.0), (120.0, 0.0), (240.0, 0.0), (240.0, 120.0),
             (360.0, 120.0)],
            link_pairs=[(0, 1), (1, 2), (2, 3), (3, 4)],
            channels=channels,
            required=required,
        )
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(channels)
        a = ChannelAssignment(np.array(genes), channels)
        return t, cg, m, a

    def test_zero_interference_generous_rates_give_one(self):
        t, cg, m, a = self._setup([0, 1, 0, 1], required=0.001)
        report = evaluate(Problem(t, cg, m, RadioModel()), a.genes)
        if report.interference.sum() == 0.0:
            assert report.fairness_index == 1.0
        assert np.all(report.link_fairness == 1.0)
        assert report.fairness_index == 1.0

    def test_single_link_network_is_always_fair(self):
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)],
                          required=1e9)
        cg = build_conflict_graph(t)
        a = ChannelAssignment(np.array([0]), 3)
        report = evaluate(make_problem(t), a.genes)
        assert report.link_fairness[0] < 1.0
        assert report.fairness_index == 1.0

    def test_matches_straight_line_recomputation(self):
        # independent oracle: re-derive every quantity step by step with
        # plain math on the 4-link instance
        rm = RadioModel(tss=20, path_loss_exp=2, bandwidth=20, min_distance=10)
        required = [4.0, 6.0, 8.0, 10.0]
        t, cg, m, a = self._setup([0, 1, 1, 0], required=required)
        report = evaluate(Problem(t, cg, m, rm), a.genes)

        genes = a.genes.tolist()
        conflict_pairs = {tuple(e) for e in cg.edges}
        fair = []
        total_interference = 0.0
        snrs = _snr_values(t.lengths, report.interference, rm)
        rates = actual_link_rate(snrs, rm)
        for lid, length in enumerate(t.lengths):
            interference = 0.0
            for other in range(4):
                if other == lid:
                    continue
                if (min(lid, other), max(lid, other)) in conflict_pairs:
                    if genes[other] == genes[lid]:
                        interference += 1.0
            assert report.interference[lid] == pytest.approx(interference)
            total_interference += interference
            snr = 20.0 / (10.0 * 2.0 * (1.0 + interference)
                          * math.log10(max(length, 10.0)))
            assert snrs[lid] == pytest.approx(snr, rel=1e-12)
            rate = 20.0 * math.log2(1.0 + snr)
            assert rates[lid] == pytest.approx(rate, rel=1e-12)
            fair.append(min(1.0, rate / required[lid]))
        assert np.allclose(report.link_fairness, fair)
        expected_jain = (sum(fair) ** 2) / (4 * sum(f * f for f in fair))
        assert report.fairness_index == pytest.approx(expected_jain, rel=1e-12)
        assert report.interference.sum() == pytest.approx(total_interference)

    def test_fairness_drops_when_one_link_interferes_more(self):
        rm = RadioModel()
        required = [5.0, 5.0, 5.0, 5.0]
        t, cg, m, a = self._setup([0, 1, 0, 1], required=required)
        base = evaluate(Problem(t, cg, m, rm), a.genes)
        worse = ChannelAssignment(np.array([0, 1, 1, 1]), 2)
        bumped = evaluate(Problem(t, cg, m, rm), worse.genes)
        assert bumped.fairness_index <= base.fairness_index


@st.composite
def orthogonal_cases(draw):
    """A random problem on 1-5 orthogonal channels, with its own radio
    model, 2-8 nodes anywhere in an 800 m square, any links and required
    rates, and a (P, L) batch of genes whose row 0 puts every link on
    channel 0."""
    n = draw(st.integers(2, 8))
    coord = st.floats(0.0, 800.0)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n,
                              max_size=n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    link_pairs = draw(st.lists(st.sampled_from(pairs), min_size=1,
                               max_size=len(pairs), unique=True))
    L = len(link_pairs)
    required = draw(st.lists(st.floats(1e-3, 100.0), min_size=L, max_size=L))
    k = draw(st.integers(1, 5))
    t = make_topology(positions, link_pairs, channels=k, required=required,
                      interference=draw(st.floats(253.0, 1200.0)))
    rm = RadioModel(tss=draw(st.floats(0.1, 100.0)),
                    path_loss_exp=draw(st.floats(1.0, 6.0)),
                    bandwidth=draw(st.floats(0.1, 100.0)),
                    min_distance=draw(st.floats(1.01, 50.0)))
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=L,
                                  max_size=L), max_size=5))
    genes = np.array([[0] * L] + rows, dtype=np.int64)
    return Problem(t, build_conflict_graph(t), OverlapMatrix.orthogonal(k),
                   rm), genes


class TestFairnessTable:
    """Orthogonal batches read their fairness off ``Problem.fairness_table``;
    graded ones run the formula, which the table must match bit for bit."""

    @given(orthogonal_cases())
    @settings(max_examples=200, deadline=None)
    def test_table_equals_formula_bit_for_bit(self, case):
        problem, genes = case
        t = problem.t
        interference = interference_matrix(genes, problem.cg, problem.m)
        formula = _link_fairness(interference, problem)
        got_interference, got = _batch_link_fairness(genes, problem)
        assert np.array_equal(got_interference, interference)
        assert np.array_equal(got, formula)
        for row, want in zip(genes, formula):
            assert np.array_equal(_batch_link_fairness(row, problem)[1], want)
        # one channel for every link: each count is the link's conflict
        # degree, and its fairness the last entry of its table row
        table, start = problem.fairness_table
        degree = np.array([len(nbrs) for nbrs in problem.cg.neighbors])
        assert np.array_equal(interference[0], degree)
        last = np.append(start[1:], len(table)) - 1
        assert np.array_equal(got[0], table[last])
        assert len(table) == t.link_count + 2 * problem.cg.edge_count

    def test_graded_overlap_runs_the_formula(self):
        t = line_topology(n=5, channels=4, required=[3.0, 5.0, 7.0, 9.0])
        problem = make_problem(t, m=OverlapMatrix.graded(4, span=2))
        genes = np.array([[0, 1, 2, 3], [0, 0, 1, 1], [3, 2, 2, 3]])
        interference, fairness = _batch_link_fairness(genes, problem)
        assert (interference % 1 != 0).any()  # counts the table cannot hold
        assert np.array_equal(fairness, _link_fairness(interference, problem))
        assert "fairness_table" not in vars(problem)


class TestNetworkMetrics:
    def test_perfect_assignment(self):
        t = make_topology(
            [(0, 0), (100, 0), (0, 600), (100, 600)],
            link_pairs=[(0, 1), (2, 3)], interference=514.0,
        )
        cg = build_conflict_graph(t)
        a = ChannelAssignment(np.array([0, 0]), 3)
        met = evaluate(make_problem(t), a.genes)
        assert met.nc_raw == 2.0
        assert met.nc_norm == 1.0
        assert met.fni == 0.0

    def test_single_channel_network_fni_is_one(self, small_random_topology):
        t = small_random_topology
        cg = build_conflict_graph(t)
        a = ChannelAssignment(np.zeros(t.link_count, dtype=int), 3)
        met = evaluate(make_problem(t), a.genes)
        assert met.fni == 1.0

    def test_matches_edge_by_edge_oracle(self):
        t = make_topology(
            [(i * 60.0, 0.0) for i in range(7)],
            link_pairs=[(i, i + 1) for i in range(6)],
        )
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(3)
        rng = np.random.default_rng(11)
        for _ in range(20):
            genes = rng.integers(3, size=6)
            a = ChannelAssignment(genes, 3)
            met = evaluate(Problem(t, cg, m, RadioModel()), a.genes)
            interference = np.zeros(6)
            conflicted = 0
            for x, y in cg.edges:
                if genes[x] == genes[y]:
                    interference[x] += 1
                    interference[y] += 1
                    conflicted += 1
            assert met.interference.tolist() == interference.tolist()
            assert met.nc_raw == pytest.approx((1.0 / (1.0 + interference)).sum())
            assert met.nc_norm == pytest.approx(met.nc_raw / 6)
            assert met.fni == pytest.approx(conflicted / cg.edge_count)

    def test_empty_conflict_graph_reports_zero_fni(self):
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)])
        cg = build_conflict_graph(t)
        a = ChannelAssignment(np.array([0]), 3)
        met = evaluate(make_problem(t), a.genes)
        assert met.fni == 0.0
        assert met.nc_raw == 1.0

    def test_nc_bounded_by_link_count(self, small_random_topology):
        t = small_random_topology
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = ChannelAssignment(rng.integers(3, size=t.link_count), 3)
            met = evaluate(Problem(t, cg, m, RadioModel()), a.genes)
            assert met.nc_raw <= t.link_count
