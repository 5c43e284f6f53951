import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshca import (
    AllZeroValues,
    ChannelAssignment,
    InvalidRequiredRate,
    Link,
    OverlapMatrix,
    RadioModel,
    actual_link_rate,
    build_conflict_graph,
    fairness_fitness,
    jain_index,
    link_fairness,
    link_snr,
    network_metrics,
)
from conftest import make_topology


def _link(length, required=1.0):
    return Link(id=0, a=0, b=1, length=length, required_rate=required)


class TestLinkSnr:
    def test_hand_evaluated_value(self):
        rm = RadioModel(tss=20, path_loss_exp=2, bandwidth=20, min_distance=10)
        assert link_snr(_link(100.0), 0.0, rm) == pytest.approx(0.5, abs=0)

    def test_interference_halves_snr(self):
        rm = RadioModel()
        base = link_snr(_link(150.0), 0.0, rm)
        assert link_snr(_link(150.0), 1.0, rm) == pytest.approx(base / 2)
        assert link_snr(_link(150.0), 3.0, rm) == pytest.approx(base / 4)

    def test_strictly_decreasing_in_interference(self):
        rm = RadioModel()
        values = [link_snr(_link(80.0), i, rm) for i in np.linspace(0, 40, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_non_increasing_in_length(self):
        rm = RadioModel()
        values = [link_snr(_link(d), 0.5, rm) for d in np.linspace(2, 900, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_short_lengths_clamped(self):
        rm = RadioModel(min_distance=10)
        assert link_snr(_link(10.0), 0.0, rm) == link_snr(_link(5.0), 0.0, rm)


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
    def test_exact_satisfaction(self):
        assert link_fairness(5.0, 5.0) == 1.0

    def test_zero_rate(self):
        assert link_fairness(0.0, 5.0) == 0.0

    def test_overshoot_clamped(self):
        assert link_fairness(10.0, 5.0) == 1.0

    def test_invalid_required_rate(self):
        with pytest.raises(InvalidRequiredRate):
            link_fairness(1.0, 0.0)


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
    def test_batch_equals_rows_bit_for_bit(self, rows):
        batch = jain_index(np.array(rows))
        assert batch.shape == (len(rows),)
        assert batch.tolist() == [jain_index(row) for row in rows]

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
        report = fairness_fitness(a, t, cg, m, RadioModel())
        if report.total_interference == 0.0:
            assert report.fairness_index == 1.0
        assert np.all(report.link_fairness == 1.0)
        assert report.fairness_index == 1.0

    def test_single_link_network_is_always_fair(self):
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)],
                          required=1e9)
        cg = build_conflict_graph(t)
        a = ChannelAssignment(np.array([0]), 3)
        report = fairness_fitness(a, t, cg, OverlapMatrix.orthogonal(3),
                                  RadioModel())
        assert report.link_fairness[0] < 1.0
        assert report.fairness_index == 1.0

    def test_matches_straight_line_recomputation(self):
        # independent oracle: re-derive every quantity step by step with
        # plain math on the 4-link instance
        rm = RadioModel(tss=20, path_loss_exp=2, bandwidth=20, min_distance=10)
        required = [4.0, 6.0, 8.0, 10.0]
        t, cg, m, a = self._setup([0, 1, 1, 0], required=required)
        report = fairness_fitness(a, t, cg, m, rm)

        genes = a.genes.tolist()
        conflict_pairs = {tuple(e) for e in cg.edges}
        fair = []
        for lid, link in enumerate(t.links):
            interference = 0.0
            for other in range(4):
                if other == lid:
                    continue
                if (min(lid, other), max(lid, other)) in conflict_pairs:
                    if genes[other] == genes[lid]:
                        interference += 1.0
            assert report.interference[lid] == pytest.approx(interference)
            snr = 20.0 / (10.0 * 2.0 * (1.0 + interference)
                          * math.log10(max(link.length, 10.0)))
            assert report.snr[lid] == pytest.approx(snr, rel=1e-12)
            rate = 20.0 * math.log2(1.0 + snr)
            assert report.actual_rate[lid] == pytest.approx(rate, rel=1e-12)
            fair.append(min(1.0, rate / required[lid]))
        assert np.allclose(report.link_fairness, fair)
        expected_jain = (sum(fair) ** 2) / (4 * sum(f * f for f in fair))
        assert report.fairness_index == pytest.approx(expected_jain, rel=1e-12)
        assert report.total_interference == pytest.approx(
            float(np.sum(report.interference))
        )

    def test_fairness_drops_when_one_link_interferes_more(self):
        rm = RadioModel()
        required = [5.0, 5.0, 5.0, 5.0]
        t, cg, m, a = self._setup([0, 1, 0, 1], required=required)
        base = fairness_fitness(a, t, cg, m, rm)
        worse = ChannelAssignment(np.array([0, 1, 1, 1]), 2)
        bumped = fairness_fitness(worse, t, cg, m, rm)
        assert bumped.fairness_index <= base.fairness_index


class TestNetworkMetrics:
    def test_perfect_assignment(self):
        t = make_topology(
            [(0, 0), (100, 0), (0, 600), (100, 600)],
            link_pairs=[(0, 1), (2, 3)], interference=514.0,
        )
        cg = build_conflict_graph(t)
        a = ChannelAssignment(np.array([0, 0]), 3)
        met = network_metrics(a, t, cg, OverlapMatrix.orthogonal(3))
        assert met.nc_raw == 2.0
        assert met.nc_norm == 1.0
        assert met.fni == 0.0

    def test_single_channel_network_fni_is_one(self, small_random_topology):
        t = small_random_topology
        cg = build_conflict_graph(t)
        a = ChannelAssignment(np.zeros(t.link_count, dtype=int), 3)
        met = network_metrics(a, t, cg, OverlapMatrix.orthogonal(3))
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
            met = network_metrics(a, t, cg, m)
            interference = np.zeros(6)
            conflicted = 0
            for x, y in cg.edges:
                if genes[x] == genes[y]:
                    interference[x] += 1
                    interference[y] += 1
                    conflicted += 1
            assert np.allclose(met.link_capacity, 1.0 / (1.0 + interference))
            assert met.nc_raw == pytest.approx((1.0 / (1.0 + interference)).sum())
            assert met.nc_norm == pytest.approx(met.nc_raw / 6)
            assert met.fni == pytest.approx(conflicted / cg.edge_count)

    def test_empty_conflict_graph_reports_zero_fni(self):
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)])
        cg = build_conflict_graph(t)
        a = ChannelAssignment(np.array([0]), 3)
        met = network_metrics(a, t, cg, OverlapMatrix.orthogonal(3))
        assert met.fni == 0.0
        assert met.nc_raw == 1.0

    def test_nc_bounded_by_link_count(self, small_random_topology):
        t = small_random_topology
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = ChannelAssignment(rng.integers(3, size=t.link_count), 3)
            met = network_metrics(a, t, cg, m)
            assert met.nc_raw <= t.link_count
