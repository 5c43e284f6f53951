import csv
import hashlib
import math
import os
import pickle
import tempfile
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from meshca import (
    ALGORITHMS,
    GaConfig,
    InconsistentInputs,
    InvalidConfig,
    NonFiniteMetric,
    ParseError,
    ScenarioConfig,
    SearchSpaceTooLarge,
)
import meshca.ga
import meshca.harness
from meshca.assignment import (
    ChannelAssignment,
    OverlapMatrix,
    save_assignment,
    within_budget,
)
from meshca.cli import main
from meshca.config import RadioModel
from meshca.fitness import FitnessReport, evaluate
from meshca.ga import Problem, run
from meshca.harness import (
    RESULTS_HEADER,
    MetricsRecord,
    _one_blas_thread,
    aggregate_records,
    brute_force_optimum,
    build_record,
    evaluate_file,
    problem_for,
    replicate_seed,
    run_replicate,
    run_row,
    run_sweep,
)
from meshca.topology import build_conflict_graph, generate_topology, save_topology
from conftest import (assert_valid, make_topology, reference_brute_force,
                      reference_radio_violations)


def tiny_scenario(name="tiny", replicates=1, master_seed=0, nodes=8):
    return ScenarioConfig(
        name=name,
        node_count=nodes,
        area_w=500.0,
        area_h=500.0,
        topologies_per_scenario=replicates,
        master_seed=master_seed,
    )


def results_rows(path):
    """``path/results.csv`` as lists of strings, header first."""
    with open(path / "results.csv", newline="") as fh:
        return list(csv.reader(fh))


def csv_rows(records):
    """The results.csv rows, header first, that ``records`` write."""
    return [RESULTS_HEADER] + [r.to_csv_row() for r in records]


def rows_but_wall_ms(path):
    """The lines of ``path/results.csv`` with the last column, ``wall_ms``,
    dropped."""
    lines = (path / "results.csv").read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestBruteForce:
    def test_single_link_three_channels(self):
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)],
                          required=0.01)
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(3)
        result = brute_force_optimum(t, cg, m, RadioModel(), 3)
        # the three single-link assignments are one channel relabelling
        assert result.candidates == 1
        assert result.fitness == 1.0

    def test_single_link_three_graded_channels(self):
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)],
                          required=0.01)
        cg = build_conflict_graph(t)
        m = OverlapMatrix.graded(3)
        result = brute_force_optimum(t, cg, m, RadioModel(), 3)
        assert result.candidates == 3
        assert result.fitness == 1.0

    def test_triangle_three_colorable(self):
        t = make_topology(
            [(0, 0), (80, 0), (40, 70)],
            link_pairs=[(0, 1), (1, 2), (0, 2)],
        )
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(3)
        result = brute_force_optimum(t, cg, m, RadioModel(), 3,
                                     fitness_kind="interference")
        assert result.fitness == 0.0

    def test_guard_trips(self):
        t = make_topology(
            [(i * 60.0, 0.0) for i in range(17)],
            link_pairs=[(i, i + 1) for i in range(16)],
        )
        cg = build_conflict_graph(t)
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_optimum(t, cg, OverlapMatrix.orthogonal(3),
                                RadioModel(), 3)

    def test_matches_independent_enumeration_order(self):
        # second oracle: enumerate in reversed order with plain python
        t = make_topology(
            [(i * 55.0, 0.0) for i in range(6)],
            link_pairs=[(i, i + 1) for i in range(5)],
            required=[3.0, 5.0, 4.0, 6.0, 2.0],
        )
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(3)
        rm = RadioModel()
        result = brute_force_optimum(t, cg, m, rm, 3)

        problem = Problem(t, cg, m, rm)
        best = -1.0
        for genes in sorted(product(range(3), repeat=5), reverse=True):
            value = evaluate(problem, np.array(genes)).fairness_index
            if value > best:
                best = value
        assert result.fitness == pytest.approx(best, abs=1e-12)

    def test_respects_radio_constraint(self):
        t = make_topology(
            [(i * 55.0, 0.0) for i in range(6)],
            link_pairs=[(i, i + 1) for i in range(5)],
            radios=1,
        )
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(3)
        result = brute_force_optimum(t, cg, m, RadioModel(), 3)
        assert_valid(result.assignment.genes, t, 3)
        # with one radio per node a connected chain must share one channel;
        # the three such assignments are one channel relabelling
        assert len(set(result.assignment.genes.tolist())) == 1
        assert result.feasible == 1

    def test_respects_radio_constraint_graded(self):
        t = make_topology(
            [(i * 55.0, 0.0) for i in range(6)],
            link_pairs=[(i, i + 1) for i in range(5)],
            radios=1,
        )
        cg = build_conflict_graph(t)
        result = brute_force_optimum(t, cg, OverlapMatrix.graded(3),
                                     RadioModel(), 3)
        assert_valid(result.assignment.genes, t, 3)
        assert len(set(result.assignment.genes.tolist())) == 1
        assert result.feasible == 3

    @pytest.mark.parametrize("channels", [2, 4])
    def test_channel_count_must_match_overlap(self, channels):
        t = make_topology([(0, 0), (100, 0)], link_pairs=[(0, 1)])
        with pytest.raises(InconsistentInputs):
            brute_force_optimum(t, build_conflict_graph(t),
                                OverlapMatrix.orthogonal(3), RadioModel(),
                                channels)


def stirling2(n, k):
    """Partitions of n labelled items into k non-empty blocks."""
    return sum((-1) ** (k - j) * math.comb(k, j) * j ** n
               for j in range(k + 1)) // math.factorial(k)


@st.composite
def oracle_instances(draw):
    """A random tree of 1-9 links in a 700 m square (so some link pairs
    do not conflict), 1-5 channels with at most 3^9 assignments, 1-3
    radios (so budgets bind), random required rates, orthogonal or
    graded overlap."""
    channels = draw(st.integers(1, 5))
    links = 1
    while links < 9 and channels ** (links + 1) <= 3 ** 9:
        links += 1  # keeps the reference enumeration small
    n = 1 + draw(st.integers(1, links))
    positions = draw(st.lists(
        st.tuples(st.floats(0.0, 700.0), st.floats(0.0, 700.0)),
        min_size=n, max_size=n))
    pairs = [(draw(st.integers(0, b - 1)), b) for b in range(1, n)]
    t = make_topology(
        positions, link_pairs=pairs, radios=draw(st.integers(1, 3)),
        channels=channels, area=800.0,
        required=draw(st.lists(st.sampled_from([0.5, 2.0, 4.0, 8.0]),
                               min_size=n - 1, max_size=n - 1)))
    if draw(st.booleans()):
        m = OverlapMatrix.graded(channels, span=draw(st.integers(2, 5)))
    else:
        m = OverlapMatrix.orthogonal(channels)
    return t, m


class TestOracleEquivalence:
    @given(oracle_instances(), st.sampled_from(["fairness", "interference"]),
           st.sampled_from([7, meshca.harness._CHUNK]))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_enumeration(self, instance, fitness_kind, chunk):
        # a 7-row chunk puts ties and tail tables across chunk boundaries
        t, m = instance
        channels = m.channel_count
        cg = build_conflict_graph(t)
        with patch.object(meshca.harness, "_CHUNK", chunk):
            got = brute_force_optimum(t, cg, m, RadioModel(), channels,
                                      fitness_kind=fitness_kind)
        want = reference_brute_force(t, cg, m, RadioModel(), channels,
                                     fitness_kind=fitness_kind)
        assert got.assignment.genes.tolist() == want.assignment.genes.tolist()
        assert got.fitness == want.fitness
        if np.array_equal(m.ratio, np.eye(channels)):
            L = t.link_count
            assert got.candidates == sum(stirling2(L, j)
                                         for j in range(1, channels + 1))
            assert got.feasible <= want.feasible
        else:
            assert (got.candidates, got.feasible) == (want.candidates,
                                                      want.feasible)


class TestOracleBlocks:
    @pytest.mark.parametrize("chunk", [7, 64])
    @pytest.mark.parametrize("links,channels",
                             [(1, 1), (3, 1), (1, 4), (4, 2), (5, 3), (4, 4),
                              (3, 5)])
    def test_blocks_are_bounded_and_concatenate_to_the_enumeration(
            self, chunk, links, channels):
        every = [list(g) for g in product(range(channels), repeat=links)]
        restricted = [g for g in every
                      if all(c <= 1 + max(g[:i], default=-1)
                             for i, c in enumerate(g))]
        with patch.object(meshca.harness, "_CHUNK", chunk):
            for blocks, want in (
                    (meshca.harness._all_assignments, every),
                    (meshca.harness._relabelling_representatives,
                     restricted)):
                got = list(blocks(links, channels))
                assert all(len(block) <= chunk for block in got)
                assert np.concatenate(got).tolist() == want

    @pytest.mark.parametrize("links,m", [(12, OverlapMatrix.orthogonal(3)),
                                         (11, OverlapMatrix.graded(3))],
                             ids=["orthogonal-12", "graded-11"])
    def test_working_set_is_a_few_mb(self, links, m):
        """Scoring in bounded blocks keeps the oracle's peak allocation
        well below the size of its search space (88,574 representatives
        and 177,147 assignments here)."""
        t = make_topology([(i * 55.0, 0.0) for i in range(links + 1)],
                          link_pairs=[(i, i + 1) for i in range(links)])
        cg = build_conflict_graph(t)
        tracemalloc.start()
        try:
            brute_force_optimum(t, cg, m, RadioModel(), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20


@st.composite
def oracle_scenarios(draw):
    """4-7 nodes at the paper's density (at most 10 links), 2-4 channels,
    1-3 radios, orthogonal or graded overlap."""
    n = draw(st.integers(4, 7))
    side = round(1000.0 * math.sqrt(n / 94.0), 1)
    return ScenarioConfig(
        name="oracle", node_count=n, area_w=side, area_h=side,
        channels=draw(st.integers(2, 4)), radios=draw(st.integers(1, 3)),
        overlap_kind=draw(st.sampled_from(["orthogonal", "graded"])),
        topologies_per_scenario=1)


class TestOracleBeatsEveryAlgorithm:
    @given(oracle_scenarios(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_oracle_fitness_bounds_every_row(self, cfg, seed):
        t = generate_topology(cfg, seed)
        assume(t.link_count <= 10)
        p = problem_for(t)
        oracle = brute_force_optimum(t, p.cg, p.m, p.rm, p.channels)
        assert within_budget(oracle.assignment.genes, p)
        ga = GaConfig(population_size=8, max_iterations=5)
        for record, _ in run_replicate(cfg, seed, list(ALGORITHMS), ga):
            assert oracle.fitness >= record.fairness_index - 1e-12


class TestSweep:
    def test_counting_contract_single(self, tmp_path):
        records = run_sweep([tiny_scenario()], ["mclr"], tmp_path)
        assert len(records) == 1
        agg = (tmp_path / "aggregates.csv").read_text().strip().splitlines()
        assert len(agg) == 2  # header + one aggregate row

    def test_counting_contract_grid(self, tmp_path):
        scenarios = [tiny_scenario(f"s{i}", replicates=2, master_seed=i)
                     for i in range(3)]
        ga = GaConfig(population_size=6, max_iterations=3)
        records = run_sweep(scenarios, ["mclr", "fa_scga"], tmp_path, ga=ga)
        assert len(records) == 3 * 2 * 2
        rows = results_rows(tmp_path)
        assert len(rows) == 1 + 12
        assert rows == csv_rows(records)

    def test_rerun_is_bit_identical_except_wall_time(self, tmp_path):
        scenarios = [tiny_scenario("s", replicates=2, master_seed=3)]
        ga = GaConfig(population_size=6, max_iterations=3)
        run_sweep(scenarios, ["mclr", "fa_scga"], tmp_path / "a", ga=ga)
        run_sweep(scenarios, ["mclr", "fa_scga"], tmp_path / "b", ga=ga)

        assert (rows_but_wall_ms(tmp_path / "a")
                == rows_but_wall_ms(tmp_path / "b"))
        assert ((tmp_path / "a" / "aggregates.csv").read_text()
                == (tmp_path / "b" / "aggregates.csv").read_text())

    def test_parallel_matches_serial(self, tmp_path):
        scenarios = [tiny_scenario(f"s{i}", replicates=2, master_seed=i)
                     for i in range(2)]
        ga = GaConfig(population_size=6, max_iterations=3)
        run_sweep(scenarios, ["mclr", "ia_ga"], tmp_path / "serial", ga=ga,
                  workers=1)
        run_sweep(scenarios, ["mclr", "ia_ga"], tmp_path / "par", ga=ga,
                  workers=3)

        assert (rows_but_wall_ms(tmp_path / "serial")
                == rows_but_wall_ms(tmp_path / "par"))

    def test_parallel_matches_serial_under_graded_overlap(self, tmp_path):
        # the radio budget binds on both topologies of "bound"
        scenarios = [
            ScenarioConfig(name="graded", node_count=10, area_w=500.0,
                           area_h=500.0, channels=11, overlap_kind="graded",
                           topologies_per_scenario=2, master_seed=4),
            ScenarioConfig(name="bound", node_count=10, area_w=500.0,
                           area_h=500.0, channels=6, radios=2,
                           overlap_kind="graded", topologies_per_scenario=2,
                           master_seed=5),
        ]
        ga = GaConfig(population_size=6, max_iterations=3)
        run_sweep(scenarios, list(ALGORITHMS), tmp_path / "serial", ga=ga,
                  workers=1)
        run_sweep(scenarios, list(ALGORITHMS), tmp_path / "par", ga=ga,
                  workers=3)

        serial = rows_but_wall_ms(tmp_path / "serial")
        assert len(serial) == 1 + 2 * 2 * len(ALGORITHMS)
        assert serial == rows_but_wall_ms(tmp_path / "par")

    def test_pool_workers_get_one_blas_thread(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        before = dict(os.environ)
        with _one_blas_thread():
            assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
            assert os.environ["OMP_NUM_THREADS"] == "2"  # the user's
        assert dict(os.environ) == before
        run_sweep([tiny_scenario("env", replicates=2)], ["mclr"], tmp_path,
                  workers=2)
        assert dict(os.environ) == before

    def test_spawned_pool_round_trips_configs(self, tmp_path):
        # A worker unpickles its configs without calling __init__, so
        # __post_init__ does not run there. That is safe: pickling copies
        # a record the parent built, and so checked, field for field.
        s = replace(tiny_scenario("rt", replicates=2, master_seed=7),
                    rate_lo=0.6, radio_model=RadioModel(tss=25.0,
                                                        path_loss_exp=2.5))
        ga = GaConfig(population_size=6, max_iterations=3, mutation_prob=0.3)
        assert pickle.loads(pickle.dumps((s, ga))) == (s, ga)
        run_sweep([s], ["mclr", "fa_scga"], tmp_path / "serial", ga=ga,
                  workers=1)
        run_sweep([s], ["mclr", "fa_scga"], tmp_path / "pool", ga=ga,
                  workers=2)
        assert (rows_but_wall_ms(tmp_path / "serial")
                == rows_but_wall_ms(tmp_path / "pool"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_config_listed_twice_is_two_scenarios(self, tmp_path,
                                                      workers):
        s = tiny_scenario("twice", replicates=2, master_seed=3)
        seeds = [[replicate_seed(s.master_seed, i, r) for r in range(2)]
                 for i in range(2)]
        want = sorted(seeds[0]) + sorted(seeds[1])
        assert want != sorted(want)  # merging the two would reorder rows
        records = run_sweep([s, s], ["mclr", "fa_scga"], tmp_path,
                            ga=GaConfig(population_size=6, max_iterations=2),
                            workers=workers)
        assert [r.seed for r in records] == [x for x in want for _ in "ab"]
        assert results_rows(tmp_path) == csv_rows(records)

    def test_different_configs_of_one_name_rejected(self, tmp_path):
        """Their rows would merge into one aggregate row, averaging an
        8-node and a 12-node scenario as two replicates of one."""
        scenarios = [tiny_scenario("same"), tiny_scenario("same", nodes=12)]
        with pytest.raises(InvalidConfig, match="'same'"):
            run_sweep(scenarios, ["mclr"], tmp_path)
        assert not (tmp_path / "results.csv").exists()

    # 10**30 overflowed the pool's C int; 65 is one past MAX_WORKERS
    @pytest.mark.parametrize("workers", [0, -3, 1.5, True, "2", 65, 10 ** 30])
    def test_bad_worker_count_rejected(self, tmp_path, workers):
        with pytest.raises(InvalidConfig, match="workers"):
            run_sweep([tiny_scenario()], ["mclr"], tmp_path, workers=workers)
        assert not (tmp_path / "results.csv").exists()

    def test_rows_reparse_to_equal_records(self, tmp_path):
        records = run_sweep([tiny_scenario(replicates=2)], ["mclr"], tmp_path)
        assert results_rows(tmp_path) == csv_rows(records)

    def test_aggregates_are_replicate_means(self, tmp_path):
        records = run_sweep([tiny_scenario(replicates=3)], ["mclr"], tmp_path)
        rows = aggregate_records(records)
        assert len(rows) == 1
        assert rows[0]["replicates"] == 3
        assert rows[0]["nc_norm"] == pytest.approx(
            np.mean([r.nc_norm for r in records])
        )
        assert rows[0]["fni"] == pytest.approx(
            np.mean([r.fni for r in records])
        )

    def test_metrics_within_documented_ranges(self, tmp_path):
        ga = GaConfig(population_size=6, max_iterations=5)
        records = run_sweep(
            [tiny_scenario(replicates=2)],
            ["mclr", "ia_ga", "scga", "fa_scga"],
            tmp_path, ga=ga,
        )
        for r in records:
            assert 0.0 <= r.fni <= 1.0
            assert 0.0 < r.fairness_index <= 1.0
            assert 0.0 <= r.nc_norm <= 1.0
            assert r.nc_raw <= r.links
            assert 0.0 <= r.mean_link_fair <= 1.0
            assert r.mean_link_intf >= 0.0
            assert r.iterations >= 0

    def test_writes_only_results_and_aggregates(self, tmp_path):
        run_sweep([tiny_scenario()], ["mclr"], tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == {"results.csv",
                                                        "aggregates.csv"}

    def test_replicate_ranks_nodes_once(self, monkeypatch):
        calls = []
        score_nodes = meshca.ga.score_nodes
        monkeypatch.setattr(meshca.ga, "score_nodes",
                            lambda t: calls.append(t) or score_nodes(t))
        run_replicate(tiny_scenario(), 3, ["mclr", "ia_ga", "scga", "fa_scga"],
                      GaConfig(population_size=6, max_iterations=2))
        assert len(calls) == 1

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig, match="master_seed"):
            run_sweep([tiny_scenario(master_seed=-1)], ["mclr"], tmp_path)
        assert not (tmp_path / "results.csv").exists()
        problem = problem_for(generate_topology(tiny_scenario(), 3))
        with pytest.raises(InvalidConfig, match="seed"):
            run_row(problem, "mclr", GaConfig(), -5)

    def test_replicate_seed_is_stable(self):
        assert replicate_seed(0, 0, 0) == replicate_seed(0, 0, 0)
        assert replicate_seed(0, 0, 0) != replicate_seed(0, 0, 1)
        assert replicate_seed(0, 1, 0) != replicate_seed(1, 0, 0)


class TestEvaluateFile:
    def _write_pair(self, tmp_path, genes=None, algorithm="fa_scga"):
        cfg = tiny_scenario()
        t = generate_topology(cfg, seed=replicate_seed(0, 0, 0))
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(cfg.channels)
        topo_path = tmp_path / "t.json"
        save_topology(t, topo_path)
        if genes is None:
            result = run(algorithm, Problem(t, cg, m, cfg.radio_model),
                         GaConfig(population_size=6, max_iterations=3),
                         seed=1)
            a = result.best.assignment
        else:
            a = ChannelAssignment(np.asarray(genes), cfg.channels)
        assign_path = tmp_path / "a.csv"
        save_assignment(a, assign_path, algorithm=algorithm, seed=1)
        return t, cg, m, a, topo_path, assign_path

    def test_round_trip_metrics_match(self, tmp_path):
        t, cg, m, a, topo_path, assign_path = self._write_pair(tmp_path)
        record = evaluate_file(topo_path, assign_path)
        report = evaluate(Problem(t, cg, m, t.params.radio_model), a.genes)
        assert record.fairness_index == report.fairness_index
        assert record.nc_raw == report.nc_raw
        assert record.fni == report.fni
        assert record.algorithm == "fa_scga"

    def test_all_common_channel_file_has_fni_one(self, tmp_path):
        cfg = tiny_scenario()
        t = generate_topology(cfg, seed=replicate_seed(0, 0, 0))
        topo_path = tmp_path / "t.json"
        save_topology(t, topo_path)
        assign_path = tmp_path / "a.csv"
        all_common = ChannelAssignment(
            np.zeros(t.link_count, dtype=int), cfg.channels
        )
        save_assignment(all_common, assign_path, algorithm="handmade")
        record = evaluate_file(topo_path, assign_path)
        assert record.fni == 1.0
        assert record.algorithm == "handmade"

    def test_out_of_range_channel_raises(self, tmp_path):
        t, cg, m, a, topo_path, assign_path = self._write_pair(tmp_path)
        bad = assign_path.read_text().replace("# channels: 3",
                                              "# channels: 2")
        assign_path.write_text(bad)
        has_high = (a.genes >= 2).any()
        if has_high:
            with pytest.raises(ParseError):
                evaluate_file(topo_path, assign_path)

    def test_inconsistent_link_count_raises(self, tmp_path):
        t, cg, m, a, topo_path, assign_path = self._write_pair(tmp_path)
        short = ChannelAssignment(a.genes[:-1], a.channel_count)
        save_assignment(short, assign_path)
        with pytest.raises(InconsistentInputs):
            evaluate_file(topo_path, assign_path)


    def test_radio_budget_breach_names_the_first_node(self, tmp_path):
        cfg = ScenarioConfig(node_count=20, radios=1, channels=4)
        t = generate_topology(cfg, 5)
        genes = np.zeros(t.link_count, dtype=int)
        hub = next(v for v, inc in enumerate(t.incident_links) if len(inc) > 1)
        genes[t.incident_links[hub]] = np.arange(len(t.incident_links[hub])) % 4
        [(node, count), *_] = reference_radio_violations(genes, t)
        topo_path, assign_path = tmp_path / "t.json", tmp_path / "a.csv"
        save_topology(t, topo_path)
        save_assignment(ChannelAssignment(genes, 4), assign_path)
        with pytest.raises(InconsistentInputs,
                           match=f"node {node} {count} channels, but it has 1 "):
            evaluate_file(topo_path, assign_path)
        genes[:] = 0
        save_assignment(ChannelAssignment(genes, 4), assign_path)
        assert evaluate_file(topo_path, assign_path).fni == 1.0

    def test_channel_count_mismatch_raises(self, tmp_path):
        t, cg, m, a, topo_path, assign_path = self._write_pair(tmp_path)
        save_assignment(ChannelAssignment(a.genes, 4), assign_path)
        with pytest.raises(InconsistentInputs):
            evaluate_file(topo_path, assign_path)


class TestEntryPointsAgree:
    def test_sweep_and_eval_agree_under_graded_overlap(self, tmp_path, capsys):
        cfg = ScenarioConfig(node_count=20, channels=11, overlap_kind="graded")
        [(record, result)] = run_replicate(cfg, 3, ["mclr"], GaConfig())
        topo_path = tmp_path / "t.json"
        assign_path = tmp_path / "a.csv"
        t = generate_topology(cfg, 3)
        save_topology(t, topo_path)
        save_assignment(result.best.assignment, assign_path,
                        algorithm="mclr", seed=3)
        evaluated = evaluate_file(topo_path, assign_path)
        assert main(["assign", "--algo", "mclr", "--topology", str(topo_path),
                     "--out", str(tmp_path)]) == 0
        assigned = dict(zip(RESULTS_HEADER,
                            capsys.readouterr().out.splitlines()[-1].split(",")))
        for name in ("fairness_index", "fni", "nc_raw"):
            assert getattr(evaluated, name) == getattr(record, name)
            assert assigned[name] == str(getattr(record, name))
        # the case is sensitive: orthogonal scoring disagrees here
        orthogonal = evaluate(Problem(t, build_conflict_graph(t),
                                      OverlapMatrix.orthogonal(11),
                                      cfg.radio_model),
                              result.best.assignment.genes)
        assert orthogonal.fairness_index != record.fairness_index


@st.composite
def small_scenarios(draw):
    """8-20 nodes at the paper's density (94 per km^2), 2-6 channels,
    1-3 radios, orthogonal or graded overlap."""
    n = draw(st.integers(8, 20))
    side = round(1000.0 * math.sqrt(n / 94.0), 1)
    graded = draw(st.booleans())
    return ScenarioConfig(
        name="prop", node_count=n, area_w=side, area_h=side,
        channels=draw(st.integers(2, 6)), radios=draw(st.integers(1, 3)),
        overlap_kind="graded" if graded else "orthogonal",
        overlap_span=draw(st.integers(1, 5)), topologies_per_scenario=1)


class TestEntryPointProperties:
    @given(small_scenarios(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_sweep_rows_agree_with_eval_and_keep_invariants(self, cfg, seed):
        ga = GaConfig(population_size=8, max_iterations=5)
        pairs = run_replicate(cfg, seed, list(ALGORITHMS), ga)
        t = generate_topology(cfg, seed)
        problem = problem_for(t)
        fi = {}
        with tempfile.TemporaryDirectory() as tmp:
            topo_path = Path(tmp) / "t.json"
            save_topology(t, topo_path)
            for record, result in pairs:
                genes = result.best.assignment.genes
                assert within_budget(genes, problem)
                assert 0.0 < record.fairness_index <= 1.0
                path = Path(tmp) / f"{record.algorithm}.csv"
                save_assignment(result.best.assignment, path,
                                algorithm=record.algorithm, seed=seed,
                                iterations=result.iterations)
                evaluated = evaluate_file(topo_path, path)
                # every column but the last, wall_ms
                assert evaluated.to_csv_row()[:-1] == record.to_csv_row()[:-1]
                fi[record.algorithm] = record.fairness_index
        assert fi["fa_scga"] >= fi["mclr"]


class TestOutputGuard:
    """No results row carries a NaN or an infinity."""

    @staticmethod
    def report(**change):
        fields = dict(interference=np.array([0.0, 1.0]),
                      link_fairness=np.array([1.0, 0.5]), fairness_index=0.9,
                      nc_raw=1.5, nc_norm=0.75, fni=0.5)
        return FitnessReport(**{**fields, **change})

    @pytest.mark.parametrize("change", [
        {"fairness_index": math.nan}, {"nc_raw": math.inf},
        {"nc_norm": -math.inf}, {"fni": math.nan},
        {"interference": np.array([0.0, math.nan])},
        {"link_fairness": np.array([math.inf, 0.5])}],
        ids=["fairness_index", "nc_raw", "nc_norm", "fni", "interference",
             "link_fairness"])
    def test_non_finite_metric_raises(self, change):
        with pytest.raises(NonFiniteMetric, match="non-finite metric"):
            build_record("s", 1, "mclr", self.report(**change), 0, 1.0)


class TestMetricsRecordCsv:
    def test_aggregates_csv_is_pinned(self, tmp_path):
        # SHA-256 prefix of aggregates.csv; the GA rows moved with the
        # one-draw-per-generation mutation stream (it was 56b67a1cbedfcfc0,
        # as written before the CSV columns were derived from the
        # MetricsRecord fields)
        scenarios = [
            tiny_scenario("orth", replicates=2, master_seed=0),
            ScenarioConfig(name="bind", node_count=8, area_w=500.0,
                           area_h=500.0, topologies_per_scenario=2,
                           master_seed=1, channels=6, radios=2),
        ]
        run_sweep(scenarios, ["mclr", "ia_ga", "fa_scga"], tmp_path,
                  ga=GaConfig(population_size=6, max_iterations=3))
        text = (tmp_path / "aggregates.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest()[:16] == "f8b1095f63f9f7e1"

    def test_row_round_trip_is_exact(self):
        # each column's string parses back to the field's value
        rec = MetricsRecord(
            scenario="s", seed=1234567890123, algorithm="fa_scga", links=17,
            nc_raw=3.141592653589793, nc_norm=0.1847995678582231,
            fni=1 / 3, mean_link_cap=0.2, mean_link_intf=4.333333333333333,
            mean_link_fair=0.9999999999999999, fairness_index=0.87,
            iterations=42, wall_ms=12.5,
        )
        row = dict(zip(RESULTS_HEADER, rec.to_csv_row()))
        for name in RESULTS_HEADER:
            value = getattr(rec, name)
            assert type(value)(row[name]) == value
