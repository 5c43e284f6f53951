import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from meshca import (
    ALGORITHMS,
    GaConfig,
    InvalidAssignment,
    InvalidConfig,
    ScenarioConfig,
)
from meshca.assignment import (
    ChannelAssignment,
    OverlapMatrix,
    _assign_stuck,
    feasible_channels,
    interference_matrix,
    mclr_assign,
    overlap_for_config,
    repair_radio_constraint,
    within_budget,
)
from meshca.config import RadioModel
from meshca.fitness import evaluate
from meshca.ga import (
    GenerationStats,
    Problem,
    _check_population,
    _evaluate_batch,
    crossover,
    init_population_random,
    init_population_semi_chaotic,
    mutate,
    run,
    run_ga,
    select_parents,
)
from meshca.ranking import rank_links, score_nodes
from meshca.topology import Topology, build_conflict_graph, generate_topology
from conftest import (
    ReferenceRadioBook,
    assert_valid,
    make_topology,
    reference_assign_stuck,
    reference_book_feasible,
    reference_radio_violations,
)


RM = RadioModel()


def clique_topology(n_links=4, **kwargs):
    positions = [(i * 50.0, 0.0) for i in range(n_links + 1)]
    pairs = [(i, i + 1) for i in range(n_links)]
    return make_topology(positions, link_pairs=pairs, **kwargs)


def setup_instance(n_links=4, channels=3, **kwargs):
    t = clique_topology(n_links, channels=channels, **kwargs)
    cg = build_conflict_graph(t)
    m = OverlapMatrix.orthogonal(channels)
    return t, cg, m


def hub_instance():
    """A hub with 2 radios and 6 mutually conflicting links to leaves, 6
    orthogonal channels, required rates above what a link achieves: the
    hub's radio budget binds."""
    t = make_topology([(0, 0)] + [(60.0 * np.cos(a), 60.0 * np.sin(a))
                                  for a in np.arange(6) * np.pi / 3],
                      link_pairs=[(0, v) for v in range(1, 7)], radios=2,
                      channels=6, required=20.0)
    cg, m = build_conflict_graph(t), OverlapMatrix.orthogonal(6)
    assert Problem(t, cg, m, RM).binding.tolist() == [0]
    return t, cg, m


def with_primary(primary, t, cg, m):
    """A problem whose primary chromosome is ``primary``, not MCLR's."""
    problem = Problem(t, cg, m, RM)
    problem.primary = primary
    return problem


def link_fairness_of(genes, channels, t, cg, m):
    assert m.channel_count == channels
    return evaluate(Problem(t, cg, m, RM), np.asarray(genes)).link_fairness


BAD_GA_FIELDS = [
    dict(mutation_prob=1.5),
    dict(target_fairness=-0.1),
    dict(stall_window=0),
    dict(max_iterations=-1),
    dict(strong_gene_threshold=1.5),
]


class TestConfigValidation:
    def test_population_of_one_rejected(self):
        with pytest.raises(InvalidConfig):
            GaConfig(population_size=1)

    @pytest.mark.parametrize("bad", BAD_GA_FIELDS)
    def test_bad_fields_rejected(self, bad):
        with pytest.raises(InvalidConfig):
            GaConfig(**bad)


class TestSemiChaoticInit:
    def test_proper_coloring_primary_fixes_population(self):
        t, cg, m = setup_instance(3, channels=4, radios=4)
        primary = ChannelAssignment(np.array([0, 1, 2]), 4)
        assert interference_matrix(primary.genes, cg, m).max() == 0.0
        pop = init_population_semi_chaotic(with_primary(primary, t, cg, m),
                                           GaConfig(population_size=10),
                                           seed=1)
        assert len(pop) == 10
        for row in pop:
            assert np.array_equal(row, primary.genes)

    def test_individual_zero_is_primary(self):
        t, cg, m = setup_instance(4, channels=2)
        primary = ChannelAssignment(np.array([0, 0, 0, 0]), 2)
        pop = init_population_semi_chaotic(with_primary(primary, t, cg, m),
                                           GaConfig(population_size=8),
                                           seed=3)
        assert np.array_equal(pop[0], primary.genes)

    def test_strong_genes_preserved_weak_randomized_uniformly(self):
        # all-common primary on a clique: every gene is weak, redraws
        # should be uniform over the 3 channels (chi-square sanity)
        t, cg, m = setup_instance(4, channels=3)
        primary = ChannelAssignment(np.zeros(4, dtype=int), 3)
        pop = init_population_semi_chaotic(
            with_primary(primary, t, cg, m), GaConfig(population_size=1001),
            seed=5,
        )
        genes = pop[1:]
        counts = np.bincount(genes.ravel(), minlength=3)
        expected = genes.size / 3
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16.27  # chi-square 99.97% quantile, 2 dof

    def test_mixed_primary_keeps_strong_genes(self):
        # links 0 and 2 far apart: make a primary where some genes are
        # strong and verify they survive in every individual
        t = make_topology(
            [(0, 0), (100, 0), (0, 600), (100, 600), (200, 600)],
            link_pairs=[(0, 1), (2, 3), (3, 4)],
            channels=2,
        )
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(2)
        primary = ChannelAssignment(np.array([0, 0, 0]), 2)
        strong = interference_matrix(primary.genes, cg, m) == 0.0
        assert strong[0] and not strong[1] and not strong[2]
        pop = init_population_semi_chaotic(with_primary(primary, t, cg, m),
                                           GaConfig(population_size=50),
                                           seed=7)
        for row in pop:
            assert row[0] == primary.genes[0]

    def test_deterministic_per_seed(self):
        t, cg, m = setup_instance(4, channels=3)
        primary = ChannelAssignment(np.zeros(4, dtype=int), 3)
        cfg = GaConfig(population_size=12)
        problem = with_primary(primary, t, cg, m)
        p1 = init_population_semi_chaotic(problem, cfg, seed=9)
        p2 = init_population_semi_chaotic(problem, cfg, seed=9)
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)


class TestRandomInit:
    def test_single_channel_forces_all_zero(self):
        t, cg, m = setup_instance(4, channels=1)
        pop = init_population_random(Problem(t, cg, m, RM),
                                     GaConfig(population_size=6), seed=2)
        for row in pop:
            assert np.array_equal(row, np.zeros(4, dtype=int))

    def test_deterministic_per_seed(self):
        t, cg, m = setup_instance(5, channels=3)
        cfg = GaConfig(population_size=9)
        p1 = init_population_random(Problem(t, cg, m, RM), cfg, seed=4)
        p2 = init_population_random(Problem(t, cg, m, RM), cfg, seed=4)
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)

    def test_gene_marginal_roughly_uniform(self):
        t, cg, m = setup_instance(3, channels=3)
        genes = init_population_random(Problem(t, cg, m, RM),
                                       GaConfig(population_size=1000), seed=6)
        counts = np.bincount(genes.ravel(), minlength=3)
        expected = genes.size / 3
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16.27

    def test_respects_radio_constraint(self):
        t, cg, m = setup_instance(6, channels=6, radios=2)
        pop = init_population_random(Problem(t, cg, m, RM),
                                     GaConfig(population_size=40), seed=8)
        for row in pop:
            assert_valid(row, t, 6)


def select(pop):
    """``select_parents`` on ``pop`` with its generation record, as
    ``run_ga`` builds it."""
    stats = GenerationStats(0, float(pop.max()), float(pop.mean()),
                            float(pop.std()))
    return select_parents(pop, stats)


class TestSelectParents:
    def test_hand_computed_cutoff_with_fallback(self):
        # mean 0.525, population sigma ~0.2586, cutoff ~0.7836: only 0.9
        # clears it, so the top-2 fallback returns {0.9, 0.6}
        pop = np.array([0.2, 0.4, 0.6, 0.9])
        mu = np.mean([0.2, 0.4, 0.6, 0.9])
        sigma = np.std([0.2, 0.4, 0.6, 0.9])
        assert mu == pytest.approx(0.525)
        assert sigma == pytest.approx(0.2586, abs=1e-4)
        selected = select(pop)
        assert sorted(pop[selected].tolist()) == [0.6, 0.9]

    def test_all_equal_selects_everyone(self):
        pop = np.array([0.5, 0.5, 0.5])
        assert len(select(pop)) == 3

    def test_population_of_two_always_selected(self):
        pop = np.array([0.1, 0.9])
        assert len(select(pop)) == 2

    def test_ties_prefer_lower_index(self):
        pop = np.array([0.5, 0.9, 0.9, 0.1])
        selected = select(pop)
        assert selected[0] == 1 or 1 in selected

    def test_works_for_negative_interference_fitness(self):
        pop = np.array([-10.0, -2.0, -8.0, -1.0])
        selected = select(pop)
        assert all(pop[i] >= -2.0 for i in selected)


class TestCrossover:
    def test_idempotent_on_identical_parents(self):
        t, cg, m = setup_instance(4, channels=3)
        genes = np.array([0, 1, 2, 0])
        fair = link_fairness_of(genes, 3, t, cg, m)
        child = crossover(genes, fair, genes, fair, Problem(t, cg, m, RM))
        assert np.array_equal(child, genes)

    def test_per_gene_dominance(self):
        # two isolated links; parent a perfect on gene 0, parent b on gene 1
        t = make_topology(
            [(0, 0), (100, 0), (0, 600), (100, 600)],
            link_pairs=[(0, 1), (2, 3)],
            channels=2,
            required=[4.0, 4.0],
        )
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(2)
        child = crossover(np.array([0, 0]), np.array([1.0, 0.2]),
                          np.array([1, 1]), np.array([0.2, 1.0]),
                          Problem(t, cg, m, RM))
        assert child.tolist() == [0, 1]

    def test_matches_per_gene_argmax_oracle(self):
        t, cg, m = setup_instance(6, channels=3)
        rng = np.random.default_rng(12)
        ga = rng.integers(3, size=(30, 6))
        gb = rng.integers(3, size=(30, 6))
        problem = Problem(t, cg, m, RM)
        fa, _ = _evaluate_batch(ga, problem, True)
        fb, _ = _evaluate_batch(gb, problem, True)
        children = crossover(ga, fa, gb, fb, problem)
        for i in range(30):
            child = crossover(ga[i], fa[i], gb[i], fb[i], problem)
            assert np.array_equal(children[i], child)
            fa_i = link_fairness_of(ga[i], 3, t, cg, m)
            fb_i = link_fairness_of(gb[i], 3, t, cg, m)
            for g in range(6):
                want = ga[i, g] if fa_i[g] >= fb_i[g] else gb[i, g]
                assert child[g] == want

    def test_repairs_radio_violations(self):
        # rates below the required ones make link fairness follow the
        # channels, so a mix of two valid parents can break the hub's budget
        t, cg, m = hub_instance()
        problem = Problem(t, cg, m, RM)
        rng = np.random.default_rng(13)
        broken = 0
        for _ in range(30):
            ga = rng.integers(6, size=6)
            gb = rng.integers(6, size=6)
            ga = repair_radio_constraint(ga, problem)
            gb = repair_radio_constraint(gb, problem)
            fa = link_fairness_of(ga, 6, t, cg, m)
            fb = link_fairness_of(gb, 6, t, cg, m)
            broken += not within_budget(np.where(fa >= fb, ga, gb), problem)
            child = crossover(ga, fa, gb, fb, problem)
            assert_valid(child, t, 6)
        assert broken


def mutate_one(genes, fairness, cfg, t, cg, m, seed):
    return mutate(np.asarray(genes)[None], np.asarray(fairness)[None], cfg,
                  Problem(t, cg, m, RM), np.random.default_rng(seed))[0]


class TestMutate:
    def test_all_strong_is_identity(self):
        t, cg, m = setup_instance(4, channels=3)
        genes = np.array([0, 1, 2, 0])
        out = mutate_one(genes, np.ones(4), GaConfig(mutation_prob=1.0),
                         t, cg, m, seed=1)
        assert np.array_equal(out, genes)

    def test_zero_probability_is_identity(self):
        t, cg, m = setup_instance(4, channels=3)
        genes = np.array([0, 0, 0, 0])
        out = mutate_one(genes, link_fairness_of(genes, 3, t, cg, m),
                         GaConfig(mutation_prob=0.0), t, cg, m, seed=1)
        assert np.array_equal(out, genes)

    def test_single_weak_gene_uniform_over_channels(self):
        t, cg, m = setup_instance(3, channels=3)
        genes = np.array([0, 1, 0])
        fair = np.array([1.0, 1.0, 0.0])
        cfg = GaConfig(mutation_prob=1.0, strong_gene_threshold=0.5)
        draws = mutate(np.tile(genes, (300, 1)), np.tile(fair, (300, 1)),
                       cfg, Problem(t, cg, m, RM),
                       np.random.default_rng(0))[:, 2]
        counts = np.bincount(draws, minlength=3)
        assert (counts > 60).all()  # ~100 each under uniformity

    def test_deterministic_per_seed(self):
        t, cg, m = setup_instance(5, channels=3)
        genes = np.array([0, 0, 0, 0, 0])
        fair = link_fairness_of(genes, 3, t, cg, m)
        cfg = GaConfig(mutation_prob=0.7)
        a = mutate_one(genes, fair, cfg, t, cg, m, seed=42)
        b = mutate_one(genes, fair, cfg, t, cg, m, seed=42)
        assert np.array_equal(a, b)

    def test_keeps_radio_constraint(self):
        t, cg, m = hub_instance()
        primary = mclr_assign(Problem(t, cg, m, RM),
                              rank_links(t, score_nodes(t)))
        fair = link_fairness_of(primary.genes, 6, t, cg, m)
        cfg = GaConfig(mutation_prob=1.0, strong_gene_threshold=1.0)
        out = mutate(np.tile(primary.genes, (50, 1)), np.tile(fair, (50, 1)),
                     cfg, Problem(t, cg, m, RM), np.random.default_rng(0))
        for row in out:
            assert_valid(row, t, 6)


@st.composite
def tree_problems(draw):
    """A random tree of 2-8 nodes (links numbered in random order, so
    either endpoint may already hold channels), 1-3 radios per node, 2-12
    channels, orthogonal or graded overlap."""
    n = draw(st.integers(2, 8))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = draw(st.permutations(pairs))
    radios = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    k = draw(st.integers(2, 12))
    x = [80.0 * draw(st.integers(0, 12)) for _ in range(n)]
    t = Topology([(x[v], 10.0 * v) for v in range(n)], radios, [0],
                 [a for a, _ in pairs], [b for _, b in pairs], [1.0] * (n - 1),
                 ScenarioConfig(name="tree", node_count=n, channels=k), 0)
    m = OverlapMatrix.graded(k) if draw(st.booleans()) else \
        OverlapMatrix.orthogonal(k)
    return Problem(t, build_conflict_graph(t), m, RM)


def bound_links(t, k):
    """Links with an endpoint that has more links than radios and fewer
    radios than channels."""
    binding = {v for v in range(t.node_count)
               if len(t.incident_links[v]) > t.radios[v] and t.radios[v] < k}
    return {lid for lid, (a, b) in enumerate(zip(t.link_a, t.link_b))
            if a in binding or b in binding}


def reference_redraw(genes, hit, u, problem, free_first=False):
    """Every hit gene walks its row's radio book, in link order (the free
    links' genes first if ``free_first``), taking ``cand[int(u *
    len(cand))]`` of its feasible channels, or a stuck merge if none."""
    bound = bound_links(problem.t, problem.channels)
    out = np.array(genes, dtype=np.int64)
    for row, row_hit, row_u in zip(out, hit, u):
        book = ReferenceRadioBook(problem, row)
        order = sorted(np.flatnonzero(row_hit).tolist(),
                       key=lambda l: (free_first and l in bound, l))
        for lid in order:
            cand = reference_book_feasible(lid, book)
            if cand:
                book.set(lid, cand[int(row_u[lid] * len(cand))])
            else:
                reference_assign_stuck(lid, book)
    return out


def valid_rows(problem, n, rng):
    return np.array([
        repair_radio_constraint(
            rng.integers(problem.channels, size=problem.t.link_count), problem)
        for _ in range(n)
    ])


class TestRedrawProperties:
    """Mutation and both initialisations draw free links' genes in one
    step and walk only bound links' genes through the radio book; the
    result must equal walking every hit gene through the book."""

    @given(tree_problems(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 0.2, 0.7, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_mutate_equals_full_book_walk(self, problem, seed, prob):
        t = problem.t
        rng = np.random.default_rng(seed)
        genes = valid_rows(problem, 6, rng)
        fairness = np.where(rng.random(genes.shape) < 0.5, 1.0,
                            rng.random(genes.shape))
        cfg = GaConfig(mutation_prob=prob)
        out = mutate(genes, fairness, cfg, problem,
                     np.random.default_rng(seed))
        draws = np.random.default_rng(seed)
        hit = ((fairness < cfg.strong_gene_threshold)
               & (draws.random(genes.shape) < prob))
        u = draws.random(genes.shape)
        assert np.array_equal(out, reference_redraw(genes, hit, u, problem))
        strong = fairness >= cfg.strong_gene_threshold
        assert np.array_equal(out[strong], genes[strong])
        untouched = ~hit.any(axis=1)
        assert np.array_equal(out[untouched], genes[untouched])
        assert within_budget(out, problem).all()

    @given(tree_problems(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_inits_equal_full_book_walk(self, problem, seed):
        t, L = problem.t, problem.t.link_count
        cfg = GaConfig(population_size=6)
        u = np.random.default_rng(seed).random((6, L))

        pop = init_population_random(problem, cfg, seed)
        unassigned = np.full((6, L), -1)
        want = reference_redraw(unassigned, np.ones((6, L), dtype=bool), u,
                                problem, free_first=True)
        assert np.array_equal(pop, want)
        assert within_budget(pop, problem).all()

        problem.primary = ChannelAssignment(pop[0], problem.channels)
        weak = interference_matrix(pop[0], problem.cg, problem.m) > 0.0
        hit = np.zeros((6, L), dtype=bool)
        hit[1:] = weak
        pop = init_population_semi_chaotic(problem, cfg, seed)
        assert np.array_equal(pop, reference_redraw(
            np.tile(problem.primary.genes, (6, 1)), hit, u, problem))
        assert np.array_equal(pop[:, ~weak],
                              np.tile(problem.primary.genes[~weak], (6, 1)))
        assert within_budget(pop, problem).all()

    def test_random_init_merges_stuck_links(self, monkeypatch):
        # one radio per node; links 0 and 1 share no node, so link 2
        # meets two full endpoints whenever they drew different channels
        t = make_topology([(0, 0), (50, 0), (100, 0), (150, 0)],
                          link_pairs=[(0, 1), (2, 3), (1, 2)], radios=1,
                          channels=5)
        problem = Problem(t, build_conflict_graph(t),
                          OverlapMatrix.orthogonal(5), RM)
        merges = []

        def counted(lid, genes, nbrs, problem):
            merges.append(lid)
            _assign_stuck(lid, genes, nbrs, problem)

        monkeypatch.setattr("meshca.ga._assign_stuck", counted)
        pop = init_population_random(problem, GaConfig(population_size=20),
                                     seed=3)
        assert merges and set(merges) == {2}
        u = np.random.default_rng(3).random((20, 3))
        assert np.array_equal(pop, reference_redraw(
            np.full((20, 3), -1), np.ones((20, 3), dtype=bool), u, problem))
        assert (pop == pop[:, :1]).all()  # one radio: one channel per row

    @given(tree_problems(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_each_hit_gene_covers_its_feasible_channels(self, problem, seed):
        t = problem.t
        row = valid_rows(problem, 1, np.random.default_rng(seed))[0]
        cfg = GaConfig(mutation_prob=1.0)
        for lid in range(t.link_count):
            fairness = np.ones(t.link_count)
            fairness[lid] = 0.0
            out = mutate(np.tile(row, (400, 1)), np.tile(fairness, (400, 1)),
                         cfg, problem, np.random.default_rng(seed))
            assert np.array_equal(np.delete(out, lid, axis=1),
                                  np.delete(np.tile(row, (400, 1)), lid,
                                            axis=1))
            assert (set(out[:, lid].tolist())
                    == set(np.flatnonzero(
                        feasible_channels(lid, row, problem)).tolist()))

    @given(tree_problems(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["ia_ga", "scga", "fa_scga"]))
    @settings(max_examples=40, deadline=None)
    def test_run_ga_is_valid_and_repeatable_under_binding_budgets(
            self, problem, seed, algorithm):
        assume(problem.binding.size)
        cfg = GaConfig(population_size=8, max_iterations=6)
        r1 = run_ga(algorithm, problem, cfg, seed)
        r2 = run_ga(algorithm, Problem(problem.t, problem.cg, problem.m, RM),
                    cfg, seed)
        assert np.array_equal(r1.best.assignment.genes,
                              r2.best.assignment.genes)
        assert r1.history[-1].best == r2.history[-1].best
        assert r1.history == r2.history
        assert (r1.iterations, r1.stop_reason) == (r2.iterations,
                                                   r2.stop_reason)
        assert within_budget(r1.best.assignment.genes, problem)


class TestRun:
    def test_three_colorable_reaches_perfect_fairness(self):
        # triangle of mutually conflicting links is 3-colorable; generous
        # required rates make a proper coloring perfectly fair
        t = make_topology(
            [(0, 0), (80, 0), (40, 70)],
            link_pairs=[(0, 1), (1, 2), (0, 2)],
            channels=3,
            required=0.01,
        )
        cg = build_conflict_graph(t)
        m = OverlapMatrix.orthogonal(3)
        # exhaustive confirmation that a zero-interference coloring exists
        assert any(
            all(g[x] != g[y] for x, y in cg.edges)
            for g in product(range(3), repeat=3)
        )
        cfg = GaConfig(population_size=20, max_iterations=100)
        result = run("fa_scga", Problem(t, cg, m, RM), cfg, seed=3)
        assert result.history[-1].best == 1.0
        assert result.iterations < cfg.max_iterations
        assert result.stop_reason == "target"

    def test_identical_seed_identical_outcome(self):
        t, cg, m = setup_instance(5, channels=3)
        cfg = GaConfig(population_size=10, max_iterations=30)
        r1 = run("fa_scga", Problem(t, cg, m, RM), cfg, seed=17)
        r2 = run("fa_scga", Problem(t, cg, m, RM), cfg, seed=17)
        assert np.array_equal(r1.best.assignment.genes,
                              r2.best.assignment.genes)
        assert r1.history[-1].best == r2.history[-1].best
        assert [
            (h.generation, h.best, h.mean, h.sigma) for h in r1.history
        ] == [
            (h.generation, h.best, h.mean, h.sigma) for h in r2.history
        ]

    def test_mclr_equals_direct_heuristic(self):
        t, cg, m = setup_instance(5, channels=3)
        result = run("mclr", Problem(t, cg, m, RM), seed=1)
        direct = mclr_assign(Problem(t, cg, m, RM),
                             rank_links(t, score_nodes(t)))
        assert np.array_equal(result.best.assignment.genes, direct.genes)
        assert result.iterations == 0

    def test_history_best_is_monotone(self):
        t, cg, m = setup_instance(6, channels=2)
        cfg = GaConfig(population_size=12, max_iterations=40)
        for algorithm in ("fa_scga", "scga", "ia_ga"):
            result = run(algorithm, Problem(t, cg, m, RM), cfg, seed=5)
            best = [h.best for h in result.history]
            assert all(a <= b for a, b in zip(best, best[1:]))

    def test_every_generation_respects_radio_constraint(self):
        t, cg, m = setup_instance(6, channels=6, radios=2)
        cfg = GaConfig(population_size=10, max_iterations=15)
        for algorithm in ("fa_scga", "ia_ga"):
            result = run(algorithm, Problem(t, cg, m, RM), cfg, seed=2)
            assert_valid(result.best.assignment.genes, t, 6)

    def test_unknown_algorithm_rejected(self):
        t, cg, m = setup_instance(3)
        with pytest.raises(InvalidConfig):
            run("gradient_descent", Problem(t, cg, m, RM))
        with pytest.raises(InvalidConfig):
            run_ga("mclr", Problem(t, cg, m, RM), GaConfig(), 0)

    def test_interference_variant_stops_at_optimum(self):
        t, cg, m = setup_instance(2, channels=3)
        cfg = GaConfig(population_size=8, max_iterations=50)
        result = run("scga", Problem(t, cg, m, RM), cfg, seed=4)
        assert result.best.report.interference.sum() == 0.0
        assert result.stop_reason == "optimum"

    def test_best_individual_matches_history(self):
        cfg = PINNED_INSTANCES["graded"]
        t = generate_topology(cfg, 3)
        cg, m = build_conflict_graph(t), overlap_for_config(cfg)
        for algorithm in ALGORITHMS:
            result = run(algorithm, Problem(t, cg, m, cfg.radio_model),
                         GaConfig(max_iterations=5), seed=4)
            report = result.best.report
            fitness = (-report.interference.sum()
                       if algorithm in ("ia_ga", "scga")
                       else report.fairness_index)
            assert fitness == result.history[-1].best


def star_instance():
    """Three links at node 0, which has two radios for six channels."""
    t = make_topology([(0, 0), (50, 0), (0, 50), (-50, 0)],
                      link_pairs=[(0, 1), (0, 2), (0, 3)], channels=6,
                      radios=2)
    return t, build_conflict_graph(t), OverlapMatrix.orthogonal(6)


class TestCheckPopulation:
    def test_invalid_row_raises_typed_error(self):
        t, cg, m = star_instance()
        problem = Problem(t, cg, m, RM)
        valid, broken = np.array([0, 1, 1]), np.array([0, 1, 2])
        _check_population(np.stack([valid, valid]), problem)
        assert reference_radio_violations(broken, t) == [(0, 3)]
        with pytest.raises(InvalidAssignment, match="individual 1"):
            _check_population(np.stack([valid, broken]), problem)

    def test_run_ga_rejects_an_invalid_generation(self, monkeypatch):
        t, cg, m = star_instance()

        def break_radio_budget(genes, *args):
            out = genes.copy()
            out[:] = [0, 1, 2]  # three channels at node 0
            return out

        monkeypatch.setattr("meshca.ga.mutate", break_radio_budget)
        cfg = GaConfig(population_size=6, max_iterations=3)
        # two radios for three mutually conflicting links: interference
        # stays above zero, so the loop runs past generation 0
        with pytest.raises(InvalidAssignment):
            run("scga", Problem(t, cg, m, RM), cfg, seed=1)

    def test_runs_every_generation_only_where_a_budget_binds(
            self, monkeypatch):
        checked = []
        monkeypatch.setattr("meshca.ga._check_population",
                            lambda genes, problem: checked.append(len(genes)))
        cfg = GaConfig(population_size=6, max_iterations=3)
        t, cg, m = star_instance()
        result = run("scga", Problem(t, cg, m, RM), cfg, seed=1)
        assert checked == [6] * (result.iterations + 1)
        checked.clear()
        # the same star with as many radios as links binds nowhere
        t = make_topology([(0, 0), (50, 0), (0, 50), (-50, 0)],
                          link_pairs=[(0, 1), (0, 2), (0, 3)], channels=6,
                          radios=3)
        run("scga", Problem(t, build_conflict_graph(t), m, RM), cfg, seed=1)
        assert checked == []


class TestBindingRule:
    @given(tree_problems())
    @settings(max_examples=100, deadline=None)
    def test_binding_nodes_and_their_links(self, problem):
        t, k = problem.t, problem.channels
        degree = [len(inc) for inc in t.incident_links]
        want = [v for v in range(t.node_count)
                if t.radios[v] < min(degree[v], k)]
        assert problem.binding.tolist() == want
        for v, row in zip(want, problem.binding_links.tolist()):
            assert set(row) == set(t.incident_links[v])
            assert row[:degree[v]] == t.incident_links[v]
        assert (set(np.flatnonzero(problem.bound_links).tolist())
                == bound_links(t, k))


PINNED_INSTANCES = {
    "orthogonal": ScenarioConfig(name="pin_orthogonal", node_count=20,
                                 channels=3),
    "radio_binding": ScenarioConfig(name="pin_binding", node_count=20,
                                    channels=6, radios=2),
    "graded": ScenarioConfig(name="pin_graded", node_count=20, channels=11,
                             overlap_kind="graded", overlap_span=5),
}

# SHA-256 prefixes of the best genes plus the history of ``run`` on the
# 25-link topology of each instance at seed 3 (GA seed 4, 15
# generations). They change only with the GA's random stream or its
# arithmetic, and any such change re-pins them on purpose. The GA values
# were re-pinned when mutation and initialisation moved to one uniform
# draw per generation (from one generator per child); before that they
# were: orthogonal ia_ga 8ef74d78399cb584, scga 6a56c30337c010c2,
# fa_scga 9ebfd733d018342b; radio_binding ia_ga 3234efd0c73e51fe, scga
# ce8d629c323eb655, fa_scga f9f0a1fb624ebe51; graded ia_ga
# 959490faf665d3ae, scga 722016b33c70efc8, fa_scga 0f7fd79b597e8df2.
# The mclr values do not depend on the GA stream.
PINNED_DIGESTS = {
    ("orthogonal", "mclr"): "6c3b977d9e9d4c77",
    ("orthogonal", "ia_ga"): "12c7884aae2cfd7c",
    ("orthogonal", "scga"): "42c0a57116ec50aa",
    ("orthogonal", "fa_scga"): "07377e2e61d54612",
    ("radio_binding", "mclr"): "c70b1bc1d47af294",
    ("radio_binding", "ia_ga"): "122dad67d2275f0e",
    ("radio_binding", "scga"): "b0220653d863ad36",
    ("radio_binding", "fa_scga"): "e8045282185512d9",
    ("graded", "mclr"): "38cc382e78828ca8",
    ("graded", "ia_ga"): "d407888ab63a7d62",
    ("graded", "scga"): "33b41789c850d00b",
    ("graded", "fa_scga"): "1a8dca91bc776324",
}
# Where numpy runs its baseline float64 log2/log10 loops, which round like
# libm, in place of its AVX-512 (X86_V4) ones, two histories differ in
# the last bits of their mean and sigma; the best genes are the same.
BASELINE_LOOP_DIGESTS = {
    ("orthogonal", "fa_scga"): "06ad2284542930c5",
    ("graded", "fa_scga"): "05329657987c28f6",
}


def baseline_log_loop():
    """Whether numpy's float64 ``log2`` runs its baseline loop, as
    ``opt_func_info`` reports it; numpy before 2.0 cannot say, and is
    taken to run the loop the main pins hold."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return False
    info = opt_func_info(func_name="^log2$", signature="float64")
    return info["log2"]["dd"]["current"].startswith("baseline")


def outcome_digest(result):
    h = hashlib.sha256(np.asarray(result.best.assignment.genes,
                                  dtype=np.int64).tobytes())
    for s in result.history:
        h.update(repr((s.generation, s.best, s.mean, s.sigma)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("instance, algorithm", sorted(PINNED_DIGESTS))
def test_pinned_outcomes(instance, algorithm):
    cfg = PINNED_INSTANCES[instance]
    t = generate_topology(cfg, 3)
    assert t.link_count == 25
    cg, m = build_conflict_graph(t), overlap_for_config(cfg)
    result = run(algorithm, Problem(t, cg, m, cfg.radio_model),
                 GaConfig(max_iterations=15), seed=4)
    want = PINNED_DIGESTS[instance, algorithm]
    if baseline_log_loop():
        want = BASELINE_LOOP_DIGESTS.get((instance, algorithm), want)
    assert outcome_digest(result) == want
