"""Semi-chaotic genetic search over channel assignments.

The population is seeded from the greedy primary chromosome: genes whose
links already see zero interference are copied into every individual
(the strong genes), the rest are randomized (the weak genes). Parents
are the individuals whose fitness clears the population mean plus one
standard deviation. Crossover keeps, gene by gene, the parent whose link
fairness is higher; mutation re-draws weak genes at random. The loop is
elitist and stops on the fairness target, a stall, or the iteration cap.

Four algorithm variants share the loop:

``fa_scga``
    semi-chaotic init, fairness fitness (maximize Jain's index)
``scga``
    semi-chaotic init, interference fitness (minimize total interference)
``ia_ga``
    random init, interference fitness
``mclr``
    the greedy heuristic alone, no search
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assignment import (
    ChannelAssignment,
    OverlapMatrix,
    UNASSIGNED,
    _RadioBook,
    _assign_stuck,
    feasible_channels,
    interference_matrix,
    is_valid_assignment,
    mclr_assign,
    radio_constraint_binding,
    repair_radio_constraint,
)
from .config import GaConfig, RadioModel
from .errors import InvalidConfig
from .fitness import FitnessReport, _batch_link_fairness, jain_index
from .ranking import LinkRankTable, rank_links, score_nodes
from .topology import ConflictGraph, Topology

ALGORITHMS = ("mclr", "ia_ga", "scga", "fa_scga")


@dataclass
class Individual:
    assignment: ChannelAssignment
    report: FitnessReport
    fitness: float


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float
    mean: float
    sigma: float


@dataclass
class GaResult:
    algorithm: str
    seed: int
    best: Individual
    history: list[GenerationStats]
    iterations: int
    stop_reason: str


def _evaluate_batch(genes: np.ndarray, channel_count: int, t: Topology,
                    cg: ConflictGraph, m: OverlapMatrix, rm: RadioModel,
                    fitness_kind: str) -> list[Individual]:
    interference, snr, rate, fairness = _batch_link_fairness(genes, t, cg, m, rm)
    out = []
    for i in range(genes.shape[0]):
        report = FitnessReport(
            interference=interference[i],
            snr=snr[i],
            actual_rate=rate[i],
            link_fairness=fairness[i],
            fairness_index=jain_index(fairness[i]),
            total_interference=float(interference[i].sum()),
        )
        value = (report.fairness_index if fitness_kind == "fairness"
                 else -report.total_interference)
        out.append(Individual(
            assignment=ChannelAssignment(genes[i].copy(), channel_count),
            report=report,
            fitness=value,
        ))
    return out


def _randomize_genes(genes: np.ndarray, targets: np.ndarray, t: Topology,
                     channel_count: int, binding: bool,
                     rng: np.random.Generator) -> None:
    """Re-draw the given genes uniformly from their feasible channels,
    in ascending link-id order so draws are reproducible."""
    for lid in targets:
        lid = int(lid)
        if binding:
            cand = feasible_channels(lid, genes, t, channel_count)
            if not cand:
                continue  # keep the existing gene
            genes[lid] = cand[rng.integers(len(cand))]
        else:
            genes[lid] = rng.integers(channel_count)


def init_population_semi_chaotic(primary: ChannelAssignment, t: Topology,
                                 cg: ConflictGraph, m: OverlapMatrix,
                                 rm: RadioModel, cfg: GaConfig,
                                 seed) -> list[Individual]:
    """Population around the primary chromosome: individual 0 is the
    primary itself; the others keep its zero-interference (strong) genes
    and randomize the rest."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    k = primary.channel_count
    weak = np.flatnonzero(interference_matrix(primary.genes, cg, m) > 0.0)
    binding = radio_constraint_binding(t, k)
    genes = np.tile(primary.genes, (cfg.population_size, 1))
    for i in range(1, cfg.population_size):
        _randomize_genes(genes[i], weak, t, k, binding, rng)
    return _evaluate_batch(genes, k, t, cg, m, rm, cfg.fitness_kind)


def init_population_random(t: Topology, cg: ConflictGraph, m: OverlapMatrix,
                           rm: RadioModel, cfg: GaConfig,
                           seed) -> list[Individual]:
    """Uniformly random population; genes are drawn link by link from
    the channels the radio budgets allow."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    k = int(t.params.channels)
    if not radio_constraint_binding(t, k):
        genes = rng.integers(k, size=(cfg.population_size, t.link_count))
    else:
        genes = np.full((cfg.population_size, t.link_count), UNASSIGNED,
                        dtype=np.int64)
        for i in range(cfg.population_size):
            book = _RadioBook(t)
            for lid in range(t.link_count):
                cand = book.candidates(lid, k)
                if not cand:
                    _assign_stuck(lid, genes[i], book, t, cg, m)
                    continue
                c = cand[rng.integers(len(cand))]
                genes[i, lid] = c
                book.add(lid, c)
    return _evaluate_batch(genes.astype(np.int64), k, t, cg, m, rm,
                           cfg.fitness_kind)


def select_parents(pop: list[Individual]) -> list[Individual]:
    """Individuals whose fitness reaches the population mean plus one
    population standard deviation; if fewer than two qualify, the top
    two by fitness (ties toward the lower index)."""
    fitness = np.array([ind.fitness for ind in pop])
    cutoff = fitness.mean() + fitness.std()
    selected = [ind for ind, f in zip(pop, fitness) if f >= cutoff]
    if len(selected) >= 2:
        return selected
    order = sorted(range(len(pop)), key=lambda i: (-fitness[i], i))
    return [pop[i] for i in order[:2]]


def crossover(a: Individual, b: Individual, t: Topology, cg: ConflictGraph,
              m: OverlapMatrix) -> ChannelAssignment:
    """Child takes each gene from the parent whose link fairness is
    higher there (ties toward parent ``a``), then gets repaired if the
    mix broke a radio budget."""
    take_a = a.report.link_fairness >= b.report.link_fairness
    genes = np.where(take_a, a.assignment.genes, b.assignment.genes)
    k = a.assignment.channel_count
    genes = repair_radio_constraint(genes, t, cg, m, k)
    return ChannelAssignment(genes, k)


def mutate(c: ChannelAssignment, report: FitnessReport, cfg: GaConfig,
           t: Topology, seed) -> ChannelAssignment:
    """Re-draw each weak gene (link fairness below the strong-gene
    threshold) with probability ``mutation_prob``; strong genes are
    never touched."""
    rng = np.random.default_rng(seed)
    genes = c.genes.copy()
    weak = np.flatnonzero(report.link_fairness < cfg.strong_gene_threshold)
    if cfg.mutation_prob > 0.0 and len(weak):
        hit = weak[rng.random(len(weak)) < cfg.mutation_prob]
        binding = radio_constraint_binding(t, c.channel_count)
        _randomize_genes(genes, hit, t, c.channel_count, binding, rng)
    return ChannelAssignment(genes, c.channel_count)


def _check_population(pop: list[Individual], t: Topology) -> None:
    for i, ind in enumerate(pop):
        if not is_valid_assignment(ind.assignment, t):
            raise RuntimeError(
                f"individual {i} violates the radio constraint (library bug)"
            )


def rank_table_for(t: Topology) -> LinkRankTable:
    """The topology's link-rank table; build it once per topology and
    pass it to :func:`run` for every algorithm."""
    return rank_links(t, score_nodes(t))


def run_ga(t: Topology, cg: ConflictGraph, m: OverlapMatrix, rm: RadioModel,
           cfg: GaConfig, seed: int,
           primary: ChannelAssignment | None = None,
           rank_table: LinkRankTable | None = None) -> GaResult:
    """Run the configured genetic loop and return the best individual,
    per-generation statistics, and the executed iteration count.

    A pure function of its inputs and the seed: repeat calls are
    bit-identical.
    """
    cfg.validate()
    ss = np.random.SeedSequence(seed)
    init_ss, loop_ss = ss.spawn(2)
    k = int(t.params.channels)
    if cfg.init_kind == "semi_chaotic":
        if primary is None:
            if rank_table is None:
                rank_table = rank_table_for(t)
            primary = mclr_assign(t, cg, rank_table, m, k)
        k = primary.channel_count
        pop = init_population_semi_chaotic(primary, t, cg, m, rm, cfg, init_ss)
    else:
        pop = init_population_random(t, cg, m, rm, cfg, init_ss)
    rng = np.random.default_rng(loop_ss)

    def stats(generation: int, best: float) -> GenerationStats:
        fitness = np.array([ind.fitness for ind in pop])
        return GenerationStats(generation, best,
                               float(fitness.mean()), float(fitness.std()))

    if cfg.validate_every_generation:
        _check_population(pop, t)
    best_idx = max(range(len(pop)), key=lambda i: (pop[i].fitness, -i))
    best = pop[best_idx]
    history = [stats(0, best.fitness)]
    iterations = 0
    last_improvement = 0
    stop_reason = "max_iterations"
    while True:
        if cfg.fitness_kind == "fairness" and best.fitness >= cfg.target_fairness:
            stop_reason = "target"
            break
        if cfg.fitness_kind == "interference" and best.fitness >= 0.0:
            stop_reason = "optimum"
            break
        if iterations - last_improvement >= cfg.stall_window:
            stop_reason = "stall"
            break
        if iterations >= cfg.max_iterations:
            stop_reason = "max_iterations"
            break

        parents = select_parents(pop)
        n = cfg.population_size
        pick_a = rng.integers(len(parents), size=n)
        pick_b = rng.integers(len(parents), size=n)
        children = np.empty((n, t.link_count), dtype=np.int64)
        for i in range(n):
            children[i] = crossover(parents[pick_a[i]], parents[pick_b[i]],
                                    t, cg, m).genes
        child_pop = _evaluate_batch(children, k, t, cg, m, rm, cfg.fitness_kind)
        mutation_seeds = rng.integers(np.iinfo(np.int64).max, size=n)
        for i in range(n):
            children[i] = mutate(child_pop[i].assignment, child_pop[i].report,
                                 cfg, t, int(mutation_seeds[i])).genes
        children[0] = best.assignment.genes  # elitism
        pop = _evaluate_batch(children, k, t, cg, m, rm, cfg.fitness_kind)
        if cfg.validate_every_generation:
            _check_population(pop, t)
        iterations += 1
        gen_best_idx = max(range(len(pop)), key=lambda i: (pop[i].fitness, -i))
        if pop[gen_best_idx].fitness > best.fitness:
            best = pop[gen_best_idx]
            last_improvement = iterations
        history.append(stats(iterations, best.fitness))
    return GaResult(
        algorithm=f"{cfg.init_kind}+{cfg.fitness_kind}",
        seed=int(seed) if np.isscalar(seed) else -1,
        best=best,
        history=history,
        iterations=iterations,
        stop_reason=stop_reason,
    )


def run(algorithm: str, t: Topology, cg: ConflictGraph, m: OverlapMatrix,
        rm: RadioModel, cfg: GaConfig | None = None, seed: int = 0,
        theta: float | None = None,
        rank_table: LinkRankTable | None = None) -> GaResult:
    """Run one of the named algorithm variants.

    ``mclr`` evaluates the greedy heuristic with no search (iterations
    0); the GA variants override the config's init and fitness kinds as
    described in the module docstring. ``rank_table`` defaults to
    :func:`rank_table_for` of ``t``, built only for the variants that
    use it (all but ``ia_ga``).
    """
    cfg = cfg or GaConfig()
    if algorithm not in ALGORITHMS:
        raise InvalidConfig(
            f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}"
        )
    if rank_table is None and algorithm != "ia_ga":
        rank_table = rank_table_for(t)
    if algorithm == "mclr":
        primary = mclr_assign(t, cg, rank_table, m, int(t.params.channels),
                              theta=theta)
        pop = _evaluate_batch(primary.genes[None, :], primary.channel_count,
                              t, cg, m, rm, cfg.fitness_kind)
        best = pop[0]
        result = GaResult(
            algorithm="mclr",
            seed=seed,
            best=best,
            history=[GenerationStats(0, best.fitness, best.fitness, 0.0)],
            iterations=0,
            stop_reason="heuristic",
        )
        return result
    kinds = {
        "fa_scga": ("semi_chaotic", "fairness"),
        "scga": ("semi_chaotic", "interference"),
        "ia_ga": ("random", "interference"),
    }[algorithm]
    cfg = replace(cfg, init_kind=kinds[0], fitness_kind=kinds[1])
    primary = None
    if cfg.init_kind == "semi_chaotic":
        primary = mclr_assign(t, cg, rank_table, m, int(t.params.channels),
                              theta=theta)
    result = run_ga(t, cg, m, rm, cfg, seed, primary=primary,
                    rank_table=rank_table)
    result.algorithm = algorithm
    result.seed = seed
    return result
