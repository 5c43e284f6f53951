"""Semi-chaotic genetic search over channel assignments.

The population is seeded from the greedy primary chromosome: genes whose
links already see zero interference are copied into every individual
(the strong genes), the rest are randomized (the weak genes). Parents
are the individuals whose fitness clears the population mean plus one
standard deviation. Crossover keeps, gene by gene, the parent whose link
fairness is higher; mutation re-draws weak genes at random. The loop is
elitist and stops on the fairness target, a stall, or the iteration cap.

The population is held as arrays: (P, L) genes, (P, L) link fairness
and (P,) fitness, evaluated a generation at a time; the operators take
and return such arrays. A generation's mean and std are taken once, for
its :class:`GenerationStats` record. Only the final best individual
becomes an :class:`Individual` with a full
:class:`~meshca.fitness.FitnessReport`.

Each initialisation draws one (P, L) uniform array, and each generation
one (n, L) array for the mutation mask and one for the new channels.
:func:`_redraw` maps them to feasible channels: free links' genes in one
step, then each bound link in all rows at once, in ascending id order;
crossover repair walks the bound links of its over-budget children the
same way (:func:`~meshca.assignment.repair_radio_constraint`).

Every entry point runs on one :class:`Problem` per topology, which
builds the link-rank table and the greedy primary chromosome once, on
first use, for every algorithm that needs them, and holds the one rule
for which nodes' radio budgets can bind. Four algorithm variants
share the loop; the name is the only selector:

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assignment import (
    ChannelAssignment,
    OverlapMatrix,
    UNASSIGNED,
    _assign_stuck,
    feasible_channels,
    interference_matrix,
    mclr_assign,
    repair_radio_constraint,
    within_budget,
)
from .config import GaConfig, RadioModel
from .errors import InvalidAssignment, InvalidConfig
from .fitness import (FitnessReport, _batch_link_fairness, _link_fairness,
                      evaluate, jain_index)
from .ranking import LinkRankTable, rank_links, score_nodes
from .topology import ConflictGraph, Topology, _block_rows

ALGORITHMS = ("mclr", "ia_ga", "scga", "fa_scga")
# per GA variant: (semi-chaotic init from the primary chromosome,
# fairness fitness); otherwise random init, interference fitness
_GA_KINDS = {"ia_ga": (False, False), "scga": (True, False),
             "fa_scga": (True, True)}


@dataclass(eq=False)
class Problem:
    """One topology's channel-assignment instance: its conflict graph,
    channel overlap and radio model; the link-rank table, the MCLR primary
    chromosome and the fairness table; and the radio-budget rule
    (:attr:`binding`). Each derived value is built once, on first use."""

    t: Topology
    cg: ConflictGraph
    m: OverlapMatrix
    rm: RadioModel

    @property
    def channels(self) -> int:
        return self.m.channel_count

    @cached_property
    def rank_table(self) -> LinkRankTable:
        return rank_links(self.t, score_nodes(self.t))

    @cached_property
    def primary(self) -> ChannelAssignment:
        return mclr_assign(self, self.rank_table)

    @cached_property
    def fairness_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``table[start[l] + c]`` is link ``l``'s fairness at ``c``
        same-channel neighbours, ``c`` up to its degree (L + 2E floats)."""
        L = self.t.link_count
        size = 1 + np.bincount(self.cg.edges.ravel(), minlength=L)
        start, table = np.cumsum(size) - size, np.empty(size.sum())
        step = _block_rows(8 * int(size.max(initial=1)))
        for l0 in range(0, L, step):
            ids = np.repeat(np.arange(L)[l0:l0 + step], size[l0:l0 + step])
            at = start[l0] + np.arange(len(ids))
            table[at] = _link_fairness(at - start[ids], self, ids)
        return table, start

    @cached_property
    def binding(self) -> np.ndarray:
        """Ascending ids of the nodes whose radio budget can bind: fewer
        radios than both their link count and the channel count. Any
        other node's distinct channels always fit its radios."""
        t = self.t
        degree = np.bincount(np.concatenate((t.link_a, t.link_b)),
                             minlength=t.node_count)
        return np.flatnonzero(t.radios < np.minimum(degree, self.channels))

    @cached_property
    def binding_links(self) -> np.ndarray:
        """Row i holds the links of ``binding[i]``, padded to a common
        width by repeating its first link."""
        rows = [self.t.incident_links[v] for v in self.binding.tolist()]
        width = max(map(len, rows), default=1)
        return np.array([r + r[:1] * (width - len(r)) for r in rows],
                        dtype=np.int64).reshape(len(rows), width)

    @cached_property
    def bound_links(self) -> np.ndarray:
        """(L,) mask of the links with a binding endpoint; others are free."""
        t, binding = self.t, self.binding
        return np.isin(t.link_a, binding) | np.isin(t.link_b, binding)

    @cached_property
    def bound_walk(self) -> dict[int, list[tuple[np.ndarray, int]]]:
        """Per bound link, in ascending id order: each binding endpoint's
        other links and radio count, which decide its feasible channels."""
        t, binding = self.t, set(self.binding.tolist())
        return {lid: [(np.array([l for l in t.incident_links[v] if l != lid],
                                dtype=np.int64), t.radios[v])
                      for v in (t.link_a[lid], t.link_b[lid]) if v in binding]
                for lid in np.flatnonzero(self.bound_links).tolist()}


@dataclass
class Individual:
    assignment: ChannelAssignment
    report: FitnessReport


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float
    mean: float
    sigma: float


@dataclass
class GaResult:
    best: Individual
    history: list[GenerationStats]
    iterations: int
    stop_reason: str


def _evaluate_batch(genes: np.ndarray, problem: Problem,
                    fairness_fitness: bool) -> tuple[np.ndarray, np.ndarray]:
    """Link fairness (P, L) and fitness (P,) of a (P, L) gene array: each
    row's Jain index, or minus its total interference."""
    interference, fairness = _batch_link_fairness(genes, problem)
    if fairness_fitness:
        return fairness, jain_index(fairness)
    return fairness, -interference.sum(axis=1)


def _redraw(genes: np.ndarray, hit: np.ndarray, u: np.ndarray,
            problem: Problem) -> np.ndarray:
    """Give each hit gene of the (n, L) rows ``genes``, in place, the
    channel ``cand[int(u * len(cand))]`` of its feasible channels
    ``cand``, or a stuck merge if there are none. A free link's ``cand``
    is ``range(k)``, so free hits are drawn first, in one step; then the
    bound links are walked in ascending id order, each in all its hit
    rows at once. Rows are independent and free genes never change a
    binding node's channels, so on a valid row this equals walking one
    row's hit genes in link order."""
    np.copyto(genes, (u * problem.channels).astype(np.int64),
              where=hit & ~problem.bound_links)
    for lid in problem.bound_walk:
        rows = np.flatnonzero(hit[:, lid])
        if not rows.size:
            continue
        allowed = feasible_channels(lid, genes[rows], problem)
        count = allowed.sum(axis=1)
        pick = (u[rows, lid] * count).astype(np.int64)
        drawn = (allowed.cumsum(axis=1) > pick[:, None]).argmax(axis=1)
        genes[rows[count > 0], lid] = drawn[count > 0]
        nbrs = problem.cg.neighbors[lid]
        for i in rows[count == 0].tolist():
            _assign_stuck(lid, genes[i], nbrs[genes[i, nbrs] >= 0], problem)
    return genes


def init_population_semi_chaotic(problem: Problem, cfg: GaConfig,
                                 seed) -> np.ndarray:
    """(P, L) genes around ``problem.primary``: row 0 is the primary
    itself; the others keep its zero-interference (strong) genes and
    re-draw the rest from one (P, L) uniform array seeded by ``seed``."""
    primary = problem.primary.genes
    genes = np.tile(primary, (cfg.population_size, 1))
    hit = np.zeros(genes.shape, dtype=bool)
    hit[1:] = interference_matrix(primary, problem.cg, problem.m) > 0.0
    u = np.random.default_rng(seed).random(genes.shape)
    return _redraw(genes, hit, u, problem)


def init_population_random(problem: Problem, cfg: GaConfig,
                           seed) -> np.ndarray:
    """(P, L) random genes, each drawn from the channels the radio
    budgets allow, from one (P, L) uniform array seeded by ``seed``."""
    shape = (cfg.population_size, problem.t.link_count)
    genes = np.full(shape, UNASSIGNED, dtype=np.int64)
    u = np.random.default_rng(seed).random(shape)
    return _redraw(genes, np.ones(shape, dtype=bool), u, problem)


def select_parents(fitness: np.ndarray, stats: GenerationStats) -> np.ndarray:
    """Indices of the individuals whose fitness reaches the population
    mean plus one population standard deviation (from ``stats``), in
    population order; if fewer than two qualify, the top two by fitness
    (ties toward the lower index)."""
    selected = np.flatnonzero(fitness >= stats.mean + stats.sigma)
    if len(selected) >= 2:
        return selected
    return np.argsort(-fitness, kind="stable")[:2]


def crossover(genes_a: np.ndarray, fairness_a: np.ndarray,
              genes_b: np.ndarray, fairness_b: np.ndarray,
              problem: Problem) -> np.ndarray:
    """Children taking each gene from the parent whose link fairness is
    higher there (ties toward parent ``a``), each repaired if the mix
    broke a radio budget. Parents are (L,) rows or (n, L) batches, and
    the children have the same shape."""
    children = np.where(fairness_a >= fairness_b, genes_a, genes_b)
    if problem.binding.size:
        rows = children.reshape(-1, children.shape[-1])
        bad = ~within_budget(rows, problem)
        if bad.any():
            rows[bad] = repair_radio_constraint(rows[bad], problem)
    return children


def mutate(genes: np.ndarray, fairness: np.ndarray, cfg: GaConfig,
           problem: Problem, rng: np.random.Generator) -> np.ndarray:
    """Mutated copies of (n, L) genes: a weak gene (link fairness below
    the strong-gene threshold) is hit where one (n, L) uniform draw from
    ``rng`` is below ``mutation_prob``, and a second such draw gives its
    new channel (:func:`_redraw`). Strong genes are never touched."""
    out = np.array(genes, dtype=np.int64)
    hit = ((fairness < cfg.strong_gene_threshold)
           & (rng.random(out.shape) < cfg.mutation_prob))
    return _redraw(out, hit, rng.random(out.shape), problem)


def _check_population(genes: np.ndarray, problem: Problem) -> None:
    bad = ~within_budget(genes, problem)
    if bad.any():
        raise InvalidAssignment(
            f"individual {np.argmax(bad)} violates the radio constraint "
            "(library bug)"
        )


def run_ga(algorithm: str, problem: Problem, cfg: GaConfig,
           seed: int) -> GaResult:
    """Run the genetic loop of a GA variant (``ia_ga``, ``scga`` or
    ``fa_scga``) and return the best individual, per-generation
    statistics, and the executed iteration count.

    A pure function of its inputs and the seed: repeat calls are
    bit-identical. Where a radio budget can bind, a generation that
    breaks one raises :class:`InvalidAssignment`.
    """
    if algorithm not in _GA_KINDS:
        raise InvalidConfig(f"{algorithm!r} is not a GA variant")
    semi_chaotic, fair = _GA_KINDS[algorithm]
    init_ss, loop_ss = np.random.SeedSequence(seed).spawn(2)
    if semi_chaotic:
        genes = init_population_semi_chaotic(problem, cfg, init_ss)
    else:
        genes = init_population_random(problem, cfg, init_ss)
    rng = np.random.default_rng(loop_ss)
    fairness, fitness = _evaluate_batch(genes, problem, fair)
    best_genes, best_fitness = None, -np.inf
    history = []
    iterations = last_improvement = 0
    while True:
        if problem.binding.size:
            _check_population(genes, problem)
        i = int(np.argmax(fitness))  # first of the best
        if fitness[i] > best_fitness:
            best_genes, best_fitness = genes[i].copy(), fitness[i]
            last_improvement = iterations
        stats = GenerationStats(iterations, float(best_fitness),
                                float(fitness.mean()), float(fitness.std()))
        history.append(stats)
        if fair and best_fitness >= cfg.target_fairness:
            stop_reason = "target"
            break
        if not fair and best_fitness >= 0.0:
            stop_reason = "optimum"
            break
        if iterations - last_improvement >= cfg.stall_window:
            stop_reason = "stall"
            break
        if iterations >= cfg.max_iterations:
            stop_reason = "max_iterations"
            break

        parents = select_parents(fitness, stats)
        n = cfg.population_size
        a = parents[rng.integers(len(parents), size=n)]
        b = parents[rng.integers(len(parents), size=n)]
        children = crossover(genes[a], fairness[a], genes[b], fairness[b],
                             problem)
        child_fairness = _batch_link_fairness(children, problem)[1]
        # child 0 is replaced by the elite, so it is not mutated
        children[1:] = mutate(children[1:], child_fairness[1:], cfg, problem,
                              rng)
        children[0] = best_genes  # elitism
        genes = children
        fairness, fitness = _evaluate_batch(genes, problem, fair)
        iterations += 1
    return GaResult(
        best=Individual(ChannelAssignment(best_genes, problem.channels),
                        evaluate(problem, best_genes)),
        history=history,
        iterations=iterations,
        stop_reason=stop_reason,
    )


def run(algorithm: str, problem: Problem, cfg: GaConfig | None = None,
        seed: int = 0) -> GaResult:
    """Run one of the named algorithm variants on ``problem``.

    ``mclr`` evaluates the problem's primary chromosome with no search
    (iterations 0, fairness fitness); the GA variants run
    :func:`run_ga` as described in the module docstring.
    """
    if algorithm not in ALGORITHMS:
        raise InvalidConfig(
            f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}"
        )
    cfg = cfg or GaConfig()
    if algorithm != "mclr":
        return run_ga(algorithm, problem, cfg, seed)
    genes = problem.primary.genes.copy()
    report = evaluate(problem, genes)
    fi = report.fairness_index
    return GaResult(
        best=Individual(ChannelAssignment(genes, problem.channels), report),
        history=[GenerationStats(0, fi, fi, 0.0)],
        iterations=0,
        stop_reason="heuristic",
    )
