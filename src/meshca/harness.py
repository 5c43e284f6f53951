"""Experiment harness: seeded scenario sweeps, the exhaustive-search
oracle, metric CSV emission, and evaluation of externally supplied
assignment files.

Every entry point scores a topology through one :class:`~meshca.ga.Problem`
built by :func:`problem_for`, and every results row comes from
:func:`run_row`. A sweep row is reproducible on its own: the ``seed``
column is the integer that regenerates the row's topology, and the GA
for that row is seeded with ``seed + GA_SEED_OFFSET``. Replicates may run
in a process pool; rows are written in deterministic (scenario, seed,
algorithm) order whatever the worker count.
"""

from __future__ import annotations

import csv
import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path

import numpy as np

from .assignment import (
    BLAS_THREAD_VARS,
    ChannelAssignment,
    OverlapMatrix,
    channels_in_use,
    load_assignment,
    overlap_for_config,
    within_budget,
)
from .config import MAX_WORKERS, GaConfig, RadioModel, ScenarioConfig
from .errors import (InconsistentInputs, InvalidConfig, NonFiniteMetric,
                     SearchSpaceTooLarge)
from .fitness import FitnessReport, evaluate
from .ga import ALGORITHMS, GaResult, Problem, _evaluate_batch, run
from .topology import ConflictGraph, Topology, build_conflict_graph, load_topology

GA_SEED_OFFSET = 1


@dataclass
class MetricsRecord:
    """One results row: all evaluation metrics for one (scenario,
    replicate, algorithm) run."""

    scenario: str
    seed: int
    algorithm: str
    links: int
    nc_raw: float
    nc_norm: float
    fni: float
    mean_link_cap: float
    mean_link_intf: float
    mean_link_fair: float
    fairness_index: float
    iterations: int
    wall_ms: float

    def to_csv_row(self) -> list[str]:
        return [str(getattr(self, name)) for name in RESULTS_HEADER]


RESULTS_HEADER = [f.name for f in fields(MetricsRecord)]
# per-replicate metrics that aggregates.csv averages
_AVERAGED = [name for name in RESULTS_HEADER
             if name not in ("scenario", "seed", "algorithm", "wall_ms")]
AGGREGATES_HEADER = ["scenario", "algorithm", "replicates", *_AVERAGED]


def require_finite(**metrics: float) -> None:
    """Raise ``NonFiniteMetric`` naming every metric that is NaN or
    infinite: no such number is ever reported."""
    bad = [f"{name} = {value!r}" for name, value in metrics.items()
           if not math.isfinite(value)]
    if bad:
        raise NonFiniteMetric("non-finite metric: " + ", ".join(bad))


def build_record(scenario: str, seed: int, algorithm: str,
                 report: FitnessReport, iterations: int,
                 wall_ms: float) -> MetricsRecord:
    """The results row of ``report``.

    Raises
    ------
    NonFiniteMetric
        If any metric of the row is NaN or infinite.
    """
    record = MetricsRecord(
        scenario=scenario,
        seed=seed,
        algorithm=algorithm,
        links=len(report.interference),
        nc_raw=report.nc_raw,
        nc_norm=report.nc_norm,
        fni=report.fni,
        mean_link_cap=report.nc_norm,  # nc_norm is the mean link capacity
        mean_link_intf=float(report.interference.mean()),
        mean_link_fair=float(report.link_fairness.mean()),
        fairness_index=report.fairness_index,
        iterations=iterations,
        wall_ms=wall_ms,
    )
    require_finite(**{name: value for name, value in vars(record).items()
                      if isinstance(value, float)})
    return record


def problem_for(t: Topology, config: ScenarioConfig | None = None) -> Problem:
    """The assignment problem on ``t``: its conflict graph, with the
    overlap, channel count and radio model of ``config`` (default: the
    topology's own scenario)."""
    config = config or t.params
    return Problem(t, build_conflict_graph(t), overlap_for_config(config),
                   config.radio_model)


def run_row(problem: Problem, algorithm: str, ga: GaConfig,
            seed: int) -> tuple[MetricsRecord, GaResult]:
    """Run one algorithm for the results row of ``seed``, the row seed
    that regenerates ``problem``'s topology; the GA runs with
    ``seed + GA_SEED_OFFSET``. ``wall_ms`` covers the algorithm, plus the
    problem's rank table and primary chromosome when it builds them.

    Raises
    ------
    InvalidConfig
        If ``seed`` is negative: no topology has such a seed.
    """
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    start = time.perf_counter()
    result = run(algorithm, problem, ga, seed + GA_SEED_OFFSET)
    wall_ms = (time.perf_counter() - start) * 1000.0
    record = build_record(problem.t.params.name, seed, algorithm,
                          result.best.report, result.iterations, wall_ms)
    return record, result


def replicate_seed(master_seed: int, scenario_index: int,
                   replicate_index: int) -> int:
    """Deterministic per-replicate seed; also the value recorded in the
    results CSV, so any row can be regenerated standalone."""
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(scenario_index, replicate_index))
    return int(ss.generate_state(1, np.uint64)[0])


def run_replicate(config: ScenarioConfig, seed: int, algorithms: list[str],
                  ga: GaConfig) -> list[tuple[MetricsRecord, GaResult]]:
    """Generate one topology and run each algorithm on its one problem."""
    from .topology import generate_topology

    problem = problem_for(generate_topology(config, seed))
    return [run_row(problem, algorithm, ga, seed) for algorithm in algorithms]


def _sweep_job(args) -> list[MetricsRecord]:
    config, seed, algorithms, ga = args
    return [rec for rec, _ in run_replicate(config, seed, algorithms, ga)]


def aggregate_records(records: list[MetricsRecord]) -> list[dict]:
    """Mean over replicates per (scenario, algorithm), in first-seen
    scenario order then algorithm order."""
    groups: dict[tuple[str, str], list[MetricsRecord]] = {}
    for rec in records:
        groups.setdefault((rec.scenario, rec.algorithm), []).append(rec)
    rows = []
    for (scenario, algorithm), grp in groups.items():
        row = {"scenario": scenario, "algorithm": algorithm,
               "replicates": len(grp)}
        for name in _AVERAGED:
            row[name] = float(np.mean([getattr(r, name) for r in grp]))
        rows.append(row)
    return rows


def write_aggregates_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(AGGREGATES_HEADER)
        for row in rows:
            w.writerow([str(row[name]) for name in AGGREGATES_HEADER])


@contextmanager
def _one_blas_thread():
    """Set ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``, where unset,
    to 1 for the block: processes spawned in it run one BLAS thread, as
    threaded OpenBLAS in several processes on few cores stalls."""
    added = [name for name in BLAS_THREAD_VARS if name not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)


def run_sweep(scenarios: list[ScenarioConfig], algorithms: list[str],
              out_dir: str | Path, ga: GaConfig | None = None,
              workers: int = 1) -> list[MetricsRecord]:
    """Run every scenario x replicate x algorithm combination.

    Writes ``results.csv`` (one row per run, in scenario order, each
    scenario's rows by seed then algorithm, flushed scenario by scenario)
    and ``aggregates.csv`` (one row per scenario and algorithm, metrics
    averaged over replicates). Returns the result records in file order.
    With ``workers > 1`` the replicates run in a pool of spawned
    processes with one BLAS thread each (unless ``OPENBLAS_NUM_THREADS``
    or ``OMP_NUM_THREADS`` is set), whose ordered ``map`` gives the same
    files as a serial run. A bad ``algorithms`` list or ``workers`` count,
    or two different scenarios of one name (their rows would merge),
    raises :class:`InvalidConfig`; the configs were checked when built.
    """
    ga = ga or GaConfig()
    if not isinstance(algorithms, (list, tuple)) or not algorithms:
        raise InvalidConfig(
            f"algorithms must be a non-empty list, got {algorithms!r}"
        )
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise InvalidConfig(f"unknown algorithm {algorithm!r}")
    if len(set(algorithms)) != len(algorithms):
        raise InvalidConfig(f"algorithms repeat a name: {algorithms!r}")
    if type(workers) is not int or not 1 <= workers <= MAX_WORKERS:
        raise InvalidConfig(f"workers must be an int in [1, {MAX_WORKERS}], "
                            f"got {workers!r}")
    named = {}
    for scenario in scenarios:
        if named.setdefault(scenario.name, scenario) != scenario:
            raise InvalidConfig(f"scenarios named {scenario.name!r} differ")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [(scenario, replicate_seed(scenario.master_seed, s_idx, r_idx),
             list(algorithms), ga)
            for s_idx, scenario in enumerate(scenarios)
            for r_idx in range(scenario.topologies_per_scenario)]
    records: list[MetricsRecord] = []
    env = pool = nullcontext()
    if workers > 1:
        # imported here: the pool machinery costs about 1.5 MB and 8 ms
        # at import, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        env = _one_blas_thread()
        pool = ProcessPoolExecutor(workers, mp_context=get_context("spawn"))
    with env, open(out_dir / "results.csv", "w", newline="") as fh, pool:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        # both maps yield in job order: each scenario, by position, takes
        # its replicates' next results, and is written once they are in
        results = (pool.map if workers > 1 else map)(_sweep_job, jobs)
        for scenario in scenarios:
            done = islice(results, scenario.topologies_per_scenario)
            rows = sorted((rec for recs in done for rec in recs),
                          key=lambda r: (r.seed,
                                         algorithms.index(r.algorithm)))
            writer.writerows(rec.to_csv_row() for rec in rows)
            fh.flush()
            records += rows

    write_aggregates_csv(aggregate_records(records), out_dir / "aggregates.csv")
    return records


def write_history_csv(result: GaResult, path: str | Path) -> None:
    """Per-generation convergence rows (generation, best, mean, sigma)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["generation", "best", "mean", "sigma"])
        for row in result.history:
            w.writerow([row.generation, repr(row.best), repr(row.mean),
                        repr(row.sigma)])


# ---------------------------------------------------------------------------
# exhaustive oracle

SEARCH_GUARD = 10 ** 7
# rows per scored block: each block's float64 (rows, L) temporaries and
# packed float32 counts then stay inside a core's L2 cache, and the
# oracle's working set stays a few MB however large the search space is
_CHUNK = 1 << 12


@dataclass
class OracleResult:
    """The exact optimum of one oracle search.

    ``candidates`` counts the assignments scored and ``feasible`` those
    within every radio budget. Under orthogonal overlap both count one
    assignment per channel relabelling (its restricted-growth
    representative); under any other overlap they count all
    ``channels ** link_count`` assignments. The search scores them in
    blocks of at most ``_CHUNK`` rows, so its memory does not grow with
    these counts.
    """

    assignment: ChannelAssignment
    fitness: float
    candidates: int
    feasible: int


def _all_assignments(links: int, channels: int):
    """Every assignment of ``channels`` channels to ``links`` links, in
    lexicographic order, as (<= _CHUNK, links) chunks."""
    total = channels ** links
    weights = channels ** np.arange(links - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield (idx[:, None] // weights[None, :]) % channels


def _rgs_tails(length: int, channels: int, top: int) -> np.ndarray:
    """Every way, in lexicographic order, to extend a restricted-growth
    string whose largest channel is ``top`` (-1 for the empty string) by
    ``length`` genes, each at most one above the largest before it."""
    rows = np.concatenate(list(_all_assignments(length, channels)))
    before = np.column_stack((np.full(len(rows), top), rows[:, :-1]))
    return rows[(rows <= np.maximum.accumulate(before, axis=1) + 1).all(axis=1)]


def _relabelling_representatives(links: int, channels: int):
    """Every restricted-growth string of ``links`` genes over ``channels``
    channels (``g[0] = 0``, ``g[i] <= 1 + max(g[:i])``), in lexicographic
    order, as (<= _CHUNK, links) chunks. Each is the lexicographically
    smallest assignment of its channel-relabelling orbit.

    Each chunk is one head row followed by every tail for the head's
    largest channel. The tails are as long as a table of at most
    ``_CHUNK`` rows allows, so the heads are few."""
    tail_len = 0
    while tail_len < links and channels ** (tail_len + 1) <= _CHUNK:
        tail_len += 1
    head_len = links - tail_len
    tails: dict[int, np.ndarray] = {}
    for head in _rgs_tails(head_len, channels, -1):
        top = int(head.max(initial=-1))
        if top not in tails:
            tails[top] = _rgs_tails(tail_len, channels, top)
        rows = tails[top]
        yield np.column_stack((np.broadcast_to(head, (len(rows), head_len)),
                               rows))


def brute_force_optimum(t: Topology, cg: ConflictGraph, m: OverlapMatrix,
                        rm: RadioModel, channels: int,
                        fitness_kind: str = "fairness") -> OracleResult:
    """Enumerate the radio-feasible assignments and return the exact
    optimum: the first in lexicographic gene order on ties.

    Fitness is the fairness index, or minus the total interference for
    ``fitness_kind="interference"``, matching the GA's maximization
    interface.

    Under orthogonal overlap (an identity overlap matrix), relabelling
    the channels changes neither the fitness nor the radio budgets, and
    the interference counts are exact integers, so ties are exact. Only
    each relabelling orbit's lexicographically smallest member, a
    restricted-growth string, is scored then: about ``channels **
    link_count / channels!`` assignments. The first optimum over all
    assignments is such a member, so the result is the same as the full
    enumeration's. Any other overlap enumerates every assignment.

    Candidates are generated and scored one block of at most
    ``_CHUNK`` (4,096) rows at a time, keeping only the best so far, so
    the working set is a few MB whatever the search space's size.

    Raises
    ------
    InconsistentInputs
        If ``channels`` is not the overlap matrix's channel count.
    SearchSpaceTooLarge
        If ``channels ** link_count`` exceeds the 10^7 guard, whatever
        the overlap, or no assignment keeps every radio budget.
    """
    if fitness_kind not in ("fairness", "interference"):
        raise InvalidConfig(f"unknown fitness_kind {fitness_kind!r}")
    if channels != m.channel_count:
        raise InconsistentInputs(
            f"{channels} channels requested, overlap matrix has "
            f"{m.channel_count}"
        )
    problem = Problem(t, cg, m, rm)
    L = t.link_count
    total = channels ** L
    if total > SEARCH_GUARD:
        raise SearchSpaceTooLarge(
            f"{channels}^{L} = {total} assignments exceeds the "
            f"{SEARCH_GUARD} guard"
        )
    if m.identity:
        chunks = _relabelling_representatives(L, channels)
    else:
        chunks = _all_assignments(L, channels)
    best_fitness = -np.inf
    best_genes = None
    candidates = feasible_total = 0
    for genes in chunks:
        candidates += len(genes)
        if problem.binding.size:
            genes = genes[within_budget(genes, problem)]
            if not len(genes):
                continue
        feasible_total += len(genes)
        # bind both: the block's arrays then live until the next block's
        # exist, and are not unmapped and re-mapped by malloc every block
        fairness, values = _evaluate_batch(genes, problem,
                                           fitness_kind == "fairness")
        i = int(np.argmax(values))
        if values[i] > best_fitness:
            best_fitness = float(values[i])
            best_genes = genes[i].copy()
    if best_genes is None:
        raise SearchSpaceTooLarge("no radio-feasible assignment found")
    return OracleResult(
        assignment=ChannelAssignment(best_genes, channels),
        fitness=best_fitness,
        candidates=candidates,
        feasible=feasible_total,
    )


# ---------------------------------------------------------------------------
# external-file evaluation


def evaluate_file(topology_path: str | Path,
                  assignment_path: str | Path) -> MetricsRecord:
    """Recompute all metrics for an externally supplied assignment.

    The assignment must cover exactly the topology's link ids with the
    topology's channel count, and keep every node within its radio
    budget. It is scored on the topology's :func:`problem_for`, as in
    :func:`run_replicate`. Seed, algorithm and iterations come from the
    assignment's headers (default: the topology's seed, unknown, 0).

    Raises
    ------
    ParseError
        If either file is malformed.
    InconsistentInputs
        If the files do not describe the same set of links or channels,
        or the assignment gives a node more channels than radios.
    """
    t = load_topology(topology_path)
    a, meta = load_assignment(assignment_path)
    if len(a.genes) != t.link_count:
        raise InconsistentInputs(
            f"assignment covers {len(a.genes)} links, topology has "
            f"{t.link_count}"
        )
    if a.channel_count != t.params.channels:
        raise InconsistentInputs(
            f"assignment uses {a.channel_count} channels, topology has "
            f"{t.params.channels}"
        )
    start = time.perf_counter()
    problem = problem_for(t)
    in_use = channels_in_use(a.genes, problem)
    over = np.flatnonzero(in_use > t.radios[problem.binding])
    if over.size:
        v = int(problem.binding[over[0]])
        raise InconsistentInputs(
            f"assignment gives node {v} {in_use[over[0]]} channels, but it "
            f"has {t.radios[v]} radios"
        )
    report = evaluate(problem, a.genes)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return build_record(t.params.name, meta.get("seed", t.seed),
                        meta["algorithm"], report,
                        iterations=meta.get("iterations", 0), wall_ms=wall_ms)


# ---------------------------------------------------------------------------
# scenario builders


def paper_scale_scenarios(master_seed: int = 0,
                          replicates: int = 3) -> list[ScenarioConfig]:
    """Eight scenarios sized to land near the classic link counts
    (5..126) under the default geometry; node counts were calibrated
    against the generator."""
    targets = [
        ("links005", 5, 5),
        ("links016", 12, 16),
        ("links036", 27, 36),
        ("links046", 35, 46),
        ("links058", 44, 58),
        ("links078", 59, 78),
        ("links119", 89, 119),
        ("links126", 94, 126),
    ]
    out = []
    for name, nodes, _ in targets:
        out.append(ScenarioConfig(
            name=name,
            node_count=nodes,
            topologies_per_scenario=replicates,
            master_seed=master_seed,
        ))
    return out
