"""The four benchmark workloads and the pass that runs one of them.

A workload is built from the benchmark seed alone; the program only
receives the scenario configs built here. One pass runs the whole
workload once through ``meshca.harness.run_sweep`` (single process, no
worker pool) and, where the workload asks for them, the cross-entry-point
evaluations and the exhaustive oracle searches.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import meshca.assignment
import meshca.harness
import meshca.topology
from meshca import (ALGORITHMS, GaConfig, GaResult, MetricsRecord,
                    OracleResult, ScenarioConfig, Topology)

# The graded half of radio_bound always uses this master seed. Its
# cross-entry-point operations fail on every run while evaluate_file
# ignores the scenario's overlap kind, so their inputs must not depend on
# the benchmark seed for the failed share to stay the same in every run.
GRADED_MASTER_SEED = 20_060_965

# density of the paper-scale grid: 94 nodes in a 1000 m x 1000 m area
PAPER_NODES_PER_KM2 = 94.0

# The GA of every workload stops after 20 generations. With the default
# stall rule the GAs ran 20 to 124 generations on the larger topologies
# depending on the seed, which swung a pass's time by up to 30% from seed
# to seed, and a paper_sweep pass took 13 to 20 s, too long to repeat in
# a run. The cap equals the stall window, so every GA run that does not
# reach the fairness target does exactly 20 generations: the workloads
# measure the per-generation cost, and each pass is short enough to run
# several times in a run.
GA = GaConfig(max_iterations=20)


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[ScenarioConfig, ...]
    algorithms: tuple[str, ...]
    cross_entry: bool = False  # save + evaluate_file for every result
    oracle: bool = False  # brute_force_optimum on every topology


def _paper_sweep(seed: int) -> Workload:
    return Workload(
        "paper_sweep",
        tuple(meshca.harness.paper_scale_scenarios(master_seed=seed,
                                                   replicates=1)),
        ALGORITHMS, cross_entry=True)


def _radio_bound(seed: int) -> Workload:
    scenarios = []
    for nodes in (27, 94):
        scenarios.append(ScenarioConfig(
            name=f"a12_n{nodes}", node_count=nodes, channels=12,
            topologies_per_scenario=1, master_seed=seed))
    for nodes in (27, 94):
        scenarios.append(ScenarioConfig(
            name=f"g11_n{nodes}", node_count=nodes, channels=11,
            overlap_kind="graded", overlap_span=5,
            topologies_per_scenario=1, master_seed=GRADED_MASTER_SEED))
    return Workload("radio_bound", tuple(scenarios), ALGORITHMS,
                    cross_entry=True)


def _large_mesh(seed: int) -> Workload:
    scenarios = []
    for nodes in (150, 225, 300):
        side = round(1000.0 * math.sqrt(nodes / PAPER_NODES_PER_KM2), 1)
        scenarios.append(ScenarioConfig(
            name=f"mesh_n{nodes}", node_count=nodes, area_w=side,
            area_h=side, topologies_per_scenario=1, master_seed=seed))
    return Workload("large_mesh", tuple(scenarios), ("mclr", "fa_scga"))


# (name, nodes, side, channels, radios, links). The oracle costs
# channels ** links candidates and its fitness batches hold a row per
# candidate and a column per directed conflict edge, so each topology is
# held at an exact link count and a complete conflict graph: the master
# seed is the first one, counting up from seed * 1000, whose topology has
# that many links, all in conflict with each other. With the edge count
# left to the seed, the peak RSS moved by 13% from seed to seed.
ORACLE_TARGETS = (
    ("o3c_l11", 10, 700.0, 3, 3, 11),
    ("o3c_l12", 11, 700.0, 3, 3, 12),
    ("o4c2r_l09", 9, 650.0, 4, 2, 9),
    ("o4c2r_l10", 9, 650.0, 4, 2, 10),
)
ORACLE_SEED_TRIES = 500


def _oracle_small(seed: int) -> Workload:
    scenarios = []
    for index, (name, nodes, side, channels, radios, links) in enumerate(
            ORACLE_TARGETS):
        for k in range(ORACLE_SEED_TRIES):
            cfg = ScenarioConfig(
                name=name, node_count=nodes, area_w=side, area_h=side,
                channels=channels, radios=radios,
                topologies_per_scenario=1, master_seed=seed * 1000 + k)
            topo_seed = meshca.harness.replicate_seed(cfg.master_seed, index, 0)
            t = meshca.topology.generate_topology(cfg, topo_seed)
            if (t.link_count == links and
                    meshca.topology.build_conflict_graph(t).edge_count
                    == links * (links - 1) // 2):
                scenarios.append(cfg)
                break
        else:
            raise RuntimeError(f"no complete {links}-link topology for {name} "
                               f"at seed {seed}")
    return Workload("oracle_small", tuple(scenarios), ("mclr", "fa_scga"),
                    oracle=True)


BUILDERS = {
    "paper_sweep": _paper_sweep,
    "radio_bound": _radio_bound,
    "large_mesh": _large_mesh,
    "oracle_small": _oracle_small,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


@dataclass
class Result:
    """One (topology, algorithm) result of the sweep."""

    record: MetricsRecord
    ga: GaResult
    topology: Topology


@dataclass
class PassOutput:
    wall_s: float = 0.0
    results: list[Result] = field(default_factory=list)
    # (result, record from evaluate_file) per cross-entry operation
    evaluations: list[tuple[Result, MetricsRecord]] = field(default_factory=list)
    oracles: list[tuple[Topology, OracleResult]] = field(default_factory=list)
    # seconds per topology: its replicate, cross-entry and oracle calls
    segments: dict = field(default_factory=dict)


@contextmanager
def patched(module, attr: str, make):
    """Replace ``module.attr`` by ``make(original)`` for the duration."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


@contextmanager
def capture(topologies: dict, replicates: list, segments: dict):
    """Keep the topologies and GaResults that run_sweep discards, and
    time each replicate into ``segments``.

    run_replicate looks both names up at call time, so two thin wrappers
    are enough; they add one call per replicate to the pass.
    """
    def gen_wrapper(original):
        def generate_topology(config, seed):
            t = original(config, seed)
            topologies[(config.name, seed)] = t
            return t
        return generate_topology

    def replicate_wrapper(original):
        def run_replicate(config, seed, algorithms, ga):
            start = time.perf_counter()
            out = original(config, seed, algorithms, ga)
            segments[(config.name, seed)] = time.perf_counter() - start
            replicates.append(((config.name, seed), out))
            return out
        return run_replicate

    with patched(meshca.topology, "generate_topology", gen_wrapper), \
            patched(meshca.harness, "run_replicate", replicate_wrapper):
        yield


def run_pass(w: Workload, out_dir: Path) -> PassOutput:
    """Run the workload once; ``wall_s`` covers every program call and
    ``segments`` splits it by topology (the rest is run_sweep's own)."""
    out = PassOutput()
    topologies: dict = {}
    replicates: list = []
    sweep_dir = out_dir / "sweep"
    files_dir = out_dir / "files"
    files_dir.mkdir(parents=True, exist_ok=True)
    with capture(topologies, replicates, out.segments):
        start = time.perf_counter()
        meshca.harness.run_sweep(list(w.scenarios), list(w.algorithms),
                                 sweep_dir, ga=GA)
        for key, pairs in replicates:
            key_start = time.perf_counter()
            t = topologies[key]
            topo_path = files_dir / f"topology-{key[0]}.json"
            if w.cross_entry:
                meshca.topology.save_topology(t, topo_path)
            for record, ga in pairs:
                result = Result(record, ga, t)
                out.results.append(result)
                if w.cross_entry:
                    path = files_dir / f"assignment-{key[0]}-{record.algorithm}.csv"
                    meshca.assignment.save_assignment(
                        ga.best.assignment, path, algorithm=record.algorithm,
                        seed=record.seed)
                    out.evaluations.append(
                        (result, meshca.harness.evaluate_file(topo_path, path)))
            if w.oracle:
                cfg = t.params
                cg = meshca.topology.build_conflict_graph(t)
                m = meshca.assignment.overlap_for_config(cfg)
                out.oracles.append((t, meshca.harness.brute_force_optimum(
                    t, cg, m, cfg.radio_model, cfg.channels)))
            out.segments[key] += time.perf_counter() - key_start
        out.wall_s = time.perf_counter() - start
    return out
