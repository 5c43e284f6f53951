"""The benchmark's per-layer tracer patches library functions by name
(``perfbench/tracing.py``). A renamed or moved call site would make its
layer read 0 in a trace; here it fails instead."""

from pathlib import Path

import meshca.harness
import meshca.topology
from meshca import ALGORITHMS, GaConfig, ScenarioConfig
from meshca.assignment import OverlapMatrix
from meshca.config import RadioModel
from conftest import make_topology

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hook_fires_once_per_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    scenarios = [ScenarioConfig(name=f"hooks{i}", node_count=10, area_w=500.0,
                                area_h=500.0, topologies_per_scenario=1,
                                master_seed=i)
                 for i in range(2)]
    tracer = Tracer()
    with tracer.installed():
        meshca.harness.run_sweep(scenarios, list(ALGORITHMS), tmp_path,
                                 ga=GaConfig(max_iterations=2))
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    topologies = tracer.counts["topologies"]
    assert topologies == 2
    assert tracer.calls["assignment.mclr"] == topologies
    assert tracer.calls["ranking.rank_links"] == topologies
    assert metrics["ranking.score_nodes_calls_per_topology"] == 1
    assert metrics["topology.conflict_edges"] > 0
    assert metrics["fitness.interference_ms"] > 0
    assert metrics["fitness.evaluations"] > 0
    for algorithm in ALGORITHMS:
        assert metrics[f"ga.run_ms.{algorithm}"] > 0


def test_oracle_hooks_fire(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    t = make_topology([(i * 55.0, 0.0) for i in range(6)],
                      link_pairs=[(i, i + 1) for i in range(5)], radios=1)
    tracer = Tracer()
    with tracer.installed():
        cg = meshca.topology.build_conflict_graph(t)
        before = tracer.calls["fitness.interference"]
        meshca.harness.brute_force_optimum(
            t, cg, OverlapMatrix.orthogonal(3), RadioModel(), 3)
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    assert metrics["harness.oracle_ms"] > 0
    assert tracer.calls["fitness.interference"] > before
    assert 0 < metrics["harness.oracle_feasible_share"] <= 1


def test_ga_operator_hooks_fire_under_a_binding_budget(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    # 2 radios for 6 channels on 10 nodes: several nodes have 3+ links,
    # so initialisation and mutation walk the bound links and crossover
    # repairs over-budget children
    scenario = ScenarioConfig(name="hooks_binding", node_count=10,
                              area_w=500.0, area_h=500.0, radios=2,
                              channels=6, topologies_per_scenario=1,
                              master_seed=0)
    tracer = Tracer()
    with tracer.installed():
        meshca.harness.run_sweep([scenario], list(ALGORITHMS), tmp_path,
                                 ga=GaConfig(max_iterations=2))
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    for name in ("ga.init_ms", "ga.mutate_ms", "ga.crossover_ms",
                 "assignment.repair_ms", "assignment.feasible_channels_calls"):
        assert metrics[name] > 0, name
