"""Per-layer tracing from outside the program.

The tracer replaces public functions on the namespaces that call them
(``meshca.ga.crossover``, ``meshca.fitness.interference_matrix``, ...)
with timing wrappers for the duration of one pass. Spans are aggregated
per name in memory: calls, inclusive time and self time (inclusive time
minus the time of wrapped calls made inside). Counters are taken from the
arguments and return values at the same boundaries.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import meshca.fitness
import meshca.ga
import meshca.harness
import meshca.topology
from meshca import ALGORITHMS

from workloads import patched


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.edges_by_topology: dict = {}
        self._child_s: list[float] = []

    def wrap(self, name, original, on_return=None):
        """Timing wrapper; ``name`` may be a function of the arguments."""
        clock = time.perf_counter
        stack = self._child_s

        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            stack.append(0.0)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - child
            if on_return is not None:
                on_return(out, *args)
            return out
        return wrapper

    # counters -------------------------------------------------------------

    def _generated(self, t, *_):
        self.counts["topologies"] += 1
        self.counts["links"] += t.link_count

    def _conflict_graph(self, cg, t):
        self.edges_by_topology[(t.params.name, t.seed)] = cg.edge_count

    def _repair(self, out, genes, *_):
        if out is not genes:
            self.counts["repair_rebuilds"] += 1

    def _interference(self, out, *_):
        rows = 1 if out.ndim == 1 else out.shape[0]
        self.counts["evaluations"] += rows
        self.counts["link_evals"] += rows * out.shape[-1]

    def _run_ga(self, result, *_):
        self.counts["generations"] += result.iterations

    def _oracle(self, result, *_):
        self.counts["oracle_candidates"] += result.candidates
        self.counts["oracle_feasible"] += result.feasible

    @contextmanager
    def installed(self):
        """Install every wrapper; the originals come back on exit."""
        w = self.wrap
        hooks = [
            (meshca.topology, "generate_topology", "topology.generate", self._generated),
            (meshca.topology, "build_conflict_graph", "topology.conflict_graph", self._conflict_graph),
            (meshca.harness, "build_conflict_graph", "topology.conflict_graph", self._conflict_graph),
            (meshca.ga, "score_nodes", "ranking.score_nodes", None),
            (meshca.ga, "rank_links", "ranking.rank_links", None),
            (meshca.ga, "mclr_assign", "assignment.mclr", None),
            (meshca.ga, "repair_radio_constraint", "assignment.repair", self._repair),
            (meshca.ga, "feasible_channels", "assignment.feasible_channels", None),
            (meshca.ga, "interference_matrix", "fitness.interference", self._interference),
            (meshca.fitness, "interference_matrix", "fitness.interference", self._interference),
            (meshca.ga, "jain_index", "fitness.jain", None),
            (meshca.fitness, "jain_index", "fitness.jain", None),
            (meshca.ga, "init_population_semi_chaotic", "ga.init", None),
            (meshca.ga, "init_population_random", "ga.init", None),
            (meshca.ga, "select_parents", "ga.select", None),
            (meshca.ga, "crossover", "ga.crossover", None),
            (meshca.ga, "mutate", "ga.mutate", None),
            (meshca.ga, "_evaluate_batch", "ga.evaluate", None),
            (meshca.ga, "run_ga", "ga.run_ga", self._run_ga),
            (meshca.harness, "run", lambda algorithm, *a, **k: f"ga.run.{algorithm}", None),
            (meshca.harness, "run_replicate", "harness.replicate", None),
            (meshca.harness, "run_sweep", "harness.sweep", None),
            (meshca.harness, "brute_force_optimum", "harness.oracle", self._oracle),
            (meshca.harness, "evaluate_file", "harness.evaluate_file", None),
        ]
        with ExitStack() as stack:
            for module, attr, name, hook in hooks:
                stack.enter_context(patched(
                    module, attr,
                    lambda original, name=name, hook=hook: w(name, original, hook)))
            yield self

    # metrics --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, calls = self.counts, self.calls

        def ms(span):
            return self.total_s[span] * 1000.0

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "topology.generate_ms": (ms("topology.generate"), "ms"),
            "topology.conflict_graph_ms": (ms("topology.conflict_graph"), "ms"),
            "topology.links": (c["links"], "count"),
            "topology.conflict_edges": (float(sum(self.edges_by_topology.values())), "count"),
            "ranking.score_nodes_ms": (ms("ranking.score_nodes"), "ms"),
            "ranking.score_nodes_calls_per_topology": (
                ratio(calls["ranking.score_nodes"], c["topologies"]), "count"),
            "ranking.rank_links_ms": (ms("ranking.rank_links"), "ms"),
            "assignment.mclr_ms": (ms("assignment.mclr"), "ms"),
            "assignment.repair_ms": (ms("assignment.repair"), "ms"),
            "assignment.repair_calls": (float(calls["assignment.repair"]), "count"),
            "assignment.repair_rebuilds": (c["repair_rebuilds"], "count"),
            "assignment.feasible_channels_calls": (
                float(calls["assignment.feasible_channels"]), "count"),
            "fitness.interference_ms": (ms("fitness.interference"), "ms"),
            "fitness.evaluations": (c["evaluations"], "count"),
            "fitness.link_evals_per_s": (
                ratio(c["link_evals"], self.total_s["fitness.interference"]), "1/s"),
            "fitness.jain_calls": (float(calls["fitness.jain"]), "count"),
            "fitness.jain_ms": (ms("fitness.jain"), "ms"),
            "ga.init_ms": (ms("ga.init"), "ms"),
            "ga.select_ms": (ms("ga.select"), "ms"),
            "ga.crossover_ms": (ms("ga.crossover"), "ms"),
            "ga.mutate_ms": (ms("ga.mutate"), "ms"),
            "ga.evaluate_ms": (ms("ga.evaluate"), "ms"),
            "ga.generations": (c["generations"], "count"),
            "ga.ms_per_generation": (ratio(ms("ga.run_ga"), c["generations"]), "ms"),
            "ga.generations_per_s": (
                ratio(c["generations"], self.total_s["ga.run_ga"]), "1/s"),
            "ga.run_ga_self_ms": (self.self_s["ga.run_ga"] * 1000.0, "ms"),
            "harness.oracle_ms": (ms("harness.oracle"), "ms"),
            "harness.oracle_candidates_per_s": (
                ratio(c["oracle_candidates"], self.total_s["harness.oracle"]), "1/s"),
            "harness.oracle_feasible_share": (
                ratio(c["oracle_feasible"], c["oracle_candidates"]), "ratio"),
            "harness.sweep_io_ms": (self.self_s["harness.sweep"] * 1000.0, "ms"),
            "harness.evaluate_file_ms": (ms("harness.evaluate_file"), "ms"),
        }
        for algorithm in ALGORITHMS:
            out[f"ga.run_ms.{algorithm}"] = (ms(f"ga.run.{algorithm}"), "ms")
        return out
