"""Correctness checks on one pass, against the reference in reference.py.

Checked for every result: the reference recomputation of its metrics
and per-link interference, gene range, radio budgets, topology
connectivity and link lengths, and the program's conflict graph against
the reference conflict pairs. Properties the method must have: FI in
(0, 1]; on every topology ``fa_scga`` FI >= ``mclr`` FI (the primary
chromosome is individual 0 and the loop is elitist); the oracle's
assignment is feasible and its FI is >= every result on its topology.
"""

from __future__ import annotations

import meshca.topology

from reference import ABS_TOL, Reference, close, interference_errors, record_errors

CROSS_ENTRY_FIELDS = ("fairness_index", "fni", "nc_raw")


def cross_entry_mismatch(result, evaluated) -> list[str]:
    """Fields where evaluate_file disagrees with the sweep's row."""
    return [f for f in CROSS_ENTRY_FIELDS
            if not close(getattr(evaluated, f), getattr(result.record, f))]


def check_pass(out) -> list[str]:
    """Every error found in the pass; empty when all is correct.

    A cross-entry mismatch on a graded-overlap scenario is the known
    fault counted in ``failed``, not an error here; on an orthogonal
    scenario it is an error.
    """
    errors = []
    refs = {}
    by_topology: dict = {}
    for r in out.results:
        t = r.topology
        key = (t.params.name, t.seed)
        if key not in refs:
            ref = refs[key] = Reference(t)
            errors += [f"{key}: {e}" for e in ref.topology_errors()]
            edges = {tuple(e) for e in meshca.topology.build_conflict_graph(t).edges.tolist()}
            if edges != set(ref.pairs):
                errors.append(f"{key}: conflict graph differs from the reference pairs")
        ref = refs[key]
        genes = r.ga.best.assignment.genes.tolist()
        where = f"{key} {r.record.algorithm}"
        errors += [f"{where}: {e}" for e in record_errors(ref, genes, r.record)]
        errors += [f"{where}: {e}" for e in
                   interference_errors(ref, genes, r.ga.best.report.interference)[:3]]
        if r.record.iterations != r.ga.iterations:
            errors.append(f"{where}: iterations {r.record.iterations} != {r.ga.iterations}")
        by_topology.setdefault(key, {})[r.record.algorithm] = r.record.fairness_index

    for key, fi in by_topology.items():
        if "mclr" in fi and "fa_scga" in fi and fi["fa_scga"] < fi["mclr"] - ABS_TOL:
            errors.append(f"{key}: fa_scga FI {fi['fa_scga']!r} < mclr FI {fi['mclr']!r}")

    for r, evaluated in out.evaluations:
        if cross_entry_mismatch(r, evaluated) and r.topology.params.overlap_kind != "graded":
            errors.append(f"{r.record.scenario} {r.record.algorithm}: evaluate_file "
                          f"disagrees with the sweep on an orthogonal scenario")

    for t, oracle in out.oracles:
        key = (t.params.name, t.seed)
        ref = refs[key]
        genes = oracle.assignment.genes.tolist()
        bad = ref.assignment_errors(genes, t.params.channels)
        if bad:
            errors += [f"{key} oracle: {e}" for e in bad]
            continue
        want = ref.evaluate(genes)["fairness_index"]
        if not close(oracle.fitness, want):
            errors.append(f"{key} oracle: FI {oracle.fitness!r} != reference {want!r}")
        for algorithm, fi in by_topology[key].items():
            if fi > want + ABS_TOL:
                errors.append(f"{key}: {algorithm} FI {fi!r} beats the oracle's {want!r}")
    return errors


def failed_operations(out) -> int:
    return sum(1 for r, evaluated in out.evaluations if cross_entry_mismatch(r, evaluated))


def attempted_operations(out) -> int:
    return len(out.results) + len(out.evaluations) + len(out.oracles)


def digest(out) -> tuple:
    """Everything a pass reports except timings, for comparing passes."""
    def row(rec):
        return tuple(rec.to_csv_row()[:-1])  # wall_ms is the last column
    return (
        tuple(row(r.record) for r in out.results),
        tuple(row(e) for _, e in out.evaluations),
        tuple((o.fitness, tuple(o.assignment.genes.tolist())) for _, o in out.oracles),
    )
