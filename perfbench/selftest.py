"""Self-test of the reference check: it must accept a correct result and
reject a wrong fairness index and a radio-budget violation.

Run standalone with ``python3 perfbench/selftest.py`` from the repository
root; ``run.py`` also runs it on every benchmark run.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

SCENARIO = dict(name="selftest", node_count=12, channels=4, radios=2,
                topologies_per_scenario=1)


def problems() -> list[str]:
    """What the reference check got wrong; empty when it works."""
    import meshca.harness
    import meshca.topology
    from meshca import GaConfig, ScenarioConfig

    from reference import Reference, record_errors

    cfg = ScenarioConfig(**SCENARIO)
    # first seed whose topology has a node with more links than radios
    for seed in range(100):
        t = meshca.topology.generate_topology(cfg, seed)
        ref = Reference(t)
        degree = [0] * len(ref.pos)
        for a, b in ref.ends:
            degree[a] += 1
            degree[b] += 1
        crowded = [v for v, d in enumerate(degree) if d > cfg.radios]
        if crowded:
            break
    else:
        return ["no self-test topology with a node over its radio budget"]
    [(record, result)] = meshca.harness.run_replicate(cfg, seed, ["mclr"], GaConfig())
    genes = result.best.assignment.genes.tolist()

    out = []
    if record_errors(ref, genes, record):
        out.append("the check rejects a correct mclr result")
    wrong_fi = dataclasses.replace(record, fairness_index=record.fairness_index * 0.999)
    if not record_errors(ref, genes, wrong_fi):
        out.append("the check accepts a wrong fairness index")
    v = crowded[0]
    over = list(genes)
    incident = [lid for lid, (a, b) in enumerate(ref.ends) if v in (a, b)]
    for channel, lid in enumerate(incident[: cfg.radios + 1]):
        over[lid] = channel
    if not any("radios" in e for e in record_errors(ref, over, record)):
        out.append("the check accepts a radio-budget violation")
    return out


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    found = problems()
    for p in found:
        print(f"self-test: {p}")
    print("self-test passed" if not found else "self-test FAILED")
    sys.exit(1 if found else 0)
