import numpy as np
import pytest

from meshca.assignment import ChannelAssignment, OverlapMatrix, within_budget
from meshca.config import RadioModel, ScenarioConfig
from meshca.fitness import _batch_link_fairness, jain_index
from meshca.ga import Problem
from meshca.harness import OracleResult
from meshca.topology import Topology, build_conflict_graph


def make_topology(positions, link_pairs=None, radios=3, gateways=(0,),
                  comm_range=252.0, interference=514.0, channels=3,
                  required=None, area=None):
    """Hand-built topology with explicit geometry.

    ``link_pairs`` defaults to every node pair within the communication
    range; ``required`` is a scalar or per-link list of required rates
    (default 1.0, generous under the default radio model).
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if area is None:
        area = max(1000.0, float(positions.max(initial=0.0)) + 1.0)
    params = ScenarioConfig(
        name="manual",
        node_count=max(n, 2),
        area_w=area,
        area_h=area,
        comm_range=comm_range,
        interference_distance=interference,
        radios=radios,
        channels=channels,
    )
    if link_pairs is None:
        link_pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if np.linalg.norm(positions[i] - positions[j]) <= comm_range
        ]
    if required is None:
        required = 1.0
    if np.isscalar(required):
        required = [float(required)] * len(link_pairs)
    link_a = [a for a, _ in link_pairs]
    link_b = [b for _, b in link_pairs]
    return Topology(positions, [radios] * n, gateways, link_a, link_b,
                    required, params, seed=0)


def line_topology(n=4, spacing=100.0, **kwargs):
    """Nodes on a horizontal line, gateway at node 0, chain links only."""
    positions = [(i * spacing, 0.0) for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    return make_topology(positions, link_pairs=pairs, **kwargs)


def make_problem(t, m=None, rm=None):
    """``t``'s problem, by default with orthogonal channels and the
    default radio model."""
    m = m or OverlapMatrix.orthogonal(t.params.channels)
    return Problem(t, build_conflict_graph(t), m, rm or RadioModel())


def reference_radio_violations(genes, t):
    """Nodes whose assigned incident links use more distinct channels
    than the node has radios, as (node, channel count) pairs; a
    set-based check independent of the library's budget code."""
    out = []
    for v in range(t.node_count):
        channels = {int(genes[l]) for l in t.incident_links[v]
                    if genes[l] >= 0}
        if len(channels) > t.radios[v]:
            out.append((v, len(channels)))
    return out


def assert_valid(genes, t, channel_count):
    """One gene per link, each in range, and every radio budget kept."""
    genes = np.asarray(genes)
    assert genes.shape == (t.link_count,)
    assert ((genes >= 0) & (genes < channel_count)).all()
    assert reference_radio_violations(genes, t) == []


def reference_brute_force(t, cg, m, rm, channels, fitness_kind="fairness"):
    """The oracle by full enumeration: every one of the ``channels **
    link_count`` assignments in lexicographic order, in chunks, keeping
    the first optimum. Counts cover every assignment."""
    problem = Problem(t, cg, m, rm)
    L = t.link_count
    total = channels ** L
    weights = channels ** np.arange(L - 1, -1, -1, dtype=np.int64)
    best_fitness = -np.inf
    best_genes = None
    feasible_total = 0
    for start in range(0, total, 1 << 15):
        idx = np.arange(start, min(start + (1 << 15), total), dtype=np.int64)
        genes = (idx[:, None] // weights[None, :]) % channels
        if problem.binding.size:
            genes = genes[within_budget(genes, problem)]
            if not len(genes):
                continue
        feasible_total += len(genes)
        interference, _, _, fairness = _batch_link_fairness(genes, problem)
        if fitness_kind == "fairness":
            values = jain_index(fairness)
        else:
            values = -interference.sum(axis=1)
        i = int(np.argmax(values))
        if values[i] > best_fitness:
            best_fitness = float(values[i])
            best_genes = genes[i].copy()
    return OracleResult(ChannelAssignment(best_genes, channels), best_fitness,
                        total, feasible_total)


@pytest.fixture
def small_random_topology():
    from meshca.topology import generate_topology

    cfg = ScenarioConfig(name="small", node_count=12)
    return generate_topology(cfg, seed=5)


@pytest.fixture
def small_conflict(small_random_topology):
    return build_conflict_graph(small_random_topology)
