"""Independent reference check, in plain Python.

Everything here is recomputed from a topology's positions, required
rates and scenario config and from an assignment's genes, with the
formulas of ``meshca.config.RadioModel`` and the ``meshca.fitness``
docstrings. No meshca function is called: the check shares no code with
the program it checks.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
ABS_TOL = 1e-12


class Reference:
    """Conflict pairs and link geometry of one topology."""

    def __init__(self, t):
        p = t.params
        self.params = p
        self.pos = [(float(x), float(y)) for x, y in t.positions.tolist()]
        self.radios = [int(r) for r in t.radios.tolist()]
        self.ends = [(int(a), int(b)) for a, b in zip(t.link_a.tolist(), t.link_b.tolist())]
        self.required = [float(r) for r in t.required_rates.tolist()]
        self.lengths = [math.dist(self.pos[a], self.pos[b]) for a, b in self.ends]
        L = len(self.ends)
        self.pairs = []
        for i in range(L):
            a1, b1 = self.ends[i]
            for j in range(i + 1, L):
                a2, b2 = self.ends[j]
                d = min(math.dist(self.pos[u], self.pos[v])
                        for u in (a1, b1) for v in (a2, b2))
                if d < p.interference_distance:
                    self.pairs.append((i, j))
        self.neighbors = [[] for _ in range(L)]
        for i, j in self.pairs:
            self.neighbors[i].append(j)
            self.neighbors[j].append(i)

    def overlap(self, c1: int, c2: int) -> float:
        if self.params.overlap_kind == "graded":
            return max(0.0, 1.0 - abs(c1 - c2) / self.params.overlap_span)
        return 1.0 if c1 == c2 else 0.0

    def topology_errors(self) -> list[str]:
        """Connectivity and ``link length <= comm_range``."""
        errors = []
        n = len(self.pos)
        adj = [[] for _ in range(n)]
        for lid, (a, b) in enumerate(self.ends):
            adj[a].append(b)
            adj[b].append(a)
            if self.lengths[lid] > self.params.comm_range:
                errors.append(f"link {lid} length {self.lengths[lid]} > comm_range")
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            errors.append(f"topology not connected ({len(seen)} of {n} nodes reached)")
        return errors

    def assignment_errors(self, genes, channels: int) -> list[str]:
        """Gene range and the per-node radio budget."""
        errors = []
        if len(genes) != len(self.ends):
            return [f"{len(genes)} genes for {len(self.ends)} links"]
        used = [set() for _ in self.pos]
        for lid, g in enumerate(genes):
            if not 0 <= g < channels:
                errors.append(f"link {lid} channel {g} outside [0, {channels})")
            a, b = self.ends[lid]
            used[a].add(g)
            used[b].add(g)
        for v, chans in enumerate(used):
            if len(chans) > self.radios[v]:
                errors.append(f"node {v} uses {len(chans)} channels with {self.radios[v]} radios")
        return errors

    def evaluate(self, genes) -> dict:
        """Interference, link fairness, Jain's index, capacity and FNI."""
        rm = self.params.radio_model
        interference = [
            sum(self.overlap(genes[l], genes[n]) for n in self.neighbors[l])
            for l in range(len(genes))
        ]
        fairness = []
        for l, intf in enumerate(interference):
            length = max(self.lengths[l], rm.min_distance)
            snr = rm.tss / (10.0 * rm.path_loss_exp * (1.0 + intf) * math.log10(length))
            rate = rm.bandwidth * math.log2(1.0 + snr)
            fairness.append(min(1.0, rate / self.required[l]))
        L = len(genes)
        s1 = sum(fairness)
        s2 = sum(f * f for f in fairness)
        nc_raw = sum(1.0 / (1.0 + i) for i in interference)
        conflicted = sum(1 for i, j in self.pairs if self.overlap(genes[i], genes[j]) > 0.0)
        return {
            "interference": interference,
            "mean_link_intf": sum(interference) / L,
            "mean_link_fair": s1 / L,
            "fairness_index": s1 * s1 / (L * s2),
            "nc_raw": nc_raw,
            "nc_norm": nc_raw / L,
            "fni": conflicted / len(self.pairs) if self.pairs else 0.0,
        }


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def record_errors(ref: Reference, genes, record) -> list[str]:
    """Compare one results row with the reference values for its genes."""
    genes = [int(g) for g in genes]
    errors = ref.assignment_errors(genes, ref.params.channels)
    if errors:
        return errors
    want = ref.evaluate(genes)
    if record.links != len(genes):
        errors.append(f"links {record.links} != {len(genes)}")
    for key in ("fairness_index", "nc_raw", "nc_norm", "fni",
                "mean_link_intf", "mean_link_fair"):
        if not close(getattr(record, key), want[key]):
            errors.append(f"{key} {getattr(record, key)!r} != reference {want[key]!r}")
    if not 0.0 < record.fairness_index <= 1.0 + ABS_TOL:
        errors.append(f"fairness_index {record.fairness_index} outside (0, 1]")
    return errors


def interference_errors(ref: Reference, genes, interference) -> list[str]:
    want = ref.evaluate([int(g) for g in genes])["interference"]
    return [f"link {l} interference {float(got)!r} != reference {w!r}"
            for l, (got, w) in enumerate(zip(interference, want))
            if not close(float(got), w)]
