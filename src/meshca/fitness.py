"""Link-rate model, fairness fitness, and network-level metrics.

The chain for one chromosome runs: per-link interference index, then a
dimensionless free-space SNR surrogate ``tss / (10 * path_loss_exp *
(1 + interference) * log10(length))``, then the Shannon rate
``bandwidth * log2(1 + SNR)``, then link fairness as the achieved
fraction of the required rate clamped to 1. The fitness of the whole
chromosome is Jain's index over the link fairness values, which is 1
exactly when every link is equally (un)satisfied. Every step also takes
a (P, L) batch of chromosomes, scored row by row with the same result
as one chromosome at a time.

The ``(1 + interference)`` factor keeps the SNR finite for
interference-free links while preserving monotonicity: doubling the
factor halves the SNR, and zero interference gives the maximum. Lengths
below ``min_distance`` are clamped so short links do not blow up the
logarithm. The model is an analytic surrogate, not a physical dBm
budget; all four parameters live in :class:`~meshca.config.RadioModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import ChannelAssignment, OverlapMatrix, interference_matrix
from .config import RadioModel
from .errors import AllZeroValues, InvalidRequiredRate
from .topology import ConflictGraph, Link, Topology

__all__ = [
    "FitnessReport", "NetworkMetrics", "link_snr", "actual_link_rate",
    "link_fairness", "jain_index", "fairness_fitness", "network_metrics",
    "RadioModel",
]


@dataclass
class FitnessReport:
    """Per-link quantities and the aggregate fairness of one chromosome."""

    interference: np.ndarray
    snr: np.ndarray
    actual_rate: np.ndarray
    link_fairness: np.ndarray
    fairness_index: float
    total_interference: float


@dataclass
class NetworkMetrics:
    """Capacity and residual-conflict metrics of one chromosome.

    ``link_capacity`` is ``1 / (1 + interference)`` per link, ``nc_raw``
    its sum, ``nc_norm`` the sum divided by the link count, and ``fni``
    the fraction of conflict-graph edges whose two links still overlap
    (the residual-conflict ratio relative to a single-channel network).
    """

    link_capacity: np.ndarray
    nc_raw: float
    nc_norm: float
    fni: float


def _snr_values(lengths, interference, rm: RadioModel):
    lengths = np.maximum(np.asarray(lengths, dtype=float), rm.min_distance)
    denom = 10.0 * rm.path_loss_exp * (1.0 + np.asarray(interference, dtype=float))
    return rm.tss / (denom * np.log10(lengths))


def link_snr(l: Link, interference_index: float, rm: RadioModel) -> float:
    """SNR of a link under the given interference index.

    Strictly decreasing in the interference index and non-increasing in
    link length; lengths are clamped below at ``rm.min_distance``.
    """
    return float(_snr_values(l.length, interference_index, rm))


def actual_link_rate(snr, rm: RadioModel):
    """Shannon rate ``bandwidth * log2(1 + SNR)``; accepts scalars or
    arrays."""
    return rm.bandwidth * np.log2(1.0 + np.asarray(snr, dtype=float))


def link_fairness(actual: float, required: float) -> float:
    """Achieved fraction of the required rate, clamped to [0, 1].

    Overshooting the requirement counts as exact satisfaction so that a
    generously served link cannot register as inequality.
    """
    if required <= 0:
        raise InvalidRequiredRate(f"required rate must be positive, got {required}")
    return min(1.0, float(actual) / float(required))


def jain_index(values):
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    Scale-free and bounded in (0, 1]; equals 1 iff all values are equal.
    Values are normalized by their maximum before accumulating, which is
    algebraically a no-op but makes equal allocations evaluate to 1.0
    exactly. A (L,) vector gives a float; a (P, L) batch gives the (P,)
    indices of its rows, each bit-identical to the 1-d call on that row.

    Raises
    ------
    AllZeroValues
        If every value of a vector (or of any batch row) is zero (the
        index is undefined).
    """
    x = np.asarray(values, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("jain_index expects a non-empty 1-d vector or 2-d batch")
    peak = x.max(axis=-1, keepdims=True)
    if (peak == 0.0).any():
        raise AllZeroValues("Jain's index is undefined for all-zero values")
    x = x / peak
    s1 = x.sum(axis=-1)
    s2 = (x * x).sum(axis=-1)
    out = s1 * s1 / (x.shape[-1] * s2)
    return float(out) if x.ndim == 1 else out


def _batch_link_fairness(genes: np.ndarray, t: Topology, cg: ConflictGraph,
                         m: OverlapMatrix, rm: RadioModel):
    """Interference, SNR, rate, and clamped fairness for (P, L) or (L,)
    gene arrays, vectorized across the population."""
    interference = interference_matrix(genes, cg, m)
    snr = _snr_values(t.lengths, interference, rm)
    rate = actual_link_rate(snr, rm)
    fairness = np.minimum(1.0, rate / t.required_rates)
    return interference, snr, rate, fairness


def fairness_fitness(a: ChannelAssignment, t: Topology, cg: ConflictGraph,
                     m: OverlapMatrix, rm: RadioModel) -> FitnessReport:
    """Evaluate one chromosome end to end.

    Computes every link's interference index, SNR, achieved rate, and
    clamped fairness, then aggregates the fairness values with Jain's
    index. ``total_interference`` is kept alongside for the
    interference-minimizing fitness variant.
    """
    interference, snr, rate, fairness = _batch_link_fairness(
        a.genes, t, cg, m, rm
    )
    return FitnessReport(
        interference=interference,
        snr=snr,
        actual_rate=rate,
        link_fairness=fairness,
        fairness_index=jain_index(fairness),
        total_interference=float(interference.sum()),
    )


def network_metrics(a: ChannelAssignment, t: Topology, cg: ConflictGraph,
                    m: OverlapMatrix) -> NetworkMetrics:
    """Capacity and residual-conflict metrics for one chromosome.

    Network capacity sums per-link ``1 / (1 + interference)``; it equals
    the link count exactly when no link sees interference. The FNI is 0
    for a proper coloring of the conflict graph and 1 when every
    conflict edge still overlaps (e.g. a single-channel network); an
    empty conflict graph reports 0.
    """
    interference = interference_matrix(a.genes, cg, m)
    capacity = 1.0 / (1.0 + interference)
    nc_raw = float(capacity.sum())
    if cg.edge_count:
        ea, eb = cg.edges[:, 0], cg.edges[:, 1]
        conflicted = m.ratio[a.genes[ea], a.genes[eb]] > 0.0
        fni = float(np.count_nonzero(conflicted) / cg.edge_count)
    else:
        fni = 0.0
    return NetworkMetrics(
        link_capacity=capacity,
        nc_raw=nc_raw,
        nc_norm=nc_raw / t.link_count if t.link_count else 0.0,
        fni=fni,
    )
