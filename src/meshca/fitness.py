"""Link-rate model, fairness fitness, and network-level metrics.

The chain for one chromosome runs: per-link interference index, then a
dimensionless free-space SNR surrogate ``tss / (10 * path_loss_exp *
(1 + interference) * log10(length))``, then the Shannon rate
``bandwidth * log2(1 + SNR)``, then link fairness as the achieved
fraction of the required rate clamped to 1. The fitness of the whole
chromosome is Jain's index over the link fairness values, which is 1
exactly when every link is equally (un)satisfied. Every step also takes
a (P, L) batch of chromosomes, scored row by row with the same result
as one chromosome at a time. :func:`evaluate` reports one chromosome's
link interference, fairness and capacity, and its network metrics, all
from one interference pass.

The ``(1 + interference)`` factor keeps the SNR finite for
interference-free links while preserving monotonicity: doubling the
factor halves the SNR, and zero interference gives the maximum. Lengths
below ``min_distance`` are clamped so short links do not blow up the
logarithm. The model is an analytic surrogate, not a physical dBm
budget; all four parameters live in :class:`~meshca.config.RadioModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .assignment import interference_matrix
from .config import RadioModel
from .errors import AllZeroValues

if TYPE_CHECKING:
    from .ga import Problem


@dataclass
class FitnessReport:
    """Every reported quantity of one chromosome.

    Per link: the interference index and clamped fairness. For the
    network: Jain's index over the link fairness, ``nc_raw`` (the sum of
    the link capacities ``1 / (1 + interference)``), ``nc_norm`` (that
    sum over the link count, the mean link capacity) and ``fni``, the
    fraction of conflict-graph edges whose two links still overlap (the
    residual-conflict ratio relative to a single-channel network).
    """

    interference: np.ndarray
    link_fairness: np.ndarray
    fairness_index: float
    nc_raw: float
    nc_norm: float
    fni: float


def _snr_values(lengths, interference, rm: RadioModel):
    """Link SNRs: strictly decreasing in the interference index and
    non-increasing in length, with lengths clamped below at
    ``rm.min_distance``."""
    lengths = np.maximum(np.asarray(lengths, dtype=float), rm.min_distance)
    denom = 10.0 * rm.path_loss_exp * (1.0 + np.asarray(interference, dtype=float))
    return rm.tss / (denom * np.log10(lengths))


def actual_link_rate(snr, rm: RadioModel):
    """Shannon rate ``bandwidth * log2(1 + SNR)``; accepts scalars or
    arrays."""
    return rm.bandwidth * np.log2(1.0 + np.asarray(snr, dtype=float))


def jain_index(values):
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    Scale-free and bounded in (0, 1]; equals 1 iff all values are equal.
    Values are normalized by their maximum before accumulating, which is
    algebraically a no-op but makes equal allocations evaluate to 1.0
    exactly; the result is clamped at 1.0, which rounding can pass by an
    ulp for values equal but for their last bits. A (L,) vector gives a
    float; a (P, L) batch gives the (P,) indices of its rows, each
    bit-identical to the 1-d call on that row.

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
    out = np.minimum(s1 * s1 / (x.shape[-1] * s2), 1.0)
    return float(out) if x.ndim == 1 else out


def _batch_link_fairness(genes: np.ndarray, problem: Problem):
    """Interference and clamped fairness for (P, L) or (L,) gene arrays,
    vectorized across the population."""
    interference = interference_matrix(genes, problem.cg, problem.m)
    snr = _snr_values(problem.t.lengths, interference, problem.rm)
    rate = actual_link_rate(snr, problem.rm)
    return interference, np.minimum(1.0, rate / problem.t.required_rates)


def evaluate(problem: Problem, genes: np.ndarray) -> FitnessReport:
    """Evaluate one (L,) chromosome end to end, computing its
    interference indices once.

    Link fairness is the achieved fraction of the required rate, clamped
    to 1 so a generously served link cannot register as inequality.
    Network capacity equals the link count exactly when no link sees
    interference. The FNI is 0 for a proper coloring of the conflict
    graph and 1 when every conflict edge still overlaps (e.g. a
    single-channel network); an empty conflict graph reports 0.
    """
    genes = np.asarray(genes)
    cg = problem.cg
    interference, fairness = _batch_link_fairness(genes, problem)
    nc_raw = float((1.0 / (1.0 + interference)).sum())
    if cg.edge_count:
        ea, eb = cg.edges[:, 0], cg.edges[:, 1]
        conflicted = problem.m.ratio[genes[ea], genes[eb]] > 0.0
        fni = float(np.count_nonzero(conflicted) / cg.edge_count)
    else:
        fni = 0.0
    return FitnessReport(
        interference=interference,
        link_fairness=fairness,
        fairness_index=jain_index(fairness),
        nc_raw=nc_raw,
        nc_norm=nc_raw / len(genes) if len(genes) else 0.0,
        fni=fni,
    )
