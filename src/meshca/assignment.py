"""Chromosomes, channel overlap, interference indices, and the greedy
multi-criterion channel assignment that seeds the genetic search.

A chromosome is one channel gene per link. A link's interference index
is the sum of channel-overlap ratios against its conflict-graph
neighbors, so orthogonal channels contribute nothing and a shared
channel contributes 1. Every operation here preserves the radio
constraint: the number of distinct channels on links incident to a node
never exceeds that node's radio count. The budget, repair and MCLR
helpers take the :class:`~meshca.ga.Problem`, which holds the channel
count and the one rule for which nodes' budgets can bind
(``Problem.binding``).
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import MAX_CHANNELS
from .errors import InvalidAssignment, InvalidConfig, ParseError
from .topology import ConflictGraph
from .ranking import LinkRankTable

if TYPE_CHECKING:
    from .ga import Problem

UNASSIGNED = -1


@dataclass
class ChannelAssignment:
    """One channel gene per link id.

    Genes may hold ``UNASSIGNED`` (-1) only while an assignment is under
    construction; finished assignments keep every gene in
    ``[0, channel_count)``.
    """

    genes: np.ndarray
    channel_count: int

    def __post_init__(self):
        self.genes = np.asarray(self.genes, dtype=np.int64)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ChannelAssignment)
                and self.channel_count == other.channel_count
                and np.array_equal(self.genes, other.genes))


class OverlapMatrix:
    """Symmetric overlap ratios in [0, 1] with unit diagonal, for at most
    ``MAX_CHANNELS`` (64) channels; ``identity`` marks orthogonal ones."""

    def __init__(self, ratio: np.ndarray):
        ratio = np.asarray(ratio, dtype=float)
        if ratio.ndim != 2 or ratio.shape[0] != ratio.shape[1]:
            raise InvalidConfig("overlap matrix must be square")
        if len(ratio) > MAX_CHANNELS:
            raise InvalidConfig(f"overlap matrix has over {MAX_CHANNELS} channels")
        if not np.allclose(ratio, ratio.T):
            raise InvalidConfig("overlap matrix must be symmetric")
        if not np.allclose(np.diag(ratio), 1.0):
            raise InvalidConfig("overlap matrix diagonal must be 1.0")
        if ratio.min() < 0.0 or ratio.max() > 1.0:
            raise InvalidConfig("overlap ratios must lie in [0, 1]")
        self.ratio = ratio
        self.identity = np.array_equal(ratio, np.eye(len(ratio)))

    @property
    def channel_count(self) -> int:
        return self.ratio.shape[0]

    @classmethod
    def orthogonal(cls, channel_count: int) -> "OverlapMatrix":
        """Fully orthogonal channels: ratio 1 on the diagonal, 0 elsewhere."""
        return cls(np.eye(channel_count))

    @classmethod
    def graded(cls, channel_count: int, span: int = 5) -> "OverlapMatrix":
        """2.4 GHz style partial overlap: ratio(i, j) = max(0, 1 - |i-j|/span)."""
        idx = np.arange(channel_count)
        return cls(np.maximum(0.0, 1.0 - np.abs(idx[:, None] - idx[None, :]) / span))


def overlap_for_config(cfg) -> OverlapMatrix:
    """Overlap matrix selected by a scenario config."""
    if cfg.overlap_kind == "graded":
        return OverlapMatrix.graded(cfg.channels, span=cfg.overlap_span)
    return OverlapMatrix.orthogonal(cfg.channels)


# ---------------------------------------------------------------------------
# interference

# where the user set either variable, the kernel leaves the thread count
# alone, and the sweep's pool sets only the unset ones for its workers
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

@functools.cache
def _openblas_threads():
    """The thread-count functions ``(get, set)`` of numpy's bundled
    OpenBLAS, or ``()`` where a variable of ``BLAS_THREAD_VARS`` is set
    or the library or its symbols are missing (another BLAS build). Looked
    up on the first call, not at import, and kept for the process, as the
    library's count is process-wide."""
    if any(name in os.environ for name in BLAS_THREAD_VARS):
        return ()
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return ()


# The kernel's product runs on one OpenBLAS thread. Measured on a 2-vCPU
# VM, 300 warm calls at (40, L), K = 3, per process: with one CPU-bound
# contender, the default two threads stalled (calls over 5x the median)
# in 3 of 3 processes at L = 379 and at L = 572, losing 140-783 ms each,
# where one thread lost at most one 8 ms call. On a quiet VM two threads'
# median call is faster from L = 185 on (1.1-1.5x over 6 processes),
# which is given up for the stalls. That holds at every benchmark shape;
# at 2,000 nodes (L = 2,503, 3 orthogonal channels)
# a 20-generation fa_scga took 1.4x longer on one thread than on two
# when quiet (medians 503 and 360 ms over 10 alternating runs), and 1.8x
# less with a contender (461 and 833 ms over 5).
def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``a @ b`` into ``out`` on one OpenBLAS thread. The count is
    process-wide: it is changed for the product's duration and the prior
    count restored on the way out, also when the product raises."""
    api = _openblas_threads()
    prior = api[0]() if api else 1
    if prior != 1:
        api[1](1)
    try:
        np.matmul(a, b, out=out)
    finally:
        if prior != 1:
            api[1](prior)


@functools.lru_cache(maxsize=None)
def _packing(k: int, bits: int):
    """How K channels' counts pack in ``bits``-bit fields: ``per`` fields
    to a float32 column, each channel's field shift, and the (G, K)
    float32 weights, channel c weighing 2**shift[c] in its group c // per
    and 0 in the others. Cached, so the arrays are read-only."""
    per = 24 // bits  # float32 holds every integer below 2**24
    shift = np.arange(k, dtype=np.int32) % per * bits
    weight = np.zeros((-(-k // per), k), dtype=np.float32)
    weight[np.arange(k) // per, np.arange(k)] = np.ldexp(1.0, shift)
    shift.flags.writeable = weight.flags.writeable = False
    return per, shift, weight


def interference_matrix(genes: np.ndarray, cg: ConflictGraph,
                        m: OverlapMatrix) -> np.ndarray:
    """Per-link interference indices for one chromosome or a batch.

    ``genes`` is (L,) or (P, L); the result has the same shape (float64,
    C-ordered, always a fresh array). Each link's index sums
    ``ratio[gene(l), gene(n)]`` over its conflict neighbors n. One float32
    product with the adjacency, on one BLAS thread (``_product``), counts
    every link's neighbours on every channel, in b-bit fields, b being
    ``cg.count_bits`` (at least 1), per = 24 // b to a column, so K
    channels take G = ceil(K / per) groups of P rows. A count is below
    2**b, so no field carries into the next, and every partial sum is an
    integer below 2**24, which float32 holds exactly whatever the BLAS
    blocking or thread count.

    Under an identity overlap the index is the own channel's field. Under
    any other the K counts are weighted by the link's overlap row and
    summed over the contiguous K axis, as float64 counts would be, bit for
    bit. Nothing it is given is changed; but as the BLAS thread count is
    process-wide, no two threads may call this at once.

    Raises
    ------
    InvalidAssignment
        If a gene lies outside ``[0, channel_count)``.
    """
    genes = np.asarray(genes)
    g = np.atleast_2d(genes)
    k = m.channel_count
    if g.size and (g.min() < 0 or g.max() >= k):
        raise InvalidAssignment(
            f"genes must lie in [0, {k}), got {g.min()}..{g.max()}"
        )
    p, n_links = g.shape
    bits = max(cg.count_bits, 1)
    per, shift, weight = _packing(k, bits)
    shape = (len(weight) * p, n_links)  # explicit: L may be 0
    sums = np.empty(shape, dtype=np.float32)
    _product(weight.take(g, axis=1).reshape(shape), cg.adjacency, sums)
    fields = sums.astype(np.int32).reshape(len(weight), p, n_links)
    mask = (1 << bits) - 1
    if m.identity:  # with G > 1, a flat gather from each gene's group
        own = fields[0] if len(weight) == 1 else fields.take(
            np.arange(p * n_links).reshape(p, n_links)
            + g // per * np.intp(p * n_links))  # intp: genes may be narrow
        own >>= shift.take(g)
        own &= mask
        out = own.astype(float)
    else:
        # b-bit counts in the smallest unsigned type that holds them (uint8
        # at paper density): the shift wraps into it, the mask keeps the
        # field. int32 counts made a (40, 116, 11) call's temporaries big
        # enough for glibc to hand the heap back after each call (~140 faults)
        counts = np.empty((p, n_links, k), dtype=np.min_scalar_type(mask))
        for c in range(k):  # one shift a channel, each along L
            np.right_shift(fields[c // per], shift[c], out=counts[..., c],
                           casting="unsafe")
        counts &= mask
        w = m.ratio.take(g, axis=0)
        out = np.multiply(counts, w, out=w).sum(axis=2)
    return out[0] if genes.ndim == 1 else out


def _least_interfering(rows: np.ndarray, nbrs: np.ndarray,
                       allowed: np.ndarray, problem: Problem):
    """The channel choice of MCLR, repair and stuck merges: per row of
    the (L,) row or (n, L) batch ``rows``, the channel allowed by the (K,)
    or (n, K) mask ``allowed`` whose overlap ratios against the genes of
    the links ``nbrs`` sum least, ties to the lower channel. ``nbrs``
    must hold assigned links only, and each row must allow a channel."""
    cost = problem.m.ratio[:, rows.take(nbrs, -1)].sum(-1)
    return np.where(allowed.T, cost, np.inf).argmin(0)


# ---------------------------------------------------------------------------
# radio constraint


def channels_in_use(genes: np.ndarray, problem: Problem) -> np.ndarray:
    """Distinct assigned channels at each of ``problem.binding``'s nodes
    (no other can exceed its radio budget), for an (L,) row or a (P, L)
    batch of genes (shape (B,) or (P, B)): the set bits of the OR of
    ``1 << gene`` over the node's links, ``UNASSIGNED`` shifting 0."""
    sub = np.asarray(genes, dtype=np.int64)[..., problem.binding_links]
    np.left_shift(sub != UNASSIGNED, sub, out=sub)
    return np.bitwise_count(np.bitwise_or.reduce(sub, axis=-1).view(np.uint64))


def within_budget(genes: np.ndarray, problem: Problem) -> np.ndarray:
    """Whether an (L,) row, or each row of a (P, L) batch, keeps every
    node within its radio budget."""
    radios = problem.t.radios[problem.binding]
    return (channels_in_use(genes, problem) <= radios).all(axis=-1)


def feasible_channels(lid: int, genes: np.ndarray,
                      problem: Problem) -> np.ndarray:
    """(n, K) mask of the channels link ``lid`` may hold in each row of
    the (n, L) genes ((K,) for an (L,) row): a binding endpoint whose
    other links already hold as many channels as it has radios allows
    only those channels. ``UNASSIGNED`` genes hold none. The link's own
    gene is always allowed, so an assigned link's mask is never empty,
    and a free link may take every channel."""
    g = np.atleast_2d(genes)
    channels = np.arange(problem.channels)
    allowed = np.ones((len(g), len(channels)), dtype=bool)
    for others, radios in problem.bound_walk.get(lid, ()):
        used = (g[:, others, None] == channels).any(axis=1)
        allowed &= used | (used.sum(axis=1) < radios)[:, None]
    allowed |= g[:, lid, None] == channels
    return allowed if np.ndim(genes) == 2 else allowed[0]


def _assign_stuck(lid: int, genes: np.ndarray, nbrs: np.ndarray,
                  problem: Problem) -> None:
    """Both endpoints are at budget with disjoint palettes: merge them in
    the (L,) row ``genes``, in place (``UNASSIGNED`` marks links not yet
    placed). The link takes the channel used at either endpoint least
    interfering with its placed conflict neighbours ``nbrs``, and every
    endpoint pushed over budget has all its assigned links collapsed onto
    it, cascading. Reachable only under tight radio budgets; at worst a
    region shares one channel, which is always valid."""
    t = problem.t

    def held(v):
        return set(genes[t.incident_links[v]].tolist()) - {UNASSIGNED}

    u, v = int(t.link_a[lid]), int(t.link_b[lid])
    pool = np.zeros(problem.channels, dtype=bool)
    pool[list(held(u) | held(v))] = True
    c = int(_least_interfering(genes, nbrs, pool, problem))
    genes[lid] = c
    queue = [u, v]
    while queue:
        x = queue.pop()
        if len(held(x)) <= t.radios[x]:
            continue
        for l2 in t.incident_links[x]:
            if genes[l2] not in (UNASSIGNED, c):
                genes[l2] = c
                queue.extend((int(t.link_a[l2]), int(t.link_b[l2])))


def repair_radio_constraint(genes: np.ndarray,
                            problem: Problem) -> np.ndarray:
    """Repair each row of an (L,) row or (n, L) batch that breaks a radio
    budget: the input itself if none does, else a repaired copy.

    An over-budget row keeps its free genes and rebuilds its bound ones
    in ascending link id order, as a link-by-link rebuild from an empty
    row would: the requested gene if the budgets allow it, else the
    feasible channel least interfering with the lower-id conflict
    neighbours (the links placed so far; ties to the lower channel),
    else a stuck merge. Each bound link is placed in all such rows at
    once. Genes must lie in ``[0, channel_count)``."""
    ok = np.atleast_1d(within_budget(genes, problem))
    if ok.all():
        return genes
    out = np.array(genes, dtype=np.int64)
    rows = out.reshape(-1, out.shape[-1])
    sub = rows[~ok]
    bound = list(problem.bound_walk)
    requested = sub[:, bound]
    sub[:, bound] = UNASSIGNED
    for want, lid in zip(requested.T, bound):
        allowed = feasible_channels(lid, sub, problem)
        keep = allowed[np.arange(len(sub)), want]
        sub[keep, lid] = want[keep]
        stuck = ~allowed.any(axis=1)
        pick = np.flatnonzero(~keep & ~stuck)
        nbrs = problem.cg.neighbors[lid]
        nbrs = nbrs[nbrs < lid]  # the links the rebuild has placed
        sub[pick, lid] = _least_interfering(sub[pick], nbrs, allowed[pick],
                                            problem)
        # a merge only rewrites bound links, which are unset above ``lid``
        for i in np.flatnonzero(stuck).tolist():
            _assign_stuck(lid, sub[i], nbrs, problem)
    rows[~ok] = sub
    return out


# ---------------------------------------------------------------------------
# greedy assignment


def mclr_assign(problem: Problem, rt: LinkRankTable) -> ChannelAssignment:
    """Greedy rank-ordered channel assignment (the primary chromosome).

    Links are visited in descending rank order. Each link takes the
    feasible channel least interfering with its assigned conflict
    neighbours, ties to the lower channel, so the lowest-index channel
    that overlaps none of them when one is feasible; a link with no
    feasible channel is a stuck merge. The interference is a sum of
    ratios of at most 1 over those neighbours, so no link is placed worse
    than its conflict degree, the interference it would suffer in a
    single-channel network.
    """
    genes = np.full(problem.t.link_count, UNASSIGNED, dtype=np.int64)
    adjacency, every = problem.cg.adjacency, np.ones(problem.channels, bool)
    for lid in rt.schedule.tolist():
        nbrs = np.flatnonzero(adjacency[lid] * (genes >= 0))
        allowed = every
        if lid in problem.bound_walk:
            allowed = feasible_channels(lid, genes, problem)
            if not allowed.any():
                _assign_stuck(lid, genes, nbrs, problem)
                continue
        genes[lid] = _least_interfering(genes, nbrs, allowed, problem)
    return ChannelAssignment(genes, problem.channels)


# ---------------------------------------------------------------------------
# file format

_HEADER_RE = re.compile(r"^#\s*(\w+)\s*:\s*(.+?)\s*$")


def save_assignment(a: ChannelAssignment, path: str | Path,
                    algorithm: str = "unknown", seed: int = 0,
                    iterations: int = 0) -> None:
    """Write the ``link_id,channel`` table with algorithm, seed,
    iterations and channel metadata in comment headers."""
    lines = [
        "# meshca assignment",
        f"# algorithm: {algorithm}",
        f"# seed: {seed}",
        f"# iterations: {iterations}",
        f"# channels: {a.channel_count}",
        "link_id,channel",
    ]
    lines += [f"{lid},{int(c)}" for lid, c in enumerate(a.genes)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_assignment(path: str | Path) -> tuple[ChannelAssignment, dict]:
    """Parse an assignment file into (assignment, metadata).

    Metadata holds the ``algorithm`` header and any ``seed`` and
    ``iterations`` headers. Channels out of range, duplicate or missing
    link ids, malformed rows, and a ``channels``, ``seed`` or
    ``iterations`` header that is not an integer, or (but ``channels``)
    is negative, raise ``ParseError`` naming the offending entry.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read assignment file {path}: {exc}") from exc
    meta: dict = {"algorithm": "unknown"}
    rows: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _HEADER_RE.match(line)
            if match:
                key, value = match.groups()
                if key == "algorithm":
                    meta["algorithm"] = value
                elif key in ("channels", "seed", "iterations"):
                    try:
                        meta[key] = int(value)
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: '# {key}:' header "
                                         f"{value!r} is not an integer") from exc
                    if key != "channels" and meta[key] < 0:
                        raise ParseError(f"{path}:{lineno}: '# {key}:' header "
                                         f"{value!r} is negative")
            continue
        if line == "link_id,channel":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'link_id,channel'")
        try:
            lid, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer row") from exc
        if lid in rows:
            raise ParseError(f"{path}:{lineno}: duplicate link id {lid}")
        rows[lid] = c
    channels = meta.pop("channels", None)
    if channels is None or channels < 1:
        raise ParseError(f"{path}: missing or invalid '# channels:' header")
    if not rows:
        raise ParseError(f"{path}: no assignment rows")
    if sorted(rows) != list(range(len(rows))):
        raise ParseError(f"{path}: link ids are not contiguous from 0")
    genes = np.empty(len(rows), dtype=np.int64)
    for lid, c in rows.items():
        if not 0 <= c < channels:
            raise ParseError(
                f"{path}: link {lid} channel {c} out of range [0, {channels})"
            )
        genes[lid] = c
    return ChannelAssignment(genes, channels), meta
