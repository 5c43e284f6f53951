"""Configuration records for scenarios, the radio model, and the GA engine.

Each record checks itself when built (``from_dict`` and
``dataclasses.replace`` build one too): a bad or non-finite field raises
:class:`InvalidConfig`, so no caller checks a record again.

Defaults follow common 802.11 mesh simulation practice: a 1000m x 1000m
area, 252m communication range, 514m interference distance, 3 radios per
router, and 3 orthogonal channels (set ``channels=12`` for 802.11a-style
experiments).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .errors import InvalidConfig

OVERLAP_KINDS = ("orthogonal", "graded")
# Upper bounds of the size fields, each well above every size in use:
# past them numpy is asked for arrays it cannot index or hold.
MAX_CHANNELS = 64  # more than any 802.11 band has
MAX_RADIOS = 64  # per node, far above the 2-3 in use; 10**30 overflowed int64
MAX_NODES = 5000  # 2.5 times the largest mesh in use, 2,000 nodes
MAX_POPULATION = 10000  # 250 times the default GA population
MAX_TOPOLOGIES = 10000  # replicates per scenario, each a sweep job


def _checked_fields(cls, d: Any) -> dict[str, Any]:
    """``d`` as keyword arguments for ``cls``, with each key a field of
    ``cls`` and each value of its default's type (an int passes for a
    float; a bool passes only for a bool)."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"{cls.__name__} must be a JSON object, got {d!r}")
    defaults = vars(cls())
    for key, value in d.items():
        if key not in defaults:
            raise InvalidConfig(f"unknown {cls.__name__} field {key!r}")
        want = type(defaults[key])
        allowed = (int, float) if want is float else (want,)
        if (not isinstance(value, allowed)
                or isinstance(value, bool) != (want is bool)):
            raise InvalidConfig(
                f"{cls.__name__}.{key} must be {want.__name__}, got {value!r}"
            )
    return d


def _check_finite(record) -> None:
    """Raise :class:`InvalidConfig` naming a ``float`` field of ``record``
    that is NaN, infinite, or an int too large for a float."""
    for f in fields(record):
        value = getattr(record, f.name)
        try:
            finite = f.type != "float" or math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidConfig(f"{type(record).__name__}.{f.name} must be "
                                f"a finite number, got {value!r}")


@dataclass(frozen=True)
class RadioModel:
    """Analytic link-rate model parameters.

    The model is a dimensionless free-space surrogate: a link's SNR is
    ``tss / (10 * path_loss_exp * (1 + interference) * log10(length))``
    and its rate is ``bandwidth * log2(1 + SNR)``. Lengths below
    ``min_distance`` are clamped so the logarithm stays positive.
    """

    tss: float = 20.0
    path_loss_exp: float = 2.0
    bandwidth: float = 20.0
    min_distance: float = 10.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.tss <= 0:
            raise InvalidConfig(f"tss must be positive, got {self.tss}")
        if self.path_loss_exp < 1:
            raise InvalidConfig(
                f"path_loss_exp must be >= 1, got {self.path_loss_exp}"
            )
        if self.bandwidth <= 0:
            raise InvalidConfig(f"bandwidth must be positive, got {self.bandwidth}")
        if self.min_distance <= 1:
            raise InvalidConfig(
                f"min_distance must be > 1 to keep log10 positive, got "
                f"{self.min_distance}"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RadioModel":
        return cls(**_checked_fields(cls, d))


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters describing one simulated network scenario.

    ``degree_cap`` is the target connectivity degree: nodes keep their
    shortest links and shed the rest, connectivity permitting.
    ``rate_lo``/``rate_hi`` scale each link's required data rate as a
    uniform fraction of its zero-interference rate.
    """

    name: str = "scenario"
    node_count: int = 50
    area_w: float = 1000.0
    area_h: float = 1000.0
    comm_range: float = 252.0
    interference_distance: float = 514.0
    radios: int = 3
    channels: int = 3
    gateway_count: int = 1
    degree_cap: int = 3
    rate_lo: float = 0.5
    rate_hi: float = 1.0
    overlap_kind: str = "orthogonal"
    overlap_span: int = 5
    topologies_per_scenario: int = 3
    master_seed: int = 0
    radio_model: RadioModel = field(default_factory=RadioModel)

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.node_count < 2:
            raise InvalidConfig(f"node_count must be >= 2, got {self.node_count}")
        if self.node_count > MAX_NODES:
            raise InvalidConfig(f"node_count must be <= {MAX_NODES}, "
                                f"got {self.node_count}")
        if self.area_w <= 0 or self.area_h <= 0:
            raise InvalidConfig(
                f"area must be positive, got {self.area_w}x{self.area_h}"
            )
        if self.comm_range <= 0:
            raise InvalidConfig(f"comm_range must be positive, got {self.comm_range}")
        if self.comm_range >= self.interference_distance:
            raise InvalidConfig(
                f"comm_range ({self.comm_range}) must be smaller than the "
                f"interference distance ({self.interference_distance})"
            )
        if self.radios < 1:
            raise InvalidConfig(f"radios must be >= 1, got {self.radios}")
        if self.radios > MAX_RADIOS:
            raise InvalidConfig(f"radios must be <= {MAX_RADIOS}, "
                                f"got {self.radios}")
        if self.channels < 1:
            raise InvalidConfig(f"channels must be >= 1, got {self.channels}")
        if self.channels > MAX_CHANNELS:
            raise InvalidConfig(f"channels must be <= {MAX_CHANNELS}, "
                                f"got {self.channels}")
        if self.gateway_count < 1 or self.gateway_count > self.node_count:
            raise InvalidConfig(
                f"gateway_count must be in [1, node_count], got {self.gateway_count}"
            )
        if self.degree_cap < 1:
            raise InvalidConfig(f"degree_cap must be >= 1, got {self.degree_cap}")
        if not (0 < self.rate_lo <= self.rate_hi):
            raise InvalidConfig(
                f"required-rate range must satisfy 0 < lo <= hi, got "
                f"[{self.rate_lo}, {self.rate_hi}]"
            )
        if self.overlap_kind not in OVERLAP_KINDS:
            raise InvalidConfig(f"unknown overlap_kind {self.overlap_kind!r}")
        if self.overlap_span < 1:
            raise InvalidConfig(
                f"overlap_span must be >= 1, got {self.overlap_span}"
            )
        if self.topologies_per_scenario < 1:
            raise InvalidConfig(
                f"topologies_per_scenario must be >= 1, got "
                f"{self.topologies_per_scenario}"
            )
        if self.topologies_per_scenario > MAX_TOPOLOGIES:
            raise InvalidConfig(f"topologies_per_scenario must be <= "
                                f"{MAX_TOPOLOGIES}, got "
                                f"{self.topologies_per_scenario}")
        if self.master_seed < 0:
            raise InvalidConfig(
                f"master_seed must be >= 0, got {self.master_seed}"
            )

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["radio_model"] = self.radio_model.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ScenarioConfig":
        if isinstance(d, dict) and "radio_model" in d:
            d = {**d, "radio_model": RadioModel.from_dict(d["radio_model"] or {})}
        return cls(**_checked_fields(cls, d))


@dataclass(frozen=True)
class GaConfig:
    """Genetic engine parameters, checked when built.

    The defaults are repository choices, not published values: population
    40, per-weak-gene mutation probability 0.2, at most 200 generations,
    and an early stop after 20 generations without improvement or once
    the best fairness index reaches ``target_fairness``. A gene counts as
    strong when its link fairness is at least ``strong_gene_threshold``.
    The algorithm name, not this record, selects the initialization and
    the fitness (see :mod:`meshca.ga`). No field switches the radio-budget
    check: the GA checks every generation wherever a budget can bind.
    """

    population_size: int = 40
    max_iterations: int = 200
    mutation_prob: float = 0.2
    target_fairness: float = 0.99
    stall_window: int = 20
    strong_gene_threshold: float = 1.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.population_size < 2:
            raise InvalidConfig(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.population_size > MAX_POPULATION:
            raise InvalidConfig(f"population_size must be <= {MAX_POPULATION}"
                                f", got {self.population_size}")
        if self.max_iterations < 0:
            raise InvalidConfig(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise InvalidConfig(
                f"mutation_prob must be in [0, 1], got {self.mutation_prob}"
            )
        if not 0.0 <= self.target_fairness <= 1.0:
            raise InvalidConfig(
                f"target_fairness must be in [0, 1], got {self.target_fairness}"
            )
        if self.stall_window < 1:
            raise InvalidConfig(f"stall_window must be >= 1, got {self.stall_window}")
        if not 0.0 <= self.strong_gene_threshold <= 1.0:
            raise InvalidConfig(
                f"strong_gene_threshold must be in [0, 1], got "
                f"{self.strong_gene_threshold}"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "GaConfig":
        return cls(**_checked_fields(cls, d))
