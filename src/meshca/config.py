"""Configuration records for scenarios, the radio model, and the GA engine.

Each record checks itself when built (``from_dict`` and
``dataclasses.replace`` build one too), so no caller checks a record
again. Its field bounds are one table, the class's ``BOUNDS``, that maps
a field to its comparisons, each with a number or with another field's
name; one loop, the shared ``__post_init__``, checks every row of it
once every ``float`` field is found finite. A bad field raises :class:`InvalidConfig`.

Defaults follow common 802.11 mesh simulation practice: a 1000m x 1000m
area, 252m communication range, 514m interference distance, 3 radios per
router, and 3 orthogonal channels (set ``channels=12`` for 802.11a-style
experiments).
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import Any, ClassVar

from .errors import InvalidConfig

OVERLAP_KINDS = ("orthogonal", "graded")
# Upper bounds of the size fields, each well above every size in use:
# past them numpy is asked for arrays it cannot index or hold.
MAX_CHANNELS = 64  # more than any 802.11 band has
MAX_RADIOS = 64  # per node, far above the 2-3 in use; 10**30 overflowed int64
MAX_NODES = 5000  # 2.5 times the largest mesh in use, 2,000 nodes
MAX_POPULATION = 10000  # 250 times the default GA population
MAX_TOPOLOGIES = 10000  # replicates per scenario, each a sweep job
MAX_WORKERS = 64  # sweep processes; 10**30 overflowed the pool's C int

# A row of a ``BOUNDS`` table is a field's comparisons, each an operator
# and a bound: a number, or the name of another field of the record.
Bounds = dict[str, tuple[tuple[str, Any], ...]]
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


class _Record:
    """What the three records share: each checks itself against its
    ``BOUNDS`` when built, and reads from and writes to a JSON object."""

    BOUNDS: ClassVar[Bounds] = {}

    def __post_init__(self) -> None:
        """Raise :class:`InvalidConfig` naming the first ``float`` field
        that is NaN, infinite or an int too large for a float, or else the
        first field that breaks a row of ``BOUNDS``."""
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                finite = f.type != "float" or math.isfinite(value)
            except OverflowError:
                finite = False
            if not finite:
                raise InvalidConfig(f"{type(self).__name__}.{f.name} must be "
                                    f"a finite number, got {value!r}")
        for name, rows in self.BOUNDS.items():
            value = getattr(self, name)
            for op, bound in rows:
                limit = getattr(self, bound) if isinstance(bound, str) else bound
                if not _COMPARE[op](value, limit):
                    raise InvalidConfig(f"{name} must be {op} {bound}, "
                                        f"got {value}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Any):
        """The record built from ``d``, which must be a dict whose keys
        are fields of ``cls`` and whose values each have their default's
        type (an int passes for a float; a bool passes only for a bool)."""
        if not isinstance(d, dict):
            raise InvalidConfig(f"{cls.__name__} must be a JSON object, "
                                f"got {d!r}")
        defaults = vars(cls())
        for key, value in d.items():
            if key not in defaults:
                raise InvalidConfig(f"unknown {cls.__name__} field {key!r}")
            want = type(defaults[key])
            allowed = (int, float) if want is float else (want,)
            if (not isinstance(value, allowed)
                    or isinstance(value, bool) != (want is bool)):
                raise InvalidConfig(f"{cls.__name__}.{key} must be "
                                    f"{want.__name__}, got {value!r}")
        return cls(**d)


@dataclass(frozen=True)
class RadioModel(_Record):
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

    BOUNDS: ClassVar[Bounds] = {
        "tss": ((">", 0),),
        "path_loss_exp": ((">=", 1),),
        "bandwidth": ((">", 0),),
        "min_distance": ((">", 1),),  # keeps log10 positive
    }


@dataclass(frozen=True)
class ScenarioConfig(_Record):
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

    BOUNDS: ClassVar[Bounds] = {
        "node_count": ((">=", 2), ("<=", MAX_NODES)),
        "area_w": ((">", 0),),
        "area_h": ((">", 0),),
        "comm_range": ((">", 0),),
        "radios": ((">=", 1), ("<=", MAX_RADIOS)),
        "channels": ((">=", 1), ("<=", MAX_CHANNELS)),
        "gateway_count": ((">=", 1), ("<=", "node_count")),
        "degree_cap": ((">=", 1),),
        "rate_lo": ((">", 0),),
        "rate_hi": ((">=", "rate_lo"),),
        "overlap_span": ((">=", 1),),
        "topologies_per_scenario": ((">=", 1), ("<=", MAX_TOPOLOGIES)),
        "master_seed": ((">=", 0),),
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.comm_range >= self.interference_distance:
            raise InvalidConfig(
                f"comm_range ({self.comm_range}) must be smaller than the "
                f"interference distance ({self.interference_distance})"
            )
        if self.overlap_kind not in OVERLAP_KINDS:
            raise InvalidConfig(f"unknown overlap_kind {self.overlap_kind!r}")
        # no node distance, gateway-to-centre ones included, exceeds the
        # area's diagonal, so its square must not overflow in float64
        w, h = float(self.area_w), float(self.area_h)
        if not math.isfinite(w * w + h * h):
            raise InvalidConfig(f"area {self.area_w}x{self.area_h} is too "
                                f"large: its diagonal overflows")

    @classmethod
    def from_dict(cls, d: Any) -> "ScenarioConfig":
        if isinstance(d, dict) and "radio_model" in d:
            d = {**d, "radio_model": RadioModel.from_dict(d["radio_model"] or {})}
        return super().from_dict(d)


@dataclass(frozen=True)
class GaConfig(_Record):
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

    BOUNDS: ClassVar[Bounds] = {
        "population_size": ((">=", 2), ("<=", MAX_POPULATION)),
        "max_iterations": ((">=", 0),),
        "mutation_prob": ((">=", 0), ("<=", 1)),
        "target_fairness": ((">=", 0), ("<=", 1)),
        "stall_window": ((">=", 1),),
        "strong_gene_threshold": ((">=", 0), ("<=", 1)),
    }
