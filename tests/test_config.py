"""A config record checks itself when built, whichever way it is built."""

import json
import math
import re
from dataclasses import replace

import pytest

from meshca import GaConfig, InvalidConfig, ScenarioConfig
from meshca.cli import main
from meshca.config import (MAX_CHANNELS, MAX_NODES, MAX_POPULATION, MAX_RADIOS,
                           MAX_TOPOLOGIES, RadioModel)
from test_ga import BAD_GA_FIELDS
from test_topology import BAD_SCENARIO_FIELDS

BAD_RECORDS = ([(GaConfig, bad) for bad in BAD_GA_FIELDS]
               + [(ScenarioConfig, bad) for bad in BAD_SCENARIO_FIELDS])

FLOAT_FIELDS = [(cls, name) for cls in (RadioModel, ScenarioConfig, GaConfig)
                for name, value in vars(cls()).items() if type(value) is float]


@pytest.mark.parametrize("cls, bad", BAD_RECORDS,
                         ids=[f"{c.__name__}.{'-'.join(b)}" for c, b in BAD_RECORDS])
def test_bad_field_raises_through_constructor_and_from_dict(cls, bad):
    with pytest.raises(InvalidConfig):
        cls(**bad)
    with pytest.raises(InvalidConfig):
        cls.from_dict(bad)


def test_replace_checks_the_new_record():
    with pytest.raises(InvalidConfig, match="channels must be >= 1"):
        replace(ScenarioConfig(), channels=0)


def test_every_float_field_is_covered():
    assert len(FLOAT_FIELDS) == 13  # 4 radio, 6 scenario, 3 GA


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "minus_inf", "huge_int"])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_non_finite_float_field_rejected(cls, name, value):
    with pytest.raises(InvalidConfig,
                       match=rf"^{cls.__name__}\.{name} must be a finite number"):
        cls(**{name: value})


@pytest.mark.parametrize("channels", [MAX_CHANNELS + 1, 2 ** 63, 10 ** 30])
def test_channel_count_above_the_bound_rejected(channels):
    # 10**30 channels once reached np.eye in the overlap matrix
    message = rf"^channels must be <= {MAX_CHANNELS}, got {channels}$"
    with pytest.raises(InvalidConfig, match=message):
        ScenarioConfig(channels=channels)
    with pytest.raises(InvalidConfig, match=message):
        ScenarioConfig.from_dict({"channels": channels})


def test_channel_counts_in_use_are_admitted():
    # 12 is the most any test, workload or CI step uses
    for channels in (1, 12, MAX_CHANNELS):
        assert ScenarioConfig(channels=channels).channels == channels


SIZE_BOUNDS = [(ScenarioConfig, "node_count", MAX_NODES),
               (ScenarioConfig, "radios", MAX_RADIOS),
               (ScenarioConfig, "topologies_per_scenario", MAX_TOPOLOGIES),
               (GaConfig, "population_size", MAX_POPULATION)]


@pytest.mark.parametrize("cls, name, bound", SIZE_BOUNDS,
                         ids=[name for _, name, _ in SIZE_BOUNDS])
def test_size_above_its_bound_rejected(cls, name, bound):
    # node_count = 10**30 reached numpy's dimension check in placement,
    # population_size = 10**30 an OverflowError in the GA, and a sweep
    # listed topologies_per_scenario jobs per scenario without a limit;
    # radios = 10**30 overflowed the topology's int64 radio array
    for value in (bound + 1, 2 ** 63, 10 ** 30):
        message = rf"^{name} must be <= {bound}, got {value}$"
        with pytest.raises(InvalidConfig, match=message):
            cls(**{name: value})
        with pytest.raises(InvalidConfig, match=message):
            cls.from_dict({name: value})


@pytest.mark.parametrize("cls, name, in_use", [
    (ScenarioConfig, "node_count", (2, 300, 2000)),  # 2,000 is CI's mesh
    (ScenarioConfig, "radios", (1, 2, 3)),
    (ScenarioConfig, "topologies_per_scenario", (1, 3)),
    (GaConfig, "population_size", (2, 40, 1001)),
], ids=["node_count", "radios", "topologies_per_scenario", "population_size"])
def test_sizes_in_use_are_admitted(cls, name, in_use):
    bound = {name: b for _, name, b in SIZE_BOUNDS}[name]
    for value in (*in_use, bound):
        assert getattr(cls(**{name: value}), name) == value


BOUND_ROWS = [(cls, name, op, bound)
              for cls in (RadioModel, ScenarioConfig, GaConfig)
              for name, rows in cls.BOUNDS.items() for op, bound in rows]


def step(value, up):
    """The next value of ``value``'s type above it, or below it."""
    if type(value) is int:
        return value + 1 if up else value - 1
    return math.nextafter(value, math.inf if up else -math.inf)


def edge_values(cls, name, op, bound):
    """The admitted and the rejected value on either side of one row's
    bound, of the field's type; a named bound is that field's default."""
    default = cls()
    limit = getattr(default, bound) if isinstance(bound, str) else bound
    limit = type(getattr(default, name))(limit)
    lower = op.startswith(">")
    if op.endswith("="):  # closed: the bound is in, one step out is not
        return limit, step(limit, up=not lower)
    return step(limit, up=lower), limit


@pytest.fixture(scope="module")
def topology_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("bounds")
    (d / "s.json").write_text(json.dumps({"name": "b", "node_count": 5,
                                          "area_w": 350.0, "area_h": 350.0}))
    assert main(["gen", "--config", str(d / "s.json"), "--seed", "1",
                 "--out", str(d)]) == 0
    return d / "topology-b-seed1.json"


@pytest.mark.parametrize("cls, name, op, bound", BOUND_ROWS,
                         ids=[f"{c.__name__}.{n}{o}{b}"
                              for c, n, o, b in BOUND_ROWS])
def test_every_bound_admits_its_edge_and_rejects_past_it(
        cls, name, op, bound, tmp_path, capsys, topology_file):
    admitted, rejected = edge_values(cls, name, op, bound)
    message = f"{name} must be {op} {bound}, got {rejected}"
    for build in (lambda kw: cls(**kw), cls.from_dict,
                  lambda kw: replace(cls(), **kw)):
        assert getattr(build({name: admitted}), name) == admitted
        with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
            build({name: rejected})
    doc = {name: rejected}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"radio_model": doc} if cls is RadioModel
                                 else doc))
    argv = (["assign", "--algo", "fa_scga", "--topology", str(topology_file),
             "--ga", str(config)] if cls is GaConfig
            else ["gen", "--config", str(config)])
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, edge", [("tss", 0.0), ("bandwidth", 0.0),
                                        ("min_distance", 1.0)])
def test_radio_model_edge_that_breaks_the_rate_formula_rejected(name, edge):
    # the property reads its edges from the table; this pins that these
    # rows are open: a zero tss or bandwidth makes every rate 0, and a
    # min_distance of 1 divides the SNR by log10(1) = 0
    with pytest.raises(InvalidConfig, match=f"^{name} must be > "):
        RadioModel(**{name: edge})


def test_every_number_field_has_a_row():
    # the written-out comm_range check bounds interference_distance
    for cls in (RadioModel, ScenarioConfig, GaConfig):
        numbers = {name for name, value in vars(cls()).items()
                   if type(value) in (int, float)}
        assert numbers - set(cls.BOUNDS) == (
            {"interference_distance"} if cls is ScenarioConfig else set())


@pytest.mark.parametrize("w, h", [(1e200, 1000.0), (1000.0, 1e200),
                                  (1.4e154, 1.4e154), (10 ** 200, 10 ** 200)],
                         ids=["wide", "tall", "sum_overflows", "huge_ints"])
def test_area_whose_diagonal_overflows_rejected(w, h):
    # placement squared node distances up to the diagonal: overflow
    # warnings, then a connectivity error blamed on the range
    area = {"area_w": w, "area_h": h}
    with pytest.raises(InvalidConfig, match="diagonal overflows"):
        ScenarioConfig(**area)
    with pytest.raises(InvalidConfig, match="diagonal overflows"):
        ScenarioConfig.from_dict(area)


def test_area_with_a_finite_diagonal_admitted():
    assert ScenarioConfig(area_w=1e150, area_h=1e150).area_w == 1e150
