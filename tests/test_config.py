"""A config record checks itself when built, whichever way it is built."""

import math
from dataclasses import replace

import pytest

from meshca import GaConfig, InvalidConfig, ScenarioConfig
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
