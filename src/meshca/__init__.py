"""Fairness-oriented channel assignment for multi-radio multi-channel
wireless mesh networks.

The library generates random mesh topologies, derives their conflict
graphs, ranks links by multi-criterion node scores, seeds a genetic
search from the greedy assignment, and evaluates results with Jain's
fairness index and capacity/residual-conflict metrics. See the README
for the experiment harness and CLI. This namespace holds the error
types and the names the CLI and the benchmark use; everything else is
imported from its submodule (``meshca.topology``, ``meshca.ga``, ...).
"""

from .config import GaConfig, ScenarioConfig
from .errors import (
    AllZeroValues,
    ConnectivityUnreachable,
    InconsistentInputs,
    InvalidAssignment,
    InvalidConfig,
    InvalidRequiredRate,
    MeshcaError,
    NoGateway,
    NonFiniteMetric,
    ParseError,
    SearchSpaceTooLarge,
)
from .ga import ALGORITHMS, GaResult, Problem
from .harness import MetricsRecord, OracleResult, run_sweep
from .topology import Topology

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AllZeroValues",
    "ConnectivityUnreachable",
    "GaConfig",
    "GaResult",
    "InconsistentInputs",
    "InvalidAssignment",
    "InvalidConfig",
    "InvalidRequiredRate",
    "MeshcaError",
    "MetricsRecord",
    "NoGateway",
    "NonFiniteMetric",
    "OracleResult",
    "ParseError",
    "Problem",
    "ScenarioConfig",
    "SearchSpaceTooLarge",
    "Topology",
    "run_sweep",
]
