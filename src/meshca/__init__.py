"""Fairness-oriented channel assignment for multi-radio multi-channel
wireless mesh networks.

The library generates random mesh topologies, derives their conflict
graphs, ranks links by multi-criterion node scores, seeds a genetic
search from the greedy assignment, and evaluates results with Jain's
fairness index and capacity/residual-conflict metrics. See the README
for the experiment harness and CLI.
"""

from .config import GaConfig, RadioModel, ScenarioConfig
from .errors import (
    AllZeroValues,
    ConnectivityUnreachable,
    InconsistentInputs,
    InvalidAssignment,
    InvalidConfig,
    InvalidRequiredRate,
    MeshcaError,
    NoFeasibleChannel,
    NoGateway,
    ParseError,
    SearchSpaceTooLarge,
)
from .topology import (
    ConflictGraph,
    Link,
    Node,
    Topology,
    build_conflict_graph,
    generate_topology,
    load_topology,
    min_link_distance,
    save_topology,
)
from .ranking import LinkRankTable, NodeScore, rank_links, score_nodes
from .assignment import (
    ChannelAssignment,
    OverlapMatrix,
    feasible_channels,
    is_valid_assignment,
    least_interfering_channel,
    link_interference_index,
    load_assignment,
    mclr_assign,
    radio_violations,
    save_assignment,
)
from .fitness import (
    FitnessReport,
    NetworkMetrics,
    actual_link_rate,
    fairness_fitness,
    jain_index,
    link_fairness,
    link_snr,
    network_metrics,
)
from .ga import (
    ALGORITHMS,
    GaResult,
    GenerationStats,
    Individual,
    crossover,
    init_population_random,
    init_population_semi_chaotic,
    mutate,
    run,
    run_ga,
    select_parents,
)
from .harness import (
    MetricsRecord,
    OracleResult,
    brute_force_optimum,
    evaluate_file,
    paper_scale_scenarios,
    run_replicate,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AllZeroValues",
    "ChannelAssignment",
    "ConflictGraph",
    "ConnectivityUnreachable",
    "FitnessReport",
    "GaConfig",
    "GaResult",
    "GenerationStats",
    "InconsistentInputs",
    "Individual",
    "InvalidAssignment",
    "InvalidConfig",
    "InvalidRequiredRate",
    "Link",
    "LinkRankTable",
    "MeshcaError",
    "MetricsRecord",
    "NetworkMetrics",
    "NoFeasibleChannel",
    "NoGateway",
    "Node",
    "NodeScore",
    "OracleResult",
    "OverlapMatrix",
    "ParseError",
    "RadioModel",
    "ScenarioConfig",
    "SearchSpaceTooLarge",
    "Topology",
    "actual_link_rate",
    "brute_force_optimum",
    "build_conflict_graph",
    "crossover",
    "evaluate_file",
    "fairness_fitness",
    "feasible_channels",
    "generate_topology",
    "init_population_random",
    "init_population_semi_chaotic",
    "is_valid_assignment",
    "jain_index",
    "least_interfering_channel",
    "link_fairness",
    "link_interference_index",
    "link_snr",
    "load_assignment",
    "load_topology",
    "mclr_assign",
    "min_link_distance",
    "mutate",
    "network_metrics",
    "paper_scale_scenarios",
    "radio_violations",
    "rank_links",
    "run",
    "run_ga",
    "run_replicate",
    "run_sweep",
    "save_assignment",
    "save_topology",
    "score_nodes",
    "select_parents",
]
