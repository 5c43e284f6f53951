"""Command-line front end.

Subcommands: ``gen`` (write a topology file), ``assign`` (run one
algorithm on one topology), ``sweep`` (the full experiment grid),
``eval`` (recompute metrics for a topology/assignment file pair), and
``oracle`` (exhaustive search on small instances). Exit codes: 0 on
success, 2 for configuration errors, 3 for I/O or parse errors, 4 when
the oracle search-space guard trips.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .assignment import overlap_for_config, save_assignment
from .config import GaConfig, ScenarioConfig
from .errors import (
    InconsistentInputs,
    InvalidConfig,
    MeshcaError,
    ParseError,
    SearchSpaceTooLarge,
)
from .ga import ALGORITHMS, rank_table_for, run
from .harness import (
    RESULTS_HEADER,
    brute_force_optimum,
    build_record,
    evaluate_file,
    paper_scale_scenarios,
    run_sweep,
    write_history_csv,
)
from .fitness import network_metrics
from .topology import (
    build_conflict_graph,
    generate_topology,
    load_topology,
    save_topology,
)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc


def _scenario_from_args(args) -> ScenarioConfig:
    if args.config:
        return ScenarioConfig.from_dict(_load_json(args.config))
    return ScenarioConfig()


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_ranks(t, path: Path) -> None:
    table = rank_table_for(t)
    position = {int(lid): i for i, lid in enumerate(table.schedule)}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["link_id", "node_a", "node_b", "rank", "schedule_position"])
        for link in t.links:
            w.writerow([link.id, link.a, link.b, repr(float(table.ranks[link.id])),
                        position[link.id]])
    print(f"wrote {path}")


def _print_record(record) -> None:
    print(",".join(RESULTS_HEADER))
    print(",".join(record.to_csv_row()))


def _cmd_gen(args) -> int:
    config = _scenario_from_args(args)
    seed = args.seed if args.seed is not None else config.master_seed
    t = generate_topology(config, seed)
    out = _out_dir(args)
    path = out / f"topology-{config.name}-seed{seed}.json"
    save_topology(t, path)
    print(f"wrote {path} ({t.node_count} nodes, {t.link_count} links)")
    if args.dump_ranks:
        _dump_ranks(t, out / f"ranks-{config.name}-seed{seed}.csv")
    return 0


def _cmd_assign(args) -> int:
    t = load_topology(args.topology)
    seed = args.seed if args.seed is not None else t.seed
    cg = build_conflict_graph(t)
    m = overlap_for_config(t.params)
    ga = GaConfig.from_dict(_load_json(args.ga)) if args.ga else GaConfig()
    result = run(args.algo, t, cg, m, t.params.radio_model, ga, seed=seed)
    out = _out_dir(args)
    stem = f"{args.algo}-seed{seed}"
    assignment_path = out / f"assignment-{stem}.csv"
    save_assignment(result.best.assignment, assignment_path,
                    algorithm=args.algo, seed=seed)
    write_history_csv(result, out / f"history-{stem}.csv")
    metrics = network_metrics(result.best.assignment, t, cg, m)
    record = build_record(t.params.name, seed, args.algo, t,
                          result.best.report, metrics, result.iterations,
                          wall_ms=0.0)
    print(f"wrote {assignment_path}")
    _print_record(record)
    if args.dump_ranks:
        _dump_ranks(t, out / f"ranks-{stem}.csv")
    return 0


def _cmd_sweep(args) -> int:
    algorithms = list(ALGORITHMS)
    ga = GaConfig()
    if args.config:
        doc = _load_json(args.config)
        if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
            raise InvalidConfig(
                f"sweep config {args.config} needs a \"scenarios\" list"
            )
        scenarios = [ScenarioConfig.from_dict(d) for d in doc["scenarios"]]
        algorithms = doc.get("algorithms", algorithms)
        if "ga" in doc:
            ga = GaConfig.from_dict(doc["ga"])
    else:
        scenarios = paper_scale_scenarios()
    if args.seed is not None:
        scenarios = [
            ScenarioConfig.from_dict({**s.to_dict(), "master_seed": args.seed})
            for s in scenarios
        ]
    out = _out_dir(args)
    records = run_sweep(scenarios, algorithms, out, ga=ga,
                        workers=args.workers)
    print(f"wrote {out / 'results.csv'} ({len(records)} rows)")
    print(f"wrote {out / 'aggregates.csv'}")
    return 0


def _cmd_eval(args) -> int:
    record = evaluate_file(args.topology, args.assignment)
    _print_record(record)
    if args.out:
        out = _out_dir(args)
        path = out / "eval.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(RESULTS_HEADER)
            w.writerow(record.to_csv_row())
        print(f"wrote {path}")
    return 0


def _cmd_oracle(args) -> int:
    t = load_topology(args.topology)
    cfg = t.params
    if args.channels is not None:
        cfg = replace(cfg, channels=args.channels)
        cfg.validate()
    cg = build_conflict_graph(t)
    m = overlap_for_config(cfg)
    result = brute_force_optimum(t, cg, m, cfg.radio_model, cfg.channels,
                                 fitness_kind=args.fitness)
    print(f"optimum {args.fitness} fitness: {result.fitness!r} "
          f"({result.feasible}/{result.candidates} feasible candidates)")
    if args.out:
        out = _out_dir(args)
        path = out / f"assignment-oracle-{args.fitness}.csv"
        save_assignment(result.assignment, path, algorithm="oracle",
                        seed=t.seed)
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed override (defaults to the config/file seed)")
    common.add_argument("--config", default=None, help="JSON config path")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--dump-ranks", action="store_true",
                        help="also write the link-rank table CSV")

    parser = argparse.ArgumentParser(
        prog="meshca",
        description="channel assignment experiments for wireless mesh networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a topology file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("assign", parents=[common],
                       help="run one algorithm on one topology")
    p.add_argument("--algo", choices=ALGORITHMS, default="fa_scga")
    p.add_argument("--topology", required=True)
    p.add_argument("--ga", default=None, help="GaConfig JSON path")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("sweep", parents=[common], help="run the experiment grid")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a topology/assignment file pair")
    p.add_argument("--topology", required=True)
    p.add_argument("--assignment", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", parents=[common],
                       help="exhaustive optimum on a small topology")
    p.add_argument("--topology", required=True)
    p.add_argument("--channels", type=int, default=None)
    p.add_argument("--fitness", choices=("fairness", "interference"),
                   default="fairness")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ParseError, InconsistentInputs, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MeshcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
