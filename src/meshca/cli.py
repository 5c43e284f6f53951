"""Command-line front end.

Subcommands: ``gen`` (write a topology file), ``assign`` (run one
algorithm on one topology), ``sweep`` (the full experiment grid),
``eval`` (recompute metrics for a topology/assignment file pair), and
``oracle`` (exhaustive search on small instances). Exit codes: 0 on
success, 2 for configuration errors and for a metric that computes to
NaN or infinity (``NonFiniteMetric``, nothing is reported), 3 for I/O or
parse errors, 4 when the oracle search-space guard trips.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .assignment import save_assignment
from .config import GaConfig, ScenarioConfig
from .errors import (
    InconsistentInputs,
    InvalidConfig,
    MeshcaError,
    ParseError,
    SearchSpaceTooLarge,
)
from .ga import ALGORITHMS
from .harness import (
    RESULTS_HEADER,
    brute_force_optimum,
    evaluate_file,
    paper_scale_scenarios,
    problem_for,
    require_finite,
    run_row,
    run_sweep,
    write_history_csv,
)
from .topology import generate_topology, load_topology, save_topology


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # bad UTF-8, JSON or a huge int
        raise ParseError(f"cannot read config {path}: {exc}") from exc


def _scenario_from_args(args) -> ScenarioConfig:
    if args.config:
        return ScenarioConfig.from_dict(_load_json(args.config))
    return ScenarioConfig()


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_ranks(problem, path: Path) -> None:
    t, table = problem.t, problem.rank_table
    position = {int(lid): i for i, lid in enumerate(table.schedule)}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["link_id", "node_a", "node_b", "rank", "schedule_position"])
        for lid, (a, b) in enumerate(zip(t.link_a.tolist(), t.link_b.tolist())):
            w.writerow([lid, a, b, repr(float(table.ranks[lid])), position[lid]])
    print(f"wrote {path}")


def _print_record(record) -> None:
    csv.writer(sys.stdout, lineterminator="\n").writerows(
        [RESULTS_HEADER, record.to_csv_row()])


def _cmd_gen(args) -> int:
    config = _scenario_from_args(args)
    seed = args.seed if args.seed is not None else config.master_seed
    t = generate_topology(config, seed)
    out = _out_dir(args)
    path = out / f"topology-{config.name}-seed{seed}.json"
    save_topology(t, path)
    print(f"wrote {path} ({t.node_count} nodes, {t.link_count} links)")
    if args.dump_ranks:
        _dump_ranks(problem_for(t),
                    out / f"ranks-{config.name}-seed{seed}.csv")
    return 0


def _cmd_assign(args) -> int:
    t = load_topology(args.topology)
    seed = args.seed if args.seed is not None else t.seed
    ga = GaConfig.from_dict(_load_json(args.ga)) if args.ga else GaConfig()
    problem = problem_for(t)
    record, result = run_row(problem, args.algo, ga, seed)
    out = _out_dir(args)
    stem = f"{args.algo}-seed{seed}"
    assignment_path = out / f"assignment-{stem}.csv"
    save_assignment(result.best.assignment, assignment_path,
                    algorithm=args.algo, seed=seed,
                    iterations=result.iterations)
    write_history_csv(result, out / f"history-{stem}.csv")
    print(f"wrote {assignment_path}")
    _print_record(record)
    if args.dump_ranks:
        _dump_ranks(problem, out / f"ranks-{stem}.csv")
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
        scenarios = [replace(s, master_seed=args.seed) for s in scenarios]
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
    p = problem_for(t, cfg)
    result = brute_force_optimum(t, p.cg, p.m, p.rm, p.channels,
                                 fitness_kind=args.fitness)
    require_finite(fitness=result.fitness)
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
    parser = argparse.ArgumentParser(
        prog="meshca",
        description="channel assignment experiments for wireless mesh networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(func=func)
        return p

    dump_ranks = dict(action="store_true",
                      help="also write the link-rank table CSV")

    p = command("gen", _cmd_gen, "generate a topology file")
    p.add_argument("--config", default=None, help="ScenarioConfig JSON path")
    p.add_argument("--seed", type=int, default=None,
                   help="topology seed (default: the config's master_seed)")
    p.add_argument("--dump-ranks", **dump_ranks)

    p = command("assign", _cmd_assign, "run one algorithm on one topology")
    p.add_argument("--algo", choices=ALGORITHMS, default="fa_scga")
    p.add_argument("--topology", required=True)
    p.add_argument("--ga", default=None, help="GaConfig JSON path")
    p.add_argument("--seed", type=int, default=None,
                   help="row seed (default: the topology file's seed); the "
                        "GA runs with seed + 1, so a topology regenerated "
                        "with a sweep row's seed reproduces that row")
    p.add_argument("--dump-ranks", **dump_ranks)

    p = command("sweep", _cmd_sweep, "run the experiment grid")
    p.add_argument("--config", default=None,
                   help="sweep JSON path: scenarios, algorithms, ga")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed of every scenario (default: each "
                        "scenario's own)")
    p.add_argument("--workers", type=int, default=1)

    p = command("eval", _cmd_eval, "evaluate a topology/assignment file pair")
    p.add_argument("--topology", required=True)
    p.add_argument("--assignment", required=True)

    p = command("oracle", _cmd_oracle,
                "exhaustive optimum on a small topology")
    p.add_argument("--topology", required=True)
    p.add_argument("--channels", type=int, default=None)
    p.add_argument("--fitness", choices=("fairness", "interference"),
                   default="fairness")
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
