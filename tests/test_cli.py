import csv
import functools
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from meshca import ScenarioConfig
from meshca.assignment import OverlapMatrix
from meshca.config import MAX_CHANNELS, RadioModel
from meshca.harness import RESULTS_HEADER, brute_force_optimum, evaluate_file
from meshca.topology import (build_conflict_graph, generate_topology,
                             load_topology)
import meshca.cli
from meshca.cli import main
from test_topology import isolate_node_zero


def small_config(tmp_path, **overrides):
    cfg = ScenarioConfig(name="clitest", node_count=8, area_w=500.0,
                         area_h=500.0).to_dict()
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def topology_path(tmp_path):
    cfg = small_config(tmp_path)
    main(["gen", "--config", str(cfg), "--seed", "1",
          "--out", str(tmp_path)])
    return tmp_path / "topology-clitest-seed1.json"


class TestGen:
    def test_writes_topology(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        code = main(["gen", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "topology-clitest-seed1.json" in out
        assert (tmp_path / "topology-clitest-seed1.json").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = small_config(tmp_path, node_count=1)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 3

    def test_dump_ranks(self, tmp_path):
        cfg = small_config(tmp_path)
        code = main(["gen", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path), "--dump-ranks"])
        assert code == 0
        ranks = (tmp_path / "ranks-clitest-seed1.csv").read_text()
        assert ranks.splitlines()[0] == (
            "link_id,node_a,node_b,rank,schedule_position"
        )


class TestAssignEvalOracle:
    def test_assign_then_eval_round_trip(self, tmp_path, topology_path,
                                         capsys):
        ga = tmp_path / "ga.json"
        ga.write_text(json.dumps({"population_size": 6, "max_iterations": 3}))
        code = main(["assign", "--algo", "mclr", "--topology",
                     str(topology_path), "--ga", str(ga), "--seed", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        assign_line = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("clitest,")
        ][0]

        code = main(["eval", "--topology", str(topology_path),
                     "--assignment", str(tmp_path / "assignment-mclr-seed2.csv")])
        assert code == 0
        eval_line = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("clitest,")
        ][0]
        # identical metrics modulo the timing column
        assert (assign_line.rsplit(",", 1)[0]
                == eval_line.rsplit(",", 1)[0])

    def test_assign_writes_history(self, tmp_path, topology_path):
        main(["assign", "--algo", "fa_scga", "--topology",
              str(topology_path), "--seed", "2", "--out", str(tmp_path),
              "--ga", str(self._ga(tmp_path))])
        history = (tmp_path / "history-fa_scga-seed2.csv").read_text()
        assert history.splitlines()[0] == "generation,best,mean,sigma"

    def _ga(self, tmp_path):
        path = tmp_path / "ga.json"
        path.write_text(json.dumps({"population_size": 6,
                                    "max_iterations": 3}))
        return path

    def test_eval_without_seed_header_reports_topology_seed(self, tmp_path,
                                                            capsys):
        assert main(["gen", "--seed", "3", "--out", str(tmp_path)]) == 0
        [path] = tmp_path.glob("topology-*-seed3.json")
        t = load_topology(path)
        assignment = tmp_path / "assignment.csv"
        assignment.write_text(
            f"# channels: {t.params.channels}\nlink_id,channel\n"
            + "".join(f"{lid},0\n" for lid in range(t.link_count)))
        capsys.readouterr()
        assert main(["eval", "--topology", str(path),
                     "--assignment", str(assignment)]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[1:3] == ["3", "unknown"]
        # nor an iterations header: the row reports 0
        assert row[RESULTS_HEADER.index("iterations")] == "0"

    def test_printed_row_is_csv_when_a_name_holds_a_comma(self, tmp_path,
                                                          capsys):
        """A comma in the scenario name (assign) or in the ``# algorithm:``
        header (eval) is quoted: stdout parses as CSV to the header and to
        the record's own row, but for wall_ms."""
        cfg = small_config(tmp_path, name="mesh,a")
        assert main(["gen", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        topology = tmp_path / "topology-mesh,a-seed1.json"
        assert main(["assign", "--algo", "mclr", "--topology", str(topology),
                     "--out", str(tmp_path)]) == 0
        assignment = tmp_path / "assignment-mclr-seed1.csv"
        text = assignment.read_text()
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(text.replace("# algorithm: mclr",
                                        "# algorithm: mclr,tuned"))
        capsys.readouterr()
        for args, path in ((["assign", "--algo", "mclr", "--out",
                             str(tmp_path)], assignment),
                           (["eval", "--assignment", str(renamed)], renamed)):
            assert main(args + ["--topology", str(topology)]) == 0
            header, row = list(csv.reader(
                capsys.readouterr().out.splitlines()))[-2:]
            want = evaluate_file(topology, path).to_csv_row()
            assert header == RESULTS_HEADER
            assert row[:-1] == want[:-1]
        assert want[:3] == ["mesh,a", "1", "mclr,tuned"]

    def test_eval_missing_file_exits_3(self, tmp_path, topology_path):
        assert main(["eval", "--topology", str(topology_path),
                     "--assignment", str(tmp_path / "none.csv")]) == 3

    def test_oracle_small_instance(self, tmp_path, capsys):
        cfg = small_config(tmp_path, node_count=4, comm_range=400.0,
                           interference_distance=600.0)
        main(["gen", "--config", str(cfg), "--seed", "3",
              "--out", str(tmp_path)])
        topo = tmp_path / "topology-clitest-seed3.json"
        code = main(["oracle", "--topology", str(topo), "--out",
                     str(tmp_path)])
        assert code == 0
        assert "optimum fairness fitness" in capsys.readouterr().out

    def test_oracle_guard_exits_4(self, tmp_path):
        cfg = small_config(tmp_path, node_count=30)
        main(["gen", "--config", str(cfg), "--seed", "3",
              "--out", str(tmp_path)])
        topo = tmp_path / "topology-clitest-seed3.json"
        assert main(["oracle", "--topology", str(topo)]) == 4

    def test_oracle_non_finite_fitness_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        cfg = small_config(tmp_path, node_count=4)
        main(["gen", "--config", str(cfg), "--seed", "3",
              "--out", str(tmp_path)])
        topo = tmp_path / "topology-clitest-seed3.json"
        found = brute_force_optimum

        def nan_optimum(*args, **kwargs):
            return replace(found(*args, **kwargs), fitness=math.nan)

        monkeypatch.setattr(meshca.cli, "brute_force_optimum", nan_optimum)
        capsys.readouterr()
        assert main(["oracle", "--topology", str(topo), "--out",
                     str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "non-finite metric: fitness = nan" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("channels", [None, 4])
    def test_oracle_scores_with_scenario_overlap(self, tmp_path, capsys,
                                                 channels):
        cfg = small_config(tmp_path, node_count=4, comm_range=400.0,
                           interference_distance=600.0, channels=6,
                           overlap_kind="graded", overlap_span=3)
        main(["gen", "--config", str(cfg), "--seed", "3",
              "--out", str(tmp_path)])
        topo = tmp_path / "topology-clitest-seed3.json"
        argv = ["oracle", "--topology", str(topo)]
        if channels:
            argv += ["--channels", str(channels)]
        capsys.readouterr()
        assert main(argv) == 0
        k = channels or 6
        t = load_topology(topo)
        want = brute_force_optimum(t, build_conflict_graph(t),
                                   OverlapMatrix.graded(k, span=3),
                                   RadioModel(), k)
        assert f"fitness: {want.fitness!r} " in capsys.readouterr().out


def _break_topology(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class TestInputErrors:
    """Malformed input exits with the documented code, prints one error
    line and no traceback, and triggers no numeric warning."""

    def _exit_code(self, argv, capsys):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return code

    @pytest.mark.parametrize("edit, code", [
        (lambda d: d["links"][0].update(required_rate=0), 2),
        (lambda d: d["links"][0].update(required_rate=-1.0), 2),
        (lambda d: d["links"][0].update(id=999), 3),
        (lambda d: d["links"][0].update(b=len(d["nodes"])), 3),
        (lambda d: d["links"][0].update(b=d["links"][0]["a"]), 3),
        (lambda d: d["nodes"][0].update(radios=0), 3),
        (lambda d: d["params"].update(channels=0), 2),
        (lambda d: d["nodes"][0].update(x=math.nan), 3),
        (lambda d: d["nodes"][0].update(radios=2.5), 3),
        (lambda d: d["links"][0].update(required_rate=math.inf), 2),
        (lambda d: d.update(seed=-7), 3),
        (lambda d: [nd.update(gateway=False) for nd in d["nodes"]], 3),
        (lambda d: d["links"][0].update(required_rate=True), 3),
        (lambda d: d["params"].update(channels=10 ** 30), 2),
        (lambda d: d["params"].update(channels=MAX_CHANNELS + 1), 2),
        (lambda d: d["nodes"][0].update(x=1e308), 3),
    ], ids=["zero_rate", "negative_rate", "link_id_999",
            "endpoint_out_of_range", "self_loop", "node_without_radios",
            "zero_channels", "nan_x", "fractional_radios", "infinite_rate",
            "negative_seed", "no_gateway", "bool_rate", "huge_channels",
            "channels_over_bound", "far_x"])
    def test_bad_topology_file(self, tmp_path, topology_path, capsys, edit,
                               code):
        _break_topology(topology_path, edit)
        assert self._exit_code(["assign", "--algo", "mclr", "--topology",
                                str(topology_path), "--out", str(tmp_path)],
                               capsys) == code

    def test_disconnected_topology_exits_3(self, tmp_path, capsys):
        assert main(["gen", "--seed", "3", "--out", str(tmp_path)]) == 0
        [path] = tmp_path.glob("topology-*-seed3.json")
        _break_topology(path, isolate_node_zero)
        assert self._exit_code(["assign", "--algo", "mclr", "--topology",
                                str(path), "--out", str(tmp_path)],
                               capsys) == 3

    @pytest.mark.parametrize("doc", [
        {"node_count": 20, "bogus": 1},
        {"node_count": "20"},
        {"radio_model": {"tss": "loud"}},
        {"node_count": 20, "master_seed": -2},
        {"node_count": 20, "radio_model": {"tss": math.nan}},
        {"node_count": 20, "area_w": math.inf},
        {"node_count": 20, "interference_distance": math.inf},
        {"node_count": 20, "area_h": 10 ** 400},
        {"node_count": 20, "channels": 10 ** 30},
        {"node_count": 10 ** 30},
    ], ids=["unknown_key", "wrong_type", "wrong_radio_type",
            "negative_master_seed", "nan_tss", "infinite_area",
            "infinite_interference", "huge_int_area", "huge_channels",
            "huge_node_count"])
    def test_bad_gen_config_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        assert self._exit_code(["gen", "--config", str(cfg), "--out",
                                str(tmp_path)], capsys) == 2

    @pytest.mark.parametrize("doc", [
        {"population_size": "6"},
        {"population_size": 6, "elitism": True},
        {"fitness_kind": "interference"},
        {"init_kind": "random"},
        {"validate_every_generation": True},
        {"population_size": 10 ** 30},
    ], ids=["wrong_type", "unknown_key", "fitness_kind", "init_kind",
            "validate_every_generation", "huge_population"])
    def test_bad_ga_config_exits_2(self, tmp_path, topology_path, capsys, doc):
        ga = tmp_path / "ga.json"
        ga.write_text(json.dumps(doc))
        assert self._exit_code(["assign", "--topology", str(topology_path),
                                "--ga", str(ga), "--out", str(tmp_path)],
                               capsys) == 2

    @pytest.mark.parametrize("algo", ["mclr", "fa_scga"])
    def test_invalid_ga_config_exits_2_for_every_algorithm(
            self, tmp_path, topology_path, capsys, algo):
        ga = tmp_path / "ga.json"
        ga.write_text(json.dumps({"population_size": 1}))
        assert self._exit_code(["assign", "--algo", algo, "--topology",
                                str(topology_path), "--ga", str(ga),
                                "--out", str(tmp_path)], capsys) == 2

    @pytest.mark.parametrize("doc", [
        {"algorithms": ["mclr"]},
        {"scenarios": [{"node_count": 8, "bogus": 1}]},
        {"scenarios": [{"node_count": 8}], "ga": {"stall_window": 2.5}},
        {"scenarios": [{"node_count": 8}], "algorithms": 5},
        {"scenarios": [{"node_count": 8}], "algorithms": ["mclr", "mclr"]},
        {"scenarios": [{"node_count": 8, "master_seed": -2}]},
        {"scenarios": [{"node_count": 8,
                        "radio_model": {"path_loss_exp": math.nan}}]},
        {"scenarios": [{"node_count": 8, "area_w": math.inf}]},
        {"scenarios": [{"node_count": 8, "rate_hi": 10 ** 400}]},
        {"scenarios": [{"node_count": 8}], "ga": {"mutation_prob": math.nan}},
        {"scenarios": [{"node_count": 8}, {"node_count": 12}]},
    ], ids=["no_scenarios", "unknown_scenario_key", "wrong_ga_type",
            "algorithms_not_a_list", "algorithms_repeated",
            "negative_master_seed", "nan_path_loss", "infinite_area",
            "huge_int_rate", "nan_mutation_prob", "one_name_two_configs"])
    def test_bad_sweep_config_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        assert self._exit_code(["sweep", "--config", str(cfg), "--out",
                                str(tmp_path)], capsys) == 2
        assert not (tmp_path / "results.csv").exists()

    def test_bad_scenario_named_before_bad_ga(self, tmp_path, capsys):
        """A config raises where it is built, so the scenario list, read
        first, is the one named."""
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"scenarios": [{"channels": 0}],
                                   "ga": {"population_size": 1}}))
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: channels must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["eval", "oracle"])
    def test_gatewayless_topology_exits_3(self, tmp_path, topology_path,
                                          capsys, command):
        assert main(["assign", "--algo", "mclr", "--topology",
                     str(topology_path), "--out", str(tmp_path)]) == 0
        _break_topology(topology_path, lambda d: [
            nd.update(gateway=False) for nd in d["nodes"]])
        argv = [command, "--topology", str(topology_path)]
        if command == "eval":
            argv += ["--assignment", str(tmp_path / "assignment-mclr-seed1.csv")]
        assert self._exit_code(argv, capsys) == 3

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b'{"node_count": 1' + b"0" * 5000 + b"}",
    ], ids=["not_utf8", "int_past_digit_limit"])
    def test_unreadable_json_exits_3(self, tmp_path, topology_path, capsys,
                                     content):
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        for argv in (["gen", "--config", str(path)],
                     ["assign", "--topology", str(path)],
                     ["assign", "--topology", str(topology_path),
                      "--ga", str(path)],
                     ["eval", "--topology", str(topology_path),
                      "--assignment", str(path)]):
            assert self._exit_code(argv + ["--out", str(tmp_path / "o")],
                                   capsys) == 3

    # 10**30 reached multiprocessing as an OverflowError, not exit 2
    @pytest.mark.parametrize("workers", ["0", "-3", "65", str(10 ** 30)])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, workers):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"scenarios": [{
            "node_count": 8, "topologies_per_scenario": 1}],
            "algorithms": ["mclr"]}))
        assert self._exit_code(["sweep", "--config", str(cfg), "--workers",
                                workers, "--out", str(tmp_path)], capsys) == 2
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("command", [
        ["gen"],
        ["assign", "--algo", "mclr"],
        ["assign", "--algo", "fa_scga"],
        ["sweep"],
    ], ids=["gen", "assign_mclr", "assign_fa_scga", "sweep"])
    def test_negative_seed_exits_2(self, tmp_path, topology_path, capsys,
                                   command):
        out = tmp_path / "out"
        if command[0] == "assign":
            command = command + ["--topology", str(topology_path)]
        assert self._exit_code(command + ["--seed", "-1", "--out", str(out)],
                               capsys) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("header", ["# channels: three", "# seed: x",
                                        "# seed: -3", "# iterations: -1"])
    def test_non_integer_assignment_header_exits_3(self, tmp_path,
                                                   topology_path, capsys,
                                                   header):
        """A non-integer header, or a negative seed that ``gen`` could not
        regenerate, is a parse error."""
        t = load_topology(topology_path)
        assignment = tmp_path / "assignment.csv"
        assignment.write_text(
            f"# channels: {t.params.channels}\n{header}\nlink_id,channel\n"
            + "".join(f"{lid},0\n" for lid in range(t.link_count)))
        assert self._exit_code(["eval", "--topology", str(topology_path),
                                "--assignment", str(assignment)],
                               capsys) == 3

    def test_assignment_over_a_radio_budget_exits_3(self, tmp_path, capsys):
        cfg = small_config(tmp_path, node_count=20, radios=1, channels=4,
                           area_w=1000.0, area_h=1000.0)
        assert main(["gen", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "topology-clitest-seed5.json"
        t = load_topology(path)
        genes = [0] * t.link_count
        hub = next(v for v, inc in enumerate(t.incident_links) if len(inc) > 1)
        for c, lid in enumerate(t.incident_links[hub]):
            genes[lid] = c % 4
        assignment = tmp_path / "assignment.csv"
        assignment.write_text("# channels: 4\nlink_id,channel\n" + "".join(
            f"{lid},{c}\n" for lid, c in enumerate(genes)))
        assert self._exit_code(["eval", "--topology", str(path),
                                "--assignment", str(assignment)],
                               capsys) == 3

    def test_unknown_key_module_invocation_has_no_traceback(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"node_count": 20, "bogus": 1}))
        proc = subprocess.run(
            [sys.executable, "-m", "meshca.cli", "gen", "--config", str(cfg),
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "bogus" in proc.stderr


class TestSweepCommand:
    def test_sweep_with_config(self, tmp_path):
        doc = {
            "scenarios": [
                ScenarioConfig(name="s0", node_count=8, area_w=500.0,
                               area_h=500.0,
                               topologies_per_scenario=1).to_dict()
            ],
            "algorithms": ["mclr", "fa_scga"],
            "ga": {"population_size": 6, "max_iterations": 3},
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows


class TestSeedContract:
    def test_assign_and_eval_reproduce_the_sweep_rows(self, tmp_path, capsys):
        scenario = ScenarioConfig(name="contract", node_count=27,
                                  topologies_per_scenario=1).to_dict()
        ga = {"population_size": 10, "max_iterations": 15}
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"scenarios": [scenario], "ga": ga}))
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "sweep")]) == 0
        header, *rows = [
            line.split(",") for line in
            (tmp_path / "sweep" / "results.csv").read_text().splitlines()]
        assert [row[2] for row in rows] == ["mclr", "ia_ga", "scga", "fa_scga"]

        # regenerate the topology from the row seed and save it
        seed = rows[0][1]
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(scenario))
        assert main(["gen", "--config", str(config), "--seed", seed,
                     "--out", str(tmp_path)]) == 0
        topology = tmp_path / f"topology-contract-seed{seed}.json"
        ga_path = tmp_path / "ga.json"
        ga_path.write_text(json.dumps(ga))
        for row in rows:
            algorithm = row[2]
            capsys.readouterr()
            assert main(["assign", "--algo", algorithm, "--topology",
                         str(topology), "--ga", str(ga_path),
                         "--out", str(tmp_path)]) == 0
            printed = capsys.readouterr().out.splitlines()[-1].split(",")
            assert header[-1] == "wall_ms"
            assert printed[:-1] == row[:-1]
            assert main(["eval", "--topology", str(topology), "--assignment",
                         str(tmp_path / f"assignment-{algorithm}-seed{seed}.csv")
                         ]) == 0
            evaluated = capsys.readouterr().out.splitlines()[-1].split(",")
            assert evaluated[:-1] == row[:-1]


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        cfg = small_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "meshca.cli", "gen", "--config", str(cfg),
             "--seed", "1", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "topology-clitest-seed1.json" in proc.stdout


# ---------------------------------------------------------------------------
# fuzzed documents: no malformed input escapes as a traceback

# replacement values: every JSON type, the edge numbers, and sizes that
# are either tiny or past every upper bound, so no draw allocates much
FUZZ_VALUES = st.sampled_from([
    None, True, False, -1, 0, 1, 2, 7, 2 ** 63, 10 ** 30, -0.5, 0.0, 0.5,
    1e308, math.nan, math.inf, -math.inf, "", "x", "3", [], {}, [0],
    {"a": 1}])


def _paths(doc, path=()):
    """Every path from the root of a JSON document to one of its values,
    the root included."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _retyped(value):
    """``value`` as other JSON types holding the same content."""
    if isinstance(value, bool):
        return [int(value), str(value).lower()]
    if isinstance(value, (int, float)):
        return [str(value), [value], float(value) if isinstance(value, int)
                else int(value) if math.isfinite(value) else None]
    if isinstance(value, str):
        return [[value], {value: value}]
    if isinstance(value, list):
        return [{str(i): v for i, v in enumerate(value)}, len(value)]
    if isinstance(value, dict):
        return [list(value.values()), list(value)]
    return [0, ""]


@st.composite
def mutated_json(draw, doc):
    """``doc`` (left intact) with one value replaced by a drawn value,
    deleted, or retyped. Deleting the root leaves an empty file; the
    result is JSON text, NaN and infinities as Python's ``json`` writes
    them."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    op = draw(st.sampled_from(["replace", "delete", "retype"]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]] if path else doc
    new = (draw(FUZZ_VALUES) if op == "replace"
           else draw(st.sampled_from(_retyped(old))) if op == "retype"
           else None)
    if not path:
        return "" if op == "delete" else json.dumps(new)
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return json.dumps(doc)


@st.composite
def mutated_lines(draw, text):
    """``text``, an assignment file, with one line deleted or replaced, or
    one comma-separated cell of a line replaced or retyped."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["delete", "line", "cell", "retype"]))
    if op == "delete":
        del lines[i]
    elif op == "line":
        lines[i] = str(draw(FUZZ_VALUES))
    else:
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        cells[j] = (f"{cells[j]}.0" if op == "retype"
                    else str(draw(FUZZ_VALUES)))
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"



FUZZ_SCENARIO = ScenarioConfig(name="fz", node_count=5, area_w=350.0,
                               area_h=350.0, channels=3, radios=2,
                               topologies_per_scenario=1).to_dict()
FUZZ_GA = {"population_size": 4, "max_iterations": 3, "stall_window": 2}
FUZZ_SWEEP = {"scenarios": [FUZZ_SCENARIO], "algorithms": ["mclr", "fa_scga"],
              "ga": FUZZ_GA}
ALGOS = st.sampled_from(["mclr", "ia_ga", "scga", "fa_scga"])
# the topology of ``fuzz_base`` with node 0 at x = 1e308: its links'
# lengths overflowed to inf, and assign ran on with NaN node scores
FAR_NODE = generate_topology(ScenarioConfig.from_dict(FUZZ_SCENARIO),
                             4).to_dict()
FAR_NODE["nodes"][0]["x"] = 1e308


@functools.cache
def fuzz_base():
    """A valid topology document and an assignment file for it."""
    with tempfile.TemporaryDirectory() as d:
        with redirect_stdout(io.StringIO()):
            Path(d, "s.json").write_text(json.dumps(FUZZ_SCENARIO))
            assert main(["gen", "--config", f"{d}/s.json", "--seed", "4",
                         "--out", d]) == 0
            topology = Path(d, "topology-fz-seed4.json")
            assert main(["assign", "--algo", "mclr", "--topology",
                         str(topology), "--out", d]) == 0
        return (json.loads(topology.read_text()),
                Path(d, "assignment-mclr-seed4.csv").read_text())


TOPOLOGIES = st.deferred(lambda: mutated_json(fuzz_base()[0]))
ASSIGNMENTS = st.deferred(lambda: mutated_lines(fuzz_base()[1]))


def run_fuzzed(files, argv):
    """Write ``files`` (name to text) into a fresh directory and run
    ``main`` on ``argv``, each ``{d}`` there naming the directory."""
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            Path(d, name).write_text(text)
        argv = [arg.format(d=d) for arg in argv] + ["--out", f"{d}/out"]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 2, 3, 4)


class TestFuzzedDocuments:
    """Valid documents with one value replaced, deleted or retyped, run
    through ``main`` in-process: each run exits 0, 2, 3 or 4, and no
    exception escapes."""

    @given(mutated_json(FUZZ_SCENARIO))
    # numpy cannot hold so many radios in an int64: an OverflowError
    @example(json.dumps({**FUZZ_SCENARIO, "radios": 10 ** 30}))
    # the squared distances of placement overflowed: a RuntimeWarning
    @example(json.dumps({**FUZZ_SCENARIO, "area_w": 1e200, "area_h": 1e200}))
    @settings(max_examples=40, deadline=None)
    def test_gen_config(self, scenario):
        run_fuzzed({"s.json": scenario},
                   ["gen", "--config", "{d}/s.json", "--dump-ranks"])

    @given(mutated_json(FUZZ_SWEEP))
    # a path-loss exponent this large rounds every link rate to 0: the
    # GA's fitness was NaN and it ended in a TypeError
    @example(json.dumps({**FUZZ_SWEEP, "scenarios": [{
        **FUZZ_SCENARIO, "radio_model": {**FUZZ_SCENARIO["radio_model"],
                                         "path_loss_exp": 2 ** 63}}]}))
    @settings(max_examples=40, deadline=None)
    def test_sweep_config(self, sweep):
        run_fuzzed({"s.json": sweep}, ["sweep", "--config", "{d}/s.json"])

    @given(TOPOLOGIES, ALGOS)
    @example(json.dumps(FAR_NODE), "mclr")
    @settings(max_examples=40, deadline=None)
    def test_assign_topology(self, topology, algo):
        run_fuzzed({"t.json": topology, "g.json": json.dumps(FUZZ_GA)},
                   ["assign", "--algo", algo, "--topology", "{d}/t.json",
                    "--ga", "{d}/g.json"])

    @given(mutated_json(FUZZ_GA), ALGOS)
    @settings(max_examples=40, deadline=None)
    def test_assign_ga(self, ga, algo):
        run_fuzzed({"t.json": json.dumps(fuzz_base()[0]), "g.json": ga},
                   ["assign", "--algo", algo, "--topology", "{d}/t.json",
                    "--ga", "{d}/g.json"])

    @given(TOPOLOGIES)
    @example(json.dumps(FAR_NODE))
    @settings(max_examples=40, deadline=None)
    def test_eval_topology(self, topology):
        run_fuzzed({"t.json": topology, "a.csv": fuzz_base()[1]},
                   ["eval", "--topology", "{d}/t.json",
                    "--assignment", "{d}/a.csv"])

    @given(ASSIGNMENTS)
    @settings(max_examples=40, deadline=None)
    def test_eval_assignment(self, assignment):
        run_fuzzed({"t.json": json.dumps(fuzz_base()[0]), "a.csv": assignment},
                   ["eval", "--topology", "{d}/t.json",
                    "--assignment", "{d}/a.csv"])

    @given(TOPOLOGIES)
    @settings(max_examples=40, deadline=None)
    def test_oracle_topology(self, topology):
        run_fuzzed({"t.json": topology}, ["oracle", "--topology", "{d}/t.json"])
