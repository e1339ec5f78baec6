import hashlib
import json
import os
import re
import resource
import subprocess
import sys

import numpy as np

from sfpa import auction, closedform as cf, dynamics, equilibrium, experiments as xp
from sfpa.cli import build_parser, main
from sfpa.valuations import AdditiveValuation
from sfpa.experiments import dumps_canonical, emit_plot_data


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_of(out: str) -> dict:
    d = json.loads(out)
    d.pop("wall_clock_s", None)
    return d


def test_walrasian_triangle(capsys):
    code, out, _ = run_cli(["walrasian", "--game", "triangle"], capsys)
    assert code == 0
    assert body_of(out)["result"] == {"exists": False}


def test_walrasian_single_item_file(tmp_path, capsys):
    game = {"valuations": [{"kind": "additive", "m": 1, "weights": [1.0]},
                           {"kind": "additive", "m": 1, "weights": [2.0]}]}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game))
    code, out, _ = run_cli(["walrasian", "--game", str(path)], capsys)
    assert code == 0
    res = body_of(out)["result"]
    assert res["exists"] and 1.0 - 1e-9 <= res["prices"][0] <= 2.0 + 1e-9


def test_builtin_and_file_triangle_agree(tmp_path, capsys):
    """A game file's bidders bid on the bundles their valuations give, as the
    builtin game's do."""
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"valuations": [
        {"kind": "single_minded", "m": 3, "items": items, "value": 1.0}
        for items in ([0, 1], [1, 2], [0, 2])]}))
    args = ["--family", "uniform_on_bundle", "--grid-step", "0.25", "--max", "1",
            "--epsilon", "0.3"]
    results = []
    for game in ("triangle", str(path)):
        code, out, _ = run_cli(["pure-nash", "--game", game, *args], capsys)
        assert code == 0
        results.append(body_of(out)["result"])
    assert results[0] == results[1] and results[0]["count"] == 8


def test_walrasian_has_one_tolerance(tmp_path, capsys):
    code, _, err = run_cli(["walrasian", "--game", "andor", "--tolerance", "0"], capsys)
    assert code == 1 and json.loads(err)["error"]["kind"] == "usage"
    code, _, err = run_with_config(tmp_path, capsys, {"tolerance": 0},
                                   ("walrasian", "--game", "andor"))
    assert "'tolerance'" in precondition_message(code, err)
    # exact ties that float rounding misses by about 1e-16 pass at MONEY_TOL
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"valuations": [{"kind": "additive", "weights": [0.3, 0.2, 1.0]},
                                               {"kind": "additive", "weights": [0.5, 0.1, 0.6]}]}))
    code, out, _ = run_cli(["walrasian", "--game", str(path)], capsys)
    assert code == 0 and body_of(out)["result"]["prices"] == [0.3, 0.1, 0.6]


def test_verify_andor(capsys):
    code, out, _ = run_cli(["verify", "--game", "andor", "--m", "2", "--v", "1.0",
                            "--grid-step", "0.001"], capsys)
    assert code == 0
    res = body_of(out)["result"]
    assert res["and_gap"] <= 1e-6 and res["or_gap"] <= 1e-6


def test_determinism_byte_identical(capsys):
    args = ["poa", "--game", "andor", "--m", "4", "--v", "0.5",
            "--trials", "20000", "--seed", "9"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert body_of(out1) == body_of(out2)
    assert json.dumps(body_of(out1), sort_keys=True) == \
        json.dumps(body_of(out2), sort_keys=True)


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(["no-such-command"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "usage"


def test_cap_exit_code(capsys):
    code, _, err = run_cli(["pure-nash", "--game", "andor", "--m", "2",
                            "--grid-step", "0.0001"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "precondition"
    message = json.loads(err)["error"]["message"]
    # 20001^4 profiles; 57^4 <= 11,000,000 < 58^4: a step just past 2/57 gives 57 levels
    assert message == ("grid_step: past the cap of 11000000 grid profiles; "
                       f"grid_step >= {2.0 / (57 - 2e-9)!r} fits")


def test_welfare_cap_names_its_knob(capsys):
    code, _, err = run_cli(["walrasian", "--game", "grid", "--l", "3", "--cap", "1000"], capsys)
    assert code == 2
    message = json.loads(err)["error"]["message"]
    assert message.startswith("cap: ") and "79244 subset pairs" in message
    assert message.endswith("cap >= 79244 fits")


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(["walrasian", "--game", "nope.json"], capsys)
    assert code == 2


def test_csv_plot_data(capsys):
    code, out, _ = run_cli(["sample", "--strategy", "andor", "--m", "2", "--v", "1.0",
                            "--count", "10", "--seed", "1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "series,x,y"
    assert len(lines) == 1 + 200 + 200  # two sampled CDF curves


def test_sample_single_minded_bodies_pinned(capsys):
    # SHA-256 of the canonical body without wall-clock; the triangle carries no k or d
    for args, want in (
            (["--strategy", "triangle"],
             "815946848d9197f39a5555b7a1d942bdee2317fab56e98204e9d73b96dcc6ce8"),
            (["--strategy", "single_minded", "--k", "3", "--d", "2"],
             "fac0a2e89677c29e63eeb511b8bdb3a88a4dc3c741bab9dca5e515a0e63baa09")):
        code, out, _ = run_cli(["sample", *args, "--count", "50", "--seed", "3"], capsys)
        assert code == 0
        body = dumps_canonical(body_of(out))
        assert hashlib.sha256(body.encode()).hexdigest() == want


def test_emit_plot_data_empty():
    assert emit_plot_data({"result": "nothing"}) == "series,x,y\n"


def test_emit_plot_data_rows():
    rep = {"series": [{"name": "s", "points": [[0, 1], [1, 2]]}]}
    assert emit_plot_data(rep) == "series,x,y\ns,0,1\ns,1,2\n"


def test_config_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v": 0.5}))
    code, out, _ = run_cli(["poa", "--game", "andor", "--m", "4", "--v", "1.0",
                            "--trials", "1000", "--config", str(cfg)], capsys)
    assert code == 0
    assert body_of(out)["spec"]["v"] == 0.5


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(["walrasian", "--game", "triangle", "--out", str(path)],
                           capsys)
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["result"] == {"exists": False}


def test_pure_nash_cli(capsys):
    code, out, _ = run_cli(["pure-nash", "--game", "andor", "--m", "2", "--v", "0.4",
                            "--grid-step", "0.2", "--max", "1.0"], capsys)
    assert code == 0
    res = body_of(out)["result"]
    assert res["count"] >= 1
    assert all(e["gap"] <= 1e-12 for e in res["equilibria"])


def test_poa_sweep_plot_rows(capsys):
    code, out, _ = run_cli(["poa", "--game", "andor", "--sweep", "4,9,16,25",
                            "--trials", "20000", "--seed", "2", "--format", "csv"],
                           capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 4 + 4  # header + welfare row per m + bound row per m
    welfare = {}
    for line in lines[1:5]:
        name, x, y = line.split(",")
        assert name == "welfare_vs_m"
        welfare[int(float(x))] = float(y)
    for m, w in welfare.items():
        assert w <= 2.0 / m ** 0.5 + 0.02


def test_dynamics_cli(capsys):
    code, out, _ = run_cli(["dynamics", "--mode", "additive", "--n", "2", "--m", "2",
                            "--rounds", "2000", "--seed", "4"], capsys)
    assert code == 0
    res = body_of(out)["result"]
    assert res["regret_within_envelope"]
    assert res["welfare"]["bound_beta_ok"]


def test_dynamics_single_item_cli(capsys):
    code, out, _ = run_cli(["dynamics", "--mode", "single-item", "--values", "1,2",
                            "--rounds", "2000", "--grid-step", "0.1"], capsys)
    assert code == 0
    assert abs(body_of(out)["result"]["tail_mean_price"] - 1.0) < 0.3


def test_bayes_cli_builtin_and_file(tmp_path, capsys):
    code, out, _ = run_cli(["bayes"], capsys)
    assert code == 0
    assert body_of(out)["result"]["two_type"]["max_gap"] == 0.0
    doc = {
        "types": [[{"kind": "additive", "m": 1, "weights": [1.0]}],
                  [{"kind": "additive", "m": 1, "weights": [0.5]}]],
        "prior": [[1.0]],
        "actions": [[[0.0], [0.5]], [[0.0], [0.5]]],
        "strategies": [[[0.0, 1.0]], [[1.0, 0.0]]],
    }
    path = tmp_path / "bayes.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["bayes", "--file", str(path)], capsys)
    assert code == 0
    res = body_of(out)["result"]
    assert len(res["gaps"]) == 2
    assert res["welfare"]["bound_general_ok"]


def test_bayes_file_tie_rules(tmp_path, capsys):
    doc = {
        "types": [[{"kind": "additive", "m": 1, "weights": [1.0]}],
                  [{"kind": "additive", "m": 1, "weights": [1.0]}]],
        "prior": [[1.0]],
        "actions": [[[0.0], [0.5]], [[0.0], [0.5]]],
        "strategies": [[[0.0, 1.0]], [[1.0, 0.0]]],
        "tie_rule": {"kind": "randomized",
                     "mixture": [{"prob": 0.5, "rule": {"kind": "index"}},
                                 {"prob": 0.5, "rule": {"kind": "priority",
                                                        "order": [[1, 0]]}}]},
    }
    path = tmp_path / "bayes.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["bayes", "--file", str(path)], capsys)
    assert code == 2
    assert "tie_rule" in json.loads(err)["error"]["message"]
    # ties favor player 1 under this priority rule and player 0 by default,
    # which decides who gains by matching the other's bid
    doc["tie_rule"] = {"kind": "priority", "order": [[1, 0]]}
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["bayes", "--file", str(path)], capsys)
    assert code == 0
    assert body_of(out)["result"]["gaps"] == [[0.0], [0.5]]
    del doc["tie_rule"]
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["bayes", "--file", str(path)], capsys)
    assert body_of(out)["result"]["gaps"] == [[0.5], [0.0]]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sfpa.cli", "walrasian",
                           "--game", "triangle"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {"exists": False}


def write_game(tmp_path, valuations) -> str:
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"valuations": valuations}))
    return str(path)


def test_walrasian_many_welfare_ties_file(tmp_path, capsys):
    # 4^9 assignments tie at welfare 0; the first already has supporting prices
    path = write_game(tmp_path, [{"kind": "additive", "m": 9, "weights": [0.0] * 9}] * 4)
    code, out, _ = run_cli(["walrasian", "--game", path], capsys)
    assert code == 0
    res = body_of(out)["result"]
    assert res["exists"] and res["prices"] == [0.0] * 9


def precondition_message(code, err) -> str:
    assert code == 2
    error = json.loads(err)["error"]
    assert error["kind"] == "precondition"
    return error["message"]


def test_game_file_mixed_item_counts(tmp_path, capsys):
    path = write_game(tmp_path, [{"kind": "additive", "m": 1, "weights": [1.0]},
                                 {"kind": "additive", "m": 2, "weights": [1.0, 1.0]}])
    message = precondition_message(*run_cli(["walrasian", "--game", path], capsys)[::2])
    assert message.startswith("valuations[1]:") and "m=2" in message


def test_game_file_non_finite_value(tmp_path, capsys):
    # a NaN weight (json writes a bare NaN), and finite weights whose sum overflows
    for weights in ([float("nan")], [1e308, 1e308]):
        path = write_game(tmp_path, [{"kind": "additive", "weights": [1.0] * len(weights)},
                                     {"kind": "additive", "weights": weights}])
        with np.errstate(over="ignore"):
            message = precondition_message(*run_cli(["walrasian", "--game", path], capsys)[::2])
        assert message.startswith("valuations[1]:") and "finite" in message


def test_game_file_invalid_valuation(tmp_path, capsys):
    path = write_game(tmp_path, [{"kind": "additive", "m": 2, "weights": [1.0, 1.0]},
                                 {"kind": "table", "m": 2, "values": [0.0, 0.5, 0.5, -1.0]}])
    for command in ("walrasian", "pure-nash"):
        message = precondition_message(*run_cli([command, "--game", path], capsys)[::2])
        assert message.startswith("valuations[1]: negative")


def test_game_file_numbers_are_numbers(tmp_path, capsys):
    """A string, a boolean, a ragged list, a list for a number or an integer
    past float range where a valuation holds numbers, a boolean, a float or
    an item outside 0..m-1 where it holds integers, and an `m` the weights
    or clauses contradict exit 2 naming the dotted field; a string of digits
    is not split into numbers."""
    ok = {"kind": "additive", "m": 2, "weights": [1.0, 1.0]}
    for bad, field in (({"kind": "additive", "weights": "05"}, "weights"),
                       ({"kind": "additive", "weights": [0.5, False]}, "weights"),
                       ({"kind": "table", "m": 2, "values": "0121"}, "values"),
                       ({"kind": "and", "m": 2, "value": "1"}, "value"),
                       ({"kind": "and", "m": 2, "value": True}, "value"),
                       ({"kind": "or", "m": 2, "value": None}, "value"),
                       ({"kind": "single_minded", "m": 2, "items": [0], "value": [1]}, "value"),
                       ({"kind": "xos", "clauses": [[1.0, 0.0], [0.5]]}, "clauses"),
                       ({"kind": "xos", "clauses": [[1.0, 10 ** 400]]}, "clauses"),
                       ({"kind": "and", "m": True, "value": 1.0}, "m"),
                       ({"kind": "table", "m": 1.0, "values": [0.0, 1.0]}, "m"),
                       ({"kind": "single_minded", "m": 2, "items": [True], "value": 1.0}, "items"),
                       ({"kind": "or", "m": 2, "value": 1.0, "items": 1}, "items"),
                       ({"kind": "single_minded", "m": 2, "items": [10 ** 18], "value": 1.0},
                        "items"),
                       ({"kind": "or", "m": 2, "value": 1.0, "items": [10 ** 20]}, "items"),
                       ({"kind": "or", "m": 2, "value": 1.0, "items": [-1]}, "items"),
                       ({"kind": "additive", "m": 3, "weights": [1.0, 1.0]}, "m"),
                       ({"kind": "xos", "m": 5, "clauses": [[1.0, 1.0]]}, "m")):
        path = write_game(tmp_path, [ok, bad])
        for command in ("walrasian", "pure-nash"):
            message = precondition_message(*run_cli([command, "--game", path], capsys)[::2])
            assert message.startswith(f"valuations[1].{field}:")


def test_bayes_file_types_validated(tmp_path, capsys):
    doc = {"types": [[{"kind": "additive", "m": 1, "weights": [1.0]}],
                     [{"kind": "additive", "m": 1, "weights": [0.5]},
                      {"kind": "table", "m": 1, "values": [0.0, -0.5]}]],
           "prior": [[0.5, 0.5]], "actions": [[[0.0]], [[0.0]]],
           "strategies": [[[1.0]], [[1.0], [1.0]]]}
    path = tmp_path / "bayes.json"
    path.write_text(json.dumps(doc))
    message = precondition_message(*run_cli(["bayes", "--file", str(path)], capsys)[::2])
    assert message.startswith("types[1][1]: negative")
    doc["types"][1][1] = {"kind": "additive", "m": 2, "weights": [0.5, 0.5]}
    path.write_text(json.dumps(doc))
    message = precondition_message(*run_cli(["bayes", "--file", str(path)], capsys)[::2])
    assert message.startswith("types[1][1]:") and "m=2" in message
    doc["types"][1] = [{"kind": "additive", "m": 2, "weights": [0.5, 0.5]}] * 2
    path.write_text(json.dumps(doc))
    message = precondition_message(*run_cli(["bayes", "--file", str(path)], capsys)[::2])
    assert message.startswith("types[1]:") and "m=1" in message


def test_bayes_file_missing_keys(tmp_path, capsys):
    doc = {"types": [[{"kind": "additive", "m": 1, "weights": [1.0]}]],
           "prior": [1.0], "actions": [[[0.0]]], "strategies": [[[1.0]]]}
    path = tmp_path / "bayes.json"
    for key in doc:
        path.write_text(json.dumps({k: v for k, v in doc.items() if k != key}))
        message = precondition_message(*run_cli(["bayes", "--file", str(path)], capsys)[::2])
        assert message.startswith(f"{key}:")
    path.write_text(json.dumps([doc]))
    precondition_message(*run_cli(["bayes", "--file", str(path)], capsys)[::2])


def test_malformed_tie_rules_and_game_files(tmp_path, capsys):
    vals = [{"kind": "additive", "m": 1, "weights": [1.0]},
            {"kind": "additive", "m": 1, "weights": [2.0]}]
    bayes = {"types": [[vals[0]], [vals[1]]], "prior": [[1.0]],
             "actions": [[[0.0]], [[0.0]]], "strategies": [[[1.0]], [[1.0]]]}
    game, rule_file, bayes_file = (tmp_path / name for name in ("g.json", "r.json", "b.json"))
    for rule, field in (({"kind": "priority"}, "tie_rule.order"),
                        ({"kind": "priority", "order": 5}, "tie_rule.order"),
                        ({"kind": "priority", "order": [[0, "1"]]}, "tie_rule.order"),
                        ({"kind": "randomized", "mixture": [{"prob": 1.0}]},
                         "tie_rule.mixture[0].rule"),
                        ({"kind": "randomized",
                          "mixture": [{"prob": True, "rule": {"kind": "index"}}]},
                         "tie_rule.mixture[0].prob"),
                        ("index", "tie_rule"), ([{"kind": "index"}], "tie_rule")):
        game.write_text(json.dumps({"valuations": vals, "tie_rule": rule}))
        rule_file.write_text(json.dumps(rule))
        bayes_file.write_text(json.dumps({**bayes, "tie_rule": rule}))
        for args in (["walrasian", "--game", str(game)], ["pure-nash", "--game", str(game)],
                     ["pure-nash", "--game", "triangle", "--tie-rule", str(rule_file)],
                     ["bayes", "--file", str(bayes_file)]):
            message = precondition_message(*run_cli(args, capsys)[::2])
            assert message.startswith(f"{field}:"), (rule, args, message)
    # well-formed JSON that is no valid rule for this game; walrasian reads no tie rule
    for rule, field in (({"kind": "priority", "order": [[0]]}, "tie_rule"),
                        ({"kind": "priority", "order": [[0, 1]] * 2}, "tie_rule"),
                        ({"kind": "randomized",
                          "mixture": [{"prob": 0.5, "rule": {"kind": "index"}}]}, "tie_rule"),
                        ({"kind": "randomized", "mixture": [{"prob": 1.0, "rule": {
                            "kind": "randomized", "mixture": [{"prob": 1.0, "rule": {}}]}}]},
                         "tie_rule.mixture[0].rule.mixture[0].rule.kind")):
        game.write_text(json.dumps({"valuations": vals, "tie_rule": rule}))
        bayes_file.write_text(json.dumps({**bayes, "tie_rule": rule}))
        for args in (["pure-nash", "--game", str(game)], ["bayes", "--file", str(bayes_file)]):
            message = precondition_message(*run_cli(args, capsys)[::2])
            assert message.startswith(f"{field}:"), (rule, args, message)
    game.write_text(json.dumps([{"valuations": vals}]))
    for command in ("walrasian", "pure-nash"):
        message = precondition_message(*run_cli([command, "--game", str(game)], capsys)[::2])
        assert message.startswith("game file:")


def test_verify_andor_needs_two_trials(capsys):
    code, _, err = run_cli(["verify", "--game", "andor", "--m", "2", "--trials", "1"], capsys)
    assert "trials" in precondition_message(code, err)


def test_poa_needs_two_trials(capsys):
    for args in (["--m", "4", "--trials", "0"], ["--m", "4", "--trials", "1"],
                 ["--sweep", "4,9", "--trials", "1"]):
        code, _, err = run_cli(["poa", *args], capsys)
        assert "trials" in precondition_message(code, err)


def test_closedform_refusals_name_their_field(capsys):
    for args, field in ((["poa", "--m", "1"], "m: "),
                        (["sample", "--strategy", "andor", "--m", "1"], "m: "),
                        (["poa", "--trials", "1"], "trials: "),
                        (["verify", "--game", "andor", "--m", "2", "--trials", "1"], "trials: "),
                        (["sample", "--strategy", "single_minded", "--k", "1"], "k: "),
                        (["sample", "--strategy", "single_minded", "--d", "1"], "d: ")):
        code, _, err = run_cli(args, capsys)
        assert precondition_message(code, err).startswith(field), args


def test_unread_flags_are_usage_errors(capsys):
    for args in (["verify", "--game", "andor", "--strategy", "x"],
                 ["poa", "--tolerance", "0.1"], ["dynamics", "--tie-rule", "index"],
                 ["walrasian", "--game", "triangle", "--tie-rule", "index"],
                 ["walrasian", "--game", "triangle", "--seed", "1"],
                 ["pure-nash", "--game", "andor", "--seed", "1"],
                 ["bayes", "--seed", "1"], ["sample", "--strategy", "andor", "--tolerance", "1"]):
        code, _, err = run_cli(args, capsys)
        assert code == 1, args
        assert json.loads(err)["error"]["kind"] == "usage"


def test_deterministic_commands_echo_no_seed(capsys):
    code, out, _ = run_cli(["walrasian", "--game", "triangle"], capsys)
    body = body_of(out)
    assert code == 0 and "seed" not in body
    assert set(body["spec"]) == {"cap", "command", "game", "m", "side", "v"}


def run_with_config(tmp_path, capsys, settings, args=("poa", "--m", "4", "--trials", "1000")):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    return run_cli([*args, "--config", str(cfg)], capsys)


def test_config_unknown_key(tmp_path, capsys):
    code, _, err = run_with_config(tmp_path, capsys, {"bogus_key": 1})
    assert "'bogus_key'" in precondition_message(code, err)
    # a flag of another subcommand is unknown here too
    code, _, err = run_with_config(tmp_path, capsys, {"tolerance": 0.1})
    assert "'tolerance'" in precondition_message(code, err)


def test_config_value_of_wrong_type(tmp_path, capsys):
    code, _, err = run_with_config(tmp_path, capsys, {"trials": "many"})
    assert "'trials'" in precondition_message(code, err)
    code, _, err = run_with_config(tmp_path, capsys, {"trials": 2.5})
    assert "'trials'" in precondition_message(code, err)
    code, _, err = run_with_config(tmp_path, capsys, {"sweep": "4,x"})
    assert precondition_message(code, err).startswith("sweep")
    code, _, err = run_with_config(tmp_path, capsys, {"values": "1,y"},
                                   ("dynamics", "--mode", "single-item", "--rounds", "10"))
    assert precondition_message(code, err).startswith("values")


def test_config_value_outside_choices(tmp_path, capsys):
    code, _, err = run_with_config(tmp_path, capsys, {"game": "triangle"})
    assert "'game'" in precondition_message(code, err)


def test_config_keys_by_option_name(tmp_path, capsys):
    code, out, _ = run_with_config(
        tmp_path, capsys, {"grid-step": 0.2, "max": 1.0, "v": 0.4},
        ("pure-nash", "--game", "andor", "--m", "2"))
    assert code == 0
    spec = body_of(out)["spec"]
    assert (spec["grid_step"], spec["upper"], spec["v"]) == (0.2, 1.0, 0.4)


def test_bayes_file_input_checked(tmp_path, capsys):
    doc = {"types": [[{"kind": "and", "m": 2, "value": 1.0}],
                     [{"kind": "or", "m": 2, "value": 0.5}]],
           "prior": [[1.0]], "actions": [[[0.0, 0.0], [0.5, 0.5]], [[0.0, 0.0], [0.5, 0.0]]],
           "strategies": [[[1.0, 0.0]], [[0.0, 1.0]]]}
    path = tmp_path / "bayes.json"
    cases = [("actions", [[[0.0, 0.0], [0.5, 0.5]], [[0.0], [0.5]]], "actions[1]:"),
             ("actions", doc["actions"][:1], "actions:"),
             ("prior", [[float("nan")]], "prior:"),
             ("strategies", [[[1.0, 0.0]], [[float("nan"), 1.0]]], "strategies[1]:"),
             ("strategies", doc["strategies"][:1], "strategies:"),
             ("strategies", doc["strategies"] * 2, "strategies:"),
             ("types", 3, "types:"), ("actions", 3, "actions:"), ("strategies", 3, "strategies:"),
             ("prior", {"kind": "product", "marginals": 3}, "prior.marginals:"),
             ("prior", {"kind": "product", "marginals": [[1.0], "x"]}, "prior.marginals[1]:"),
             ("prior", "x", "prior:"), ("actions", [3, 3], "actions[0]"),
             ("actions", [[["y", 0.0]], doc["actions"][1]], "actions[0]:"),
             ("strategies", [[[1.0, 0.0]], "x"], "strategies[1]:"),
             ("strategies", [[[True, False]], [[0.0, 1.0]]], "strategies[0]:"),
             ("prior", [[True]], "prior:"), ("actions", [[["0", 0.0]], [[0.5, 0.0]]], "actions[0]:"),
             ("prior", {"kind": "product", "marginals": [[1.0], [True]]}, "prior.marginals[1]:"),
             ("types", [[{"kind": "and", "m": 2, "value": "1"}], doc["types"][1]],
              "types[0][0].value:")]
    for key, value, field in cases:
        path.write_text(json.dumps({**doc, key: value}))  # NaN is written as a bare NaN
        message = precondition_message(*run_cli(["bayes", "--file", str(path)], capsys)[::2])
        assert message.startswith(field)
    path.write_text(json.dumps({"types": [], "prior": 1.0, "actions": [], "strategies": []}))
    message = precondition_message(*run_cli(["bayes", "--file", str(path)], capsys)[::2])
    assert message.startswith("types:")


def test_pure_nash_input_checked(capsys):
    base = ["pure-nash", "--game", "andor", "--v", "0.4", "--grid-step", "0.1", "--max", "1.0"]
    for flag, value, field in (("--epsilon", "-1", "epsilon"), ("--epsilon", "nan", "epsilon"),
                               ("--grid-step", "nan", "grid step"), ("--max", "nan", "grid max"),
                               ("--limit", "-1", "limit")):
        code, _, err = run_cli(base + [flag, value], capsys)
        assert precondition_message(code, err).startswith(field)


def test_dynamics_optimum_out_of_reach_exits_before_learning(monkeypatch, capsys):
    import sfpa.experiments as xp

    def learn(*args):
        raise AssertionError("learned before the welfare optimum was checked")

    monkeypatch.setattr(xp, "run_no_regret", learn)
    code, _, err = run_cli(["dynamics", "--m", "17", "--rounds", "5000"], capsys)
    message = precondition_message(code, err)
    assert message.startswith("m") and "--cap" not in message


def test_dynamics_trace_too_large_names_rounds(capsys):
    code, _, err = run_cli(["dynamics", "--rounds", "1000000000000"], capsys)
    assert precondition_message(code, err).startswith("rounds")


def test_oversized_counts_refused_before_drawing(monkeypatch, capsys):
    import sfpa.closedform as cf
    import sfpa.experiments as xp

    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the size was checked")

    for module, name in ((np, "empty"), (cf, "rng_for"), (xp, "rng_for")):
        monkeypatch.setattr(module, name, allocate)
    huge = "1000000000000"
    for args, field in ((["sample", "--strategy", "andor", "--count", huge], "count"),
                        (["sample", "--strategy", "triangle", "--count", huge], "count"),
                        (["poa", "--trials", huge], "trials"),
                        (["poa", "--sweep", "4,9", "--trials", huge], "trials"),
                        (["verify", "--game", "andor", "--trials", huge], "trials")):
        code, _, err = run_cli(args, capsys)
        message = precondition_message(code, err)
        assert message.startswith(f"{field}: past the cap of 2147483648 bytes; {field} <= ")


def test_single_minded_grid_too_large_names_k(monkeypatch, capsys):
    import sfpa.closedform as cf

    def score(*args):
        raise AssertionError("scored the grid before checking its size")

    monkeypatch.setattr(cf, "singleminded_utility", score)
    for k in ("4", "5", "1000000000"):  # 97^3 = 912,673 <= 2,000,000 < 97^4
        code, _, err = run_cli(["verify", "--game", "single_minded", "--k", k], capsys)
        message = precondition_message(code, err)
        assert message == "k: past the cap of 2000000 bid vectors; k <= 3 fits"


def test_grid_steps_too_fine_refused_before_allocating(monkeypatch, capsys):
    """A grid step with more levels than GRID_CAP is refused naming grid_step
    before np.arange allocates them (1e-9 on the additive game would take
    gigabytes, so it only ever runs with the allocation patched to fail)."""
    def arange(*args, **kwargs):
        raise AssertionError("allocated before the level count was checked")

    learn = ["--rounds", "10"]
    monkeypatch.setattr(np, "arange", arange)
    for args in (["pure-nash", "--game", "andor", "--grid-step", "1e-300"],
                 ["dynamics", "--mode", "single-item", "--grid-step", "1e-300", *learn],
                 ["dynamics", "--grid-step", "1e-9", *learn],
                 ["dynamics", "--grid-step", "1e-300", *learn]):
        code, _, err = run_cli(args, capsys)
        assert precondition_message(code, err).startswith("grid_step: "), args


def test_andor_dynamics_refusal_names_m(capsys):
    """The AND bidder's 41^m grid is refused naming --m, the one size flag of
    `sfpa dynamics --mode andor`, before the power of a huge m is formed."""
    for m in ("4", "100000000"):
        code, _, err = run_cli(["dynamics", "--mode", "andor", "--m", m, "--rounds", "10"],
                               capsys)
        message = precondition_message(code, err)
        assert message.startswith("m: ") and message.endswith("; m <= 3 fits")


def test_poa_huge_m_names_m(monkeypatch, capsys):
    """m is checked before the welfare DP's 3^m pair count is formed, and
    before the Monte Carlo draws a trial."""
    import sfpa.closedform as cf
    import sfpa.experiments as xp

    def draw(*args, **kwargs):
        raise AssertionError("drew trials before m was checked")

    for module in (cf, xp):
        monkeypatch.setattr(module, "rng_for", draw)
    for m in ("21", "100000000"):
        code, _, err = run_cli(["poa", "--m", m, "--trials", "20000"], capsys)
        message = precondition_message(code, err)
        assert message.startswith("m: ") and "--cap" not in message


def test_cap_defaults_are_one_constant():
    import inspect

    from sfpa import auction, equilibrium
    from sfpa.cli import build_parser
    from sfpa.valuations import MONEY_TOL

    for fn in (auction.optimal_welfare, auction.optimal_allocations,
               equilibrium.walrasian_search):
        assert inspect.signature(fn).parameters["cap"].default == auction.CAP
    assert inspect.signature(auction.optimal_allocations).parameters["tol"].default == MONEY_TOL
    args = build_parser().parse_args(["walrasian", "--game", "andor"])
    assert args.cap == auction.CAP == 11_000_000


def test_bad_flags_name_their_field(capsys):
    learn = ["--rounds", "10"]
    for args, field in ((["walrasian", "--game", "andor", "--v", "nan"], "value"),
                        (["poa", "--v", "nan"], "v: "),
                        (["dynamics", "--mode", "andor", "--v", "nan", *learn], "v: "),
                        (["dynamics", "--mode", "additive", "--n", "0", *learn], "n must"),
                        (["walrasian", "--game", "grid", "--l", "0"], "side"),
                        (["pure-nash", "--game", "grid", "--l", "0"], "side"),
                        (["dynamics", "--mode", "andor", "--m", "4", *learn], "m: "),
                        (["dynamics", "--mode", "single-item", "--values", "1,-2", *learn],
                         "weights"),
                        (["dynamics", "--mode", "additive", "--grid-step", "0", *learn],
                         "grid step"),
                        (["sample", "--strategy", "andor", "--count", "-1"], "count: "),
                        (["poa", "--sweep", "4,x", "--trials", "1000"], "sweep"),
                        (["poa", "--sweep", "4,,9", "--trials", "1000"], "sweep"),
                        (["poa", "--sweep", "0", "--trials", "1000"], "sweep"),
                        (["poa", "--sweep", "-4", "--trials", "1000"], "sweep"),
                        (["dynamics", "--mode", "single-item", "--values", "1,y", *learn],
                         "values"),
                        (["dynamics", "--mode", "single-item", "--values", "0,0", *learn],
                         "values: "),
                        (["poa", "--sweep", "", "--trials", "100"], "sweep"),
                        (["pure-nash", "--game", "andor", "--m", "2", "--grid-step", "0.5",
                          "--epsilon", "inf"], "epsilon: must be finite"),
                        (["pure-nash", "--game", "andor", "--epsilon", "nan"],
                         "epsilon: must be finite"),
                        (["pure-nash", "--game", "andor", "--m", "30", "--grid-step", "1",
                          "--max", "0.5"], "m: need 1 to 20 items, got 30"),
                        (["walrasian", "--game", "andor", "--m", "21"], "m: need 1 to 20 items"),
                        (["pure-nash", "--game", "grid", "--l", "5"], "side (--l): need 1 to 4"),
                        (["walrasian", "--game", "grid", "--l", "5"], "side (--l): need 1 to 4")):
        code, _, err = run_cli(args, capsys)
        assert precondition_message(code, err).startswith(field), args
    # Sizes that hung or allocated gigabytes before they were checked run in a
    # fresh process, under a 3 GiB address-space cap and a timeout.
    capped = {"env": {**os.environ, "OPENBLAS_NUM_THREADS": "1"}, "preexec_fn": lambda:
              resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))}
    for args, field in ((["pure-nash", "--game", "andor", "--m", str(10 ** 18)], "m: need 1"),
                        (["pure-nash", "--game", "andor", "--m", "100000000"], "m: need 1"),
                        (["verify", "--game", "andor", "--m", "100000000"],
                         "m: past the cap of 2147483648 bytes; m <= 53633 fits"),
                        (["verify", "--game", "andor", "--m", "2000", "--grid-step", "0.00001"],
                         "m: past the cap of 2147483648 bytes; m <= 536 fits"),
                        (["dynamics", "--mode", "additive", "--n", str(10 ** 12), *learn],
                         "n: past the cap of 11000000 welfare-DP subset pairs; n <= 3666668"),
                        (["dynamics", "--mode", "additive", "--m", "1000000000", *learn],
                         "m: need 1 to 20"),
                        (["dynamics", "--mode", "additive", "--n", "1000000", "--m", "20",
                          *learn], "m: past the cap of 11000000 welfare-DP subset pairs; m <= 2")):
        proc = subprocess.run([sys.executable, "-m", "sfpa.cli", *args], capture_output=True,
                              text=True, timeout=30, **capped)
        assert precondition_message(proc.returncode, proc.stderr).startswith(field), args


class PastTheCheck(Exception):
    """Raised by the call a command makes right after its size check passes."""


def _cli(*argv):
    """A size-refusal row's runner: the command with `value` for its "{}"; the
    refusal's message (exit 2, a CapExceeded), or None once past the check."""
    def run(value, capsys):
        code, _, err = run_cli([value if a == "{}" else a for a in argv], capsys)
        error = json.loads(err)["error"]
        if error["type"] == "PastTheCheck":
            return None
        assert code == 2 and error["type"] == "CapExceeded", error
        return error["message"]
    return run


def _finite_game(value, capsys):
    """The runner of a FiniteGame of three additive bidders over `value` items."""
    m = int(value)
    try:
        dynamics.FiniteGame([AdditiveValuation((1.0,) * m)] * 3,
                            [dynamics.ExplicitActions(np.zeros((1, m)))] * 3)
    except auction.CapExceeded as exc:
        return str(exc)
    except PastTheCheck:
        return None


HUGE = "1000000000000"
# (command, runner, a refused value, its field, the call right after the check)
SIZE_REFUSALS = [
    ("pure-nash", _cli("pure-nash", "--game", "andor", "--grid-step", "{}"), "0.002",
     "grid_step", (equilibrium, "value_tables")),
    ("walrasian", _cli("walrasian", "--game", "grid", "--l", "4", "--cap", "{}"), "11000000",
     "cap", (auction, "value_tables")),
    ("verify", _cli("verify", "--game", "andor", "--m", "{}"), "100000000",
     "m", (cf, "andor_equilibrium_utilities")),
    ("dynamics", _cli("dynamics", "--n", "3", "--m", "{}", "--rounds", "10"), "15",
     "m", (xp, "rng_for")),
    ("dynamics", _finite_game, "17", "m", (dynamics, "optimal_welfare")),
    ("dynamics", _cli("dynamics", "--n", "{}", "--m", "1", "--rounds", "10"), "10000000",
     "n", (xp, "rng_for")),
    ("verify", _cli("verify", "--game", "single_minded", "--k", "{}"), "5",
     "k", (cf, "singleminded_utility")),
    ("dynamics", _cli("dynamics", "--mode", "andor", "--m", "{}", "--rounds", "10"), "4",
     "m", (xp, "andor_game")),
    ("poa", _cli("poa", "--trials", "{}"), HUGE, "trials", (cf, "rng_for")),
    ("verify", _cli("verify", "--game", "andor", "--trials", "{}"), HUGE,
     "trials", (xp, "rng_for")),
    ("sample", _cli("sample", "--strategy", "andor", "--count", "{}"), HUGE,
     "count", (xp, "rng_for")),
    ("sample", _cli("sample", "--strategy", "triangle", "--count", "{}"), HUGE,
     "count", (xp, "rng_for")),
    ("dynamics", _cli("dynamics", "--rounds", "{}"), HUGE, "rounds", (dynamics, "value_tables")),
    ("dynamics", _cli("dynamics", "--grid-step", "{}", "--rounds", "10"), "1e-9",
     "grid_step", (np, "arange")),
]


def test_size_refusals_name_a_flag_and_a_tight_value(monkeypatch, capsys):
    """Every size refusal ends "<field> <= v fits" or "<field> >= v fits",
    where --<field> is a flag of the command. The named value gets past the
    check (the call right after it is patched to stop there), and one step
    past it is refused again: v + 1 for "<=", v - 1 for a cap ">=", and 0.99 v
    for a grid step. The FiniteGame row is the library's: learning has no
    cap flag, so its welfare DP refusal names `sfpa dynamics --m`."""
    def stop(*args, **kwargs):
        raise PastTheCheck

    for command, run, value, field, (module, name) in SIZE_REFUSALS:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, stop)
            message = run(value, capsys)
            named, op, fit = re.search(r"; (\w+) ([<>]=) (\S+) fits$", message).groups()
            flags = build_parser().commands[command]._option_string_actions
            assert named == field and f"--{field.replace('_', '-')}" in flags, message
            assert run(fit, capsys) is None, (command, field, fit)
            past = (repr(0.99 * float(fit)) if field == "grid_step"
                    else str(int(fit) + (1 if op == "<=" else -1)))
            assert run(past, capsys) is not None, (command, field, past)
