"""The CLI's input boundary, driven in process through `cli.main`.

Valid game, tie-rule and Bayesian game files are mutated once each: a key
the object's `sfpa.valuations.SCHEMA` entry does not allow is inserted, a
key it requires is deleted, or a number is replaced by a string or a
boolean. The keys come from SCHEMA, which the loaders validate against.
Every mutation must exit 2 with a message that starts with the mutated
dotted field. So must a value of the right type but the wrong shape or
sign, which the loaders pass on and the game's own checks refuse.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from sfpa.cli import main
from sfpa.valuations import SCHEMA

from oracles import examples

VALUATIONS = [  # one valid valuation of each kind on 2 items, optional keys given
    {"kind": "table", "m": 2, "values": [0.0, 0.5, 0.25, 1.0]},
    {"kind": "additive", "m": 2, "weights": [0.5, 0.25]},
    {"kind": "single_minded", "m": 2, "items": [0, 1], "value": 1.0},
    {"kind": "and", "m": 2, "value": 1.0},
    {"kind": "or", "m": 2, "value": 0.75, "items": [1]},
    {"kind": "xos", "m": 2, "clauses": [[1.0, 0.0], [0.25, 0.5]]},
]
RULE = {"kind": "randomized",
        "mixture": [{"prob": 0.5, "rule": {"kind": "index"}},
                    {"prob": 0.5, "rule": {"kind": "priority", "order": [[1, 0], [0, 1]]}}]}
BAYES = {"types": [[VALUATIONS[3]], [VALUATIONS[4], VALUATIONS[1]]],
         "prior": [[0.5, 0.5]],
         "actions": [[[0.0, 0.0], [0.5, 0.5]], [[0.0, 0.0], [0.5, 0.0]]],
         "strategies": [[[1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]],
         "tie_rule": {"kind": "priority", "order": [[1, 0], [0, 1]]}}
# (file, the field the loader names it by, its SCHEMA entry, the command reading it)
FILES = [
    ({"valuations": VALUATIONS, "tie_rule": RULE}, "", "game file", ["walrasian", "--game"]),
    (RULE, "tie_rule", "tie rule", ["pure-nash", "--game", "andor", "--m", "2", "--grid-step",
                                    "0.5", "--max", "1.0", "--tie-rule"]),
    (BAYES, "", "Bayesian game file", ["bayes", "--file"]),
    ({**BAYES, "prior": {"kind": "product", "marginals": [[1.0], [0.5, 0.5]]}}, "",
     "Bayesian game file", ["bayes", "--file"]),
]
NESTED = {"valuations": "valuation", "types": "valuation", "tie_rule": "tie rule",
          "mixture": "mixture entry", "rule": "tie rule", "prior": "product prior"}
PER_ENTRY = {"actions", "strategies", "marginals"}  # lists read, and named, entry by entry


def keys_of(obj: dict, entry: str) -> tuple:
    """The (required, optional) keys SCHEMA[entry] gives `obj`."""
    keys = SCHEMA[entry]
    if isinstance(keys, dict):
        return ("kind", *keys[obj["kind"]][0]), keys[obj["kind"]][1]
    return keys


KEYS = sorted({"kind", "bogus"} | {key for entry in SCHEMA for keys in (
    SCHEMA[entry].values() if isinstance(SCHEMA[entry], dict) else [SCHEMA[entry]])
    for group in keys for key in group})


def sites(node, field: str, entry, joined: int, objects: list, numbers: list) -> None:
    """Append (field, object, SCHEMA entry) for each object in `node` to `objects`,
    and (field, container, key) for each number to `numbers`. `field` is
    the name a loader gives: list indices join it for the first `joined`
    list levels."""
    if isinstance(node, dict):
        objects.append((field, node, entry))
        for key, value in node.items():
            name = f"{field}.{key}" if field else key
            holds_objects = key in NESTED and "{" in json.dumps(value)
            if isinstance(value, (dict, list)):
                sites(value, name, NESTED.get(key), 99 if holds_objects else int(key in PER_ENTRY),
                      objects, numbers)
            elif not isinstance(value, str):
                numbers.append((name, node, key))
    else:
        for i, value in enumerate(node):
            name = f"{field}[{i}]" if joined > 0 else field
            if isinstance(value, (dict, list)):
                sites(value, name, entry, joined - 1, objects, numbers)
            else:
                numbers.append((name, node, i))


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_valid_files_run(tmp_path):
    assert {v["kind"] for v in VALUATIONS} == set(SCHEMA["valuation"])
    path = tmp_path / "input.json"
    for doc, _, _, argv in FILES:
        path.write_text(json.dumps(doc))
        assert run([*argv, str(path)]) == (0, "")


@settings(max_examples=examples(60), derandomize=True, deadline=None)
@given(st.data())
def test_one_mutation_exits_2_naming_its_field(tmp_path_factory, data):
    doc, root, entry, argv = data.draw(st.sampled_from(FILES))
    doc = copy.deepcopy(doc)
    objects, numbers = [], []
    sites(doc, root, entry, 0, objects, numbers)
    how = data.draw(st.sampled_from(["insert", "delete", "string", "bool"]))
    if how in ("string", "bool"):
        field, container, key = data.draw(st.sampled_from(numbers))
        container[key] = True if how == "bool" else str(container[key])
    else:
        field, obj, entry = data.draw(st.sampled_from(objects))
        required, optional = keys_of(obj, entry)
        if how == "insert":
            key = data.draw(st.sampled_from([k for k in KEYS if k not in (*required, *optional)]))
            obj[key] = 1.0
        else:
            key = data.draw(st.sampled_from(required))
            del obj[key]
        field = f"{field}.{key}" if field else key
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    code, err = run([*argv, str(path)])
    assert code == 2, (how, field, err)
    assert json.loads(err)["error"]["message"].startswith(f"{field}:"), (how, field, err)


@pytest.mark.parametrize("key, value, field", [
    ("prior", [[0.5]], "prior"),  # one type profile for 1 x 2 types
    ("actions", [[[-1.0, 0.0]], BAYES["actions"][1]], "actions[0]"),
    ("tie_rule", {"kind": "randomized", "mixture": [{"prob": 1.0, "rule": {  # a nested mixture
        "kind": "randomized", "mixture": [{"prob": 1.0, "rule": {"kind": "index"}}]}}]},
     "tie_rule.mixture[0].rule"),
])
def test_shape_mutation_exits_2_naming_its_field(tmp_path, key, value, field):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps({**BAYES, key: value}))
    code, err = run(["bayes", "--file", str(path)])
    assert code == 2, err
    assert json.loads(err)["error"]["message"].startswith(f"{field}:"), err


def test_zero_welfare_bayes_ratio_is_null(tmp_path):
    """Strategies with zero expected welfare report the ratio as null, not
    as an infinity JSON cannot hold."""
    doc = copy.deepcopy(BAYES)
    doc["types"][1][1]["weights"] = [0, 0.25]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bayes", "--file", str(path)]) == 0
    welfare = json.loads(out.getvalue())["result"]["welfare"]
    assert welfare["expected_welfare"] == 0.0 and welfare["ratio"] is None
