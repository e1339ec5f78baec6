"""The README's Python examples run as written, and the names it gives
each module exist there."""

import importlib
import inspect
import pathlib
import re
import shlex

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_parse():
    """Every `sfpa ...` line of the README's CLI block parses with the CLI's
    own parser (nothing runs), so a removed flag cannot linger there."""
    from sfpa.cli import build_parser

    cli = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", cli, re.M | re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("sfpa ")]
    assert len(lines) >= 8
    for words in lines:
        build_parser().parse_args(words[1:])


def test_readme_module_bullets_name_live_code():
    """Every backticked bare identifier in a `sfpa.<module>` bullet is an
    attribute of that module or of one of its classes."""
    bullets = re.findall(r"^- `(sfpa\.\w+)`(.*?)(?=^- |^\S|^$)", README.read_text(), re.M | re.S)
    assert bullets
    stale = []
    for name, text in bullets:
        module = importlib.import_module(name)
        owners = [module] + [c for _, c in inspect.getmembers(module, inspect.isclass)]
        stale += [f"{name}: {word}" for word in re.findall(r"`([A-Za-z_]\w*)`", text)
                  if not any(hasattr(owner, word) for owner in owners)]
    assert not stale


def test_readme_key_table_lists_the_loaders_keys():
    """The README's input-file table gives exactly the keys, in order, of
    `sfpa.valuations.SCHEMA`, which every loader validates against: per
    object (and kind), the required keys and the optional ones."""
    from sfpa.valuations import SCHEMA

    code = {}
    for name, keys in SCHEMA.items():
        if isinstance(keys, dict):
            code.update({(name, f"`{kind}`"): (("kind", *required), optional)
                         for kind, (required, optional) in keys.items()})
        else:
            code[name, ""] = keys
    rows = re.findall(r"^\| (.*?) \| (.*?) ?\| (.*?) ?\| (.*?) ?\|$", README.read_text(), re.M)
    table = {(name, kind): (tuple(re.findall(r"`(\w+)`", required)),
                            tuple(re.findall(r"`(\w+)`", optional)))
             for name, kind, required, optional in rows if name != "object"}
    assert table == code
