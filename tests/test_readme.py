"""The README's Python examples run as written, and the names it gives
each module exist there."""

import importlib
import inspect
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


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
