"""The package's public names and the README's minimal session match the code."""

import ast
import re
from pathlib import Path

import numpy as np

import liouvlab
from liouvlab import config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_the_readme_session_runs():
    assert [name for name in liouvlab.__all__ if not hasattr(liouvlab, name)] == []
    star = {}
    exec("from liouvlab import *", star)
    assert set(liouvlab.__all__) <= set(star)

    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1, "the README has one python block, its minimal session"
    session = {}
    exec(blocks[0], session)
    assert session["L"].shape == (4, 4)
    assert session["spec"].ep_order == 2  # J = 0.525 is the qubit's EP at these rates
    assert abs(np.trace(session["rho_ss"]) - 1.0) <= 1e-12


def test_every_public_definition_in_src_has_a_caller_outside_the_tests():
    """Code that only tests call belongs in tests/oracles.py, not in the package."""
    root = README.parent
    package = [p for p in sorted((root / "src" / "liouvlab").glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text()) for p in package + sorted((root / "scripts").glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    public = [(path.name, node.name) for path in package for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert [(module, name) for module, name in public if name not in loaded] == []


def test_the_readme_key_table_matches_the_schema():
    lines = README.read_text().splitlines()
    start = lines.index("| Experiment | Section | Keys |") + 2
    table: dict = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        experiment, section, keys = (cell.strip() for cell in line.strip("|").split("|"))
        table.setdefault(experiment.strip("`"), {})[section.strip("`")] = re.findall(r"`(\w+)`", keys)
    assert table == {experiment: {name: list(keys) for name, keys in schema.items()
                                  if isinstance(keys, dict)}
                     for experiment, schema in config.SCHEMA.items()}
