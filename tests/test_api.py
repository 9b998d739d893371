"""The package's public names and the README's minimal session match the code."""

import ast
import re
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np

import liouvlab
from liouvlab import analysis, config, dynamics, liouvillian, model, numerics, trajectories

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
    """Code that only tests call belongs in tests/oracles.py, not in the package.

    The readers are src/, scripts/ and perfbench/. A public function or class
    of src/liouvlab counts as called when a reader loads its name, and a
    public method or property of one of its classes when a reader reads an
    attribute of that name.
    """
    root = README.parent
    package = [p for p in sorted((root / "src" / "liouvlab").glob("*.py")) if p.name != "__init__.py"]
    readers = package + sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in readers}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    uncalled = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in names | attributes:
                uncalled.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                uncalled += [(path.name, f"{node.name}.{item.name}") for item in node.body
                             if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                             and item.name not in attributes]
    assert uncalled == []


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


def test_only_the_validated_model_records_are_dataclasses():
    """The result records are NamedTuples; the four checked model records stay frozen dataclasses."""
    modules = (analysis, config, dynamics, liouvillian, model, numerics, trajectories)
    decorated = {name for module in modules for name, value in vars(module).items()
                 if isinstance(value, type) and value.__module__ == module.__name__
                 and is_dataclass(value)}
    assert decorated == {"Rates", "DriveParams", "QuantumSystem", "ParameterSchedule"}
    records = (numerics.EigenDecomposition, model.OperatorStack, liouvillian.SpectralResult,
               liouvillian.EpMap, dynamics.EvolutionResult, trajectories.EnsembleResult,
               analysis.DampedSineFit, analysis.LeastSquaresResult, analysis.TransitionScan,
               config.ExperimentConfig)
    assert all(issubclass(record, tuple) and record._field_defaults == {} for record in records)
    # the fields that perfbench/tracer.py reads from a result
    assert {"nfev", "status"} <= set(analysis.LeastSquaresResult._fields)
    assert {"n_trajectories", "times", "jump_count_histogram"} <= set(
        trajectories.EnsembleResult._fields)
