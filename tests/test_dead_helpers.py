"""Every public top-level function of the package is called by the package
itself or by the benchmark, so no helper lives on for its tests alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Functions that only tests call, each with the reason it stays.
TEST_ONLY = {
    "objective_value": "the regularized objective that criterion 3 checks is monotone",
    "svr_objective": "the SVR objective that the subgradient-descent test checks decreases",
}


def _trees(*directories):
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_function_is_called():
    public = {
        node.name
        for tree in _trees("src/rangeboost")
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    # A name counts once it is read: called, or handed over to be called (a default_factory).
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in _trees("src", "benchmarks")
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert public - used == set(TEST_ONLY)
