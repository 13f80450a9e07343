"""Every package name the benchmark's workloads call still resolves.

``perfbench/workloads.py`` imports ``qptomo`` modules inside its functions
and calls their attributes, and looks the solvers up by name
(``getattr(solvers, "solve_pgdb")``). A renamed or moved function would
only fail when the benchmark runs, so this test reads the file with
``ast`` and resolves each such name without running a workload.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = {"solvers", "projections", "ensembles", "cli"}


def _named_attributes():
    """{module: attribute names} read off the ``from qptomo import <module>`` names."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    bound = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "qptomo"
        for alias in node.names
    }
    named = {module: set() for module in MODULES}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and bound.get(node.value.id) in MODULES):
            named[bound[node.value.id]].add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith("solve_")):
            named["solvers"].add(node.value)
    return named


def test_every_module_the_workloads_import_is_checked():
    named = _named_attributes()
    assert {module for module, attrs in named.items() if attrs} == MODULES
    assert {"solve_pgdb", "solve_dia", "solve_lifp"} <= named["solvers"]


def test_workload_calls_resolve_on_the_package():
    missing = []
    for module, attrs in _named_attributes().items():
        owner = importlib.import_module(f"qptomo.{module}")
        missing += [f"qptomo.{module}.{a}" for a in sorted(attrs) if not hasattr(owner, a)]
    assert missing == []
