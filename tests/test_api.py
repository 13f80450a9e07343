"""The public API: the top-level names of ``qptomo`` and where the rest live.

The top level holds the pipeline a user needs (setups and data, the three
solvers, the projections, the CPTP checks and the errors). Helpers the
package uses internally stay importable from their modules, and reference
code that only checks the package lives in ``tests/reference.py``.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import qptomo

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    # setups and data
    "TomographySetup", "CountsTable", "minimal_setup", "EnsembleSpec",
    "SimulationSpec", "random_cptp", "random_quasi_pure", "simulate_counts",
    "choi_from_kraus",
    # solvers
    "solve_pgdb", "solve_dia", "solve_lifp", "solve_linear_inversion",
    "PgdbConfig", "DiaConfig", "SolverReport", "neg_log_likelihood",
    # projections
    "project_cptp", "project_cp", "project_tp", "project_tni", "project_us_p",
    # checks
    "is_cptp", "cptp_residuals", "j_distance",
    # errors
    "QptError", "DimensionError", "DomainError", "ConvergenceError",
    "StalledStepError", "LapackError", "SingularMatrixError",
}

HOMES = {
    "qptomo.channel": ["forward_probs", "condition_probs", "build_design"],
    "qptomo.ensembles": ["quasi_pure_weights"],
    "qptomo.projections": ["project_cptp_dykstra"],
    "qptomo.linalg": [
        "kron", "eigh", "hermitize", "partial_trace_out", "psd_sqrt_inv", "trace_norm",
    ],
    "qptomo.solvers": ["gradient"],
    "reference": ["apply_channel", "identity_choi", "vec", "frobenius_inner"],
}


def _top_level_names():
    return {
        name for name, value in vars(qptomo).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_top_level_names_are_pinned():
    assert len(PUBLIC) == 32
    assert sorted(_top_level_names()) == sorted(PUBLIC)


@pytest.mark.parametrize("module_name", sorted(HOMES))
def test_moved_names_import_from_their_home(module_name):
    module = importlib.import_module(module_name)
    for name in HOMES[module_name]:
        assert callable(getattr(module, name)), f"{module_name}.{name}"


def test_readme_public_api_list_equals_the_pin():
    bullets = re.search(r"^\* .*?(?=\n\n)", _readme_section("Public API"), re.M | re.S)
    listed = set(re.findall(r"`(\w+)`", bullets.group(0)))
    assert sorted(listed) == sorted(PUBLIC)


def test_readme_library_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", _readme_section("Library quickstart"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
