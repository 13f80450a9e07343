"""Property tests of the file formats and of the command line on any input.

Generated counts tables, Choi matrices and setups round-trip byte for byte
through dump, load and dump; any text given to a loader parses or raises
``QptError``; and ``main`` on any input file exits 0, or 1 with an
``error:`` line. The example database is off, so nothing is written to the
tree, and the draws are derandomized, so every run checks the same inputs.
"""

import contextlib
import io
import shutil
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qptomo import (
    CountsTable,
    QptError,
    SimulationSpec,
    TomographySetup,
    minimal_setup,
    simulate_counts,
)
from qptomo import io as qio
from qptomo.cli import main
from reference import identity_choi

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)

UNIT = st.floats(-1.0, 1.0)
DEEP = "[" * 200_000
#: Text is drawn from ASCII and a few characters Python's parsers treat
#: specially: a NUL, a non-ASCII letter, an Arabic-Indic digit (``int``
#: reads it), a line separator (``splitlines`` splits on it) and a BOM. The
#: full Unicode table would cost seconds to build on a fresh checkout.
ALPHABET = string.printable + "\x00\u00e9\u0663\u2028\ufeff"
TEXT = st.text(ALPHABET, max_size=8)


def unitaries(d):
    """A d x d unitary: the Q factor of a drawn complex matrix."""
    return arrays(float, (2, d, d), elements=UNIT).map(
        lambda x: np.linalg.qr(x[0] + 1j * x[1])[0])


@st.composite
def counts_files(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    weights = draw(arrays(float, shape, elements=st.floats(0.0, 1.0)))
    assume((weights.sum(axis=1) > 0).all())
    table = CountsTable(weights / weights.sum(axis=1, keepdims=True))
    n_samples = draw(st.none() | st.integers(1, 2**63 - 1))
    seed = draw(st.none() | st.integers(0, 2**64))
    return qio.dump_counts(table, draw(st.integers(1, 64)), n_samples, seed)


@st.composite
def choi_files(draw):
    d = draw(st.integers(1, 2))
    x = draw(arrays(float, (2, d * d, d * d), elements=st.floats(-1e148, 1e148)))
    mat = (x[0] + x[0].T) / 2 + 1j * (x[1] - x[1].T) / 2  # exactly Hermitian
    meta = draw(st.dictionaries(TEXT, TEXT, max_size=3))
    return qio.dump_choi(mat, d, meta)


@st.composite
def setup_files(draw):
    d = draw(st.integers(1, 3))
    preps = []
    for _ in range(draw(st.integers(1, 3))):
        u = draw(unitaries(d))
        p = draw(arrays(float, d, elements=st.floats(0.0, 1.0)))
        assume(p.sum() > 0)
        preps.append(u @ np.diag(p / p.sum()) @ u.conj().T)
    bases = [draw(unitaries(d)) for _ in range(draw(st.integers(1, 2)))]
    povm = [np.outer(u[:, i], u[:, i].conj()) / len(bases) for u in bases for i in range(d)]
    try:
        setup = TomographySetup(preps, povm)
    except QptError:
        assume(False)
    return qio.dump_setup(setup)


@SETTINGS
@given(counts_files())
def test_counts_round_trip_is_byte_identical(text):
    table, info = qio.load_counts(text)
    assert qio.dump_counts(table, info["d"], info["N"], info["seed"]) == text


@SETTINGS
@given(choi_files())
def test_choi_round_trip_is_byte_identical(text):
    mat, d, meta = qio.load_choi(text)
    assert qio.dump_choi(mat, d, meta) == text


@SETTINGS
@given(setup_files())
def test_setup_round_trip_is_byte_identical(text):
    assert qio.dump_setup(qio.load_setup(text)) == text


def valid_files():
    setup = minimal_setup(2)
    counts = simulate_counts(identity_choi(2), setup, SimulationSpec(100, 1))
    return [qio.dump_counts(counts, 2, 100, 1), qio.dump_choi(identity_choi(2), 2),
            qio.dump_setup(setup)]


@st.composite
def edited(draw, texts):
    """A valid file with one slice replaced by drawn text."""
    text = draw(st.sampled_from(texts))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 8)))
    return text[:start] + draw(TEXT) + text[stop:]


ANY_TEXT = st.text(ALPHABET, max_size=64) | edited(valid_files())


@SETTINGS
@given(ANY_TEXT)
@example(DEEP)
def test_loaders_parse_or_raise_qpterror(text):
    for load in (qio.load_counts, qio.load_choi, qio.load_setup):
        with contextlib.suppress(QptError):
            load(text)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "counts.txt").write_text(valid_files()[0])
    return work


@SETTINGS
@given(data=st.binary(max_size=64) | ANY_TEXT.map(str.encode))
@example(data=DEEP.encode())
@example(data=b"\xff\xfe# counts-v1\n")
def test_cli_on_any_input_exits_0_or_1_with_an_error_line(workdir, data):
    given_file, out = workdir / "input", workdir / "out"
    given_file.write_bytes(data)
    for argv in (
        ["project", "--in", given_file, "--set", "cp"],
        ["simulate", "--map", given_file, "--N", "10"],
        ["reconstruct", "--counts", given_file, "--method", "lifp"],
        ["reconstruct", "--counts", workdir / "counts.txt", "--method", "lifp",
         "--setup", given_file],
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in [*argv, "--out", out]])
        assert code == 0 or (code == 1 and err.getvalue().startswith("error:")), argv


FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_must_fail(x):
    assert x < 5
"""


def test_failing_property_ends_the_run_with_exit_1(tmp_path):
    # Under this repository's warning filters a falsified property is a test
    # failure (exit 1), not an internal error (exit 3) raised while the
    # Hypothesis plugin writes its patch file.
    shutil.copy(Path(__file__).parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_falsified.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "Falsifying example" in proc.stdout and "INTERNALERROR" not in proc.stdout
