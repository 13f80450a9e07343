"""Solves reproduce: 36 fingerprinted solves, and equal bytes on 1 and 2 BLAS threads.

``identity_digest.py`` prints one line per simulated counts table, one per
solve and one per standalone CPTP projection. Its output with one BLAS
thread is committed as ``identity_expected.txt`` and compared here:

* table digests, statuses and outer iterations match exactly;
* the final cost and the J distance match within 1e-12 max(1, |value|):
  relative for the costs (7 to 25), absolute for J (below 1). A change of
  summation order alone (the Newton Jacobian summed in column chunks)
  moved costs by at most 1.3e-15 relative and J by at most 8.8e-16;
* the Newton-step total of a solve matches within ``NEWTON_MARGIN`` steps,
  since a rounding change can move one projection's count by one step;
* each ``project_cptp`` line matches its Newton steps within the same
  margin, and its TP residual is within the scale-aware stop
  max(``NEWTON_TOL``, 64 eps ||C||_F).

The solve digests are not compared: they change with any rounding.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qptomo
from qptomo.cli import main
from qptomo.projections import NEWTON_TOL

TESTS = Path(__file__).resolve().parent
SRC = str(Path(qptomo.__file__).resolve().parents[1])
VALUE_TOL = 1e-12
NEWTON_MARGIN = 2


def _python(argv, threads):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(threads))
    result = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _parse(text):
    """{(kind, d, N, seed): (digest, {field: value}, status)} from the digest lines."""
    rows = {}
    for line in text.splitlines():
        kind, d, n, seed, digest, *rest = line.split()
        fields = dict(f.split("=", 1) for f in rest if "=" in f)
        status = [f for f in rest if "=" not in f]
        rows[kind, d, n, seed] = digest, fields, status
    return rows


def test_identity_digest_matches_the_committed_values():
    want = _parse((TESTS / "identity_expected.txt").read_text(encoding="utf-8"))
    got = _parse(_python([str(TESTS / "identity_digest.py")], threads=1))
    assert len(want) == 52 and list(got) == list(want)
    for key, (digest, fields, status) in want.items():
        g_digest, g_fields, g_status = got[key]
        if key[0] == "counts":
            assert g_digest == digest, key
            continue
        assert abs(int(g_fields["newton"]) - int(fields["newton"])) <= NEWTON_MARGIN, key
        if key[0] == "cptp":
            norm = float(key[2].split("=")[1])
            tol = max(NEWTON_TOL, 64 * np.finfo(float).eps * norm)
            assert float(g_fields["tp"]) <= tol, key
            continue
        assert (g_status, g_fields["it"]) == (status, fields["it"]), key
        for name in ("f", "J"):
            a, b = float(g_fields[name]), float(fields[name])
            assert abs(a - b) <= VALUE_TOL * max(1.0, abs(b)), (key, name, a, b)


@pytest.mark.parametrize("method", ["pgdb", "lifp"])
def test_reconstruct_writes_the_same_bytes_on_one_and_two_blas_threads(tmp_path, method):
    # At d=5 the Newton Jacobian sums over up to 625 columns of K, enough
    # for BLAS to split one product across threads.
    assert main(["gen-map", "--d", "5", "--kind", "quasipure", "--seed", "1",
                 "--out", str(tmp_path / "map.json")]) == 0
    assert main(["simulate", "--map", str(tmp_path / "map.json"), "--N", "100000",
                 "--seed", "2", "--out", str(tmp_path / "counts.txt")]) == 0
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"est{threads}.json"
        _python(["-m", "qptomo.cli", "reconstruct", "--method", method,
                 "--counts", str(tmp_path / "counts.txt"), "--out", str(out)], threads)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
