"""Text file formats owned by the command-line interface.

All numeric data is written with 17 significant digits, which round-trips
IEEE doubles exactly, and every writer emits a canonical byte layout so
that parse followed by serialize reproduces a canonical file bit for bit.

Formats:

* Choi file (JSON): ``{"format": "choi-v1", "d": ..., "re": [[...]],
  "im": [[...]], "metadata": {...}}`` with ``re`` symmetric and ``im``
  antisymmetric (Hermiticity).
* Counts file (text): ``#`` header lines with d, n_prep, n_povm, N and
  seed, then ``i,j,n`` rows of normalized frequencies.
* Setup file (JSON): preparations and POVM elements in the Choi-file
  number format; overrides the minimal setup implied by the dimension.
* Benchmark CSV: one row per (d, N, method, trial) with a versioned
  header.
"""

from __future__ import annotations

import json

import numpy as np

from .channel import CountsTable, TomographySetup
from .errors import DomainError

CHOI_FORMAT = "choi-v1"
SETUP_FORMAT = "setup-v1"
COUNTS_FORMAT = "counts-v1"
#: The benchmark CSV columns, in order; ``benchmark_row`` takes cells by name.
BENCHMARK_COLUMNS = (
    "d", "N", "method", "trial", "seed", "j_distance", "final_cost",
    "iterations", "wall_time_s", "heralded", "status",
)
BENCHMARK_HEADER = ",".join(BENCHMARK_COLUMNS)
BENCHMARK_VERSION = "# qptomo-benchmark-v1"

#: Largest admissible entry of C - C^dagger in a Choi file.
HERMITICITY_TOL = 1e-6
#: Largest admissible Frobenius norm of a matrix in a file, so that the
#: sums and products of the projections and solvers stay finite.
MAX_MATRIX_NORM = 1e150


def _fmt(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0: JSON reads "-0" as the integer 0, so a
    # negative zero would not read back as written.
    return format(float(x) + 0.0, ".17g")


def _matrix_rows(m: np.ndarray) -> str:
    rows = []
    for row in m:
        rows.append("[" + ", ".join(_fmt(v) for v in row) + "]")
    return "[" + ", ".join(rows) + "]"


def _matrix_block(mat: np.ndarray) -> str:
    return f'"re": {_matrix_rows(mat.real)},\n"im": {_matrix_rows(mat.imag)}'


def _operator_list(ops) -> str:
    return "[" + ",\n".join("{\n" + _matrix_block(op) + "\n}" for op in ops) + "]"


def dump_choi(mat: np.ndarray, d: int, metadata: dict[str, str] | None = None) -> str:
    """Serialize a Choi matrix to the canonical JSON text."""
    mat = np.asarray(mat, dtype=complex)
    meta = json.dumps(
        {str(k): str(v) for k, v in (metadata or {}).items()}, sort_keys=True
    )
    return (
        "{\n"
        f'"format": "{CHOI_FORMAT}",\n'
        f'"d": {d},\n'
        f"{_matrix_block(mat)},\n"
        f'"metadata": {meta}\n'
        "}\n"
    )


def _parse_matrix(doc: dict, d2: int, what: str) -> np.ndarray:
    try:
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise DomainError(f"{what}: bad matrix blocks: {err}") from err
    if re.shape != (d2, d2) or im.shape != (d2, d2):
        raise DomainError(f"{what}: matrix blocks must be {d2}x{d2}")
    # Scaled by the largest entry so that no square overflows; a NaN or
    # infinite entry makes the norm NaN or infinite.
    block = np.abs([re, im])
    scale = float(block.max())
    norm = scale * float(np.linalg.norm(block / scale)) if 0 < scale < np.inf else scale
    if not norm <= MAX_MATRIX_NORM:
        raise DomainError(
            f"{what}: matrix norm {norm:.3e} is not finite or above {MAX_MATRIX_NORM:g}"
        )
    return re + 1j * im


def _load_doc(text: str, fmt: str) -> tuple[dict, int]:
    """Parse a JSON document of format ``fmt``; returns (document, d)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise DomainError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise DomainError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != fmt:
        raise DomainError(f"expected format {fmt!r}, got {doc.get('format')!r}")
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DomainError(f"dimension d must be a positive integer, got {d!r}")
    return doc, d


def load_choi(text: str) -> tuple[np.ndarray, int, dict]:
    """Parse a Choi file; returns (matrix, d, metadata)."""
    doc, d = _load_doc(text, CHOI_FORMAT)
    mat = _parse_matrix(doc, d * d, "Choi file")
    if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
        raise DomainError(f"matrix is not Hermitian within {HERMITICITY_TOL:g}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DomainError("metadata must be a JSON object")
    return mat, d, dict(metadata)


def dump_counts(counts: CountsTable, d: int, n_samples, seed) -> str:
    """Serialize a counts table; ``n_samples`` None means infinite data."""
    n_prep, n_povm = counts.n.shape
    n_str = "inf" if n_samples is None else str(int(n_samples))
    seed_str = "none" if seed is None else str(int(seed))
    lines = [
        f"# {COUNTS_FORMAT}",
        f"# d={d} n_prep={n_prep} n_povm={n_povm} N={n_str} seed={seed_str}",
        "i,j,n",
    ]
    for i in range(n_prep):
        for j in range(n_povm):
            lines.append(f"{i},{j},{_fmt(counts.n[i, j])}")
    return "\n".join(lines) + "\n"


def load_counts(text: str) -> tuple[CountsTable, dict]:
    """Parse a counts file; returns (table, header fields)."""
    lines = text.splitlines()
    if len(lines) < 4 or lines[0].strip() != f"# {COUNTS_FORMAT}":
        raise DomainError(f"not a {COUNTS_FORMAT} file")
    header: dict[str, str] = {}
    for item in lines[1].lstrip("# ").split():
        key, _, value = item.partition("=")
        header[key] = value
    try:
        d = int(header["d"])
        n_prep = int(header["n_prep"])
        n_povm = int(header["n_povm"])
        n_samples = None if header["N"] == "inf" else int(header["N"])
        seed = None if header.get("seed", "none") == "none" else int(header["seed"])
    except (KeyError, ValueError) as err:
        raise DomainError(f"bad counts header: {err}") from err
    if min(d, n_prep, n_povm, 1 if n_samples is None else n_samples) < 1:
        raise DomainError("counts header: d, n_prep, n_povm and N must be positive")
    if seed is not None and seed < 0:
        raise DomainError(f"counts header: seed must be non-negative, got {seed}")
    if n_prep * n_povm > len(lines) - 3:
        raise DomainError(f"counts file has fewer than {n_prep * n_povm} rows")
    if lines[2].strip() != "i,j,n":
        raise DomainError("missing i,j,n column line")
    n = np.zeros((n_prep, n_povm))
    seen = np.zeros((n_prep, n_povm), dtype=bool)
    for line in lines[3:]:
        line = line.strip()
        if not line:
            continue
        try:
            i_s, j_s, v_s = line.split(",")
            i, j, value = int(i_s), int(j_s), float(v_s)
        except ValueError as err:
            raise DomainError(f"bad counts row {line!r}: {err}") from err
        if not (0 <= i < n_prep and 0 <= j < n_povm):
            raise DomainError(f"counts row {line!r}: index out of range")
        if seen[i, j]:
            raise DomainError(f"counts row {line!r}: duplicate cell ({i}, {j})")
        seen[i, j] = True
        n[i, j] = value
    if not seen.all():
        i, j = np.argwhere(~seen)[0]
        raise DomainError(f"counts file has no row for cell ({i}, {j})")
    # CountsTable validates the rows and keeps those normalized as written,
    # so load then dump gives back the file that dump_counts wrote.
    table = CountsTable(n)
    info = {"d": d, "n_prep": n_prep, "n_povm": n_povm, "N": n_samples, "seed": seed}
    return table, info


def dump_setup(setup: TomographySetup) -> str:
    """Serialize preparations and POVM elements."""
    return (
        "{\n"
        f'"format": "{SETUP_FORMAT}",\n'
        f'"d": {setup.d},\n'
        f'"preparations": {_operator_list(setup.preparations)},\n'
        f'"povm": {_operator_list(setup.povm)}\n'
        "}\n"
    )


def load_setup(text: str) -> TomographySetup:
    doc, d = _load_doc(text, SETUP_FORMAT)
    try:
        preps = [_parse_matrix(item, d, "setup preparation") for item in doc["preparations"]]
        povm = [_parse_matrix(item, d, "setup POVM element") for item in doc["povm"]]
    except (KeyError, TypeError) as err:
        raise DomainError(f"setup file: bad operator list: {err}") from err
    return TomographySetup(preps, povm)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return _fmt(value) if isinstance(value, float) else str(value)


def benchmark_row(**cells) -> str:
    """One benchmark CSV row from cells named by column; absent cells stay empty."""
    unknown = cells.keys() - set(BENCHMARK_COLUMNS)
    if unknown:
        raise TypeError(f"unknown benchmark columns {sorted(unknown)}")
    return ",".join(_cell(cells.get(name)) for name in BENCHMARK_COLUMNS)


def dump_benchmark(rows: list[str]) -> str:
    return "\n".join([BENCHMARK_VERSION, BENCHMARK_HEADER, *rows]) + "\n"
