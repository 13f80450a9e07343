"""Byte-level fingerprint of 36 solves, for refactors that must not move a bit.

Runs pgdB, DIA and lifp at d = 2, 3, N in {1e3, 1e5, inf} and seeds 1, 2
(a quasi-pure map and its counts both drawn with the seed, on the minimal
setup) and prints one SHA-256 per simulated counts table, over its bytes,
and one per solve, so a change in the data path shows apart from a change
in a solver. Each solve digest covers the estimate's bytes, ``cost_trace``,
``step_trace``, ``projection_steps``, the iteration count, the status, the
conditioning herald, ``min_prob_seen`` and lifp's ``pre_projection_*``
fields. A solve that raises is digested from the iterate and report its
error carries. Beside each digest the line also prints the iteration
count, the total of Newton steps over its CPTP projections, the status,
the final cost and the J distance to the true map, to 17 significant
digits, so that a change that moves bits on purpose can be compared by
value. Four more lines fingerprint the standalone ``project_cptp`` on a
random Hermitian input at d = 3, 5 and Frobenius norms 1e2, 1e4, with the
Newton steps it took and the TP residual of its result.

Not collected by pytest; ``tests/test_identity.py`` runs it and compares
the values with ``tests/identity_expected.txt``. To compare two trees
byte for byte, run it once per tree with one BLAS thread and diff the two
outputs::

    PYTHONPATH=<tree>/src OPENBLAS_NUM_THREADS=1 python tests/identity_digest.py
"""

import hashlib

import numpy as np

from qptomo import (
    ConvergenceError,
    EnsembleSpec,
    SimulationSpec,
    StalledStepError,
    j_distance,
    minimal_setup,
    random_quasi_pure,
    simulate_counts,
    solve_dia,
    solve_lifp,
    solve_pgdb,
)
from qptomo.linalg import hermitize, partial_trace_out
from qptomo.projections import _project_cptp_dual

SOLVERS = {"pgdb": solve_pgdb, "dia": solve_dia, "lifp": solve_lifp}


def digest(estimate, report) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(estimate, dtype=complex).tobytes())
    for trace in (report.cost_trace, report.step_trace):
        h.update(np.asarray(trace, dtype=float).tobytes())
    fields = (
        list(report.projection_steps),
        report.iterations,
        report.status,
        report.conditioning_heralded,
        report.min_prob_seen,
        report.pre_projection_min_eigenvalue,
        report.pre_projection_tp_distance,
    )
    h.update(repr(fields).encode())
    return h.hexdigest()


def main() -> None:
    for d in (2, 3):
        setup = minimal_setup(d)
        for n_samples in (1000, 100000, None):
            for seed in (1, 2):
                truth = random_quasi_pure(
                    EnsembleSpec(d=d, kraus_rank=1, kind="quasi_pure", rng_seed=seed)
                )
                counts = simulate_counts(truth, setup, SimulationSpec(n_samples, seed))
                n_str = "inf" if n_samples is None else str(n_samples)
                print(f"counts d={d} N={n_str} seed={seed} "
                      f"{hashlib.sha256(counts.n.tobytes()).hexdigest()}")
                for method, solve in SOLVERS.items():
                    try:
                        estimate, report = solve(setup, counts)
                    except (ConvergenceError, StalledStepError) as err:
                        estimate, report = err.last_iterate, err.report
                    print(f"{method} d={d} N={n_str} seed={seed} "
                          f"{digest(estimate, report)} it={report.iterations} "
                          f"newton={sum(report.projection_steps)} {report.status} "
                          f"f={report.final_cost:.17g} "
                          f"J={j_distance(estimate, truth):.17g}")
    for d in (3, 5):
        for norm in (1e2, 1e4):
            x = np.random.default_rng(1).normal(size=(2, d * d, d * d))
            c = hermitize(x[0] + 1j * x[1])
            c *= norm / np.linalg.norm(c)
            proj, _, steps = _project_cptp_dual(c)
            tp = np.linalg.norm(partial_trace_out(proj) - np.eye(d))
            print(f"cptp d={d} norm={norm:.0e} seed=1 "
                  f"{hashlib.sha256(proj.tobytes()).hexdigest()} "
                  f"newton={steps} tp={tp:.3e}")


if __name__ == "__main__":
    main()
