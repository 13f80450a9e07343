"""Spans around the calls one qptomo layer makes into another.

The traced run replaces chosen module attributes (the names through which
one layer calls another) with thin wrappers. Each wrapped call records a
span: the hook's name, start and end time, the span that was open when it
started (its parent), the operation it belongs to and the phase (one
set-up or one round). Spans stay in memory in flat arrays and are written
out once, when the run ends. A layer's self time is its span time minus the
time its child spans cover.

Hooks that no longer exist in the package are skipped with a warning; the
metrics that depend only on skipped hooks are then reported as absent
(``None``) instead of crashing the run.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _dykstra_extra(args, kwargs, result):
    return {"iters": int(result[1])}


def _solve_extra(args, kwargs, result):
    report = result[1]
    if report.method not in ("pgdb", "dia"):
        return {}
    # Step sizes and dilutions are powers of 1/2, so log2(1/alpha) counts the
    # Armijo backtracks (pgdb) or dilution halvings (dia) of each step.
    halvings = sum(round(math.log2(1.0 / a)) for a in report.step_trace if a > 0)
    return {"outer": int(report.iterations), "halvings": int(halvings)}


def _design_extra(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _dump_extra(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _load_extra(args, kwargs, result):
    text = args[0] if args else kwargs.get("text", "")
    return {"bytes": len(text.encode())}


#: (span name, module, attribute path, extractor). Several bindings of the
#: same function share one span name: a layer calls another through the
#: name it imported, so each importing module's binding is wrapped.
HOOKS = [
    ("projections.dykstra", "qptomo.projections", "_dykstra", _dykstra_extra),
    ("projections.dykstra", "qptomo.solvers", "_dykstra", _dykstra_extra),
    ("projections.project_cp", "qptomo.projections", "project_cp", None),
    ("projections.project_tp", "qptomo.projections", "project_tp", None),
    ("solvers.solve", "qptomo.solvers", "solve_pgdb", _solve_extra),
    ("solvers.solve", "qptomo.solvers", "solve_dia", _solve_extra),
    ("solvers.solve", "qptomo.solvers", "solve_lifp", _solve_extra),
    ("solvers.solve", "qptomo.cli", "solve_pgdb", _solve_extra),
    ("solvers.solve", "qptomo.cli", "solve_dia", _solve_extra),
    ("solvers.solve", "qptomo.cli", "solve_lifp", _solve_extra),
    ("solvers.cost", "qptomo.solvers", "_Cost.from_probs", None),
    ("solvers.probs", "qptomo.solvers", "_Cost.probs", None),
    ("solvers.grad", "qptomo.solvers", "_Cost.gradient_from_probs", None),
    ("solvers.lstsq", "qptomo.solvers", "solve_linear_inversion", None),
    ("channel.build_design", "qptomo.channel", "build_design", _design_extra),
    ("linalg.eigh", "qptomo.linalg", "eigh", None),
    ("linalg.eigh", "qptomo.projections", "eigh", None),
    ("linalg.kron", "qptomo.channel", "kron", None),
    ("linalg.kron", "qptomo.projections", "kron", None),
    ("linalg.kron", "qptomo.solvers", "kron", None),
    ("linalg.kron", "qptomo.ensembles", "kron", None),
    ("linalg.psd_sqrt_inv", "qptomo.solvers", "psd_sqrt_inv", None),
    ("linalg.psd_sqrt_inv", "qptomo.ensembles", "psd_sqrt_inv", None),
    ("ensembles.gen_map", "qptomo.ensembles", "random_quasi_pure", None),
    ("ensembles.gen_map", "qptomo.ensembles", "random_cptp", None),
    ("ensembles.gen_map", "qptomo.cli", "random_quasi_pure", None),
    ("ensembles.gen_map", "qptomo.cli", "random_cptp", None),
    ("ensembles.simulate", "qptomo.ensembles", "simulate_counts", None),
    ("ensembles.simulate", "qptomo.cli", "simulate_counts", None),
    ("io.dump", "qptomo.io", "dump_choi", _dump_extra),
    ("io.dump", "qptomo.io", "dump_counts", _dump_extra),
    ("io.dump", "qptomo.io", "dump_setup", _dump_extra),
    ("io.dump", "qptomo.io", "dump_benchmark", _dump_extra),
    ("io.load", "qptomo.io", "load_choi", _load_extra),
    ("io.load", "qptomo.io", "load_counts", _load_extra),
    ("io.load", "qptomo.io", "load_setup", _load_extra),
    ("cli.main", "qptomo.cli", "main", None),
]


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("i")
        self.extra: dict[int, dict] = {}
        self.phases: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._op = -1
        self._phase = -1
        self.active = False

    # -- recording ---------------------------------------------------------

    def begin_phase(self, label: str) -> None:
        self.phases.append(label)
        self._phase = len(self.phases) - 1

    def begin_op(self) -> None:
        self._op += 1

    def _wrap(self, name: str, fn, extractor):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self._op)
            self.phase.append(self._phase)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if extractor is not None:
                self.extra[idx] = extractor(args, kwargs, result)
            return result

        return wrapper

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook that exists; remember the ones that do not."""
        # Import every module first: a module imported after another module's
        # attribute was wrapped would bind the wrapper and be counted twice.
        for module_name in dict.fromkeys(module for _, module, _, _ in hooks):
            with contextlib.suppress(ImportError):
                importlib.import_module(module_name)
        for name, module_name, attr_path, extractor in hooks:
            where = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                print(f"warning: hook {where} not found; its metrics are absent",
                      file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(name, fn, extractor))
            self.installed.add(name)

    # -- aggregation -------------------------------------------------------

    def per_phase(self) -> dict[str, list[dict]]:
        """Per phase: {span name: {"n", "s", "self_s", extras...}}, grouped
        by phase kind (the label before the first digit)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        tables = [defaultdict(lambda: defaultdict(float)) for _ in self.phases]
        for i in range(n):
            row = tables[self.phase[i]][self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["n"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
            for key, value in self.extra.get(i, {}).items():
                row[key] += value
        grouped: dict[str, list[dict]] = defaultdict(list)
        for label, table in zip(self.phases, tables):
            grouped[label.rstrip("0123456789")].append(table)
        return grouped

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\top\tphase\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{self.phases[self.phase[i]]}\n"
                )


def _median_field(tables: list[dict], span: str, field: str) -> float:
    return statistics.median(t[span][field] if span in t else 0.0 for t in tables)


def _first_field(tables: list[dict], span: str, field: str) -> float:
    return tables[0][span][field] if span in tables[0] else 0


#: per-layer metric -> (span, field summed over the spans, kind of value).
LAYER_METRICS = {
    "projections.dykstra_calls": ("projections.dykstra", "n", "count"),
    "projections.dykstra_iters": ("projections.dykstra", "iters", "count"),
    "projections.dykstra_s": ("projections.dykstra", "s", "time"),
    "projections.project_cp_calls": ("projections.project_cp", "n", "count"),
    "projections.project_cp_s": ("projections.project_cp", "s", "time"),
    "projections.project_tp_s": ("projections.project_tp", "s", "time"),
    "solvers.solve_calls": ("solvers.solve", "n", "count"),
    "solvers.solve_s": ("solvers.solve", "s", "time"),
    "solvers.self_s": ("solvers.solve", "self_s", "time"),
    "solvers.outer_iters": ("solvers.solve", "outer", "count"),
    "solvers.step_halvings": ("solvers.solve", "halvings", "count"),
    "solvers.cost_evals": ("solvers.cost", "n", "count"),
    "solvers.probs_evals": ("solvers.probs", "n", "count"),
    "solvers.probs_s": ("solvers.probs", "s", "time"),
    "solvers.grad_evals": ("solvers.grad", "n", "count"),
    "solvers.grad_s": ("solvers.grad", "s", "time"),
    "solvers.lstsq_s": ("solvers.lstsq", "s", "time"),
    "channel.design_build_s": ("channel.build_design", "s", "time"),
    "channel.design_mib": ("channel.build_design", "bytes", "mib"),
    "linalg.eigh_calls": ("linalg.eigh", "n", "count"),
    "linalg.eigh_s": ("linalg.eigh", "s", "time"),
    "linalg.kron_calls": ("linalg.kron", "n", "count"),
    "linalg.kron_s": ("linalg.kron", "s", "time"),
    "linalg.psd_sqrt_inv_calls": ("linalg.psd_sqrt_inv", "n", "count"),
    "ensembles.gen_map_s": ("ensembles.gen_map", "s", "time"),
    "ensembles.simulate_s": ("ensembles.simulate", "s", "time"),
    "io.dump_s": ("io.dump", "s", "time"),
    "io.load_s": ("io.load", "s", "time"),
    "io.bytes_written": ("io.dump", "bytes", "bytes"),
    "io.bytes_read": ("io.load", "bytes", "bytes"),
    "cli.main_s": ("cli.main", "s", "time"),
}

UNITS = {"count": "count", "bytes": "B", "time": "s", "mib": "MiB"}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Per-layer figures for one set-up plus one round of the timed phase.

    Counts come from the first traced set-up and round, so they repeat
    exactly for a given seed; times are medians over the traced set-ups
    and over the traced rounds.
    """
    grouped = tracer.per_phase()
    setups, rounds = grouped["setup"], grouped["round"]
    out = {}
    for metric, (span, field, kind) in LAYER_METRICS.items():
        if span not in tracer.installed:
            out[metric] = {"value": None, "unit": UNITS[kind]}
            continue
        if kind == "time":
            value = _median_field(setups, span, field) + _median_field(rounds, span, field)
        else:
            value = _first_field(setups, span, field) + _first_field(rounds, span, field)
            value = value / 2**20 if kind == "mib" else int(value)
        out[metric] = {"value": value, "unit": UNITS[kind]}
    return out
