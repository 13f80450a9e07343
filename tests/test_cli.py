"""Command-line interface: file formats, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qptomo

from qptomo import io as qio
from qptomo import (
    DomainError,
    is_cptp,
    j_distance,
    minimal_setup,
    simulate_counts,
    SimulationSpec,
)
from qptomo.channel import forward_probs
from qptomo.cli import _build_parser, main
from qptomo.ensembles import MAX_DIM_BYTES
from qptomo.projections import (
    project_cp,
    project_cptp,
    project_tni,
    project_tp,
    project_us_p,
)
from qptomo.solvers import DiaConfig, PgdbConfig, solve_dia, solve_pgdb
from conftest import random_hermitian
from reference import identity_choi

C_BOX = np.diag([0.1, 0.1, 0.1, 1.7]).astype(complex)


def run(*argv):
    return main([str(a) for a in argv])


def write_choi(path, mat, d, meta=None):
    path.write_text(qio.dump_choi(mat, d, meta or {}))


def failing_eigh(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestChoiFileFormat:
    def test_round_trip_is_canonical(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mat = (x + x.conj().T) / 2
        text = qio.dump_choi(mat, 2, {"seed": 1})
        parsed, d, meta = qio.load_choi(text)
        assert d == 2 and meta == {"seed": "1"}
        assert np.abs(parsed - mat).max() < 1e-15
        assert qio.dump_choi(parsed, d, meta) == text  # bit-for-bit

    def test_rejects_non_hermitian(self):
        doc = json.loads(qio.dump_choi(np.eye(4), 2))
        doc["im"][0][1] = 0.5  # breaks antisymmetry of the imaginary part
        from qptomo import DomainError

        with pytest.raises(DomainError):
            qio.load_choi(json.dumps(doc))

    def test_rejects_garbage(self):
        from qptomo import DomainError

        with pytest.raises(DomainError):
            qio.load_choi("not json at all {")

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("d"),
        lambda doc: doc.update(d="two"),
        lambda doc: doc.pop("re"),
        lambda doc: doc["re"][0].__setitem__(0, float("nan")),
        lambda doc: doc["im"][1].__setitem__(2, float("inf")),
        lambda doc: doc["re"].pop(),
        lambda doc: doc.update(metadata=[1]),
    ], ids=["no_d", "string_d", "no_re", "nan", "inf", "ragged", "list_metadata"])
    def test_rejects_malformed_document(self, edit):
        doc = json.loads(qio.dump_choi(np.eye(4), 2))
        edit(doc)
        with pytest.raises(DomainError):
            qio.load_choi(json.dumps(doc))

    def test_norm_bound_is_inclusive(self):
        mat = np.diag([qio.MAX_MATRIX_NORM, 0.0, 0.0, 0.0])
        text = qio.dump_choi(mat, 2)
        assert qio.dump_choi(*qio.load_choi(text)) == text
        with pytest.raises(DomainError, match="norm"):
            qio.load_choi(qio.dump_choi(np.nextafter(mat, np.inf), 2))

    def test_norm_whose_squares_overflow_is_reported(self):
        # The square of a 1e160 entry overflows; the norm scaled by it does not.
        with pytest.raises(DomainError, match=r"norm 1\.000e\+160 "):
            qio.load_choi(qio.dump_choi(np.diag([1e160, 0.0, 0.0, 0.0]), 2))

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"choi-v1"'])
    def test_rejects_non_object(self, text):
        with pytest.raises(DomainError):
            qio.load_choi(text)


class TestSetupFileFormat:
    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("povm"),
        lambda doc: doc.update(preparations=[1, 2]),
        lambda doc: doc["povm"][0]["re"][0].__setitem__(0, float("nan")),
    ], ids=["no_povm", "non_object_operator", "nan"])
    def test_rejects_malformed_document(self, edit, setup2):
        doc = json.loads(qio.dump_setup(setup2))
        edit(doc)
        with pytest.raises(DomainError):
            qio.load_setup(json.dumps(doc))


class TestCountsFileFormat:
    def test_round_trip(self, setup2):
        counts = simulate_counts(identity_choi(2), setup2, SimulationSpec(100, 3))
        text = qio.dump_counts(counts, 2, 100, 3)
        table, info = qio.load_counts(text)
        assert np.abs(table.n - counts.n).max() < 1e-15
        assert info == {"d": 2, "n_prep": 4, "n_povm": 8, "N": 100, "seed": 3}
        assert qio.dump_counts(table, 2, 100, 3) == text

    def test_rejects_denormalized_rows(self):
        text = "# counts-v1\n# d=2 n_prep=1 n_povm=2 N=10 seed=0\ni,j,n\n0,0,0.4\n0,1,0.4\n"
        from qptomo import DomainError

        with pytest.raises(DomainError):
            qio.load_counts(text)

    @pytest.mark.parametrize("header, rows", [
        ("d=2 n_prep=1 n_povm=2 seed=0", ["0,0,0.5", "0,1,0.5"]),
        ("d=2 n_prep=1 n_povm=2 N=ten seed=0", ["0,0,0.5", "0,1,0.5"]),
        ("d=2 n_prep=0 n_povm=2 N=10 seed=0", []),
        ("d=2 n_prep=1 n_povm=2 N=10 seed=0", ["0,0,0.5", "0,-1,0.5"]),
        ("d=2 n_prep=1 n_povm=2 N=10 seed=0", ["0,0,0.5", "0,2,0.5"]),
        ("d=2 n_prep=1 n_povm=2 N=10 seed=0", ["0,0,0.5", "0,0,0.5", "0,1,0.5"]),
        ("d=2 n_prep=1 n_povm=2 N=10 seed=0", ["0,0,1.0"]),
        ("d=2 n_prep=1 n_povm=2 N=10 seed=0", ["0,0,1.0", ""]),
        ("d=2 n_prep=100000 n_povm=100000 N=10 seed=0", ["0,0,1.0"]),
        ("d=2 n_prep=1 n_povm=2 N=10 seed=0", ["0,0,nan", "0,1,0.5"]),
        ("d=2 n_prep=1 n_povm=2 N=10 seed=0", ["0,0,inf", "0,1,-inf"]),
        ("d=2 n_prep=1 n_povm=2 N=-5 seed=0", ["0,0,0.5", "0,1,0.5"]),
        ("d=2 n_prep=1 n_povm=2 N=0 seed=0", ["0,0,0.5", "0,1,0.5"]),
        ("d=2 n_prep=1 n_povm=2 N=10 seed=-2", ["0,0,0.5", "0,1,0.5"]),
    ], ids=["no_N", "bad_N", "no_preparations", "negative_index", "index_past_end",
            "duplicate_row", "missing_row", "missing_row_blank_line", "huge_header",
            "nan", "inf", "negative_N", "zero_N", "negative_seed"])
    def test_rejects_malformed_file(self, header, rows):
        text = "\n".join(["# counts-v1", f"# {header}", "i,j,n", *rows]) + "\n"
        with pytest.raises(DomainError):
            qio.load_counts(text)


class TestGenMap:
    def test_quasipure_purity(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        assert run("gen-map", "--d", 2, "--kind", "quasipure", "--seed", 7,
                   "--out", out) == 0
        mat, d, meta = qio.load_choi(out.read_text())
        assert float(meta["purity"]) >= 0.9
        assert np.trace(mat @ mat).real / 4 >= 0.9 - 1e-9
        printed = capsys.readouterr().out
        assert "purity" in printed and "min eigenvalue" in printed

    def test_full_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("gen-map", "--d", 2, "--kind", "full", "--kraus-rank", 4,
                       "--seed", 7, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_d1_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("gen-map", "--d", 1, "--kind", "full", "--out", tmp_path / "x.json")
        assert excinfo.value.code == 2


class TestSimulate:
    def test_infinite_matches_forward_probs(self, tmp_path, setup2):
        mapfile = tmp_path / "map.json"
        run("gen-map", "--d", 2, "--kind", "quasipure", "--seed", 1, "--out", mapfile)
        out = tmp_path / "counts.txt"
        assert run("simulate", "--map", mapfile, "--N", "inf", "--out", out) == 0
        table, info = qio.load_counts(out.read_text())
        mat, _, _ = qio.load_choi(mapfile.read_text())
        p = forward_probs(mat, setup2).reshape(4, 8)
        assert np.abs(table.n - p).max() < 1e-12
        assert info["N"] is None

    def test_finite_deterministic(self, tmp_path):
        mapfile = tmp_path / "map.json"
        run("gen-map", "--d", 2, "--kind", "full", "--seed", 2, "--out", mapfile)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run("simulate", "--map", mapfile, "--N", 1000, "--seed", 1,
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_cptp_map_rejected(self, tmp_path, capsys):
        mapfile = tmp_path / "bad.json"
        write_choi(mapfile, C_BOX, 2)
        code = run("simulate", "--map", mapfile, "--N", 10, "--out", tmp_path / "c.txt")
        assert code == 1
        assert "not CPTP" in capsys.readouterr().err

    def test_malformed_map_file(self, tmp_path, capsys):
        mapfile = tmp_path / "garbage.json"
        mapfile.write_text("{ nope")
        code = run("simulate", "--map", mapfile, "--N", 10, "--out", tmp_path / "c.txt")
        assert code == 1

    def test_setup_override_roundtrip(self, tmp_path, setup2):
        # The explicit minimal setup must reproduce the implied default.
        mapfile = tmp_path / "map.json"
        run("gen-map", "--d", 2, "--kind", "full", "--seed", 3, "--out", mapfile)
        setupfile = tmp_path / "setup.json"
        setupfile.write_text(qio.dump_setup(setup2))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("simulate", "--map", mapfile, "--N", 500, "--seed", 4, "--out", a)
        run("simulate", "--map", mapfile, "--N", 500, "--seed", 4, "--out", b,
            "--setup", setupfile)
        assert a.read_bytes() == b.read_bytes()

    def test_setup_dimension_mismatch(self, tmp_path, setup3):
        mapfile = tmp_path / "map.json"
        run("gen-map", "--d", 2, "--kind", "full", "--seed", 3, "--out", mapfile)
        setupfile = tmp_path / "setup.json"
        setupfile.write_text(qio.dump_setup(setup3))
        code = run("simulate", "--map", mapfile, "--N", 10, "--out", tmp_path / "c.txt",
                   "--setup", setupfile)
        assert code == 1


@pytest.fixture(scope="module")
def counts_inf(tmp_path_factory):
    base = tmp_path_factory.mktemp("rec")
    mapfile = base / "map.json"
    run("gen-map", "--d", 2, "--kind", "quasipure", "--seed", 5, "--out", mapfile)
    counts = base / "counts.txt"
    run("simulate", "--map", mapfile, "--N", "inf", "--out", counts)
    return mapfile, counts


class TestReconstruct:
    def test_pgdb_end_to_end_recovery(self, tmp_path, counts_inf):
        mapfile, counts = counts_inf
        est = tmp_path / "est.json"
        assert run("reconstruct", "--counts", counts, "--method", "pgdb",
                   "--out", est) == 0
        truth, _, _ = qio.load_choi(mapfile.read_text())
        mat, _, meta = qio.load_choi(est.read_text())
        assert j_distance(mat, truth) <= 1e-4
        assert meta["status"] == "converged"
        report = json.loads((est.parent / (est.name + ".report.json")).read_text())
        assert report["iterations"] > 0
        assert report["final_cost"] == report["cost_trace"][-1]

    def test_report_lists_projection_steps(self, tmp_path, counts_inf):
        _, counts = counts_inf
        est = tmp_path / "est.json"
        assert run("reconstruct", "--counts", counts, "--method", "pgdb",
                   "--out", est) == 0
        report = json.loads((tmp_path / "est.json.report.json").read_text())
        steps = report["projection_steps"]
        assert report["iterations"] <= len(steps) <= report["iterations"] + 1
        assert all(isinstance(s, int) and s >= 0 for s in steps)

    @pytest.mark.parametrize("method", ["pgdb", "dia", "lifp"])
    def test_report_traces_are_json_lists(self, tmp_path, counts_inf, method):
        _, counts = counts_inf
        est = tmp_path / "est.json"
        assert run("reconstruct", "--counts", counts, "--method", method,
                   "--out", est) == 0
        report = json.loads((tmp_path / "est.json.report.json").read_text())
        for key in ("cost_trace", "step_trace", "projection_steps"):
            assert isinstance(report[key], list)
        assert report["final_cost"] == report["cost_trace"][-1]

    @pytest.mark.parametrize("method", ["pgdb", "dia", "lifp"])
    def test_lapack_failure_exits_1(self, tmp_path, counts_inf, capsys, monkeypatch,
                                    method):
        _, counts = counts_inf
        est = tmp_path / "est.json"
        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        assert run("reconstruct", "--counts", counts, "--method", method,
                   "--out", est) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not est.exists()

    @pytest.mark.parametrize("method", ["pgdb", "dia", "lifp"])
    def test_estimates_are_cptp(self, tmp_path, counts_inf, method):
        from qptomo import is_cptp

        _, counts = counts_inf
        est = tmp_path / f"{method}.json"
        assert run("reconstruct", "--counts", counts, "--method", method,
                   "--out", est) == 0
        mat, _, _ = qio.load_choi(est.read_text())
        assert is_cptp(mat)

    def test_dia_agrees_with_pgdb(self, tmp_path, counts_inf):
        _, counts = counts_inf
        finals = {}
        for method in ("pgdb", "dia"):
            est = tmp_path / f"{method}.json"
            rep = tmp_path / f"{method}.report.json"
            assert run("reconstruct", "--counts", counts, "--method", method,
                       "--out", est, "--report", rep) == 0
            finals[method] = json.loads(rep.read_text())["final_cost"]
        rel = abs(finals["pgdb"] - finals["dia"]) / abs(finals["pgdb"])
        assert rel <= 1e-6

    def test_iteration_cap_exits_3_with_output(self, tmp_path, counts_inf):
        _, counts = counts_inf
        est = tmp_path / "capped.json"
        code = run("reconstruct", "--counts", counts, "--method", "pgdb",
                   "--max-iters", 2, "--out", est)
        assert code == 3
        mat, _, meta = qio.load_choi(est.read_text())
        assert meta["status"] == "iteration_cap"

    def test_nan_counts_exit_1(self, tmp_path, counts_inf, capsys):
        _, counts = counts_inf
        bad = tmp_path / "nan_counts.txt"
        bad.write_text("".join(
            "0,0,nan\n" if line.startswith("0,0,") else line
            for line in counts.read_text().splitlines(keepends=True)
        ))
        assert run("reconstruct", "--counts", bad, "--method", "lifp",
                   "--out", tmp_path / "est.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("options", [
        ("--method", "pgdb", "--ftol", "nan"),
        ("--method", "pgdb", "--max-iters", 0),
        ("--method", "dia", "--max-iters", 0),
        ("--method", "dia", "--ftol", "inf"),
    ], ids=lambda options: "-".join(str(o).lstrip("-") for o in options))
    def test_bad_solver_parameter_exits_1(self, tmp_path, counts_inf, capsys, options):
        _, counts = counts_inf
        est = tmp_path / "est.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("reconstruct", "--counts", counts, *options, "--out", est) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not est.exists()

    @pytest.mark.parametrize("header", ["N=-5 seed=0", "N=0 seed=0", "N=inf seed=-2"])
    def test_bad_counts_header_exits_1(self, tmp_path, counts_inf, capsys, header):
        _, counts = counts_inf
        bad = tmp_path / "counts.txt"
        bad.write_text(counts.read_text().replace("N=inf seed=0", header))
        est = tmp_path / "est.json"
        assert run("reconstruct", "--counts", bad, "--method", "lifp",
                   "--out", est) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not est.exists()

    @pytest.mark.parametrize("method, options, config", [
        ("pgdb", (), PgdbConfig()),
        ("dia", (), DiaConfig()),
        ("pgdb", ("--ftol", 1e-3), PgdbConfig(f_tol=1e-3)),
        ("dia", ("--ftol", 1e-3), DiaConfig(f_tol=1e-3)),
    ], ids=["pgdb", "dia", "pgdb-ftol", "dia-ftol"])
    def test_flags_build_the_config(self, tmp_path, counts_inf, method, options,
                                    config):
        # With no flag the CLI runs the config defaults; a flag reaches its field.
        _, counts = counts_inf
        est = tmp_path / "est.json"
        assert run("reconstruct", "--counts", counts, "--method", method, *options,
                   "--out", est) == 0
        table, info = qio.load_counts(counts.read_text())
        setup = minimal_setup(info["d"])
        solve = {"pgdb": solve_pgdb, "dia": solve_dia}[method]
        ref, ref_report = solve(setup, table, config)
        meta = {"method": method, "status": ref_report.status}
        assert est.read_text() == qio.dump_choi(ref, info["d"], meta)
        report = json.loads((tmp_path / "est.json.report.json").read_text())
        assert report["cost_trace"] == ref_report.cost_trace.tolist()
        if config != type(config)():
            # The flag changes the run: f_tol 1e-3 stops earlier.
            _, default = solve(setup, table)
            assert ref_report.iterations < default.iterations

    @pytest.mark.parametrize("method", ["pgdb", "dia", "lifp"])
    @pytest.mark.parametrize("flag", [("--mu", 1), ("--gamma", 0.5)],
                             ids=["mu", "gamma"])
    def test_fixed_metaparameter_flag_is_usage_error(self, tmp_path, counts_inf,
                                                     method, flag):
        # pgdB's step scale and Armijo constant are constants, not flags.
        _, counts = counts_inf
        est = tmp_path / "est.json"
        with pytest.raises(SystemExit) as excinfo:
            run("reconstruct", "--counts", counts, "--method", method, *flag,
                "--out", est)
        assert excinfo.value.code == 2
        assert not est.exists()

    @pytest.mark.parametrize("flags", [
        ("--ftol", 1e-3), ("--max-iters", 1), ("--ftol", 1e-3, "--max-iters", 1),
    ], ids=["ftol", "max-iters", "both"])
    def test_lifp_tuning_flag_is_usage_error(self, tmp_path, counts_inf, capsys,
                                            flags):
        # lifp has no outer loop, so it has nothing for these flags to set.
        _, counts = counts_inf
        est = tmp_path / "est.json"
        assert run("reconstruct", "--counts", counts, "--method", "lifp", *flags,
                   "--out", est) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert all(flag in err for flag in flags[::2])
        assert not est.exists()

    def test_unknown_method_is_usage_error(self, tmp_path, counts_inf):
        _, counts = counts_inf
        with pytest.raises(SystemExit) as excinfo:
            run("reconstruct", "--counts", counts, "--method", "magic",
                "--out", tmp_path / "x.json")
        assert excinfo.value.code == 2


def test_every_config_field_has_a_reconstruct_flag():
    # A solver setting that no flag sets has no caller outside the tests,
    # and a tuning flag that a config lacks would be ignored by its method.
    parser = _build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    flags = {a.dest for a in commands["reconstruct"]._actions}
    tuning = flags - {"help", "counts", "method", "out", "report", "setup"}
    for config in (PgdbConfig, DiaConfig):
        names = {f.name for f in dataclasses.fields(config)}
        assert sorted(names - flags) == [], config.__name__
        assert sorted(tuning - names) == [], config.__name__


@pytest.mark.parametrize("argv", [
    ("gen-map", "--d", 2, "--kind", "full", "--seed", -1),
    ("gen-map", "--d", 2, "--kind", "quasipure", "--seed", -1),
    ("simulate", "--map", "MAP", "--N", 10, "--seed", -3),
    ("simulate", "--map", "MAP", "--N", "inf", "--seed", -3),
    ("simulate", "--map", "MAP", "--N", 10**20),
    ("benchmark", "--d-list", 2, "--N-list", "inf", "--seed", -1),
    ("benchmark", "--d-list", 2, "--N-list", "inf", "--trials", -1),
    ("benchmark", "--d-list", 2, "--N-list", "inf", "--trials", 0),
    ("benchmark", "--d-list", -2, "--N-list", "inf"),
    ("simulate", "--map", "UNDECODABLE", "--N", 10),
    ("reconstruct", "--counts", "UNDECODABLE", "--method", "lifp"),
    ("reconstruct", "--counts", "COUNTS", "--method", "lifp", "--setup", "UNDECODABLE"),
    ("project", "--in", "UNDECODABLE", "--set", "cp"),
    ("project", "--in", "DEEP", "--set", "cp"),
], ids=["gen-map-full-seed", "gen-map-quasipure-seed", "simulate-seed",
        "simulate-inf-seed", "simulate-huge-N", "benchmark-seed",
        "benchmark-negative-trials", "benchmark-zero-trials", "benchmark-negative-d",
        "simulate-undecodable-map", "reconstruct-undecodable-counts",
        "reconstruct-undecodable-setup", "project-undecodable", "project-deep-json"])
def test_bad_input_exits_1(tmp_path, counts_inf, capsys, argv):
    mapfile, counts = counts_inf
    files = {"MAP": mapfile, "COUNTS": counts,
             "UNDECODABLE": tmp_path / "undecodable", "DEEP": tmp_path / "deep.json"}
    files["UNDECODABLE"].write_bytes(b"\xff\xfe# counts-v1\n")
    files["DEEP"].write_text("[" * 200_000)
    out = tmp_path / "out"
    argv = [files.get(a, a) for a in argv]
    assert run(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


class TestProject:
    def test_tp_closed_form(self, tmp_path):
        infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
        write_choi(infile, C_BOX, 2)
        assert run("project", "--in", infile, "--set", "tp", "--out", outfile) == 0
        mat, _, _ = qio.load_choi(outfile.read_text())
        assert np.abs(mat - np.diag([0.5, 0.5, -0.3, 1.3])).max() < 1e-12

    def test_cptp_fixed_point_distance(self, tmp_path, capsys):
        infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
        write_choi(infile, identity_choi(2), 2)
        assert run("project", "--in", infile, "--set", "cptp", "--out", outfile) == 0
        moved = float(capsys.readouterr().out.split()[-1])
        assert moved <= 1e-6

    def test_cptp_far_from_the_set_exits_0(self, tmp_path):
        # Dykstra stops at its 20000-iteration cap on this input, with TP
        # residual 1.6e-2; the dual Newton projection converges in 20 steps.
        infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
        write_choi(infile, random_hermitian(np.random.default_rng(1), 9, scale=1e4), 3)
        assert run("project", "--in", infile, "--set", "cptp", "--out", outfile) == 0
        assert is_cptp(qio.load_choi(outfile.read_text())[0])

    def test_cptp_at_norm_1e6_exits_0(self, tmp_path):
        # One cold Newton run stops at its 100-step cap on this input, with
        # TP residual 2.055; the scale continuation converges.
        infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
        write_choi(infile, random_hermitian(np.random.default_rng(9), 9, scale=1e6), 3)
        assert run("project", "--in", infile, "--set", "cptp", "--out", outfile) == 0
        assert is_cptp(qio.load_choi(outfile.read_text())[0])

    @pytest.mark.parametrize("d, mat", [
        (3, random_hermitian(np.random.default_rng(1), 9, scale=1e15)),
        (2, np.diag([1e160, 0.5, 0.5, 0.5])),
    ], ids=["norm-1e15", "entry-1e160"])
    def test_cptp_past_the_norm_bound_exits_1(self, tmp_path, capsys, d, mat):
        infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
        write_choi(infile, mat, d)
        assert run("project", "--in", infile, "--set", "cptp", "--out", outfile) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not outfile.exists()

    @pytest.mark.parametrize("entry", [1.7e308, 1e160])
    @pytest.mark.parametrize("target", ["cp", "tp", "tni"])
    def test_entry_past_the_file_norm_bound_exits_1(self, tmp_path, capsys, target,
                                                    entry):
        # Finite entries whose squares overflow: the projections would
        # write NaN or report an infinite distance moved.
        infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
        write_choi(infile, np.diag([entry, 0.5, 0.5, 0.5]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("project", "--in", infile, "--set", target,
                       "--out", outfile) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not outfile.exists()

    def test_us_p_one_equals_tp(self, tmp_path):
        infile = tmp_path / "in.json"
        write_choi(infile, C_BOX, 2)
        tp_out, us_out = tmp_path / "tp.json", tmp_path / "us.json"
        run("project", "--in", infile, "--set", "tp", "--out", tp_out)
        run("project", "--in", infile, "--set", "us_p", "--p-success", 1.0,
            "--out", us_out)
        a, _, _ = qio.load_choi(tp_out.read_text())
        b, _, _ = qio.load_choi(us_out.read_text())
        assert np.abs(a - b).max() < 1e-14

    def test_non_hermitian_input_exits_1(self, tmp_path):
        doc = json.loads(qio.dump_choi(np.eye(4), 2))
        doc["re"][0][1] = 0.5  # symmetric part broken
        infile = tmp_path / "in.json"
        infile.write_text(json.dumps(doc))
        assert run("project", "--in", infile, "--set", "cp",
                   "--out", tmp_path / "out.json") == 1

    def test_nan_input_exits_1(self, tmp_path, capsys):
        doc = json.loads(qio.dump_choi(identity_choi(2), 2))
        doc["re"][0][0] = float("nan")
        infile = tmp_path / "in.json"
        infile.write_text(json.dumps(doc))
        assert run("project", "--in", infile, "--set", "cptp",
                   "--out", tmp_path / "out.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("target, project", [
        ("cptp", project_cptp), ("cp", project_cp), ("tp", project_tp),
        ("tni", project_tni), ("us_p", lambda m: project_us_p(m, 0.5)),
    ])
    def test_each_set_writes_its_projection(self, tmp_path, target, project):
        infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
        write_choi(infile, C_BOX, 2)
        flag = ("--p-success", 0.5) if target == "us_p" else ()
        assert run("project", "--in", infile, "--set", target, *flag,
                   "--out", outfile) == 0
        assert outfile.read_text() == qio.dump_choi(project(C_BOX), 2,
                                                    {"projected_onto": target})

    def test_us_p_requires_p_success(self, tmp_path):
        infile = tmp_path / "in.json"
        write_choi(infile, C_BOX, 2)
        assert run("project", "--in", infile, "--set", "us_p",
                   "--out", tmp_path / "out.json") == 2

    @pytest.mark.parametrize("target", ["cptp", "cp", "tp", "tni"])
    def test_p_success_rejected_outside_us_p(self, tmp_path, capsys, target):
        infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
        write_choi(infile, C_BOX, 2)
        assert run("project", "--in", infile, "--set", target, "--p-success", 0.5,
                   "--out", outfile) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not outfile.exists()


class TestBenchmark:
    def test_row_count_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("benchmark", "--d-list", "2", "--N-list", "inf",
                       "--methods", "pgdb,dia,lifp", "--trials", 5,
                       "--seed", 3, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == qio.BENCHMARK_VERSION
        assert lines[1] == qio.BENCHMARK_HEADER
        assert len(lines) == 2 + 15  # 1 d x 1 N x 3 methods x 5 trials

    def test_row_cells_are_named_by_column(self):
        row = qio.benchmark_row(d=2, N="inf", final_cost=0.5, heralded=False, status="ok")
        assert row == "2,inf,,,,,0.5,,,false,ok"
        with pytest.raises(TypeError, match="n_samples"):
            qio.benchmark_row(n_samples=10)

    def test_median_j_decreases_with_n(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("benchmark", "--d-list", "2", "--N-list", "1000,100000,10000000",
                   "--methods", "pgdb", "--trials", 5, "--seed", 1,
                   "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        medians = []
        for n in ("1000", "100000", "10000000"):
            js = [float(r[5]) for r in rows if r[1] == n and r[10] == "ok"]
            assert len(js) == 5
            medians.append(np.median(js))
        assert medians[0] > medians[1] > medians[2]

    def test_lapack_failure_writes_failed_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        out = tmp_path / "sweep.csv"
        assert run("benchmark", "--d-list", "2", "--N-list", "inf",
                   "--methods", "pgdb,dia,lifp", "--out", out) == 1
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [r[2] for r in rows] == ["pgdb", "dia", "lifp"]
        assert all(r[10] == "error" for r in rows)

    def test_one_setup_per_dimension(self, tmp_path, monkeypatch):
        built = []

        def recording(d):
            built.append(d)
            return minimal_setup(d)

        monkeypatch.setattr(qptomo.cli, "minimal_setup", recording)
        assert run("benchmark", "--d-list", "2,3", "--N-list", "1000,inf",
                   "--trials", 2, "--out", tmp_path / "sweep.csv") == 0
        assert built == [2, 3]

    def test_unknown_method_is_data_error(self, tmp_path):
        assert run("benchmark", "--d-list", "2", "--N-list", "10",
                   "--methods", "sorcery", "--out", tmp_path / "x.csv") == 1

    @pytest.mark.parametrize("flag", ["--d-list", "--N-list", "--methods"])
    def test_empty_list_is_data_error(self, tmp_path, capsys, flag):
        argv = {"--d-list": "2", "--N-list": "10", "--methods": "lifp"}
        argv[flag] = ","
        out = tmp_path / "x.csv"
        assert run("benchmark", *(x for kv in argv.items() for x in kv),
                   "--out", out) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: every qptomo command would pay its
    # import time.
    env = dict(os.environ, PYTHONPATH=str(Path(qptomo.__file__).parent.parent))
    code = "import sys, qptomo.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def run_capped(*argv):
    """Run the CLI in a child that caps its own address space at 1 GiB.

    The cap is set before numpy loads, so an allocation that cannot fit
    fails at once without touching the machine's memory.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(qptomo.__file__).parent.parent),
               OPENBLAS_NUM_THREADS="1")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from qptomo.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


#: The largest Kraus rank at d = 2 that the byte bound admits: its 1 GiB draw
#: passes every entry check and cannot fit under ``run_capped``'s cap.
TOP_RANK_D2 = MAX_DIM_BYTES // (33 * 2**2)


def test_out_of_memory_exits_1(tmp_path):
    proc = run_capped("gen-map", "--d", 2, "--kind", "full",
                      "--kraus-rank", TOP_RANK_D2, "--out", tmp_path / "m.json")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr


def test_kraus_rank_over_the_byte_bound_exits_1(tmp_path):
    out = tmp_path / "m.json"
    proc = run_capped("gen-map", "--d", 2, "--kind", "full", "--kraus-rank", 10**8,
                      "--out", out)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: Kraus rank 100000000")
    assert "MAX_DIM_BYTES" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("gen-map", "--d", 1000, "--kind", "full"),
    ("reconstruct", "--counts", "COUNTS", "--method", "lifp"),
], ids=["gen-map", "reconstruct"])
def test_dimension_over_the_byte_bound_exits_1(tmp_path, argv):
    counts = tmp_path / "counts.txt"
    counts.write_text("# counts-v1\n# d=1000 n_prep=1 n_povm=1 N=10 seed=0\ni,j,n\n0,0,1\n")
    proc = run_capped(*(counts if a == "COUNTS" else a for a in argv),
                      "--out", tmp_path / "out.json")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: dimension 1000") and "MAX_DIM_BYTES" in proc.stderr
    assert "Traceback" not in proc.stderr
