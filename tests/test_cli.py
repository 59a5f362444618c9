import csv
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from halfpoisson import cli
from halfpoisson.model import BUNDLED


SVG_NS = "http://www.w3.org/2000/svg"


def run(args):
    return cli.main([str(a) for a in args])


class TestInfrastructure:
    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            run(["no-such-command"])

    def test_malformed_problem_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = run(["check-ls", "--problem", bad, "--out", tmp_path / "out"])
        assert code == cli.EXIT_INPUT

    def test_missing_config_is_input_error(self, tmp_path):
        code = run(["hardy-norm", "--config", tmp_path / "absent.json",
                    "--out", tmp_path / "out"])
        assert code == cli.EXIT_INPUT

    def test_metadata_sidecar_written(self, tmp_path):
        out = tmp_path / "out"
        assert run(["check-ls", "--out", out]) == cli.EXIT_OK
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"] == "check-ls"
        assert "timestamp" in meta

    def test_metadata_records_thread_env_as_found(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "out"
        assert run(["check-ls", "--out", out]) == cli.EXIT_OK
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["thread_env"] == {"OMP_NUM_THREADS": None,
                                      "OPENBLAS_NUM_THREADS": "3",
                                      "MKL_NUM_THREADS": None}
        assert "threads" not in meta
        # the flag that set them too late to matter is gone
        with pytest.raises(SystemExit):
            run(["check-ls", "--out", out, "--threads", "2"])

    def test_bundled_problem_by_name(self, tmp_path):
        code = run(["check-ls", "--problem", "neumann_laplacian",
                    "--out", tmp_path / "out"])
        assert code == cli.EXIT_OK

    def test_float_formatting_round_trips(self):
        for v in (0.1, 1 / 3, math.pi, 1e-300):
            assert float(cli._fmt(v)) == v


class TestCheckLs:
    def test_all_bundled_pass(self, tmp_path):
        for name in BUNDLED:
            out = tmp_path / name
            assert run(["check-ls", "--problem", name, "--out", out]) == cli.EXIT_OK
            rep = json.loads((out / "check_ls.json").read_text())
            assert rep["ellipticity_pass"] and rep["ls_pass"]

    def test_bad_problem_fails_tolerance(self, tmp_path):
        doc = {
            "n": 2, "m": 1,
            "interior": {"2,0": [1.0, 0.0], "0,2": [1.0, 0.0]},
            "boundary": [{"order": 0, "coeffs": {"0,0": [1.0, 0.0]}}],
            "phi_prime": math.pi / 2, "phi": math.pi / 4,
        }
        path = tmp_path / "bad_sign.json"
        path.write_text(json.dumps(doc))
        code = run(["check-ls", "--problem", path, "--out", tmp_path / "out"])
        assert code == cli.EXIT_TOLERANCE


class TestSweepOutputs:
    def test_decay_sweep_csv_contract(self, tmp_path):
        out = tmp_path / "out"
        assert run(["decay-sweep", "--out", out]) == cli.EXIT_OK
        with open(out / "decay_sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ray_arg", "lambda_mod", "norm", "predicted",
                           "fitted_slope"]
        body = np.array(rows[1:], dtype=float)
        assert np.all(body[:, 2] > 0)
        assert np.allclose(body[:, 3], -0.25)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["decay-sweep", "--plot", "--out", a])
        run(["decay-sweep", "--plot", "--out", b])
        for artifact in ("decay_sweep.csv", "decay_sweep.svg"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes()

    def test_rbound_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 64, "N_list": [4, 8]}))
        a, b = tmp_path / "a", tmp_path / "b"
        run(["rbound-sim", "--config", cfg, "--out", a])
        run(["rbound-sim", "--config", cfg, "--out", b])
        assert ((a / "rbound_sim.csv").read_bytes()
                == (b / "rbound_sim.csv").read_bytes())

    def test_rbound_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 64, "N_list": [4, 8]}))
        a, b = tmp_path / "a", tmp_path / "b"
        run(["rbound-sim", "--config", cfg, "--seed", 1, "--out", a])
        run(["rbound-sim", "--config", cfg, "--seed", 2, "--out", b])
        assert ((a / "rbound_sim.csv").read_bytes()
                != (b / "rbound_sim.csv").read_bytes())

    def test_plot_emits_svg_without_changing_exit(self, tmp_path):
        # decay-sweep draws one line per ray of the default 5-ray sector
        # sample, singularity-sweep one near-boundary profile
        for command, n_series in (("decay-sweep", 5), ("singularity-sweep", 1)):
            name = command.replace("-", "_")
            plain, plotted = tmp_path / f"{name}_plain", tmp_path / f"{name}_plot"
            assert run([command, "--out", plain]) == cli.EXIT_OK
            assert run([command, "--plot", "--out", plotted]) == cli.EXIT_OK
            assert not (plain / f"{name}.svg").exists()
            svg = ET.parse(plotted / f"{name}.svg").getroot()
            lines = svg.findall(f"{{{SVG_NS}}}polyline")
            assert len(lines) == n_series
            assert ((plotted / f"{name}.csv").read_bytes()
                    == (plain / f"{name}.csv").read_bytes())
            with open(plotted / f"{name}.csv", newline="") as fh:
                body = np.array(list(csv.reader(fh))[1:], dtype=float)
            drawable = np.all(np.isfinite(body[:, 1:3]) & (body[:, 1:3] > 0), axis=1)
            assert (sum(len(line.get("points").split()) for line in lines)
                    == drawable.sum())

    def test_unwritable_plot_keeps_exit(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "decay_sweep.svg").mkdir(parents=True)
        assert run(["decay-sweep", "--plot", "--out", out]) == cli.EXIT_OK
        assert "plot skipped" in capsys.readouterr().err

    def test_inadmissible_query_is_input_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 1.0, "s": 0.0}))
        code = run(["decay-sweep", "--config", cfg, "--out", tmp_path / "out"])
        assert code == cli.EXIT_INPUT


class TestSvgWriter:
    def test_drops_undrawable_points_and_escapes_labels(self, tmp_path):
        path = tmp_path / "p.svg"
        series = {"a<b": ([1.0, 10.0, 0.0, 100.0], [1.0, math.nan, 5.0, 0.01]),
                  "empty": ([-1.0], [1.0])}
        cli._write_svg_loglog(path, series, "x & y", "norm")
        svg = ET.parse(path).getroot()
        lines = svg.findall(f"{{{SVG_NS}}}polyline")
        assert [len(line.get("points").split()) for line in lines] == [2, 0]
        texts = [t.text for t in svg.iter(f"{{{SVG_NS}}}text")]
        assert {"a<b", "empty", "x & y", "norm"} <= set(texts)


class TestSolverCommands:
    def test_poisson_eval(self, tmp_path):
        out = tmp_path / "out"
        assert run(["poisson-eval", "--out", out]) == cli.EXIT_OK
        rep = json.loads((out / "poisson_eval.json").read_text())
        assert rep["boundary_reproduction_defect"] <= 1e-8

    def test_hardy_norm(self, tmp_path):
        out = tmp_path / "out"
        assert run(["hardy-norm", "--out", out]) == cli.EXIT_OK
        with open(out / "hardy_norm.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "r", "n_points", "norm", "rel_err_vs_pi"]

    def test_norm_check(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 10}))
        out = tmp_path / "out"
        assert run(["norm-check", "--config", cfg, "--out", out]) == cli.EXIT_OK
        rep = json.loads((out / "norm_check.json").read_text())
        assert rep["C_equivalence"] <= 4.0

    def test_parabolic_solve(self, tmp_path):
        out = tmp_path / "out"
        assert run(["parabolic-solve", "--out", out]) == cli.EXIT_OK
        rep = json.loads((out / "parabolic_solve.json").read_text())
        assert rep["single_mode_dev"] <= 1e-8

    def test_ibvp_solve_small(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_z": 256, "N_t": 8}))
        out = tmp_path / "out"
        assert run(["ibvp-solve", "--config", cfg, "--out", out]) == cli.EXIT_OK

    def test_semigroup_small(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_z": 512}))
        out = tmp_path / "out"
        assert run(["semigroup-test", "--config", cfg, "--out", out]) == cli.EXIT_OK

    def test_resolvent_small(self, tmp_path):
        out = tmp_path / "out"
        assert run(["resolvent-test", "--out", out]) == cli.EXIT_OK
        rep = json.loads((out / "resolvent_test.json").read_text())
        assert rep["order"] >= 2.0
        assert rep["residuals"][-1] <= 1e-4
