import argparse
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

from pathlib import Path

import numpy as np
import pytest

from halfpoisson import cli
from halfpoisson import poisson as poi
from halfpoisson.model import (BUNDLED, clamped_bilaplacian, dirichlet_laplacian,
                               problem_to_json)
from test_batching import _ls_violating_laplacian


SVG_NS = "http://www.w3.org/2000/svg"


def run(args):
    return cli.main([str(a) for a in args])


def _parser_flags():
    """Subcommand -> the option strings its subparser accepts, but --help."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in parser._actions for s in a.option_strings
                   if s not in ("-h", "--help")}
            for name, parser in sub.choices.items()}


class TestInfrastructure:
    def test_unknown_subcommand_rejected(self):
        assert run(["no-such-command"]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("argv", [
        ["norm-check", "--seed", "abc"],
        ["check-ls", "--no-such-flag"],
        # a command takes only the flags of its signature
        ["hardy-norm", "--problem", "/nonexistent.json"],
        ["hardy-norm", "--seed", "1"],
        ["semigroup-test", "--seed", "2"],
        ["check-ls", "--plot"],
    ], ids=["bad-seed", "unknown-flag", "problem-not-taken", "seed-not-taken",
            "seed-not-drawn", "plot-not-drawn"])
    def test_usage_errors_are_input_errors(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", tmp_path / "out"]) == cli.EXIT_INPUT
        assert "usage:" in capsys.readouterr().err

    def test_each_subcommand_takes_the_flags_of_its_signature(self):
        """--config, --out, and one flag per positional parameter of cmd_*
        after out: 35 flags over the 11 subcommands."""
        flags = _parser_flags()
        for name in cli.COMMANDS:
            params = list(inspect.signature(cli.COMMANDS[name]).parameters.values())
            assert params[0].name == "out"
            assert flags[name] == {"--config", "--out"} | {
                f"--{p.name}" for p in params[1:] if p.kind is p.POSITIONAL_OR_KEYWORD}
        assert sum(map(len, flags.values())) == 35
        assert {n for n, f in flags.items() if "--plot" in f} == {"decay-sweep",
                                                                  "singularity-sweep"}
        assert {n for n, f in flags.items() if "--seed" in f} == {"norm-check", "rbound-sim"}
        # the parser names no command: every flag comes from a signature
        source = inspect.getsource(cli.build_parser)
        assert not any(f'"{name}"' in source for name in cli.COMMANDS)

    def test_help_exits_ok(self, capsys):
        assert run(["--help"]) == cli.EXIT_OK
        assert run(["check-ls", "--help"]) == cli.EXIT_OK
        assert "--problem" in capsys.readouterr().out

    def test_malformed_problem_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = run(["check-ls", "--problem", bad, "--out", tmp_path / "out"])
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("command", [
        name for name, fn in cli.COMMANDS.items()
        if "problem" in inspect.signature(fn).parameters])
    def test_one_dimensional_problem_is_input_error(self, command, tmp_path, capsys):
        """The boundary data live on R^{n-1}: an n = 1 problem is rejected
        where it loads, for every command that takes a problem."""
        problem = tmp_path / "n1.json"
        problem.write_text(json.dumps({
            "n": 1, "m": 1, "interior": {"2": [-1.0, 0.0]},
            "boundary": [{"order": 0, "coeffs": {"0": [1.0, 0.0]}}],
            "phi_prime": math.pi - 0.01, "phi": 0.75 * math.pi}))
        code = run([command, "--problem", problem, "--out", tmp_path / "out"])
        assert code == cli.EXIT_INPUT
        assert "'n' must be >= 2, got 1" in capsys.readouterr().err

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
        # a seed is recorded only for the commands that draw one
        assert meta["seed"] is None
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2}))
        assert run(["norm-check", "--seed", 7, "--config", cfg, "--out", out]) == cli.EXIT_OK
        assert json.loads((out / "metadata.json").read_text())["seed"] == 7

    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch):
        """Two main calls build one parser, and a flag given in the first
        call does not carry over: a bare norm-check records seed 0."""
        build, built = cli.build_parser, []

        def counting():
            built.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2}))
        out = tmp_path / "out"
        for argv, seed in ((["--seed", 7], 7), ([], 0)):
            assert run(["norm-check", "--config", cfg, "--out", out] + argv) == cli.EXIT_OK
            assert json.loads((out / "metadata.json").read_text())["seed"] == seed
        assert len(built) == 1
        cli._parser.cache_clear()

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
        assert run(["check-ls", "--out", out, "--threads", "2"]) == cli.EXIT_INPUT

    def test_metadata_records_the_pool_size(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run(["check-ls", "--out", out]) == cli.EXIT_OK
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["workers"] == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run(["check-ls", "--out", out]) == cli.EXIT_OK
        assert json.loads((out / "metadata.json").read_text())["workers"] == 1

    def test_bundled_problem_by_name(self, tmp_path):
        code = run(["check-ls", "--problem", "neumann_laplacian",
                    "--out", tmp_path / "out"])
        assert code == cli.EXIT_OK

    def test_import_leaves_scipy_interpolate_unloaded(self):
        """No SciPy module at all is loaded by importing the CLI."""
        code = ("import sys, halfpoisson.cli; "
                "sys.exit(any(m == 'scipy' or m.startswith('scipy.') "
                "for m in sys.modules))")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_kernel_commands_leave_scipy_unloaded(self, tmp_path):
        """check-ls and the clamped poisson-eval and singularity-sweep, whose
        roots nearly merge, run on NumPy alone."""
        code = (
            "import sys; from halfpoisson import cli; "
            f"out = {str(tmp_path)!r}; "
            "codes = [cli.main(['check-ls', '--out', out + '/ls']), "
            "cli.main(['poisson-eval', '--problem', 'clamped_bilaplacian', "
            "'--out', out + '/pe']), "
            "cli.main(['singularity-sweep', '--problem', 'clamped_bilaplacian', "
            "'--out', out + '/ss'])]; "
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
            "print(codes, loaded, file=sys.stderr); "
            "sys.exit(codes != [0, 0, 0] or bool(loaded))")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_other_commands_run_without_scipy(self, tmp_path):
        """The subcommands that the kernel test above leaves out, hardy-norm at
        its defaults and the rest at small configs, run in one process that
        never loads a SciPy module."""
        configs = {
            "decay-sweep": {"n_rays": 1, "n_moduli": 4},
            "norm-check": {"trials": 2},
            "resolvent-test": {"N_z": 32},
            "semigroup-test": {"N_z": 256},
            "parabolic-solve": {"N_t": 4},
            "ibvp-solve": {"N_z": 256, "N_t": 4},
            "rbound-sim": {"N_list": [4, 8], "trials": 64},
        }
        argvs = []
        kernel = ("check-ls", "poisson-eval", "singularity-sweep")
        for name in (n for n in cli.COMMANDS if n not in kernel):
            argv = [name, "--out", str(tmp_path / name)]
            if name in configs:
                cfg = tmp_path / f"{name}.json"
                cfg.write_text(json.dumps(configs[name]))
                argv += ["--config", str(cfg)]
            argvs.append(argv)
        code = (
            "import json, sys; from halfpoisson import cli; "
            f"codes = [cli.main(argv) for argv in {json.dumps(argvs)}]; "
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
            "print(codes, loaded[:5], file=sys.stderr); "
            "sys.exit(cli.EXIT_INPUT in codes or bool(loaded))")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_float_formatting_round_trips(self, tmp_path):
        """A float column reads back from the CSV to the same doubles."""
        path = tmp_path / "x.csv"
        values = [0.1, 1 / 3, math.pi, 1e-300]
        cli._write_csv(path, {"v": np.array(values)})
        with open(path, newline="") as fh:
            assert [float(row["v"]) for row in csv.DictReader(fh)] == values

    def test_csv_bytes_pinned(self, tmp_path):
        """Columns of arrays, lists or repeated scalars: floats by shortest
        round-trip repr, ints by str, bools as 1/0, in header order."""
        path = tmp_path / "x.csv"
        inf, nan = math.inf, math.nan
        cli._write_csv(path, {
            "float": np.array([0.1, -0.0, 1e16, 1e-05, 5e-324, nan, inf, -inf]),
            "int": np.arange(-3, 5),
            "bool": np.arange(8) % 2 == 0,
            "listed": [3, -7, 0, 1, 2, 4, 5, 6],
            "scalar": 1e-05,
            "flag": True,
        })
        assert path.read_bytes() == (
            b"float,int,bool,listed,scalar,flag\r\n"
            b"0.1,-3,1,3,1e-05,1\r\n"
            b"-0.0,-2,0,-7,1e-05,1\r\n"
            b"1e+16,-1,1,0,1e-05,1\r\n"
            b"1e-05,0,0,1,1e-05,1\r\n"
            b"5e-324,1,1,2,1e-05,1\r\n"
            b"nan,2,0,4,1e-05,1\r\n"
            b"inf,3,1,5,1e-05,1\r\n"
            b"-inf,4,0,6,1e-05,1\r\n")
        with pytest.raises(ValueError, match="unequal"):
            cli._write_csv(path, {"a": np.zeros(3), "b": np.zeros(4)})
        with pytest.raises(ValueError, match="unequal"):
            cli._write_csv(path, {"a": np.zeros(3), "b": np.zeros((3, 1))})

    def test_csv_bytes_equal_the_csv_module(self, tmp_path):
        """The writer writes the bytes ``csv.writer`` writes from the same
        ``.tolist()`` cells: special floats, ints, bools and broadcast
        scalar columns."""
        columns = {
            "float": np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308,
                               -1e308, 0.1, 1 / 3]),
            "int": np.array([-3, 0, 7, 2 ** 62, -2 ** 62, 1, 2, 3, 4]),
            "bool": np.arange(9) % 3 == 0,
            "scalar": np.float64(1e308),
            "int_scalar": 12,
            "bool_scalar": False,
            "zero": -0.0,
        }
        path, ref = tmp_path / "x.csv", tmp_path / "ref.csv"
        cli._write_csv(path, columns)
        cells = [np.asarray(c) for c in columns.values()]
        cells = [np.broadcast_to(c.astype(int) if c.dtype == bool else c, 9).tolist()
                 for c in cells]
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
            writer.writerow(columns)
            writer.writerows(zip(*cells))
        assert path.read_bytes() == ref.read_bytes()


class TestConfig:
    def _run(self, command, doc, tmp_path):
        """``command`` may carry flags after the subcommand name."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return run([*command.split(), "--config", cfg, "--out", tmp_path / "out"])

    def test_unknown_key_rejected(self, tmp_path, capsys):
        assert self._run("check-ls", {"N_xx": 4}, tmp_path) == cli.EXIT_INPUT
        assert "'N_xx'" in capsys.readouterr().err

    def test_non_object_rejected(self, tmp_path, capsys):
        assert self._run("check-ls", [1, 2], tmp_path) == cli.EXIT_INPUT
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,key", [({"lambda": 4}, "lambda"),
                                         ({"N_x": "16"}, "N_x")])
    def test_wrong_type_rejected(self, doc, key, tmp_path, capsys):
        assert self._run("poisson-eval", doc, tmp_path) == cli.EXIT_INPUT
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,doc,key", [
        ("poisson-eval", {"j": 1}, "'j'"),
        ("poisson-eval", {"j": -1}, "'j'"),
        ("decay-sweep", {"j": 1}, "'j'"),
        ("singularity-sweep", {"j": 1}, "'j'"),
        ("rbound-sim", {"N_list": []}, "N_list"),
        ("rbound-sim", {"N_list": [0, 4]}, "N_list"),
        ("norm-check", {"trials": 0}, "'trials'"),
        ("norm-check", {"n_mu": 0}, "'n_mu'"),
        # sample sizes that cannot work: rejected where they enter, with no
        # traceback and no warning
        ("decay-sweep", {"n_rays": 0}, "n_rays"),
        ("check-ls", {"n_rays": 0}, "n_rays"),
        ("check-ls", {"n_moduli": 0}, "n_moduli"),
        ("decay-sweep", {"n_moduli": 1}, "'n_moduli'"),
        ("decay-sweep", {"n_moduli": 3}, "'n_moduli'"),
        ("decay-sweep", {"sigma_floor": 0}, "sigma_floor"),
        ("decay-sweep", {"mod_max": 0}, "mod_max"),
        ("singularity-sweep", {"n_x_pts": 1}, "'n_x_pts'"),
        ("parabolic-solve", {"n_x_pts": 0}, "'n_x_pts'"),
        ("ibvp-solve", {"N_t": 0}, "N_t"),
        ("ibvp-solve", {"N_t": 3}, "N_t"),
        # a decay fit needs a range of moduli
        ("decay-sweep", {"mod_max": 100}, "mod_max"),
        # normal grids too coarse for the FD checks: no interior residual
        # node (N_z <= 4 x order), or fewer than the six trace nodes
        ("resolvent-test", {"N_z": 8}, "N_z"),
        ("resolvent-test --problem clamped_bilaplacian", {"N_z": 16}, "N_z"),
        ("resolvent-test", {"N_z": 4}, "N_z"),
        ("ibvp-solve", {"N_z": 4}, "N_z"),
        # grid sizes that are not a power of two name the key and the
        # smallest power accepted
        ("poisson-eval", {"N_x": 12}, "'N_x' must be a power of two >= 2"),
        ("decay-sweep", {"N_x": 24}, "'N_x' must be a power of two >= 2"),
        ("singularity-sweep", {"N_x": 1000}, "unknown config key 'N_x'"),
        ("norm-check", {"N_x": 100}, "'N_x' must be a power of two >= 2"),
        ("resolvent-test", {"N_z": 12}, "'N_z' must be a power of two >= 16"),
        ("resolvent-test --problem clamped_bilaplacian", {"N_z": 24},
         "'N_z' must be a power of two >= 32"),
        ("semigroup-test", {"N_z": 100}, "'N_z' must be a power of two >= 4"),
        ("ibvp-solve", {"N_z": 12}, "'N_z' must be a power of two >= 8"),
        ("ibvp-solve", {"N_t": 12}, "'N_t' must be a power of two >= 1"),
        # the exact sup needs no torus: singularity-sweep has no xi_max key
        ("singularity-sweep", {"xi_max": 0}, "'xi_max'"),
        ("singularity-sweep", {"xi_max": -2e4}, "'xi_max'"),
        ("ibvp-solve", {"T": 0}, "'T'"),
        # values that reached a grid's or a function's own check
        ("parabolic-solve", {"N_t": 12}, "'N_t' must be a power of two >= 2"),
        ("parabolic-solve", {"N_t": 1}, "'N_t' must be a power of two >= 2"),
        ("parabolic-solve", {"T_per": 0}, "'T_per' must be positive"),
        ("parabolic-solve", {"sigma": 0}, "'sigma' must be positive"),
        ("semigroup-test", {"t1": 0}, "'t1' must be positive"),
        ("semigroup-test", {"t2": 0}, "'t2' must be positive"),
        ("semigroup-test", {"t_small": 0}, "'t_small' must be positive"),
        ("resolvent-test", {"X": 0}, "'X' must be positive"),
        ("semigroup-test", {"X": 0}, "'X' must be positive"),
        ("ibvp-solve", {"X": 0}, "'X' must be positive"),
        ("ibvp-solve", {"out_times": [0.7]}, "'out_times' must lie in (0, T]"),
        ("rbound-sim", {"sigma": 0}, "'sigma' must be positive"),
        ("hardy-norm", {"n_points": 2}, "'n_points' must be >= 3"),
        # a frequency off the tangential grid (16 modes: -8, ..., 7)
        ("poisson-eval", {"xi0": 100}, "frequency 100 is off the grid"),
        ("poisson-eval", {"xi0": 1.5}, "frequency 1.5 is off the grid"),
        ("poisson-eval", {"xi0": 8}, "frequency 8 is off the grid"),
        # more values that reached a grid's or a function's own check
        ("hardy-norm", {"ratio": 1}, "'ratio' must lie in (1, inf)"),
        ("hardy-norm", {"x_min": 0}, "'x_min' must be positive"),
        ("hardy-norm", {"p": 1}, "'p' must lie in (1, inf)"),
        ("norm-check", {"t": -1}, "'t' must be >= 0"),
        ("decay-sweep", {"p": 0.5}, "'p' must be >= 1"),
        ("decay-sweep", {"k": -1}, "'k' must be >= 0"),
        ("rbound-sim", {"trials": 0}, "'trials' must be >= 1"),
        ("rbound-sim", {"r": -1}, "'r' must exceed -1"),
        ("singularity-sweep", {"lambda": [0, 0]}, "'lambda' must be nonzero"),
        ("poisson-eval", {"lambda": [0, 0]}, "'lambda' must be nonzero"),
        ("resolvent-test", {"lambda": [0, 0]}, "'lambda' must be nonzero"),
        # the JSON tokens NaN and Infinity are not finite numbers
        ("norm-check", {"t": math.nan}, "config key 't'"),
        ("semigroup-test", {"t1": math.inf}, "config key 't1'"),
        ("poisson-eval", {"lambda": [math.nan, 0]}, "config key 'lambda'"),
        ("ibvp-solve", {"out_times": [math.inf]}, "config key 'out_times'"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_value_rejected(self, command, doc, key, tmp_path, capsys):
        # the Dirichlet Laplacian has one boundary operator: j = 0 only
        assert self._run(command, doc, tmp_path) == cli.EXIT_INPUT
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command,N_z,code", [
        ("resolvent-test", 16, cli.EXIT_TOLERANCE),
        ("resolvent-test --problem clamped_bilaplacian", 32, cli.EXIT_OK),
        ("ibvp-solve", 8, cli.EXIT_OK),
    ])
    def test_smallest_N_z_accepted(self, command, N_z, code, tmp_path):
        assert self._run(command, {"N_z": N_z}, tmp_path) == code

    @pytest.mark.parametrize("xi0,mode", [(-8, 8), (0, 0), (7.0, 7)])
    def test_grid_frequency_xi0_picks_its_mode(self, xi0, mode, tmp_path):
        # 16 modes at L = 2 pi: xi_k = 0, 1, ..., 7, -8, ..., -1
        assert self._run("poisson-eval", {"xi0": xi0}, tmp_path) == cli.EXIT_OK
        with open(tmp_path / "out" / "poisson_eval.csv", newline="") as fh:
            assert {row["mode"] for row in csv.DictReader(fh)} == {str(mode)}

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_datum_off_the_grid_is_input_error(self, name, n, tmp_path, capsys):
        """Two modes per axis hold xi' = 0 and -1 only: the t <= s decay
        sweep's datum at xi' = 1 has no mode, so the run exits 1 naming it
        rather than moving the datum to xi' = 0."""
        problem = tmp_path / f"{name}_n{n}.json"
        problem.write_text(problem_to_json(BUNDLED[name](n)))
        code = self._run(f"decay-sweep --problem {problem}", {"N_x": 2}, tmp_path)
        assert code == cli.EXIT_INPUT
        assert ("frequency 1.0 is off the grid: its 2 modes per axis are the "
                "multiples of 1 from -1 to 0") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["resolvent-test", "semigroup-test",
                                         "parabolic-solve", "ibvp-solve"])
    def test_one_mode_commands_take_no_N_x(self, command, tmp_path, capsys):
        """These commands solve on the datum's mode alone: no torus to size."""
        assert self._run(command, {"N_x": 8}, tmp_path) == cli.EXIT_INPUT
        assert "unknown config key 'N_x'" in capsys.readouterr().err

    def test_declared_types_accepted(self, tmp_path):
        # integers for float keys, a list for [re, im]
        doc = {"lambda": [4, 1], "N_x": 8, "xi0": 1}
        assert self._run("poisson-eval", doc, tmp_path) == cli.EXIT_OK
        rep = json.loads((tmp_path / "out" / "poisson_eval.json").read_text())
        assert rep["lambda"] == [4.0, 1.0]

    def test_readme_table_lists_the_accepted_keys(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("### Config keys", 1)[1]
        table = {}
        for line in section.splitlines():
            row = re.match(r"\| `([a-z-]+)` \|(.*)\|$", line)
            if row:
                table[row.group(1)] = set(re.findall(r"`([A-Za-z_]\w*)`", row.group(2)))
            elif table and not line.startswith("|"):
                break
        assert table == {name: set(cli.config_params(name)) for name in cli.COMMANDS}

    def test_readme_table_lists_the_flags(self):
        """The Flags column of the subcommand table holds what the parser
        accepts besides --config and --out."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("| Subcommand | Flags | What it does |", 1)[1]
        table = {}
        for line in section.splitlines():
            row = re.match(r"\| `([a-z-]+)` \|([^|]*)\|", line)
            if row:
                table[row.group(1)] = set(re.findall(r"`(--[a-z]+)`", row.group(2)))
            elif table and not line.startswith("|"):
                break
        assert table == {name: flags - {"--config", "--out"}
                         for name, flags in _parser_flags().items()}


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

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_worst_point_is_written_as_numbers(self, name, tmp_path):
        out = tmp_path / "out"
        assert run(["check-ls", "--problem", name, "--out", out]) == cli.EXIT_OK
        point = json.loads((out / "check_ls.json").read_text())["ls_worst_point"]
        assert sorted(point) == ["lambda", "xi_prime"]
        assert len(point["xi_prime"]) == BUNDLED[name]().n - 1
        assert len(point["lambda"]) == 2
        values = point["xi_prime"] + point["lambda"]
        assert all(type(v) in (int, float) and math.isfinite(v) for v in values)


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

    def test_decay_sweep_saturating_datum(self, tmp_path):
        """t > s activates the bracket: the datum saturates the s-indexed
        trace ball on 512 modes, and the fitted slopes meet
        (-1 - r + p (t - s)) / (2 m p) on the Dirichlet Laplacian."""
        t, s, r, p, m = 0.5, 0.0, 1.5, 2.0, 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": t, "s": s, "r": r}))
        out = tmp_path / "out"
        assert run(["decay-sweep", "--config", cfg, "--out", out]) == cli.EXIT_OK
        rep = json.loads((out / "decay_sweep.json").read_text())
        assert rep["max_deviation"] <= 0.05
        assert rep["predicted"] == (-1.0 - r + p * (t - s)) / (2 * m * p)
        with open(out / "decay_sweep.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 5 * 13

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

    def test_rbound_single_batch_fails_the_stderr_gate(self, tmp_path, capsys):
        """One trial leaves one batch: the standard error is undefined and
        the gate fails instead of passing on 0."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1, "N_list": [3, 5]}))
        out = tmp_path / "out"
        assert run(["rbound-sim", "--p", "2.0", "--config", cfg, "--out", out]) \
            == cli.EXIT_TOLERANCE
        _, stderr = _assert_gates_are_the_verdicts("rbound-sim", out)
        assert stderr["name"] == "relative_stderr" and math.isnan(stderr["value"])
        assert not stderr["passed"]
        assert "FAIL  relative_stderr = nan <= 0.03" in capsys.readouterr().out.splitlines()
        with open(out / "rbound_sim.csv") as fh:
            assert [row["stderr"] for row in csv.DictReader(fh)] == ["nan", "nan"]

    def test_rbound_config_p_is_unknown_key(self, tmp_path, capsys):
        # p is set by --p alone
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 64, "N_list": [4, 8], "p": 2.0}))
        code = run(["rbound-sim", "--config", cfg, "--out", tmp_path / "out"])
        assert code == cli.EXIT_INPUT
        assert "unknown config key 'p'" in capsys.readouterr().err

    def test_rbound_p_zero_is_input_error(self, tmp_path, capsys):
        code = run(["rbound-sim", "--p", 0, "--out", tmp_path / "out"])
        assert code == cli.EXIT_INPUT
        assert "p in [1, 2]" in capsys.readouterr().err

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

    def test_decay_sweep_two_tangential_axes(self, tmp_path):
        """At n = 3 the profiles hold the 8 x 8 modes flattened; the
        tangential weight must follow that layout."""
        problem = tmp_path / "dirichlet_n3.json"
        problem.write_text(problem_to_json(dirichlet_laplacian(3)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_x": 8, "n_moduli": 5}))
        code = run(["decay-sweep", "--problem", problem, "--config", cfg,
                    "--out", tmp_path / "out"])
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("command,doc", [
        ("decay-sweep", {"N_x": 8, "t": 0.0, "s": -0.5, "r": 0.5}),
        ("decay-sweep", {"N_x": 8, "t": 1.0, "r": 1.5}),
    ])
    def test_saturating_datum_needs_two_dimensions(self, command, doc, tmp_path,
                                                   capsys):
        """The datum's trace exponent 1/2 is that of n = 2: at n = 3 the
        bracket-active decay sweeps, the one use of a saturating datum, are
        input errors."""
        problem = tmp_path / "dirichlet_n3.json"
        problem.write_text(problem_to_json(dirichlet_laplacian(3)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run([command, "--problem", problem, "--config", cfg,
                    "--out", tmp_path / "out"])
        assert code == cli.EXIT_INPUT
        assert "'n' must be 2 for the saturating datum, got 3" in capsys.readouterr().err

    @staticmethod
    def _singularity_deviation(out):
        with open(out / "singularity_sweep.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        return abs(float(row["fitted_slope"]) - float(row["predicted"]))

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_singularity_sweep_in_three_dimensions(self, name, tmp_path):
        """The exact sup needs no torus, so n = 3 runs as n = 2 does: the
        profile's slope meets -[t - s]_+ to 1e-3."""
        problem = tmp_path / f"{name}_n3.json"
        problem.write_text(problem_to_json(BUNDLED[name](3)))
        out = tmp_path / "out"
        assert run(["singularity-sweep", "--problem", problem, "--out", out]) \
            == cli.EXIT_OK
        assert self._singularity_deviation(out) <= 1e-3

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_singularity_sweep_negative_boundary_regularity(self, name, tmp_path):
        """Data of negative regularity, s = -0.5: the slope meets -(t - s)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 0.5, "s": -0.5}))
        out = tmp_path / "out"
        assert run(["singularity-sweep", "--problem", name, "--config", cfg,
                    "--out", out]) == cli.EXIT_OK
        assert self._singularity_deviation(out) <= 1e-3

    def test_singularity_sweep_cut_short_fails(self, tmp_path, monkeypatch):
        """A sup whose maximiser sits at its largest |xi'| has no slope: the
        run exits 2, and the benchmark's verdict agrees."""
        monkeypatch.setattr(poi, "_SUP_REACH", 0.5)
        out = tmp_path / "out"
        assert run(["singularity-sweep", "--out", out]) == cli.EXIT_TOLERANCE
        with open(out / "singularity_sweep.csv", newline="") as fh:
            assert {row["fitted_slope"] for row in csv.DictReader(fh)} == {"nan"}
        assert not _load_verdicts().verdict("singularity-sweep", out).passed
        [gate] = _assert_gates_are_the_verdicts("singularity-sweep", out)
        assert math.isnan(gate["value"])


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

    @pytest.mark.filterwarnings("error")
    def test_norm_check_rejects_lifted_norms_that_underflow(self, tmp_path, capsys):
        """s = -100: the lift (1 + |xi|^2 + mu^2)^{(s - s0)/2} underflows to 0 at
        mu = 1e4, so the equivalence constant would be 1/0; exit 1, no
        warning and no non-JSON Infinity written."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": -100, "trials": 4}))
        out = tmp_path / "out"
        assert run(["norm-check", "--config", cfg, "--out", out]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "'s' = -100" in err and "'s0' = 0.0" in err
        assert not (out / "norm_check.json").exists()

    @pytest.mark.parametrize("doc,names", [
        ({"s": 100}, "'s' = 100 and 's0' = 0.0"),
        ({"s": 90, "s0": 90}, "'s' = 90 and 's0' = 90"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_norm_check_rejects_lifted_norms_that_overflow(self, doc, names, tmp_path,
                                                           capsys):
        """s = 100: the lift overflows at mu = 1e4; s = s0 = 90: the H^{s0}
        weight alone overflows.  Rejected before any power is taken, so exit
        1 with no warning and no norm_check.json."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["norm-check", "--config", cfg, "--out", out]) == cli.EXIT_INPUT
        assert names in capsys.readouterr().err
        assert not (out / "norm_check.json").exists()

    @pytest.mark.parametrize("seed", [5, 639])
    @pytest.mark.parametrize("trials", [1, cli._LIFT_BLOCK - 1, cli._LIFT_BLOCK,
                                        cli._LIFT_BLOCK + 1, 100])
    def test_norm_check_bytes_match_the_per_trial_loop(self, seed, trials, tmp_path):
        """The command writes the bytes of one norm call per (trial, mu) and
        one lifting call per trial, drawn trial by trial, and of one lifting
        call on every trial drawn at once; it draws and checks the lifting
        trials in blocks of _LIFT_BLOCK, a last block short."""
        from halfpoisson import spaces as sp
        from halfpoisson.grids import TangentialGrid

        s, s0, t = 2.0, 0.0, 2.0
        rng = np.random.default_rng(seed)
        tgrid = TangentialGrid(n_axes=1, N=128, L=2.0 * math.pi)
        rows, ratios = [], []
        header = ("trial", "mu", "param_norm", "split_norm", "ratio")
        for trial in range(trials):
            fhat = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            fhat[32:96] = 0.0
            for mu in np.logspace(0, 4, 9):
                lhs = sp.param_norm(fhat, s, s0, mu, tgrid)
                rhs = (sp.space_norm(fhat, s, tgrid) + (1.0 + mu ** 2) ** ((s - s0) / 2.0)
                       * sp.space_norm(fhat, s0, tgrid))
                ratios.append(lhs / rhs)
                rows.append((trial, mu, lhs, rhs, ratios[-1]))
        xi_n = 2.0 * math.pi * np.fft.fftfreq(64, d=2.0 * math.pi / 64)
        state = rng.bit_generator.state
        lift = [sp.mixed_lifting_check(
            rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64)),
            t, tgrid, xi_n) for _ in range(trials)]
        rng.bit_generator.state = state
        re, im = np.moveaxis(rng.standard_normal((trials, 2, 128, 64)), 1, 0)
        assert np.array_equal(sp.mixed_lifting_check(re + 1j * im, t, tgrid, xi_n), lift)
        ref = tmp_path / "ref"
        ref.mkdir()
        cli._write_csv(ref / "norm_check.csv", dict(zip(header, zip(*rows))))
        cli._write_json(ref / "norm_check.json", {
            "C_equivalence": max(max(ratios), 1.0 / min(ratios)),
            "C_lifting": max(max(lift), 1.0 / min(lift))})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": trials}))
        out = tmp_path / "out"
        assert run(["norm-check", "--seed", seed, "--config", cfg,
                    "--out", out]) == cli.EXIT_OK
        for name in ("norm_check.csv", "norm_check.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_norm_check_working_set_is_a_few_blocks(self, tmp_path):
        """At the defaults the lifting half holds one block of trials at a
        time: the traced peak stays under 8 MB, where drawing all 100 trials
        at once peaks at about 46 MB."""
        import tracemalloc

        tracemalloc.start()
        try:
            gates = cli.cmd_norm_check(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20
        assert all(value <= bound for _, value, _, bound in gates)

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

    @pytest.mark.parametrize("factory", [dirichlet_laplacian, clamped_bilaplacian])
    @pytest.mark.parametrize("command,doc", [
        ("parabolic-solve", {"N_t": 8}),
        ("ibvp-solve", {"N_z": 256, "N_t": 8}),
    ])
    def test_time_layer_two_tangential_axes(self, command, doc, factory, tmp_path):
        """At n = 3 the (m, N_t [+ 1], 1) data sit on the one mode (0, 1),
        whose |xi'| = 1 is that of the datum at n = 2; the problems are
        rotation invariant, so the run writes the numbers of the n = 2 run."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        tables = []
        for n in (2, 3):
            problem = tmp_path / f"n{n}.json"
            problem.write_text(problem_to_json(factory(n)))
            out = tmp_path / f"out{n}"
            code = run([command, "--problem", problem, "--config", cfg, "--out", out])
            assert code == cli.EXIT_OK
            tables.append(np.loadtxt(out / (command.replace("-", "_") + ".csv"),
                                     delimiter=",", skiprows=1))
        assert tables[1].shape == tables[0].shape
        assert np.abs(tables[0][:, 2:]).max() > 0.1
        assert np.allclose(tables[1], tables[0], rtol=1e-12, atol=1e-12)

    def test_semigroup_small(self, tmp_path, monkeypatch):
        """Four contour solves: S(t1), S(t2) S(t1), S(t1 + t2) and S(t_small)."""
        calls = []
        apply = cli.res.semigroup_apply
        monkeypatch.setattr(cli.res, "semigroup_apply",
                            lambda *a, **kw: calls.append(a[2]) or apply(*a, **kw))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_z": 512}))
        out = tmp_path / "out"
        assert run(["semigroup-test", "--config", cfg, "--out", out]) == cli.EXIT_OK
        assert len(calls) == 4

    def test_resolvent_test_names_an_ls_failure_on_the_datum_mode(self, tmp_path, capsys):
        """B = D_n - 2i D_1 violates LS on lambda = 3 xi_1^2: at lambda = 3 it
        fails on the datum's own mode xi' = 1, and the run exits 1 naming it."""
        problem = tmp_path / "ls_violating.json"
        problem.write_text(problem_to_json(_ls_violating_laplacian()))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": [3, 0]}))
        code = run(["resolvent-test", "--problem", problem, "--config", cfg,
                    "--out", tmp_path / "out"])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "Lopatinskii-Shapiro failure" in err and "xi'=[1.]" in err

    def test_resolvent_small(self, tmp_path):
        out = tmp_path / "out"
        assert run(["resolvent-test", "--out", out]) == cli.EXIT_OK
        rep = json.loads((out / "resolvent_test.json").read_text())
        assert rep["order"] >= 2.0
        assert rep["residuals"][-1] <= 1e-4


def _load_verdicts():
    """The benchmark's verdict module, loaded from its file without writing
    bytecode next to it."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "verdicts.py"
    spec = importlib.util.spec_from_file_location("perfbench_verdicts", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look themselves up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_benchmark_verdicts_match_the_exit_codes(tmp_path):
    """For every subcommand on a small config, the gates the run records are
    the ones ``perfbench/verdicts.py`` recomputes from the artifacts, and
    the exit code is theirs: an artifact-schema slip, or a gate changed in
    the CLI alone, fails here before the benchmark runs."""
    configs = {
        "check-ls": {"n_moduli": 4, "n_rays": 3},
        "poisson-eval": {},
        "decay-sweep": {"n_rays": 2, "n_moduli": 4},
        "singularity-sweep": {"n_x_pts": 8},
        "hardy-norm": {"p": 3.0, "n_points": 200},   # fails monotone_in_r
        "norm-check": {"trials": 2},
        "resolvent-test": {"N_z": 16},               # fails refinement_order
        "semigroup-test": {"N_z": 256},
        "parabolic-solve": {"N_t": 4},
        "ibvp-solve": {"N_z": 256, "N_t": 4},
        "rbound-sim": {"N_list": [4, 8], "trials": 64},
    }
    assert set(configs) == set(cli.COMMANDS)
    passed = {}
    for name, doc in configs.items():
        cfg, out = tmp_path / f"{name}.json", tmp_path / name
        cfg.write_text(json.dumps(doc))
        code = run([name, "--config", cfg, "--out", out])
        assert code in (cli.EXIT_OK, cli.EXIT_TOLERANCE), name
        passed[name] = all(g["passed"] for g in _assert_gates_are_the_verdicts(name, out))
        assert passed[name] == (code == cli.EXIT_OK), name
    # the check sees both verdicts
    assert not passed["hardy-norm"] and not passed["resolvent-test"]
    assert passed["poisson-eval"]


# Laplacians whose one boundary condition fails a check-ls gate: the wrong
# sign fails ellipticity, B = D_1 (no normal derivative) fails LS at xi' = 0
_BAD_PROBLEMS = {
    "bad_sign": {"n": 2, "m": 1, "interior": {"2,0": [1.0, 0.0], "0,2": [1.0, 0.0]},
                 "boundary": [{"order": 0, "coeffs": {"0,0": [1.0, 0.0]}}],
                 "phi_prime": math.pi / 2, "phi": math.pi / 4},
    "tangential_bc": {"n": 2, "m": 1,
                      "interior": {"2,0": [-1.0, 0.0], "0,2": [-1.0, 0.0]},
                      "boundary": [{"order": 1, "coeffs": {"1,0": [1.0, 0.0]}}],
                      "phi_prime": 3.1, "phi": 2.3},
}


@pytest.mark.parametrize("command,flags,doc", [
    ("hardy-norm", [], {"p": 3.0}),
    ("check-ls", ["--problem", "bad_sign"], {}),
    ("check-ls", ["--problem", "tangential_bc"], {}),
], ids=lambda v: json.dumps(v) if isinstance(v, (dict, list)) else None)
def test_recorded_gates_are_the_benchmark_verdicts(command, flags, doc, tmp_path, capsys):
    """Failing runs, beyond the small configs of
    :func:`test_benchmark_verdicts_match_the_exit_codes` and the one-trial
    rbound-sim of ``test_rbound_single_batch_fails_the_stderr_gate``, record
    the gates that ``perfbench/verdicts.py`` recomputes, print one line per
    gate with its verdict first, and exit on them."""
    for name, problem in _BAD_PROBLEMS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(problem))
    flags = [str(tmp_path / f"{f}.json") if f in _BAD_PROBLEMS else f for f in flags]
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run([command, *flags, "--config", cfg, "--out", out])
    recorded = _assert_gates_are_the_verdicts(command, out)
    assert [line.split()[:2] for line in capsys.readouterr().out.splitlines()] == [
        ["pass" if g["passed"] else "FAIL", g["name"]] for g in recorded]
    passed = all(g["passed"] for g in recorded)
    assert code == (cli.EXIT_OK if passed else cli.EXIT_TOLERANCE)


def _assert_gates_are_the_verdicts(command, out) -> list:
    """The gates the run recorded in ``out/metadata.json``, asserted equal to
    those ``perfbench/verdicts.py`` recomputes from the artifacts: the same
    names in the same order, values (nan equal to nan) in plain JSON types,
    bounds (None for a boolean gate) and verdicts."""
    recorded = json.loads((out / "metadata.json").read_text())["gates"]
    expected = _load_verdicts().verdict(command, out).gates
    assert [g["name"] for g in recorded] == [g.name for g in expected]
    for got, want in zip(recorded, expected):
        assert type(got["value"]) is (bool if got["kind"] == "bool" else float)
        assert got["value"] == want.figure or math.isnan(got["value"]) and math.isnan(want.figure)
        assert got["bound"] == (None if want.kind == "bool" else want.tol)
        assert got["passed"] is want.passed
    return recorded
