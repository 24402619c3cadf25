import csv
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quasieq.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_SOLVE_FAILURE,
    _solver_config,
    build_parser,
    main,
)
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.monotonicity import DEFAULT_TOL
from quasieq.oracles import AffineFractionalInstance
from quasieq.serialize import TRACE_HEADER, parse_instance_file, write_instance_file
from quasieq.sets import BoxSet
from quasieq.solver import SolverConfig

CHECKOUT = Path(__file__).resolve().parents[1]


def _child_env():
    """Environment for a child interpreter, with the checkout's src first
    on its path so that the package imports without an install."""
    path = [str(CHECKOUT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


@pytest.fixture
def e1_file(e1, tmp_path):
    path = tmp_path / "e1.json"
    write_instance_file(e1, path)
    return str(path)


@pytest.fixture
def infinite_d_file(e1_file, tmp_path):
    """e1 with "d": Infinity, which JSON parsers accept."""
    data = json.loads(Path(e1_file).read_text())
    data["d"] = float("inf")
    path = tmp_path / "infinite_d.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestSolve:
    def test_solve_reports_status(self, e1_file, capsys):
        assert main(["solve", "--instance", e1_file]) == EXIT_OK
        keys = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == ["status", "iterations", "elapsed_seconds", "final_residual", "x_final"]

    def test_solve_ng1(self, e1_file, capsys):
        assert main(["solve", "--instance", e1_file, "--variant", "ng1"]) == EXIT_OK
        assert "status:" in capsys.readouterr().out

    def test_solve_writes_trace(self, e1_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code = main([
            "solve", "--instance", e1_file, "--scale", "0.5",
            "--trace", str(trace_path),
        ])
        assert code == EXIT_OK
        with open(trace_path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == TRACE_HEADER
            rows = list(reader)
        assert rows  # the run from the center takes at least one step
        assert rows[0]["k"] == "0"

    def test_starved_run_exits_nonzero(self, e1_file, capsys):
        # one tiny step leaves a large residual, so the run fails
        code = main([
            "solve", "--instance", e1_file, "--variant", "ng1",
            "--max-iter", "1", "--scale", "0.001",
        ])
        assert code == EXIT_SOLVE_FAILURE

    def test_step_below_tol_with_large_residual_exits_nonzero(self, e1_file, capsys):
        # ng1 stops after one 1e-5 step at x = 1.99999, where the residual
        # is about 0.67: a short step is not a solution
        code = main([
            "solve", "--instance", e1_file, "--variant", "ng1", "--scale", "1e-5",
        ])
        out = capsys.readouterr().out
        assert "status: step-below-tol" in out
        assert code == EXIT_SOLVE_FAILURE

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", "--instance", str(tmp_path / "nope.json")])
        assert code == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["solve", "--instance", str(path)]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("n", [1.7, "1", True])
    def test_non_integer_n_is_an_input_error(self, e1_file, n, tmp_path, capsys):
        data = json.loads(Path(e1_file).read_text())
        data["n"] = n
        path = tmp_path / "bad_n.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--instance", str(path)]) == EXIT_INPUT_ERROR
        assert "field 'n' must be an integer" in capsys.readouterr().err

    def test_infinite_d_is_an_input_error(self, infinite_d_file, capsys):
        code = main(["solve", "--instance", infinite_d_file])
        assert code == EXIT_INPUT_ERROR
        assert "d must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--scale", "inf"), ("--scale", "nan"), ("--tol-success", "inf"),
    ])
    def test_non_finite_option_is_an_input_error(self, e1_file, option, value, capsys):
        code = main(["solve", "--instance", e1_file, option, value])
        assert code == EXIT_INPUT_ERROR
        assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("name, value", [
    ("b", {"a": 1}), ("A", [[1.0], [2.0, 3.0]]), ("c", ["one"]),
], ids=["object", "ragged", "text"])
def test_unconvertible_array_field_is_an_input_error(e1_file, tmp_path, capsys,
                                                     command, name, value):
    data = json.loads(Path(e1_file).read_text())
    data[name] = value
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(data))
    assert main([command, "--instance", str(path)]) == EXIT_INPUT_ERROR
    assert f"error: field '{name}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("name, value", [
    ("b", ["0.5", True]), ("A", [[True, 0.0], [0.0, 1.0]]), ("b", [float("nan"), 1.0]),
    ("d", float("nan")), ("box_low", -float("inf")), ("d", 10**400), ("b", [10**400, 1.0]),
], ids=["text-and-bool", "bool-entry", "nan-entry", "nan-d", "infinite-box-low",
        "huge-int-d", "huge-int-entry"])
def test_field_that_is_not_a_finite_number_is_an_input_error(tmp_path, capsys, command,
                                                             name, value):
    path = tmp_path / "e2.json"
    write_instance_file(generate_instances(GeneratorConfig(n=2, count=1, seed=7))[0], path)
    data = json.loads(path.read_text())
    data[name] = value
    path.write_text(json.dumps(data))  # NaN and Infinity, which json reads back
    assert main([command, "--instance", str(path)]) == EXIT_INPUT_ERROR
    assert f"error: field '{name}'" in capsys.readouterr().err


class TestBench:
    def test_bench_prints_table(self, capsys):
        code = main(["bench", "--sizes", "2", "--count", "2", "--seed", "7"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "n_success" in out
        assert "variant=ng2" in out

    def test_bench_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        code = main([
            "bench", "--sizes", "2,3", "--count", "2", "--seed", "7",
            "--csv", str(csv_path),
        ])
        assert code == EXIT_OK
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("n,")
        assert len(lines) == 3

    def test_bench_bad_sizes(self, capsys):
        code = main(["bench", "--sizes", "two,three", "--count", "1"])
        assert code == EXIT_INPUT_ERROR


class TestCheck:
    def test_paramonotone_verdict_true(self, e1_file, capsys):
        assert main(["check", "--instance", e1_file]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True

    def test_paramonotone_verdict_false(self, tmp_path, capsys):
        inst = AffineFractionalInstance(
            A=[[1.0]], b=[0.0], A1=[[-1.0]], b1=[0.0], c=[0.0], d=1.0,
            box=BoxSet.uniform(1, 1.0, 3.0),
        )
        path = tmp_path / "neg.json"
        write_instance_file(inst, path)
        assert main(["check", "--instance", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is False
        assert payload["min_eigenvalue"] == pytest.approx(-1.0)

    def test_infinite_d_is_an_input_error(self, infinite_d_file, capsys):
        code = main(["check", "--instance", infinite_d_file])
        assert code == EXIT_INPUT_ERROR
        assert "d must be finite" in capsys.readouterr().err

    def test_infinite_tol_is_an_input_error(self, e1_file, capsys):
        code = main(["check", "--instance", e1_file, "--tol", "inf"])
        assert code == EXIT_INPUT_ERROR
        assert "positive and finite" in capsys.readouterr().err


class TestGen:
    def test_gen_writes_parseable_files(self, tmp_path, capsys):
        out_dir = tmp_path / "batch"
        code = main([
            "gen", "--n", "2", "--count", "3", "--seed", "7",
            "--out", str(out_dir),
        ])
        assert code == EXIT_OK
        files = sorted(out_dir.glob("instance_*.json"))
        assert len(files) == 3
        parsed = parse_instance_file(files[0])
        expected = generate_instances(GeneratorConfig(n=2, count=3, seed=7))[0]
        np.testing.assert_array_equal(parsed.A, expected.A)
        assert parsed.d == expected.d

    def test_gen_respects_filter(self, tmp_path):
        out_dir = tmp_path / "filtered"
        code = main([
            "gen", "--n", "2", "--count", "2", "--seed", "11",
            "--out", str(out_dir), "--require-paramonotone",
        ])
        assert code == EXIT_OK
        from quasieq.monotonicity import check_paramonotone

        for path in out_dir.glob("instance_*.json"):
            assert check_paramonotone(parse_instance_file(path)).verdict

    def test_gen_bad_dimension(self, tmp_path, capsys):
        code = main([
            "gen", "--n", "0", "--count", "1", "--seed", "1",
            "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_gen_seed_outside_64_bits(self, tmp_path, capsys, seed):
        # reduced mod 2**64, it would write the instances of another seed
        out_dir = tmp_path / "x"
        code = main(["gen", "--n", "2", "--count", "1", "--seed", seed, "--out", str(out_dir)])
        assert code == EXIT_INPUT_ERROR
        assert "seed in [0, 2**64)" in capsys.readouterr().err
        assert not out_dir.exists()


def test_option_defaults_are_the_config_defaults():
    parser = build_parser()
    args = parser.parse_args(["solve", "--instance", "x.json"])
    assert _solver_config(args) == SolverConfig(trace_keep=0)
    args = parser.parse_args(["check", "--instance", "x.json"])
    assert args.tol == DEFAULT_TOL
    args = parser.parse_args(["gen", "--n", "2", "--count", "1", "--seed", "1",
                              "--out", "x"])
    assert (args.box_low, args.box_high) == (
        GeneratorConfig.box_low, GeneratorConfig.box_high)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quasieq", "--help"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout

    def test_console_script(self):
        # Run the [project.scripts] declaration the way an installer's
        # generated wrapper does, so an uninstalled checkout checks it too.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = CHECKOUT / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["quasieq"]
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            "ep = EntryPoint(name='quasieq', value=sys.argv[1],"
            " group='console_scripts')\n"
            "sys.argv[:] = ['quasieq', '--help']\n"
            "sys.exit(ep.load()())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, target],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: quasieq")
        assert "solve" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("quasieq") is None,
        reason="no installed quasieq executable on PATH",
    )
    def test_installed_executable(self):
        proc = subprocess.run(
            ["quasieq", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0


def _readme_commands():
    """Every line of the ```sh blocks under README's "## Command line",
    split out as CI's README job splits them, minus comments and blanks."""
    text = (CHECKOUT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def test_readme_examples_exit_zero(tmp_path, monkeypatch):
    # run in order, as a shell would: later examples read files earlier ones write
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands
    for line in commands:
        program, *argv = shlex.split(line)
        assert program == "quasieq", line
        assert main(argv) == EXIT_OK, line
