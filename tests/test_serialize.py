import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from quasieq.errors import InstanceFormatError
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.monotonicity import check_paramonotone
from quasieq.oracles import AffineFractionalInstance, AffineFractionalOracle
from quasieq.serialize import (
    TRACE_HEADER,
    instance_from_dict,
    instance_to_dict,
    paramonotonicity_report_to_dict,
    parse_instance_file,
    write_benchmark_csv,
    write_instance_file,
    write_trace_csv,
)
from quasieq.sets import BoxSet
from quasieq.solver import SolverConfig, normal_subgradient_solve


class TestInstanceJSON:
    def test_dict_round_trip_is_bit_exact(self, e1):
        again = instance_from_dict(instance_to_dict(e1))
        np.testing.assert_array_equal(again.A, e1.A)
        np.testing.assert_array_equal(again.c, e1.c)
        assert again.d == e1.d

    def test_file_round_trip_on_generated_instances(self, tmp_path):
        for i, inst in enumerate(
            generate_instances(GeneratorConfig(n=3, count=3, seed=404))
        ):
            path = tmp_path / f"inst_{i}.json"
            write_instance_file(inst, path)
            again = parse_instance_file(path)
            # entries carry 17 significant digits, so equality is exact
            np.testing.assert_array_equal(again.A, inst.A)
            np.testing.assert_array_equal(again.b, inst.b)
            np.testing.assert_array_equal(again.A1, inst.A1)
            np.testing.assert_array_equal(again.b1, inst.b1)
            np.testing.assert_array_equal(again.c, inst.c)
            assert again.d == inst.d
            np.testing.assert_array_equal(again.box.lo, inst.box.lo)

    def test_file_bytes(self, e1, tmp_path):
        path = tmp_path / "e1.json"
        write_instance_file(e1, path)
        assert path.read_bytes() == (
            b'{\n  "n": 1,\n  "A": [\n    [\n      2.0\n    ]\n  ],\n'
            b'  "b": [\n    0.0\n  ],\n  "A1": [\n    [\n      1.0\n    ]\n  ],\n'
            b'  "b1": [\n    0.0\n  ],\n  "c": [\n    1.0\n  ],\n  "d": 1.0,\n'
            b'  "box_low": 1.0,\n  "box_high": 3.0\n}\n'
        )

    def test_missing_field_is_named(self, e1):
        data = instance_to_dict(e1)
        del data["A1"]
        with pytest.raises(InstanceFormatError) as err:
            instance_from_dict(data)
        assert err.value.field == "A1"

    def test_shape_mismatch_is_named(self, e1):
        data = instance_to_dict(e1)
        data["A"] = [[1.0, 0.0]]
        with pytest.raises(InstanceFormatError) as err:
            instance_from_dict(data)
        assert err.value.field == "A"

    @pytest.mark.parametrize("name, value", [
        ("b", {"a": 1}), ("A", [[1.0], [2.0, 3.0]]), ("A1", "identity"),
        ("c", ["one"]),
    ], ids=["object", "ragged", "text", "text-entry"])
    def test_unconvertible_array_is_named(self, e1, name, value):
        data = instance_to_dict(e1)
        data[name] = value
        with pytest.raises(InstanceFormatError) as err:
            instance_from_dict(data)
        assert err.value.field == name

    @pytest.mark.parametrize("name, value", [
        ("b", ["0.5", True]), ("A", [[True, 0.0], [0.0, 1.0]]), ("b", [math.nan, 1.0]),
        ("d", math.nan), ("box_low", -math.inf), ("d", 10**400), ("b", [10**400, 1.0]),
    ], ids=["text-and-bool", "bool-entry", "nan-entry", "nan-d", "infinite-box-low",
            "huge-int-d", "huge-int-entry"])
    def test_entry_that_is_not_a_finite_number_is_named(self, name, value):
        data = instance_to_dict(generate_instances(GeneratorConfig(n=2, count=1, seed=7))[0])
        data[name] = value
        with pytest.raises(InstanceFormatError) as err:
            instance_from_dict(data)
        assert err.value.field == name

    def test_bad_n(self, e1):
        # only a JSON integer is a dimension: 1.7, "1" and true are not
        for bad in (0, 1.7, "1", True):
            data = instance_to_dict(e1)
            data["n"] = bad
            with pytest.raises(InstanceFormatError) as err:
                instance_from_dict(data)
            assert err.value.field == "n"

    def test_n_is_checked_before_the_box_is_made(self, monkeypatch):
        # a box of n entries is made only once n is known to be b's size,
        # so an n far above the file's data costs no memory
        data = instance_to_dict(generate_instances(GeneratorConfig(n=2, count=1, seed=7))[0])
        data["n"] = 10**9
        uniform = BoxSet.uniform

        def guarded(n, lo, hi):
            assert n <= len(data["b"]), f"a box of {n} entries for a file that holds 2"
            return uniform(n, lo, hi)

        monkeypatch.setattr(BoxSet, "uniform", guarded)
        with pytest.raises(InstanceFormatError) as err:
            instance_from_dict(data)
        assert err.value.field == "n"
        assert str(err.value) == "field 'n': n is 1000000000, but b has 2 entries"

    def test_nonpositive_denominator_is_reported_on_c(self, e1):
        data = instance_to_dict(e1)
        data["c"] = [-1.0]
        data["d"] = 0.0
        with pytest.raises(InstanceFormatError) as err:
            instance_from_dict(data)
        assert err.value.field == "c"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError):
            parse_instance_file(path)

    def test_non_object_json_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InstanceFormatError):
            parse_instance_file(path)

    def test_rejected_write_leaves_no_file(self, tmp_path):
        inst = AffineFractionalInstance(
            A=np.eye(2), b=np.zeros(2), A1=np.eye(2), b1=np.zeros(2),
            c=np.zeros(2), d=1.0, box=BoxSet([1, 1], [3, 2]),
        )
        path = tmp_path / "uneven.json"
        with pytest.raises(InstanceFormatError):
            write_instance_file(inst, path)
        assert not path.exists()

    def test_non_uniform_box_rejected_on_write(self):
        box = BoxSet([1.0, 0.0], [3.0, 3.0])
        inst = AffineFractionalInstance(
            A=np.eye(2), b=np.zeros(2), A1=np.eye(2), b1=np.zeros(2),
            c=np.zeros(2), d=1.0, box=box,
        )
        with pytest.raises(InstanceFormatError):
            instance_to_dict(inst)


def _read_trace(path) -> list[dict]:
    """A trace CSV's rows, read back with csv.DictReader and float."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == TRACE_HEADER
        return [{name: None if value == "" else float(value) for name, value in row.items()}
                for row in reader]


class TestTraceCSV:
    def _report(self, t1, max_iter):
        cfg = SolverConfig(
            variant="ng2", scale=0.6, max_iter=max_iter
        )
        return normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
        )

    def test_two_record_run_gives_three_lines(self, t1, tmp_path):
        report = self._report(t1, max_iter=2)
        assert len(report.trace) == 2
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == ",".join(TRACE_HEADER)

    def test_round_trip_is_bit_exact(self, t1, tmp_path):
        report = self._report(t1, max_iter=7)
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        rows = _read_trace(path)
        assert len(rows) == len(report.trace)
        for row, rec in zip(rows, report.trace):
            assert row["k"] == rec.k
            assert row["alpha"] == rec.alpha
            assert row["step_norm"] == rec.step_norm
            assert row["g_raw_norm"] == rec.g_raw_norm
            assert row["residual"] == rec.residual

    def test_residual_column_empty_without_best_response_eval(self, t1, tmp_path):
        cfg = SolverConfig(variant="ng1", scale=0.6, max_iter=3)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        for row in _read_trace(path):
            assert row["residual"] is None

    @pytest.mark.parametrize("variant, residuals", [
        ("ng1", ("", "", "")),
        ("ng2", ("2", "0.55999999999999983", "0.10999999999999985")),
    ])
    def test_file_bytes(self, t1, tmp_path, variant, residuals):
        # ng1 evaluates no residual, so its cells are empty; ng2 fills them
        cfg = SolverConfig(variant=variant, scale=0.6, max_iter=3)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        rows = ("k,alpha,step_norm,g_raw_norm,residual",
                "0,0.59999999999999998,0.60000000000000009,1,",
                "1,0.29999999999999999,0.30000000000000004,0.39999999999999991,",
                "2,0.19999999999999998,0.19999999999999996,0.099999999999999867,")
        cells = ("",) + residuals
        assert path.read_bytes() == "".join(
            f"{row}{cell}\r\n" for row, cell in zip(rows, cells)
        ).encode()

    def test_empty_trace_gives_header_only(self, t1, tmp_path):
        cfg = SolverConfig(variant="ng1", scale=1.0)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([2.0])
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        assert path.read_text().splitlines() == [",".join(TRACE_HEADER)]


class TestBenchmarkCSV:
    def test_write(self, tmp_path):
        from quasieq.bench import BenchmarkReport, BenchmarkRow

        report = BenchmarkReport(
            variant="ng2", schedule_scale=100.0, seed=1,
            rows=(BenchmarkRow(5, 20, 18, 0.01, 2.5e-4, {"ConvergenceError": 1}),),
        )
        path = tmp_path / "bench.csv"
        write_benchmark_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,n_prob,n_success,n_failed,mean_time_seconds,mean_error"
        assert lines[1].startswith("5,20,18,1,")

    def test_file_bytes(self, bench_report, tmp_path):
        path = tmp_path / "bench.csv"
        write_benchmark_csv(bench_report, path)
        assert path.read_bytes() == (
            b"n,n_prob,n_success,n_failed,mean_time_seconds,mean_error\r\n"
            b"5,20,18,0,0.0012340000000000001,5.5999999999999999e-05\r\n"
            b"10,20,0,20,nan,nan\r\n"
            b"20,3,1,2,0.10000000000000001,-0\r\n"
        )


class TestReportDict:
    def test_json_serializable(self, e1):
        payload = paramonotonicity_report_to_dict(check_paramonotone(e1))
        text = json.dumps(payload)
        again = json.loads(text)
        assert again["verdict"] == payload["verdict"]
        assert again["rank_sym"] == payload["rank_sym"]

    def test_json_bytes(self, e1):
        payload = paramonotonicity_report_to_dict(check_paramonotone(e1))
        assert json.dumps(payload, indent=2) == (
            '{\n  "a_hat": [\n    [\n      2.0\n    ]\n  ],\n'
            '  "a_hat_sym": [\n    [\n      2.0\n    ]\n  ],\n'
            '  "min_eigenvalue": 2.0,\n  "rank_sym": 1,\n  "rank_a_hat": 1,\n'
            '  "verdict": true,\n  "tol": 2e-08\n}'
        )


def test_readme_states_each_format_list(e1, bench_report, tmp_path):
    # the instance fields, the trace header and the benchmark CSV header
    # that README's "File formats" section names are the ones written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    fields = re.search(r"Instance files are JSON objects with fields (.*?) \(", readme, re.S)
    assert re.findall(r"`(\w+)`", fields.group(1)) == list(instance_to_dict(e1))
    trace, bench = re.findall(r"have the header `([\w,]+)`", readme)
    assert trace == ",".join(TRACE_HEADER)
    path = tmp_path / "bench.csv"
    write_benchmark_csv(bench_report, path)
    assert bench == path.read_text().splitlines()[0]
