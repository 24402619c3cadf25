import json

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
    read_trace_csv,
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

    def test_bad_n(self, e1):
        data = instance_to_dict(e1)
        data["n"] = 0
        with pytest.raises(InstanceFormatError) as err:
            instance_from_dict(data)
        assert err.value.field == "n"

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

    def test_non_uniform_box_rejected_on_write(self):
        box = BoxSet([1.0, 0.0], [3.0, 3.0])
        inst = AffineFractionalInstance(
            A=np.eye(2), b=np.zeros(2), A1=np.eye(2), b1=np.zeros(2),
            c=np.zeros(2), d=1.0, box=box,
        )
        with pytest.raises(InstanceFormatError):
            instance_to_dict(inst)


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
        rows = read_trace_csv(path)
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
        for row in read_trace_csv(path):
            assert row["residual"] is None

    def test_empty_trace_gives_header_only(self, t1, tmp_path):
        cfg = SolverConfig(variant="ng1", scale=1.0)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([2.0])
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        assert path.read_text().splitlines() == [",".join(TRACE_HEADER)]

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InstanceFormatError):
            read_trace_csv(path)


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


class TestReportDict:
    def test_json_serializable(self, e1):
        payload = paramonotonicity_report_to_dict(check_paramonotone(e1))
        text = json.dumps(payload)
        again = json.loads(text)
        assert again["verdict"] == payload["verdict"]
        assert again["rank_sym"] == payload["rank_sym"]
