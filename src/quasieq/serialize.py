"""File formats: instance JSON, iteration-trace CSV, benchmark CSV.

All floats are written with 17 significant digits so parsing recovers
them bit-exactly.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import DomainError, InputError, InstanceFormatError
from .linalg import as_real, is_integer
from .oracles import AffineFractionalInstance
from .sets import BoxSet

_INSTANCE_FIELDS = ("n", "A", "b", "A1", "b1", "c", "d", "box_low", "box_high")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def instance_to_dict(inst: AffineFractionalInstance) -> dict:
    box = inst.box
    lo, hi = float(box.lo[0]), float(box.hi[0])
    if np.any(box.lo != lo) or np.any(box.hi != hi):
        raise InstanceFormatError(
            "instance files only support uniform boxes", field="box_low"
        )
    return {
        "n": inst.dim,
        "A": inst.A.tolist(),
        "b": inst.b.tolist(),
        "A1": inst.A1.tolist(),
        "b1": inst.b1.tolist(),
        "c": inst.c.tolist(),
        "d": inst.d,
        "box_low": lo,
        "box_high": hi,
    }


def instance_from_dict(data: dict) -> AffineFractionalInstance:
    """An instance from an instance file's fields.  Only the format's own
    rules are checked here (every field, an integer n >= 1, finite box
    bounds with box_low < box_high); the constructor checks the rest, and
    every error is raised as InstanceFormatError naming its field."""
    for name in _INSTANCE_FIELDS:
        if name not in data:
            raise InstanceFormatError(f"missing field {name!r}", field=name)
    n = data["n"]
    if not is_integer(n):
        raise InstanceFormatError("field 'n' must be an integer", field="n")
    if n < 1:
        raise InstanceFormatError("field 'n' must be at least 1", field="n")
    try:
        box_low, box_high = (as_real(data[k], k) for k in ("box_low", "box_high"))
        if not box_low < box_high:
            raise InputError("box_low must be below box_high", field="box_low")
        return AffineFractionalInstance(
            A=data["A"], b=data["b"], A1=data["A1"], b1=data["b1"], c=data["c"],
            d=data["d"], box=BoxSet.uniform(n, box_low, box_high),
        )
    except DomainError as exc:
        raise InstanceFormatError(
            f"denominator is not positive over the box: {exc}", field="c"
        ) from exc
    except InputError as exc:
        raise InstanceFormatError(f"field {exc.field!r}: {exc}", field=exc.field) from exc


def parse_instance_file(path) -> AffineFractionalInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    return instance_from_dict(data)


def write_instance_file(inst: AffineFractionalInstance, path) -> None:
    data = instance_to_dict(inst)  # before the file exists, which it may reject
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


TRACE_HEADER = ("k", "alpha", "step_norm", "g_raw_norm", "residual")


def write_trace_csv(report, path) -> None:
    """One row per iteration record; residual empty when not evaluated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in report.trace:
            writer.writerow([
                rec.k,
                _fmt(rec.alpha),
                _fmt(rec.step_norm),
                _fmt(rec.g_raw_norm),
                "" if rec.residual is None else _fmt(rec.residual),
            ])


def write_benchmark_csv(report, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "n_prob", "n_success", "n_failed",
                         "mean_time_seconds", "mean_error"])
        for row in report.rows:
            writer.writerow([
                row.n, row.n_prob, row.n_success, row.n_failed,
                _fmt(row.mean_time_seconds), _fmt(row.mean_error),
            ])


def paramonotonicity_report_to_dict(report) -> dict:
    return {
        "a_hat": report.a_hat.tolist(),
        "a_hat_sym": report.a_hat_sym.tolist(),
        "min_eigenvalue": report.min_eigenvalue,
        "rank_sym": report.rank_sym,
        "rank_a_hat": report.rank_a_hat,
        "verdict": report.verdict,
        "tol": report.tol,
    }
