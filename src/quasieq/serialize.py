"""File formats: instance JSON, iteration-trace CSV, benchmark CSV and
certificate JSON, each written from its one list of fields.  CSV floats
carry 17 significant digits and JSON floats Python's shortest repr, so
parsing recovers them bit-exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np

from .bench import COLUMNS
from .errors import DomainError, InputError, InstanceFormatError
from .linalg import as_real, as_vector, is_integer
from .oracles import AffineFractionalInstance
from .sets import BoxSet

_INSTANCE_FIELDS = ("n", "A", "b", "A1", "b1", "c", "d", "box_low", "box_high")


def _cell(x) -> str:
    """A CSV cell: an integer as is, a float with 17 digits, None empty."""
    return "" if x is None else str(x) if is_integer(x) else format(float(x), ".17g")


def _write_csv(path, header, records) -> None:
    """The header, then one row per record of its attributes named there."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(getattr(rec, name)) for name in header] for rec in records)


def _plain(value):
    """A JSON value: an array as nested lists, anything else as is."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def instance_to_dict(inst: AffineFractionalInstance) -> dict:
    box = inst.box
    lo, hi = float(box.lo[0]), float(box.hi[0])
    if np.any(box.lo != lo) or np.any(box.hi != hi):
        raise InstanceFormatError(
            "instance files only support uniform boxes", field="box_low"
        )
    given = {"n": inst.dim, "box_low": lo, "box_high": hi}
    return {name: _plain(given[name] if name in given else getattr(inst, name))
            for name in _INSTANCE_FIELDS}


def instance_from_dict(data: dict) -> AffineFractionalInstance:
    """An instance from an instance file's fields.  Only the format's own
    rules are checked here (every field, an integer n >= 1 equal to the
    size of b, before any array of size n is made, and finite box bounds
    with box_low < box_high); the constructor checks the rest, and every
    error is raised as InstanceFormatError naming its field."""
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
        b = as_vector(data["b"], "b")
        if b.size != n:
            raise InputError(f"n is {n}, but b has {b.size} entries", field="n")
        return AffineFractionalInstance(
            A=data["A"], b=b, A1=data["A1"], b1=data["b1"], c=data["c"],
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
    _write_csv(path, TRACE_HEADER, report.trace)


def write_benchmark_csv(report, path) -> None:
    _write_csv(path, [name for name, *_ in COLUMNS], report.rows)


def paramonotonicity_report_to_dict(report) -> dict:
    return {f.name: _plain(getattr(report, f.name)) for f in dataclasses.fields(report)}
