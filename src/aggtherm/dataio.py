"""CSV dataset ingestion/writing and report serialization.

Dataset CSV contract: header
``timestamp,outdoor_c,solar_kw,zone1_temp_c,zone1_load_kw,...,zoneK_temp_c,zoneK_load_kw``,
UTF-8, comma-separated, timestamps strictly increasing at a fixed interval,
no missing cells.  The first M rows are lag history.

All floating-point report output (JSON and CSV) is serialized with 17
significant digits so results round-trip exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields, is_dataclass
from datetime import datetime, timedelta

import numpy as np

from .model import ClusterDataset

__all__ = [
    "parse_dataset", "write_dataset", "format_float", "dumps_json", "dumps_json_line", "dump_json",
]


class DataFormatError(ValueError):
    """Malformed dataset file (bad header, gap, NaN cell, ...)."""


def _zone_columns(K: int):
    cols = []
    for i in range(1, K + 1):
        cols += [f"zone{i}_temp_c", f"zone{i}_load_kw"]
    return cols


def write_dataset(path, dataset: ClusterDataset, start: datetime | None = None):
    """Write a cluster dataset to the CSV contract, lag history rows first."""
    if start is None:
        start = datetime(2020, 1, 1)
    step = timedelta(minutes=dataset.dt_minutes)
    header = ["timestamp", "outdoor_c", "solar_kw"] + _zone_columns(dataset.K)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in range(dataset.T + dataset.M):
            row = [
                (start + r * step).isoformat(),
                format_float(dataset.tau_out[r]),
                format_float(dataset.h_rad[r]),
            ]
            for i in range(dataset.K):
                row.append(format_float(dataset.tau_in[r, i]))
                row.append(format_float(dataset.h_load[r, i]))
            writer.writerow(row)


def parse_dataset(path, M: int) -> ClusterDataset:
    """Read and validate a dataset CSV; the first M rows become lag history.

    Raises DataFormatError naming the offending line for malformed headers,
    missing cells, unparsable or non-monotonic timestamps, and sampling gaps.
    """
    if M < 1:
        raise DataFormatError(f"{path}: model order M must be >= 1, got {M}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header[:3] != ["timestamp", "outdoor_c", "solar_kw"]:
            raise DataFormatError(
                f"{path}: header must start with timestamp,outdoor_c,solar_kw, got {header[:3]}"
            )
        zone_cols = header[3:]
        if len(zone_cols) == 0 or len(zone_cols) % 2 != 0:
            raise DataFormatError(f"{path}: expected zoneN_temp_c/zoneN_load_kw column pairs")
        K = len(zone_cols) // 2
        if zone_cols != _zone_columns(K):
            raise DataFormatError(f"{path}: zone columns must be {_zone_columns(K)}, got {zone_cols}")

        stamps, values = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                stamps.append(datetime.fromisoformat(row[0].strip()))
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad timestamp {row[0]!r}") from None
            vals = []
            for col, cell in zip(header[1:], row[1:]):
                cell = cell.strip()
                if cell == "":
                    raise DataFormatError(f"{path}:{lineno}: missing value in column {col}")
                try:
                    v = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: non-numeric value {cell!r} in column {col}"
                    ) from None
                if not np.isfinite(v):
                    raise DataFormatError(f"{path}:{lineno}: non-finite value in column {col}")
                vals.append(v)
            values.append(vals)

    if len(values) < M + 1:
        raise DataFormatError(f"{path}: needs at least M+1={M + 1} rows, got {len(values)}")
    step = stamps[1] - stamps[0]
    if step <= timedelta(0):
        raise DataFormatError(f"{path}:3: timestamps not strictly increasing")
    for r in range(1, len(stamps)):
        if stamps[r] - stamps[r - 1] != step:
            raise DataFormatError(
                f"{path}:{r + 2}: irregular sampling (gap or non-monotonic timestamp); "
                f"expected interval {step}"
            )

    arr = np.asarray(values, dtype=float)
    return ClusterDataset(
        K=K,
        T=len(values) - M,
        M=M,
        dt_minutes=step.total_seconds() / 60.0,
        tau_in=arr[:, 2::2].copy(),
        h_load=arr[:, 3::2].copy(),
        tau_out=arr[:, 0].copy(),
        h_rad=arr[:, 1].copy(),
    )


def format_float(x) -> str:
    """17-significant-digit text form of a float (exact round-trip)."""
    return format(float(x), ".17g")


# JSON spellings of the non-finite floats, which Python's json module reads back
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _write_json(obj, out: io.StringIO, indent: int | None):
    """Write ``obj`` with its object members indented by ``indent`` + 2
    spaces; with ``indent`` None every object stays on one line."""
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        if indent is None:
            out.write("{")
            for n, (k, v) in enumerate(obj.items()):
                out.write(f'"{k}": ' if n == 0 else f', "{k}": ')
                _write_json(v, out, None)
            out.write("}")
            return
        pad = " " * indent
        out.write("{\n")
        for n, (k, v) in enumerate(obj.items()):
            out.write(pad + "  " + f'"{k}": ')
            _write_json(v, out, indent + 2)
            out.write(",\n" if n < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.write("[]")
            return
        out.write("[")
        for n, v in enumerate(obj):
            _write_json(v, out, indent)
            if n < len(obj) - 1:
                out.write(", ")
        out.write("]")
    elif isinstance(obj, bool) or obj is None:
        out.write("true" if obj is True else "false" if obj is False else "null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        text = format_float(obj)
        out.write(_JSON_NONFINITE.get(text, text))
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), out, indent)
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps_json(obj) -> str:
    """JSON text with every float at 17 significant digits; non-finite
    floats are written as ``Infinity``, ``-Infinity`` and ``NaN``.  A
    dataclass instance is written as an object of its fields in declaration
    order, arrays and tuples as lists."""
    out = io.StringIO()
    _write_json(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def dumps_json_line(obj) -> str:
    """``dumps_json``'s text on one line, a JSON Lines record."""
    out = io.StringIO()
    _write_json(obj, out, None)
    out.write("\n")
    return out.getvalue()


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))
