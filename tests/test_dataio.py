import json
from dataclasses import dataclass

import numpy as np
import pytest

from aggtherm.dataio import (
    DataFormatError,
    dumps_json,
    dumps_json_line,
    format_float,
    parse_dataset,
    write_dataset,
)

from _common import random_dataset


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


HEADER = "timestamp,outdoor_c,solar_kw,zone1_temp_c,zone1_load_kw"
ROWS = [
    "2020-01-01T00:00:00,5.0,0.0,20.0,2.0",
    "2020-01-01T00:30:00,5.1,0.0,20.1,2.1",
    "2020-01-01T01:00:00,5.2,0.1,20.2,2.2",
    "2020-01-01T01:30:00,5.3,0.1,20.3,2.3",
]


class TestParse:
    def test_roundtrip(self, tmp_path):
        ds = random_dataset(K=3, T=25, M=2, seed=0)
        path = tmp_path / "cluster.csv"
        write_dataset(path, ds)
        back = parse_dataset(path, M=2)
        assert back.K == 3 and back.T == 25 and back.M == 2
        assert back.dt_minutes == 30.0
        assert np.array_equal(back.tau_in, ds.tau_in)
        assert np.array_equal(back.h_load, ds.h_load)
        assert np.array_equal(back.tau_out, ds.tau_out)
        assert np.array_equal(back.h_rad, ds.h_rad)

    def test_single_zone_minimal(self, tmp_path):
        p = tmp_path / "one.csv"
        write_lines(p, [HEADER] + ROWS)
        ds = parse_dataset(p, M=1)
        assert ds.K == 1 and ds.T == 3

    def test_seven_zone_full_year_shape(self, tmp_path):
        ds = random_dataset(K=7, T=1440, M=2, seed=1)
        path = tmp_path / "seven.csv"
        write_dataset(path, ds)
        back = parse_dataset(path, M=2)
        assert back.K == 7 and back.T == 1440

    def test_multi_zone_header_order(self, tmp_path):
        p = tmp_path / "two.csv"
        write_lines(p, ["timestamp,outdoor_c,solar_kw,zone1_load_kw,zone1_temp_c"] + ROWS)
        with pytest.raises(DataFormatError, match="zone"):
            parse_dataset(p, M=1)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, ["time,outdoor_c,solar_kw,zone1_temp_c,zone1_load_kw"] + ROWS)
        with pytest.raises(DataFormatError, match="header"):
            parse_dataset(p, M=1)

    def test_missing_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "gap.csv"
        rows = list(ROWS)
        rows[2] = "2020-01-01T01:00:00,5.2,,20.2,2.2"
        write_lines(p, [HEADER] + rows)
        with pytest.raises(DataFormatError, match=r":4: missing value in column solar_kw"):
            parse_dataset(p, M=1)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "nan.csv"
        rows = list(ROWS)
        rows[1] = "2020-01-01T00:30:00,5.1,0.0,oops,2.1"
        write_lines(p, [HEADER] + rows)
        with pytest.raises(DataFormatError, match="zone1_temp_c"):
            parse_dataset(p, M=1)

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "nan2.csv"
        rows = list(ROWS)
        rows[1] = "2020-01-01T00:30:00,nan,0.0,20.1,2.1"
        write_lines(p, [HEADER] + rows)
        with pytest.raises(DataFormatError, match="non-finite"):
            parse_dataset(p, M=1)

    def test_time_gap_rejected_with_line(self, tmp_path):
        p = tmp_path / "skip.csv"
        rows = list(ROWS)
        rows[2] = "2020-01-01T01:30:00,5.2,0.1,20.2,2.2"
        rows[3] = "2020-01-01T02:00:00,5.3,0.1,20.3,2.3"
        write_lines(p, [HEADER] + rows)
        with pytest.raises(DataFormatError, match=":4"):
            parse_dataset(p, M=1)

    def test_non_monotonic_rejected(self, tmp_path):
        p = tmp_path / "mono.csv"
        rows = [ROWS[1], ROWS[0], ROWS[2], ROWS[3]]
        write_lines(p, [HEADER] + rows)
        with pytest.raises(DataFormatError):
            parse_dataset(p, M=1)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "short.csv"
        write_lines(p, [HEADER, ROWS[0]])
        with pytest.raises(DataFormatError, match="rows"):
            parse_dataset(p, M=1)

    def test_wrong_cell_count(self, tmp_path):
        p = tmp_path / "cells.csv"
        rows = list(ROWS)
        rows[1] = rows[1] + ",9.9"
        write_lines(p, [HEADER] + rows)
        with pytest.raises(DataFormatError, match="cells"):
            parse_dataset(p, M=1)


class TestReportFormat:
    def test_float_has_17_significant_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert float(format_float(np.pi)) == np.pi

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(format_float(x)) == x

    def test_json_valid_and_exact(self):
        obj = {
            "a": 0.1,
            "b": [1, 2.5e-13, True, None, "q\"uote"],
            "c": {"nested": np.array([1.0, 2.0])},
        }
        text = dumps_json(obj)
        back = json.loads(text)
        assert back["a"] == 0.1
        assert back["b"][1] == 2.5e-13
        assert back["b"][4] == 'q"uote'
        assert back["c"]["nested"] == [1.0, 2.0]

    def test_json_non_finite_round_trip(self):
        """A failed attack scenario reports an error of inf; the JSON stays
        readable and reads back to the same values."""
        obj = {"failed": float("inf"), "v": [-np.inf, np.float64(np.nan), 1e308 * 10, 0.5]}
        text = dumps_json(obj)
        assert "Infinity" in text and "NaN" in text
        back = json.loads(text)
        assert back["failed"] == float("inf")
        assert back["v"][0] == -float("inf") and np.isnan(back["v"][1])
        assert back["v"][2:] == [float("inf"), 0.5]

    def test_json_line_is_one_compact_line(self):
        """A JSON Lines record holds the same values as the indented text,
        on one line with no indent, nested objects included."""
        obj = {"seq": 0, "shape": (2, 3), "c": {"nested": np.array([1.0, np.inf])}, "e": {}}
        line = dumps_json_line(obj)
        assert line == '{"seq": 0, "shape": [2, 3], "c": {"nested": [1, Infinity]}, "e": {}}\n'
        assert json.loads(line) == json.loads(dumps_json(obj))

    def test_dataclass_is_its_fields_in_declaration_order(self):
        """A dataclass instance is written as the object of its fields in
        declaration order, nested ones too, with arrays and tuples as lists;
        a dataclass type is not an instance and is refused."""

        @dataclass
        class Inner:
            shape: tuple
            v: np.ndarray

        @dataclass
        class Outer:
            z: float
            inner: Inner
            rest: list

        obj = Outer(z=0.1, inner=Inner((2, 3), np.array([1.0, 2.0])), rest=[Inner((1,), np.zeros(0))])
        assert dumps_json(obj) == dumps_json(
            {"z": 0.1, "inner": {"shape": [2, 3], "v": [1.0, 2.0]}, "rest": [{"shape": [1], "v": []}]}
        )
        with pytest.raises(TypeError):
            dumps_json(Outer)
