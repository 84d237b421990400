import json

import numpy as np
import pytest

from wise.errors import InvalidValue, ShapeMismatch
from wise.io import (
    load_matrix_jsonl,
    load_vector_csv,
    write_csv,
    write_matrix_jsonl,
    write_pgm,
)


class TestVectorCsv:
    def test_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "series.csv")
        data = np.random.default_rng(0).standard_normal((7, 3))
        write_csv(path, data)
        assert np.array_equal(load_vector_csv(path), data)

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        assert np.array_equal(load_vector_csv(str(path)), [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n", encoding="utf-8")
        assert load_vector_csv(str(path)).shape == (2, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(ShapeMismatch):
            load_vector_csv(str(path))

    def test_non_numeric_data_row_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0,2.0\n3.0,oops\n", encoding="utf-8")
        with pytest.raises(InvalidValue):
            load_vector_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InvalidValue):
            load_vector_csv(str(path))

    def test_writer_requires_two_dimensions(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_csv(str(tmp_path / "bad.csv"), np.zeros(5))

    def test_a_byte_order_mark_is_read_as_no_data(self, tmp_path):
        # spreadsheet programs begin a UTF-8 CSV with one; its first row is data
        text = "1.0,2.0\n3.0,4.0\n5.0,6.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_vector_csv(str(marked)).tobytes() == load_vector_csv(str(plain)).tobytes()


class TestMatrixJsonl:
    def test_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "series.jsonl")
        data = np.random.default_rng(1).standard_normal((4, 3, 5))
        write_matrix_jsonl(path, data)
        assert np.array_equal(load_matrix_jsonl(path), data)

    def test_records_sorted_by_time_index(self, tmp_path):
        path = tmp_path / "series.jsonl"
        lines = [
            {"t": 1, "rows": 1, "cols": 2, "data": [3.0, 4.0]},
            {"t": 0, "rows": 1, "cols": 2, "data": [1.0, 2.0]},
        ]
        path.write_text("\n".join(json.dumps(o) for o in lines) + "\n", encoding="utf-8")
        out = load_matrix_jsonl(str(path))
        assert np.array_equal(out, [[[1.0, 2.0]], [[3.0, 4.0]]])

    def test_inconsistent_shapes_rejected(self, tmp_path):
        path = tmp_path / "series.jsonl"
        lines = [
            {"t": 0, "rows": 1, "cols": 2, "data": [1.0, 2.0]},
            {"t": 1, "rows": 2, "cols": 1, "data": [3.0, 4.0]},
        ]
        path.write_text("\n".join(json.dumps(o) for o in lines) + "\n", encoding="utf-8")
        with pytest.raises(ShapeMismatch):
            load_matrix_jsonl(str(path))

    def test_wrong_payload_length_rejected(self, tmp_path):
        path = tmp_path / "series.jsonl"
        path.write_text(json.dumps({"t": 0, "rows": 2, "cols": 2, "data": [1.0]}) + "\n")
        with pytest.raises(ShapeMismatch):
            load_matrix_jsonl(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "series.jsonl"
        path.write_text(json.dumps({"t": 0, "rows": 1, "data": [1.0]}) + "\n")
        with pytest.raises(InvalidValue):
            load_matrix_jsonl(str(path))

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "series.jsonl"
        path.write_text('{"t": 0,\n', encoding="utf-8")
        with pytest.raises(InvalidValue):
            load_matrix_jsonl(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "series.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InvalidValue):
            load_matrix_jsonl(str(path))

    def test_a_byte_order_mark_is_read_as_no_data(self, tmp_path):
        data = np.random.default_rng(2).standard_normal((3, 2, 2))
        write_matrix_jsonl(str(tmp_path / "plain.jsonl"), data)
        marked = tmp_path / "marked.jsonl"
        marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.jsonl").read_bytes())
        assert np.array_equal(load_matrix_jsonl(str(marked)), data)

    @pytest.mark.parametrize(
        "records, error, match",
        [
            # 0.9 and 0.2 would both read as t = 0
            ([{"t": 0.9}, {"t": 0.2}], InvalidValue, ":1: bad record"),
            ([{"t": "1"}], InvalidValue, ":1: bad record"),
            ([{}, {"rows": 2.0, "cols": 0.5}], InvalidValue, ":2: bad record"),
            ([{}, {"rows": True}], InvalidValue, ":2: bad record"),
            # -2 x -3 holds 6 values, and numpy reshapes to neither
            ([{}, {"rows": -2, "cols": -3, "data": [1.0] * 6}], ShapeMismatch, ":2: -2x-3 record"),
            ([{"rows": 0, "cols": 0, "data": []}], ShapeMismatch, ":1: 0x0 record"),
            ([{}, {"t": 1}, {"t": 0}], InvalidValue, ":3: t=0 repeats"),
            ([{}, {"data": [1.0, "2"]}], InvalidValue, ":2: bad record"),
            ([{"data": [1.0, 10**400]}], InvalidValue, ":1: bad record"),
            ([{"data": [[1.0], [2.0]]}], InvalidValue, ":1: bad record"),
            ([{"data": {"a": 1.0, "b": 2.0}}], InvalidValue, ":1: bad record"),
        ],
        ids=["fractional t", "t as text", "fractional size", "size as bool", "negative size",
             "empty", "repeated t", "value as text", "value past float", "nested values", "values as object"],
    )
    def test_a_record_field_of_the_wrong_kind_is_refused(self, tmp_path, records, error, match):
        path = tmp_path / "series.jsonl"
        lines = [{"t": t, "rows": 1, "cols": 2, "data": [1.0, 2.0], **r} for t, r in enumerate(records)]
        path.write_text("\n".join(json.dumps(o) for o in lines) + "\n", encoding="utf-8")
        with pytest.raises(error, match=match):
            load_matrix_jsonl(str(path))

    def test_writer_requires_three_dimensions(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_matrix_jsonl(str(tmp_path / "bad.jsonl"), np.zeros((3, 3)))


class TestHeatmapOutputs:
    def test_matrix_csv_values(self, tmp_path):
        path = tmp_path / "heat.csv"
        write_csv(str(path), np.array([[0.5, 1.5], [2.5, -1.0]]))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert [[float(v) for v in line.split(",")] for line in lines] == [
            [0.5, 1.5],
            [2.5, -1.0],
        ]

    def test_pgm_layout_and_scaling(self, tmp_path):
        path = tmp_path / "heat.pgm"
        write_pgm(str(path), np.array([[0.0, 1.0], [2.0, 4.0]]))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        vals = [int(v) for line in lines[3:] for v in line.split()]
        assert vals == [0, 64, 128, 255]

    def test_pgm_constant_matrix_is_black(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(str(path), np.full((2, 3), 7.0))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        vals = [int(v) for line in lines[3:] for v in line.split()]
        assert vals == [0] * 6

    def test_pgm_range_always_within_bounds(self, tmp_path):
        path = tmp_path / "rand.pgm"
        write_pgm(str(path), np.random.default_rng(3).standard_normal((5, 4)))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        vals = [int(v) for line in lines[3:] for v in line.split()]
        assert len(vals) == 20
        assert min(vals) == 0 and max(vals) == 255

    def test_pgm_requires_two_dimensions(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_pgm(str(tmp_path / "bad.pgm"), np.zeros(4))
