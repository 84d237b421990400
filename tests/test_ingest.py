from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from wise.errors import BadRange, InvalidValue
from wise.ingest import (
    TOKYO,
    CheckinRecord,
    GridConfig,
    IngestResult,
    ingest_checkins,
    read_checkin_csv,
)


def rec(ts: str, lat: float, lon: float) -> CheckinRecord:
    return CheckinRecord(datetime.fromisoformat(ts), lat, lon)


class TestGridConfig:
    def test_city_center_cell(self):
        assert GridConfig().cell(35.7, 139.5) == (10, 10)

    def test_lower_edges_open_cells(self):
        assert GridConfig().cell(35.5, 139.0) == (0, 0)

    def test_upper_edges_clamp_into_last_cell(self):
        grid = GridConfig()
        assert grid.cell(35.9, 139.5) == (19, 10)
        assert grid.cell(35.7, 140.0) == (10, 19)
        assert grid.cell(35.9, 140.0) == (19, 19)

    def test_outside_box_is_none(self):
        grid = GridConfig()
        assert grid.cell(36.2, 139.5) is None
        assert grid.cell(35.7, 138.9) is None
        assert grid.cell(35.49, 139.5) is None

    def test_custom_box(self):
        grid = GridConfig(lat_min=0.0, lat_max=1.0, lon_min=0.0, lon_max=2.0, rows=4, cols=8)
        assert grid.cell(0.5, 1.0) == (2, 4)
        assert grid.cell(0.999, 1.999) == (3, 7)

    def test_degenerate_boxes_rejected(self):
        with pytest.raises(InvalidValue, match="lat_min"):
            GridConfig(lat_min=35.9, lat_max=35.5)
        with pytest.raises(InvalidValue, match="lon_min"):
            GridConfig(lon_min=140.0, lon_max=139.0)
        with pytest.raises(InvalidValue, match="rows"):
            GridConfig(rows=0)

    @pytest.mark.parametrize("changes", [{"rows": 2.5}, {"rows": "3"}, {"cols": True}])
    def test_rows_and_cols_must_be_integers(self, changes):
        with pytest.raises(InvalidValue, match=next(iter(changes))):
            GridConfig(**changes)

    @pytest.mark.parametrize(
        "changes",
        [
            {"lat_min": "35"},
            {"lat_max": True},
            {"lon_min": float("nan")},
            {"lon_max": float("inf")},
            {"lat_min": -float("inf")},
            {"lon_min": None},
        ],
    )
    def test_box_bounds_must_be_finite_reals(self, changes):
        with pytest.raises(InvalidValue, match=next(iter(changes))):
            GridConfig(**changes)

    def test_box_bounds_take_any_real_type(self):
        grid = GridConfig(lat_min=np.float32(35.5), lat_max=36, lon_min=np.int64(139), lon_max=140.0)
        assert grid.cell(35.7, 139.5) == (8, 10)

    def test_rows_and_cols_take_any_integer_type(self):
        grid = GridConfig(rows=np.int64(2), cols=np.uint8(3))
        assert grid.cell(35.89, 139.99) == (1, 2)

    @pytest.mark.parametrize("field", ["lat", "lon"])
    @pytest.mark.parametrize("bad", ["35", True, None, float("nan"), float("inf"), -float("inf")])
    def test_record_coordinates_must_be_finite(self, field, bad):
        coords = {"lat": 35.7, "lon": 139.5, field: bad}
        with pytest.raises(InvalidValue, match=field):
            CheckinRecord(datetime(2012, 4, 3), **coords)

    @pytest.mark.parametrize("bad", ["2012-04-03", date(2012, 4, 3), None])
    def test_record_timestamp_must_be_a_datetime(self, bad):
        with pytest.raises(InvalidValue, match="timestamp"):
            CheckinRecord(bad, 35.7, 139.5)

    def test_record_coordinates_take_any_real_type(self):
        record = CheckinRecord(datetime(2012, 4, 3), np.float32(35.7), 139)
        assert ingest_checkins([record]).kept == 1


class TestIngest:
    def test_counts_partition_and_mass_is_conserved(self):
        rng = np.random.default_rng(0)
        records = [
            rec("2012-04-03T12:00:00", lat, lon)
            for lat, lon in zip(rng.uniform(35.5, 35.9, 200), rng.uniform(139.0, 140.0, 200))
        ]
        records += [rec("2012-04-03T12:00:00", 36.2, 139.5)] * 8
        result = ingest_checkins(records)
        assert isinstance(result, IngestResult)
        assert result.kept == 200
        assert result.dropped_outside_box == 8
        assert result.dropped_outside_range == 0
        assert result.total == 208
        assert result.series.kind == "matrix"
        assert float(result.series.data.sum()) == 200.0

    def test_single_record_lands_in_its_cell(self):
        result = ingest_checkins([rec("2012-04-03T12:00:00", 35.7, 139.5)])
        assert result.series.data.shape == (1, 20, 20)
        assert result.series.data[0, 10, 10] == 1.0
        assert result.series.data.sum() == 1.0
        assert result.days == (date(2012, 4, 3),)

    def test_missing_days_become_zero_matrices(self):
        records = [
            rec("2012-04-01T10:00:00", 35.7, 139.5),
            rec("2012-04-04T10:00:00", 35.6, 139.2),
        ]
        result = ingest_checkins(records)
        assert result.days == tuple(date(2012, 4, d) for d in (1, 2, 3, 4))
        assert result.series.data[1].sum() == 0.0
        assert result.series.data[2].sum() == 0.0
        assert result.series.data.sum() == 2.0

    def test_explicit_range_drops_and_counts_outliers(self):
        records = [
            rec("2012-03-28T10:00:00", 35.7, 139.5),
            rec("2012-04-02T10:00:00", 35.7, 139.5),
            rec("2012-04-09T10:00:00", 35.7, 139.5),
        ]
        result = ingest_checkins(records, start=date(2012, 4, 1), end=date(2012, 4, 7))
        assert len(result.days) == 7
        assert result.kept == 1
        assert result.dropped_outside_range == 2
        assert result.total == 3

    def test_inverted_range_rejected(self):
        with pytest.raises(BadRange):
            ingest_checkins(
                [rec("2012-04-03T10:00:00", 35.7, 139.5)],
                start=date(2012, 4, 7),
                end=date(2012, 4, 1),
            )

    def test_records_must_be_checkin_records(self):
        with pytest.raises(InvalidValue, match="CheckinRecord"):
            ingest_checkins([(datetime(2012, 4, 3, 10), 35.7, 139.5)])

    def test_grid_must_be_a_grid_config(self):
        with pytest.raises(InvalidValue, match="GridConfig"):
            ingest_checkins([rec("2012-04-03T10:00:00", 35.7, 139.5)], grid={"rows": 2})

    @pytest.mark.parametrize("field", ["start", "end"])
    def test_range_ends_must_be_dates(self, field):
        with pytest.raises(InvalidValue, match=field):
            ingest_checkins([rec("2012-04-03T10:00:00", 35.7, 139.5)], **{field: "2012-04-03"})

    def test_no_usable_records_and_no_range(self):
        with pytest.raises(BadRange):
            ingest_checkins([rec("2012-04-03T10:00:00", 0.0, 0.0)])
        with pytest.raises(BadRange):
            ingest_checkins([])

    def test_naive_timestamps_are_local(self):
        result = ingest_checkins([rec("2012-04-03T23:30:00", 35.7, 139.5)])
        assert result.days == (date(2012, 4, 3),)

    def test_aware_timestamps_shift_into_target_zone(self):
        # 23:30 UTC is 08:30 next day in +09:00
        records = [
            CheckinRecord(
                datetime(2012, 4, 3, 23, 30, tzinfo=timezone.utc), 35.7, 139.5
            )
        ]
        assert ingest_checkins(records).days == (date(2012, 4, 4),)
        assert ingest_checkins(records, tz=timezone.utc).days == (date(2012, 4, 3),)

    def test_default_zone_is_plus_nine(self):
        assert TOKYO.utcoffset(None) == timedelta(hours=9)

    def test_custom_grid_shape_propagates(self):
        grid = GridConfig(rows=5, cols=7)
        result = ingest_checkins([rec("2012-04-03T10:00:00", 35.7, 139.5)], grid=grid)
        assert result.series.data.shape == (1, 5, 7)


class TestReadCheckinCsv:
    def write(self, tmp_path, text: str) -> str:
        path = tmp_path / "checkins.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_reads_rows_and_skips_header(self, tmp_path):
        path = self.write(
            tmp_path,
            "timestamp,lat,lon\n"
            "2012-04-03T12:00:00,35.7,139.5\n"
            "\n"
            "2012-04-03T15:00:00+09:00,35.6,139.2\n",
        )
        records = read_checkin_csv(path)
        assert len(records) == 2
        assert records[0].lat == 35.7
        assert records[0].timestamp.tzinfo is None
        assert records[1].timestamp.utcoffset() == timedelta(hours=9)

    @pytest.mark.parametrize("header", ["timestamp,lat,lon\n", ""], ids=["header", "no header"])
    def test_a_byte_order_mark_is_read_as_no_data(self, tmp_path, header):
        text = header + "2012-04-03T12:00:00,35.7,139.5\n2012-04-04T12:00:00,35.6,139.2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert read_checkin_csv(str(marked)) == read_checkin_csv(str(plain))
        assert len(read_checkin_csv(str(marked))) == 2

    def test_text_that_is_not_utf8_is_refused(self, tmp_path):
        path = tmp_path / "checkins.csv"
        path.write_text("timestamp,lat,lon\n2012-04-03T12:00:00,35.7,139.5\n", encoding="utf-16")
        with pytest.raises(InvalidValue, match="checkins.csv is not UTF-8 text"):
            read_checkin_csv(str(path))

    def test_headerless_file(self, tmp_path):
        path = self.write(tmp_path, "2012-04-03T12:00:00,35.7,139.5\n")
        assert len(read_checkin_csv(path)) == 1

    def test_zulu_suffix_means_utc(self, tmp_path):
        path = self.write(tmp_path, "2012-04-03T12:00:00Z,35.7,139.5\n")
        assert read_checkin_csv(path)[0].timestamp.utcoffset() == timedelta(0)

    def test_short_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "2012-04-03T12:00:00,35.7\n")
        with pytest.raises(InvalidValue):
            read_checkin_csv(path)

    def test_bad_timestamp_rejected(self, tmp_path):
        path = self.write(tmp_path, "yesterday,35.7,139.5\n")
        with pytest.raises(InvalidValue):
            read_checkin_csv(path)

    def test_non_numeric_coordinate_rejected(self, tmp_path):
        path = self.write(tmp_path, "2012-04-03T12:00:00,north,139.5\n")
        with pytest.raises(InvalidValue):
            read_checkin_csv(path)
