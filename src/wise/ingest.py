"""Check-in logs to daily count-matrix series.

Each check-in is a (timestamp, latitude, longitude) triple. A rectangular
bounding box is divided into rows x cols equal cells; every calendar day in
the requested range becomes one count matrix (days without records give the
zero matrix), so the output is a matrix-kind series ready for the
Frobenius-distance test. Records outside the box are dropped and counted;
records on the upper boundary are clamped into the last cell.

Timestamps may carry their own UTC offset; naive ones are interpreted in
the target time zone (default +09:00). Day bucketing happens in that zone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ._grammar import Param, integer, real, validate
from .errors import BadRange, InvalidValue
from .io import _open_text
from .types import ObservationSeries

TOKYO = timezone(timedelta(hours=9))


def _timestamp(value) -> datetime:
    """A datetime as given; a string or a date is rejected."""
    if not isinstance(value, datetime):
        raise TypeError(f"not a datetime: {value!r}")
    return value


# a record's timestamp is a datetime and its coordinates finite reals; a
# grid's bounds are finite reals, and its rows and cols positive integers
_RECORD = (Param("timestamp", read=_timestamp), Param("lat", read=real), Param("lon", read=real))
_GRID = (
    *(Param(f, read=real) for f in ("lat_min", "lat_max", "lon_min", "lon_max")),
    Param("rows", read=integer, low=0),
    Param("cols", read=integer, low=0),
)


@dataclass(frozen=True)
class CheckinRecord:
    timestamp: datetime
    lat: float
    lon: float

    def __post_init__(self):
        validate(self, _RECORD, "check-in", InvalidValue)


@dataclass(frozen=True)
class GridConfig:
    """Bounding box and resolution; defaults cover central Tokyo."""

    lat_min: float = 35.5
    lat_max: float = 35.9
    lon_min: float = 139.0
    lon_max: float = 140.0
    rows: int = 20
    cols: int = 20

    def __post_init__(self):
        validate(self, _GRID, "grid", InvalidValue)
        if not self.lat_min < self.lat_max:
            raise InvalidValue("lat_min must be below lat_max")
        if not self.lon_min < self.lon_max:
            raise InvalidValue("lon_min must be below lon_max")

    def cell(self, lat: float, lon: float) -> Optional[Tuple[int, int]]:
        """Cell indices for a coordinate, or None when outside the box.

        Both upper edges are closed: the boundary maps into the last cell.
        """
        if not (self.lat_min <= lat <= self.lat_max):
            return None
        if not (self.lon_min <= lon <= self.lon_max):
            return None
        # scale to [0, rows] before truncating; dividing by a rounded cell
        # width instead would misplace exact interior boundaries (0.5 // 0.05
        # is 9 in binary floating point)
        row = int((lat - self.lat_min) / (self.lat_max - self.lat_min) * self.rows)
        col = int((lon - self.lon_min) / (self.lon_max - self.lon_min) * self.cols)
        return min(row, self.rows - 1), min(col, self.cols - 1)


@dataclass(frozen=True)
class IngestResult:
    series: ObservationSeries
    days: Tuple[date, ...]
    kept: int
    dropped_outside_box: int
    dropped_outside_range: int

    @property
    def total(self) -> int:
        return self.kept + self.dropped_outside_box + self.dropped_outside_range


def _local_day(ts: datetime, tz: timezone) -> date:
    if ts.tzinfo is None:
        return ts.date()  # naive stamps are already local time
    return ts.astimezone(tz).date()


def ingest_checkins(
    records: Iterable[CheckinRecord],
    grid: Optional[GridConfig] = None,
    start: Optional[date] = None,
    end: Optional[date] = None,
    tz: timezone = TOKYO,
) -> IngestResult:
    """Aggregate check-ins into one count matrix per calendar day.

    ``start`` and ``end`` are inclusive; omitted ends default to the first
    and last day observed among in-box records. Raises BadRange for an
    inverted or undeterminable range.
    """
    if grid is None:
        grid = GridConfig()
    elif not isinstance(grid, GridConfig):
        raise InvalidValue(f"grid must be a GridConfig, got {type(grid).__name__}")
    for name, day in (("start", start), ("end", end)):
        if day is not None and not isinstance(day, date):
            raise InvalidValue(f"{name} must be a date, got {type(day).__name__}")
    if start is not None and end is not None and end < start:
        raise BadRange(f"date range is inverted: {start} > {end}")

    binned: List[Tuple[date, int, int]] = []
    dropped_box = 0
    for rec in records:
        if not isinstance(rec, CheckinRecord):
            raise InvalidValue(f"records must be CheckinRecords, got {type(rec).__name__}")
        cell = grid.cell(rec.lat, rec.lon)
        if cell is None:
            dropped_box += 1
            continue
        binned.append((_local_day(rec.timestamp, tz), cell[0], cell[1]))

    if start is None or end is None:
        if not binned:
            raise BadRange("no in-box records and no explicit date range")
        days_seen = [d for d, _, _ in binned]
        start = start if start is not None else min(days_seen)
        end = end if end is not None else max(days_seen)
        if end < start:
            raise BadRange(f"date range is inverted: {start} > {end}")

    n_days = (end - start).days + 1
    data = np.zeros((n_days, grid.rows, grid.cols))
    kept = 0
    dropped_range = 0
    for day, row, col in binned:
        offset = (day - start).days
        if 0 <= offset < n_days:
            data[offset, row, col] += 1.0
            kept += 1
        else:
            dropped_range += 1

    days = tuple(start + timedelta(days=i) for i in range(n_days))
    series = ObservationSeries("matrix", data)
    return IngestResult(series, days, kept, dropped_box, dropped_range)


def _parse_timestamp(raw: str, lineno: int, path: str) -> datetime:
    text = raw.strip()
    # datetime.fromisoformat in 3.10 rejects a trailing Z; normalize it
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise InvalidValue(f"{path}:{lineno}: bad timestamp {raw!r}") from None


def read_checkin_csv(path: str) -> List[CheckinRecord]:
    """Read `timestamp,lat,lon` CSV with ISO-8601 timestamps."""
    out: List[CheckinRecord] = []
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if lineno == 1 and row[0].strip().lower() == "timestamp":
                continue
            if len(row) < 3:
                raise InvalidValue(f"{path}:{lineno}: expected timestamp,lat,lon")
            ts = _parse_timestamp(row[0], lineno, path)
            try:
                lat = float(row[1])
                lon = float(row[2])
            except ValueError:
                raise InvalidValue(f"{path}:{lineno}: non-numeric coordinate") from None
            out.append(CheckinRecord(ts, lat, lon))
    return out
