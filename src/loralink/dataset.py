"""Measurement tables from the 433 MHz field campaign: loading, validation,
lookup, and reconstruction of the derived excess-loss grid.

Tables are immutable after load and keyed by (sf, bw_hz, cr). Grid-sweep
rows carry cr=None because the coding rate in effect during that sweep was
not recorded; consumers treat those rows as 4/8 (see
MeasurementRecord.effective_cr). The coding-rate sweep rows carry explicit
cr values, which keeps their keys distinct from the grid row at the same
(sf, bw) cell.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator

from .core_types import (
    BW_HZ_VALUES,
    SF_VALUES,
    CodingRate,
    LinkParams,
    RadioConfig,
    SignalSample,
    format_decimal,
    hz_to_khz_str,
    khz_str_to_hz,
    parse_float,
    parse_int,
    validate_measurement_grid,
)
from .link_budget import LossBreakdown, loss_breakdown

CSV_COLUMNS = ("sf", "bw_khz", "cr_num", "cr_den", "rssi_dbm", "snr_db", "loss_pct")

_MEASUREMENTS_RESOURCE = "field_measurements.csv"
_EXPECTED_GRID_RESOURCE = "excess_loss_expected.csv"


class MeasurementParseError(ValueError):
    """A source row could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class MeasurementValidationError(MeasurementParseError):
    """A parsed row is off the measurement grid or out of range."""


class DuplicateRecordError(ValueError):
    """Two records share the same (sf, bw_hz, cr) key."""


class MissingCellError(LookupError):
    """A grid operation needs a cell the table does not provide."""


@dataclass(frozen=True)
class MeasurementRecord:
    """One measured cell: configuration key plus mean link metrics.

    cr is None when the coding rate was not recorded for the row; rssi_dbm
    and loss_pct are None for sweep rows where only SNR was measured.
    """

    sf: int
    bw_hz: float
    cr: CodingRate | None
    rssi_dbm: float | None
    snr_db: float
    loss_pct: float | None

    @property
    def key(self) -> tuple:
        return (self.sf, self.bw_hz, self.cr)

    @property
    def effective_cr(self) -> CodingRate:
        """The coding rate to assume for this row (4/8 when unrecorded)."""
        return self.cr if self.cr is not None else CodingRate(4, 8)


class MeasurementTable:
    """Immutable keyed collection of MeasurementRecord, insertion-ordered."""

    def __init__(self, records: Iterable[MeasurementRecord]) -> None:
        table: dict[tuple, MeasurementRecord] = {}
        for record in records:
            if record.key in table:
                sf, bw_hz, cr = record.key
                raise DuplicateRecordError(
                    f"duplicate record for sf={sf}, bw_khz={hz_to_khz_str(bw_hz)}, cr={cr}"
                )
            table[record.key] = record
        self._records = table

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[MeasurementRecord]:
        return iter(self._records.values())

    def get(self, sf: int, bw_hz: float, cr: CodingRate | None = None) -> MeasurementRecord | None:
        return self._records.get((sf, bw_hz, cr))


def lookup(table: MeasurementTable, sf: int, bw_hz: float, *,
           require: tuple[str, ...] = ()) -> MeasurementRecord:
    """The grid-sweep record of one (SF, BW) cell.

    Because unrecorded CR means "assume 4/8", an explicit 4/8 row stands in
    for a missing grid row. Raises MissingCellError when the table has
    neither, or when the record has no value in one of the `require`
    columns (MeasurementRecord field names). A row with any other explicit
    CR is table.get(sf, bw_hz, cr).
    """
    record = table.get(sf, bw_hz) or table.get(sf, bw_hz, CodingRate(4, 8))
    if record is None:
        raise MissingCellError(f"table lacks cell sf={sf}, bw_khz={hz_to_khz_str(bw_hz)}")
    for column in require:
        if getattr(record, column) is None:
            raise MissingCellError(f"cell sf={sf}, bw_khz={hz_to_khz_str(bw_hz)} has no {column}")
    return record


def _parse_float(text: str, line_no: int, column: str) -> float:
    """One numeric field of either CSV: a finite float, else a parse error."""
    try:
        value = parse_float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise MeasurementParseError(
            line_no, f"malformed {column}: {text!r} (expected a finite number)"
        )
    return value


def _parse_bw(text: str, line_no: int) -> float:
    try:
        return khz_str_to_hz(text)
    except ValueError as exc:
        raise MeasurementParseError(line_no, f"malformed bw_khz: {text!r}") from exc


def _parse_row(row: list[str], line_no: int) -> MeasurementRecord:
    sf_text, bw_text, cr_num_text, cr_den_text, rssi_text, snr_text, loss_text = row
    try:
        sf = parse_int(sf_text)
    except ValueError as exc:
        raise MeasurementParseError(line_no, f"malformed sf: {sf_text!r}") from exc
    bw_hz = _parse_bw(bw_text, line_no)
    if (cr_num_text == "") != (cr_den_text == ""):
        raise MeasurementParseError(line_no, "cr_num and cr_den must both be set or both empty")
    cr = None
    if cr_num_text != "":
        try:
            cr = CodingRate(parse_int(cr_num_text), parse_int(cr_den_text))
        except ValueError as exc:
            raise MeasurementParseError(
                line_no, f"malformed coding rate: {cr_num_text!r}/{cr_den_text!r}"
            ) from exc
    rssi_dbm = None if rssi_text == "" else _parse_float(rssi_text, line_no, "rssi_dbm")
    snr_db = _parse_float(snr_text, line_no, "snr_db")
    loss_pct = None if loss_text == "" else _parse_float(loss_text, line_no, "loss_pct")
    return MeasurementRecord(sf, bw_hz, cr, rssi_dbm, snr_db, loss_pct)


def _validate_record(record: MeasurementRecord, line_no: int) -> None:
    try:
        validate_measurement_grid(RadioConfig(record.sf, record.bw_hz, record.effective_cr))
    except ValueError as exc:
        raise MeasurementValidationError(line_no, str(exc)) from exc
    if record.rssi_dbm is not None and record.rssi_dbm >= 0:
        raise MeasurementValidationError(
            line_no, f"rssi_dbm={record.rssi_dbm} must be negative"
        )
    if record.loss_pct is not None and not 0 <= record.loss_pct <= 100:
        raise MeasurementValidationError(
            line_no, f"loss_pct={record.loss_pct} outside [0, 100]"
        )


def _iter_source_lines(source: str | Path | Iterable[str]) -> Iterator[str]:
    """The lines of a CSV path, or the given text lines (an open stream)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            yield from handle
    else:
        yield from source


def _csv_rows(lines: Iterable[str], header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, stripped cells) of each data row after the header.

    Blank and '#' comment lines are skipped; the first other line must be
    the header, and every data row must have as many cells as it does.
    """
    header_seen = False
    for line_no, line in enumerate(lines, start=1):
        text = line.rstrip("\r\n")
        if not text.strip() or text.lstrip().startswith("#"):
            continue
        row = [cell.strip() for cell in next(csv.reader([text]))]
        if not header_seen:
            if tuple(row) != header:
                raise MeasurementParseError(
                    line_no, f"expected header {','.join(header)!r}, got {text!r}"
                )
            header_seen = True
        elif len(row) != len(header):
            raise MeasurementParseError(line_no, f"expected {len(header)} columns, got {len(row)}")
        else:
            yield line_no, row
    if not header_seen:
        raise MeasurementParseError(1, "no header row found")


def load_measurements(source: str | Path | Iterable[str]) -> MeasurementTable:
    """Load a measurement CSV from a path or from text lines (an open stream).

    Every row is checked for grid membership and value ranges.
    """
    records: list[MeasurementRecord] = []
    duplicates: dict[tuple, int] = {}
    for line_no, row in _csv_rows(_iter_source_lines(source), CSV_COLUMNS):
        record = _parse_row(row, line_no)
        _validate_record(record, line_no)
        if record.key in duplicates:
            raise DuplicateRecordError(
                f"line {line_no}: duplicate of line {duplicates[record.key]} "
                f"(sf={record.sf}, bw_khz={hz_to_khz_str(record.bw_hz)}, cr={record.cr})"
            )
        duplicates[record.key] = line_no
        records.append(record)
    return MeasurementTable(records)


def save_measurements(table: MeasurementTable, stream: IO[str]) -> None:
    """Write a table back out in the canonical CSV form."""
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for record in table:
        cells = [
            str(record.sf),
            hz_to_khz_str(record.bw_hz),
            "" if record.cr is None else str(record.cr.num),
            "" if record.cr is None else str(record.cr.den),
            "" if record.rssi_dbm is None else format_decimal(record.rssi_dbm),
            format_decimal(record.snr_db),
            "" if record.loss_pct is None else format_decimal(record.loss_pct),
        ]
        stream.write(",".join(cells) + "\n")


def bundled_measurements_text() -> str:
    return resources.files(__package__).joinpath("data", _MEASUREMENTS_RESOURCE).read_text("utf-8")


@functools.cache
def load_bundled_measurements() -> MeasurementTable:
    """The packaged field-measurement fixture (36 grid rows + 4 CR-sweep rows).

    Parsed once per process; the table is immutable, so every caller shares it.
    """
    return load_measurements(io.StringIO(bundled_measurements_text()))


def bundled_expected_grid_text() -> str:
    return resources.files(__package__).joinpath("data", _EXPECTED_GRID_RESOURCE).read_text("utf-8")


def load_expected_grid(source=None) -> list[list[float]]:
    """Load an excess-loss grid CSV (rows BW ascending, columns SF 7..12).

    source=None loads the grid published with the bundled measurements.
    """
    if source is None:
        lines: Iterable[str] = io.StringIO(bundled_expected_grid_text())
    else:
        lines = _iter_source_lines(source)
    columns = tuple(f"sf{sf}" for sf in SF_VALUES)
    rows: dict[float, list[float]] = {}
    row_lines: dict[float, int] = {}
    for line_no, row in _csv_rows(lines, ("bw_khz",) + columns):
        bw_hz = _parse_bw(row[0], line_no)
        if bw_hz in row_lines:
            raise MeasurementParseError(
                line_no, f"duplicate of line {row_lines[bw_hz]} (bw_khz={hz_to_khz_str(bw_hz)})"
            )
        row_lines[bw_hz] = line_no
        rows[bw_hz] = [
            _parse_float(text, line_no, column) for text, column in zip(row[1:], columns)
        ]
    missing = [bw for bw in BW_HZ_VALUES if bw not in rows]
    if missing:
        raise MissingCellError(
            f"expected grid missing bandwidth row(s): "
            f"{', '.join(hz_to_khz_str(b) for b in missing)}"
        )
    return [rows[bw] for bw in BW_HZ_VALUES]


def grid_records(table: MeasurementTable, require: tuple[str, ...] = ()) -> list[MeasurementRecord]:
    """The grid-sweep record of each of the 36 (SF, BW) cells, in the order
    of the published table: bandwidth ascending, then SF.

    Raises MissingCellError for a cell the table lacks, or one whose value
    in any of the `require` columns (MeasurementRecord field names) is empty.
    """
    return [lookup(table, sf, bw_hz, require=require)
            for bw_hz in BW_HZ_VALUES for sf in SF_VALUES]


def evaluate_grid(
    table: MeasurementTable, link: LinkParams, *, require: tuple[str, ...] = ()
) -> list[tuple[MeasurementRecord, LossBreakdown]]:
    """Each grid cell's record with its budget chain, in grid_records order.

    Every cell needs an RSSI, plus a value in each of the `require` columns.
    """
    return [(record, loss_breakdown(link, SignalSample(record.rssi_dbm, record.snr_db)))
            for record in grid_records(table, ("rssi_dbm", *require))]


def reconstruct_excess_loss(table: MeasurementTable, link: LinkParams) -> list[list[float]]:
    """The excess loss of every (SF, BW) cell of the table.

    Returns the excess-loss grid as rows of ascending bandwidth by columns
    of ascending SF, the layout of the published table.
    """
    excess = [breakdown.excess_db for _, breakdown in evaluate_grid(table, link)]
    width = len(SF_VALUES)
    return [excess[i:i + width] for i in range(0, len(excess), width)]
