import io
import math
import random

import pytest

from loralink.core_types import BW_HZ_VALUES, SF_VALUES, CodingRate, LinkParams
from loralink.dataset import (
    DuplicateRecordError,
    MeasurementParseError,
    MeasurementValidationError,
    MissingCellError,
    bundled_expected_grid_text,
    load_bundled_measurements,
    load_expected_grid,
    load_measurements,
    lookup,
    reconstruct_excess_loss,
    save_measurements,
)

HEADER = "sf,bw_khz,cr_num,cr_den,rssi_dbm,snr_db,loss_pct"


def table_from(*rows):
    text = HEADER + "\n" + "\n".join(rows) + ("\n" if rows else "")
    return load_measurements(io.StringIO(text))


class TestLoad:
    def test_bundled_fixture_has_40_records(self, field_table):
        assert len(field_table) == 40
        grid_rows = [r for r in field_table if r.cr is None]
        sweep_rows = [r for r in field_table if r.cr is not None]
        assert len(grid_rows) == 36
        assert len(sweep_rows) == 4
        assert all(r.sf == 8 and r.bw_hz == 250000 for r in sweep_rows)

    def test_header_only_stream_is_empty_table(self):
        table = load_measurements(io.StringIO(HEADER + "\n"))
        assert len(table) == 0

    def test_accepts_comments(self):
        raw = "# provenance comment\n" + HEADER + "\n7,125,,,-87.28,8.03,16.6\n"
        table = load_measurements(io.StringIO(raw))
        assert len(table) == 1

    def test_loss_out_of_range_is_rejected(self):
        with pytest.raises(MeasurementValidationError) as excinfo:
            table_from("7,125,,,-87.28,8.03,101")
        assert excinfo.value.line_no == 2

    def test_positive_rssi_is_rejected(self):
        with pytest.raises(MeasurementValidationError):
            table_from("7,125,,,3.0,8.03,0")

    def test_off_grid_row_is_rejected(self):
        with pytest.raises(MeasurementValidationError):
            table_from("6,125,,,-87.28,8.03,0")

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(MeasurementParseError) as excinfo:
            table_from("7,125,,,-87.28,8.03,16.6", "8,banana,,,-91.83,10.18,0")
        assert excinfo.value.line_no == 3

    @pytest.mark.parametrize("row", ["7,125,,,nan,8.03,0", "7,125,,,-87.28,inf,0",
                                     "7,125,,,-87.28,8.03,NaN"])
    def test_non_finite_value_is_a_parse_error(self, row):
        with pytest.raises(MeasurementParseError, match="expected a finite number") as excinfo:
            table_from("8,125,,,-91,10,0", row)
        assert excinfo.value.line_no == 3

    @pytest.mark.parametrize("row, column", [
        ("1_2,1_25,,,-90,5,0", "sf"),
        ("12,1_25,,,-90,5,0", "bw_khz"),
        ("8,250,0_4,8,,9.75,", "coding rate"),
        ("8,250,4,0_8,,9.75,", "coding rate"),
        ("12,125,,,-9_0,5,0", "rssi_dbm"),
        # Arabic-Indic digits, which int(), float() and Decimal() all read
        ("\u0661\u0662,\u0661\u0662\u0665,,,-\u0669\u0660,5,0", "sf"),
        ("12,\u0661\u0662\u0665,,,-90,5,0", "bw_khz"),
        ("12,125,,,-\u0669\u0660,5,0", "rssi_dbm"),
    ])
    def test_digit_separators_are_a_parse_error(self, row, column):
        with pytest.raises(MeasurementParseError, match=f"malformed {column}") as excinfo:
            table_from("8,125,,,-91,10,0", row)
        assert excinfo.value.line_no == 3

    def test_missing_snr_is_an_error(self):
        with pytest.raises(MeasurementParseError):
            table_from("7,125,,,-87.28,,0")

    def test_half_specified_cr_is_an_error(self):
        with pytest.raises(MeasurementParseError):
            table_from("8,250,4,,,9.75,")

    def test_duplicate_key_is_a_conflict(self):
        with pytest.raises(DuplicateRecordError):
            table_from("7,125,,,-87.28,8.03,16.6", "7,125,,,-88,8,0")

    def test_grid_and_sweep_rows_coexist_at_the_same_cell(self):
        table = table_from("8,250,,,-91,10.04,0", "8,250,4,8,,9.75,")
        assert len(table) == 2

    def test_missing_header_is_an_error(self):
        with pytest.raises(MeasurementParseError):
            load_measurements(io.StringIO("7,125,,,-87.28,8.03,16.6\n"))


class TestLookup:
    def test_published_values(self, field_table):
        assert lookup(field_table, 7, 250000).rssi_dbm == -80.5
        assert lookup(field_table, 8, 10400).snr_db == 11.55

    def test_sweep_rows_reachable_by_explicit_cr(self, field_table):
        assert field_table.get(8, 250000, CodingRate(7, 8)).snr_db == 5.65
        # the unspecified-CR grid row, not the 4/8 sweep row, answers lookup
        assert lookup(field_table, 8, 250000).snr_db == 10.04

    def test_default_cr_fallback(self):
        explicit = table_from("7,125,4,8,-87.28,8.03,16.6")
        assert lookup(explicit, 7, 125000).rssi_dbm == -87.28  # grid row -> 4/8 fallback

    def test_missing_cell_raises(self, field_table):
        with pytest.raises(MissingCellError, match="table lacks cell sf=6, bw_khz=250"):
            lookup(field_table, 6, 250000)
        assert field_table.get(7, 250000, CodingRate(5, 8)) is None


class TestRoundTrip:
    def test_save_and_reload_equal(self, field_table):
        buffer = io.StringIO()
        save_measurements(field_table, buffer)
        reloaded = load_measurements(io.StringIO(buffer.getvalue()))
        assert list(reloaded) == list(field_table)


class TestReconstruction:
    def test_anchor_cells_match_published_grid(self, field_table):
        grid = reconstruct_excess_loss(field_table, LinkParams())
        assert grid[0][0] == pytest.approx(24.532, abs=0.05)   # SF 7, BW 10.4
        assert grid[2][2] == pytest.approx(40.198, abs=0.05)   # SF 9, BW 62.5
        assert grid[5][5] == pytest.approx(39.175, abs=0.05)   # SF 12, BW 500
        assert grid[4][3] == pytest.approx(39.998, abs=0.05)   # SF 10, BW 250

    def test_overall_accuracy_against_published_grid(self, field_table):
        # 29 cells match the published grid within 0.005 dB; seven deviate by
        # 0.050-0.081 dB, as much as or more than rounding their RSSI can
        # explain (worst cell: SF 7, BW 62.5). Which file is mistranscribed
        # is open until the Zenodo tables are in the repository; see README.
        grid = reconstruct_excess_loss(field_table, LinkParams())
        expected = load_expected_grid()
        max_dev = max(
            abs(grid[i][j] - expected[i][j])
            for i in range(len(BW_HZ_VALUES))
            for j in range(len(SF_VALUES))
        )
        assert max_dev == pytest.approx(0.08125902784412986, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_any_link_follows_the_straight_line_budget_chain(self, field_table, seed):
        rng = random.Random(seed)
        link = LinkParams(
            tx_power_dbm=rng.uniform(-10.0, 30.0), gt_dbi=rng.uniform(-5.0, 15.0),
            gr_dbi=rng.uniform(-5.0, 15.0), distance_m=rng.uniform(1.0, 1e5),
            freq_hz=rng.uniform(1e8, 6e9), c_mps=rng.uniform(2.9e8, 3.1e8),
        )
        grid = reconstruct_excess_loss(field_table, link)
        for i, bw_hz in enumerate(BW_HZ_VALUES):
            for j, sf in enumerate(SF_VALUES):
                record = field_table.get(sf, bw_hz)
                snr = record.snr_db
                esp_dbm = record.rssi_dbm + snr - 10 * math.log10(1 + 10 ** (snr / 10))
                path_loss_db = link.tx_power_dbm + link.gt_dbi + link.gr_dbi - esp_dbm
                fsl_db = 20 * math.log10(4 * math.pi * link.distance_m * link.freq_hz / link.c_mps)
                assert grid[i][j] == pytest.approx(path_loss_db - fsl_db, abs=1e-9), (sf, bw_hz)

    def test_order_insensitive(self, field_table):
        rows = []
        buffer = io.StringIO()
        save_measurements(field_table, buffer)
        lines = buffer.getvalue().splitlines()
        header, body = lines[0], lines[1:]
        random.Random(99).shuffle(body)
        shuffled = load_measurements(io.StringIO("\n".join([header] + body) + "\n"))
        original = reconstruct_excess_loss(field_table, LinkParams())
        reordered = reconstruct_excess_loss(shuffled, LinkParams())
        assert original == reordered

    def test_missing_cell_is_named(self, field_table):
        buffer = io.StringIO()
        save_measurements(field_table, buffer)
        pruned = [
            line
            for line in buffer.getvalue().splitlines()
            if not line.startswith("9,62.5,")
        ]
        table = load_measurements(io.StringIO("\n".join(pruned) + "\n"))
        with pytest.raises(MissingCellError) as excinfo:
            reconstruct_excess_loss(table, LinkParams())
        assert "sf=9" in str(excinfo.value)
        assert "62.5" in str(excinfo.value)

    def test_expected_grid_loader_validates(self):
        with pytest.raises(MeasurementParseError):
            load_expected_grid(io.StringIO("bogus,header\n"))
        partial = "bw_khz,sf7,sf8,sf9,sf10,sf11,sf12\n10.4,1,2,3,4,5,6\n"
        with pytest.raises(MissingCellError):
            load_expected_grid(io.StringIO(partial))

    def test_expected_grid_refuses_a_repeated_bandwidth_row(self):
        text = bundled_expected_grid_text() + "62.5,1,2,3,4,5,6\n"
        first = next(i for i, line in enumerate(text.splitlines(), start=1)
                     if line.startswith("62.5,"))
        with pytest.raises(MeasurementParseError, match=f"duplicate of line {first} ") as excinfo:
            load_expected_grid(io.StringIO(text))
        assert excinfo.value.line_no == len(text.splitlines())

    @pytest.mark.parametrize("cell", ["nan", "-inf", ""])
    def test_expected_grid_refuses_non_finite_cells(self, cell):
        text = f"bw_khz,sf7,sf8,sf9,sf10,sf11,sf12\n# comment\n10.4,1,2,{cell},4,5,6\n"
        with pytest.raises(MeasurementParseError, match="sf9") as excinfo:
            load_expected_grid(io.StringIO(text))
        assert excinfo.value.line_no == 3
