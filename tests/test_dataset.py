import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loralink.core_types import BW_HZ_VALUES, SF_VALUES, CodingRate, LinkParams, SignalSample
from loralink.dataset import (
    DuplicateRecordError,
    MeasurementParseError,
    MeasurementValidationError,
    MissingCellError,
    bundled_expected_grid_text,
    bundled_measurements_text,
    evaluate_grid,
    grid_records,
    load_bundled_measurements,
    load_expected_grid,
    load_measurements,
    lookup,
    reconstruct_excess_loss,
)
from loralink.link_budget import free_space_loss, loss_breakdown

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
        lines = [line for line in bundled_measurements_text().splitlines()
                 if not line.startswith("#")]
        header, body = lines[0], lines[1:]
        random.Random(99).shuffle(body)
        shuffled = load_measurements(io.StringIO("\n".join([header] + body) + "\n"))
        original = reconstruct_excess_loss(field_table, LinkParams())
        reordered = reconstruct_excess_loss(shuffled, LinkParams())
        assert original == reordered

    def test_missing_cell_is_named(self):
        pruned = [
            line
            for line in bundled_measurements_text().splitlines()
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

    def test_bundled_expected_grid_is_a_fresh_copy_per_call(self):
        first = load_expected_grid()
        assert first == load_expected_grid(io.StringIO(bundled_expected_grid_text()))
        first[0][0] = math.nan
        first[1].clear()
        again = load_expected_grid()
        assert again == load_expected_grid(io.StringIO(bundled_expected_grid_text()))
        assert again[0] is not first[0]

    def test_expected_grid_refuses_a_repeated_bandwidth_row(self):
        text = bundled_expected_grid_text() + "62.5,1,2,3,4,5,6\n"
        first = next(i for i, line in enumerate(text.splitlines(), start=1)
                     if line.startswith("62.5,"))
        with pytest.raises(MeasurementParseError, match=f"duplicate of line {first} ") as excinfo:
            load_expected_grid(io.StringIO(text))
        assert excinfo.value.line_no == len(text.splitlines())

    def test_expected_grid_refuses_an_off_grid_bandwidth_row(self):
        text = bundled_expected_grid_text() + "41.7,1,2,3,4,5,6\n"
        with pytest.raises(MeasurementValidationError,
                           match=r"bw_hz=41700 not in allowed set \{10400, 20800, 62500, "
                                 r"125000, 250000, 500000\}") as excinfo:
            load_expected_grid(io.StringIO(text))
        assert excinfo.value.line_no == len(text.splitlines())

    @pytest.mark.parametrize("cell", ["nan", "-inf", ""])
    def test_expected_grid_refuses_non_finite_cells(self, cell):
        text = f"bw_khz,sf7,sf8,sf9,sf10,sf11,sf12\n# comment\n10.4,1,2,{cell},4,5,6\n"
        with pytest.raises(MeasurementParseError, match="sf9") as excinfo:
            load_expected_grid(io.StringIO(text))
        assert excinfo.value.line_no == 3


def outcome(evaluate):
    """evaluate()'s value, or the message of the ValueError it raises."""
    try:
        return evaluate()
    except ValueError as exc:
        return str(exc)


# link terms from everyday values to sums that leave the float range
link_terms = st.one_of(st.floats(-200.0, 200.0), st.floats(allow_nan=False, allow_infinity=False))
positive = st.floats(min_value=5e-324, max_value=1.7e308)


class TestGridEvaluation:
    """evaluate_grid computes the link terms once per call and each cell's
    ESP once per table; every budget is still loss_breakdown's, bit for bit."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.builds(LinkParams, link_terms, link_terms, link_terms, positive,
                     positive, positive),
           st.sampled_from([(), ("loss_pct",)]))
    def test_each_budget_is_loss_breakdowns_exactly(self, link, require):
        table = load_bundled_measurements()
        records = grid_records(table, ("rssi_dbm", *require))
        direct = outcome(lambda: [
            loss_breakdown(link, SignalSample(r.rssi_dbm, r.snr_db)) for r in records])
        grid = outcome(lambda: evaluate_grid(table, link, require=require))
        if isinstance(direct, str):
            assert grid == direct
            return
        assert [record for record, _ in grid] == records
        assert [budget for _, budget in grid] == direct
        fsl_db = free_space_loss(link.distance_m, link.freq_hz, link.c_mps)
        for _, budget in grid:
            # the straight-line chain, in the order it was always evaluated
            assert budget.path_loss_db == (
                link.tx_power_dbm + link.gt_dbi + link.gr_dbi - budget.esp_dbm)
            assert (budget.fsl_db, budget.excess_db) == (fsl_db, budget.path_loss_db - fsl_db)

    @pytest.mark.parametrize("rssi_text, link, message", [
        ("-1e308", LinkParams(tx_power_dbm=1e308),
         "LossBreakdown(esp_dbm=-1e+308, path_loss_db=inf, fsl_db=99.15093019983635, "
         "excess_db=inf)"),
        ("-108.4", LinkParams(tx_power_dbm=1e308, gt_dbi=1e308, gr_dbi=1e308),
         "LossBreakdown(esp_dbm=-93.38632484327205, path_loss_db=inf, "
         "fsl_db=99.15093019983635, excess_db=inf)"),
    ], ids=["one-cell", "every-cell"])
    def test_a_budget_beyond_the_float_range_names_its_first_cell(self, rssi_text, link,
                                                                 message):
        text = bundled_measurements_text().replace("\n9,62.5,,,-108.4,", f"\n9,62.5,,,{rssi_text},")
        table = load_measurements(io.StringIO(text))
        for require in ((), ("loss_pct",)):
            with pytest.raises(ValueError) as caught:
                evaluate_grid(table, link, require=require)
            assert str(caught.value) == f"link budget leaves the float range: {message}"

    def test_tables_do_not_share_cached_esps(self, field_table):
        shifted = load_measurements(io.StringIO(
            bundled_measurements_text().replace("\n9,62.5,,,-108.4,", "\n9,62.5,,,-110.4,")))
        link = LinkParams()
        for table in (field_table, shifted, field_table, shifted):
            grid = evaluate_grid(table, link)
            assert grid == [(r, loss_breakdown(link, SignalSample(r.rssi_dbm, r.snr_db)))
                            for r in grid_records(table, ("rssi_dbm",))]
        changed = [record.key for (record, budget), (_, other)
                   in zip(evaluate_grid(field_table, link), evaluate_grid(shifted, link))
                   if budget != other]
        assert changed == [(9, 62500, None)]

    def test_a_missing_cell_raises_on_every_call(self, field_table):
        text = bundled_measurements_text().replace("\n9,62.5,,,-108.4,7.9,0", "")
        table = load_measurements(io.StringIO(text))
        for _ in range(3):
            with pytest.raises(MissingCellError, match="sf=9, bw_khz=62.5"):
                evaluate_grid(table, LinkParams())
            with pytest.raises(MissingCellError, match="sf=9, bw_khz=62.5"):
                reconstruct_excess_loss(table, LinkParams())

    def test_a_cell_missing_one_column_fails_only_where_it_is_required(self):
        text = bundled_measurements_text().replace("\n9,62.5,,,-108.4,7.9,0", "\n9,62.5,,,-108.4,7.9,")
        table = load_measurements(io.StringIO(text))
        for _ in range(2):
            assert len(evaluate_grid(table, LinkParams())) == 36
            with pytest.raises(MissingCellError, match="has no loss_pct"):
                evaluate_grid(table, LinkParams(), require=("loss_pct",))
