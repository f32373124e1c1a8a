import io
import random

import pytest

from loralink.core_types import BW_HZ_VALUES, SF_VALUES, CodingRate, LinkParams
from loralink.dataset import (
    MeasurementRecord,
    MeasurementTable,
    evaluate_grid,
    load_measurements,
)
from loralink.recommender import (
    NoFeasibleConfigError,
    SelectionConstraints,
    recommend_sf_bw,
    select_cr,
)

PARAMS = LinkParams()


def random_table(rng: random.Random) -> MeasurementTable:
    records = []
    for bw in BW_HZ_VALUES:
        for sf in SF_VALUES:
            records.append(
                MeasurementRecord(
                    sf=sf,
                    bw_hz=bw,
                    cr=None,
                    rssi_dbm=round(rng.uniform(-120.0, -60.0), 2),
                    snr_db=round(rng.uniform(-5.0, 12.0), 2),
                    loss_pct=rng.choice([0.0, 0.0, 0.0, round(rng.uniform(0, 60), 1)]),
                )
            )
    return MeasurementTable(records)


def _direct_excess(rssi, snr):
    """Excess loss computed from scratch (independent of the package chain)."""
    import math

    esp = rssi + snr - 10 * math.log10(1 + 10 ** (0.1 * snr))
    pl = PARAMS.tx_power_dbm + PARAMS.gt_dbi + PARAMS.gr_dbi - esp
    fsl = (20 * math.log10(PARAMS.distance_m) + 20 * math.log10(PARAMS.freq_hz)
           - 20 * math.log10(PARAMS.c_mps) + 20 * math.log10(4 * math.pi))
    return pl - fsl


def brute_force_best(table, constraints):
    """Independent reference scan: explicit pairwise comparisons, no sorting."""
    best = None
    for bw in BW_HZ_VALUES:
        for sf in SF_VALUES:
            record = table.get(sf, bw) or table.get(sf, bw, CodingRate(4, 8))
            if record.loss_pct > constraints.max_loss_pct:
                continue
            if bw < constraints.min_bw_hz:
                continue
            candidate = {
                "sf": sf, "bw": bw, "snr": record.snr_db,
                "rssi": record.rssi_dbm,
                "excess": _direct_excess(record.rssi_dbm, record.snr_db),
            }
            if best is None or _beats(candidate, best, constraints.tie_break_order):
                best = candidate
    return None if best is None else (best["sf"], best["bw"])


def _beats(a, b, order):
    for metric in order:
        if metric == "snr":
            if a["snr"] != b["snr"]:
                return a["snr"] > b["snr"]
        elif metric == "excess_loss":
            if a["excess"] != b["excess"]:
                return a["excess"] < b["excess"]
        elif metric == "rssi":
            if a["rssi"] != b["rssi"]:
                return a["rssi"] > b["rssi"]
    if a["sf"] != b["sf"]:
        return a["sf"] < b["sf"]
    return a["bw"] < b["bw"]


class TestConstraints:
    def test_defaults(self):
        constraints = SelectionConstraints()
        assert constraints.max_loss_pct == 0.0
        assert constraints.min_bw_hz == 62500.0
        assert constraints.tie_break_order == ("snr", "excess_loss", "rssi")

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionConstraints(max_loss_pct=101)
        with pytest.raises(ValueError):
            SelectionConstraints(min_bw_hz=0)
        with pytest.raises(ValueError):
            SelectionConstraints(tie_break_order=())
        with pytest.raises(ValueError):
            SelectionConstraints(tie_break_order=("snr", "snr"))
        with pytest.raises(ValueError):
            SelectionConstraints(tie_break_order=("snr", "airtime"))


class TestRecommendSfBw:
    def test_campaign_defaults_pick_sf8_bw62k5(self, field_table):
        winner, _ = recommend_sf_bw(field_table, PARAMS)[0]
        assert (winner.sf, winner.bw_hz) == (8, 62500)
        assert winner.snr_db == 10.2
        assert winner.loss_pct == 0.0
        assert str(winner.effective_cr) == "4/8"

    def test_admitting_narrow_bands_moves_the_winner(self, field_table):
        constraints = SelectionConstraints(min_bw_hz=10400)
        winner, _ = recommend_sf_bw(field_table, PARAMS, constraints)[0]
        assert (winner.sf, winner.bw_hz) == (8, 10400)
        assert winner.snr_db == 11.55

    def test_widest_band_only(self, field_table):
        constraints = SelectionConstraints(min_bw_hz=500000)
        winner, _ = recommend_sf_bw(field_table, PARAMS, constraints)[0]
        assert (winner.sf, winner.bw_hz) == (10, 500000)

    def test_runners_up_are_ranked_and_feasible(self, field_table):
        ranked = recommend_sf_bw(field_table, PARAMS)
        runners_up = ranked[1:]
        assert all(cell.loss_pct == 0.0 for cell, _ in runners_up)
        assert all(cell.bw_hz >= 62500 for cell, _ in runners_up)
        snrs = [cell.snr_db for cell, _ in runners_up]
        assert ranked[0][0].snr_db >= snrs[0]
        # 22 feasible cells: 4 bands x 6 SFs minus the two lossy SF-7 cells
        assert 1 + len(runners_up) == 22

    def test_no_feasible_configuration_names_binding_constraint(self, field_table):
        lossy = SelectionConstraints(max_loss_pct=0.0, min_bw_hz=10400)
        table = load_measurements(io.StringIO(_all_lossy_csv()))
        with pytest.raises(NoFeasibleConfigError) as excinfo:
            recommend_sf_bw(table, PARAMS, lossy)
        assert "max_loss_pct" in str(excinfo.value)

    def test_snr_shift_invariance(self, field_table):
        baseline, _ = recommend_sf_bw(field_table, PARAMS)[0]
        shifted_records = [
            MeasurementRecord(r.sf, r.bw_hz, r.cr, r.rssi_dbm, r.snr_db + 7.25, r.loss_pct)
            for r in field_table
        ]
        shifted, _ = recommend_sf_bw(MeasurementTable(shifted_records), PARAMS)[0]
        assert (shifted.sf, shifted.bw_hz) == (baseline.sf, baseline.bw_hz)

    def test_raising_min_bw_never_grows_the_feasible_set(self, field_table):
        sizes = []
        for min_bw in BW_HZ_VALUES:
            ranked = recommend_sf_bw(field_table, PARAMS, SelectionConstraints(min_bw_hz=min_bw))
            assert ranked[0][0].bw_hz >= min_bw
            sizes.append(len(ranked))
        assert sizes == sorted(sizes, reverse=True)

    def test_matches_brute_force_on_random_tables(self):
        rng = random.Random(424242)
        orders = [
            ("snr", "excess_loss", "rssi"),
            ("excess_loss", "snr"),
            ("rssi",),
            ("rssi", "snr", "excess_loss"),
        ]
        checked = 0
        for trial in range(200):
            table = random_table(rng)
            constraints = SelectionConstraints(
                max_loss_pct=rng.choice([0.0, 10.0, 50.0, 100.0]),
                min_bw_hz=rng.choice(BW_HZ_VALUES),
                tie_break_order=rng.choice(orders),
            )
            expected = brute_force_best(table, constraints)
            if expected is None:
                with pytest.raises(NoFeasibleConfigError):
                    recommend_sf_bw(table, PARAMS, constraints)
                continue
            winner, _ = recommend_sf_bw(table, PARAMS, constraints)[0]
            assert (winner.sf, winner.bw_hz) == expected
            checked += 1
        assert checked > 100

    def test_deterministic_repeat_calls(self, field_table):
        a = recommend_sf_bw(field_table, PARAMS)
        b = recommend_sf_bw(field_table, PARAMS)
        assert a == b
        assert repr(a) == repr(b)

    def test_exact_ties_break_to_lower_sf_then_bw(self):
        records = [
            MeasurementRecord(sf, bw, None, -100.0, 5.0, 0.0)
            for bw in BW_HZ_VALUES
            for sf in SF_VALUES
        ]
        winner, _ = recommend_sf_bw(MeasurementTable(records), PARAMS,
                                    SelectionConstraints(min_bw_hz=10400))[0]
        assert (winner.sf, winner.bw_hz) == (7, 10400)

    def test_ranked_pairs_are_the_grid_evaluators_own(self, field_table):
        grid = evaluate_grid(field_table, PARAMS, require=("loss_pct",))
        by_cell = {(record.sf, record.bw_hz): (record, budget) for record, budget in grid}
        for constraints in (SelectionConstraints(), SelectionConstraints(
                max_loss_pct=100, min_bw_hz=10400, tie_break_order=("rssi", "excess_loss"))):
            ranked = recommend_sf_bw(field_table, PARAMS, constraints)
            for record, budget in ranked:
                assert (record, budget) == by_cell[record.sf, record.bw_hz]
            # a filtered, sorted view: each feasible grid cell exactly once
            feasible = {cell for cell, (record, _) in by_cell.items()
                        if record.loss_pct <= constraints.max_loss_pct
                        and record.bw_hz >= constraints.min_bw_hz}
            assert sorted((r.sf, r.bw_hz) for r, _ in ranked) == sorted(feasible)


def _all_lossy_csv() -> str:
    lines = ["sf,bw_khz,cr_num,cr_den,rssi_dbm,snr_db,loss_pct"]
    for bw in ("10.4", "20.8", "62.5", "125", "250", "500"):
        for sf in SF_VALUES:
            lines.append(f"{sf},{bw},,,-100,5,50")
    return "\n".join(lines) + "\n"


class TestRecommendCr:
    """The coding rate select_cr picks within its basis cell."""

    def test_campaign_sweep_picks_4_8(self, field_table):
        assert select_cr(field_table, 8, 250000) == (CodingRate(4, 8), (8, 250000))

    def test_singleton_sweep(self):
        table = MeasurementTable(
            [MeasurementRecord(8, 250000, CodingRate(6, 8), None, 8.0, None)]
        )
        assert select_cr(table, 8, 250000) == (CodingRate(6, 8), (8, 250000))

    def test_tie_breaks_toward_smaller_numerator(self):
        table = MeasurementTable(
            [
                MeasurementRecord(8, 250000, CodingRate(6, 8), None, 9.0, None),
                MeasurementRecord(8, 250000, CodingRate(5, 8), None, 9.0, None),
            ]
        )
        assert select_cr(table, 8, 250000) == (CodingRate(5, 8), (8, 250000))


class TestSelectCr:
    def test_uses_the_sole_swept_cell_for_other_winners(self, field_table):
        cr, basis = select_cr(field_table, 8, 62500)
        assert cr == CodingRate(4, 8)
        assert basis == (8, 250000)

    def test_prefers_sweep_at_the_winning_cell(self, field_table):
        cr, basis = select_cr(field_table, 8, 250000)
        assert cr == CodingRate(4, 8)
        assert basis == (8, 250000)

    def test_falls_back_to_winner_row_without_any_sweep(self):
        records = [MeasurementRecord(8, 62500, None, -91.8, 10.2, 0.0)]
        cr, basis = select_cr(MeasurementTable(records), 8, 62500)
        assert cr == CodingRate(4, 8)
        assert basis is None
