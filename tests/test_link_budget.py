import math
import random

import pytest

from loralink.core_types import LinkParams, SignalSample
from loralink.link_budget import (
    esp,
    free_space_loss,
    loss_breakdown,
    loss_breakdowns,
    packet_loss_pct,
)

CAMPAIGN = LinkParams()  # 20 dBm, 5.15/5.15 dBi, 5 km, 433 MHz, c=3e8


class TestPacketLoss:
    def test_published_cells(self):
        assert packet_loss_pct(54, 100) == 54.0
        assert packet_loss_pct(0, 500) == 0.0
        assert packet_loss_pct(83, 500) == 16.6

    def test_boundary_identities(self):
        for n in (1, 7, 500, 10_000):
            assert packet_loss_pct(0, n) == 0.0
            assert packet_loss_pct(n, n) == 100.0

    def test_errors(self):
        with pytest.raises(ValueError):
            packet_loss_pct(0, 0)
        with pytest.raises(ValueError):
            packet_loss_pct(5, 4)
        with pytest.raises(ValueError):
            packet_loss_pct(-1, 10)

    @pytest.mark.parametrize("lost, sent, prefix", [
        (math.nan, 10, "inconsistent counts"),
        (0, math.nan, "loss percentage undefined"),
        (math.nan, math.nan, "loss percentage undefined"),
        (math.inf, math.inf, "loss percentage undefined"),
    ])
    def test_non_finite_counts_are_refused(self, lost, sent, prefix):
        with pytest.raises(ValueError, match=prefix):
            packet_loss_pct(lost, sent)


class TestEsp:
    def test_frozen_values(self):
        # straight-line evaluations of the definition, frozen at build time
        assert esp(SignalSample(-92.8, 8.4)) == pytest.approx(-93.38632484327205, abs=1e-12)
        assert esp(SignalSample(-106.8, 4.85)) == pytest.approx(-108.02982409612908, abs=1e-12)
        assert esp(SignalSample(-108.4, 7.9)) == pytest.approx(-109.05273774704293, abs=1e-12)

    def test_zero_snr_correction_is_3db(self):
        # at SNR=0 the correction term is exactly 10*log10(2)
        assert esp(SignalSample(-100.0, 0.0)) == pytest.approx(-100 - 10 * math.log10(2), abs=1e-12)
        assert esp(SignalSample(-100.0, 0.0)) == pytest.approx(-103.0103, abs=1e-4)

    def test_esp_strictly_below_rssi(self):
        rng = random.Random(7)
        for _ in range(10_000):
            rssi = rng.uniform(-150.0, -20.0)
            snr = rng.uniform(-60.0, 60.0)
            assert esp(SignalSample(rssi, snr)) < rssi

    def test_strictly_increasing_in_snr(self):
        rng = random.Random(11)
        for _ in range(2_000):
            rssi = rng.uniform(-150.0, -20.0)
            lo = rng.uniform(-60.0, 59.0)
            hi = lo + rng.uniform(0.01, 10.0)
            assert esp(SignalSample(rssi, lo)) < esp(SignalSample(rssi, hi))

    def test_positive_snr_form_equals_the_definition(self):
        rng = random.Random(17)
        for _ in range(1_000):
            rssi = rng.uniform(-150.0, -20.0)
            snr = rng.uniform(0.0, 300.0)
            definition = rssi + snr - 10 * math.log10(1 + 10 ** (0.1 * snr))
            assert esp(SignalSample(rssi, snr)) == pytest.approx(definition, abs=1e-9)

    @pytest.mark.parametrize("snr, expected", [(4000.0, -50.0), (-4000.0, -4050.0)])
    def test_extreme_snr_stays_finite(self, snr, expected):
        # 10^(0.1*4000) overflows a float; the noise term is below resolution
        assert esp(SignalSample(-50.0, snr)) == expected

    def test_shifts_one_to_one_with_rssi(self):
        rng = random.Random(13)
        for _ in range(1_000):
            rssi = rng.uniform(-150.0, -20.0)
            snr = rng.uniform(-30.0, 30.0)
            delta = rng.uniform(0.1, 20.0)
            shifted = esp(SignalSample(rssi + delta, snr))
            assert shifted == pytest.approx(esp(SignalSample(rssi, snr)) + delta, abs=1e-9)


class TestPathLoss:
    def test_arithmetic(self):
        assert loss_breakdowns(CAMPAIGN, [-93.385])[0].path_loss_db == pytest.approx(
            123.685, abs=1e-9)
        zero = LinkParams(tx_power_dbm=0.0, gt_dbi=0.0, gr_dbi=0.0)
        assert loss_breakdowns(zero, [-50.0])[0].path_loss_db == 50.0


class TestFreeSpaceLoss:
    def test_campaign_value(self):
        assert free_space_loss(5000, 433e6, 3e8) == pytest.approx(99.15093019983635, abs=1e-12)
        assert free_space_loss(5000, 433e6, 3e8) == pytest.approx(99.151, abs=0.005)

    def test_distance_doubling_law(self):
        base = free_space_loss(5000, 433e6, 3e8)
        assert free_space_loss(10000, 433e6, 3e8) - base == pytest.approx(
            20 * math.log10(2), abs=1e-9
        )

    def test_frequency_doubling_law(self):
        base = free_space_loss(5000, 433e6, 3e8)
        assert free_space_loss(5000, 866e6, 3e8) - base == pytest.approx(
            20 * math.log10(2), abs=1e-9
        )

    def test_distance_frequency_symmetry(self):
        rng = random.Random(17)
        for _ in range(500):
            d = rng.uniform(1.0, 1e6)
            f = rng.uniform(1e6, 1e10)
            c = rng.uniform(2.9e8, 3.1e8)
            k = rng.uniform(0.1, 10.0)
            # moving a multiplicative factor between d and f leaves FSL unchanged
            assert free_space_loss(d * k, f, c) == pytest.approx(
                free_space_loss(d, f * k, c), abs=1e-9
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            free_space_loss(0, 433e6, 3e8)
        with pytest.raises(ValueError):
            free_space_loss(5000, -1, 3e8)
        with pytest.raises(ValueError):
            free_space_loss(5000, 433e6, 0)

    @pytest.mark.parametrize("name", ["distance_m", "freq_hz", "c_mps"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_terms_are_domain_errors(self, name, bad):
        terms = {"distance_m": 5000, "freq_hz": 433e6, "c_mps": 3e8, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            free_space_loss(**terms)


class TestLossBreakdown:
    def test_published_anchor_cells(self):
        # excess loss reproduces the published grid cells within 0.05 dB
        cases = [
            (SignalSample(-92.8, 8.4), 24.532),    # SF 7, BW 10.4
            (SignalSample(-108.4, 7.9), 40.198),   # SF 9, BW 62.5
            (SignalSample(-106.8, 4.85), 39.175),  # SF 12, BW 500
        ]
        for sample, published in cases:
            breakdown = loss_breakdown(CAMPAIGN, sample)
            assert breakdown.excess_db == pytest.approx(published, abs=0.05)

    def test_excess_is_pl_minus_fsl_exactly(self):
        breakdown = loss_breakdown(CAMPAIGN, SignalSample(-92.8, 8.4))
        assert breakdown.excess_db == breakdown.path_loss_db - breakdown.fsl_db

    def test_esp_below_sample_rssi(self):
        sample = SignalSample(-92.8, 8.4)
        breakdown = loss_breakdown(CAMPAIGN, sample)
        assert breakdown.esp_dbm < sample.rssi_dbm

    @pytest.mark.parametrize("link, sample", [
        (LinkParams(tx_power_dbm=1e308, gt_dbi=1e308, gr_dbi=1e308), SignalSample(-50.0, 4.0)),
        (CAMPAIGN, SignalSample(-1e308, -1e308)),
    ])
    def test_budget_beyond_the_float_range_is_refused(self, link, sample):
        with pytest.raises(ValueError, match="float range"):
            loss_breakdown(link, sample)

    def test_free_space_ideal_link_has_zero_excess(self):
        fsl = free_space_loss(CAMPAIGN.distance_m, CAMPAIGN.freq_hz, CAMPAIGN.c_mps)
        # pick rssi so that esp(rssi, 0) lands exactly on pt + gains - fsl
        target_esp = CAMPAIGN.tx_power_dbm + CAMPAIGN.gt_dbi + CAMPAIGN.gr_dbi - fsl
        rssi = target_esp + 10 * math.log10(2)
        breakdown = loss_breakdown(CAMPAIGN, SignalSample(rssi, 0.0))
        assert breakdown.excess_db == pytest.approx(0.0, abs=1e-9)
