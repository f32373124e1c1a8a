import math

import pytest

from loralink.core_types import BW_HZ_VALUES, SF_VALUES, CodingRate, RadioConfig
from loralink.phy_model import (
    AirtimeConfigError,
    FrameParams,
    coding_rate_index,
    low_data_rate_optimize,
    monopole_dimensions,
    symbol_duration,
    time_on_air,
)


def config(sf, bw_hz, cr=CodingRate(4, 8)):
    return RadioConfig(sf=sf, bw_hz=bw_hz, cr=cr)


class TestSymbolDuration:
    def test_grid_values(self):
        assert symbol_duration(config(7, 125000)) == pytest.approx(1.024e-3, abs=1e-12)
        assert symbol_duration(config(12, 500000)) == pytest.approx(8.192e-3, abs=1e-12)
        assert symbol_duration(config(12, 10400)) == pytest.approx(0.393846153846, abs=1e-9)

    def test_doubles_per_sf_step_and_halves_per_bw_doubling(self):
        for sf in SF_VALUES[:-1]:
            assert symbol_duration(config(sf + 1, 125000)) == 2 * symbol_duration(config(sf, 125000))
        assert symbol_duration(config(9, 250000)) == symbol_duration(config(9, 125000)) / 2


class TestLowDataRateOptimize:
    def test_auto_rule_follows_symbol_duration(self):
        assert low_data_rate_optimize(config(11, 125000))  # 16.384 ms > 16 ms
        assert not low_data_rate_optimize(config(10, 125000))
        assert low_data_rate_optimize(config(8, 10400))  # 24.6 ms


class TestCodingRateIndex:
    def test_4_8_maps_to_index_4(self):
        assert coding_rate_index(CodingRate(4, 8)) == 4

    @pytest.mark.parametrize("num", [5, 6, 7])
    def test_other_rates_refuse_implicit_mapping(self, num):
        with pytest.raises(AirtimeConfigError):
            coding_rate_index(CodingRate(num, 8))
        with pytest.raises(AirtimeConfigError):
            time_on_air(config(7, 125000, cr=CodingRate(num, 8)), FrameParams(payload_bytes=2))

    def test_explicit_index_unblocks_other_rates(self):
        toa = time_on_air(
            config(7, 125000, cr=CodingRate(5, 8)), FrameParams(payload_bytes=2), cr_index=2
        )
        assert toa > 0

    def test_bad_explicit_index(self):
        with pytest.raises(AirtimeConfigError):
            time_on_air(config(7, 125000), FrameParams(payload_bytes=2), cr_index=5)


class TestTimeOnAir:
    def test_frozen_reference_case(self):
        # sf7/bw125k, 2-byte payload, preamble 8, explicit header, CRC on, index-1 coding
        toa = time_on_air(config(7, 125000), FrameParams(payload_bytes=2), cr_index=1)
        assert toa == pytest.approx(30.976e-3, abs=1e-12)

    def test_zero_payload_still_carries_header_block(self):
        # with CRC on the numerator stays positive at SF 7, so the payload
        # section keeps one coded block: 8 + 1*(1+4) = 13 symbols
        toa = time_on_air(config(7, 125000), FrameParams(payload_bytes=0), cr_index=1)
        assert toa == pytest.approx(25.856e-3, abs=1e-12)

    def test_payload_floor_engages_at_high_sf(self):
        # at SF 11 with a 0-byte payload the ceil argument goes non-positive
        # and the max(..., 0) floor leaves exactly the 8 base symbols
        cfg = config(11, 125000)
        frame = FrameParams(payload_bytes=0)
        t_sym = symbol_duration(cfg)
        assert time_on_air(cfg, frame, cr_index=4) == pytest.approx(
            (8 + 4.25) * t_sym + 8 * t_sym, abs=1e-12
        )

    def test_narrowband_sf12_case(self):
        toa = time_on_air(config(12, 10400), FrameParams(payload_bytes=2), cr_index=4)
        assert toa == pytest.approx(11.126153846153846, abs=1e-9)

    def test_monotone_in_payload_preamble_and_sf(self):
        for sf in SF_VALUES:
            cfg = config(sf, 125000)
            toas = [
                time_on_air(cfg, FrameParams(payload_bytes=n), cr_index=4)
                for n in (0, 1, 2, 16, 64, 255)
            ]
            assert toas == sorted(toas)
        base = FrameParams(payload_bytes=2)
        longer = FrameParams(payload_bytes=2, preamble_symbols=16)
        assert time_on_air(config(9, 62500), longer, cr_index=4) > time_on_air(
            config(9, 62500), base, cr_index=4
        )
        for bw in BW_HZ_VALUES:
            toas = [time_on_air(config(sf, bw), base, cr_index=4) for sf in SF_VALUES]
            assert toas == sorted(toas)

    def test_non_increasing_in_bw(self):
        frame = FrameParams(payload_bytes=16)
        for sf in SF_VALUES:
            toas = [time_on_air(config(sf, bw), frame, cr_index=4) for bw in BW_HZ_VALUES]
            assert toas == sorted(toas, reverse=True)

    def test_ldro_leaves_no_bits_error(self):
        cfg = RadioConfig(sf=2, bw_hz=200, cr=CodingRate(4, 8))  # 20 ms symbols: LDRO on
        with pytest.raises(AirtimeConfigError):
            time_on_air(cfg, FrameParams(payload_bytes=2))

    def test_frame_params_validation(self):
        with pytest.raises(ValueError):
            FrameParams(payload_bytes=-1)
        with pytest.raises(ValueError):
            FrameParams(payload_bytes=0, preamble_symbols=-1)


class TestMonopole:
    def test_reference_build_dimensions(self):
        design = monopole_dimensions(433e6)
        assert design.element_len_m == pytest.approx(0.165, abs=0.001)
        assert design.radial_len_m == pytest.approx(0.184, abs=0.001)
        assert design.radial_angle_deg == 45.0
        assert design.gain_dbi == 5.15

    def test_scales_inversely_with_frequency(self):
        low = monopole_dimensions(433e6)
        high = monopole_dimensions(866e6)
        assert high.element_len_m == pytest.approx(low.element_len_m / 2, abs=1e-12)
        assert high.radial_len_m == pytest.approx(low.radial_len_m / 2, abs=1e-12)

    def test_radials_always_longer_than_element(self):
        for f in (144e6, 433e6, 868e6, 2.4e9):
            design = monopole_dimensions(f)
            assert design.radial_len_m > design.element_len_m

    def test_domain_error(self):
        with pytest.raises(ValueError):
            monopole_dimensions(0)
        with pytest.raises(ValueError):
            monopole_dimensions(433e6, c_mps=-1)

    @pytest.mark.parametrize("freq_hz", [math.nan, math.inf])
    def test_non_finite_frequency_is_a_domain_error(self, freq_hz):
        with pytest.raises(ValueError, match="freq_hz must be positive and finite"):
            monopole_dimensions(freq_hz)

    @pytest.mark.parametrize("c_mps", [math.nan, math.inf])
    def test_non_finite_speed_of_light_is_a_domain_error(self, c_mps):
        with pytest.raises(ValueError, match="c_mps must be positive and finite"):
            monopole_dimensions(433e6, c_mps=c_mps)
