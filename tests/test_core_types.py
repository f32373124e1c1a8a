import itertools
from dataclasses import fields

import pytest

from loralink.core_types import (
    BW_HZ_VALUES,
    CR_NUMERATORS,
    SF_VALUES,
    CodingRate,
    GridValidationError,
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


def make_config(sf=8, bw_hz=62500, cr=CodingRate(4, 8)):
    return RadioConfig(sf=sf, bw_hz=bw_hz, cr=cr)


class TestCodingRate:
    def test_notation_is_preserved(self):
        cr = CodingRate(4, 8)
        assert str(cr) == "4/8"
        assert cr.ratio == 0.5
        assert cr != CodingRate(1, 2)  # notation-exact equality

    def test_parse_round_trip(self):
        for num in CR_NUMERATORS:
            assert CodingRate.parse(f"{num}/8") == CodingRate(num, 8)

    @pytest.mark.parametrize("text", ["4", "4/", "/8", "a/8", "4/8/8"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            CodingRate.parse(text)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CodingRate(0, 8)
        with pytest.raises(ValueError):
            CodingRate(4, 0)


class TestInvariants:
    def test_radio_config_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_config(sf=0)
        with pytest.raises(ValueError):
            make_config(bw_hz=0)

    def test_freeform_config_is_constructible(self):
        # off-grid values are allowed at construction; only the grid check rejects them
        make_config(sf=6, bw_hz=130000)

    def test_link_params_defaults_and_checks(self):
        params = LinkParams()
        assert params.tx_power_dbm == 20.0
        assert params.freq_hz == 433e6
        assert params.distance_m == 5000.0
        assert params.gt_dbi == params.gr_dbi == 5.15
        assert params.c_mps == 3.0e8
        with pytest.raises(ValueError):
            LinkParams(distance_m=0)
        with pytest.raises(ValueError):
            LinkParams(freq_hz=0)
        with pytest.raises(ValueError):
            LinkParams(tx_power_dbm=float("inf"))

    def test_signal_sample_requires_finite(self):
        with pytest.raises(ValueError):
            SignalSample(float("nan"), 5.0)
        with pytest.raises(ValueError):
            SignalSample(-100.0, float("inf"))


class TestMeasurementGrid:
    def test_accepts_all_144_grid_combinations(self):
        combos = list(itertools.product(SF_VALUES, BW_HZ_VALUES, CR_NUMERATORS))
        assert len(combos) == 144
        for sf, bw, num in combos:
            validate_measurement_grid(make_config(sf=sf, bw_hz=bw, cr=CodingRate(num, 8)))

    def test_rejects_sf_off_grid(self):
        with pytest.raises(GridValidationError) as excinfo:
            validate_measurement_grid(make_config(sf=6))
        assert excinfo.value.field == "sf"
        assert "sf=6" in str(excinfo.value)

    def test_rejects_bw_off_grid(self):
        with pytest.raises(GridValidationError) as excinfo:
            validate_measurement_grid(make_config(bw_hz=130000))
        assert excinfo.value.field == "bw_hz"

    def test_rejects_cr_off_grid(self):
        with pytest.raises(GridValidationError) as excinfo:
            validate_measurement_grid(make_config(cr=CodingRate(3, 8)))
        assert excinfo.value.field == "cr"
        with pytest.raises(GridValidationError):
            validate_measurement_grid(make_config(cr=CodingRate(1, 2)))

    def test_rejects_single_field_perturbations_of_every_grid_point(self):
        for sf, bw, num in itertools.product(SF_VALUES, BW_HZ_VALUES, CR_NUMERATORS):
            with pytest.raises(GridValidationError):
                validate_measurement_grid(make_config(sf=13, bw_hz=bw, cr=CodingRate(num, 8)))
            with pytest.raises(GridValidationError):
                validate_measurement_grid(make_config(sf=sf, bw_hz=bw + 1, cr=CodingRate(num, 8)))
            with pytest.raises(GridValidationError):
                validate_measurement_grid(make_config(sf=sf, bw_hz=bw, cr=CodingRate(8, 8)))

    def test_tx_power_and_frequency_are_unconstrained(self):
        # both belong to the link, not to the (SF, BW, CR) cell the grid checks
        assert [field.name for field in fields(RadioConfig)] == ["sf", "bw_hz", "cr"]
        validate_measurement_grid(make_config())
        LinkParams(tx_power_dbm=-3.5, freq_hz=868e6)


class TestDecimalRendering:
    @pytest.mark.parametrize(
        "value,expected",
        [(20.0, "20"), (5.15, "5.15"), (10.4, "10.4"), (0.0, "0"),
         (-92.8, "-92.8"), (1e-07, "0.0000001"), (16.6, "16.6")],
    )
    def test_format_decimal(self, value, expected):
        assert format_decimal(value) == expected

    def test_khz_conversion_is_exact(self):
        assert hz_to_khz_str(10400) == "10.4"
        assert hz_to_khz_str(500000) == "500"
        assert khz_str_to_hz("10.4") == 10400
        assert khz_str_to_hz("62.5") == 62500
        assert isinstance(khz_str_to_hz("125"), int)

    def test_khz_rejects_garbage(self):
        with pytest.raises(ValueError):
            khz_str_to_hz("ten")
        with pytest.raises(ValueError):
            khz_str_to_hz("-10")
        for text in ("1_25", "1e99999", "1e-99999", "1e999999999999999999",
                     "\u0661\u0662\u0665"):
            with pytest.raises(ValueError, match="malformed|out of range"):
                khz_str_to_hz(text)


class TestStrictNumberReaders:
    def test_plain_ascii_numbers_read_as_the_builtins_do(self):
        assert parse_int("-12") == -12
        assert parse_float("5000") == 5000.0
        assert parse_float("1e-3") == 0.001
        assert parse_float("inf") == float("inf")  # finiteness is the caller's check

    # int() and float() read each of these as 12 or 1.5
    @pytest.mark.parametrize("text", ["1_2", "\u0661\u0662", "\uff11\uff12", "\u00a012",
                                      "+12", " 12", "12 "])
    def test_int_refuses_separators_and_non_ascii(self, text):
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_int(text)

    @pytest.mark.parametrize("text", ["1_2", "1.5_0", "\u0661.\u0665", "\uff11\uff12"])
    def test_float_refuses_separators_and_non_ascii(self, text):
        with pytest.raises(ValueError, match="could not convert string to float"):
            parse_float(text)
