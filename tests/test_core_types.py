import copy
import itertools
import math
import pickle
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loralink.core_types import (
    BW_HZ_VALUES,
    CR_NUMERATORS,
    SF_VALUES,
    CodingRate,
    GridValidationError,
    LinkParams,
    RadioConfig,
    SignalSample,
    Value,
    format_decimal,
    hz_to_khz_str,
    khz_str_to_hz,
    parse_float,
    parse_int,
    validate_measurement_grid,
)
from loralink.dataset import MeasurementRecord
from loralink.phy_model import FrameParams, MonopoleDesign
from loralink.recommender import SelectionConstraints
from loralink.tdma_sim import NodeSpec, NodeStats, SimReport, SlotSchedule

_NODE = NodeSpec(0xA001, RadioConfig(8, 62500, CodingRate(4, 8)), FrameParams(2), 0.5)
_NODE_TEXT = ("NodeSpec(sync_word=40961, config=RadioConfig(sf=8, bw_hz=62500, "
              "cr=CodingRate(num=4, den=8)), frame=FrameParams(payload_bytes=2, "
              "preamble_symbols=8), drop_probability=0.5)")

# every value type: its fields by keyword, in order, and the repr a frozen dataclass gave
VALUE_TYPES = [
    (CodingRate, {"num": 4, "den": 8}, "CodingRate(num=4, den=8)"),
    (RadioConfig, {"sf": 8, "bw_hz": 62500, "cr": CodingRate(4, 8)},
     "RadioConfig(sf=8, bw_hz=62500, cr=CodingRate(num=4, den=8))"),
    (LinkParams, {"tx_power_dbm": 20.0, "gt_dbi": 5.15, "gr_dbi": 5.15, "distance_m": 5000.0,
                  "freq_hz": 433_000_000, "c_mps": 3.0e8},
     "LinkParams(tx_power_dbm=20.0, gt_dbi=5.15, gr_dbi=5.15, distance_m=5000.0, "
     "freq_hz=433000000, c_mps=300000000.0)"),
    (SignalSample, {"rssi_dbm": -92.8, "snr_db": 8.4}, "SignalSample(rssi_dbm=-92.8, snr_db=8.4)"),
    (MeasurementRecord, {"sf": 8, "bw_hz": 62500, "cr": None, "rssi_dbm": -92.8, "snr_db": 8.4,
                         "loss_pct": 0.0},
     "MeasurementRecord(sf=8, bw_hz=62500, cr=None, rssi_dbm=-92.8, snr_db=8.4, loss_pct=0.0)"),
    (FrameParams, {"payload_bytes": 2, "preamble_symbols": 8},
     "FrameParams(payload_bytes=2, preamble_symbols=8)"),
    (MonopoleDesign, {"element_len_m": 0.165, "radial_len_m": 0.184},
     "MonopoleDesign(element_len_m=0.165, radial_len_m=0.184)"),
    (SelectionConstraints, {"max_loss_pct": 0.0, "min_bw_hz": 62500.0,
                            "tie_break_order": ("snr", "excess_loss", "rssi")},
     "SelectionConstraints(max_loss_pct=0.0, min_bw_hz=62500.0, "
     "tie_break_order=('snr', 'excess_loss', 'rssi'))"),
    (NodeSpec, {"sync_word": 0xA001, "config": _NODE.config, "frame": _NODE.frame,
                "drop_probability": 0.5}, _NODE_TEXT),
    (SlotSchedule, {"nodes": (_NODE,), "slot_duration_s": 0.5, "guard_s": 0.1},
     f"SlotSchedule(nodes=({_NODE_TEXT},), slot_duration_s=0.5, guard_s=0.1)"),
    (NodeStats, {"packets_sent": 5, "packets_received": 4},
     "NodeStats(packets_sent=5, packets_received=4)"),
    (SimReport, {"timeline": (), "stats": ()}, "SimReport(timeline=(), stats=())"),
]


@pytest.mark.parametrize("cls, fields, text", VALUE_TYPES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_TYPES])
def test_value_type_behaves_as_a_frozen_dataclass(cls, fields, text):
    value = cls(**fields)
    values = tuple(fields.values())
    assert value == cls(*values)
    assert hash(value) == hash(cls(*values)) == hash(values)
    assert value != values and values != value  # not a tuple
    assert repr(value) == text
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == fields[name]
    with pytest.raises(AttributeError):
        value.extra = 1


def test_values_of_two_types_with_equal_fields_differ():
    assert FrameParams(2, 8) != CodingRate(2, 8)
    assert CodingRate(2, 8) != FrameParams(2, 8)
    assert NodeStats(2, 1) != FrameParams(2, 1)


def test_a_value_type_must_store_one_value_per_field():
    class Pair(Value):
        __slots__ = ("a", "b")

        def __init__(self, a, b) -> None:
            self._store(a)

    with pytest.raises(ValueError):
        Pair(1, 2)


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

    @pytest.mark.parametrize("bw_hz", [math.nan, math.inf])
    def test_radio_config_rejects_non_finite_bandwidth(self, bw_hz):
        with pytest.raises(ValueError, match="bw_hz must be positive and finite"):
            make_config(bw_hz=bw_hz)

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

    @pytest.mark.parametrize("field", ["tx_power_dbm", "gt_dbi", "gr_dbi", "distance_m",
                                       "freq_hz", "c_mps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_link_params_refuse_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LinkParams(**{field: value})

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
        assert RadioConfig.__slots__ == ("sf", "bw_hz", "cr")
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

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(st.one_of(st.floats(), st.integers(-10**300, 10**300)))
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(1e16)
    @example(9999999999999998.0)
    @example(1e-5)
    @example(0.0001)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(sys.float_info.max)
    @example(-10**300)
    def test_plain_text_is_the_decimal_of_str(self, value):
        def plain(dec):
            text = format(dec, "f")
            if "." in text:
                text = text.rstrip("0").rstrip(".")
            return "0" if text in ("", "-0") else text

        assert format_decimal(value) == plain(Decimal(str(value)))
        assert hz_to_khz_str(value) == plain(Decimal(str(value)) / 1000)

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
