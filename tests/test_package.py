"""The package surface: the names `loralink` exports, each from its home module."""

import importlib

import pytest

import loralink

EXPORTS = {
    "core_types": ["BW_HZ_VALUES", "CAMPAIGN_FREQ_HZ", "CAMPAIGN_TX_POWER_DBM", "CR_NUMERATORS",
                   "SF_VALUES", "CodingRate", "GridValidationError", "LinkParams", "RadioConfig",
                   "SignalSample", "validate_measurement_grid"],
    "link_budget": ["LossBreakdown", "esp", "free_space_loss", "loss_breakdown",
                    "packet_loss_pct"],
    "phy_model": ["FrameParams", "MonopoleDesign", "monopole_dimensions", "symbol_duration",
                  "time_on_air"],
    "dataset": ["MeasurementRecord", "MeasurementTable", "load_bundled_measurements",
                "load_measurements", "lookup", "reconstruct_excess_loss"],
    "recommender": ["SelectionConstraints", "recommend_sf_bw"],
    "tdma_sim": ["NodeSpec", "SimReport", "SlotSchedule", "drop_model_from_table", "iter_events",
                 "iter_report", "parse_report", "report_lines", "run_simulation",
                 "serialize_report"],
    "uplink_bridge": ["ChannelUpdate", "DryRunTransport", "HttpTransport", "bridge_sim_report",
                      "format_update", "iter_bridge"],
}
HOME = [(name, module) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_45_exports():
    assert len(HOME) == 45
    assert sorted(loralink.__all__) == sorted(name for name, _ in HOME)


@pytest.mark.parametrize("name, module", HOME, ids=[name for name, _ in HOME])
def test_export_is_its_home_module_object(name, module):
    home = importlib.import_module(f"loralink.{module}")
    assert getattr(loralink, name) is getattr(home, name)
    assert getattr(loralink, module) is home


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from loralink import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(loralink.__all__)


def test_dir_lists_the_exports():
    assert set(loralink.__all__) <= set(dir(loralink))
    assert {"__version__", *EXPORTS} <= set(dir(loralink))


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'loralink' has no attribute 'nope'$"):
        loralink.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from loralink import nope", {})
