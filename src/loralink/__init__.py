"""LoRa link-quality toolkit.

Link budgets (ESP, path loss, free-space and excess loss), LoRa PHY timing, a
measurement-table dataset with a data-driven configuration recommender, a
deterministic TDMA uplink simulator, and a channel-update bridge.

Every submodule but `cli` is registered lazily: it is importable and an
attribute of this package at once, but its body runs on the first attribute
read. The names in `__all__` load their home module on first use, so a
one-shot `loralink` run compiles only the modules its subcommand calls.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# home module -> the names this package exports from it
_EXPORTS = {
    "core_types": "BW_HZ_VALUES CAMPAIGN_FREQ_HZ CAMPAIGN_TX_POWER_DBM CR_NUMERATORS SF_VALUES "
                  "CodingRate GridValidationError LinkParams RadioConfig SignalSample "
                  "validate_measurement_grid",
    "link_budget": "LossBreakdown esp free_space_loss loss_breakdown packet_loss_pct",
    "phy_model": "FrameParams MonopoleDesign monopole_dimensions symbol_duration time_on_air",
    "dataset": "MeasurementRecord MeasurementTable load_bundled_measurements load_measurements "
               "lookup reconstruct_excess_loss",
    "recommender": "SelectionConstraints recommend_sf_bw",
    "tdma_sim": "NodeSpec SimReport SlotSchedule drop_model_from_table iter_events iter_report "
                "parse_report report_lines run_simulation serialize_report",
    "uplink_bridge": "ChannelUpdate DryRunTransport HttpTransport bridge_sim_report "
                     "format_update iter_bridge",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def _register_lazily(name: str) -> None:
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = globals()[name] = module
    spec.loader.exec_module(module)


for _name in (*_EXPORTS, "rng"):
    _register_lazily(_name)
del _name


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
