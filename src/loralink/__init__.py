"""LoRa link-quality toolkit.

Link budgets (RSSI/SNR/ESP/path-loss/free-space-loss), LoRa PHY timing, a
measurement-table dataset with a data-driven configuration recommender, a
deterministic TDMA uplink simulator, and a channel-update bridge.
"""

from .core_types import (
    BW_HZ_VALUES,
    CAMPAIGN_FREQ_HZ,
    CAMPAIGN_TX_POWER_DBM,
    CR_NUMERATORS,
    SF_VALUES,
    CodingRate,
    GridValidationError,
    LinkParams,
    RadioConfig,
    SignalSample,
    validate_measurement_grid,
)
from .link_budget import (
    LossBreakdown,
    esp,
    free_space_loss,
    loss_breakdown,
    packet_loss_pct,
    path_loss,
    rssi_from_register,
    snr_from_register,
)
from .phy_model import (
    FrameParams,
    MonopoleDesign,
    monopole_dimensions,
    nominal_bit_rate,
    symbol_duration,
    time_on_air,
)
from .dataset import (
    MeasurementRecord,
    MeasurementTable,
    load_bundled_measurements,
    load_measurements,
    lookup,
    reconstruct_excess_loss,
)
from .recommender import SelectionConstraints, recommend_sf_bw
from .tdma_sim import (
    NodeSpec,
    SimReport,
    SlotSchedule,
    drop_model_from_table,
    iter_events,
    iter_report,
    parse_report,
    report_lines,
    run_simulation,
    serialize_report,
)
from .uplink_bridge import (
    ChannelUpdate,
    DryRunTransport,
    HttpTransport,
    bridge_sim_report,
    format_update,
    iter_bridge,
)

__version__ = "0.1.0"
