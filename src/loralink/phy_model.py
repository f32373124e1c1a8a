"""LoRa PHY timing and antenna geometry: symbol duration, time on air,
quarter-wave monopole dimensioning.
"""

from __future__ import annotations

import math
from .core_types import CodingRate, RadioConfig, Value

# Low-data-rate optimization is conventionally switched on once symbols
# exceed 16 ms (it stabilises the modem against clock drift on long symbols).
LDRO_SYMBOL_THRESHOLD_S = 0.016

# Quarter-wave monopole factors calibrated against the reference 433 MHz
# build: a 16.5 cm radiating element (free-space lambda/4 would be 17.3 cm,
# so the copper element carries a practical velocity/end-effect shortening)
# and four 18.4 cm ground radials, slightly longer than lambda/4, drooped 45
# degrees. Nominal gain: 2.15 dBi dipole equivalent + 3 dB ground reflection.
ELEMENT_LENGTH_FACTOR = 0.953
RADIAL_LENGTH_FACTOR = 1.0625
RADIAL_DROOP_DEG = 45.0
MONOPOLE_GAIN_DBI = 5.15


class AirtimeConfigError(ValueError):
    """The configuration cannot be mapped onto the airtime formula."""


class FrameParams(Value):
    """Frame-level inputs to the airtime formula.

    Every frame has an explicit header and a payload CRC, as the reference
    nodes send them; low-data-rate optimization follows the symbol duration.
    """

    __slots__ = ("payload_bytes", "preamble_symbols")

    def __init__(self, payload_bytes: int, preamble_symbols: int = 8) -> None:
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes!r}")
        if preamble_symbols < 0:
            raise ValueError(f"preamble_symbols must be >= 0, got {preamble_symbols!r}")
        self._store(payload_bytes, preamble_symbols)


class MonopoleDesign(Value):
    """The two lengths of a build; droop angle and gain are the same for every build."""

    __slots__ = ("element_len_m", "radial_len_m")
    radial_angle_deg = RADIAL_DROOP_DEG
    gain_dbi = MONOPOLE_GAIN_DBI

    def __init__(self, element_len_m: float, radial_len_m: float) -> None:
        if element_len_m <= 0:
            raise ValueError(f"element_len_m must be positive, got {element_len_m!r}")
        if radial_len_m <= element_len_m:
            raise ValueError("ground radials must be longer than the radiating element")
        self._store(element_len_m, radial_len_m)


def symbol_duration(config: RadioConfig) -> float:
    """Duration of one symbol in seconds: 2^SF / BW."""
    return (2 ** config.sf) / config.bw_hz


def low_data_rate_optimize(config: RadioConfig) -> bool:
    """Whether the modem switches LDRO on: symbols longer than 16 ms."""
    return symbol_duration(config) > LDRO_SYMBOL_THRESHOLD_S


def coding_rate_index(cr: CodingRate) -> int:
    """Map a stored k/8 rate onto the transceiver's coding index 1..4.

    Only 4/8 has an exact transceiver equivalent (index 4, i.e. rate 4/8).
    The 5/8, 6/8 and 7/8 notations have no lossless register mapping, so the
    mapping is refused rather than silently approximated; time_on_air
    callers pass an explicit cr_index for those rates.
    """
    if cr.num == 4 and cr.den == 8:
        return 4
    raise AirtimeConfigError(
        f"coding rate {cr} has no exact transceiver coding index; only 4/8 has one"
    )


def time_on_air(config: RadioConfig, frame: FrameParams, *, cr_index: int | None = None) -> float:
    """Frame airtime in seconds: preamble time plus payload-symbol time.

    Preamble: (preamble_symbols + 4.25) symbol durations. Payload:
    8 + max(ceil((8*PL - 4*SF + 28 + 16*CRC - 20*IH) / (4*(SF - 2*DE)))
            * (cr_index + 4), 0) symbols, with CRC = 1 and IH = 0 (FrameParams).
    """
    if cr_index is None:
        cr_index = coding_rate_index(config.cr)
    if cr_index not in (1, 2, 3, 4):
        raise AirtimeConfigError(f"cr_index must be 1..4, got {cr_index!r}")
    de = 1 if low_data_rate_optimize(config) else 0
    denominator = 4 * (config.sf - 2 * de)
    if denominator <= 0:
        raise AirtimeConfigError(
            f"sf={config.sf} with low-data-rate optimization leaves no payload bits per symbol"
        )
    numerator = 8 * frame.payload_bytes - 4 * config.sf + 28 + 16  # CRC = 1, IH = 0
    payload_symbols = 8 + max(-(-numerator // denominator) * (cr_index + 4), 0)
    t_sym = symbol_duration(config)
    return (frame.preamble_symbols + 4.25) * t_sym + payload_symbols * t_sym


def monopole_dimensions(freq_hz: float, c_mps: float = 3.0e8) -> MonopoleDesign:
    """Dimension a quarter-wave monopole with a 4-radial ground plane."""
    if not 0 < freq_hz < math.inf:
        raise ValueError(f"freq_hz must be positive and finite, got {freq_hz!r}")
    if not 0 < c_mps < math.inf:
        raise ValueError(f"c_mps must be positive and finite, got {c_mps!r}")
    quarter_wave = c_mps / (4 * freq_hz)
    return MonopoleDesign(ELEMENT_LENGTH_FACTOR * quarter_wave,
                          RADIAL_LENGTH_FACTOR * quarter_wave)
