"""Shared domain vocabulary: radio configurations, link geometry, signal samples.

All values are plain immutable dataclasses. dB/dBm quantities are carried as
double-precision floats; bandwidth is stored in hertz internally while the
text formats speak kHz (exact decimal scaling, so 10.4 kHz is 10400 Hz with
no float residue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, Overflow

SF_VALUES = (7, 8, 9, 10, 11, 12)
BW_HZ_VALUES = (10400, 20800, 62500, 125000, 250000, 500000)
CR_NUMERATORS = (4, 5, 6, 7)  # over a fixed denominator of 8


class GridValidationError(ValueError):
    """A configuration field falls outside the supported parameter grid."""

    def __init__(self, field: str, value, allowed) -> None:
        self.field = field
        self.value = value
        self.allowed = tuple(allowed)
        shown = ", ".join(str(a) for a in self.allowed)
        super().__init__(f"{field}={value} not in allowed set {{{shown}}}")


@dataclass(frozen=True)
class CodingRate:
    """FEC rate kept verbatim as num/den; 4/8 is *not* reduced to 1/2.

    The k/8 notation is preserved because the measurement fixtures and the
    text formats use it exactly; equality is therefore notation-exact.
    """

    num: int
    den: int = 8

    def __post_init__(self) -> None:
        if not isinstance(self.num, int) or not isinstance(self.den, int):
            raise ValueError("coding rate numerator/denominator must be integers")
        if self.num <= 0 or self.den <= 0:
            raise ValueError(f"coding rate {self.num}/{self.den} must be positive")

    @property
    def ratio(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "CodingRate":
        try:
            num_text, den_text = text.split("/")
            return cls(int(num_text), int(den_text))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"malformed coding rate {text!r}, expected <num>/<den>") from exc


@dataclass(frozen=True)
class RadioConfig:
    """One LoRa PHY configuration.

    Constructors accept any physically sane values ("freeform" mode);
    membership in the supported measurement grid is a separate check, see
    validate_measurement_grid().
    """

    sf: int
    bw_hz: float
    cr: CodingRate
    tx_power_dbm: float
    freq_hz: float

    def __post_init__(self) -> None:
        if not isinstance(self.sf, int) or self.sf < 1:
            raise ValueError(f"sf must be a positive integer, got {self.sf!r}")
        if self.bw_hz <= 0:
            raise ValueError(f"bw_hz must be positive, got {self.bw_hz!r}")
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError("tx_power_dbm must be finite")
        if self.freq_hz <= 0:
            raise ValueError(f"freq_hz must be positive, got {self.freq_hz!r}")


@dataclass(frozen=True)
class LinkParams:
    """Link geometry and fixed gains.

    Defaults mirror the 433 MHz field campaign behind the bundled fixtures:
    a ~5 km line-of-sight hop with 5.15 dBi quarter-wave monopoles on both
    ends. c is deliberately the rounded 3e8 m/s so derived grids are
    byte-stable; the exact value shifts free-space loss by ~0.006 dB.
    """

    distance_m: float = 5000.0
    gt_dbi: float = 5.15
    gr_dbi: float = 5.15
    c_mps: float = 3.0e8
    rssi_offset_db: float = 157.0  # register-to-dBm offset for 433 MHz operation

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ValueError(f"distance_m must be positive, got {self.distance_m!r}")
        if self.c_mps <= 0:
            raise ValueError(f"c_mps must be positive, got {self.c_mps!r}")
        if self.rssi_offset_db <= 0:
            raise ValueError(f"rssi_offset_db must be positive, got {self.rssi_offset_db!r}")


@dataclass(frozen=True)
class SignalSample:
    """A received-signal observation: mean RSSI and mean SNR."""

    rssi_dbm: float
    snr_db: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rssi_dbm) or not math.isfinite(self.snr_db):
            raise ValueError("rssi_dbm and snr_db must be finite")


def validate_measurement_grid(config: RadioConfig) -> None:
    """Accept exactly the supported 6x6x4 (SF, BW, CR) measurement grid.

    Transmit power and frequency are unconstrained. Raises
    GridValidationError naming the offending field otherwise.
    """
    if config.sf not in SF_VALUES:
        raise GridValidationError("sf", config.sf, SF_VALUES)
    if config.bw_hz not in BW_HZ_VALUES:
        raise GridValidationError("bw_hz", config.bw_hz, BW_HZ_VALUES)
    cr = config.cr
    if cr.den != 8 or cr.num not in CR_NUMERATORS:
        allowed = tuple(f"{n}/8" for n in CR_NUMERATORS)
        raise GridValidationError("cr", cr, allowed)


def format_decimal(value) -> str:
    """Render a number as a plain decimal string: no exponent, no trailing zeros."""
    dec = value if isinstance(value, Decimal) else Decimal(str(value))
    text = format(dec, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("", "-0"):
        return "0"
    return text


def _parse_decimal(text: str, what: str) -> Decimal:
    try:
        value = Decimal(text)
    except InvalidOperation as exc:
        raise ValueError(f"malformed {what}: {text!r}") from exc
    if not value.is_finite():
        raise ValueError(f"{what} must be finite, got {text!r}")
    return value


def hz_to_khz_str(bw_hz: float) -> str:
    """Exact Hz -> kHz decimal string (10400 -> '10.4')."""
    return format_decimal(Decimal(str(bw_hz)) / 1000)


def khz_str_to_hz(text: str) -> float:
    """Exact kHz decimal string -> Hz ('10.4' -> 10400)."""
    try:
        value = _parse_decimal(text, "bandwidth in kHz") * 1000
    except Overflow:
        raise ValueError(f"bandwidth out of range, got {text!r} kHz") from None
    if value <= 0:
        raise ValueError(f"bandwidth must be positive, got {text!r} kHz")
    ivalue = int(value)
    return ivalue if value == ivalue else float(value)


def config_to_text(config: RadioConfig) -> str:
    """Canonical one-line text form of a RadioConfig."""
    return (
        f"sf={config.sf}"
        f",bw_khz={hz_to_khz_str(config.bw_hz)}"
        f",cr={config.cr}"
        f",pt_dbm={format_decimal(config.tx_power_dbm)}"
        f",f_mhz={format_decimal(Decimal(str(config.freq_hz)) / 1_000_000)}"
    )


def config_from_text(text: str) -> RadioConfig:
    """Parse the canonical text form back into a RadioConfig."""
    pairs = {}
    for item in text.strip().split(","):
        if "=" not in item:
            raise ValueError(f"malformed config item {item!r} in {text!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    expected = ("sf", "bw_khz", "cr", "pt_dbm", "f_mhz")
    missing = [key for key in expected if key not in pairs]
    if missing:
        raise ValueError(f"config text missing field(s): {', '.join(missing)}")
    extra = [key for key in pairs if key not in expected]
    if extra:
        raise ValueError(f"config text has unknown field(s): {', '.join(extra)}")
    try:
        sf = int(pairs["sf"])
    except ValueError as exc:
        raise ValueError(f"malformed sf: {pairs['sf']!r}") from exc
    freq = float(_parse_decimal(pairs["f_mhz"], "frequency in MHz") * 1_000_000)
    return RadioConfig(
        sf=sf,
        bw_hz=khz_str_to_hz(pairs["bw_khz"]),
        cr=CodingRate.parse(pairs["cr"]),
        tx_power_dbm=float(_parse_decimal(pairs["pt_dbm"], "tx power in dBm")),
        freq_hz=freq,
    )
