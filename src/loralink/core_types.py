"""Shared domain vocabulary: radio configurations, link constants, signal samples.

All values are plain immutable dataclasses. dB/dBm quantities are carried as
double-precision floats; bandwidth is stored in hertz internally while the
text formats speak kHz (exact decimal scaling, so 10.4 kHz is 10400 Hz with
no float residue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

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
            return cls(parse_int(num_text), parse_int(den_text))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"malformed coding rate {text!r}, expected <num>/<den>") from exc


@dataclass(frozen=True)
class RadioConfig:
    """One LoRa PHY configuration: the (SF, BW, CR) cell a measurement sweeps.

    Constructors accept any physically sane values; membership in the
    supported measurement grid is a separate check, see
    validate_measurement_grid(). Transmit power and carrier frequency are
    fixed for a whole link, so they live in LinkParams.
    """

    sf: int
    bw_hz: float
    cr: CodingRate

    def __post_init__(self) -> None:
        if not isinstance(self.sf, int) or self.sf < 1:
            raise ValueError(f"sf must be a positive integer, got {self.sf!r}")
        if self.bw_hz <= 0:
            raise ValueError(f"bw_hz must be positive, got {self.bw_hz!r}")


# Fixed constants of the 433 MHz field campaign behind the bundled fixture.
# The transmit power equals the transceiver maximum and is the unique value
# (on a 0.1 dB grid) that minimises the deviation of the reconstructed
# excess-loss grid from the published one; it is a dataset-level assumption,
# overridable per run.
CAMPAIGN_TX_POWER_DBM = 20.0
CAMPAIGN_FREQ_HZ = 433_000_000


@dataclass(frozen=True)
class LinkParams:
    """The constants of one link: transmit power, carrier, geometry and gains.

    Defaults mirror the 433 MHz field campaign behind the bundled fixtures:
    a ~5 km line-of-sight hop at the transceiver's 20 dBm maximum, with
    5.15 dBi quarter-wave monopoles on both ends. c is deliberately the
    rounded 3e8 m/s so derived grids are byte-stable; the exact value
    shifts free-space loss by ~0.006 dB.
    """

    tx_power_dbm: float = CAMPAIGN_TX_POWER_DBM
    gt_dbi: float = 5.15
    gr_dbi: float = 5.15
    distance_m: float = 5000.0
    freq_hz: float = CAMPAIGN_FREQ_HZ
    c_mps: float = 3.0e8

    def __post_init__(self) -> None:
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError("tx_power_dbm must be finite")
        if self.distance_m <= 0:
            raise ValueError(f"distance_m must be positive, got {self.distance_m!r}")
        if not (self.freq_hz > 0 and math.isfinite(self.freq_hz)):
            raise ValueError(f"freq_hz must be positive and finite, got {self.freq_hz!r}")
        if self.c_mps <= 0:
            raise ValueError(f"c_mps must be positive, got {self.c_mps!r}")


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

    Raises GridValidationError naming the offending field otherwise.
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


def hz_to_khz_str(bw_hz: float) -> str:
    """Exact Hz -> kHz decimal string (10400 -> '10.4')."""
    return format_decimal(Decimal(str(bw_hz)) / 1000)


def _plain_number_text(text: str) -> bool:
    # float() and Decimal() also read Python's digit separators and
    # non-ASCII digits ('1_2' and an Arabic-Indic one-two both as 12)
    return "_" not in text and text.isascii()


def parse_int(text: str) -> int:
    """A decimal integer from outside text: an optional '-', then ASCII digits.

    int() also reads a '+', surrounding whitespace, '_' separators and
    non-ASCII digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """A float from outside text: float() on ASCII text without '_'."""
    if not _plain_number_text(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


_KHZ_EXPONENT_LIMIT = 300


def khz_str_to_hz(text: str) -> float:
    """Exact kHz decimal string -> Hz ('10.4' -> 10400).

    ValueError for anything but a positive decimal number whose decimal
    exponent lies within +-300.
    """
    if not _plain_number_text(text):
        raise ValueError(f"malformed bandwidth in kHz: {text!r}")
    try:
        value = Decimal(text)
    except InvalidOperation as exc:
        raise ValueError(f"malformed bandwidth in kHz: {text!r}") from exc
    if not value.is_finite():
        raise ValueError(f"bandwidth in kHz must be finite, got {text!r}")
    # Hz are carried as a float (about 1e-308..1e308); the bound also keeps
    # int() below from building an integer of up to a million digits
    if not -_KHZ_EXPONENT_LIMIT <= value.adjusted() <= _KHZ_EXPONENT_LIMIT:
        raise ValueError(f"bandwidth in kHz out of range, got {text!r}")
    if value <= 0:
        raise ValueError(f"bandwidth must be positive, got {text!r} kHz")
    value *= 1000
    ivalue = int(value)
    return ivalue if value == ivalue else float(value)
