"""Link-budget chain: packet loss, ESP, and the path-loss/FSL/excess budget.

Everything here is a pure function over immutable inputs. All logarithms are
base-10 double precision.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterable, NamedTuple

from .core_types import LinkParams, SignalSample


class LossBreakdown(NamedTuple):
    """Budget attribution for one received sample.

    excess_db is path_loss_db - fsl_db by construction: the part of the
    attenuation not explained by ideal free-space propagation (environment,
    hardware, multipath).
    """

    esp_dbm: float
    path_loss_db: float
    fsl_db: float
    excess_db: float


def packet_loss_pct(lost: int, sent: int) -> float:
    """Packet loss as a percentage of packets sent."""
    if not 0 < sent < math.inf:
        raise ValueError(f"loss percentage undefined: sent={sent!r}")
    if not 0 <= lost <= sent:
        raise ValueError(f"inconsistent counts: lost={lost!r} of sent={sent!r}")
    return 100 * lost / sent


def esp(sample: SignalSample) -> float:
    """Effective signal power in dBm: received power attributable to the
    signal alone, after removing the noise contribution bundled into RSSI.

    ESP = RSSI + SNR - 10*log10(1 + 10^(0.1*SNR)): below RSSI, by less than
    float resolution once SNR is large. A positive SNR takes the equal form
    RSSI - 10*log10(1 + 10^(-0.1*SNR)), whose power cannot overflow.
    """
    snr = sample.snr_db
    if snr > 0:
        return sample.rssi_dbm - 10 * math.log10(1 + 10 ** (-0.1 * snr))
    return sample.rssi_dbm + snr - 10 * math.log10(1 + 10 ** (0.1 * snr))


def free_space_loss(distance_m: float, freq_hz: float, c_mps: float) -> float:
    """Free-space loss in dB from the Friis relation.

    FSL = 20*log10(d) + 20*log10(f) - 20*log10(c) + 20*log10(4*pi).
    """
    for name, value in (("distance_m", distance_m), ("freq_hz", freq_hz), ("c_mps", c_mps)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return (
        20 * math.log10(distance_m)
        + 20 * math.log10(freq_hz)
        - 20 * math.log10(c_mps)
        + 20 * math.log10(4 * math.pi)
    )


def loss_breakdowns(link: LinkParams, esps: Iterable[float]) -> list[LossBreakdown]:
    """The budget chain of each ESP over one link: path loss -> FSL -> excess.

    The link's gains and free-space loss are computed once for all ESPs.
    ValueError for the first budget whose terms leave the float range
    (finite inputs near 1e308 can sum to an infinity).
    """
    gains = link.tx_power_dbm + link.gt_dbi + link.gr_dbi
    fsl_db = free_space_loss(link.distance_m, link.freq_hz, link.c_mps)
    breakdown = partial(tuple.__new__, LossBreakdown)  # LossBreakdown(...) minus its Python-level call
    breakdowns = [breakdown((esp_dbm, gains - esp_dbm, fsl_db, gains - esp_dbm - fsl_db))
                  for esp_dbm in esps]
    # fsl_db is finite for a valid LinkParams, and an infinite ESP or path
    # loss leaves excess_db infinite or NaN
    for budget in breakdowns:
        if not math.isfinite(budget.excess_db):
            raise ValueError(f"link budget leaves the float range: {budget}")
    return breakdowns


def loss_breakdown(link: LinkParams, sample: SignalSample) -> LossBreakdown:
    """Full budget for one sample: ESP -> path loss -> FSL -> excess.

    ValueError when a term leaves the float range.
    """
    return loss_breakdowns(link, (esp(sample),))[0]
