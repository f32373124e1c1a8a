"""Independent references for the benchmark's checks.

Everything here is written from loralink's documented contracts (the
`tdma_sim` and `rng` module docstrings, the airtime formula in `phy_model`,
the budget chain in README and `link_budget`, the request-line format of
`uplink_bridge`) and from the bundled CSV files read as plain text. Nothing
here imports loralink, so a fault in the program cannot hide in its own
reference. Arithmetic is deliberately done another way where that is cheap:
airtime and slot lengths in exact fractions, timestamps through
`time.gmtime`, percent-encoding by hand.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

NS = 10**9
MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
FIRST_SYNC_WORD = 0xA001  # `loralink simulate` numbers its nodes from A001
GUARD_NS = 10_000_000  # the CLI's default --guard-s 0.01
SF_ORDER = (7, 8, 9, 10, 11, 12)
BW_ORDER = ("10.4", "20.8", "62.5", "125", "250", "500")
SWEEP_METRICS = ("rssi", "snr", "loss", "esp", "path_loss", "fsl", "excess")


# --- SplitMix64 and the TDMA timeline -------------------------------------

def mix(x: int) -> int:
    """SplitMix64 finalizer."""
    x &= MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def substream(seed: int, node: int, tag: int) -> int:
    return mix(seed + node * GOLDEN + tag)


def airtime(sf: int, bw_hz: int, payload_bytes: int = 2, preamble: int = 8) -> Fraction:
    """LoRa time on air in seconds, exact: CR 4/8, explicit header, CRC on."""
    t_sym = Fraction(2**sf, bw_hz)
    de = 1 if t_sym > Fraction(16, 1000) else 0
    numerator = 8 * payload_bytes - 4 * sf + 28 + 16
    payload_symbols = 8 + max(math.ceil(Fraction(numerator, 4 * (sf - 2 * de))) * 8, 0)
    return (preamble + Fraction(17, 4) + payload_symbols) * t_sym


@dataclass(frozen=True)
class Timeline:
    """The schedule `loralink simulate` derives for identical nodes."""

    nodes: int
    sf: int
    bw_hz: int
    duration_s: int

    @property
    def airtime_ns(self) -> int:
        return round(airtime(self.sf, self.bw_hz) * NS)

    @property
    def slot_ns(self) -> int:
        # default slot: twice the airtime, rounded up to a whole millisecond
        return math.ceil(2 * airtime(self.sf, self.bw_hz) * 1000) * 1_000_000

    @property
    def stride_ns(self) -> int:
        return self.slot_ns + GUARD_NS

    def slots_of(self, position: int) -> int:
        """Slots node `position` is given: k*period + position*stride < end."""
        first = position * self.stride_ns
        end = self.duration_s * NS
        return 0 if first >= end else (end - first - 1) // (self.nodes * self.stride_ns) + 1

    @property
    def events(self) -> int:
        return 5 * sum(self.slots_of(p) for p in range(self.nodes))


def sync_tag(position: int) -> str:
    return f"{FIRST_SYNC_WORD + position:04X}"


def plain_decimal(value: float) -> str:
    """Shortest round-trip decimal without exponent or trailing zeros."""
    text = format(Decimal(repr(value)), "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def report_lines(timeline: Timeline, drops: list[str], seed: int) -> Iterator[str]:
    """The report body (events, then per-node summary), line by line.

    Round-robin slots of stride slot+guard; per slot: slot_open, tx_start
    with the payload, tx_end and rx_ok/rx_drop after one airtime, and
    slot_close at the slot end. Node N's i-th payload is
    2 + mix(base + (i+1)*GOLDEN) % 399 with base = substream(seed, N, 2);
    its drop draws are the SplitMix64 stream seeded substream(seed, N, 1),
    dropping when top53(draw) / 2^53 < p.
    """
    n = timeline.nodes
    tags = [sync_tag(p) for p in range(n)]
    words = [FIRST_SYNC_WORD + p for p in range(n)]
    # u < p with u = k / 2^53 is k < p * 2^53, both sides exact
    limits = [float(p) * 2.0**53 for p in drops]
    states = [substream(seed, w, 1) for w in words]
    bases = [substream(seed, w, 2) for w in words]
    sent = [0] * n
    received = [0] * n
    air_ns, slot_ns, stride_ns = timeline.airtime_ns, timeline.slot_ns, timeline.stride_ns
    end_ns = timeline.duration_s * NS
    t_open, p = 0, 0
    while t_open < end_ns:
        tag = tags[p]
        payload = 2 + mix(bases[p] + (sent[p] + 1) * GOLDEN) % 399
        states[p] = (states[p] + GOLDEN) & MASK
        dropped = (mix(states[p]) >> 11) < limits[p]
        t_end = t_open + air_ns
        yield f"{t_open} slot_open {tag}"
        yield f"{t_open} tx_start {tag} {payload}"
        yield f"{t_end} tx_end {tag}"
        yield f"{t_end} {'rx_drop' if dropped else 'rx_ok'} {tag} {payload}"
        yield f"{t_open + slot_ns} slot_close {tag}"
        sent[p] += 1
        received[p] += not dropped
        p = p + 1 if p + 1 < n else 0
        t_open += stride_ns
    for p in range(n):
        lost = sent[p] - received[p]
        loss = plain_decimal(100 * lost / sent[p]) if sent[p] else "0"
        yield (f"node {tags[p]} sent={sent[p]} received={received[p]} "
               f"lost={lost} loss_pct={loss}")


# --- uplink request lines -------------------------------------------------

_UNRESERVED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~")


def percent_encode(text: str) -> str:
    return "".join(
        ch if ch in _UNRESERVED else "".join(f"%{b:02X}" for b in ch.encode("utf-8"))
        for ch in text
    )


def utc_stamp(unix_s: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(unix_s))


def request_lines(report: Iterable[str], key_map: dict[str, tuple[str, int]],
                  epoch_s: int) -> Iterator[str]:
    """One dry-run log line per rx_ok event of a report, in report order."""
    for raw in report:
        parts = raw.split()
        if len(parts) == 4 and parts[1] == "rx_ok":
            key, field = key_map[parts[2]]
            stamp = utc_stamp(epoch_s + int(parts[0]) // NS)
            yield (f"{stamp} UPLINK GET /update?api_key={percent_encode(key)}"
                   f"&field{field}={percent_encode(parts[3])}"
                   f"&created_at={percent_encode(stamp)}")


# --- fixture, budget chain and ranking ------------------------------------

@dataclass(frozen=True)
class Cell:
    sf: int
    bw: str  # kHz as written in the fixture
    rssi: float
    snr: float
    loss: float

    @property
    def bw_hz(self) -> int:
        return khz_to_hz(self.bw)


def khz_to_hz(text: str) -> int:
    return int(Decimal(text) * 1000)


def _csv_rows(path: Path) -> Iterator[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if line.strip() and not line.lstrip().startswith("#")]
    rows = csv.reader(lines)
    next(rows)  # header
    yield from rows


def read_fixture(path: Path) -> tuple[dict[tuple[int, str], Cell], list[tuple[int, str, str, float]]]:
    """Grid cells keyed by (sf, bw kHz text), and the coding-rate sweep rows."""
    grid: dict[tuple[int, str], Cell] = {}
    sweep: list[tuple[int, str, str, float]] = []
    for sf, bw, cr_num, cr_den, rssi, snr, loss in _csv_rows(path):
        if cr_num:
            sweep.append((int(sf), bw, f"{cr_num}/{cr_den}", float(snr)))
        else:
            grid[(int(sf), bw)] = Cell(int(sf), bw, float(rssi), float(snr), float(loss))
    return grid, sweep


def read_expected_grid(path: Path) -> dict[tuple[int, str], float]:
    return {
        (sf, row[0]): float(value)
        for row in _csv_rows(path)
        for sf, value in zip(SF_ORDER, row[1:])
    }


@dataclass(frozen=True)
class Link:
    pt: float = 20.0
    gt: float = 5.15
    gr: float = 5.15
    d: float = 5000.0
    f: float = 433e6
    c: float = 3e8


def budget(link: Link, rssi: float, snr: float) -> dict[str, float]:
    """ESP -> path loss -> Friis free-space loss -> excess, in dB/dBm."""
    esp = rssi + snr - 10 * math.log10(1 + 10 ** (snr / 10))
    path_loss = link.pt + link.gt + link.gr - esp
    fsl = 20 * math.log10(4 * math.pi * link.d * link.f / link.c)
    return {"esp": esp, "path_loss": path_loss, "fsl": fsl, "excess": path_loss - fsl}


def ranked_cells(grid: dict[tuple[int, str], Cell], link: Link, max_loss: float,
                 min_bw_hz: int, order: list[str]) -> list[tuple[Cell, float]]:
    """Feasible cells with their excess loss, best first.

    Ranking: the listed metrics in order (snr high first, excess_loss low
    first, rssi high first), then lower SF, then lower bandwidth.
    """
    feasible = [
        (cell, budget(link, cell.rssi, cell.snr)["excess"])
        for cell in grid.values()
        if cell.loss <= max_loss and cell.bw_hz >= min_bw_hz
    ]
    signed = {"snr": lambda c, x: -c.snr, "excess_loss": lambda c, x: x, "rssi": lambda c, x: -c.rssi}
    return sorted(
        feasible,
        key=lambda item: tuple(signed[m](*item) for m in order) + (item[0].sf, item[0].bw_hz),
    )


def coding_rate(sweep: list[tuple[int, str, str, float]], winner: Cell) -> tuple[str, str | None]:
    """CR to pair with the winner and the swept cell it comes from.

    A sweep at the winning cell is used if there is one, else the lowest
    swept cell; the best CR has the highest SNR (ties: lower rate).
    """
    cells = sorted({(sf, khz_to_hz(bw), bw) for sf, bw, _, _ in sweep})
    if not cells:
        return "4/8", None
    at = next(((sf, bw) for sf, hz, bw in cells if (sf, hz) == (winner.sf, winner.bw_hz)),
              (cells[0][0], cells[0][2]))
    rows = [(cr, snr) for sf, bw, cr, snr in sweep if (sf, bw) == at]
    best = min(rows, key=lambda r: (-r[1], Fraction(r[0])))
    return best[0], f"sf={at[0]},bw_khz={at[1]}"
