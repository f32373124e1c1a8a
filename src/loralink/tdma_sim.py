"""Deterministic discrete-event simulation of a single-gateway TDMA uplink.

Nodes are addressed by 16-bit sync words (rendered as 4 uppercase hex
digits) and transmit only inside their round-robin time slots, so
transmissions can never overlap. Virtual time is integer nanoseconds for
exact event ordering; every random choice flows through SplitMix64
substreams derived from the run seed (see loralink.rng for the exact
state-advance rule), which makes reports byte-reproducible:

  * drop decisions for node N:   substream (seed, N, tag=1), one uniform
    draw per transmission opportunity, drop when u < p;
  * synthetic payloads for node N: substream (seed, N, tag=2), reading i is
    2 + mix64(base + (i + 1) * GOLDEN64) % 399  (centimetres, 2..400),
    standing in for an ultrasonic range sensor.

Changing only the seed changes drop outcomes and payload values but never
the transmission timeline, which is fixed by the schedule: a SlotSchedule
holds the NodeSpecs in slot order, each with its own drop probability.

The pipeline streams: iter_events produces the timeline one event at a
time, report_lines turns any event stream into report text, and
iter_report reads report text back into events, so no stage holds more
than one event. iter_report checks every line but builds only the event
kinds its caller asks for: the uplink bridge asks for rx_ok alone.
run_simulation, serialize_report and parse_report are thin wrappers that
materialise those streams, every kind included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core_types import RadioConfig, format_decimal, parse_int
from .dataset import MeasurementTable, lookup
from .link_budget import packet_loss_pct
from .phy_model import FrameParams, time_on_air
from .rng import GOLDEN64, MASK64, SplitMix64, mix64, substream_seed

EVENT_KINDS = ("slot_open", "tx_start", "tx_end", "rx_ok", "rx_drop", "slot_close")

_DROP_STREAM_TAG = 1
_PAYLOAD_STREAM_TAG = 2

NS_PER_S = 1_000_000_000


class ScheduleConflictError(ValueError):
    """Two nodes share a sync word."""


class InfeasibleSlotError(ValueError):
    """A node's transmissions cannot fit inside the slot."""


def format_sync_word(sync_word: int) -> str:
    if not 0 <= sync_word <= 0xFFFF:
        raise ValueError(f"sync word must be a 16-bit value, got {sync_word!r}")
    return f"{sync_word:04X}"


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_sync_word(text: str) -> int:
    # int(text, 16) alone also takes a sign, a 0x prefix, underscores and
    # surrounding whitespace
    if len(text) != 4 or not _HEX_DIGITS.issuperset(text):
        raise ValueError(f"sync word must be exactly 4 hex digits, got {text!r}")
    return int(text, 16)


@dataclass(frozen=True)
class NodeSpec:
    """One sensor node: identity, radio configuration, frame shape, drop probability.

    payload_source maps a per-node frame index to an integer sensor
    reading; None selects the seeded synthetic generator described in the
    module docstring.
    """

    sync_word: int
    config: RadioConfig
    frame: FrameParams
    drop_probability: float = 0.0
    payload_source: Callable[[int], int] | None = None

    def __post_init__(self) -> None:
        name = format_sync_word(self.sync_word)  # raises for a value outside 16 bits
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(f"drop probability for {name} outside [0, 1]: "
                             f"{self.drop_probability!r}")


@dataclass(frozen=True)
class SlotSchedule:
    """Round-robin plan: one equal slot per node, in order, separated by guard time."""

    nodes: tuple[NodeSpec, ...]
    slot_duration_s: float
    guard_s: float

    def __post_init__(self) -> None:
        if not 0 < self.slot_duration_s < math.inf:
            raise ValueError(
                f"slot_duration_s must be positive and finite, got {self.slot_duration_s!r}"
            )
        if not 0 <= self.guard_s < math.inf:
            raise ValueError(f"guard_s must be finite and >= 0, got {self.guard_s!r}")
        if not self.nodes:
            raise ValueError("a schedule needs at least one node")
        seen: set[int] = set()
        for sync_word in (node.sync_word for node in self.nodes):
            if sync_word in seen:
                raise ScheduleConflictError(f"duplicate sync word {format_sync_word(sync_word)}")
            seen.add(sync_word)

    @property
    def period_s(self) -> float:
        return len(self.nodes) * (self.slot_duration_s + self.guard_s)


class SimEvent(NamedTuple):
    """One timeline event; detail is the sensor reading of tx_start, rx_ok and rx_drop."""

    t_ns: int
    kind: str
    sync_word: int
    detail: int | None = None


@dataclass(frozen=True)
class NodeStats:
    packets_sent: int
    packets_received: int
    packets_lost: int

    @property
    def measured_loss_pct(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return packet_loss_pct(self.packets_lost, self.packets_sent)


@dataclass(frozen=True)
class SimReport:
    """A whole simulation held in memory: event timeline plus per-node totals.

    run_simulation and parse_report build one from the iter_events and
    iter_report streams, for tests and library callers that want it all.
    """

    timeline: tuple[SimEvent, ...]
    stats: tuple[tuple[int, NodeStats], ...]  # (sync_word, stats) in schedule order

    def node_stats(self, sync_word: int) -> NodeStats:
        for word, stats in self.stats:
            if word == sync_word:
                return stats
        raise KeyError(f"no stats for sync word {format_sync_word(sync_word)}")


def default_slot_duration(nodes: Sequence[NodeSpec]) -> float:
    """Twice the longest node airtime, rounded up to a whole millisecond."""
    if not nodes:
        raise ValueError("need at least one node")
    longest = max(time_on_air(node.config, node.frame) for node in nodes)
    return math.ceil(2 * longest * 1000) / 1000


def default_payload_source(seed: int, sync_word: int) -> Callable[[int], int]:
    """Synthetic ultrasonic readings in cm, a pure function of (seed, node, index)."""
    base = substream_seed(seed, sync_word, _PAYLOAD_STREAM_TAG)

    def reading(index: int) -> int:
        return 2 + mix64((base + (index + 1) * GOLDEN64) & MASK64) % 399

    return reading


def drop_model_from_table(table: MeasurementTable, config: RadioConfig) -> float:
    """Loss probability of a configuration, from its measured cell."""
    cell = lookup(table, config.sf, config.bw_hz, require=("loss_pct",))
    return cell.loss_pct / 100.0


def iter_events(schedule: SlotSchedule, duration_s: float, seed: int, *,
                frames_per_slot: int = 1, handshake_s: float = 0.0,
                stats: list[tuple[int, NodeStats]] | None = None) -> Iterator[SimEvent]:
    """Check a run, then return the generator of its timeline events.

    The virtual clock runs from 0 to duration_s. Every slot that opens
    before duration_s runs to completion. Within a slot the owning node
    sends frames_per_slot frames back to back after an optional fixed
    handshake latency; each reception is independently dropped with the
    node's drop_probability. Identical inputs (seed included) produce an
    identical stream.

    Every check raises here, before the first event exists. When the
    generator is exhausted it appends (sync_word, NodeStats) for each node,
    in schedule order, to `stats` if one is given. Memory does not grow
    with duration_s.
    """
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be positive and finite, got {duration_s!r}")
    if frames_per_slot < 1:
        raise ValueError(f"frames_per_slot must be >= 1, got {frames_per_slot!r}")
    if not 0 <= handshake_s < math.inf:
        raise ValueError(f"handshake_s must be finite and >= 0, got {handshake_s!r}")
    slot_ns = round(schedule.slot_duration_s * NS_PER_S)
    handshake_ns = round(handshake_s * NS_PER_S)
    # one entry per slot position: sync word, payload source, airtime in ns,
    # drop draw, drop probability
    plan = []
    for node in schedule.nodes:
        sync = node.sync_word
        airtime_ns = round(time_on_air(node.config, node.frame) * NS_PER_S)
        if handshake_ns + frames_per_slot * airtime_ns > slot_ns:
            raise InfeasibleSlotError(
                f"node {format_sync_word(sync)}: handshake plus {frames_per_slot} "
                f"frame(s) of {airtime_ns} ns exceed the {slot_ns} ns slot"
            )
        plan.append((sync, node.payload_source or default_payload_source(seed, sync), airtime_ns,
                     SplitMix64(substream_seed(seed, sync, _DROP_STREAM_TAG)).next_unit,
                     node.drop_probability))
    stride_ns = slot_ns + round(schedule.guard_s * NS_PER_S)
    return _timeline(plan, slot_ns, stride_ns, handshake_ns, round(duration_s * NS_PER_S),
                     frames_per_slot, stats)


def _timeline(plan, slot_ns, stride_ns, handshake_ns, duration_ns, frames_per_slot, stats):
    sent = [0] * len(plan)
    received = [0] * len(plan)
    position = open_ns = 0
    while open_ns < duration_ns:
        sync, payload_of, airtime_ns, draw, p = plan[position]
        yield SimEvent(open_ns, "slot_open", sync)
        t = open_ns + handshake_ns
        for _ in range(frames_per_slot):
            payload = payload_of(sent[position])
            sent[position] += 1
            yield SimEvent(t, "tx_start", sync, payload)
            t += airtime_ns
            yield SimEvent(t, "tx_end", sync)
            if draw() < p:
                yield SimEvent(t, "rx_drop", sync, payload)
            else:
                received[position] += 1
                yield SimEvent(t, "rx_ok", sync, payload)
        yield SimEvent(open_ns + slot_ns, "slot_close", sync)
        open_ns += stride_ns
        position += 1
        if position == len(plan):
            position = 0
    if stats is not None:
        stats.extend(
            (entry[0], NodeStats(n_sent, n_received, n_sent - n_received))
            for entry, n_sent, n_received in zip(plan, sent, received)
        )


def run_simulation(schedule: SlotSchedule, duration_s: float, seed: int, *,
                   frames_per_slot: int = 1, handshake_s: float = 0.0) -> SimReport:
    """The whole of iter_events(...) held in memory as a SimReport."""
    stats: list[tuple[int, NodeStats]] = []
    timeline = tuple(iter_events(schedule, duration_s, seed, frames_per_slot=frames_per_slot,
                                 handshake_s=handshake_s, stats=stats))
    return SimReport(timeline=timeline, stats=tuple(stats))


def summary_line(sync_word: int, stats: NodeStats) -> str:
    """A node's summary line, as a report ends with and `simulate` echoes."""
    return (
        f"node {format_sync_word(sync_word)} sent={stats.packets_sent} "
        f"received={stats.packets_received} lost={stats.packets_lost} "
        f"loss_pct={format_decimal(stats.measured_loss_pct)}"
    )


def report_lines(
    events: Iterable[SimEvent], stats: Iterable[tuple[int, NodeStats]]
) -> Iterator[str]:
    """The text form of a report, one newline-terminated line at a time.

    One line per event, then one summary line per node. `stats` is read
    only after the last event, so it may be the list that iter_events
    fills as it is exhausted. Byte-stable for identical inputs.
    """
    names: dict[int, str] = {}
    for t_ns, kind, sync, detail in events:
        name = names.get(sync)
        if name is None:
            name = names[sync] = format_sync_word(sync)
        if detail is None:
            yield f"{t_ns} {kind} {name}\n"
        else:
            yield f"{t_ns} {kind} {name} {detail}\n"
    for sync, node in stats:
        yield summary_line(sync, node) + "\n"


def serialize_report(report: SimReport) -> str:
    """The whole of report_lines for a SimReport, as one string."""
    return "".join(report_lines(report.timeline, report.stats))


def _add_summary(summary: dict[int, tuple[int, NodeStats]], parts: list[str],
                 line_no: int, raw: str) -> tuple[int, NodeStats]:
    """Parse one 'node' line into summary (sync -> (line_no, stats))."""
    line = raw.strip()
    if len(parts) != 6:
        raise ValueError(f"line {line_no}: malformed summary line {line!r}")
    sync = parse_sync_word(parts[1])
    fields = dict(part.partition("=")[::2] for part in parts[2:])
    try:
        node = NodeStats(
            packets_sent=parse_int(fields["sent"]),
            packets_received=parse_int(fields["received"]),
            packets_lost=parse_int(fields["lost"]),
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(f"line {line_no}: malformed summary line {line!r}") from exc
    if sync in summary:
        raise ValueError(
            f"line {line_no}: second summary line for node {format_sync_word(sync)}"
        )
    summary[sync] = (line_no, node)
    return sync, node


def read_summary(lines: Iterable[str]) -> dict[int, NodeStats]:
    """The per-node summary of a serialized report, in file order.

    Reads only the 'node' lines, so it is a cheap first pass over a report
    that iter_report then streams; the events are not parsed or checked.
    """
    summary: dict[int, tuple[int, NodeStats]] = {}
    for line_no, raw in enumerate(lines, start=1):
        if "node" in raw:
            parts = raw.split()
            if parts[0] == "node":
                _add_summary(summary, parts, line_no, raw)
    return {sync: node for sync, (_, node) in summary.items()}


def iter_report(
    lines: Iterable[str], stats: list[tuple[int, NodeStats]] | None = None, *,
    kinds: Iterable[str] = EVENT_KINDS,
) -> Iterator[SimEvent]:
    """Check `kinds`, then return the generator of a serialized report's
    events of those kinds, parsed and checked line by line.

    Every line is checked, whatever its kind; only the events of `kinds`
    are built and yielded. Comment lines starting with '#' and blank
    lines are ignored. Summary lines are appended to `stats`, if given, as
    they are read. A name in `kinds` that is no event kind raises
    ValueError here, before any line is read. The generator raises
    ValueError when a line is malformed (numbers are ASCII digits, with no
    '_' or '+'), a timestamp decreases, an event follows the summary block,
    or the summary block (when there is one) misses a node that has
    events, repeats a node, or disagrees with the events: sent must be the
    node's tx_start count, received its rx_ok count and lost their
    difference.
    """
    wanted = frozenset(kinds)
    if not wanted.issubset(EVENT_KINDS):
        unknown = sorted(wanted.difference(EVENT_KINDS))
        raise ValueError(f"unknown event kind(s) {unknown}; expected some of {EVENT_KINDS}")
    return _report_events(lines, stats, wanted)


def _report_events(lines, stats, wanted):
    summary: dict[int, tuple[int, NodeStats]] = {}
    words: dict[str, tuple[int, list[int]]] = {}  # sync text -> (sync, [sent, received])
    tallies: dict[int, list[int]] = {}
    last_t = 0
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "node":
            sync, node = _add_summary(summary, parts, line_no, raw)
            if stats is not None:
                stats.append((sync, node))
            continue
        if summary:
            raise ValueError(f"line {line_no}: event line after the summary block {raw.strip()!r}")
        if len(parts) == 4:
            t_text, kind, sync_text, detail_text = parts
            try:
                detail = int(detail_text)
            except ValueError as exc:
                raise ValueError(f"line {line_no}: malformed detail {detail_text!r}") from exc
        elif len(parts) == 3:
            t_text, kind, sync_text = parts
            detail = None
        else:
            raise ValueError(f"line {line_no}: malformed event line {raw.strip()!r}")
        if kind not in EVENT_KINDS:
            raise ValueError(f"line {line_no}: unknown event kind {kind!r}")
        # int() would read '1_15' and '+115' as 115 and non-ASCII digits as
        # ASCII ones; parts[-1] is the detail, or a sync word that cannot
        # hold a '_'
        if "_" in t_text or "_" in parts[-1] or "+" in raw or not raw.isascii():
            raise ValueError(f"line {line_no}: malformed number in {raw.strip()!r}")
        try:
            t_ns = int(t_text)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: malformed timestamp {t_text!r}") from exc
        if t_ns < last_t:
            raise ValueError(f"line {line_no}: timestamp {t_ns} is earlier than {last_t}")
        last_t = t_ns
        word = words.get(sync_text)
        if word is None:
            sync = parse_sync_word(sync_text)
            word = words[sync_text] = (sync, tallies.setdefault(sync, [0, 0]))
        sync, tally = word
        if kind == "tx_start":
            tally[0] += 1
        elif kind == "rx_ok":
            tally[1] += 1
        if kind in wanted:
            yield SimEvent(t_ns, kind, sync, detail)
    if summary:
        _check_summary(summary, tallies)


def _check_summary(summary: dict[int, tuple[int, NodeStats]],
                   tallies: dict[int, list[int]]) -> None:
    for sync in tallies:
        if sync not in summary:
            raise ValueError(
                f"node {format_sync_word(sync)} has events but no summary line"
            )
    for sync, (line_no, node) in summary.items():
        sent, received = tallies.get(sync, (0, 0))
        claimed = (node.packets_sent, node.packets_received, node.packets_lost)
        if claimed != (sent, received, sent - received):
            raise ValueError(
                f"line {line_no}: summary of node {format_sync_word(sync)} says "
                f"sent={claimed[0]} received={claimed[1]} lost={claimed[2]}, its events "
                f"give sent={sent} received={received} lost={sent - received}"
            )


def parse_report(text: str | Iterable[str]) -> SimReport:
    """The whole of iter_report for a report text (or its lines) as a SimReport."""
    lines = text.splitlines() if isinstance(text, str) else text
    stats: list[tuple[int, NodeStats]] = []
    timeline = tuple(iter_report(lines, stats))
    return SimReport(timeline=timeline, stats=tuple(stats))
