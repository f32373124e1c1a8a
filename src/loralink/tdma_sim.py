"""Deterministic discrete-event simulation of a single-gateway TDMA uplink.

Nodes are addressed by 16-bit sync words (rendered as 4 uppercase hex
digits) and transmit only inside their round-robin time slots, so
transmissions can never overlap. Virtual time is integer nanoseconds for
exact event ordering; every random choice flows through SplitMix64
substreams derived from the run seed (see loralink.rng for the exact
state-advance rule), which makes reports byte-reproducible:

  * drop decisions for node N: substream (seed, N, tag=1) gives drop_seed; the
    node's n-th frame draws u = (mix64(drop_seed + n * GOLDEN64) >> 11) / 2^53,
    output n of that SplitMix64 stream, and is dropped when u < p;
  * payloads for node N: substream (seed, N, tag=2) gives base, and the
    node's n-th frame (n from 1) carries 2 + mix64(base + n * GOLDEN64) % 399
    (centimetres, 2..400), standing in for an ultrasonic range sensor.

Each kind of draw comes from one rng.interleave(), which yields the outputs
above in the order the slots take them (round by round, node by node, frame
by frame; a node with p = 0 takes no drop draws) and computes them at least
rng.BLOCK at a time, as the horizon allows.

Changing only the seed changes drop outcomes and payload values but never
the transmission timeline, which is fixed by the schedule: a SlotSchedule
holds the NodeSpecs in slot order, each with its own drop probability.

The pipeline streams, one slot at a time. iter_slots produces the timeline
as slot records, whose shape is a string with one letter per report line
(see _LINES). report_lines writes each record with one %-template from a
bounded memo keyed by (sync word, shape), and yields about
REPORT_BATCH_LINES lines per string. iter_events flattens records into the
events of the kinds asked for; simulate bridges the rx_ok events of the
records that report_lines writes, in one pass. iter_report reads report
text back into events: a text file in blocks of whole lines, which one
findall per block tiles into one-frame slots, each taken whole, and single
lines, each checked on its own; any other iterable one item per line. It
builds only the event kinds its caller asks for: the uplink bridge asks
for rx_ok alone.
run_simulation, serialize_report and parse_report are thin wrappers that
materialise those streams, every kind included.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, partial
from itertools import cycle, islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .core_types import RadioConfig, Value, format_decimal, parse_int
from .link_budget import packet_loss_pct
from .phy_model import FrameParams, time_on_air
from . import rng  # run on the first iter_slots call, so a report reader never runs it

if TYPE_CHECKING:
    from .dataset import MeasurementTable

EVENT_KINDS = ("slot_open", "tx_start", "tx_end", "rx_ok", "rx_drop", "slot_close")

_DROP_STREAM_TAG = 1
_PAYLOAD_STREAM_TAG = 2

NS_PER_S = 1_000_000_000

# One letter per report line: its (kind, carries_detail), upper case when it
# carries one. A record's shape is a string of them: a str caches its hash, so
# the template memo hashes a shape once, not once per lookup.
_LINES = {letter: (kind, letter.isupper())
          for kind, code in zip(EVENT_KINDS, "osekdc") for letter in (code, code.upper())}
_LETTERS = {line: letter for letter, line in _LINES.items()}
# a slot's shape is _OPEN, a frame's letters per frame, _CLOSE: "oSeKc" for one received frame
_OPEN, _FRAME_OK, _FRAME_DROP, _CLOSE = "o", "SeK", "SeD", "c"
TEMPLATE_MEMO_SIZE = 256  # report templates kept, one per (sync word, shape)
TEMPLATE_MEMO_LINES = 200  # longer templates are rebuilt per slot, so the memo stays small
# lines per string that report_lines and DryRunTransport.send_all write; no reader uses it
REPORT_BATCH_LINES = 1000
REPORT_READ_CHARS = 64 * 1024  # characters per read when a report is read from a text file


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


class NodeSpec(Value):
    """One sensor node: identity, radio configuration, frame shape, drop probability.

    Its payloads are the seeded readings described in the module docstring.
    """

    __slots__ = ("sync_word", "config", "frame", "drop_probability")

    def __init__(self, sync_word: int, config: RadioConfig, frame: FrameParams,
                 drop_probability: float = 0.0) -> None:
        name = format_sync_word(sync_word)  # raises for a value outside 16 bits
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop probability for {name} outside [0, 1]: "
                             f"{drop_probability!r}")
        self._store(sync_word, config, frame, drop_probability)


class SlotSchedule(Value):
    """Round-robin plan: one equal slot per node, in order, separated by guard time."""

    __slots__ = ("nodes", "slot_duration_s", "guard_s")

    def __init__(self, nodes: tuple[NodeSpec, ...], slot_duration_s: float,
                 guard_s: float) -> None:
        if not 0 < slot_duration_s < math.inf:
            raise ValueError(
                f"slot_duration_s must be positive and finite, got {slot_duration_s!r}"
            )
        if not 0 <= guard_s < math.inf:
            raise ValueError(f"guard_s must be finite and >= 0, got {guard_s!r}")
        if not nodes:
            raise ValueError("a schedule needs at least one node")
        seen: set[int] = set()
        for sync_word in (node.sync_word for node in nodes):
            if sync_word in seen:
                raise ScheduleConflictError(f"duplicate sync word {format_sync_word(sync_word)}")
            seen.add(sync_word)
        self._store(nodes, slot_duration_s, guard_s)


class SimEvent(NamedTuple):
    """One timeline event; detail is the sensor reading of tx_start, rx_ok and rx_drop."""

    t_ns: int
    kind: str
    sync_word: int
    detail: int | None = None


SlotRecord = tuple[int, str, tuple[int, ...]]  # (sync word, shape letters, values)


class NodeStats(Value):
    """A node's packet tally: sent and received counts; lost is their difference."""

    __slots__ = ("packets_sent", "packets_received")

    def __init__(self, packets_sent: int, packets_received: int) -> None:
        if not 0 <= packets_received <= packets_sent:
            raise ValueError(f"inconsistent counts: received={packets_received!r} "
                             f"of sent={packets_sent!r}")
        self._store(packets_sent, packets_received)

    @property
    def packets_lost(self) -> int:
        return self.packets_sent - self.packets_received

    @property
    def measured_loss_pct(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return packet_loss_pct(self.packets_lost, self.packets_sent)


class SimReport(Value):
    """A whole simulation held in memory: event timeline plus per-node totals.

    run_simulation and parse_report build one from the iter_events and
    iter_report streams, for tests and library callers that want it all.
    """

    __slots__ = ("timeline", "stats")

    def __init__(self, timeline: tuple[SimEvent, ...],
                 stats: tuple[tuple[int, NodeStats], ...]) -> None:
        self._store(timeline, stats)  # stats: (sync_word, stats) in schedule order


def default_slot_duration(nodes: Sequence[NodeSpec]) -> float:
    """Twice the longest node airtime, rounded up to a whole millisecond."""
    if not nodes:
        raise ValueError("need at least one node")
    pairs = dict.fromkeys((node.config, node.frame) for node in nodes)  # each distinct once
    longest = max(time_on_air(config, frame) for config, frame in pairs)
    slot_ms = 2 * longest * 1000
    if not math.isfinite(slot_ms):
        raise ValueError(f"twice the longest airtime, {longest!r} s, is too long for a slot")
    return math.ceil(slot_ms) / 1000


def drop_model_from_table(table: MeasurementTable, config: RadioConfig) -> float:
    """Loss probability of a configuration, from its measured cell."""
    from .dataset import lookup  # a run with explicit drops never reads a table

    cell = lookup(table, config.sf, config.bw_hz, require=("loss_pct",))
    return cell.loss_pct / 100.0


def _ns(seconds: float, name: str) -> int:
    """seconds in whole nanoseconds; ValueError where that count is not finite."""
    ns = seconds * NS_PER_S
    if not math.isfinite(ns):
        raise ValueError(f"{name} of {seconds!r} s is too long to count in nanoseconds")
    return round(ns)


def iter_slots(schedule: SlotSchedule, duration_s: float, seed: int, *,
               frames_per_slot: int = 1, handshake_s: float = 0.0,
               stats: list[tuple[int, NodeStats]] | None = None) -> Iterator[SlotRecord]:
    """Check a run, then return the generator of its slot records.

    The virtual clock runs from 0 to duration_s. Every slot that opens
    before duration_s runs to completion. Within a slot the owning node
    sends frames_per_slot frames back to back after an optional fixed
    handshake latency; each reception is independently dropped with the
    node's drop_probability. Identical inputs (seed included, in
    0..2**64 - 1) produce an identical stream.

    A record is (sync_word, shape, values), one per slot: shape is a str
    with one letter per event of the slot, in order, each naming a (kind,
    carries_detail) pair ("oSeKc" for a slot of one received frame; see
    _LINES), and values the slot's integers in line order (each event's
    t_ns, then its detail if it carries one). A frame is dropped when its
    drop draw x is below ceil(p * 2**53) << 11, which holds exactly when
    (x >> 11) / 2**53 < p. Every check raises here, before the first record
    exists. When the generator is exhausted it appends (sync_word,
    NodeStats) for each node, in schedule order, to `stats` if one is
    given. Memory does not grow with duration_s.
    """
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be positive and finite, got {duration_s!r}")
    if frames_per_slot < 1:
        raise ValueError(f"frames_per_slot must be >= 1, got {frames_per_slot!r}")
    if not 0 <= seed <= rng.MASK64:  # substream_seed reads a seed mod 2**64
        raise ValueError(f"seed must be in 0..2**64 - 1, got {seed!r}")
    if not 0 <= handshake_s < math.inf:
        raise ValueError(f"handshake_s must be finite and >= 0, got {handshake_s!r}")
    slot_ns = _ns(schedule.slot_duration_s, "slot_duration_s")
    handshake_ns = _ns(handshake_s, "handshake_s")
    plan = []  # one entry per slot position: sync word, airtime in ns, drop limit, [sent, received]
    airtimes: dict[tuple[RadioConfig, FrameParams], int] = {}  # one per distinct pair
    for node in schedule.nodes:
        sync = node.sync_word
        pair = node.config, node.frame
        airtime_ns = airtimes.get(pair)
        if airtime_ns is None:
            airtime_ns = airtimes[pair] = _ns(time_on_air(*pair),
                                              f"node {format_sync_word(sync)} airtime")
        if handshake_ns + frames_per_slot * airtime_ns > slot_ns:
            raise InfeasibleSlotError(
                f"node {format_sync_word(sync)}: handshake plus {frames_per_slot} "
                f"frame(s) of {airtime_ns} ns exceed the {slot_ns} ns slot"
            )
        # draw x drops its frame when (x >> 11) / 2**53 < p, exactly when x < limit
        plan.append((sync, airtime_ns, math.ceil(node.drop_probability * 2.0 ** 53) << 11, [0, 0]))
    stride_ns = slot_ns + _ns(schedule.guard_s, "guard_s")
    duration_ns = _ns(duration_s, "duration_s")
    # Slots open in turn at 0, stride_ns, ... before duration_ns: a node opens
    # at most `rounds`, and when there are fewer slots than nodes only the
    # first `slots` nodes open one. Every frame draws a payload, and a drop
    # unless the node's p is 0 (p is fixed per node).
    slots = -(-duration_ns // stride_ns)
    rounds, drawing = -(-slots // len(plan)), plan[:slots]
    payloads = rng.interleave([rng.substream_seed(seed, sync, _PAYLOAD_STREAM_TAG)
                               for sync, *_ in drawing], frames_per_slot, rounds)
    drops = rng.interleave([rng.substream_seed(seed, sync, _DROP_STREAM_TAG)
                            for sync, _, limit, _ in drawing if limit], frames_per_slot, rounds)
    return _slots(plan, payloads.__next__, drops.__next__, slot_ns, stride_ns, handshake_ns,
                  duration_ns, frames_per_slot, stats)


def _slots(plan, next_payload, next_drop, slot_ns, stride_ns, handshake_ns, duration_ns,
           frames_per_slot, stats):
    frames = range(frames_per_slot)
    # slots open at 0, stride_ns, ... before duration_ns, round by round, node by node
    for open_ns, (sync, airtime_ns, limit, tally) in zip(range(0, duration_ns, stride_ns),
                                                          cycle(plan)):
        shape, values = [_OPEN], [open_ns]  # lists, so a slot costs time linear in frames
        t = open_ns + handshake_ns
        received = 0
        for _ in frames:
            payload = 2 + next_payload() % 399
            end = t + airtime_ns
            # a node with p = 0 takes no drop draw, and any other one a frame
            if limit and next_drop() < limit:
                shape.append(_FRAME_DROP)
            else:
                received += 1
                shape.append(_FRAME_OK)
            values += (t, payload, end, end, payload)
            t = end
        shape.append(_CLOSE)
        values.append(open_ns + slot_ns)
        tally[0] += frames_per_slot
        tally[1] += received
        yield sync, "".join(shape), tuple(values)
    if stats is not None:
        stats.extend((sync, NodeStats(*tally)) for sync, _, _, tally in plan)


def iter_events(slots: Iterable[SlotRecord], *,
                kinds: Iterable[str] = EVENT_KINDS) -> Iterator[SimEvent]:
    """Check `kinds`, then return the generator of the events of those kinds
    in slot records, such as iter_slots yields, in record order.

    Each letter of a record's shape is one event; only the events of `kinds`
    are built. A name in `kinds` that is no event kind raises ValueError
    here, before any record is read.
    """
    return _events(slots, _wanted(kinds))


def _events(slots, wanted):
    event = partial(tuple.__new__, SimEvent)  # SimEvent(...) minus its Python-level call
    # letter -> (kind, carries_detail, whether it is built)
    lines = {letter: (*line, line[0] in wanted) for letter, line in _LINES.items()}.__getitem__
    for sync, shape, values in slots:
        value = iter(values).__next__
        for kind, carries_detail, built in map(lines, shape):
            t_ns = value()
            detail = value() if carries_detail else None
            if built:
                yield event((t_ns, kind, sync, detail))


def run_simulation(schedule: SlotSchedule, duration_s: float, seed: int, *,
                   frames_per_slot: int = 1, handshake_s: float = 0.0) -> SimReport:
    """The whole of iter_events(iter_slots(...)) held in memory as a SimReport."""
    stats: list[tuple[int, NodeStats]] = []
    slots = iter_slots(schedule, duration_s, seed, frames_per_slot=frames_per_slot,
                       handshake_s=handshake_s, stats=stats)
    return SimReport(timeline=tuple(iter_events(slots)), stats=tuple(stats))


def summary_line(sync_word: int, stats: NodeStats) -> str:
    """A node's summary line, as a report ends with and `simulate` echoes."""
    return (
        f"node {format_sync_word(sync_word)} sent={stats.packets_sent} "
        f"received={stats.packets_received} lost={stats.packets_lost} "
        f"loss_pct={format_decimal(stats.measured_loss_pct)}"
    )


@lru_cache(maxsize=TEMPLATE_MEMO_SIZE)
def _template(sync_word: int, shape: str) -> str:
    """The %-template of one slot record's lines; values fill its %s fields."""
    name = format_sync_word(sync_word)
    return "".join(f"%s {kind} {name}{' %s' if carries_detail else ''}\n"
                   for kind, carries_detail in map(_LINES.__getitem__, shape))


def report_lines(
    slots: Iterable[SlotRecord], stats: Iterable[tuple[int, NodeStats]]
) -> Iterator[str]:
    """The text form of a report: its records' lines in strings of about
    REPORT_BATCH_LINES lines each, then one summary line per node, every
    line newline-terminated.

    A record's lines are `t_ns kind SYNC` or `t_ns kind SYNC detail`, one
    per letter of its shape. The first record is a string of its own; each
    later string holds as many records as fit in REPORT_BATCH_LINES lines at
    the first record's line count, and at least one. Each distinct (sync
    word, shape) is written by one %-template from a memo of at most
    TEMPLATE_MEMO_SIZE entries of at most TEMPLATE_MEMO_LINES lines; a
    longer one is built anew. `stats` is read only after the last record,
    so it may be the list that iter_slots fills as it is exhausted. An
    event stream is written through event_records. Byte-stable for
    identical inputs, whatever the batch size.
    """
    memo, anew = _template, _template.__wrapped__
    records, batch = iter(slots), 1
    while chunk := [*islice(records, batch)]:
        yield "".join([(memo if len(shape) <= TEMPLATE_MEMO_LINES else anew)(sync, shape) % values
                       for sync, shape, values in chunk])
        batch = REPORT_BATCH_LINES // (len(chunk[0][1]) or 1) or 1
    for sync, node in stats:
        yield summary_line(sync, node) + "\n"


def event_records(events: Iterable[SimEvent]) -> Iterator[SlotRecord]:
    """Each event as a one-line record for report_lines, detail or not.

    An event whose kind is not in EVENT_KINDS raises ValueError, before its
    record, and so its line, exists.
    """
    for t_ns, kind, sync, detail in events:
        letter = _LETTERS.get((kind, detail is not None))
        if letter is None:
            raise ValueError(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
        yield sync, letter, (t_ns,) if detail is None else (t_ns, detail)


def serialize_report(report: SimReport) -> str:
    """The whole of report_lines for a SimReport, as one string."""
    return "".join(report_lines(event_records(report.timeline), report.stats))


def _add_summary(summary: dict[int, tuple[int, NodeStats]], parts: list[str],
                 line_no: int, raw: str) -> tuple[int, NodeStats]:
    """Parse one 'node' line into summary (sync -> (line_no, stats)).

    The sent and received counts must satisfy 0 <= received <= sent, and
    the line must be what summary_line writes for them, token for token:
    the sync word in uppercase, each count as str(n), lost and loss_pct
    from the two counts.
    """
    line = raw.strip()
    if len(parts) != 6:
        raise ValueError(f"line {line_no}: malformed summary line {line!r}")
    try:
        sync = parse_sync_word(parts[1])
        node = NodeStats(*(parse_int(part.partition("=")[2]) for part in parts[2:4]))
        if summary_line(sync, node).split() != parts:
            raise ValueError("not the line summary_line writes")
    except ValueError as exc:
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
    that iter_report then streams; the events are not parsed or checked. A
    text file is read as iter_report reads it, and only a block that holds
    "node" is split into lines.
    """
    summary: dict[int, tuple[int, NodeStats]] = {}
    line_no = 0
    for block in _blocks(lines):
        if isinstance(block, str) and "node" not in block:
            line_no += block.count("\n")
            continue
        for line_no, raw in enumerate(_lines(block), line_no + 1):
            if "node" in raw and (parts := raw.split())[0] == "node":
                _add_summary(summary, parts, line_no, raw)
    return {sync: node for sync, (_, node) in summary.items()}


def iter_report(
    lines: Iterable[str], stats: list[tuple[int, NodeStats]] | None = None, *,
    kinds: Iterable[str] = EVENT_KINDS,
) -> Iterator[SimEvent]:
    """Check `kinds`, then return the generator of a serialized report's
    events of those kinds, parsed and checked.

    A text file (anything with `read`) is read REPORT_READ_CHARS characters
    at a time and split into lines at "\n" alone; any other iterable is read
    one item per line. Every line is checked, whatever its kind: in a text
    file, a one-frame slot exactly as report_lines writes it as a whole
    (until a slot of more frames or a summary line has been read), and
    every other line on its own, with the same events and messages. Only
    the events of `kinds` are built and yielded. Comment lines starting
    with '#' and blank lines are ignored. Summary lines are appended to
    `stats`, if given, as they are read. A name in `kinds` that is no event
    kind raises ValueError here, before any line is read. The generator
    raises ValueError when a line is malformed (numbers are ASCII digits,
    with no '_' or '+'; sync words are 4 uppercase hex digits), a timestamp
    decreases, an event follows the summary block, a summary line is not as
    summary_line writes it, or the summary block (when there is one) misses
    a node that has events, repeats a node, or disagrees with the events:
    sent must be the node's tx_start count, received its rx_ok count and
    lost their difference.
    """
    return _report_events(lines, stats, _wanted(kinds))


def _wanted(kinds: Iterable[str]) -> frozenset[str]:
    """kinds as a set, or ValueError naming those that are no event kind."""
    wanted = frozenset(kinds)
    if not wanted.issubset(EVENT_KINDS):
        unknown = sorted(wanted.difference(EVENT_KINDS))
        raise ValueError(f"unknown event kind(s) {unknown}; expected some of {EVENT_KINDS}")
    return wanted


def _blocks(lines):
    """A text file as blocks of whole lines, each ending with "\n", read
    REPORT_READ_CHARS at a time (a last line with no "\n" gets one); any
    other iterable as one iterator of its items, one line each."""
    if not hasattr(lines, "read"):
        yield iter(lines)  # an iterator, never a str block, even when lines is a str
        return
    parts = []  # the pieces of the part-read last line, joined once it ends
    while chunk := lines.read(REPORT_READ_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join((*parts, chunk[:cut]))
            parts = []
        parts.append(chunk[cut:])
    if rest := "".join(parts):
        yield rest + "\n"


def _lines(block):
    """A block's lines, split at "\n" alone (str.splitlines also splits at \x0c,
    \x1c-\x1e, \x85 and \u2028, renumbering lines); an iterator's items as they are."""
    return block[:-1].split("\n") if isinstance(block, str) else block


# A one-frame slot as report_lines writes it, or else one line: findall tiles a
# block into these, with no gaps, and ends with one empty match. int() takes
# numbers of at most 19 digits whatever its limit; longer go per line.
_TILES = "(?:%s)|([^\n]*\n?)" % "\n".join((
    r"([0-9]{1,19}) slot_open ([0-9A-F]{4})", r"([0-9]{1,19}) tx_start \2 ([0-9]{1,19})",
    r"([0-9]{1,19}) tx_end \2", r"\5 (rx_ok|rx_drop) \2 \4", r"([0-9]{1,19}) slot_close \2", ""))


def _report_events(lines, stats, wanted):
    summary: dict[int, tuple[int, NodeStats]] = {}
    words: dict[str, tuple[int, list[int]]] = {}  # sync text -> (sync, [sent, received])
    event = partial(tuple.__new__, SimEvent)  # SimEvent(...) minus its Python-level call
    # kind -> (its tally slot: 0 counts tx_start, 1 rx_ok; whether it is built)
    roles = {kind: ({"tx_start": 0, "rx_ok": 1}.get(kind), kind in wanted)
             for kind in EVENT_KINDS}
    state = summary, words, roles, event, stats
    tiles = re.compile(_TILES).findall  # compiled on first use, then cached by re
    want_open, want_start, want_end, want_close = (
        kind in wanted for kind in ("slot_open", "tx_start", "tx_end", "slot_close"))
    line_no, last_t, tiled = 0, 0, True
    for block in _blocks(lines):
        if not (tiled and isinstance(block, str)):
            line_no, last_t = yield from _per_line(_lines(block), line_no, last_t, state)
            continue
        stretch = []  # the lines since the last slot taken whole, read per line
        for t0, word_text, t1, payload, t2, kind, t3, line in tiles(block):
            if line:
                stretch.append(line)
                continue
            if stretch:  # at a slot, or at the empty match that ends the block
                line_no, last_t = yield from _per_line(stretch, line_no, last_t, state)
                # after a slot of more frames, or a summary line, all is read per line
                tiled = not summary and sum(" tx_start " in raw for raw in stretch) < 2
                stretch = []
            if not t0:
                continue
            open_ns, start_ns, end_ns, close_ns = int(t0), int(t1), int(t2), int(t3)
            word = words.get(word_text)  # a node's first slot is read per line
            if tiled and word and last_t <= open_ns <= start_ns <= end_ns <= close_ns:
                sync, tally = word
                detail = int(payload)
                tally[0] += 1
                tally[1] += kind == "rx_ok"
                if want_open:
                    yield event((open_ns, "slot_open", sync, None))
                if want_start:
                    yield event((start_ns, "tx_start", sync, detail))
                if want_end:
                    yield event((end_ns, "tx_end", sync, None))
                if kind in wanted:
                    yield event((end_ns, kind, sync, detail))
                if want_close:
                    yield event((close_ns, "slot_close", sync, None))
                last_t, line_no = close_ns, line_no + 5
                continue
            # any other slot is read per line, its lines rebuilt from the groups that pin them
            stretch += (f"{t0} slot_open {word_text}", f"{t1} tx_start {word_text} {payload}",
                        f"{t2} tx_end {word_text}", f"{t2} {kind} {word_text} {payload}",
                        f"{t3} slot_close {word_text}")
    if summary:
        _check_summary(summary, dict(words.values()))  # one text per sync word


def _per_line(raws, line_no, last_t, state):
    """Check raws line by line, numbered on from line_no; return (line_no, last_t)."""
    summary, words, roles, event, stats = state
    for line_no, raw in enumerate(raws, line_no + 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
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
        role = roles.get(kind)
        if role is None:
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
            if not re.fullmatch("[0-9A-F]{4}", sync_text):  # as format_sync_word writes it
                raise ValueError(f"line {line_no}: sync word must be 4 uppercase hex digits, "
                                 f"got {sync_text!r}")
            word = words[sync_text] = (int(sync_text, 16), [0, 0])
        sync, tally = word
        slot, built = role
        if slot is not None:
            tally[slot] += 1
        if built:
            yield event((t_ns, kind, sync, detail))
    return line_no, last_t


def _check_summary(summary: dict[int, tuple[int, NodeStats]],
                   tallies: dict[int, list[int]]) -> None:
    for sync in tallies:
        if sync not in summary:
            raise ValueError(
                f"node {format_sync_word(sync)} has events but no summary line"
            )
    for sync, (line_no, node) in summary.items():
        sent, received = tallies.get(sync, (0, 0))
        if (node.packets_sent, node.packets_received) != (sent, received):
            raise ValueError(
                f"line {line_no}: summary of node {format_sync_word(sync)} says "
                f"sent={node.packets_sent} received={node.packets_received} "
                f"lost={node.packets_lost}, its events "
                f"give sent={sent} received={received} lost={sent - received}"
            )


def parse_report(text: str | Iterable[str]) -> SimReport:
    """The whole of iter_report for a report text (or its lines) as a SimReport."""
    lines = text.splitlines() if isinstance(text, str) else text
    stats: list[tuple[int, NodeStats]] = []
    timeline = tuple(iter_report(lines, stats))
    return SimReport(timeline=timeline, stats=tuple(stats))
