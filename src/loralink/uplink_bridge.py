"""ThingSpeak-style channel updates from simulation reports.

A ChannelUpdate is a named tuple that checks itself when constructed.
iter_bridge reads its key map once, when called, checks every entry and
the epoch, and then builds its updates without checking each again.
Formatting is pure; actual delivery goes through a transport. The
DryRunTransport only writes request lines to a sink the caller gives, so
nothing here performs network I/O unless an HttpTransport is constructed.
Its send_all writes strings of whole lines, each line built from a cached
(key, field) head, the value and the stamp of its second; send writes one.
"""

from __future__ import annotations

import math
import os
import time
import urllib.parse
from datetime import datetime, timedelta, timezone
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from . import tdma_sim
from .core_types import format_decimal

UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

UPDATE_PATH = "/update"
API_KEY_ENV_VAR = "UPLINK_API_KEY"
DEFAULT_BASE_URL = "https://api.thingspeak.com"
# The public platform throttles channel updates; keep a polite default gap.
DEFAULT_REAL_SPACING_S = 15.0


class InvalidUpdateError(ValueError):
    """A channel update violates the field-map invariants."""


class UnmappedSyncWordError(LookupError):
    """A report event's sync word has no channel mapping."""


class _UpdateFields(NamedTuple):
    api_key: str
    fields: Mapping[int, float | int | str]
    created_at: datetime | None = None


class ChannelUpdate(_UpdateFields):
    """One channel update: write key, field values, optional UTC timestamp.

    A named tuple whose constructor raises InvalidUpdateError for an empty
    key, no fields, a field index outside 1..8 or a naive created_at.
    `_replace` builds a copy without these checks.
    """

    __slots__ = ()

    def __new__(cls, api_key: str, fields: Mapping[int, float | int | str],
                created_at: datetime | None = None) -> ChannelUpdate:
        if not api_key:
            raise InvalidUpdateError("api_key must not be empty")
        if not fields:
            raise InvalidUpdateError("update must carry at least one field")
        bad = [i for i in fields if not (isinstance(i, int) and 1 <= i <= 8)]
        if bad:
            raise InvalidUpdateError(f"field indices must be integers 1..8, got {bad}")
        if created_at is not None and created_at.tzinfo is None:
            raise InvalidUpdateError("created_at must be timezone-aware")
        return tuple.__new__(cls, (api_key, fields, created_at))


@lru_cache(maxsize=256)
def iso_utc(moment: datetime) -> str:
    """UTC ISO-8601 at second resolution with a Z suffix and a 4-digit year."""
    return moment.astimezone(timezone.utc).isoformat(timespec="seconds").replace("+00:00", "Z")


@lru_cache(maxsize=1024)
def _quote(text: str) -> str:
    return urllib.parse.quote(text, safe="")


@lru_cache(maxsize=1024)
def _head(quoted_key: str, index: int) -> str:  # a request up to its first value
    return f"{UPDATE_PATH}?api_key={quoted_key}&field{index}="


def _value(value: float | int | str) -> int | str:
    """A field's value as query text: an int (or bool) as it is, else percent-encoded."""
    return value if isinstance(value, int) else _quote(
        value if isinstance(value, str) else format_decimal(value))


def _stamp(created_at: datetime | None) -> tuple[str, str]:
    """A dry-run line's '<iso_utc> UPLINK GET ' lead and its query's created_at
    tail; with no created_at, the current UTC time and no tail."""
    if created_at is None:
        return f"{iso_utc(datetime.now(timezone.utc))} UPLINK GET ", ""
    stamp = iso_utc(created_at)
    # of the characters in an iso_utc stamp, quote changes only ':'
    return f"{stamp} UPLINK GET ", f"&created_at={stamp.replace(':', '%3A')}"


def format_update(update: ChannelUpdate) -> str:
    """Render an update as the path and query of the single-update GET request.

    Fields appear in ascending index order; values are percent-encoded.
    Each distinct key, value and (key, field) head is encoded once; integer
    values (digits and '-', or True/False) need no encoding.
    """
    api_key, fields, created_at = update
    first, *rest = sorted(fields)
    query = f"{_head(_quote(api_key), first)}{_value(fields[first])}"
    for index in rest:
        query += f"&field{index}={_value(fields[index])}"
    return query if created_at is None else query + _stamp(created_at)[1]


def iter_bridge(
    events: Iterable[tdma_sim.SimEvent],
    key_map: Mapping[int, tuple[str, int]],
    epoch: datetime = UNIX_EPOCH,
) -> Iterator[ChannelUpdate]:
    """Check the key map, then return the generator of one update per
    rx_ok event, in stream order.

    key_map sends each sync word to (api_key, field index); timestamps are
    the event's virtual time offset against epoch, at second resolution.
    key_map is read once, here: the generator uses a copy, so a later
    change to it has no effect. Each of its entries, and the epoch, is
    checked here, before the first update exists, and the updates are then
    built without checking each one again. An rx_ok of an unmapped sync
    word raises UnmappedSyncWordError when the stream reaches it, and one
    whose created_at would fall after the year 9999 raises ValueError.
    """
    targets = {sync: (api_key, field_index) for sync, (api_key, field_index) in key_map.items()}
    for api_key, field_index in targets.values():
        ChannelUpdate(api_key, {field_index: 0}, epoch)  # raises InvalidUpdateError
    return _updates(events, targets, epoch)


def _updates(events, targets, epoch):
    update = partial(tuple.__new__, ChannelUpdate)  # ChannelUpdate(...) minus its checks
    second = created_at = None
    for t_ns, kind, sync, detail in events:
        if kind != "rx_ok":
            continue
        target = targets.get(sync)
        if target is None:
            raise UnmappedSyncWordError(
                f"sync word {tdma_sim.format_sync_word(sync)} has no channel mapping")
        if detail is None:
            raise InvalidUpdateError(f"rx_ok event at {t_ns} ns carries no payload value")
        if t_ns // 1_000_000_000 != second:  # updates of one second share one created_at
            second = t_ns // 1_000_000_000
            try:
                created_at = epoch + timedelta(seconds=second)
            except OverflowError:
                raise ValueError(f"rx_ok event at {t_ns} ns falls after the year 9999 "
                                 f"from epoch {iso_utc(epoch)}") from None
        yield update((target[0], {target[1]: detail}, created_at))


def bridge_sim_report(
    report: tdma_sim.SimReport,
    key_map: Mapping[int, tuple[str, int]],
    epoch: datetime = UNIX_EPOCH,
) -> list[ChannelUpdate]:
    """The whole of iter_bridge over a SimReport's timeline, as a list."""
    return list(iter_bridge(report.timeline, key_map, epoch))


class DryRunTransport:
    """Hermetic transport: logs one line per update, sends nothing.

    Log format: '<ISO8601> UPLINK GET <format_update(update)>'. The timestamp is the
    update's created_at when present (keeping dry runs deterministic),
    otherwise the current UTC time. send_all hands `write` (for example a
    text file's write method) strings of whole lines, newlines included,
    tdma_sim.REPORT_BATCH_LINES lines a string; send writes one line.
    """

    def __init__(self, write: Callable[[str], None]) -> None:
        self._write = write

    def send(self, update: ChannelUpdate) -> None:
        self.send_all((update,))

    def send_all(self, updates: Iterable[ChannelUpdate]) -> None:
        """Log every update in order; the lines of those taken before a fault
        are written before it propagates."""
        updates, lines, last = iter(updates), [], None
        try:
            while True:
                for update in islice(updates, tdma_sim.REPORT_BATCH_LINES):
                    api_key, fields, created_at = update
                    if last is None or created_at is not last:  # updates of one second share one
                        last = created_at
                        lead, tail = _stamp(created_at)
                    if len(fields) == 1:  # the only kind iter_bridge makes
                        [(index, value)] = fields.items()
                        lines.append(f"{lead}{_head(_quote(api_key), index)}{_value(value)}{tail}\n")
                    else:
                        lines.append(f"{lead}{format_update(update)}\n")
                if not lines:
                    return
                text = "".join(lines)
                lines.clear()
                self._write(text)
        finally:
            if lines:
                self._write("".join(lines))


class HttpTransport:
    """Real sender for the single-update GET endpoint.

    Reads the write key from the UPLINK_API_KEY environment variable and
    substitutes it into every outgoing update, so keys from fixtures or
    reports never reach the network. Enforces a minimum spacing between
    sends because the public platform throttles updates.
    """

    def __init__(
        self,
        base_url: str = DEFAULT_BASE_URL,
        min_spacing_s: float = DEFAULT_REAL_SPACING_S,
        timeout_s: float = 10.0,
    ) -> None:
        key = os.environ.get(API_KEY_ENV_VAR)
        if not key:
            raise RuntimeError(
                f"{API_KEY_ENV_VAR} is not set; refusing to construct a real transport"
            )
        if not 0 <= min_spacing_s < math.inf:
            raise ValueError(f"min_spacing_s must be finite and >= 0, got {min_spacing_s!r}")
        if not 0 < timeout_s < math.inf:
            raise ValueError(f"timeout_s must be positive and finite, got {timeout_s!r}")
        self._api_key = key
        self._base_url = base_url.rstrip("/")
        self.min_spacing_s = min_spacing_s
        self._timeout_s = timeout_s
        self._last_send: float | None = None

    def send(self, update: ChannelUpdate) -> str:
        """Send one update; returns the response body. Blocks to honor spacing."""
        import urllib.request  # the HTTP stack (http.client, ssl, email) loads only to send

        if self._last_send is not None and self.min_spacing_s > 0:
            wait = self.min_spacing_s - (time.monotonic() - self._last_send)
            if wait > 0:
                time.sleep(wait)
        url = self._base_url + format_update(update._replace(api_key=self._api_key))
        try:
            with urllib.request.urlopen(url, timeout=self._timeout_s) as response:
                body = response.read().decode("utf-8", errors="replace")
        finally:
            self._last_send = time.monotonic()
        return body
