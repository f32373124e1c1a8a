"""ThingSpeak-style channel updates from simulation reports.

Formatting is pure; actual delivery goes through a transport. The default
DryRunTransport only logs request lines, so nothing in this module performs
network I/O unless an HttpTransport is constructed explicitly.
"""

from __future__ import annotations

import os
import time
import urllib.parse
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from typing import Callable, Iterable, Iterator, Mapping

from .core_types import format_decimal
from .tdma_sim import SimEvent, SimReport, format_sync_word

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


@dataclass(frozen=True)
class ChannelUpdate:
    """One channel update: write key, field values, optional UTC timestamp."""

    api_key: str
    fields: Mapping[int, float | int | str]
    created_at: datetime | None = None

    def __post_init__(self) -> None:
        if not self.api_key:
            raise InvalidUpdateError("api_key must not be empty")
        if not self.fields:
            raise InvalidUpdateError("update must carry at least one field")
        bad = [i for i in self.fields if not (isinstance(i, int) and 1 <= i <= 8)]
        if bad:
            raise InvalidUpdateError(f"field indices must be integers 1..8, got {bad}")
        if self.created_at is not None and self.created_at.tzinfo is None:
            raise InvalidUpdateError("created_at must be timezone-aware")


def iso_utc(moment: datetime) -> str:
    """UTC ISO-8601 at second resolution with a Z suffix."""
    return moment.astimezone(timezone.utc).replace(microsecond=0).strftime("%Y-%m-%dT%H:%M:%SZ")


def _render_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format_decimal(value)


def format_update(update: ChannelUpdate) -> str:
    """Render an update as the path and query of the single-update GET request.

    Fields appear in ascending index order; values are percent-encoded.
    """
    parts = [f"api_key={urllib.parse.quote(update.api_key, safe='')}"]
    for index in sorted(update.fields):
        encoded = urllib.parse.quote(_render_value(update.fields[index]), safe="")
        parts.append(f"field{index}={encoded}")
    if update.created_at is not None:
        parts.append(f"created_at={urllib.parse.quote(iso_utc(update.created_at), safe='')}")
    return f"{UPDATE_PATH}?{'&'.join(parts)}"


def iter_bridge(
    events: Iterable[SimEvent],
    key_map: Mapping[int, tuple[str, int]],
    epoch: datetime = UNIX_EPOCH,
) -> Iterator[ChannelUpdate]:
    """Check the key map, then return the generator of one update per
    rx_ok event, in stream order.

    key_map sends each sync word to (api_key, field index); timestamps are
    the event's virtual time offset against epoch, at second resolution.
    Each entry of key_map, and the epoch, is checked here, before the
    first update exists; an rx_ok of an unmapped sync word raises
    UnmappedSyncWordError when the stream reaches it.
    """
    for api_key, field_index in key_map.values():
        ChannelUpdate(api_key, {field_index: 0}, epoch)  # raises InvalidUpdateError
    return _updates(events, key_map, epoch)


def _updates(events, key_map, epoch):
    for t_ns, kind, sync, detail in events:
        if kind != "rx_ok":
            continue
        target = key_map.get(sync)
        if target is None:
            raise UnmappedSyncWordError(
                f"sync word {format_sync_word(sync)} has no channel mapping"
            )
        if detail is None:
            raise InvalidUpdateError(f"rx_ok event at {t_ns} ns carries no payload value")
        yield ChannelUpdate(target[0], {target[1]: detail},
                            epoch + timedelta(seconds=t_ns // 1_000_000_000))


def bridge_sim_report(
    report: SimReport,
    key_map: Mapping[int, tuple[str, int]],
    epoch: datetime = UNIX_EPOCH,
) -> list[ChannelUpdate]:
    """The whole of iter_bridge over a SimReport's timeline, as a list."""
    return list(iter_bridge(report.timeline, key_map, epoch))


class DryRunTransport:
    """Hermetic transport: logs one line per update, sends nothing.

    Log format: '<ISO8601> UPLINK GET <format_update(update)>'. The timestamp is the
    update's created_at when present (keeping dry runs deterministic),
    otherwise the current UTC time. Each line goes to `write` (newline
    added) when one is given and is kept in `lines` otherwise.
    """

    def __init__(self, write: Callable[[str], None] | None = None) -> None:
        self.lines: list[str] = []
        self._write = write

    def send(self, update: ChannelUpdate) -> None:
        stamp = iso_utc(update.created_at) if update.created_at else iso_utc(
            datetime.now(timezone.utc)
        )
        line = f"{stamp} UPLINK GET {format_update(update)}"
        if self._write is None:
            self.lines.append(line)
        else:
            self._write(line + "\n")


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
        if min_spacing_s < 0:
            raise ValueError(f"min_spacing_s must be >= 0, got {min_spacing_s!r}")
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
        url = self._base_url + format_update(replace(update, api_key=self._api_key))
        try:
            with urllib.request.urlopen(url, timeout=self._timeout_s) as response:
                body = response.read().decode("utf-8", errors="replace")
        finally:
            self._last_send = time.monotonic()
        return body
