import urllib.parse
from dataclasses import replace
from datetime import datetime, timezone

import pytest

from loralink.tdma_sim import SimEvent, SimReport, NodeStats
from loralink.uplink_bridge import (
    ChannelUpdate,
    DryRunTransport,
    HttpTransport,
    InvalidUpdateError,
    UnmappedSyncWordError,
    bridge_sim_report,
    format_update,
    iso_utc,
    iter_bridge,
)

UTC = timezone.utc


def hand_report():
    """Two nodes, four received packets, interleaved in timeline order."""
    a, b = 0xA001, 0xB002
    timeline = (
        SimEvent(0, "slot_open", a),
        SimEvent(0, "tx_start", a, 42),
        SimEvent(1_000_000_000, "tx_end", a),
        SimEvent(1_000_000_000, "rx_ok", a, 42),
        SimEvent(2_000_000_000, "slot_close", a),
        SimEvent(2_000_000_000, "slot_open", b),
        SimEvent(2_000_000_000, "tx_start", b, 17),
        SimEvent(3_000_000_000, "tx_end", b),
        SimEvent(3_000_000_000, "rx_ok", b, 17),
        SimEvent(4_000_000_000, "slot_close", b),
        SimEvent(4_000_000_000, "slot_open", a),
        SimEvent(4_000_000_000, "tx_start", a, 43),
        SimEvent(5_000_000_000, "tx_end", a),
        SimEvent(5_000_000_000, "rx_ok", a, 43),
        SimEvent(6_000_000_000, "slot_close", a),
        SimEvent(6_000_000_000, "slot_open", b),
        SimEvent(6_000_000_000, "tx_start", b, 18),
        SimEvent(7_000_000_000, "tx_end", b),
        SimEvent(7_000_000_000, "rx_ok", b, 18),
        SimEvent(8_000_000_000, "slot_close", b),
    )
    stats = (
        (a, NodeStats(packets_sent=2, packets_received=2, packets_lost=0)),
        (b, NodeStats(packets_sent=2, packets_received=2, packets_lost=0)),
    )
    return SimReport(timeline=timeline, stats=stats)


KEY_MAP = {0xA001: ("KEY1", 1), 0xB002: ("KEY1", 2)}


class TestChannelUpdate:
    def test_requires_fields(self):
        with pytest.raises(InvalidUpdateError):
            ChannelUpdate("KEY1", {})

    def test_requires_key(self):
        with pytest.raises(InvalidUpdateError):
            ChannelUpdate("", {1: 42})

    def test_field_index_range(self):
        with pytest.raises(InvalidUpdateError):
            ChannelUpdate("KEY1", {0: 1})
        with pytest.raises(InvalidUpdateError):
            ChannelUpdate("KEY1", {9: 1})

    def test_created_at_must_be_aware(self):
        with pytest.raises(InvalidUpdateError):
            ChannelUpdate("KEY1", {1: 42}, datetime(2024, 1, 1))


class TestFormatUpdate:
    def test_single_field(self):
        line = format_update(ChannelUpdate("KEY1", {1: 42}))
        assert line == "/update?api_key=KEY1&field1=42"

    def test_fields_in_ascending_index_order(self):
        line = format_update(ChannelUpdate("KEY1", {2: 17, 1: 42}))
        assert line == "/update?api_key=KEY1&field1=42&field2=17"

    def test_created_at_is_percent_encoded(self):
        update = ChannelUpdate("KEY1", {1: 42}, datetime(2024, 5, 1, 12, 30, 15, tzinfo=UTC))
        line = format_update(update)
        assert line.endswith("&created_at=2024-05-01T12%3A30%3A15Z")

    def test_values_are_percent_encoded(self):
        line = format_update(ChannelUpdate("KEY1", {1: "a b&c"}))
        assert "field1=a%20b%26c" in line

    def test_float_values_render_as_plain_decimals(self):
        line = format_update(ChannelUpdate("KEY1", {1: 36.6}))
        assert "field1=36.6" in line

    def test_injective_on_distinct_field_maps(self):
        seen = set()
        for fields in ({1: 1}, {1: 2}, {2: 1}, {1: 1, 2: 1}, {3: 7}):
            line = format_update(ChannelUpdate("KEY1", fields))
            assert line not in seen
            seen.add(line)

    def test_second_resolution_timestamps(self):
        update = ChannelUpdate(
            "KEY1", {1: 1}, datetime(2024, 5, 1, 12, 30, 15, 999999, tzinfo=UTC)
        )
        assert "12%3A30%3A15Z" in format_update(update)


class TestBridge:
    def test_one_update_per_rx_ok_in_timeline_order(self):
        updates = bridge_sim_report(hand_report(), KEY_MAP)
        assert len(updates) == 4
        assert [(u.api_key, *u.fields.items()) for u in updates] == [
            ("KEY1", (1, 42)),
            ("KEY1", (2, 17)),
            ("KEY1", (1, 43)),
            ("KEY1", (2, 18)),
        ]

    def test_timestamps_offset_from_epoch(self):
        epoch = datetime(2024, 5, 1, tzinfo=UTC)
        updates = bridge_sim_report(hand_report(), KEY_MAP, epoch=epoch)
        assert updates[0].created_at == datetime(2024, 5, 1, 0, 0, 1, tzinfo=UTC)
        assert updates[3].created_at == datetime(2024, 5, 1, 0, 0, 7, tzinfo=UTC)

    def test_empty_report_gives_no_updates(self):
        report = SimReport(timeline=(), stats=())
        assert bridge_sim_report(report, KEY_MAP) == []

    def test_unmapped_sync_word(self):
        with pytest.raises(UnmappedSyncWordError) as excinfo:
            bridge_sim_report(hand_report(), {0xA001: ("KEY1", 1)})
        assert "B002" in str(excinfo.value)

    @pytest.mark.parametrize("key_map, epoch", [
        ({0xA001: ("KEY1", 9)}, datetime(2024, 5, 1, tzinfo=UTC)),
        ({0xA001: ("", 1)}, datetime(2024, 5, 1, tzinfo=UTC)),
        ({0xA001: ("KEY1", 1)}, datetime(2024, 5, 1)),
    ])
    def test_key_map_and_epoch_checked_before_the_first_update(self, key_map, epoch):
        with pytest.raises(InvalidUpdateError):
            iter_bridge(iter(()), key_map, epoch)  # raises on the call, before any next()

    def test_rx_ok_without_payload_is_an_error(self):
        report = SimReport(timeline=(SimEvent(0, "rx_ok", 0xA001),), stats=())
        with pytest.raises(InvalidUpdateError):
            bridge_sim_report(report, KEY_MAP)


class TestDryRunTransport:
    def test_one_line_per_update_matching_rx_ok_count(self):
        updates = bridge_sim_report(hand_report(), KEY_MAP)
        transport = DryRunTransport()
        for update in updates:
            transport.send(update)
        assert len(transport.lines) == 4
        rx_ok_count = sum(1 for e in hand_report().timeline if e.kind == "rx_ok")
        assert len(transport.lines) == rx_ok_count

    def test_line_format_uses_created_at(self):
        update = ChannelUpdate("KEY1", {1: 42}, datetime(1970, 1, 1, 0, 0, 1, tzinfo=UTC))
        transport = DryRunTransport()
        transport.send(update)
        assert transport.lines == [
            "1970-01-01T00:00:01Z UPLINK GET /update?api_key=KEY1&field1=42"
            "&created_at=1970-01-01T00%3A00%3A01Z"
        ]

    def test_write_callback(self):
        sink = []
        transport = DryRunTransport(write=sink.append)
        transport.send(ChannelUpdate("KEY1", {1: 1}, datetime(1970, 1, 1, tzinfo=UTC)))
        assert len(sink) == 1 and sink[0].endswith("\n")
        assert transport.lines == []

    def test_falls_back_to_wall_clock(self):
        transport = DryRunTransport()
        transport.send(ChannelUpdate("KEY1", {1: 1}))
        stamp = transport.lines[0].split(" ", 1)[0]
        assert stamp.endswith("Z") and "T" in stamp


class TestHttpTransport:
    def test_refuses_to_build_without_env_key(self, monkeypatch):
        monkeypatch.delenv("UPLINK_API_KEY", raising=False)
        with pytest.raises(RuntimeError):
            HttpTransport()

    def test_builds_with_env_key_but_sends_nothing_on_construction(self, monkeypatch):
        monkeypatch.setenv("UPLINK_API_KEY", "SECRET")
        transport = HttpTransport(min_spacing_s=0.0)
        assert transport.min_spacing_s == 0.0

    def test_send_substitutes_env_key_and_returns_body(self, monkeypatch):
        requests = []

        class FakeResponse:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return b"42"

        def fake_urlopen(url, timeout):
            requests.append((url, timeout))
            return FakeResponse()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        monkeypatch.setenv("UPLINK_API_KEY", "SECRET")
        transport = HttpTransport(base_url="https://example.test/", min_spacing_s=0.0,
                                  timeout_s=3.0)
        update = ChannelUpdate("REPORTKEY", {3: 7}, datetime(2024, 5, 1, 12, 0, 0, tzinfo=UTC))
        assert transport.send(update) == "42"
        assert requests == [("https://example.test/update?api_key=SECRET&field3=7"
                             "&created_at=2024-05-01T12%3A00%3A00Z", 3.0)]
        dry_run = DryRunTransport()
        dry_run.send(replace(update, api_key="SECRET"))
        url = urllib.parse.urlsplit(requests[0][0])
        assert dry_run.lines[0].split(" GET ", 1)[1] == f"{url.path}?{url.query}"

    def test_iso_helper(self):
        assert iso_utc(datetime(2024, 5, 1, 12, 0, 0, tzinfo=UTC)) == "2024-05-01T12:00:00Z"
