import math
import urllib.parse
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loralink import tdma_sim, uplink_bridge
from loralink.cli import EXIT_OK, main
from loralink.core_types import format_decimal
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


def reference_request(api_key, index, text, created_at):
    """The request path and query, built from urllib.parse.quote and strftime alone."""
    def quote(part):
        return urllib.parse.quote(part, safe="")
    stamp = created_at.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")
    return (f"/update?api_key={quote(api_key)}&field{index}={quote(text)}"
            f"&created_at={quote(stamp)}"), stamp


def reference_query(update):
    """format_update's output, built from urllib.parse.quote and strftime alone."""
    def quote(part):
        return urllib.parse.quote(part, safe="")
    api_key, fields, created_at = update
    query = f"/update?api_key={quote(api_key)}"
    for index in sorted(fields):
        value = fields[index]
        text = str(value) if isinstance(value, int) else quote(
            value if isinstance(value, str) else format_decimal(value))
        query += f"&field{index}={text}"
    if created_at is not None:
        query += f"&created_at={quote(created_at.astimezone(UTC).strftime('%Y-%m-%dT%H:%M:%SZ'))}"
    return query


_ZONES = st.sampled_from([UTC, timezone(timedelta(hours=5, minutes=30)),
                          timezone(timedelta(hours=-8, minutes=-15))])
_MOMENTS = st.one_of(st.none(), st.builds(
    lambda seconds, micros, zone: (datetime(2024, 3, 1, 23, 59, 58, tzinfo=UTC)
                                   + timedelta(seconds=seconds, microseconds=micros)
                                   ).astimezone(zone),
    st.integers(0, 3), st.integers(0, 999_999), _ZONES))
_RESERVED_TEXT = st.text(alphabet="aZ09 -_.~&=/?#%+:é€\n", max_size=6)
_VALUES = st.one_of(st.integers(-10**12, 10**12), st.booleans(),
                    st.floats(allow_nan=False, allow_infinity=False), _RESERVED_TEXT)
_FIELDS = st.lists(st.tuples(st.integers(1, 8), _VALUES), min_size=1, max_size=8,
                   unique_by=lambda item: item[0]).map(dict)  # any insertion order


@st.composite
def update_runs(draw):
    """Updates whose created_at values come from a small pool, so one object
    recurs, equal instants recur as other objects, and seconds change."""
    pool = draw(st.lists(_MOMENTS, min_size=1, max_size=4))
    keys = st.one_of(st.sampled_from(["KEY1", "TS00AB+1", "a/b&c", "é"]),
                     _RESERVED_TEXT.filter(bool))
    return draw(st.lists(st.builds(ChannelUpdate, keys, _FIELDS, st.sampled_from(pool)),
                         max_size=24))


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
        (a, NodeStats(packets_sent=2, packets_received=2)),
        (b, NodeStats(packets_sent=2, packets_received=2)),
    )
    return SimReport(timeline=timeline, stats=stats)


KEY_MAP = {0xA001: ("KEY1", 1), 0xB002: ("KEY1", 2)}


class TestChannelUpdate:
    def test_requires_fields(self):
        with pytest.raises(InvalidUpdateError, match="^update must carry at least one field$"):
            ChannelUpdate("KEY1", {})

    def test_requires_key(self):
        with pytest.raises(InvalidUpdateError, match="^api_key must not be empty$"):
            ChannelUpdate("", {1: 42})

    def test_field_index_range(self):
        with pytest.raises(InvalidUpdateError):
            ChannelUpdate("KEY1", {0: 1})
        with pytest.raises(InvalidUpdateError):
            ChannelUpdate("KEY1", {9: 1})
        with pytest.raises(InvalidUpdateError) as caught:
            ChannelUpdate("KEY1", {0: 1, 2: 1, "3": 1})
        assert str(caught.value) == "field indices must be integers 1..8, got [0, '3']"

    def test_created_at_must_be_aware(self):
        with pytest.raises(InvalidUpdateError, match="^created_at must be timezone-aware$"):
            ChannelUpdate("KEY1", {1: 42}, datetime(2024, 1, 1))

    def test_is_a_named_tuple(self):
        created_at = datetime(2024, 1, 1, tzinfo=UTC)
        update = ChannelUpdate("KEY1", {1: 42}, created_at)
        assert type(update) is ChannelUpdate and update == ("KEY1", {1: 42}, created_at)
        assert (update.api_key, update.fields, update.created_at) == tuple(update)
        assert ChannelUpdate("KEY1", {1: 42}).created_at is None
        assert repr(update).startswith("ChannelUpdate(api_key='KEY1', fields={1: 42}, ")


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

    @pytest.mark.parametrize("api_key", ["TS00AB+1", "a/b&c", "é"])
    @pytest.mark.parametrize("value, text", [
        (-17, "-17"), (True, "True"), (36.6, "36.6"), ("a b&c/é=%", "a b&c/é=%"),
    ])
    def test_byte_parity_with_quote_and_strftime(self, api_key, value, text):
        created_at = datetime(2024, 3, 1, 10, 0, 59, 987654,
                              tzinfo=timezone(timedelta(hours=5)))
        expected, stamp = reference_request(api_key, 4, text, created_at)
        update = ChannelUpdate(api_key, {4: value}, created_at)
        sink = []
        transport = DryRunTransport(write=sink.append)
        for _ in range(2):  # the second pass reads the encodings from the caches
            assert format_update(update) == expected
            transport.send(update)
        assert sink == [f"{stamp} UPLINK GET {expected}\n"] * 2
        assert stamp == "2024-03-01T05:00:59Z"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(api_key=st.text(min_size=1, max_size=8), index=st.integers(1, 8),
           value=st.one_of(st.integers(-10**6, 10**6), st.text(max_size=8)),
           created_at=st.datetimes(
               min_value=datetime(1000, 1, 2), max_value=datetime(9999, 12, 30),
               timezones=st.builds(timezone, st.timedeltas(
                   min_value=timedelta(hours=-23, minutes=-59),
                   max_value=timedelta(hours=23, minutes=59)))))
    def test_drawn_updates_match_quote_and_strftime(self, api_key, index, value, created_at):
        text = value if isinstance(value, str) else str(value)
        expected, stamp = reference_request(api_key, index, text, created_at)
        update = ChannelUpdate(api_key, {index: value}, created_at)
        assert format_update(update) == expected
        sink = []
        DryRunTransport(write=sink.append).send(update)
        assert sink == [f"{stamp} UPLINK GET {expected}\n"]

    def test_year_one_has_four_digits(self):
        update = ChannelUpdate("KEY1", {1: 5}, datetime(1, 1, 1, 0, 0, 7, tzinfo=UTC))
        assert format_update(update) == (
            "/update?api_key=KEY1&field1=5&created_at=0001-01-01T00%3A00%3A07Z")


class TestFormattingCost:
    def test_quote_runs_once_per_distinct_key_and_never_for_a_stamp(self, tmp_path,
                                                                    monkeypatch):
        report, log = tmp_path / "report.txt", tmp_path / "u.log"
        assert main(["simulate", "--nodes", "3", "--duration-s", "60", "--seed", "2",
                     "--output", str(report)]) == EXIT_OK
        keys = ["K+1/x", "K+1/x", "Ké"]
        maps = [a for i, key in enumerate(keys) for a in ("--map", f"A00{i + 1}={key}:{i + 1}")]
        calls = []
        quote = urllib.parse.quote

        def counting_quote(*args, **kwargs):
            calls.append(args[0])
            return quote(*args, **kwargs)

        monkeypatch.setattr(urllib.parse, "quote", counting_quote)
        uplink_bridge._quote.cache_clear()  # keys quoted by earlier tests count here too
        assert main(["uplink", "--report", str(report), *maps,
                     "--epoch", "2024-03-01T10:00:00+05:30", "--output", str(log)]) == EXIT_OK
        lines = log.read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) >= 200 and all("created_at=" in line for line in lines)
        assert sorted(calls) == sorted(set(keys))

    def test_stamp_formatted_once_per_second(self, tmp_path):
        report, log = tmp_path / "report.txt", tmp_path / "u.log"
        assert main(["simulate", "--nodes", "3", "--duration-s", "60", "--seed", "2",
                     "--output", str(report)]) == EXIT_OK
        epoch = datetime(2024, 3, 1, 10, 0, tzinfo=timezone(timedelta(hours=5, minutes=30)))
        iso_utc.cache_clear()
        assert main(["uplink", "--report", str(report), "--epoch", epoch.isoformat(),
                     "--output", str(log)]) == EXIT_OK
        misses = iso_utc.cache_info().misses
        key_map = {sync: ("DRYRUN", i + 1) for i, sync in enumerate((0xA001, 0xA002, 0xA003))}
        with open(report, encoding="utf-8") as handle:
            created = [u.created_at for u in iter_bridge(tdma_sim.iter_report(handle), key_map,
                                                         epoch)]
        assert epoch in created  # an update in second 0 has the epoch's own instant
        assert misses == len({epoch, *created}) < len(created)


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

    def test_a_later_change_to_the_key_map_has_no_effect(self):
        key_map = {0xA001: ["KEY1", 1], 0xB002: ["KEY1", 2]}
        updates = iter_bridge(hand_report().timeline, key_map)
        key_map[0xA001][:] = ["", 9]  # targets the checks would refuse
        key_map[0xB002] = ("KEY2", 0)
        key_map[0xC003] = ("", 1)
        assert list(updates) == bridge_sim_report(hand_report(), KEY_MAP)

    def test_rx_ok_without_payload_is_an_error(self):
        report = SimReport(timeline=(SimEvent(0, "rx_ok", 0xA001),), stats=())
        with pytest.raises(InvalidUpdateError):
            bridge_sim_report(report, KEY_MAP)


class TestDryRunTransport:
    def test_one_line_per_update_matching_rx_ok_count(self):
        updates = bridge_sim_report(hand_report(), KEY_MAP)
        sink = []
        transport = DryRunTransport(write=sink.append)
        for update in updates:
            transport.send(update)
        assert len(sink) == 4
        rx_ok_count = sum(1 for e in hand_report().timeline if e.kind == "rx_ok")
        assert len(sink) == rx_ok_count

    def test_line_format_uses_created_at(self):
        update = ChannelUpdate("KEY1", {1: 42}, datetime(1970, 1, 1, 0, 0, 1, tzinfo=UTC))
        sink = []
        transport = DryRunTransport(write=sink.append)
        transport.send(update)
        assert sink == [
            "1970-01-01T00:00:01Z UPLINK GET /update?api_key=KEY1&field1=42"
            "&created_at=1970-01-01T00%3A00%3A01Z\n"
        ]

    def test_write_callback(self):
        sink = []
        transport = DryRunTransport(write=sink.append)
        transport.send(ChannelUpdate("KEY1", {1: 1}, datetime(1970, 1, 1, tzinfo=UTC)))
        assert len(sink) == 1 and sink[0].endswith("\n")
        assert not hasattr(transport, "lines")  # nothing is kept in memory

    def test_falls_back_to_wall_clock(self):
        sink = []
        transport = DryRunTransport(write=sink.append)
        transport.send(ChannelUpdate("KEY1", {1: 1}))
        stamp = sink[0].split(" ", 1)[0]
        assert stamp.endswith("Z") and "T" in stamp

    def test_send_writes_one_line_per_call(self):
        sink = []
        transport = DryRunTransport(write=sink.append)
        updates = [ChannelUpdate("KEY1", {1: n}, datetime(2024, 5, 1, 0, 0, n // 2, tzinfo=UTC))
                   for n in range(5)]
        updates += [ChannelUpdate("KEY1", {2: 1, 1: 2}), ChannelUpdate("KEY1", {3: "x"})]
        for count, update in enumerate(updates, start=1):
            transport.send(update)
            assert len(sink) == count
            assert sink[-1].endswith("\n") and sink[-1].count("\n") == 1

    @pytest.mark.parametrize("batch_lines", [1, 4, 7, 1000])
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(updates=update_runs())
    def test_send_all_writes_the_per_update_lines_in_batches_of_whole_lines(self, batch_lines,
                                                                           updates):
        sink = []
        before = datetime.now(UTC).replace(microsecond=0)
        with mock.patch.object(tdma_sim, "REPORT_BATCH_LINES", batch_lines):
            DryRunTransport(write=sink.append).send_all(iter(updates))
        after = datetime.now(UTC)
        lines = "".join(sink).split("\n")
        assert lines.pop() == "" and len(lines) == len(updates)
        for line, update in zip(lines, updates):
            stamp, request = line.split(" UPLINK GET ", 1)
            if update.created_at is None:  # the wall clock at the send
                assert before <= datetime.fromisoformat(stamp.replace("Z", "+00:00")) <= after
            else:
                assert stamp == iso_utc(update.created_at)
            assert request == format_update(update) == reference_query(update)
        full, rest = divmod(len(updates), batch_lines)
        assert [text.count("\n") for text in sink] == [batch_lines] * full + [rest][:rest]
        assert all(text.endswith("\n") for text in sink)

    def test_a_fault_after_more_than_one_batch_follows_every_line_before_it(self):
        # the 1,500th update's sync word is unmapped
        events = [SimEvent(n * 300_000_000, "rx_ok", 0xA001 if n < 1499 else 0xBEEF, n % 256)
                  for n in range(1600)]
        key_map, epoch = {0xA001: ("KEY1", 3)}, datetime(2024, 5, 1, tzinfo=UTC)
        sink = []
        with pytest.raises(UnmappedSyncWordError, match="BEEF"):
            DryRunTransport(write=sink.append).send_all(iter_bridge(events, key_map, epoch))
        assert [text.count("\n") for text in sink] == [1000, 499]
        assert "".join(sink) == "".join(
            f"{iso_utc(u.created_at)} UPLINK GET {format_update(u)}\n"
            for u in iter_bridge(events[:1499], key_map, epoch))


class TestHttpTransport:
    def test_refuses_to_build_without_env_key(self, monkeypatch):
        monkeypatch.delenv("UPLINK_API_KEY", raising=False)
        with pytest.raises(RuntimeError):
            HttpTransport()

    def test_builds_with_env_key_but_sends_nothing_on_construction(self, monkeypatch):
        monkeypatch.setenv("UPLINK_API_KEY", "SECRET")
        transport = HttpTransport(min_spacing_s=0.0)
        assert transport.min_spacing_s == 0.0

    @pytest.mark.parametrize("name, value", [
        ("min_spacing_s", math.nan), ("min_spacing_s", math.inf), ("min_spacing_s", -1.0),
        ("timeout_s", math.nan), ("timeout_s", math.inf), ("timeout_s", -1.0), ("timeout_s", 0.0),
    ])
    def test_refuses_out_of_range_spacing_and_timeout(self, monkeypatch, name, value):
        monkeypatch.setenv("UPLINK_API_KEY", "SECRET")
        with pytest.raises(ValueError, match=f"{name} must be"):
            HttpTransport(**{name: value})

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
        sink = []
        dry_run = DryRunTransport(write=sink.append)
        dry_run.send(update._replace(api_key="SECRET"))
        url = urllib.parse.urlsplit(requests[0][0])
        assert sink[0].split(" GET ", 1)[1] == f"{url.path}?{url.query}\n"

    def test_iso_helper(self):
        assert iso_utc(datetime(2024, 5, 1, 12, 0, 0, tzinfo=UTC)) == "2024-05-01T12:00:00Z"
