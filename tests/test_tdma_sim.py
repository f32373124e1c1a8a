import io
import math
import random

import pytest

from loralink.core_types import CodingRate, RadioConfig
from loralink.phy_model import FrameParams, time_on_air
from loralink.tdma_sim import (
    EVENT_KINDS,
    InfeasibleSlotError,
    NodeSpec,
    ScheduleConflictError,
    SlotSchedule,
    default_slot_duration,
    drop_model_from_table,
    format_sync_word,
    iter_events,
    iter_report,
    parse_report,
    parse_sync_word,
    read_summary,
    run_simulation,
    serialize_report,
)

FAST_CONFIG = RadioConfig(sf=7, bw_hz=500000, cr=CodingRate(4, 8))
FRAME = FrameParams(payload_bytes=2)


def make_nodes(count, drops=()):
    """count nodes from A001 on; the i-th loses frames with probability drops[i] (default 0)."""
    drops = [*drops] + [0.0] * (count - len(drops))
    return tuple(NodeSpec(0xA001 + i, FAST_CONFIG, FRAME, p) for i, p in enumerate(drops))


def node(sync_word):
    return NodeSpec(sync_word=sync_word, config=FAST_CONFIG, frame=FRAME)


class TestSyncWords:
    def test_render_and_parse(self):
        assert format_sync_word(0x1A2B) == "1A2B"
        assert format_sync_word(7) == "0007"
        assert parse_sync_word("1A2B") == 0x1A2B
        assert parse_sync_word("a001") == 0xA001

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            format_sync_word(0x10000)
        with pytest.raises(ValueError):
            parse_sync_word("12345")
        with pytest.raises(ValueError):
            parse_sync_word("XYZ!")
        with pytest.raises(ValueError):
            NodeSpec(sync_word=-1, config=FAST_CONFIG, frame=FRAME)

    @pytest.mark.parametrize("text", ["-FFF", "+FFF", " FFF", "FFF ", "0x1F", "1_FF",
                                      "\u0661\u0662\u0663\u0664"])
    def test_parse_takes_exactly_four_hex_digits(self, text):
        with pytest.raises(ValueError, match="exactly 4 hex digits"):
            parse_sync_word(text)


class TestNodeSpec:
    def test_drop_probability_defaults_to_zero(self):
        assert node(0xA001).drop_probability == 0.0
        assert NodeSpec(0xA001, FAST_CONFIG, FRAME, 1.0).drop_probability == 1.0

    @pytest.mark.parametrize("p", [1.5, -0.1, math.nan])
    def test_drop_probability_outside_unit_interval_names_the_node(self, p):
        with pytest.raises(ValueError, match=r"drop probability for A001 outside \[0, 1\]"):
            NodeSpec(0xA001, FAST_CONFIG, FRAME, drop_probability=p)


class TestSchedule:
    def test_round_robin_period(self):
        nodes = make_nodes(2)
        schedule = SlotSchedule(nodes, 1.0, 0.1)
        assert [n.sync_word for n in schedule.nodes] == [0xA001, 0xA002]
        assert schedule.period_s == pytest.approx(2.2)
        single = SlotSchedule(make_nodes(1), 0.5, 0.0)
        assert single.period_s == pytest.approx(0.5)

    def test_duplicate_sync_word_conflict(self):
        with pytest.raises(ScheduleConflictError) as excinfo:
            SlotSchedule((node(0x1A2B), node(0x1A2B)), 1.0, 0.0)
        assert "1A2B" in str(excinfo.value)

    def test_schedule_names_its_repeated_sync_word(self):
        with pytest.raises(ScheduleConflictError, match="duplicate sync word BEEF"):
            SlotSchedule(tuple(map(node, (0xA001, 0xBEEF, 0xA002, 0xBEEF))), 1.0, 0.0)

    def test_slot_shorter_than_airtime_names_the_node(self):
        slow = RadioConfig(sf=12, bw_hz=10400, cr=CodingRate(4, 8))
        nodes = (NodeSpec(sync_word=0xBEEF, config=slow, frame=FRAME),)
        with pytest.raises(InfeasibleSlotError) as excinfo:
            iter_events(SlotSchedule(nodes, 1.0, 0.0), 1.0, 0)  # airtime is ~11.1 s
        assert "BEEF" in str(excinfo.value)

    @pytest.mark.parametrize("slot_s, guard_s", [
        (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
        (0.1, math.nan), (0.1, math.inf), (0.1, -math.inf),
    ])
    def test_non_finite_slot_or_guard_is_refused_by_the_schedule(self, slot_s, guard_s):
        # not later, as an OverflowError or a NaN conversion in iter_events
        with pytest.raises(ValueError, match="slot_duration_s|guard_s"):
            SlotSchedule(make_nodes(2), slot_s, guard_s)

    def test_default_slot_duration(self):
        nodes = make_nodes(2)
        airtime = time_on_air(FAST_CONFIG, FRAME)
        slot = default_slot_duration(nodes)
        assert slot >= 2 * airtime
        assert slot * 1000 == int(slot * 1000)  # whole milliseconds

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SlotSchedule((node(1),), 0.0, 0.0)
        with pytest.raises(ValueError):
            SlotSchedule((node(1),), 1.0, -0.1)
        with pytest.raises(ScheduleConflictError):
            SlotSchedule((node(1), node(1)), 1.0, 0.0)
        # the schedule is the node set: none, or one node twice, is refused here
        with pytest.raises(ValueError, match="at least one node"):
            SlotSchedule((), 0.1, 0.0)
        with pytest.raises(ScheduleConflictError, match="A002"):
            SlotSchedule(make_nodes(2) + make_nodes(2)[1:], 0.1, 0.0)  # two nodes on A002


class TestRunSimulation:
    def test_two_nodes_five_rounds_each(self):
        schedule = SlotSchedule(make_nodes(2), 1.0, 0.0)
        report = run_simulation(schedule, 10.0, seed=7)
        for sync in (0xA001, 0xA002):
            stats = report.node_stats(sync)
            assert stats.packets_sent == 5
            assert stats.packets_received == 5
            assert stats.packets_lost == 0

    def test_certain_loss(self):
        lossy_node = NodeSpec(0xA001, FAST_CONFIG, FRAME, drop_probability=1.0)
        schedule = SlotSchedule((lossy_node, node(0xA002)), 1.0, 0.0)
        report = run_simulation(schedule, 10.0, seed=7)
        lossy = report.node_stats(0xA001)
        assert lossy.packets_received == 0
        assert lossy.packets_lost == lossy.packets_sent == 5
        assert report.node_stats(0xA002).packets_received == 5

    def test_conservation_and_timeline_monotonicity(self):
        schedule = SlotSchedule(make_nodes(3, drops=[0.3] * 3), 0.5, 0.02)
        report = run_simulation(schedule, 30.0, seed=3)
        for _, stats in report.stats:
            assert stats.packets_sent == stats.packets_received + stats.packets_lost
        times = [event.t_ns for event in report.timeline]
        assert times == sorted(times)

    def test_fairness_after_whole_periods(self):
        schedule = SlotSchedule(make_nodes(4), 0.25, 0.01)
        report = run_simulation(schedule, schedule.period_s * 6, seed=1)
        sent = [stats.packets_sent for _, stats in report.stats]
        assert len(set(sent)) == 1 and sent[0] == 6

    def test_mid_period_fairness_gap_at_most_one(self):
        schedule = SlotSchedule(make_nodes(3), 0.4, 0.0)
        report = run_simulation(schedule, schedule.period_s * 2.5, seed=1)
        sent = [stats.packets_sent for _, stats in report.stats]
        assert max(sent) - min(sent) <= 1

    def test_determinism_byte_identical(self):
        schedule = SlotSchedule(make_nodes(2, drops=[0.25, 0.5]), 0.1, 0.005)
        kwargs = dict(duration_s=20.0, seed=99)
        first = serialize_report(run_simulation(schedule, **kwargs))
        second = serialize_report(run_simulation(schedule, **kwargs))
        assert first == second

    def test_seed_changes_drops_but_not_transmission_times(self):
        schedule = SlotSchedule(make_nodes(2, drops=[0.5, 0.5]), 0.1, 0.0)
        reports = [run_simulation(schedule, 30.0, seed=s) for s in (1, 2)]
        tx = [
            [(e.t_ns, e.kind, e.sync_word) for e in r.timeline if e.kind in ("tx_start", "tx_end")]
            for r in reports
        ]
        assert [t[:2] != [] for t in tx]
        assert [(t, k, s) for t, k, s in tx[0]] == [(t, k, s) for t, k, s in tx[1]]
        outcomes = [
            tuple(e.kind for e in r.timeline if e.kind in ("rx_ok", "rx_drop")) for r in reports
        ]
        assert outcomes[0] != outcomes[1]

    def test_mutual_exclusion_randomized(self):
        rng = random.Random(2718)
        for _ in range(25):
            n = rng.randint(2, 6)
            airtime = time_on_air(FAST_CONFIG, FRAME)
            slot = airtime * rng.uniform(1.0, 3.0)
            guard = rng.uniform(0.0, 0.05)
            schedule = SlotSchedule(make_nodes(n, [rng.random() for _ in range(n)]), slot, guard)
            report = run_simulation(
                schedule, schedule.period_s * rng.uniform(1.0, 4.0), seed=rng.randint(0, 2**32),
            )
            intervals = []
            open_tx = {}
            for event in report.timeline:
                if event.kind == "tx_start":
                    open_tx[event.sync_word] = event.t_ns
                elif event.kind == "tx_end":
                    intervals.append((open_tx.pop(event.sync_word), event.t_ns, event.sync_word))
            intervals.sort()
            for (s1, e1, w1), (s2, e2, w2) in zip(intervals, intervals[1:]):
                if w1 != w2:
                    assert s2 >= e1

    def test_handshake_and_frames_per_slot(self):
        airtime = time_on_air(FAST_CONFIG, FRAME)
        schedule = SlotSchedule(make_nodes(1), airtime * 4 + 0.01, 0.0)
        report = run_simulation(
            schedule, schedule.period_s * 2, seed=5, frames_per_slot=3, handshake_s=0.001,
        )
        assert report.node_stats(0xA001).packets_sent == 6
        first_tx = next(e for e in report.timeline if e.kind == "tx_start")
        assert first_tx.t_ns == 1_000_000  # handshake delay
        with pytest.raises(InfeasibleSlotError):
            run_simulation(schedule, 1.0, seed=5, frames_per_slot=50)

    def test_input_validation(self):
        schedule = SlotSchedule(make_nodes(2), 1.0, 0.0)
        with pytest.raises(ValueError):
            make_nodes(2, drops=[1.5])
        with pytest.raises(ValueError):
            run_simulation(schedule, 0.0, seed=0)
        with pytest.raises(ValueError):
            SlotSchedule((), 1.0, 0.0)

    @pytest.mark.parametrize("change", [
        {"frames_per_slot": 50},
        {"frames_per_slot": 0},
        {"handshake_s": -0.1},
        {"handshake_s": 0.5},
        {"duration_s": math.nan},
        {"duration_s": 0.0},
        {"duration_s": math.inf},
        {"handshake_s": math.inf},
    ])
    def test_iter_events_checks_before_the_first_event(self, change):
        kwargs = dict(schedule=SlotSchedule(make_nodes(2), 0.1, 0.0), duration_s=1.0, seed=5)
        kwargs.update(change)
        with pytest.raises(ValueError):
            iter_events(**kwargs)  # raises on the call, before any next()

    def test_iter_events_fills_stats_when_exhausted(self):
        schedule = SlotSchedule(make_nodes(2, drops=[0.5]), 0.1, 0.0)
        stats = []
        events = iter_events(schedule, 3.0, seed=4, stats=stats)
        first = next(events)
        assert first == (0, "slot_open", 0xA001, None) and stats == []
        rest = list(events)
        report = run_simulation(schedule, 3.0, seed=4)
        assert (first, *rest) == report.timeline
        assert tuple(stats) == report.stats

    def test_custom_payload_source(self):
        nodes = (NodeSpec(sync_word=0xC0DE, config=FAST_CONFIG, frame=FRAME,
                          payload_source=lambda i: 100 + i),)
        # slots open at 0, 0.1 and 0.2; the next would open exactly at the horizon
        report = run_simulation(SlotSchedule(nodes, 0.1, 0.0), 0.3, seed=0)
        payloads = [e.detail for e in report.timeline if e.kind == "rx_ok"]
        assert payloads == [100, 101, 102]

    def test_default_payloads_are_sensor_like(self):
        report = run_simulation(SlotSchedule(make_nodes(1), 0.1, 0.0), 5.0, seed=42)
        payloads = [e.detail for e in report.timeline if e.kind == "tx_start"]
        assert all(2 <= p <= 400 for p in payloads)
        assert len(set(payloads)) > 1


class TestDropModelFromTable:
    def test_published_cells(self, field_table):
        def config(sf, bw):
            return RadioConfig(sf=sf, bw_hz=bw, cr=CodingRate(4, 8))

        assert drop_model_from_table(field_table, config(7, 10400)) == pytest.approx(0.54)
        assert drop_model_from_table(field_table, config(9, 125000)) == 0.0
        assert drop_model_from_table(field_table, config(7, 62500)) == pytest.approx(0.285)

    def test_missing_cell(self, field_table):
        config = RadioConfig(sf=6, bw_hz=125000, cr=CodingRate(4, 8))
        with pytest.raises(LookupError):
            drop_model_from_table(field_table, config)


class TestSerialization:
    def test_round_trip(self):
        schedule = SlotSchedule(make_nodes(2, drops=[0.4]), 0.1, 0.001)
        report = run_simulation(schedule, 3.0, seed=21)
        text = serialize_report(report)
        parsed = parse_report(text)
        assert parsed.timeline == report.timeline
        assert parsed.stats == report.stats
        assert serialize_report(parsed) == text

    def test_event_line_shape(self):
        report = run_simulation(SlotSchedule(make_nodes(1), 0.1, 0.0), 0.15, seed=0)
        lines = serialize_report(report).splitlines()
        assert lines[0].split()[1] == "slot_open"
        assert lines[0].split()[2] == "A001"
        assert lines[-1].startswith("node A001 sent=2 received=2 lost=0 loss_pct=0")

    def test_parse_skips_comments_and_rejects_garbage(self):
        assert parse_report("# comment\n\n").timeline == ()
        with pytest.raises(ValueError):
            parse_report("12 warp A001\n")
        with pytest.raises(ValueError):
            parse_report("notanumber slot_open A001\n")
        with pytest.raises(ValueError):
            parse_report("node A001 sent=1\n")


def sample_report_text():
    schedule = SlotSchedule(make_nodes(2, drops=[0.4]), 0.1, 0.001)
    return serialize_report(run_simulation(schedule, 1.0, seed=21))


def retell(text, old, new):
    """text with the first line that starts with old rewritten by new(line)."""
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(old))
    lines[index] = new(lines[index])
    return "\n".join(lines) + "\n"


def swap(text, i, j):
    lines = text.splitlines()
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


class TestReportChecks:
    def test_untampered_report_and_report_without_summary_parse(self):
        text = sample_report_text()
        assert parse_report(text).stats
        events_only = "".join(l + "\n" for l in text.splitlines() if not l.startswith("node "))
        assert parse_report(events_only).stats == ()

    @pytest.mark.parametrize("tamper", [
        lambda t: retell(t, "node A001", lambda l: l.replace(" sent=", " sent=1")),
        lambda t: retell(t, "node A001", lambda l: l.replace(" received=", " received=1")),
        lambda t: retell(t, "node A002", lambda l: l.replace(" lost=0", " lost=1")),
        lambda t: "".join(l + "\n" for l in t.splitlines() if not l.startswith("node A002")),
        lambda t: t + [l for l in t.splitlines() if l.startswith("node A001")][0] + "\n",
        lambda t: t + "99000000000 slot_open A001\n",
        lambda t: swap(t, 1, 2),
        # int() reads each of these edits as the number it replaces
        lambda t: retell(t, "0 tx_start A001", lambda l: l.replace(" 84", " 8_4")),
        lambda t: retell(t, "0 tx_start A001", lambda l: l.replace(" 84", " \u0668\u0664")),
        lambda t: retell(t, "node A002", lambda l: l.replace(" sent=5", " sent=0_5")),
        lambda t: retell(t, "node A002", lambda l: l.replace(" sent=5", " sent=\u0665")),
        lambda t: retell(t, "0 tx_start A001", lambda l: "+" + l),
        lambda t: retell(t, "0 tx_start A001", lambda l: l.replace(" 84", " +84")),
        lambda t: retell(t, "node A002", lambda l: l.replace(" sent=5", " sent=+5")),
    ], ids=["sent", "received", "lost", "missing-node", "repeated-node",
            "event-after-summary", "decreasing-time", "event-digit-separator",
            "event-non-ascii-digits", "summary-digit-separator", "summary-non-ascii-digits",
            "plus-timestamp", "plus-detail", "plus-summary-count"])
    def test_tampered_report_is_rejected(self, tamper):
        text = sample_report_text()
        tampered = tamper(text)
        assert tampered != text
        with pytest.raises(ValueError):
            parse_report(tampered)
        # every line is checked whichever kinds are built, and fails the same way
        messages = set()
        for kinds in (EVENT_KINDS, ("rx_ok",), ()):
            with pytest.raises(ValueError) as caught:
                for _ in iter_report(tampered.splitlines(), kinds=kinds):
                    pass
            messages.add(str(caught.value))
        assert len(messages) == 1, messages

    @pytest.mark.parametrize("kinds", [("rx_ok",), (), EVENT_KINDS, ("tx_end", "slot_open")])
    def test_iter_report_builds_only_the_kinds_asked_for(self, kinds):
        lines = sample_report_text().splitlines()
        full_stats, stats = [], []
        wanted = [event for event in iter_report(lines, full_stats) if event.kind in kinds]
        assert list(iter_report(lines, stats, kinds=kinds)) == wanted
        assert stats == full_stats and stats
        # a one-shot iterable of kinds is read once, not used up by the check
        assert list(iter_report(lines, kinds=iter(kinds))) == wanted

    @pytest.mark.parametrize("kinds", [("rx_okk",), ("rx_ok", "node"), "rx_ok"])
    def test_unknown_kind_raises_on_the_call(self, kinds):
        with pytest.raises(ValueError, match="unknown event kind"):
            iter_report(["0 slot_open A001\n"], kinds=kinds)  # before any next()

    def test_read_summary_reads_only_the_node_lines(self):
        text = sample_report_text()
        summary = read_summary(io.StringIO(text))
        assert tuple(summary.items()) == parse_report(text).stats
        with pytest.raises(ValueError):
            read_summary(["node A001 sent=1\n"])
