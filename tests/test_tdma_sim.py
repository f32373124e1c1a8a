import contextlib
import hashlib
import io
import math
import random
import time
import tracemalloc
from collections import deque
from functools import cache, partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loralink import tdma_sim
from loralink.cli import EXIT_OK, main
from loralink.core_types import BW_HZ_VALUES, SF_VALUES, CodingRate, RadioConfig
from loralink.phy_model import FrameParams, time_on_air
from loralink.rng import GOLDEN64, mix64, substream_seed
from loralink.tdma_sim import (
    EVENT_KINDS,
    TEMPLATE_MEMO_SIZE,
    InfeasibleSlotError,
    NodeSpec,
    NodeStats,
    ScheduleConflictError,
    SimEvent,
    SimReport,
    SlotSchedule,
    default_slot_duration,
    drop_model_from_table,
    event_records,
    format_sync_word,
    iter_events,
    iter_report,
    iter_slots,
    parse_report,
    parse_sync_word,
    read_summary,
    report_lines,
    run_simulation,
    serialize_report,
    summary_line,
)
from test_cli_fuzz import tamper
from test_rng import SplitMix64

FAST_CONFIG = RadioConfig(sf=7, bw_hz=500000, cr=CodingRate(4, 8))
FRAME = FrameParams(payload_bytes=2)


def make_nodes(count, drops=()):
    """count nodes from A001 on; the i-th loses frames with probability drops[i] (default 0)."""
    drops = [*drops] + [0.0] * (count - len(drops))
    return tuple(NodeSpec(0xA001 + i, FAST_CONFIG, FRAME, p) for i, p in enumerate(drops))


def period(schedule):
    """One round of the schedule: each node's slot plus its guard."""
    return len(schedule.nodes) * (schedule.slot_duration_s + schedule.guard_s)


def node(sync_word):
    return NodeSpec(sync_word=sync_word, config=FAST_CONFIG, frame=FRAME)


def drop_draws(seed, sync_word, count):
    """The first count draws of a node's drop stream (substream tag 1), in the
    sequential SplitMix64 form."""
    stream = SplitMix64(substream_seed(seed, sync_word, 1))
    return [stream.next_unit() for _ in range(count)]


# The reference for the slot records: the event-at-a-time timeline and the
# per-line writer they replaced, with the plan that fed the timeline.

def oracle_events(schedule, duration_s, seed, *, frames_per_slot=1, handshake_s=0.0,
                  stats=None):
    _ns = tdma_sim._ns
    slot_ns = _ns(schedule.slot_duration_s, "slot_duration_s")
    handshake_ns = _ns(handshake_s, "handshake_s")
    plan = []
    for node in schedule.nodes:
        sync = node.sync_word
        airtime_ns = _ns(time_on_air(node.config, node.frame), "airtime")
        plan.append((sync, substream_seed(seed, sync, 2), airtime_ns,
                     substream_seed(seed, sync, 1), node.drop_probability * 2.0 ** 53))
    stride_ns = slot_ns + _ns(schedule.guard_s, "guard_s")
    return oracle_timeline(plan, slot_ns, stride_ns, handshake_ns,
                           _ns(duration_s, "duration_s"), frames_per_slot, stats)


def oracle_timeline(plan, slot_ns, stride_ns, handshake_ns, duration_ns, frames_per_slot,
                    stats):
    event = partial(tuple.__new__, SimEvent)  # SimEvent(...) minus its Python-level call
    sent = [0] * len(plan)
    received = [0] * len(plan)
    position = open_ns = 0
    while open_ns < duration_ns:
        sync, base, airtime_ns, drop_base, limit = plan[position]
        yield event((open_ns, "slot_open", sync, None))
        t = open_ns + handshake_ns
        for _ in range(frames_per_slot):
            n = sent[position] = sent[position] + 1
            payload = 2 + mix64(base + n * GOLDEN64) % 399
            yield event((t, "tx_start", sync, payload))
            t += airtime_ns
            yield event((t, "tx_end", sync, None))
            # a node with p = 0 skips its draws: draw n depends on n alone
            if limit and mix64(drop_base + n * GOLDEN64) >> 11 < limit:
                yield event((t, "rx_drop", sync, payload))
            else:
                received[position] += 1
                yield event((t, "rx_ok", sync, payload))
        yield event((open_ns + slot_ns, "slot_close", sync, None))
        open_ns += stride_ns
        position += 1
        if position == len(plan):
            position = 0
    if stats is not None:
        stats.extend(
            (entry[0], NodeStats(n_sent, n_received))
            for entry, n_sent, n_received in zip(plan, sent, received)
        )


def oracle_report_lines(events, stats):
    names = {}
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
            iter_events(iter_slots(SlotSchedule(nodes, 1.0, 0.0), 1.0, 0))  # airtime is ~11.1 s
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
            stats = dict(report.stats)[sync]
            assert stats.packets_sent == 5
            assert stats.packets_received == 5
            assert stats.packets_lost == 0

    def test_certain_loss(self):
        lossy_node = NodeSpec(0xA001, FAST_CONFIG, FRAME, drop_probability=1.0)
        schedule = SlotSchedule((lossy_node, node(0xA002)), 1.0, 0.0)
        report = run_simulation(schedule, 10.0, seed=7)
        lossy = dict(report.stats)[0xA001]
        assert lossy.packets_received == 0
        assert lossy.packets_lost == lossy.packets_sent == 5
        assert dict(report.stats)[0xA002].packets_received == 5

    def test_conservation_and_timeline_monotonicity(self):
        schedule = SlotSchedule(make_nodes(3, drops=[0.3] * 3), 0.5, 0.02)
        report = run_simulation(schedule, 30.0, seed=3)
        for _, stats in report.stats:
            assert stats.packets_sent == stats.packets_received + stats.packets_lost
        times = [event.t_ns for event in report.timeline]
        assert times == sorted(times)

    def test_fairness_after_whole_periods(self):
        schedule = SlotSchedule(make_nodes(4), 0.25, 0.01)
        report = run_simulation(schedule, period(schedule) * 6, seed=1)
        sent = [stats.packets_sent for _, stats in report.stats]
        assert len(set(sent)) == 1 and sent[0] == 6

    def test_mid_period_fairness_gap_at_most_one(self):
        schedule = SlotSchedule(make_nodes(3), 0.4, 0.0)
        report = run_simulation(schedule, period(schedule) * 2.5, seed=1)
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
                schedule, period(schedule) * rng.uniform(1.0, 4.0), seed=rng.randint(0, 2**32),
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
            schedule, period(schedule) * 2, seed=5, frames_per_slot=3, handshake_s=0.001,
        )
        assert dict(report.stats)[0xA001].packets_sent == 6
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
        {"seed": -1},
        {"seed": 2**64},
        {"seed": 2**64 + 5},  # would run as seed 5
    ])
    def test_iter_events_checks_before_the_first_event(self, change):
        kwargs = dict(schedule=SlotSchedule(make_nodes(2), 0.1, 0.0), duration_s=1.0, seed=5)
        kwargs.update(change)
        with pytest.raises(ValueError):
            iter_events(iter_slots(**kwargs))  # raises on the call, before any next()
        with pytest.raises(ValueError):
            iter_slots(**kwargs)

    def test_iter_events_fills_stats_when_exhausted(self):
        schedule = SlotSchedule(make_nodes(2, drops=[0.5]), 0.1, 0.0)
        stats = []
        events = iter_events(iter_slots(schedule, 3.0, seed=4, stats=stats))
        first = next(events)
        assert first == (0, "slot_open", 0xA001, None) and stats == []
        rest = list(events)
        report = run_simulation(schedule, 3.0, seed=4)
        assert (first, *rest) == report.timeline
        assert tuple(stats) == report.stats

    def test_events_are_sim_events_with_named_fields(self):
        schedule = SlotSchedule(make_nodes(2, drops=[0.5]), 0.1, 0.0)
        run = dict(duration_s=3.0, seed=4, frames_per_slot=2, handshake_s=0.01)
        events = list(iter_events(iter_slots(schedule, **run)))
        lines = serialize_report(run_simulation(schedule, **run)).splitlines()
        parsed = list(iter_report(lines))
        assert parsed == events and {e.kind for e in events} == set(EVENT_KINDS)
        for event in (*events, *parsed, *iter_report(lines, kinds=("rx_ok",))):
            assert type(event) is SimEvent
            assert event == SimEvent(event.t_ns, event.kind, event.sync_word, event.detail)
            assert (event.detail is None) == (event.kind in ("slot_open", "tx_end", "slot_close"))

    def test_airtime_is_computed_once_per_distinct_config_and_frame(self, monkeypatch,
                                                                    tmp_path):
        slow = (RadioConfig(sf=8, bw_hz=250000, cr=CodingRate(4, 8)), FrameParams(12))
        pairs = ((FAST_CONFIG, FRAME), slow)
        nodes = tuple(NodeSpec(0xA001 + i, *pairs[i % 2], 0.25) for i in range(6))
        calls = []

        def counting(config, frame):
            calls.append((config, frame))
            return time_on_air(config, frame)

        monkeypatch.setattr(tdma_sim, "time_on_air", counting)
        slot = default_slot_duration(nodes)
        assert len(calls) == 2
        calls.clear()
        text = serialize_report(run_simulation(SlotSchedule(nodes, slot, 0.001), 2.0, seed=13))
        assert len(calls) == 2
        # the report as it was when every node's airtime was computed apart
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2512bd0dcca0ffed2349cfd6159b4cdd60b1067eb050900ee214abbd154344c3")
        events = run_simulation(SlotSchedule(nodes, slot, 0.001), 2.0, seed=13).timeline
        for start, end in zip(events[1::5], events[2::5]):
            assert start.kind == "tx_start" and end.kind == "tx_end"
            airtime = time_on_air(*pairs[(start.sync_word - 0xA001) % 2])
            assert end.t_ns - start.t_ns == round(airtime * 1e9)
        calls.clear()
        assert main(["simulate", "--nodes", "24", "--duration-s", "1",
                     "--output", str(tmp_path / "r.txt")]) == EXIT_OK
        assert len(calls) == 2  # the default slot, then the run

    def test_default_payloads_are_sensor_like(self):
        report = run_simulation(SlotSchedule(make_nodes(1), 0.1, 0.0), 5.0, seed=42)
        payloads = [e.detail for e in report.timeline if e.kind == "tx_start"]
        assert all(2 <= p <= 400 for p in payloads)
        assert len(set(payloads)) > 1


class TestDropDraws:
    """Frame n of a node is dropped when draw n of its drop stream is below p."""

    EDGES = (0.0, 1.0, 5e-324, 0.5, 1 - 2**-53)
    FRAMES = 60  # per node

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("frames_per_slot, handshake_s", [(1, 0.0), (3, 0.02)])
    def test_outcomes_follow_the_sequential_stream(self, seed, frames_per_slot, handshake_s):
        # the last node's p is its own k-th draw, so frame k sits on the u < p boundary
        boundary = 0xA001 + len(self.EDGES)
        draws = drop_draws(seed, boundary, self.FRAMES)
        k = next(i for i, u in enumerate(draws) if 0.2 < u < 0.5)
        nodes = make_nodes(len(self.EDGES) + 1, [*self.EDGES, draws[k]])
        schedule = SlotSchedule(nodes, 0.1, 0.0)
        duration_s = period(schedule) * self.FRAMES / frames_per_slot
        outcomes = {n.sync_word: [] for n in nodes}
        for event in iter_events(iter_slots(schedule, duration_s, seed,
                                            frames_per_slot=frames_per_slot,
                                            handshake_s=handshake_s)):
            if event.kind in ("rx_ok", "rx_drop"):
                outcomes[event.sync_word].append(event.kind == "rx_drop")
        for n in nodes:
            want = [u < n.drop_probability for u in drop_draws(seed, n.sync_word, self.FRAMES)]
            assert outcomes[n.sync_word] == want, (format_sync_word(n.sync_word), n)
        assert outcomes[boundary][k] is False
        assert 0 < sum(outcomes[boundary]) < self.FRAMES

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_a_draw_half_a_step_below_p_drops_its_frame(self, seed):
        # p * 2**53 is m + 0.5 for the top 53 bits m of draw k: the threshold
        # must round it up, or frame k would be kept although u < p
        draws = drop_draws(seed, 0xA001, self.FRAMES)
        k = next(i for i, u in enumerate(draws) if 0.2 < u < 0.5)
        p = draws[k] + 2**-54
        assert (p * 2**53) % 1 == 0.5
        schedule = SlotSchedule(make_nodes(1, [p]), 0.1, 0.0)
        outcomes = [event.kind == "rx_drop" for event in iter_events(
            iter_slots(schedule, period(schedule) * self.FRAMES, seed),
            kinds=("rx_ok", "rx_drop"))]
        assert outcomes == [u < p for u in draws]
        assert outcomes[k] is True

    @pytest.mark.parametrize("p", [0.0, 5e-324, 2**-53, 0.3, 0.5, 1 - 2**-53, 1.0])
    def test_the_integer_threshold_is_exactly_u_below_p(self, p):
        # iter_slots drops a frame when its draw x < ceil(p * 2**53) << 11
        limit = math.ceil(p * 2**53) << 11
        for x in (limit - 1, limit, limit + 1, 0, 2**64 - 1):
            assert (x < limit) is ((x >> 11) < p * 2**53), (p, x)


@st.composite
def simulation_runs(draw):
    """(schedule, duration_s, seed, flags) over the inputs a slot's lines depend on."""
    count = draw(st.integers(1, 6))
    syncs = draw(st.lists(st.integers(0, 0xFFFF), min_size=count, max_size=count, unique=True))
    probability = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
    nodes = tuple(
        NodeSpec(sync, RadioConfig(draw(st.sampled_from(SF_VALUES)),
                                   draw(st.sampled_from(BW_HZ_VALUES)), CodingRate(4, 8)),
                 FrameParams(draw(st.integers(0, 64)), draw(st.integers(0, 16))),
                 draw(probability))
        for sync in syncs)
    frames = draw(st.integers(1, 6))
    handshake_s = draw(st.just(0.0) | st.floats(0.0, 0.5))
    longest = max(time_on_air(node.config, node.frame) for node in nodes)
    slot_s = handshake_s + frames * longest + draw(st.floats(1e-6, 0.5))
    schedule = SlotSchedule(nodes, slot_s, draw(st.just(0.0) | st.floats(0.0, 0.1)))
    duration_s = period(schedule) * draw(st.floats(0.01, 3.0))
    flags = dict(frames_per_slot=frames, handshake_s=handshake_s)
    return schedule, duration_s, draw(st.integers(0, 2**64 - 1)), flags


class TestSlotRecords:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(simulation_runs())
    def test_slot_records_match_the_event_oracle(self, run):
        schedule, duration_s, seed, flags = run
        stats, want_stats = [], []
        text = "".join(report_lines(
            iter_slots(schedule, duration_s, seed, stats=stats, **flags), stats))
        want = "".join(oracle_report_lines(
            oracle_events(schedule, duration_s, seed, stats=want_stats, **flags), want_stats))
        assert text == want
        assert stats == want_stats
        assert (list(iter_events(iter_slots(schedule, duration_s, seed, **flags)))
                == list(oracle_events(schedule, duration_s, seed, **flags)))

    # the draws come from rng.stream BLOCK (256) at a time: these horizons end
    # each node's streams just before, at and past a block boundary, and one
    # block later; at 3 frames a slot, 256 and 257 frames round up to 258.
    # With extra slots the first nodes open one slot more than the others, so
    # the streams of one run hold different numbers of draws.
    @pytest.mark.parametrize("extra", [0, 1, 2])
    @pytest.mark.parametrize("frames_per_slot", [1, 3])
    @pytest.mark.parametrize("frames", [255, 256, 257, 513])
    def test_slot_records_match_the_event_oracle_past_a_block_boundary(self, frames,
                                                                       frames_per_slot, extra):
        schedule = SlotSchedule(make_nodes(3, [0.0, 1.0, 0.3]),
                                3 * time_on_air(FAST_CONFIG, FRAME) + 0.001, 0.0005)
        slots = -(-frames // frames_per_slot)  # per node
        stride = schedule.slot_duration_s + schedule.guard_s
        duration_s = (3 * slots + extra - 0.5) * stride  # after the last slot opens
        flags = dict(frames_per_slot=frames_per_slot)
        stats, want_stats = [], []
        text = "".join(report_lines(
            iter_slots(schedule, duration_s, 2**64 - 1, stats=stats, **flags), stats))
        want = "".join(oracle_report_lines(
            oracle_events(schedule, duration_s, 2**64 - 1, stats=want_stats, **flags),
            want_stats))
        assert text == want
        assert stats == want_stats
        assert (list(iter_events(iter_slots(schedule, duration_s, 2**64 - 1, **flags)))
                == list(oracle_events(schedule, duration_s, 2**64 - 1, **flags)))
        sent = [(slots + (i < extra)) * frames_per_slot for i in range(3)]
        assert [(node.packets_sent, node.packets_received) for _, node in stats][:2] == [
            (sent[0], sent[0]), (sent[1], 0)]
        assert 0 < stats[2][1].packets_received < sent[2]

    @pytest.mark.parametrize("opened", [0, 1, 4])
    def test_nodes_that_open_no_slot_match_the_event_oracle(self, opened):
        # a run shorter than a round: only the first `opened` of 6 nodes send
        schedule = SlotSchedule(make_nodes(6, [0.3] * 6), 0.1, 0.0)
        duration_s = max(opened - 0.5, 1e-10) * 0.1  # 1e-10 s is 0 ns: no slot opens
        stats, want_stats = [], []
        assert (list(iter_events(iter_slots(schedule, duration_s, 9, stats=stats)))
                == list(oracle_events(schedule, duration_s, 9, stats=want_stats)))
        assert stats == want_stats
        assert [node.packets_sent for _, node in stats] == [1] * opened + [0] * (6 - opened)


    # rng.interleave packs a round longer than BLOCK (256) draws BLOCK at a time
    # instead of passes of whole rounds; 2.5 rounds also end one mid-round
    @pytest.mark.parametrize("count, frames_per_slot", [(300, 1), (100, 3), (86, 3)])
    def test_rounds_longer_than_a_pass_match_the_event_oracle(self, count, frames_per_slot):
        schedule = SlotSchedule(make_nodes(count, ([0.0, 0.5, 1.0] * count)[:count]),
                                3 * time_on_air(FAST_CONFIG, FRAME) + 0.001, 0.0)
        duration_s = 2.5 * period(schedule)
        flags = dict(frames_per_slot=frames_per_slot)
        stats, want_stats = [], []
        assert (list(iter_events(iter_slots(schedule, duration_s, 11, stats=stats, **flags)))
                == list(oracle_events(schedule, duration_s, 11, stats=want_stats, **flags)))
        assert stats == want_stats

    def test_template_memo_is_bounded_and_memory_flat_at_many_frames_per_slot(self):
        # at 10 frames a slot and p = 0.5 each node has 1024 equally likely
        # shapes, so the 8 nodes' (sync word, shape) keys rarely repeat
        nodes = make_nodes(8, [0.5] * 8)
        schedule = SlotSchedule(nodes, 10 * time_on_air(FAST_CONFIG, FRAME) + 0.001, 0.0)

        def drain(periods, seed):
            stats = []
            slots = iter_slots(schedule, period(schedule) * periods, seed, frames_per_slot=10,
                               stats=stats)
            deque(report_lines(slots, stats), maxlen=0)

        def growth_bytes(periods):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            drain(periods, 5)
            return tracemalloc.get_traced_memory()[1] - before

        tdma_sim._template.cache_clear()
        tracemalloc.start()  # before the memo fills, so each eviction counts as freed
        try:
            drain(50, 6)  # fills the memo, so each run below evicts as it adds
            once, four_times = growth_bytes(12), growth_bytes(48)
        finally:
            tracemalloc.stop()
        memo = tdma_sim._template.cache_info()
        assert memo.maxsize == TEMPLATE_MEMO_SIZE
        # the fill has 400 slots, so the runs measured missed more often than the memo holds
        assert memo.currsize == TEMPLATE_MEMO_SIZE < memo.misses - 400
        assert four_times - once < 64 * 1024, (once, four_times)

    def test_a_slot_costs_time_linear_in_its_frames(self):
        def best_drain_s(frames, drain):
            schedule = SlotSchedule(make_nodes(1, [0.5]),
                                    frames * time_on_air(FAST_CONFIG, FRAME) + 0.001, 0.0)
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                # the one slot that opens
                deque(drain(iter_slots(schedule, period(schedule), 3, frames_per_slot=frames)),
                      maxlen=0)
                best = min(best, time.perf_counter() - start)
            return best

        for drain in (iter, partial(report_lines, stats=()), iter_events):
            small, large = best_drain_s(2000, drain), best_drain_s(8000, drain)
            # 4x the frames: about 4x the time when linear, about 16x when quadratic
            assert large < 8 * small, (drain, small, large)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(simulation_runs())
    def test_the_batch_size_does_not_change_the_report(self, run):
        schedule, duration_s, seed, flags = run
        self.assert_batches_write_one_report(schedule, duration_s, seed, flags)

    def test_the_batch_size_does_not_change_a_report_of_many_batches(self):
        nodes = make_nodes(8, [0.3] * 8)
        for slot_s, flags in ((0.02, {}), (0.05, dict(frames_per_slot=4, handshake_s=0.001))):
            schedule = SlotSchedule(nodes, slot_s, 0.001)
            self.assert_batches_write_one_report(schedule, period(schedule) * 60, 7, flags)

    @staticmethod
    def assert_batches_write_one_report(schedule, duration_s, seed, flags):
        events = list(iter_events(iter_slots(schedule, duration_s, seed, **flags)))
        texts = {}
        for batch_lines in (1, 4, 7, 1000):
            with mock.patch.object(tdma_sim, "REPORT_BATCH_LINES", batch_lines):
                stats = []
                strings = list(report_lines(
                    iter_slots(schedule, duration_s, seed, stats=stats, **flags), stats))
                texts[batch_lines] = "".join(strings)
                assert texts[batch_lines] == "".join(report_lines(event_records(events), stats))
            # the first record alone, then as many as fit in batch_lines lines, at least one
            sizes = [text.count("\n") for text in strings[:len(strings) - len(stats)]]
            if sizes:
                per_record = sizes[0]
                assert per_record == 2 + 3 * flags.get("frames_per_slot", 1)
                full = max(batch_lines // per_record, 1) * per_record
                assert all(size == full for size in sizes[1:-1]), (batch_lines, sizes)
                assert 0 < sizes[-1] <= full
        assert len(set(texts.values())) == 1

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(simulation_runs())
    def test_iter_events_builds_only_the_kinds_asked_for(self, run):
        schedule, duration_s, seed, flags = run
        every = list(iter_events(iter_slots(schedule, duration_s, seed, **flags)))
        stats = []
        lines = "".join(report_lines(
            iter_slots(schedule, duration_s, seed, stats=stats, **flags), stats)).splitlines()
        for kinds in (("rx_ok",), (), EVENT_KINDS, ("tx_end", "slot_open"),
                      ("rx_drop", "tx_start", "slot_close")):
            wanted = [event for event in every if event.kind in kinds]
            # a one-shot iterable of kinds is read once, not used up by the check
            assert list(iter_events(iter_slots(schedule, duration_s, seed, **flags),
                                    kinds=iter(kinds))) == wanted
            assert list(iter_report(lines, kinds=kinds)) == wanted

    @pytest.mark.parametrize("kinds", [("rx_okk",), ("rx_ok", "node"), "rx_ok"])
    def test_iter_events_refuses_an_unknown_kind_on_the_call(self, kinds):
        records = iter([(0xA001, "oc", (0, 9))])
        with pytest.raises(ValueError, match="unknown event kind") as raised:
            iter_events(records, kinds=kinds)  # before any next()
        with pytest.raises(ValueError) as by_reader:
            iter_report(["0 slot_open A001\n"], kinds=kinds)
        assert str(raised.value) == str(by_reader.value)
        assert next(records) == (0xA001, "oc", (0, 9))  # no record was read

    @pytest.mark.parametrize("frames, memoised", [
        (tdma_sim.TEMPLATE_MEMO_LINES // 3, True),  # 2 + 3 * frames lines: 200, 203
        (tdma_sim.TEMPLATE_MEMO_LINES // 3 + 1, False),
    ])
    def test_only_a_slot_of_at_most_the_line_limit_is_memoised(self, frames, memoised):
        schedule = SlotSchedule(make_nodes(2, [0.5, 0.5]),
                                frames * time_on_air(FAST_CONFIG, FRAME) + 0.001, 0.0)
        run = dict(frames_per_slot=frames)
        tdma_sim._template.cache_clear()
        stats, want_stats = [], []
        text = "".join(report_lines(
            iter_slots(schedule, period(schedule) * 2, 9, stats=stats, **run), stats))
        assert (tdma_sim._template.cache_info().currsize > 0) is memoised
        assert text == "".join(oracle_report_lines(
            oracle_events(schedule, period(schedule) * 2, 9, stats=want_stats, **run), want_stats))


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

    def test_simulate_report_round_trips(self):
        schedule = SlotSchedule(make_nodes(3, drops=[0.4, 1.0]), 0.1, 0.001)
        stats = []  # the report as `simulate` writes it
        text = "".join(report_lines(iter_slots(schedule, 3.0, 21, frames_per_slot=3,
                                               handshake_s=0.002, stats=stats), stats))
        assert serialize_report(parse_report(text)) == text

    def test_a_detail_on_any_kind_round_trips(self):
        text = ("0 slot_open A001\n0 tx_start A001 84\n5 tx_end A001\n5 rx_ok A001 84\n"
                "9 slot_close A001 7\nnode A001 sent=1 received=1 lost=0 loss_pct=0\n")
        assert parse_report(text).timeline[-1] == (9, "slot_close", 0xA001, 7)
        assert serialize_report(parse_report(text)) == text

    def test_an_event_of_no_known_kind_is_refused_before_its_line(self):
        events = [SimEvent(0, "slot_open", 0xA001), SimEvent(5, "warp", 0xA001, 7),
                  SimEvent(9, "slot_close", 0xA001)]
        with mock.patch.object(tdma_sim, "REPORT_BATCH_LINES", 1):
            lines = report_lines(event_records(events), ())
            assert next(lines) == "0 slot_open A001\n"
            with pytest.raises(ValueError, match="unknown event kind 'warp'"):
                next(lines)
        records = event_records(events[1:])
        with pytest.raises(ValueError, match="unknown event kind 'warp'"):
            next(records)
        for kind in ("rx_ok%s", "", "node"):
            report = SimReport(timeline=(SimEvent(0, kind, 0xA001),), stats=())
            with pytest.raises(ValueError, match=f"unknown event kind {kind!r}"):
                serialize_report(report)

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


def line_forms(text):
    """text as lines without newlines, read one item per line, and as a new
    text file, read as `uplink` reads it, which may take the slot-block path.
    A read uses the file up, so each read needs a call of its own."""
    return text.splitlines(), io.StringIO(text)


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
            for lines in line_forms(tampered):
                with pytest.raises(ValueError) as caught:
                    for _ in iter_report(lines, kinds=kinds):
                        pass
                messages.add(str(caught.value))
        assert len(messages) == 1, messages

    @pytest.mark.parametrize("line, message", [
        ("5 warp A001 +7", "line 3: unknown event kind 'warp'"),
        ("5 warp A001 x", "line 3: malformed detail 'x'"),
        ("\u0665 tx_start A001 8x", "line 3: malformed detail '8x'"),
        ("5 tx_end A_01", "line 3: malformed number in '5 tx_end A_01'"),
        ("node A001 sent=1 received=1",
         "line 3: malformed summary line 'node A001 sent=1 received=1'"),
        ("node A001 sent=1 received=1 lost=0 loss_pct=0\n9 warp A_01 +7",
         "line 4: event line after the summary block '9 warp A_01 +7'"),
    ], ids=["kind-before-plus", "detail-before-kind", "detail-before-non-ascii",
            "underscore-sync-word", "short-summary-line", "after-summary-before-kind"])
    def test_a_line_with_two_faults_reports_the_first_check(self, line, message):
        text = f"0 slot_open A001\n0 tx_start A001 84\n{line}\n"
        for kinds in (EVENT_KINDS, ("rx_ok",)):
            for lines in line_forms(text):
                with pytest.raises(ValueError) as caught:
                    list(iter_report(lines, kinds=kinds))
                assert str(caught.value) == message

    @pytest.mark.parametrize("summary", [
        "node A001 sent=1 received=1 lost=0 loss_pct=99",
        "node A001 sent=7 sent=1 received=1 lost=0",  # a repeated key for loss_pct
        "node A001 sent=1 received=1 lost=0 bogus",
        "node A001 received=1 sent=1 lost=0 loss_pct=0",
        "node A001 sent=1 received=1 lost=0 loss_pct=0.0",
        "node A001 sent=1 received=-1 lost=2 loss_pct=200",  # lost > sent
        "node A001 sent=-1 received=-1 lost=0 loss_pct=0",
        "node a001 sent=1 received=1 lost=0 loss_pct=0",
        "node A001 sent=01 received=1 lost=0 loss_pct=0",
        "node A001 sent=1 received=1 lost=-0 loss_pct=0",
        "node A001 sent=1 received=1 lost=1 loss_pct=100",  # lost is not sent - received
        "node A001 sent=0 received=1 lost=-1 loss_pct=0",  # received > sent
        "node 0_A01 sent=1 received=1 lost=0 loss_pct=0",
    ], ids=["loss-pct", "repeated-sent", "bogus", "order", "loss-pct-text", "lost-over-sent",
            "negative-sent", "lowercase-sync-word", "zero-padded-count", "minus-zero-count",
            "lost-not-sent-minus-received", "received-over-sent", "underscore-sync-word"])
    def test_a_summary_line_must_read_as_summary_line_writes_it(self, summary):
        text = f"0 slot_open A001\n0 tx_start A001 84\n5 rx_ok A001 84\n{summary}\n"
        message = f"line 4: malformed summary line {summary!r}"
        with pytest.raises(ValueError) as caught:
            read_summary(text.splitlines())
        assert str(caught.value) == message
        for kinds in (EVENT_KINDS, ("rx_ok",)):
            for lines in line_forms(text):
                with pytest.raises(ValueError) as caught:
                    list(iter_report(lines, kinds=kinds))
                assert str(caught.value) == message

    @pytest.mark.parametrize("line, word", [
        ("5 tx_end a001", "a001"),  # A001 is already known from lines 1 and 2
        ("5 tx_end A00f", "A00f"),
        ("5 slot_open b002", "b002"),  # a node first seen in lowercase
        ("5 tx_start 0_A001 84", "0_A001"),  # four tokens: the detail holds no '_'
    ], ids=["lowercase-known-node", "mixed-case", "lowercase-new-node", "underscore-sync-word"])
    def test_a_sync_word_must_read_as_format_sync_word_writes_it(self, line, word):
        text = f"0 slot_open A001\n0 tx_start A001 84\n{line}\n"
        for kinds in (EVENT_KINDS, ("rx_ok",)):
            for lines in line_forms(text):
                with pytest.raises(ValueError) as caught:
                    list(iter_report(lines, kinds=kinds))
                assert str(caught.value) == (
                    f"line 3: sync word must be 4 uppercase hex digits, got {word!r}")

    @pytest.mark.parametrize("sent, received", [(1, 1), (3, 2), (3, 0), (0, 0), (7, 3)])
    def test_summary_lines_read_back(self, sent, received):
        stats = tdma_sim.NodeStats(sent, received)
        line = tdma_sim.summary_line(0xA001, stats)
        assert read_summary([line + "\n"]) == {0xA001: stats}

    @pytest.mark.parametrize("sent, received", [(0, 1), (1, 2), (1, -1)])
    def test_node_stats_refuse_received_outside_zero_to_sent(self, sent, received):
        with pytest.raises(ValueError, match="inconsistent counts"):
            tdma_sim.NodeStats(sent, received)

    def test_a_comment_is_skipped_whatever_it_holds(self):
        text = ("0 slot_open A001\n#5 warp A_01 +7\n# 5 tx_start A001\n  # x y z\n\n"
                "0 tx_start A001 84\n")
        for lines in line_forms(text):
            assert list(iter_report(lines)) == [
                SimEvent(0, "slot_open", 0xA001), SimEvent(0, "tx_start", 0xA001, 84)]

    @pytest.mark.parametrize("kinds", [("rx_ok",), (), EVENT_KINDS, ("tx_end", "slot_open")])
    def test_iter_report_builds_only_the_kinds_asked_for(self, kinds):
        text = sample_report_text()
        full_stats = []
        wanted = [event for event in iter_report(text.splitlines(), full_stats)
                  if event.kind in kinds]
        for read in (str.splitlines, io.StringIO):  # line_forms, made anew for each read
            stats = []
            assert list(iter_report(read(text), stats, kinds=kinds)) == wanted
            assert stats == full_stats and stats
            # a one-shot iterable of kinds is read once, not used up by the check
            assert list(iter_report(read(text), kinds=iter(kinds))) == wanted

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


@cache
def simulate_lines(argv):
    """The lines, without newlines, of the report `simulate` writes for argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simulate", *argv]) == EXIT_OK
    return tuple(out.getvalue().splitlines())


def event_time(line):
    """The timestamp of an event line as simulate writes it, else None."""
    head = line.split(" ", 1)[0]
    return int(head) if head.isascii() and head.isdigit() else None


def tamper_report(lines, edit, at, offset):
    """lines with one edit made near line index `at`.

    Besides test_cli_fuzz's tamper edits: a blank or comment line put in at
    `at`, the first summary line moved there, or on the first event line from
    `at` on that follows another: its timestamp set 1 below that one's (with
    the rx line's, for a tx_end line), its sync word set to FFFF, or, for an
    rx line, its payload changed.
    """
    if edit in ("swap", "_", "+", "\u0665", "kind", "drop"):
        return tamper(lines, edit, at, offset)
    lines = list(lines)
    if edit == "comment":
        lines.insert(at, "# " * (offset % 2))
        return lines
    if edit == "summary":
        lines.insert(at, lines.pop(next(i for i, l in enumerate(lines) if l.startswith("node "))))
        return lines
    for i in range(max(at, 1), len(lines)):
        before, t = event_time(lines[i - 1]), event_time(lines[i])
        if before is None or t is None:
            continue
        parts = lines[i].split(" ")
        if edit == "earlier" and before:
            # the rx line after a tx_end line repeats its time, and goes on doing so
            rx = parts[1:2] == ["tx_end"] and i + 1 < len(lines) and event_time(lines[i + 1]) == t
            for j in (i, i + 1) if rx else (i,):
                lines[j] = " ".join([str(before - 1), *lines[j].split(" ")[1:]])
            return lines
        if edit == "node" and len(parts) > 2:
            lines[i] = " ".join([*parts[:2], "FFFF", *parts[3:]])
            return lines
        if edit == "payload" and parts[1:2] in (["rx_ok"], ["rx_drop"]) and parts[-1].isdigit():
            lines[i] = " ".join([*parts[:-1], str(int(parts[-1]) + 1)])
            return lines
    return lines


@st.composite
def tampered_simulate_reports(draw):
    """The lines of a `simulate` report (1-8 nodes, 1-3 frames a slot, with or
    without a handshake and a guard, with drops), with 0-3 tampers. One frame
    a slot, the slot-block path's case, is drawn half the time."""
    lines = simulate_lines((
        "--sf", "7", "--bw-khz", "500", "--slot-s", "0.05",
        "--nodes", str(draw(st.integers(1, 8))),
        "--frames-per-slot", draw(st.sampled_from(("1", "1", "2", "3"))),
        "--handshake-s", draw(st.sampled_from(("0", "0.01"))),
        "--guard-s", draw(st.sampled_from(("0", "0.01"))),
        "--drop", draw(st.sampled_from(("0", "0.3", "1"))),
        "--duration-s", draw(st.sampled_from(("0.3", "1.5"))),
        "--seed", str(draw(st.integers(0, 3)))))
    edits = ("swap", "_", "+", "\u0665", "kind", "drop", "comment", "summary", "earlier",
             "node", "payload")
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(edits))
        if edit in ("drop", "summary") and not any(l.startswith("node ") for l in lines):
            continue
        lines = tamper_report(lines, edit, draw(st.integers(1, len(lines) - 1)),
                              draw(st.integers(0, 40)))
    return lines


def read_outcome(lines, kinds):
    """(events, stats, message): what iter_report yields and fills before it
    ends, and the text of the ValueError it ends with, if any."""
    events, stats = [], []
    try:
        for event in iter_report(lines, stats, kinds=kinds):
            assert type(event) is SimEvent
            events.append(event)
    except ValueError as exc:
        return events, stats, str(exc)
    return events, stats, None


def summary_outcome(lines):
    """What read_summary returns, or the text of the ValueError it raises."""
    try:
        return read_summary(lines)
    except ValueError as exc:
        return str(exc)


def assert_file_reads_as_lines(text, lines, read_chars=(1, 7, 64, 65536)):
    """Reading a text file of `text` in blocks of each size in read_chars gives the
    same summary, events, stats and message as reading `lines` one item per line."""
    summary = summary_outcome(lines)
    wants = {kinds: read_outcome(lines, kinds) for kinds in (EVENT_KINDS, ("rx_ok",), ())}
    for chars in read_chars:
        with mock.patch.object(tdma_sim, "REPORT_READ_CHARS", chars):
            assert summary_outcome(io.StringIO(text)) == summary, chars
            for kinds, want in wants.items():
                assert read_outcome(io.StringIO(text), kinds) == want, (kinds, chars)


class TestSlotBlockReader:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(tampered_simulate_reports())
    def test_a_text_file_reads_as_the_per_line_reader_reads_its_lines(self, lines):
        assert_file_reads_as_lines("".join(line + "\n" for line in lines), lines)

    def test_a_last_line_with_no_newline_reads_as_one_with_it(self):
        lines = sample_report_text().splitlines()
        events_only = [line for line in lines if not line.startswith("node ")]
        assert events_only[-1].split(" ")[1] == "slot_close"  # a whole slot ends the text
        for report in (lines, events_only):
            assert_file_reads_as_lines("\n".join(report), report)

    def test_a_block_edge_inside_a_slot_or_a_summary_line_reads_as_per_line(self):
        text = sample_report_text()
        lines = text.splitlines()
        slot = len("".join(line + "\n" for line in lines[:9]))  # the third slot, lines 10-14
        summary = text.index("node ")
        edges = [*range(slot + 1, slot + len("".join(lines[9:14]))),
                 *range(summary + 1, summary + len(lines[-2]))]
        assert_file_reads_as_lines(text, lines, edges)  # each size puts its first edge there

    @pytest.mark.parametrize("frames", ["1", "3"])  # slots taken whole, and all per line
    def test_a_malformed_summary_line_is_named_by_its_line_number_from_a_file(self, frames):
        lines = list(simulate_lines(("--sf", "7", "--bw-khz", "500", "--slot-s", "0.05",
                                     "--nodes", "3", "--frames-per-slot", frames,
                                     "--duration-s", "3", "--drop", "0.3")))
        # str.splitlines would split this comment into seven lines
        lines.insert(-3, "# \x0c \x1c \x1d \x1e \x85 \u2028 end no line")
        lines[-1] = lines[-1].replace(" lost=", " lost=1")
        message = f"line {len(lines)}: malformed summary line {lines[-1]!r}"
        assert summary_outcome(lines) == message
        assert read_outcome(lines, EVENT_KINDS)[2] == message
        assert_file_reads_as_lines("".join(line + "\n" for line in lines), lines)

    def test_only_the_manifest_first_slots_and_summary_go_per_line_from_a_file(self):
        nodes = 3
        lines = simulate_lines(("--sf", "7", "--bw-khz", "500", "--slot-s", "0.05",
                                "--nodes", str(nodes), "--duration-s", "20", "--drop", "0.3"))
        text = "".join(line + "\n" for line in lines)
        assert len(text) < tdma_sim.REPORT_READ_CHARS  # one block
        per_line, sent = tdma_sim._per_line, []

        def recorded(raws, *rest):
            raws = [raw.rstrip("\n") for raw in raws]
            sent.extend(raws)
            return (yield from per_line(raws, *rest))

        want = read_outcome(lines, EVENT_KINDS)
        assert want[2] is None
        with mock.patch.object(tdma_sim, "_per_line", recorded):
            assert read_outcome(io.StringIO(text), EVENT_KINDS) == want
        summary = [line for line in lines if line.startswith("node ")]
        assert lines[0].startswith("# manifest simulate") and len(summary) == nodes
        # the manifest, each node's first slot (five lines), then the summary lines
        assert sent == [*lines[:1 + 5 * nodes], *summary]
        assert len(lines) > 1 + 5 * nodes + 100 + nodes  # over 20 slots taken whole

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_ends_read_in_the_default_newline_mode(self, tmp_path, newline):
        lines = sample_report_text().splitlines()
        path = tmp_path / "report.txt"
        path.write_bytes("".join(line + newline for line in lines).encode())
        for chars in (1, 7, 64, 65536):
            with mock.patch.object(tdma_sim, "REPORT_READ_CHARS", chars):
                with open(path, encoding="utf-8") as report:
                    assert summary_outcome(report) == summary_outcome(lines)
                for kinds in (EVENT_KINDS, ("rx_ok",)):
                    with open(path, encoding="utf-8") as report:
                        assert read_outcome(report, kinds) == read_outcome(lines, kinds)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(tampered_simulate_reports())
    def test_newline_lines_read_as_the_per_line_reader_reads_them(self, lines):
        newline_lines = [line + "\n" for line in lines]
        for kinds in (EVENT_KINDS, ("rx_ok",), ()):
            assert read_outcome(newline_lines, kinds) == read_outcome(lines, kinds), kinds

    @pytest.mark.parametrize("edit", ["earlier", "node", "payload", "comment", "summary"])
    @pytest.mark.parametrize("at", range(10, 15))
    def test_a_slot_block_with_one_line_changed_reads_as_per_line(self, edit, at):
        lines = sample_report_text().splitlines()
        # lines 10-14 are the third slot, the first one the block path may take
        tampered = tamper_report(lines, edit, at, 1)
        assert tampered != lines
        text = "".join(line + "\n" for line in tampered)
        for kinds in (EVENT_KINDS, ("rx_ok",), ()):
            assert read_outcome(io.StringIO(text), kinds) == read_outcome(tampered, kinds)

    def test_items_that_are_not_one_line_each_are_read_per_line(self):
        text = sample_report_text()
        lines = text.splitlines(keepends=True)
        pairs = ["".join(lines[i:i + 2]) for i in range(0, len(lines), 2)]
        with pytest.raises(ValueError, match="^line 1: malformed event line"):
            list(iter_report(pairs))
        assert list(iter_report([*lines[:-1], lines[-1].rstrip("\n")])) == list(
            iter_report(lines))
        # an item is one line whatever it holds: a slot whose first two lines share
        # one item, joined by a NUL, is refused at that item, line 6
        slot = ["0 slot_open A001\n", "0 tx_start A001 84\n", "5 tx_end A001\n",
                "5 rx_ok A001 84\n", "9 slot_close A001\n"]
        later = [f"1{line}" for line in slot]  # the same slot 10 ns on
        forged = [later[0] + "\x00" + later[1], *later[2:], "x"]
        with pytest.raises(ValueError, match="^line 6: malformed event line"):
            list(iter_report([*slot, *forged]))

    def test_a_number_past_the_int_digit_limit_is_read_per_line(self):
        lines = sample_report_text().splitlines()
        for at in range(10, 15):  # the third slot, as in the test above
            for token in (0, -1):  # the timestamp, and the payload or sync word
                tampered = list(lines)
                old = lines[at].split(" ")[token]
                for i in {at, 13}:  # with the rx line, where it repeats the token
                    parts = lines[i].split(" ")
                    if parts[token] == old:
                        parts[token] = "9" * 5000
                        tampered[i] = " ".join(parts)
                text = "".join(line + "\n" for line in tampered)
                assert (read_outcome(io.StringIO(text), EVENT_KINDS)
                        == read_outcome(tampered, EVENT_KINDS))

    def test_peak_memory_of_a_drain_does_not_grow_with_the_horizon(self, tmp_path):
        schedule = SlotSchedule(make_nodes(8, [0.3] * 8), 0.02, 0.001)
        for periods in (10, 100, 400):  # 400, 4,000 and 16,000 lines
            stats = []
            with open(tmp_path / f"{periods}.txt", "w", encoding="utf-8") as out:
                out.writelines(report_lines(
                    iter_slots(schedule, period(schedule) * periods, 7, stats=stats), stats))

        def peak_bytes(periods):
            with open(tmp_path / f"{periods}.txt", encoding="utf-8") as report:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                deque(iter_report(report, kinds=("rx_ok",)), maxlen=0)
                return tracemalloc.get_traced_memory()[1] - before

        tracemalloc.start()
        try:
            peak_bytes(10)  # the one-off allocations, such as the compiled block regex
            once, four_times = peak_bytes(100), peak_bytes(400)
        finally:
            tracemalloc.stop()
        assert four_times - once < 64 * 1024, (once, four_times)
