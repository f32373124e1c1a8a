import hashlib
import io
import math
import random
import time
import tracemalloc
from collections import deque
from functools import partial

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
    SlotSchedule,
    default_slot_duration,
    drop_model_from_table,
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
        def best_drain_s(frames):
            schedule = SlotSchedule(make_nodes(1, [0.5]),
                                    frames * time_on_air(FAST_CONFIG, FRAME) + 0.001, 0.0)
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                deque(iter_slots(schedule, period(schedule), 3, frames_per_slot=frames),
                      maxlen=0)  # the one slot that opens
                best = min(best, time.perf_counter() - start)
            return best

        small, large = best_drain_s(2000), best_drain_s(8000)
        # 4x the frames: about 4x the time when linear, about 16x when quadratic
        assert large < 8 * small, (small, large)

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
            with pytest.raises(ValueError) as caught:
                list(iter_report(text.splitlines(), kinds=kinds))
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
    ], ids=["loss-pct", "repeated-sent", "bogus", "order", "loss-pct-text", "lost-over-sent",
            "negative-sent", "lowercase-sync-word", "zero-padded-count", "minus-zero-count",
            "lost-not-sent-minus-received", "received-over-sent"])
    def test_a_summary_line_must_read_as_summary_line_writes_it(self, summary):
        text = f"0 slot_open A001\n0 tx_start A001 84\n5 rx_ok A001 84\n{summary}\n"
        message = f"line 4: malformed summary line {summary!r}"
        with pytest.raises(ValueError) as caught:
            read_summary(text.splitlines())
        assert str(caught.value) == message
        for kinds in (EVENT_KINDS, ("rx_ok",)):
            with pytest.raises(ValueError) as caught:
                list(iter_report(text.splitlines(), kinds=kinds))
            assert str(caught.value) == message

    @pytest.mark.parametrize("line, word", [
        ("5 tx_end a001", "a001"),  # A001 is already known from lines 1 and 2
        ("5 tx_end A00f", "A00f"),
        ("5 slot_open b002", "b002"),  # a node first seen in lowercase
    ], ids=["lowercase-known-node", "mixed-case", "lowercase-new-node"])
    def test_a_sync_word_must_read_as_format_sync_word_writes_it(self, line, word):
        text = f"0 slot_open A001\n0 tx_start A001 84\n{line}\n"
        for kinds in (EVENT_KINDS, ("rx_ok",)):
            with pytest.raises(ValueError) as caught:
                list(iter_report(text.splitlines(), kinds=kinds))
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
        assert list(iter_report(text.splitlines())) == [
            SimEvent(0, "slot_open", 0xA001), SimEvent(0, "tx_start", 0xA001, 84)]

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
