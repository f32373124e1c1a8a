import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loralink.rng import BLOCK, GOLDEN64, MASK64, interleave, mix64, mix_lanes, substream_seed


class SplitMix64:
    """Sequential SplitMix64 stream: the oracle for the counter-based draws
    mix64(seed + n * GOLDEN64) that the simulator makes."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN64) & MASK64
        return mix64(self._state)

    def next_unit(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # canonical SplitMix64 outputs for seed 0
        stream = SplitMix64(0)
        assert stream.next_u64() == 0xE220A8397B1DCDAF
        assert stream.next_u64() == 0x6E789E6AA1B965F4
        assert stream.next_u64() == 0x06C45D188009454F

    def test_reference_vectors_seed_zero_through_interleave(self):
        assert list(interleave([0], 1, 3)) == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_state_advance_rule_is_the_documented_one(self):
        seed = 0x123456789ABCDEF
        stream = SplitMix64(seed)
        state = seed
        for _ in range(10):
            state = (state + GOLDEN64) & MASK64
            assert stream.next_u64() == mix64(state)

    def test_units_land_in_unit_interval(self):
        stream = SplitMix64(42)
        values = [stream.next_unit() for _ in range(10_000)]
        assert all(0.0 <= v < 1.0 for v in values)
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.02

    def test_same_seed_same_sequence(self):
        a = SplitMix64(777)
        b = SplitMix64(777)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


class TestLanes:
    @pytest.mark.parametrize("k", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, MASK64))
    @example(seed=0)
    @example(seed=MASK64)
    def test_one_stream_is_the_sequential_oracle_across_pass_boundaries(self, k, seed):
        oracle = SplitMix64(seed)
        assert list(interleave([seed], 1, k)) == [oracle.next_u64() for _ in range(k)]

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seeds=st.lists(st.integers(0, MASK64), min_size=1, max_size=6),
           turn=st.integers(1, 4), rounds=st.integers(1, 150))
    @example(seeds=[MASK64, 0, 5], turn=2, rounds=86)  # 43 rounds a pass: the second is cut
    @example(seeds=[1] * 300, turn=1, rounds=2)  # a round longer than BLOCK
    @example(seeds=[7], turn=300, rounds=2)  # one turn longer than BLOCK
    def test_streams_take_turns_round_by_round(self, seeds, turn, rounds):
        oracles = [SplitMix64(seed) for seed in seeds]
        want = [oracle.next_u64() for _ in range(rounds) for oracle in oracles
                for _ in range(turn)]
        assert list(interleave(seeds, turn, rounds)) == want

    def test_no_seeds_or_no_rounds_yield_nothing(self):
        assert list(interleave([], 3, 10)) == []
        assert list(interleave([1, 2], 3, 0)) == []

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, MASK64), first=st.integers(0, 2**70),
           size=st.integers(1, 2 * BLOCK))
    @example(seed=0, first=0, size=BLOCK)
    @example(seed=MASK64, first=2**70, size=BLOCK)
    @example(seed=MASK64, first=1, size=1)  # the first input wraps past 2**64
    def test_mix_lanes_is_mix64_of_each_lane(self, seed, first, size):
        # each lane holds seed + n * GOLDEN64 mod 2**128: its high half is read
        # as mix64 reads bits above 64, not at all
        values = [(seed + n * GOLDEN64) % 2**128 for n in range(first, first + size)]
        packed = int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")
        assert list(mix_lanes(packed, size)) == [mix64(v) for v in values]


class TestSubstreams:
    def test_distinct_tags_and_ids_decorrelate(self):
        seeds = {
            substream_seed(7, stream_id, tag)
            for stream_id in (0xA001, 0xA002, 0xB001)
            for tag in (1, 2)
        }
        assert len(seeds) == 6

    def test_pure_function_of_inputs(self):
        assert substream_seed(7, 0xA001, 1) == substream_seed(7, 0xA001, 1)
        assert substream_seed(7, 0xA001, 1) != substream_seed(8, 0xA001, 1)
