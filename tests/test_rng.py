from loralink.rng import GOLDEN64, MASK64, mix64, substream_seed


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
