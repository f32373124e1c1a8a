"""Deterministic pseudo-random streams for reproducible simulation.

The generator is SplitMix64, chosen because its state-advance rule is a
one-line contract that any implementation can reproduce:

    state_{i+1} = (state_i + 0x9E3779B97F4A7C15) mod 2^64
    output_i    = mix64(state_{i+1})

where mix64 is the standard SplitMix64 finalizer (xor-shift/multiply chain
below), so output n (from 1) of the stream seeded s is mix64(s + n * GOLDEN64),
computed directly. Uniform [0, 1) doubles take the top 53 bits of an output over 2^53.

interleave(seeds, turn, rounds) yields the outputs of several such streams in
round-robin order, turn outputs of each stream per round, as the simulator's
nodes take them, and computes them a pass of at least BLOCK at a time (the
rounds allowing). mix_lanes() takes a pass's inputs (s + n * GOLDEN64) mod
2^64 packed into one Python int, input j in bits 128j .. 128j + 63 (its
lane), and runs mix64's five steps once over the whole int. No lane carries
into the next: every lane holds a value below 2^64 in the low half of its
128 bits, a right shift moves the next lane's low bits only into this lane's
high half, which the mask after it clears, and a product of a lane with a
64-bit constant stays below 2^128. While a round has at most BLOCK inputs, a
pass is whole rounds, and its inputs are the first pass's plus one constant
in every lane, so they are packed once; a longer round is packed BLOCK
inputs at a time. mix64 stays the scalar form, for substream_seed and as the
reference.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, islice
from typing import Iterator, Sequence

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15
BLOCK = 256  # least outputs per pass of the finalizer over packed lanes, rounds allowing
_LANE_MASK = b"\xff" * 8 + bytes(8)  # 2^64 - 1 in one little-endian 128-bit lane


def mix64(x: int) -> int:
    """SplitMix64 output finalizer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def substream_seed(seed: int, stream_id: int, tag: int) -> int:
    """Decorrelated seed for a tagged per-entity substream.

    Rule: mix64(seed + stream_id * GOLDEN64 + tag). Distinct (stream_id, tag)
    pairs give independent streams under one run seed.
    """
    return mix64((seed + stream_id * GOLDEN64 + tag) & MASK64)


def _lanes(values) -> int:
    """values (each below 2^64) packed one to a 128-bit lane, the first lowest."""
    return int.from_bytes(b"".join(value.to_bytes(16, "little") for value in values), "little")


def mix_lanes(x: int, size: int) -> array:
    """mix64 of each of the size lanes of x: lane j is bits 128j .. 128j + 127."""
    lanemask = int.from_bytes(_LANE_MASK * size, "little")
    x &= lanemask  # as mix64 reads its input mod 2^64
    x = (x ^ x >> 30 & lanemask) * 0xBF58476D1CE4E5B9 & lanemask
    x = (x ^ x >> 27 & lanemask) * 0x94D049BB133111EB & lanemask
    # the last xor-shift leaves bits in the high halves, which the slice drops
    words = array("Q", (x ^ x >> 31).to_bytes(16 * size, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]  # a lane's low half; an array, at 8 bytes an output, until each is read


def interleave(seeds: Sequence[int], turn: int, rounds: int) -> Iterator[int]:
    """Outputs of the streams seeded seeds, turn from each in order, for rounds rounds.

    Round r (from 0) yields outputs r * turn + 1 .. r * turn + turn of the
    stream seeded seeds[0], then those of seeds[1], and so on. A pass holds
    fewer than 2 * BLOCK inputs, so memory does not grow with turn or rounds.
    """
    width = len(seeds) * turn
    if not width or rounds < 1:
        return iter(())
    if width > BLOCK:  # a round outgrows a pass: pack its inputs BLOCK at a time
        inputs = _inputs(seeds, turn, rounds)
        chunks = iter(lambda: [*islice(inputs, BLOCK)], [])
        return chain.from_iterable(mix_lanes(_lanes(chunk), len(chunk)) for chunk in chunks)
    per_pass = min(-(-BLOCK // width), rounds)  # whole rounds, at least BLOCK inputs
    start = _lanes(_inputs(seeds, turn, per_pass))
    return chain.from_iterable(_passes(start, width, turn, per_pass, rounds))


def _inputs(seeds: Sequence[int], turn: int, rounds: int) -> Iterator[int]:
    """The inputs of interleave's outputs, in its order: (seed + n * GOLDEN64) mod 2^64."""
    return ((seed + n * GOLDEN64) & MASK64 for r in range(rounds) for seed in seeds
            for n in range(r * turn + 1, r * turn + turn + 1))


def _passes(start: int, width: int, turn: int, per_pass: int, rounds: int) -> Iterator[array]:
    """The passes of whole rounds: one from round `first` adds first * turn * GOLDEN64 to start."""
    for first in range(0, rounds, per_pass):
        size = width * min(per_pass, rounds - first)  # the last pass may hold fewer rounds
        step = (first * turn * GOLDEN64 & MASK64).to_bytes(16, "little")
        yield mix_lanes(start + int.from_bytes(step * size, "little"), size)
