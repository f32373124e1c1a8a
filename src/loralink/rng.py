"""Deterministic pseudo-random streams for reproducible simulation.

The generator is SplitMix64, chosen because its state-advance rule is a
one-line contract that any implementation can reproduce:

    state_{i+1} = (state_i + 0x9E3779B97F4A7C15) mod 2^64
    output_i    = mix64(state_{i+1})

where mix64 is the standard SplitMix64 finalizer (xor-shift/multiply chain
below), so output n (from 1) of the stream seeded s is mix64(s + n * GOLDEN64),
computed directly. Uniform [0, 1) doubles take the top 53 bits of an output over 2^53.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15


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
