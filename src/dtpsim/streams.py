"""Keyed deterministic random substreams derived from a single master seed.

Every consumer of randomness in the simulator draws from its own named
stream, and each stream supports random access by step index.  That way a
change in how many samples one consumer draws (a fault window triggering
retransmits, a shadow cycle, a skipped stage) can never shift the samples
seen by any other consumer, or by the same consumer at a later step.

The generator is counter-based (Salmon et al., SC'11; Steele, Lea & Flood,
OOPSLA'14): nothing is seeded per draw.  ``at(tag, step)`` keys a draw
handle with ``derive_seed(master, tag, step)``, and draw n of that handle
is the top 53 bits of ``_mix64(key ^ n * golden)`` scaled into [0, 1).
Normals come from Box-Muller over two fresh uniforms, with no cached
second normal, so every draw has a fixed address (tag, step, n).
``fresh(tag)`` still returns a Mersenne Twister ``random.Random``, seeded
once, for batch Monte Carlo whose caller owns the whole sequence.
"""

from __future__ import annotations

import math
import random
import zlib

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi


def _mix64(x: int) -> int:
    # splitmix64 finalizer: cheap, full-avalanche 64-bit mixing
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1F4E5787) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _tag_base(master_seed: int, tag: str) -> int:
    # crc32, never the builtin hash(), which is randomized per process
    return _mix64((master_seed & _MASK64) ^ (zlib.crc32(tag.encode()) * _GOLDEN))


def derive_seed(master_seed: int, tag: str, step: int = 0) -> int:
    """Stable 64-bit key for (master_seed, tag, step)."""
    return _mix64(_tag_base(master_seed, tag) ^ ((step * _GOLDEN) & _MASK64))


class Draws:
    """Uniform and normal draws addressed by (key, draw index)."""

    __slots__ = ("key", "n")

    def __init__(self, key: int = 0):
        self.key = key
        self.n = 0

    def random(self) -> float:
        """Draw n in [0, 1): the top 53 bits of _mix64(key ^ n * golden)."""
        n = self.n
        self.n = n + 1
        x = self.key ^ ((n * _GOLDEN) & _MASK64)
        x = ((x ^ (x >> 30)) * 0xBF58476D1F4E5787) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((x ^ (x >> 31)) >> 11) * 1.1102230246251565e-16  # 2**-53

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller normal from the next two uniforms."""
        radius = math.sqrt(-2.0 * math.log(1.0 - self.random()))
        return mu + sigma * radius * math.cos(_TWO_PI * self.random())


class RandomStreams:
    """Family of named random streams sharing one master seed.

    ``at(tag, step)`` re-keys and returns the tag's draw handle positioned
    at ``step``.  The handle is only valid until the next ``at()`` call
    with the same tag; callers draw what they need immediately.
    ``fresh(tag)`` returns an independent generator for batch sampling
    that the caller owns.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._handles: dict[str, tuple[int, Draws]] = {}

    def at(self, tag: str, step: int) -> Draws:
        entry = self._handles.get(tag)
        if entry is None:
            entry = (_tag_base(self.master_seed, tag), Draws())
            self._handles[tag] = entry
        base, handle = entry
        handle.key = _mix64(base ^ ((step * _GOLDEN) & _MASK64))
        handle.n = 0
        return handle

    def fresh(self, tag: str) -> random.Random:
        return random.Random(derive_seed(self.master_seed, tag))
