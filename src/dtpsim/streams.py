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

A tag's handle keeps the uniforms it has drawn at its current step.  Since
a draw is a pure function of (tag, step, n), ``at(tag, step)`` with the
step unchanged only rewinds n and replays them; a new step re-keys the
handle and drops them.  So the shadow cycles ``run_simulation`` runs at
one cycle index mix each key they share once (the ``svc:`` tags of their
common tasks), and no handle ever holds more than one step's draws.

``WindowDraws`` serves the window kernel, which computes every active
cycle: it makes the draws of a range of steps tag by tag, column by
column, each key and each column once however many placements read them.
Each step is a 128-bit lane of one int, so splitmix64 mixes a column in a
dozen big-int operations, and ``map`` chains make ``Draws``' float operations.

``fresh(tag)`` still returns a Mersenne Twister ``random.Random``, seeded
once, for batch Monte Carlo whose caller owns the whole sequence.
"""

from __future__ import annotations

import math
import random
import sys
import zlib
from array import array
from functools import lru_cache
from itertools import repeat
from operator import mul, sub

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
    """Uniform and normal draws addressed by (key, draw index).

    ``drawn`` memoizes the uniforms of the current key: draw n is computed
    once, however often ``n`` is rewound to replay it.  Whoever changes
    ``key`` clears ``drawn``.
    """

    __slots__ = ("key", "n", "drawn")

    def __init__(self, key: int = 0):
        self.key = key
        self.n = 0
        self.drawn: list[float] = []

    def random(self) -> float:
        """Draw n in [0, 1): the top 53 bits of _mix64(key ^ n * golden)."""
        n = self.n
        self.n = n + 1
        drawn = self.drawn
        if n < len(drawn):
            return drawn[n]
        x = self.key ^ ((n * _GOLDEN) & _MASK64)
        x = ((x ^ (x >> 30)) * 0xBF58476D1F4E5787) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        u = ((x ^ (x >> 31)) >> 11) * 1.1102230246251565e-16  # 2**-53
        drawn.append(u)
        return u

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller normal from the next two uniforms."""
        radius = math.sqrt(-2.0 * math.log(1.0 - self.random()))
        return mu + sigma * radius * math.cos(_TWO_PI * self.random())


@lru_cache(maxsize=16)
def _lanes(count: int) -> tuple[int, int, int, int]:
    """Over ``count`` 128-bit lanes: 1, the lane's index, and 64- and 53-bit masks."""
    ones = int.from_bytes((array("Q", (1, 0)) * count).tobytes(), sys.byteorder)
    ramp = array("Q", [v for i in range(count) for v in (i, 0)]).tobytes()
    return ones, int.from_bytes(ramp, sys.byteorder), ones * _MASK64, ones * ((1 << 53) - 1)


def _unpacked(x: int, count: int) -> array:
    """The low 64 bits of each of the ``count`` lanes of ``x``."""
    return array("Q", x.to_bytes(16 * count, sys.byteorder))[::2]


def _mix64_lanes(x: int, lane_mask: int) -> int:
    """``_mix64`` of every lane of ``x`` at once, lane values below 2**64."""
    x = ((x ^ (x >> 30)) & lane_mask) * 0xBF58476D1F4E5787 & lane_mask
    x = ((x ^ (x >> 27)) & lane_mask) * 0x94D049BB133111EB & lane_mask
    return x ^ (x >> 31)  # bits above 64 hold the next lane's: mask before use


class WindowDraws:
    """The draws of steps ``[start, stop)`` of every tag, one column per draw.

    Element i of draw n's column is draw n of ``at(tag, start + i)``, bit for
    bit, computed over the steps' lanes by ``_mix64_lanes``.  Each key column
    and each draw column is computed once, on first read, so readers that
    share a tag share its draws.
    """

    __slots__ = ("master_seed", "steps", "_keys", "_columns", "_normals")

    def __init__(self, master_seed: int, start: int, stop: int):
        if start < 0 or stop < start:
            raise ValueError(f"window steps [{start}, {stop}) are not a range of cycles")
        self.master_seed = int(master_seed)
        self.steps = range(start, stop)
        self._keys: dict[str, int] = {}
        self._columns: dict[tuple[str, int], list[float]] = {}
        self._normals: dict[str, tuple[list[float], list[float]]] = {}

    def _packed_keys(self, tag: str) -> int:
        keys = self._keys.get(tag)
        if keys is None:
            ones, ramp, mask, _ = _lanes(len(self.steps))
            # step * golden fits its lane: (2**64 + count) * golden < 2**128
            steps = (self.steps.start & _MASK64) * ones + ramp
            base = _tag_base(self.master_seed, tag) * ones
            keys = self._keys[tag] = _mix64_lanes(base ^ (steps * _GOLDEN & mask), mask) & mask
        return keys

    def keys(self, tag: str) -> list[int]:
        """``derive_seed(master_seed, tag, step)`` of each step."""
        return _unpacked(self._packed_keys(tag), len(self.steps)).tolist()

    def uniforms(self, tag: str, n: int) -> list[float]:
        """Draw ``n`` of each step: the top 53 bits of its lane, times 2**-53."""
        column = self._columns.get((tag, n))
        if column is None:
            ones, _, mask, top53 = _lanes(len(self.steps))
            x = _mix64_lanes(self._packed_keys(tag) ^ (n * _GOLDEN & _MASK64) * ones, mask)
            column = _unpacked(x >> 11 & top53, len(self.steps))
            column = self._columns[tag, n] = list(map(mul, column, repeat(2.0**-53)))
        return column

    def normals(self, tag: str) -> tuple[list[float], list[float]]:
        """The Box-Muller radius and cosine of draws 0 and 1 of each step, so
        the first ``gauss(mu, sigma)`` of step i is ``mu + sigma * r[i] * c[i]``."""
        normals = self._normals.get(tag)
        if normals is None:
            # sqrt(-2.0 * log(1.0 - u0)) and cos(_TWO_PI * u1), as Draws.gauss
            radius = map(sub, repeat(1.0), self.uniforms(tag, 0))
            radius = list(map(math.sqrt, map(mul, repeat(-2.0), map(math.log, radius))))
            cosine = list(map(math.cos, map(mul, repeat(_TWO_PI), self.uniforms(tag, 1))))
            normals = self._normals[tag] = (radius, cosine)
        return normals


class RandomStreams:
    """Family of named random streams sharing one master seed.

    ``at(tag, step)`` returns the tag's draw handle positioned at draw 0
    of ``step``: re-keyed for a new step, only rewound for the step it
    already has, whose draws it keeps.  The handle is only valid until the
    next ``at()`` call with the same tag; callers draw what they need
    immediately.  ``fresh(tag)`` returns an independent generator for
    batch sampling that the caller owns.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        # tag -> [tag base, current step, handle]
        self._handles: dict[str, list] = {}

    def at(self, tag: str, step: int) -> Draws:
        entry = self._handles.get(tag)
        if entry is None:
            entry = [_tag_base(self.master_seed, tag), None, Draws()]
            self._handles[tag] = entry
        handle = entry[2]
        if entry[1] != step:
            entry[1] = step
            handle.key = _mix64(entry[0] ^ ((step * _GOLDEN) & _MASK64))
            handle.drawn.clear()
        handle.n = 0
        return handle

    def fresh(self, tag: str) -> random.Random:
        return random.Random(derive_seed(self.master_seed, tag))
