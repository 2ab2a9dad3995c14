"""Keyed deterministic random substreams derived from a single master seed.

Every consumer of randomness in the simulator draws from its own named
stream, and each stream supports random access by step index.  That way a
change in how many samples one consumer draws (a fault window triggering
retransmits, a shadow cycle, a skipped stage) can never shift the samples
seen by any other consumer, or by the same consumer at a later step.

The generator is counter-based (Salmon et al., SC'11; Steele, Lea & Flood,
OOPSLA'14): nothing is seeded per draw.  ``at(tag, step)`` returns a new
draw handle keyed with ``derive_seed(master, tag, step)``, and draw n of
that handle is the top 53 bits of ``_mix64(key ^ n * golden)`` scaled
into [0, 1).  A handle holds only its key and n, so what one handle draws
never depends on another.  Normals come from Box-Muller over two fresh
uniforms, with no cached second normal, so every draw has a fixed address
(tag, step, n).

``WindowDraws`` serves the window kernel, which computes every active
cycle: it makes the draws of a range of steps tag by tag, column by
column, each tag's keys once however many columns read them.  Each step
is a 128-bit lane of one int, so splitmix64 mixes a column in a dozen
big-int operations.  A draw column holds the 53-bit
integers m that ``Draws.random`` scales by 2**-53 into its uniform, and a
tag's normals are one column of standard normals z, one pass over two
such integer columns that makes ``Draws.gauss``' float operations bit for
bit without building the uniforms (``WindowDraws.normals`` says why each
step is exact); ``gauss(mu, sigma)`` of a step is ``mu + sigma * z``.

Draws are keyed by (seed, tag, step) and never by the run that reads them,
so the runs of one seed can share the normal columns: ``WindowDraws`` takes
a mapping of ``(seed, tag)`` to an ``array('d')`` of the tag's normals from
step 0, reads its steps from there and fills the columns it reads past.

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
from typing import MutableMapping, Sequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
# the most steps a shared normal column is filled by at once outside a window's own
_FILL_LANES = 256


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
    """Uniform and normal draws addressed by (key, draw index), from draw ``n``."""

    __slots__ = ("key", "n")

    def __init__(self, key: int, n: int = 0):
        self.key = key
        self.n = n

    def random(self) -> float:
        """Draw n in [0, 1): the top 53 bits of _mix64(key ^ n * golden)."""
        n = self.n
        self.n = n + 1
        x = self.key ^ ((n * _GOLDEN) & _MASK64)
        x = ((x ^ (x >> 30)) * 0xBF58476D1F4E5787) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((x ^ (x >> 31)) >> 11) * 1.1102230246251565e-16  # 2**-53

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """``mu + sigma * z``, z the Box-Muller normal of the next two uniforms."""
        radius = math.sqrt(-2.0 * math.log(1.0 - self.random()))
        return mu + sigma * (radius * math.cos(_TWO_PI * self.random()))


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
    bit, computed over the steps' lanes by ``_mix64_lanes``.  Each tag's key
    column is computed once, on first read.  With ``normals``, a mapping of
    ``(master_seed, tag)`` to the tag's normals from step 0, each tag's
    normals are read from there and their column is filled up to ``stop``
    first, so the windows of every run that shares the mapping compute each
    step once.
    """

    __slots__ = ("master_seed", "steps", "_offsets", "_keys", "_columns")

    def __init__(
        self,
        master_seed: int,
        start: int,
        stop: int,
        normals: MutableMapping[tuple[int, str], array] | None = None,
    ):
        if start < 0 or stop < start:
            raise ValueError(f"window steps [{start}, {stop}) are not a range of cycles")
        self.master_seed = int(master_seed)
        self.steps = range(start, stop)
        ones, ramp, mask, _ = _lanes(stop - start)
        # each step's step * golden, which every tag's key mixes in; it fits
        # its lane: (2**64 + count) * golden < 2**128
        self._offsets = ((start & _MASK64) * ones + ramp) * _GOLDEN & mask
        self._keys: dict[str, int] = {}
        self._columns = normals

    def _packed_keys(self, tag: str) -> int:
        keys = self._keys.get(tag)
        if keys is None:
            ones, _, mask, _ = _lanes(len(self.steps))
            base = _tag_base(self.master_seed, tag) * ones
            keys = self._keys[tag] = _mix64_lanes(base ^ self._offsets, mask) & mask
        return keys

    def _packed_draws(self, tag: str, n: int) -> int:
        """The top 53 bits of draw ``n`` of each step, one per lane."""
        ones, _, mask, top53 = _lanes(len(self.steps))
        x = _mix64_lanes(self._packed_keys(tag) ^ (n * _GOLDEN & _MASK64) * ones, mask)
        return x >> 11 & top53

    def keys(self, tag: str) -> list[int]:
        """``derive_seed(master_seed, tag, step)`` of each step."""
        return _unpacked(self._packed_keys(tag), len(self.steps)).tolist()

    def integers(self, tag: str, n: int) -> array:
        """Draw ``n`` of each step as the integer m below 2**53 whose
        uniform is ``m * 2**-53``; ``u < p`` exactly when ``m < p * 2**53``."""
        return _unpacked(self._packed_draws(tag, n), len(self.steps))

    def normals(self, tag: str) -> Sequence[float]:
        """The standard normal z of draws 0 and 1 of each step, so the first
        ``gauss(mu, sigma)`` of step i is ``mu + sigma * z[i]``.

        z is ``Draws.gauss``' ``sqrt(-2.0 * log(1.0 - u0)) * cos(_TWO_PI *
        u1)`` bit for bit, with no uniform column built:

        * ``1.0 - u0`` is ``(2**53 - m0) * 2**-53``.  With u0 = m0 * 2**-53
          below 1, the difference is a multiple of 2**-53 in (0, 1], which a
          double holds exactly, so ``1.0 - u0`` rounds nothing; the lanes
          subtract ``m0`` from 2**53 without a borrow, and the scaling by a
          power of two is exact too.
        * ``_TWO_PI * u1`` is ``(_TWO_PI * 2**-53) * m1``.  Scaling by 2**-53
          is exact on both sides (m1 < 2**53 converts exactly), so both are
          the one real product ``2π * m1 * 2**-53`` rounded once.

        Without a ``normals`` mapping the column is computed on each call.
        With one, it is a copy of the steps' slice of the mapping's column,
        whose missing steps ``[len(column), stop)`` are computed first: this
        window's own steps in one pass, any others ``_FILL_LANES`` at a time.
        """
        if self._columns is None:
            return self._standard_normals(tag)
        column = self._columns.setdefault((self.master_seed, tag), array("d"))
        start, stop = self.steps.start, self.steps.stop
        while (filled := len(column)) < stop:
            # steps outside this window go _FILL_LANES at a time, so that
            # _lanes memoises no constants wider than a block's
            filler = self if filled == start else WindowDraws(
                self.master_seed, filled, min(stop, filled + _FILL_LANES)
            )
            column.extend(filler._standard_normals(tag))
        return column[start:stop]

    def _standard_normals(self, tag: str) -> list[float]:
        """The standard normal of each step (``normals`` says why it is exact)."""
        count = len(self.steps)
        ones = _lanes(count)[0]
        complement = _unpacked((ones << 53) - self._packed_draws(tag, 0), count)
        angles = _unpacked(self._packed_draws(tag, 1), count)
        log, sqrt, cos, turn = math.log, math.sqrt, math.cos, _TWO_PI * 2.0**-53
        return [
            sqrt(-2.0 * log(k * 2.0**-53)) * cos(turn * m) for k, m in zip(complement, angles)
        ]


class RandomStreams:
    """Family of named random streams sharing one master seed.

    ``at(tag, step)`` returns a new handle at draw 0 of ``step``; it keeps
    no state, so handles of one tag never alias.  Only each tag's base key
    is cached, a pure function of the tag.  ``fresh(tag)`` returns an
    independent generator for batch sampling that the caller owns.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._bases: dict[str, int] = {}

    def at(self, tag: str, step: int) -> Draws:
        base = self._bases.get(tag)
        if base is None:
            base = self._bases[tag] = _tag_base(self.master_seed, tag)
        return Draws(_mix64(base ^ ((step * _GOLDEN) & _MASK64)))

    def fresh(self, tag: str) -> random.Random:
        return random.Random(derive_seed(self.master_seed, tag))
