"""Per-cycle storage, per-window QoS metrics, and normalization.

A window is W consecutive control cycles.  The controller never sees raw
cycles; it sees one WindowMetrics per window: the 95th-percentile latency,
the deadline violation rate, and the mean utilization of the robot and
edge node classes.

A run keeps its cycles in a CycleStore: one stdlib ``array`` column per
field (latency µs, deadline met, busy µs per fabric node), about 33 bytes
per cycle; a run's windows say which placement ran each cycle.  A fixed
run's store records what it was simulated from (``source``).  A
store is read only as columns: whole, or a range of them
(``CycleStore.columns``).  The aggregates sum the integer µs columns
exactly and divide once, so no statistic depends on a summation order.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .pipeline import Fabric
from .sampling import US_PER_MS

# guards against float fuzz in p * n for exact-integer products; config
# percentiles carry far fewer than 9 decimals
_RANK_EPS = 1e-9


def fsum_mean(values: Sequence[float], empty: float = 0.0) -> float:
    """The mean of ``values`` from their correctly rounded sum (``math.fsum``),
    which no interpreter rounds differently; ``empty`` for no values."""
    return math.fsum(values) / len(values) if values else empty


def percentile_nearest_rank(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: element at rank ceil(p * n) of the sort.

    Always returns a member of ``samples``; no interpolation.
    """
    if not samples:
        raise ValueError("percentile of an empty sample list")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1], got {p}")
    ordered = sorted(samples)
    rank = math.ceil(p * len(ordered) - _RANK_EPS)
    return ordered[max(rank, 1) - 1]


# One cycle as the engine computes it: latency µs, deadline met (a bool or
# 0/1), and the busy µs of each node in the store's node order.
Row = tuple[int, int, list[int]]


class Columns(NamedTuple):
    """A range of a CycleStore's columns; ``busy_us`` is keyed by node."""

    latency_us: array
    met: bytearray
    busy_us: Mapping[str, array]


class CycleStore:
    """The cycles of a run as columns, read-only to everyone but the engine.

    Row i is cycle i, released at ``i * period`` ms.  ``source`` is None, or
    what a fixed run's store was simulated from, set by the engine:
    ``(sim, fabric, window, runs)``, ``runs`` being each window's plan of the
    placement run-length encoded as (windows, plan) pairs.  Stores with
    equal sources hold equal rows, whichever scenario made them, so a run
    whose candidate has equal per-window plans may read one.
    """

    __slots__ = ("nodes", "period", "source", "latency_us", "met", "busy_us")

    def __init__(self, nodes: Sequence[str], period: float):
        self.nodes = tuple(nodes)
        self.period = period
        self.source: tuple | None = None
        self.latency_us = array("q")
        self.met = bytearray()
        self.busy_us = tuple(array("q") for _ in self.nodes)

    def append_columns(
        self, latency_us: Sequence[int], met: Sequence[int], busy_us: Sequence[Sequence[int]]
    ) -> None:
        """Add cycles given column by column, ``busy_us`` in node order."""
        self.latency_us.extend(latency_us)
        self.met.extend(met)
        for column, us in zip(self.busy_us, busy_us):
            column.extend(us)

    def extend(self, other: "CycleStore", start: int, stop: int, step: int = 1) -> None:
        """Add cycles ``[start:stop:step]`` of ``other``, a store over the same
        nodes: one slice per column."""
        cut = slice(start, stop, step)
        self.append_columns(
            other.latency_us[cut], other.met[cut], [column[cut] for column in other.busy_us]
        )

    def columns(self, start: int = 0, stop: int | None = None) -> Columns:
        """Cycles ``[start:stop]`` as columns (slice semantics).  The whole
        store comes back uncopied, so the caller must only read it."""
        if start == 0 and stop is None:
            return Columns(self.latency_us, self.met, dict(zip(self.nodes, self.busy_us)))
        cut = slice(start, stop)
        return Columns(
            self.latency_us[cut],
            self.met[cut],
            {node: column[cut] for node, column in zip(self.nodes, self.busy_us)},
        )

    def __len__(self) -> int:
        return len(self.latency_us)


@dataclass(frozen=True)
class WindowMetrics:
    """Aggregated QoS of one window."""

    l95: float
    violation_rate: float
    util_robot: float
    util_edge: float

    def __post_init__(self):
        if self.l95 < 0:
            raise ValueError("l95 must be >= 0")
        for name in ("violation_rate", "util_robot", "util_edge"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class NormalizationTargets:
    """Reference scales for the cost function: latency in ms, utils in (0, 1]."""

    latency: float
    util_robot: float = 0.8
    util_edge: float = 0.8

    def __post_init__(self):
        if self.latency <= 0:
            raise ValueError("latency target must be > 0")
        for name in ("util_robot", "util_edge"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} target must be in (0, 1], got {value}")


class NormalizedMetrics(NamedTuple):
    l95: float
    violation_rate: float
    util_robot: float
    util_edge: float


def class_utilization(
    busy_us: Mapping[str, int],
    window_duration: float,
    nodes: Sequence[str],
) -> float:
    """Mean busy fraction across ``nodes`` over the window, clamped to [0, 1],
    from each node's busy µs summed over the window (``busy_us``; 0 for a
    node it does not name)."""
    if not nodes:
        return 0.0
    total = sum([busy_us.get(n, 0) for n in nodes])
    return min(1.0, max(0.0, total / (US_PER_MS * window_duration * len(nodes))))


def aggregate_window(
    cycles: Columns,
    window_duration: float,
    fabric: Fabric,
) -> tuple[WindowMetrics, dict[str, float]]:
    """Collapse one window of cycles into WindowMetrics and the utilization
    of each node of ``cycles.busy_us``, summing each busy column once.

    window_duration is W * P in milliseconds and is the utilization
    denominator per node.  A node's utilization is its busy fraction,
    clamped to [0, 1]: the ``class_utilization`` of the node alone.
    """
    count = len(cycles.latency_us)
    if not count:
        raise ValueError("aggregate_window requires at least one cycle")
    if window_duration <= 0:
        raise ValueError("window_duration must be > 0")
    busy_us = {node: sum(us) for node, us in cycles.busy_us.items()}
    metrics = WindowMetrics(
        # the µs -> ms division is monotone, so the rank can be taken on the ints
        l95=percentile_nearest_rank(cycles.latency_us, 0.95) / US_PER_MS,
        violation_rate=(count - cycles.met.count(1)) / count,
        util_robot=class_utilization(busy_us, window_duration, fabric.robot_ids),
        util_edge=class_utilization(busy_us, window_duration, fabric.edge_ids),
    )
    # a one-node class divides by US_PER_MS * window_duration * 1, the same float
    scale = US_PER_MS * window_duration
    return metrics, {node: min(1.0, max(0.0, us / scale)) for node, us in busy_us.items()}


def normalize(metrics: WindowMetrics, targets: NormalizationTargets) -> NormalizedMetrics:
    """Scale metrics by their targets; violation rate is already in [0, 1]."""
    return NormalizedMetrics(
        l95=metrics.l95 / targets.latency,
        violation_rate=metrics.violation_rate,
        util_robot=metrics.util_robot / targets.util_robot,
        util_edge=metrics.util_edge / targets.util_edge,
    )
