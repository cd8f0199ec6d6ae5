"""Aggregate metrics over a simulated iteration.

Provides the three quantities Figure 8 of the paper reports for NMT on 64
K80 GPUs: per-iteration execution time (the makespan), total data
transfers per iteration, and total task computation time per iteration --
plus per-device utilization breakdowns used by the benchmark reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.sim.full_sim import Timeline
from repro.sim.taskgraph import TaskGraph, TaskKind

__all__ = ["IterationMetrics", "compute_metrics", "throughput_samples_per_sec"]


@dataclass
class IterationMetrics:
    """One training iteration's simulated cost breakdown."""

    makespan_us: float
    total_comm_bytes: float
    total_compute_us: float
    num_tasks: int
    comm_bytes_by_label: dict[str, float] = field(default_factory=dict)
    device_busy_us: dict[int, float] = field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        return self.makespan_us / 1e6

    @property
    def total_comm_gb(self) -> float:
        return self.total_comm_bytes / 1e9

    def utilization(self, num_devices: int) -> float:
        """Mean fraction of the makespan each compute device is busy."""
        if self.makespan_us <= 0 or num_devices == 0:
            return 0.0
        busy = sum(self.device_busy_us.values())
        return busy / (self.makespan_us * num_devices)

    def row(self) -> dict[str, float]:
        """Flat dict for tabular benchmark reports."""
        return {
            "iter_time_ms": self.makespan_us / 1e3,
            "comm_GB": self.total_comm_gb,
            "compute_s": self.total_compute_us / 1e6,
            "tasks": self.num_tasks,
        }


def compute_metrics(tg: TaskGraph, tl: Timeline) -> IterationMetrics:
    """Collect iteration metrics from a task graph and its timeline.

    Aggregates over the flat :class:`~repro.sim.arrays.TaskArrays`
    columns; the ``Task`` objects are only consulted for COMM tasks'
    connection labels (the one property the arrays do not mirror).
    Every total is an exact ``math.fsum`` and the per-label/per-device
    dicts are key-sorted, so the metrics depend only on the set of
    tasks, never on the slot order a sequence of splices left behind.
    """
    comm_bytes: list[float] = []
    compute_us: list[float] = []
    by_label: dict[str, list[float]] = {}
    busy: dict[int, list[float]] = {}
    arr = tg.arrays
    exe, dev, kinds, nbytes, tids = arr.exe, arr.dev, arr.kind, arr.nbytes, arr.tid
    comm = int(TaskKind.COMM)
    for slot in range(len(tids)):
        tid = tids[slot]
        if tid == -1:
            continue
        if kinds[slot] == comm:
            nb = nbytes[slot]
            comm_bytes.append(nb)
            conn = tg.tasks[tid].conn
            label = conn.label if conn is not None else "?"
            by_label.setdefault(label, []).append(nb)
        else:
            e = exe[slot]
            compute_us.append(e)
            busy.setdefault(dev[slot], []).append(e)
    return IterationMetrics(
        makespan_us=tl.makespan,
        total_comm_bytes=math.fsum(comm_bytes),
        total_compute_us=math.fsum(compute_us),
        num_tasks=len(tg.tasks),
        comm_bytes_by_label={k: math.fsum(by_label[k]) for k in sorted(by_label)},
        device_busy_us={d: math.fsum(busy[d]) for d in sorted(busy)},
    )


def throughput_samples_per_sec(batch: int, makespan_us: float) -> float:
    """Training throughput in samples/second for one simulated iteration."""
    if makespan_us <= 0:
        return 0.0
    return batch / (makespan_us / 1e6)
