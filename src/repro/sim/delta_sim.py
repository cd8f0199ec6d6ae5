"""Delta simulation algorithm (Algorithm 2 of the paper), cut-time variant.

The MCMC optimizer changes one weight-group's configuration per proposal,
so most of the previous execution timeline remains valid.  Instead of
re-simulating from scratch, this module replays the unchanged *prefix* of
the previous :class:`~repro.sim.full_sim.Timeline` and re-simulates only
the suffix:

1. :meth:`TaskGraph.replace_config` has already spliced the task graph
   and reported the removed task ids and the "dirty" seed set (new tasks
   plus survivors whose predecessor sets changed);
2. the **cut time** ``t_cut`` is the earliest instant anything can
   change: the minimum over removed tasks' old ready times and a lower
   bound on every seed's new ready time (a memoized recursion through
   predecessors that are themselves new);
3. every task whose old ready time is before ``t_cut`` is provably
   unaffected -- devices execute FIFO by ready time, so a task ordered
   before the cut depends only on tasks ordered before the cut -- and its
   times are kept verbatim;
4. the remaining tasks are re-simulated with exactly the full
   algorithm's priority-queue sweep, seeded with the per-device end
   times of the preserved prefixes.

Because the suffix is computed by the same algorithm under identical
boundary conditions, "the full and delta simulation algorithms always
produce the same timeline" (Section 5.3) holds by construction; the
property is additionally enforced by hypothesis tests in ``tests/sim``.

**Fidelity note:** this cut-time variant re-simulates *every* task
ordered at or after the earliest change, including parallel branches the
change cannot reach -- a conservative over-approximation that is simple
to prove correct but forfeits the skip-unaffected-branches property the
paper's delta implementation exploits for its 2.2-6.9x end-to-end search
speedups.  :mod:`repro.sim.propagate` (``algorithm="propagate"``) now
implements that property: a true change-propagation engine that walks
only *actually-changed* tasks, terminates each branch the moment a
recomputed ``(ready, start, end)`` triple equals its old value, and
falls back to this algorithm (then to full simulation) behind a cascade
guard.  Measured on Inception/16 devices
(``benchmarks/bench_delta_propagation.py``): splices whose timeline
impact is localized (identity re-splices; absorbed changes) repair
~100x fewer tasks -- the vectorized propagate engine replays them at
~3.4x lower wall cost than its own scalar heap, ~20x below this
variant -- while dense random mutations, whose true change cone
approaches the suffix, stay at task parity with a slightly higher
constant factor.  The default ``algorithm="auto"`` router therefore
sizes the cone *before* repairing: localized splices go to
``propagate``, dense mutations land here while the predicted occupancy
cone (per-device ``TaskArrays.dev_count`` summaries + chain bisects)
stays under :data:`_SATURATION_FRAC` of the graph, and past that the
router skips straight to the vectorized full sweep.  On the bench's
mutation workload that rule routes 100% of proposals within 10% of the
a-posteriori cheapest algorithm and leaves
:attr:`DeltaStats.saturation_handoffs` -- this module's own mid-repair
re-route when a suffix it accepted saturates anyway -- at zero.  This
variant is also the guard's safety net and the reference the property
suite checks the incremental algorithms against (all four algorithms
produce bit-identical timelines, ``tol=0``).  A defensive check falls
back to full simulation if a suffix task ever becomes ready before the
cut (never observed; counted in :attr:`DeltaStats.fallbacks`).

Like the full algorithm, the suffix sweep runs on the flat
:class:`~repro.sim.arrays.TaskArrays` substrate -- static columns and
adjacency rows indexed by slot, heap ordered by closed-form ckey rank --
instead of probing the ``dict[int, Task]`` per field access.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.sim import kernels
from repro.sim.full_sim import Timeline, full_simulate
from repro.sim.taskgraph import TaskGraph

__all__ = ["DeltaStats", "delta_simulate"]

#: Suffix fraction at which the cut-time repair hands off to the full
#: kernel sweep (see the saturation handoff in :func:`delta_simulate`).
_SATURATION_FRAC = 0.5


@dataclass
class DeltaStats:
    """Work accounting for the incremental algorithms (drives Table 4).

    Shared by the cut-time delta algorithm and the change-propagation
    engine (:mod:`repro.sim.propagate`): both count every repaired task
    in ``tasks_resimulated``, so ``resim_fraction`` compares the two
    directly.  ``propagated_tasks``/``branch_skips`` are only written by
    the propagation engine; ``guard_fallbacks`` counts its cascade-guard
    handoffs to the cut-time algorithm (``fallbacks`` counts authoritative
    full re-simulations, from either algorithm's defensive paths).
    """

    invocations: int = 0
    fallbacks: int = 0
    tasks_resimulated: int = 0
    tasks_total: int = 0
    propagated_tasks: int = 0  # tasks whose times a propagation pass recomputed
    branch_skips: int = 0  # propagation pops whose triple was unchanged
    guard_fallbacks: int = 0  # cascade-guard handoffs to the cut-time algorithm
    auto_propagate: int = 0  # auto-router proposals sent to change propagation
    auto_delta: int = 0  # auto-router proposals sent to the cut-time algorithm
    auto_noop: int = 0  # auto-router proposals short-circuited (identity config)
    auto_full: int = 0  # auto-router proposals sent straight to the full sweep
    saturation_handoffs: int = 0  # saturated suffixes handed to the full kernel
    # Route telemetry (auto router only): per-route proposal counts --
    # including the pre-splice "noop" short circuit -- plus the occupancy
    # estimator's accounting: the summed predicted repair-cone sizes, the
    # tasks the routed algorithms actually repaired, and the accumulated
    # absolute prediction error.  Flows through the bench grid and the
    # repro.exp trial rows.
    route_counts: dict = field(default_factory=dict)
    predicted_cone_tasks: int = 0
    actual_cone_tasks: int = 0
    cone_abs_error: int = 0

    @property
    def resim_fraction(self) -> float:
        return self.tasks_resimulated / self.tasks_total if self.tasks_total else 0.0

    @property
    def fallback_rate(self) -> float:
        """Fraction of invocations that abandoned the incremental path."""
        if not self.invocations:
            return 0.0
        return (self.fallbacks + self.guard_fallbacks) / self.invocations


def _fallback(tg: TaskGraph, tl: Timeline, stats: DeltaStats | None) -> Timeline:
    if stats is not None:
        stats.fallbacks += 1
    fresh = full_simulate(tg)
    tl.ready, tl.start, tl.end = fresh.ready, fresh.start, fresh.end
    tl.device_order = fresh.device_order
    tl.makespan = fresh.makespan
    return tl


def delta_simulate(
    tg: TaskGraph,
    tl: Timeline,
    removed: dict,
    dirty: set[int],
    stats: DeltaStats | None = None,
) -> Timeline:
    """Repair ``tl`` in place after a task-graph splice; returns ``tl``.

    ``removed`` maps removed task id -> the removed
    :class:`~repro.sim.taskgraph.Task`; ``dirty`` is the seed set --
    both come from :meth:`TaskGraph.replace_config`.
    """
    if stats is not None:
        stats.invocations += 1
        stats.tasks_total += len(tg.tasks)
    arr = tg.arrays
    exe, dev, rank, tids, ckeys = arr.exe, arr.dev, arr.rank, arr.tid, arr.ckey
    all_ins, all_outs = arr.ins, arr.outs
    slot_of = arr.slot_of
    ready, start, end = tl.ready, tl.start, tl.end
    order = tl.device_order

    # ---- cut time --------------------------------------------------------
    # A lower bound on each seed's new ready time: the max over its
    # predecessors of either their (still valid) old end time, or -- for
    # predecessors that are themselves new -- a recursive lower bound plus
    # their execution time.
    est_cache: dict[int, float] = {}

    def ready_lb(slot: int) -> float:
        cached = est_cache.get(slot)
        if cached is not None:
            return cached
        est_cache[slot] = 0.0  # break cycles defensively; DAG in practice
        best = 0.0
        for p in all_ins[slot]:
            pe = end.get(tids[p])
            if pe is None:
                pe = ready_lb(p) + exe[p]
            if pe > best:
                best = pe
        est_cache[slot] = best
        return best

    t_cut = float("inf")
    for tid in removed:
        r = ready.get(tid)
        if r is not None and r < t_cut:
            t_cut = r
    for tid in dirty:
        slot = slot_of.get(tid)
        if slot is None:
            continue
        est = ready_lb(slot)
        if est < t_cut:
            t_cut = est

    # Drop removed tasks' timeline entries (their device-order entries all
    # sit at or after the cut and disappear with the truncation below).
    for tid in removed:
        ready.pop(tid, None)
        start.pop(tid, None)
        end.pop(tid, None)

    if t_cut == float("inf"):
        # Nothing structural changed: no removed task had a timeline entry
        # and no seed survived, so every end time -- and with them the
        # running makespan the timeline already holds -- is untouched.
        # (This used to rescan all end times per no-op proposal.)
        return tl

    # ---- partition into fixed prefix and suffix ---------------------------
    # Suffix members come from two places, avoiding a full-graph scan:
    # survivors past the cut are exactly the truncated device-order tails,
    # and new tasks (no timeline entry yet) are all in the dirty seed set.
    suffix: list[int] = []
    dev_last_end: dict[int, float] = {}
    makespan = 0.0
    for d, lst in order.items():
        cut_idx = bisect_left(lst, (t_cut,))
        for entry in lst[cut_idx:]:
            tid = entry[-1]
            if tid in slot_of:  # truncated entries of *removed* tasks just vanish
                suffix.append(tid)
        del lst[cut_idx:]
        if lst:
            last = end[lst[-1][-1]]
            dev_last_end[d] = last
            if last > makespan:
                makespan = last
    for tid in dirty:
        if tid in slot_of and tid not in ready:
            suffix.append(tid)
    if stats is not None:
        stats.tasks_resimulated += len(suffix)
    suffix_slots = {slot_of[tid] for tid in suffix}

    # ---- saturation handoff ----------------------------------------------
    # When the suffix covers most of the graph (dense mutations routinely
    # re-simulate ~80% of tasks), the cut-time machinery buys nothing over
    # Algorithm 1 while still paying for truncation and boundary seeding;
    # the vectorized full sweep is strictly cheaper.  Hand off at the
    # t_cut -> 0 limit of this algorithm -- the result is bit-identical by
    # the same argument as the defensive fallback, so this is a pure
    # routing decision.  Only taken on the kernel path: the scalar
    # reference keeps the pure cut-time behavior the property suite and
    # the paper's Table 4 accounting describe.
    if (
        kernels.kernels_enabled()
        and len(suffix_slots) >= _SATURATION_FRAC * len(tg.tasks)
    ):
        if stats is not None:
            stats.saturation_handoffs += 1
            stats.tasks_resimulated += len(tg.tasks) - len(suffix)
        fresh = full_simulate(tg)
        tl.ready, tl.start, tl.end = fresh.ready, fresh.start, fresh.end
        tl.device_order = fresh.device_order
        tl.makespan = fresh.makespan
        return tl

    # ---- Algorithm 1 over the suffix ----------------------------------------
    if kernels.kernels_enabled():
        # Bit-identical level-batched drain (repro.sim.kernels); the
        # scalar sweep below is the REPRO_SIM_KERNELS=python reference.
        scheduled, mk, ok = kernels.suffix_drain(
            tg, suffix_slots, t_cut, ready, start, end, order, dev_last_end, makespan
        )
        if not ok or scheduled != len(suffix_slots):
            # Pre-cut pop (prefix-safety violation), a dependency cycle,
            # or bookkeeping drift: re-run authoritatively.
            return _fallback(tg, tl, stats)
        tl.makespan = mk
        return tl

    heap: list[tuple[float, int, int]] = []
    indeg: dict[int, int] = {}
    sready: dict[int, float] = {}
    for slot in suffix_slots:
        n = 0
        est = 0.0
        for p in all_ins[slot]:
            if p in suffix_slots:
                n += 1
            else:
                pe = end[tids[p]]  # fixed predecessor: final value
                if pe > est:
                    est = pe
        indeg[slot] = n
        sready[slot] = est
        if n == 0:
            heap.append((est, rank[slot], slot))
    heapq.heapify(heap)

    scheduled = 0
    while heap:
        r, _, slot = heapq.heappop(heap)
        if r < t_cut:
            # Defensive: contradicts the prefix-safety invariant.
            return _fallback(tg, tl, stats)
        tid = tids[slot]
        d = dev[slot]
        s = dev_last_end.get(d, 0.0)
        if r > s:
            s = r
        e = s + exe[slot]
        ready[tid] = r
        start[tid] = s
        end[tid] = e
        dev_last_end[d] = e
        if e > makespan:
            makespan = e
        order.setdefault(d, []).append((r, ckeys[slot], tid))
        scheduled += 1
        for nxt in all_outs[slot]:
            if nxt not in suffix_slots:
                continue
            if e > sready[nxt]:
                sready[nxt] = e
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, (sready[nxt], rank[nxt], nxt))

    if scheduled != len(suffix_slots):
        # A dependency cycle or bookkeeping drift: re-run authoritatively.
        return _fallback(tg, tl, stats)

    tl.makespan = makespan
    return tl
