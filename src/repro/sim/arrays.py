"""Flat struct-of-arrays view of the task graph (the simulators' substrate).

The task graph's source of truth is a ``dict[int, Task]`` of small
objects -- convenient for construction and splicing, but every simulator
sweep then pays a dict probe plus an attribute load per field access,
repeated for every task of every proposal.  :class:`TaskArrays` is the
cache-friendly mirror the hot loops read instead: one contiguous
``array`` per static property (``exe``/``dev``/``rank``), adjacency as
CSR-style per-slot row segments, and a dense *slot* index so per-task
state inside a sweep can live in plain lists.

Slots and free-list recycling
-----------------------------
Task *ids* grow monotonically across incremental reconfigurations (every
splice allocates fresh ids), so id-indexed arrays would grow without
bound over a search.  Each live task therefore occupies a *slot*; slots
freed by a splice go on a free list and are handed to the tasks the same
splice (or a later one) creates, so the arrays stay exactly as large as
the peak live-task count.

Adjacency
---------
``ins[slot]``/``outs[slot]`` hold the predecessor/successor *slots* of
the task in ``slot`` -- the row-segment layout of a CSR matrix, kept as
one mutable row per slot rather than a single flat buffer because
splices must edit individual rows in place (a packed index/offset pair
cannot absorb incremental inserts without a compaction sweep, which
would re-introduce the per-proposal O(n) cost this module removes).

Canonical-key ranks
-------------------
The simulators break ready-time ties by :attr:`~repro.sim.taskgraph.Task.ckey`,
a structural tuple.  Tuple comparisons in a priority queue are the
single hottest comparison site, so every ckey is encoded in closed form
as one non-negative ``int64`` *rank* whose integer order equals tuple
order -- heaps ordered by ``(time, rank)`` therefore pop in exactly the
``(time, ckey)`` order of the reference algorithms, keeping timelines
bit-identical.  The ckey kind (compute, edge transfer, ring all-reduce
hop, update; see :func:`_ckey_layouts`) takes the top bits and each
field follows in tuple order in a fixed-width bit field sized from the
graph's op count, its largest input-slot count and the topology's
device count; task, shard and ring indices share the bits left over.
Widths are fixed per task graph, so ranks never change: there is no
table to grow or renumber, and splice recipes store ranks outright.  A
ckey too wide for its fields raises ``ValueError`` -- it is never
silently mis-ordered.
"""

from __future__ import annotations

from array import array
from types import MappingProxyType

__all__ = ["TaskArrays"]

# Ranks are kind << _PAYLOAD_BITS | payload: the kind (0-3) takes bits
# 61-62, so every rank is a non-negative int64.
_PAYLOAD_BITS = 61


def _ckey_layouts(num_ops: int, max_slots: int, num_devices: int) -> tuple:
    """Per-kind bit widths of the ckey fields, kind first, in tuple order.

    After the kind's 2 bits every kind's widths sum to ``_PAYLOAD_BITS``,
    so the kind lands in the same top bits for all four.
    """
    op = max(num_ops - 1, 0).bit_length()
    slot = max(max_slots - 1, 0).bit_length()
    dev = max(num_devices - 1, 0).bit_length()
    task = (_PAYLOAD_BITS - 1 - 2 * op - slot) // 2
    shard = _PAYLOAD_BITS - op - dev
    if task < 0 or shard < 0:
        raise ValueError(
            f"ckeys of a {num_ops}-op graph on {num_devices} devices do not fit "
            f"{_PAYLOAD_BITS}-bit ranks"
        )
    return (
        (2, op, _PAYLOAD_BITS - 1 - op, 1),  # (0, op, k, fb)
        # (1, src, dst, slot, kj, ki, fb); kj absorbs an odd leftover bit.
        (2, op, op, slot, _PAYLOAD_BITS - 1 - 2 * op - slot - task, task, 1),
        (2, op, shard, dev),  # (2, op, shard, i)
        (2, op, shard, dev),  # (3, op, shard, dev)
    )


class TaskArrays:
    """Struct-of-arrays mirror of a :class:`~repro.sim.taskgraph.TaskGraph`.

    Maintained *incrementally* by the task graph's construction and
    splice paths (:meth:`add`, :meth:`link`, :meth:`discard`); the
    simulators only ever read it.  ``num_ops``, ``max_slots`` and
    ``num_devices`` bound the ckey fields and fix the rank encoding
    (see :meth:`intern`).
    """

    __slots__ = (
        "exe",
        "dev",
        "rank",
        "tid",
        "kind",
        "nbytes",
        "ckey",
        "ins",
        "outs",
        "slot_of",
        "free",
        "dev_count",
        "_layouts",
    )

    # Ranks are closed-form, so nothing is ever renumbered and no key
    # table exists; both are kept only for the benchmark's intern gauges.
    rank_renumbers = 0
    _ckey_idx = MappingProxyType({})

    def __init__(self, num_ops: int, max_slots: int, num_devices: int) -> None:
        self.exe = array("d")  # per-slot execution time (us)
        self.dev = array("q")  # per-slot device / connection id
        self.rank = array("q")  # per-slot ckey rank (see intern)
        self.tid = array("q")  # per-slot task id, -1 when the slot is free
        self.kind = array("b")  # per-slot TaskKind value
        self.nbytes = array("d")  # per-slot transfer volume (COMM tasks)
        self.ckey: list[tuple | None] = []  # per-slot canonical key
        self.ins: list[list[int]] = []  # per-slot predecessor slots (CSR row)
        self.outs: list[list[int]] = []  # per-slot successor slots (CSR row)
        self.slot_of: dict[int, int] = {}  # live task id -> slot
        self.free: list[int] = []  # recycled slots (LIFO)
        # Per-device live-task occupancy (device/connection id -> count).
        # Kept incrementally by add/discard so the auto router can
        # predict a splice's repair cone -- live tasks at or after the
        # cut, per device chain -- without scanning the graph.
        self.dev_count: dict[int, int] = {}
        self._layouts = _ckey_layouts(num_ops, max_slots, num_devices)

    # -- ckey ranks --------------------------------------------------------
    def intern(self, ckey: tuple) -> int:
        """The rank of ``ckey``: ``intern(a) < intern(b)`` iff ``a < b``.

        A pure function of the key and this graph's field widths;
        ``ValueError`` when the key is not a ckey or a field overflows.
        """
        try:
            widths = self._layouts[ckey[0]]
        except IndexError:
            raise ValueError(f"not a ckey: {ckey!r}") from None
        code = over = 0
        for value, bits in zip(ckey, widths):
            code = code << bits | value
            over |= value >> bits  # nonzero iff value is outside [0, 2**bits)
        if over or len(ckey) != len(widths):
            raise ValueError(f"ckey {ckey!r} does not fit this graph's rank encoding")
        return code

    # -- slot lifecycle ----------------------------------------------------
    def add(
        self,
        tid: int,
        exe_time: float,
        device: int,
        ckey: tuple,
        kind: int = 0,
        nbytes: float = 0.0,
        rank: int | None = None,  # intern(ckey), when the caller has it
    ) -> int:
        """Assign a slot to a new live task; returns the slot."""
        if rank is None:
            rank = self.intern(ckey)
        dc = self.dev_count
        dc[device] = dc.get(device, 0) + 1
        if self.free:
            slot = self.free.pop()
            self.exe[slot] = exe_time
            self.dev[slot] = device
            self.rank[slot] = rank
            self.tid[slot] = tid
            self.kind[slot] = kind
            self.nbytes[slot] = nbytes
            self.ckey[slot] = ckey
            # Rows were cleared by discard(); reuse the list objects.
        else:
            slot = len(self.tid)
            self.exe.append(exe_time)
            self.dev.append(device)
            self.rank.append(rank)
            self.tid.append(tid)
            self.kind.append(kind)
            self.nbytes.append(nbytes)
            self.ckey.append(ckey)
            self.ins.append([])
            self.outs.append([])
        self.slot_of[tid] = slot
        return slot

    def link(self, src_tid: int, dst_tid: int) -> None:
        """Record the dependency edge ``src -> dst`` (both must be live)."""
        a = self.slot_of[src_tid]
        b = self.slot_of[dst_tid]
        self.outs[a].append(b)
        self.ins[b].append(a)

    def discard(self, tid: int) -> None:
        """Free a task's slot, scrubbing it from living neighbors' rows.

        Safe to call in any order over a batch of removals: rows of
        already-freed neighbors are skipped (their slots read ``tid=-1``).
        Slots freed by a batch are only reused by :meth:`add` calls made
        *after* the batch, which is how both splice paths sequence their
        mutations.
        """
        slot = self.slot_of.pop(tid)
        self.dev_count[self.dev[slot]] -= 1
        live = self.tid
        for p in self.ins[slot]:
            if live[p] != -1:
                self.outs[p].remove(slot)
        for s in self.outs[slot]:
            if live[s] != -1:
                self.ins[s].remove(slot)
        self.ins[slot].clear()
        self.outs[slot].clear()
        live[slot] = -1
        self.ckey[slot] = None
        self.free.append(slot)

    def discard_batch(self, tids) -> None:
        """Free a batch of slots at once (same contract as :meth:`discard`).

        Marking the whole batch dead *before* scrubbing means intra-batch
        edges -- the majority in a group splice, whose members are wired
        mostly to each other -- skip the ``list.remove`` scan entirely
        instead of each member scrubbing rows the batch is about to
        clear anyway.  Slot free order matches sequential discards.
        """
        live = self.tid
        pop = self.slot_of.pop
        ckeys = self.ckey
        slots = [pop(t) for t in tids]
        dc = self.dev_count
        devs = self.dev
        for s in slots:
            live[s] = -1
            ckeys[s] = None
            dc[devs[s]] -= 1
        ins, outs = self.ins, self.outs
        for s in slots:
            row = ins[s]
            for p in row:
                if live[p] != -1:
                    outs[p].remove(s)
            row.clear()
            row = outs[s]
            for q in row:
                if live[q] != -1:
                    ins[q].remove(s)
            row.clear()
        self.free.extend(slots)

    # -- introspection -----------------------------------------------------
    @property
    def num_live(self) -> int:
        return len(self.slot_of)

    @property
    def num_slots(self) -> int:
        return len(self.tid)

    def check_consistent(self, tasks: dict) -> None:
        """Assert this mirror exactly matches a ``{tid: Task}`` dict.

        Test-suite helper: raises ``AssertionError`` on any divergence
        (membership, static columns, closed-form ranks, adjacency as sets).
        """
        assert set(self.slot_of) == set(tasks), (
            f"live-id mismatch: arrays={sorted(self.slot_of)} tasks={sorted(tasks)}"
        )
        for tid, t in tasks.items():
            slot = self.slot_of[tid]
            assert self.tid[slot] == tid
            assert self.exe[slot] == t.exe_time, f"exe mismatch for task {tid}"
            assert self.dev[slot] == t.device, f"device mismatch for task {tid}"
            assert self.kind[slot] == int(t.kind), f"kind mismatch for task {tid}"
            assert self.nbytes[slot] == t.nbytes, f"nbytes mismatch for task {tid}"
            assert self.ckey[slot] == t.ckey, f"ckey mismatch for task {tid}"
            assert self.rank[slot] == self.intern(t.ckey), f"rank mismatch for task {tid}"
            got_ins = sorted(self.tid[p] for p in self.ins[slot])
            got_outs = sorted(self.tid[s] for s in self.outs[slot])
            assert got_ins == sorted(t.ins), f"ins mismatch for task {tid}"
            assert got_outs == sorted(t.outs), f"outs mismatch for task {tid}"
        want: dict[int, int] = {}
        for t in tasks.values():
            want[t.device] = want.get(t.device, 0) + 1
        got = {d: n for d, n in self.dev_count.items() if n}
        assert got == want, f"dev_count drift: {got} != {want}"
        for slot in self.free:
            assert self.tid[slot] == -1
            assert not self.ins[slot] and not self.outs[slot]
