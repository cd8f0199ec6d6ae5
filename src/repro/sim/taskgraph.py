"""Task graph construction (Section 5.1 of the paper).

Given an operator graph, a device topology, and a parallelization
strategy, build the graph of *tasks*:

1. every operation contributes one **normal task** per configuration
   slot (and a mirrored **backward task** in training mode);
2. for every tensor edge, producer/consumer task pairs with shared data
   either get a direct dependency (same device) or a **communication
   task** placed on the connection between their devices;
3. every parameter shard replicated across devices gets a **ring
   all-reduce** (modelled as one communication task per ring hop carrying
   the standard ``2(k-1)/k`` traffic) followed by per-replica **update
   tasks** -- this is what makes parameter-synchronization cost visible
   to the search, reproducing Figure 8(b)'s transfer reductions.

The task graph supports *incremental reconfiguration*
(:meth:`TaskGraph.replace_config`): changing one operation's
configuration splices out only that op's tasks, its adjacent
communication tasks, and its parameter-sync tasks, which is the
``UpdateTaskGraph`` step of the paper's delta simulation algorithm
(Algorithm 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir.graph import Edge, OperatorGraph
from repro.machine.topology import Connection, DeviceTopology
from repro.profiler.profiler import OpProfiler
from repro.sim import kernels
from repro.sim.arrays import TaskArrays
from repro.soap.partition import overlapping_tasks
from repro.soap.strategy import Strategy

__all__ = ["TaskKind", "Task", "TaskGraph", "SpliceRecord", "SpliceRecipe"]


class TaskKind(enum.IntEnum):
    NORMAL = 0  # forward or backward compute task
    COMM = 1  # data transfer on a connection
    UPDATE = 2  # SGD parameter update


@dataclass(slots=True)
class Task:
    """One node of the task graph (Table 2's static properties).

    ``device`` is a compute-device id for NORMAL/UPDATE tasks and a
    connection id for COMM tasks; both live in one id space so the
    simulator treats them uniformly (Section 5.1: "we treat each hardware
    connection between devices as a communication device").

    ``ckey`` is a *canonical sort key*: a tuple derived from the task's
    structural identity (which op/edge/sync-group slot it fills), not from
    creation order.  The simulators break ready-time ties by ``ckey``, so
    the timeline of a strategy is identical no matter through which
    sequence of incremental reconfigurations the task graph was reached --
    the invariant that makes strategy-level simulation caching sound (see
    :mod:`repro.search.cache`).
    """

    tid: int
    kind: TaskKind
    device: int
    exe_time: float
    ckey: tuple[int, ...] = ()
    op_id: int = -1
    index: int = -1
    backward: bool = False
    nbytes: float = 0.0
    conn: Connection | None = None
    ins: list[int] = field(default_factory=list)
    outs: list[int] = field(default_factory=list)


@dataclass
class SpliceRecipe:
    """A memoized group rebuild: everything :meth:`TaskGraph.replace_config`
    would reconstruct for one (group, config, neighbor-configs) key.

    The rebuild half of a splice is a pure function of the group key, the
    new config, and the adjacent ops' configs (the graph, topology, and
    profiler are fixed per :class:`TaskGraph`, and the profiler is
    deterministic per task signature).  A recipe captures that function's
    output once -- task field tuples in creation order, dependency links
    as spec-index pairs, and the bookkeeping lists as index lists -- so a
    re-seen key replays it with fresh task ids and *zero* profiler,
    partition, or region calls.  Identity re-splices (re-applying an
    op's current config -- the ``resplice`` benchmark workload and every
    proposal that collides with the incumbent under a named algorithm)
    capture their recipe from the live group state before the splice, so
    even the first one replays.

    Links to surviving neighbor tasks are stored symbolically as
    ``(op, fwd|bwd, k)`` so a recipe stays valid when the neighbor was
    itself respliced in between: the neighbor's config is part of the
    cache key, which pins its ``fwd``/``bwd`` list lengths.
    """

    specs: list[tuple]  # (kind, device, exe, ckey, op_id, index, backward, nbytes, conn)
    kidx: list[int]  # per-spec ckey rank (closed form, so valid for the graph's life)
    internal: list[tuple[int, int]]  # links between two new tasks, spec indices
    external: list[tuple[int, int, tuple[int, int, int]]]  # (dir, spec idx, (op, f/b, k))
    fwd_idx: dict[int, list[int]]
    bwd_idx: dict[int, list[int]]
    edge_idx: dict[tuple[int, int, int], list[int]]
    sync_idx: list[int]


# Bounded recipe cache (FIFO eviction): per-op config spaces are small,
# so real searches cycle through few keys per group; the cap only guards
# degenerate grids.
_RECIPE_CAP = 256


@dataclass
class SpliceRecord:
    """Everything needed to undo one :meth:`TaskGraph.replace_config`.

    The removed :class:`Task` objects are kept alive with their adjacency
    lists intact, so an undo re-inserts them and re-attaches only the
    links to *surviving* neighbors -- no profiler calls, no task
    rebuilding, and (together with a timeline snapshot, see
    :meth:`~repro.sim.simulator.Simulator.propose`) no re-simulation.
    """

    op_id: int
    members: tuple[int, ...]
    old_cfg: object  # the members' shared ParallelConfig before the splice
    removed_tasks: list[Task]
    removed_ranks: list[int]  # their ckey ranks, so undo need not re-encode them
    added_lo: int  # added task ids are the contiguous range [added_lo, added_hi)
    added_hi: int
    fwd_lists: dict[int, list[int]]
    bwd_lists: dict[int, list[int]]
    sync_key: str
    sync_list: list[int]
    edge_lists: dict[tuple[int, int, int], list[int]]


class TaskGraph:
    """Tasks + dependencies for (operator graph, topology, strategy)."""

    def __init__(
        self,
        graph: OperatorGraph,
        topology: DeviceTopology,
        strategy: Strategy,
        profiler: OpProfiler,
        training: bool = True,
    ):
        self.graph = graph
        self.topology = topology
        self.strategy = strategy.copy()
        self.profiler = profiler
        self.training = training

        self.tasks: dict[int, Task] = {}
        # Splice recipe cache: (group, new cfg, neighbor cfgs) -> the
        # memoized rebuild (see SpliceRecipe).  Hits skip every profiler/
        # partition call of the rebuild; counters feed the bench meta.
        self._recipes: dict[tuple, SpliceRecipe] = {}
        self.recipe_hits = 0
        self.recipe_misses = 0
        # Flat struct-of-arrays mirror the simulators' hot loops read
        # (exe/device/rank columns, slot-indexed adjacency rows); kept in
        # lockstep by _new_task/_link and the splice paths below.
        self.arrays = TaskArrays(
            graph.num_ops,
            max((len(graph.inputs_of(o)) for o in graph.op_ids), default=0),
            topology.num_devices,
        )
        self._next_tid = 0
        self._last_splice: SpliceRecord | None = None
        # True iff the most recent replace_config was a pure identity
        # recipe replay: the rebuilt subgraph is provably the removed one
        # modulo task ids (the splice is a pure function of its recipe
        # key), so consumers may repair timelines by renaming alone.
        self.last_splice_identity = False
        # Bookkeeping for incremental splicing.  Parameter-sync tasks are
        # keyed by weight-sharing *group*: ops sharing parameters (e.g.
        # unrolled steps of one recurrent layer) synchronize gradients once
        # per iteration, not once per op.
        self.fwd: dict[int, list[int]] = {}
        self.bwd: dict[int, list[int]] = {}
        self.sync: dict[str, list[int]] = {}
        self.edge_tasks: dict[tuple[int, int, int], list[int]] = {}

        strategy.validate(graph, topology)
        for oid in graph.op_ids:
            self._make_op_tasks(oid)
        for edge in graph.edges():
            self._connect_edge(edge)
        for gkey, members in graph.param_groups().items():
            self._make_sync(gkey, members)

    # -- small helpers -----------------------------------------------------
    def _new_task(self, **kw) -> Task:
        t = Task(tid=self._next_tid, **kw)
        self._next_tid += 1
        self.tasks[t.tid] = t
        self.arrays.add(t.tid, t.exe_time, t.device, t.ckey, int(t.kind), t.nbytes)
        return t

    def _link(self, a: int, b: int) -> None:
        self.tasks[a].outs.append(b)
        self.tasks[b].ins.append(a)
        self.arrays.link(a, b)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    # -- construction --------------------------------------------------------
    def _make_op_tasks(self, oid: int) -> None:
        """Create forward (and backward) compute tasks for one op."""
        op = self.graph.op(oid)
        cfg = self.strategy[oid]
        fwd_ids: list[int] = []
        bwd_ids: list[int] = []
        make_bwd = self.training and not op.is_source
        for k in range(cfg.num_tasks):
            region = cfg.task_region(op, k)
            dev = self.topology.device(cfg.devices[k])
            f = self._new_task(
                kind=TaskKind.NORMAL,
                device=dev.did,
                exe_time=self.profiler.task_time(op, region, dev),
                ckey=(0, oid, k, 0),
                op_id=oid,
                index=k,
            )
            fwd_ids.append(f.tid)
            if make_bwd:
                b = self._new_task(
                    kind=TaskKind.NORMAL,
                    device=dev.did,
                    exe_time=self.profiler.task_time(op, region, dev, backward=True),
                    ckey=(0, oid, k, 1),
                    op_id=oid,
                    index=k,
                    backward=True,
                )
                bwd_ids.append(b.tid)
                # Backward needs the forward activations of the same task.
                self._link(f.tid, b.tid)
        self.fwd[oid] = fwd_ids
        self.bwd[oid] = bwd_ids

    def _connect_edge(self, edge: Edge) -> list[int]:
        """Wire producer/consumer task pairs of one tensor edge (step 2).

        Returns the communication tasks created (tracked per edge so a
        reconfiguration can splice them out).
        """
        src_op = self.graph.op(edge.src)
        dst_op = self.graph.op(edge.dst)
        src_cfg = self.strategy[edge.src]
        dst_cfg = self.strategy[edge.dst]
        dtype = src_op.out_shape.dtype_bytes
        comm_ids: list[int] = []
        src_fwd, dst_fwd = self.fwd[edge.src], self.fwd[edge.dst]
        src_bwd, dst_bwd = self.bwd[edge.src], self.bwd[edge.dst]

        for kj in range(dst_cfg.num_tasks):
            need = dst_op.input_region(dst_cfg.task_region(dst_op, kj), edge.slot)
            if need is None:
                continue
            dev_j = dst_cfg.devices[kj]
            for ki, vol in overlapping_tasks(src_op, src_cfg, need):
                dev_i = src_cfg.devices[ki]
                nbytes = float(vol * dtype)
                if dev_i == dev_j:
                    self._link(src_fwd[ki], dst_fwd[kj])
                    if src_bwd and dst_bwd:
                        self._link(dst_bwd[kj], src_bwd[ki])
                    continue
                conn = self.topology.connection(dev_i, dev_j)
                c = self._new_task(
                    kind=TaskKind.COMM,
                    device=conn.cid,
                    exe_time=self.profiler.comm_time(nbytes, conn),
                    ckey=(1, edge.src, edge.dst, edge.slot, kj, ki, 0),
                    nbytes=nbytes,
                    conn=conn,
                )
                comm_ids.append(c.tid)
                self._link(src_fwd[ki], c.tid)
                self._link(c.tid, dst_fwd[kj])
                if src_bwd and dst_bwd:
                    # Gradient flows the reverse direction in backward.
                    rconn = self.topology.connection(dev_j, dev_i)
                    cb = self._new_task(
                        kind=TaskKind.COMM,
                        device=rconn.cid,
                        exe_time=self.profiler.comm_time(nbytes, rconn),
                        ckey=(1, edge.src, edge.dst, edge.slot, kj, ki, 1),
                        nbytes=nbytes,
                        conn=rconn,
                    )
                    comm_ids.append(cb.tid)
                    self._link(dst_bwd[kj], cb.tid)
                    self._link(cb.tid, src_bwd[ki])
        self.edge_tasks[(edge.src, edge.dst, edge.slot)] = comm_ids
        return comm_ids

    def _make_sync(self, gkey: str, members: tuple[int, ...]) -> None:
        """Parameter synchronization + update tasks for one weight group.

        Tasks sharing identical parameter-dimension coordinates hold
        replicas of the same shard; a replica set spanning k devices
        performs a ring all-reduce (modelled as one comm task per ring
        hop carrying ``2(k-1)/k`` of the shard bytes), then every replica
        device runs an update task.  For multi-op groups (weight-shared
        unrolled steps) the gradients of *every* member feed one
        all-reduce: parameters synchronize once per iteration.
        """
        self.sync[gkey] = []
        if not self.training:
            return
        op0 = self.graph.op(members[0])
        if not op0.params or any(not self.bwd[m] for m in members):
            return
        cfg = self.strategy[members[0]]  # group members share one config
        pdims = {n for n, kind in op0.parallel_dims().items() if kind.name == "PARAMETER"}
        deg_names = [n for n, _ in cfg.degrees]

        replica_sets: dict[tuple[int, ...], list[int]] = {}
        for k in range(cfg.num_tasks):
            coords = cfg.task_coords(k)
            key = tuple(c for n, c in zip(deg_names, coords) if n in pdims)
            replica_sets.setdefault(key, []).append(k)

        created: list[int] = []
        dtype = op0.out_shape.dtype_bytes
        for shard_idx, task_idxs in enumerate(replica_sets.values()):
            shard_elems = op0.param_shard_volume(cfg.task_region(op0, task_idxs[0]))
            if shard_elems == 0:
                continue
            devs = sorted({cfg.devices[k] for k in task_idxs})
            grads = [self.bwd[m][k] for m in members for k in task_idxs]
            if len(devs) == 1:
                upd = self._new_task(
                    kind=TaskKind.UPDATE,
                    device=devs[0],
                    exe_time=self.profiler.update_time(shard_elems, self.topology.device(devs[0])),
                    ckey=(3, members[0], shard_idx, devs[0]),
                    op_id=members[0],
                )
                created.append(upd.tid)
                for g in grads:
                    self._link(g, upd.tid)
                continue
            k_g = len(devs)
            hop_bytes = 2.0 * (k_g - 1) / k_g * shard_elems * dtype
            ring_comm: list[int] = []
            for i, d in enumerate(devs):
                nxt = devs[(i + 1) % k_g]
                conn = self.topology.connection(d, nxt)
                c = self._new_task(
                    kind=TaskKind.COMM,
                    device=conn.cid,
                    exe_time=self.profiler.comm_time(hop_bytes, conn),
                    ckey=(2, members[0], shard_idx, i),
                    nbytes=hop_bytes,
                    conn=conn,
                    op_id=members[0],
                )
                ring_comm.append(c.tid)
                created.append(c.tid)
                for g in grads:
                    self._link(g, c.tid)
            for d in devs:
                upd = self._new_task(
                    kind=TaskKind.UPDATE,
                    device=d,
                    exe_time=self.profiler.update_time(shard_elems, self.topology.device(d)),
                    ckey=(3, members[0], shard_idx, d),
                    op_id=members[0],
                )
                created.append(upd.tid)
                for c in ring_comm:
                    self._link(c, upd.tid)
        self.sync[gkey] = created

    # -- splice recipes ------------------------------------------------------------
    def _group_tids(
        self, members, touched_edges, gkey
    ) -> tuple[list[int], dict[int, list[int]], dict[int, list[int]], dict, list[int]]:
        """The group's task ids in canonical creation order, plus the
        bookkeeping lists re-expressed as indices into that order."""
        new_tids: list[int] = []
        fwd_idx: dict[int, list[int]] = {}
        bwd_idx: dict[int, list[int]] = {}
        for m in members:
            fl, bl = self.fwd[m], self.bwd[m]
            fi: list[int] = []
            bi: list[int] = []
            for k, f in enumerate(fl):
                fi.append(len(new_tids))
                new_tids.append(f)
                if bl:
                    bi.append(len(new_tids))
                    new_tids.append(bl[k])
            fwd_idx[m] = fi
            bwd_idx[m] = bi
        edge_idx: dict[tuple[int, int, int], list[int]] = {}
        for e in touched_edges:
            key = (e.src, e.dst, e.slot)
            lst = self.edge_tasks.get(key, [])
            idxs = list(range(len(new_tids), len(new_tids) + len(lst)))
            new_tids.extend(lst)
            edge_idx[key] = idxs
        sync_list = self.sync[gkey]
        sync_idx = list(range(len(new_tids), len(new_tids) + len(sync_list)))
        new_tids.extend(sync_list)
        return new_tids, fwd_idx, bwd_idx, edge_idx, sync_idx

    def _capture_recipe(self, members, member_set, touched_edges, gkey):
        """Record the group's current build as a :class:`SpliceRecipe`.

        Pure read of the live graph; returns ``None`` when a dependency
        cannot be expressed symbolically (never observed -- a defensive
        bail that just skips caching).
        """
        new_tids, fwd_idx, bwd_idx, edge_idx, sync_idx = self._group_tids(
            members, touched_edges, gkey
        )
        new_map = {tid: i for i, tid in enumerate(new_tids)}
        rev: dict[int, tuple[int, int, int]] = {}
        for o in {e.src for e in touched_edges} | {e.dst for e in touched_edges}:
            if o in member_set:
                continue
            for k, t in enumerate(self.fwd[o]):
                rev[t] = (o, 0, k)
            for k, t in enumerate(self.bwd[o]):
                rev[t] = (o, 1, k)
        specs: list[tuple] = []
        kidx: list[int] = []
        internal: list[tuple[int, int]] = []
        external: list[tuple[int, int, tuple[int, int, int]]] = []
        tasks = self.tasks
        rank, slot_of = self.arrays.rank, self.arrays.slot_of
        for i, tid in enumerate(new_tids):
            t = tasks[tid]
            specs.append(
                (t.kind, t.device, t.exe_time, t.ckey,
                 t.op_id, t.index, t.backward, t.nbytes, t.conn)
            )
            kidx.append(rank[slot_of[tid]])
            for p in t.ins:
                j = new_map.get(p)
                if j is not None:
                    internal.append((j, i))
                else:
                    ref = rev.get(p)
                    if ref is None:
                        return None
                    external.append((0, i, ref))
            for s in t.outs:
                if s in new_map:
                    continue
                ref = rev.get(s)
                if ref is None:
                    return None
                external.append((1, i, ref))
        return SpliceRecipe(
            specs, kidx, internal, external, fwd_idx, bwd_idx, edge_idx, sync_idx
        )

    def _store_recipe(self, rkey, recipe) -> None:
        cache = self._recipes
        if rkey not in cache and len(cache) >= _RECIPE_CAP:
            cache.pop(next(iter(cache)))
        cache[rkey] = recipe

    def _replay_recipe(self, recipe: SpliceRecipe, members, new_cfg, gkey) -> list[int]:
        """Rebuild the group from a memoized recipe; returns the new tids.

        Mirrors the direct rebuild exactly -- same task fields (the
        profiler is deterministic per signature, so the captured
        ``exe_time`` floats are bitwise what fresh calls would return),
        same creation order (hence the same slot recycling in the arrays
        mirror), same bookkeeping lists -- without any profiler,
        partition, or region computation.
        """
        tasks = self.tasks
        arrays = self.arrays
        tid = self._next_tid
        new_tids: list[int] = []
        new_tasks: list[Task] = []
        new_slots: list[int] = []
        # Inlined arrays.add: ranks are closed-form, so the recipe's
        # memoized ranks are written as-is, and the column writes run
        # without per-task call overhead.
        free = arrays.free
        exe_a, dev_a, rank_a = arrays.exe, arrays.dev, arrays.rank
        tid_a, kind_a, nbytes_a = arrays.tid, arrays.kind, arrays.nbytes
        ckey_a = arrays.ckey
        slot_of = arrays.slot_of
        dev_count = arrays.dev_count
        for spec, rank in zip(recipe.specs, recipe.kidx):
            # Spec tuples are stored in Task field order (tid excluded),
            # so construction is one positional call.
            t = Task(tid, *spec)
            tasks[tid] = t
            if free:
                slot = free.pop()
            else:
                slot = len(tid_a)
                exe_a.append(0.0)
                dev_a.append(0)
                rank_a.append(0)
                tid_a.append(-1)
                kind_a.append(0)
                nbytes_a.append(0.0)
                ckey_a.append(None)
                arrays.ins.append([])
                arrays.outs.append([])
            exe_a[slot] = spec[2]
            d = spec[1]
            dev_a[slot] = d
            dev_count[d] = dev_count.get(d, 0) + 1
            rank_a[slot] = rank
            tid_a[slot] = tid
            kind_a[slot] = spec[0]
            nbytes_a[slot] = spec[7]
            ckey_a[slot] = spec[3]
            slot_of[tid] = slot
            new_slots.append(slot)
            new_tids.append(tid)
            new_tasks.append(t)
            tid += 1
        self._next_tid = tid
        # Slot-level linking: the endpoints' Task objects and slots are at
        # hand, so the generic _link's four dict probes per edge collapse
        # to list appends (the replay hot loop).
        a_ins, a_outs = arrays.ins, arrays.outs
        for a, b in recipe.internal:
            new_tasks[a].outs.append(new_tids[b])
            new_tasks[b].ins.append(new_tids[a])
            a_outs[new_slots[a]].append(new_slots[b])
            a_ins[new_slots[b]].append(new_slots[a])
        slot_of = arrays.slot_of
        for direction, i, (o, fb, k) in recipe.external:
            other = (self.bwd[o] if fb else self.fwd[o])[k]
            ot = tasks[other]
            oslot = slot_of[other]
            if direction:
                new_tasks[i].outs.append(other)
                ot.ins.append(new_tids[i])
                a_outs[new_slots[i]].append(oslot)
                a_ins[oslot].append(new_slots[i])
            else:
                ot.outs.append(new_tids[i])
                new_tasks[i].ins.append(other)
                a_outs[oslot].append(new_slots[i])
                a_ins[new_slots[i]].append(oslot)
        for m in members:
            self.strategy = self.strategy.with_config(m, new_cfg)
            self.fwd[m] = [new_tids[i] for i in recipe.fwd_idx[m]]
            self.bwd[m] = [new_tids[i] for i in recipe.bwd_idx[m]]
        for key, idxs in recipe.edge_idx.items():
            self.edge_tasks[key] = [new_tids[i] for i in idxs]
        self.sync[gkey] = [new_tids[i] for i in recipe.sync_idx]
        return new_tids

    # -- incremental reconfiguration -----------------------------------------------
    def replace_config(
        self, op_id: int, new_cfg, keep_record: bool = False
    ) -> tuple[dict[int, "Task"], set[int]]:
        """Splice the configuration of ``op_id``'s weight-sharing group.

        Applies ``new_cfg`` to every op sharing ``op_id``'s parameters
        (a single op for unshared weights): removes the members'
        forward/backward tasks, the group's parameter-sync tasks, and the
        communication tasks on every adjacent tensor edge, then rebuilds
        them against the (unchanged) neighbor configurations.  This is
        ``UpdateTaskGraph`` from Algorithm 2.

        With ``keep_record=True`` the splice additionally stores a
        :class:`SpliceRecord` so :meth:`undo_last_splice` can restore the
        pre-splice graph without rebuilding any task (the speculative
        propose/revert fast path of the MCMC search).

        Returns
        -------
        (removed, dirty):
            ``removed`` -- mapping of removed task id -> the removed
            :class:`Task` object (consumers read its ``device`` to
            detach timeline entries, and the auto router compares its
            ``ckey``/``exe_time`` against the replacement tasks);
            ``dirty`` -- ids of new tasks plus surviving tasks whose
            predecessor sets changed (the seeds for delta simulation).
        """
        members = self.graph.group_members(op_id)
        member_set = set(members)
        gkey = self.graph.group_key(op_id)
        self.last_splice_identity = False

        # Sync groups of *neighboring* weight-shared ops are untouched:
        # their gradients' producers keep their task ids.
        touched_edges: list[Edge] = []
        seen_edges: set[tuple[int, int, int]] = set()
        for m in members:
            for slot, src in enumerate(self.graph.inputs_of(m)):
                key = (src, m, slot)
                if key not in seen_edges:
                    seen_edges.add(key)
                    touched_edges.append(Edge(*key))
            for e in self.graph.consumers_of(m):
                key = (e.src, e.dst, e.slot)
                if key not in seen_edges:
                    seen_edges.add(key)
                    touched_edges.append(e)

        # Recipe lookup: the rebuild below is a pure function of this key
        # (see SpliceRecipe).  An identity re-splice whose key is cold is
        # captured from the live group state *before* the splice -- the
        # current build is exactly what the key produces -- so even the
        # first identity proposal replays instead of rebuilding.  Replay
        # rides the same escape hatch as the numpy kernels:
        # ``REPRO_SIM_KERNELS=python`` forces the reference rebuild
        # (profiler, partition, and region calls included), which is both
        # the debugging baseline for recipe bugs and the pre-optimization
        # cost the benchmarks compare against.
        old_cfg = self.strategy[members[0]]
        recipe = None
        rkey = None
        if kernels.kernels_enabled():
            neighbor_ops = sorted(
                ({e.src for e in touched_edges} | {e.dst for e in touched_edges})
                - member_set
            )
            rkey = (gkey, new_cfg, tuple((o, self.strategy[o]) for o in neighbor_ops))
            recipe = self._recipes.get(rkey)
            if recipe is None and new_cfg == old_cfg:
                recipe = self._capture_recipe(members, member_set, touched_edges, gkey)
                if recipe is not None:
                    self._store_recipe(rkey, recipe)

        removed_ids: set[int] = set(self.sync[gkey])
        for m in members:
            removed_ids.update(self.fwd[m])
            removed_ids.update(self.bwd[m])
        for e in touched_edges:
            removed_ids.update(self.edge_tasks.get((e.src, e.dst, e.slot), ()))

        record: SpliceRecord | None = None
        if keep_record:
            # Saved *before* any mutation: the Task objects keep their
            # adjacency lists (only surviving neighbors' lists are edited
            # below), and the bookkeeping lists are replaced wholesale by
            # the rebuild, so holding references is enough.
            record = SpliceRecord(
                op_id=op_id,
                members=members,
                old_cfg=self.strategy[members[0]],
                removed_tasks=[self.tasks[tid] for tid in removed_ids],
                removed_ranks=[
                    self.arrays.rank[self.arrays.slot_of[tid]] for tid in removed_ids
                ],
                added_lo=self._next_tid,
                added_hi=self._next_tid,
                fwd_lists={m: self.fwd[m] for m in members},
                bwd_lists={m: self.bwd[m] for m in members},
                sync_key=gkey,
                sync_list=self.sync[gkey],
                edge_lists={
                    (e.src, e.dst, e.slot): self.edge_tasks.get((e.src, e.dst, e.slot), [])
                    for e in touched_edges
                },
            )

        removed: dict[int, Task] = {tid: self.tasks[tid] for tid in removed_ids}
        dirty: set[int] = set()
        # Frees the slots and scrubs them from surviving neighbors' rows
        # (intra-batch edges skip the scan entirely); the slots are
        # recycled by the rebuild below.
        self.arrays.discard_batch(removed_ids)
        tasks = self.tasks
        for tid, t in removed.items():
            for p in t.ins:
                if p not in removed_ids:
                    tasks[p].outs.remove(tid)
            for s in t.outs:
                if s not in removed_ids:
                    tasks[s].ins.remove(tid)
                    dirty.add(s)  # lost a predecessor: ready time may drop
        for tid in removed_ids:
            del tasks[tid]

        if recipe is not None:
            self.recipe_hits += 1
            self.last_splice_identity = new_cfg == old_cfg
            dirty.update(self._replay_recipe(recipe, members, new_cfg, gkey))
        else:
            self.recipe_misses += 1
            for m in members:
                self.strategy = self.strategy.with_config(m, new_cfg)
                self._make_op_tasks(m)
                dirty.update(self.fwd[m])
                dirty.update(self.bwd[m])
            for e in touched_edges:
                dirty.update(self._connect_edge(e))
            self._make_sync(gkey, members)
            dirty.update(self.sync[gkey])
            if rkey is not None:
                fresh = self._capture_recipe(members, member_set, touched_edges, gkey)
                if fresh is not None:
                    self._store_recipe(rkey, fresh)
        # Surviving neighbor tasks that gained predecessors: consumers'
        # forward tasks (fed by our new fwd/comm tasks) and producers'
        # backward tasks (fed by our new bwd/comm tasks).
        for e in touched_edges:
            if e.src in member_set and e.dst not in member_set:
                dirty.update(self.fwd[e.dst])
            elif e.dst in member_set and e.src not in member_set:
                dirty.update(self.bwd[e.src])
        dirty -= removed.keys()
        if record is not None:
            record.added_hi = self._next_tid
        self._last_splice = record
        return removed, dirty

    def undo_last_splice(self) -> None:
        """Restore the graph to its state before the last recorded splice.

        Inverse of a ``replace_config(..., keep_record=True)``: pops the
        tasks that splice added, re-inserts the saved :class:`Task`
        objects, re-attaches their links to surviving neighbors, and
        restores the bookkeeping lists and the strategy.  Valid exactly
        once, immediately after the recorded splice (before any further
        ``replace_config``).
        """
        rec = self._last_splice
        if rec is None:
            raise RuntimeError("no recorded splice to undo")
        self._last_splice = None

        added: list[Task] = [self.tasks.pop(tid) for tid in range(rec.added_lo, rec.added_hi)]
        self.arrays.discard_batch(range(rec.added_lo, rec.added_hi))
        for t in added:
            for p in t.ins:
                surv = self.tasks.get(p)
                if surv is not None:
                    surv.outs.remove(t.tid)
            for s in t.outs:
                surv = self.tasks.get(s)
                if surv is not None:
                    surv.ins.remove(t.tid)

        removed_set = {t.tid for t in rec.removed_tasks}
        for t, rank in zip(rec.removed_tasks, rec.removed_ranks):
            self.tasks[t.tid] = t
            self.arrays.add(t.tid, t.exe_time, t.device, t.ckey, int(t.kind), t.nbytes, rank)
        for t in rec.removed_tasks:
            # Each edge is re-recorded in the arrays exactly once: through
            # the consumer's ins for every predecessor, plus the producer's
            # outs only when the successor survived the splice (edges into
            # removed successors reappear via that successor's own ins).
            for p in t.ins:
                self.arrays.link(p, t.tid)
                if p not in removed_set:
                    self.tasks[p].outs.append(t.tid)
            for s in t.outs:
                if s not in removed_set:
                    self.tasks[s].ins.append(t.tid)
                    self.arrays.link(t.tid, s)

        self.fwd.update(rec.fwd_lists)
        self.bwd.update(rec.bwd_lists)
        self.sync[rec.sync_key] = rec.sync_list
        self.edge_tasks.update(rec.edge_lists)
        for m in rec.members:
            self.strategy = self.strategy.with_config(m, rec.old_cfg)

    # -- aggregate views ----------------------------------------------------------
    def comm_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if t.kind == TaskKind.COMM]

    def total_comm_bytes(self) -> float:
        arr = self.arrays
        comm = int(TaskKind.COMM)
        return sum(
            arr.nbytes[slot]
            for slot in range(arr.num_slots)
            if arr.tid[slot] != -1 and arr.kind[slot] == comm
        )

    def total_compute_us(self) -> float:
        arr = self.arrays
        comm = int(TaskKind.COMM)
        return sum(
            arr.exe[slot]
            for slot in range(arr.num_slots)
            if arr.tid[slot] != -1 and arr.kind[slot] != comm
        )

    def describe(self) -> str:
        kinds = {k: 0 for k in TaskKind}
        for t in self.tasks.values():
            kinds[t.kind] += 1
        return (
            f"TaskGraph: {self.num_tasks} tasks "
            f"(normal={kinds[TaskKind.NORMAL]}, comm={kinds[TaskKind.COMM]}, "
            f"update={kinds[TaskKind.UPDATE]}), "
            f"comm={self.total_comm_bytes() / 1e6:.1f} MB"
        )
