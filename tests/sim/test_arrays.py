"""The flat struct-of-arrays substrate mirrors the task dict exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import cluster
from repro.machine.clusters import single_node
from repro.models.lenet import lenet
from repro.models.registry import get_model
from repro.profiler.profiler import OpProfiler
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.sim.arrays import TaskArrays, _ckey_layouts
from repro.sim.simulator import Simulator
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism
from repro.soap.space import ConfigSpace


def soak(proposals):
    """A long auto chain on AlexNet/4 with no stall check.

    Returns the chain's simulator and the most tasks live at any point,
    proposals included (a rejected proposal is the graph's high-water
    mark until it is reverted).
    """
    graph, topo = get_model("alexnet", scale="ci"), cluster("p100", 4)
    sim = Simulator(graph, topo, data_parallelism(graph, topo), OpProfiler())
    peak = [sim.task_graph.num_tasks]
    propose = sim.propose

    def tracked_propose(op_id, cfg):
        cost = propose(op_id, cfg)
        peak[0] = max(peak[0], sim.task_graph.num_tasks)
        return cost

    sim.propose = tracked_propose
    config = MCMCConfig(iterations=proposals, no_improve_frac=None, seed=11)
    _, _, trace = mcmc_search(sim, ConfigSpace(graph, topo), config)
    assert trace.proposed == proposals
    return sim, peak[0]


def churn(graph, topo, seed, steps):
    tg = TaskGraph(graph, topo, data_parallelism(graph, topo), OpProfiler())
    tg.arrays.check_consistent(tg.tasks)
    space = ConfigSpace(graph, topo)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        oid = int(rng.choice(graph.op_ids))
        cfg = space.random_config(oid, rng)
        if rng.random() < 0.5:
            tg.replace_config(oid, cfg)
        else:
            tg.replace_config(oid, cfg, keep_record=True)
            tg.undo_last_splice()
        tg.arrays.check_consistent(tg.tasks)
    return tg


class TestMirror:
    def test_consistent_after_construction(self, lenet_graph, topo4):
        tg = TaskGraph(lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler())
        tg.arrays.check_consistent(tg.tasks)
        assert tg.arrays.num_live == len(tg.tasks)

    def test_consistent_under_splice_undo_churn(self, lenet_graph, topo4):
        churn(lenet_graph, topo4, seed=0, steps=40)

    def test_consistent_with_weight_sharing(self, tiny_rnn_graph, topo4):
        churn(tiny_rnn_graph, topo4, seed=1, steps=25)

    def test_slots_are_recycled_not_leaked(self, lenet_graph, topo4):
        """Across many splices the slot table stays bounded by the peak
        live-task count, not by the total tasks ever created."""
        tg = churn(lenet_graph, topo4, seed=2, steps=60)
        # Ids keep growing; slots don't.
        assert tg._next_tid > tg.arrays.num_slots
        assert tg.arrays.num_slots <= 2 * len(tg.tasks) + 64


@st.composite
def ckey_batches(draw):
    """A rank layout plus ckeys of all four kinds that fit it.

    Field values are drawn up to each field's full width, so keys that
    differ only in the lowest bit of one field and keys at the top of
    every field both occur.
    """
    num_ops = draw(st.integers(1, 5000))
    max_slots = draw(st.integers(1, 8))
    num_devices = draw(st.integers(1, 1024))
    layouts = _ckey_layouts(num_ops, max_slots, num_devices)
    limits = {
        "op": num_ops - 1,
        "slot": max_slots - 1,
        "dev": num_devices - 1,
    }

    def field(name, bits):
        top = limits.get(name, (1 << bits) - 1)
        return draw(st.one_of(st.integers(0, min(top, 3)), st.integers(0, top)))

    names = (
        ("op", "task", "fb"),
        ("op", "op", "slot", "task", "task", "fb"),
        ("op", "shard", "dev"),
        ("op", "shard", "dev"),
    )
    keys = []
    for _ in range(draw(st.integers(2, 12))):
        kind = draw(st.integers(0, 3))
        keys.append(
            (kind, *(field(n, b) for n, b in zip(names[kind], layouts[kind][1:])))
        )
    return (num_ops, max_slots, num_devices), keys


class TestBoundedState:
    """Slots stay bounded by the live-task high-water mark and ranks by
    construction over long searches (no table that grows with the
    number of distinct ckeys a chain mints)."""

    @staticmethod
    def check(proposals):
        sim, peak = soak(proposals)
        arr = sim.task_graph.arrays
        assert arr.num_slots <= 2 * peak + 64
        arr.check_consistent(sim.task_graph.tasks)  # incl. rank == intern(ckey)
        assert arr.rank_renumbers == 0 and len(arr._ckey_idx) == 0

    def test_soak_1000_proposals(self):
        self.check(1000)

    @pytest.mark.slow
    def test_soak_5000_proposals(self):
        self.check(5000)


class TestInterner:
    @given(ckey_batches())
    @settings(max_examples=300, deadline=None)
    def test_rank_order_matches_ckey_order(self, batch):
        dims, keys = batch
        arr = TaskArrays(*dims)
        ranks = [arr.intern(k) for k in keys]
        assert all(0 <= r < 1 << 63 for r in ranks)  # fits the int64 column
        for a, ra in zip(keys, ranks):
            for b, rb in zip(keys, ranks):
                assert (ra < rb) == (a < b)
                assert (ra == rb) == (a == b)

    def test_overflowing_or_malformed_ckeys_raise(self):
        arr = TaskArrays(4, 2, 4)  # 2 op bits, 1 slot bit, 2 device bits
        arr.intern((1, 3, 3, 1, 5, 5, 1))  # op, slot and device fields at their top
        arr.intern((3, 3, 7, 3))
        for bad in (
            (0, 4, 0, 0),  # op id beyond num_ops' field
            (0, -1, 0, 0),
            (0, 0, 1 << 62, 0),  # task index beyond the leftover bits
            (0, 0, 0, 2),  # fb is one bit
            (1, 0, 1, 2, 0, 0, 0),  # input slot beyond max_slots' field
            (3, 0, 0, 4),  # device beyond the topology's field
            (2, 0, 1 << 60, 0),
            (5, 5),  # no such kind
            (0, 1, 2),  # wrong arity for its kind
            (),
            (-1, 0, 0, 0),
        ):
            with pytest.raises(ValueError):
                arr.intern(bad)
        with pytest.raises(ValueError):
            arr.add(0, 1.0, 0, (0, 9, 0, 0))
        assert arr.num_live == 0  # a rejected key never takes a slot
        with pytest.raises(ValueError):
            TaskArrays(1 << 31, 1, 1)  # op fields alone overflow the payload

    def test_discard_scrubs_neighbors_in_any_order(self):
        arr = TaskArrays(8, 1, 2)
        for tid in range(3):
            arr.add(tid, 1.0, 0, (0, tid, 0, 0))
        arr.link(0, 1)
        arr.link(1, 2)
        arr.link(0, 2)
        arr.discard(1)  # middle first: neighbors' rows must be scrubbed
        s0, s2 = arr.slot_of[0], arr.slot_of[2]
        assert arr.outs[s0] == [s2]
        assert arr.ins[s2] == [s0]
        arr.discard(0)
        assert arr.ins[s2] == []
        # Freed slots are reused by the next add instead of growing the table.
        before = arr.num_slots
        arr.add(7, 2.0, 1, (0, 7, 0, 1))
        assert arr.num_slots == before == 3
        assert arr.rank[arr.slot_of[7]] == arr.intern((0, 7, 0, 1))
