"""``full_makespan`` and the makespan-only full path of ``Simulator``.

``full_makespan`` is Algorithm 1's heap drain without the per-task
timeline, so its makespan must equal ``full_simulate``'s bit for bit
(compared as float hex) under both ``REPRO_SIM_KERNELS`` modes.  Under
``algorithm="full"`` the simulator keeps only that makespan and builds
the timeline on first read; these suites check the lazily built
timeline is the real one after any propose/commit/revert sequence, and
that the proposal path itself never builds one.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.simulator as simulator_mod
from repro.machine.clusters import p100_cluster, single_node
from repro.models.lenet import lenet
from repro.models.mlp import mlp
from repro.profiler.profiler import OpProfiler
from repro.sim.full_sim import full_makespan, full_simulate
from repro.sim.simulator import Simulator
from repro.sim.taskgraph import TaskGraph
from repro.soap.presets import data_parallelism, single_device
from repro.soap.space import ConfigSpace

MODES = ("python", "numpy")


# (graph, topology) pairs the property draws from: a plain MLP on one
# node, and LeNet across two nodes (inter-node transfers).
PROBLEMS = (
    (mlp(batch=16, in_dim=32, hidden=(64, 32), num_classes=8), single_node(4, "p100")),
    (lenet(batch=16), p100_cluster(num_nodes=2, gpus_per_node=2)),
)


def _random_strategy(graph, topo, rng, steps):
    space = ConfigSpace(graph, topo)
    strat = data_parallelism(graph, topo)
    for _ in range(steps):
        oid = int(rng.choice(graph.op_ids))
        strat = strat.with_config(oid, space.random_config(oid, rng))
    return strat


def _drive(sim, graph, topo, rng, steps, check=None):
    """A random mix of committed, reverted and plain reconfigurations;
    calls ``check(sim)`` after every step."""
    space = ConfigSpace(graph, topo)
    for _ in range(steps):
        oid = int(rng.choice(graph.op_ids))
        cfg = space.random_config(oid, rng)
        style = rng.random()
        if style < 0.3:
            sim.propose(oid, cfg)
            sim.commit()
        elif style < 0.8:
            base = sim.cost
            sim.propose(oid, cfg)
            if rng.random() < 0.3:
                sim.timeline  # a mid-proposal read builds a timeline ...
            assert sim.revert() == base  # ... that the revert discards
        else:
            sim.reconfigure(oid, cfg)
        if check is not None:
            check(sim)


class TestFullMakespan:
    @pytest.mark.parametrize("mode", MODES)
    @given(seed=st.integers(0, 10_000), problem=st.sampled_from(range(len(PROBLEMS))))
    @settings(max_examples=15, deadline=None)
    def test_property_bit_identical_to_full_simulate(self, mode, seed, problem):
        graph, topo = PROBLEMS[problem]
        rng = np.random.default_rng(seed)
        prev = os.environ.get("REPRO_SIM_KERNELS")
        os.environ["REPRO_SIM_KERNELS"] = mode
        try:
            strat = _random_strategy(graph, topo, rng, steps=5)
            tg = TaskGraph(graph, topo, strat, OpProfiler())
            assert full_makespan(tg).hex() == full_simulate(tg).makespan.hex()

            def check(sim):
                tg = sim.task_graph
                assert full_makespan(tg).hex() == full_simulate(tg).makespan.hex()

            sim = Simulator(graph, topo, strat, OpProfiler(), algorithm="full")
            _drive(sim, graph, topo, rng, steps=12, check=check)
        finally:
            if prev is None:
                os.environ.pop("REPRO_SIM_KERNELS", None)
            else:
                os.environ["REPRO_SIM_KERNELS"] = prev

    def test_empty_graph(self, mlp_graph, topo4):
        tg = TaskGraph(mlp_graph, topo4, single_device(mlp_graph), OpProfiler(), training=False)
        for tid in list(tg.tasks):
            tg.arrays.discard(tid)
            del tg.tasks[tid]
        assert full_makespan(tg) == 0.0

    def test_cycle_detection(self, mlp_graph, topo4):
        tg = TaskGraph(mlp_graph, topo4, single_device(mlp_graph), OpProfiler(), training=False)
        tids = list(tg.tasks)
        a, b = tids[0], tids[1]
        tg.tasks[a].ins.append(b)
        tg.tasks[b].outs.append(a)
        tg.arrays.link(b, a)
        with pytest.raises(RuntimeError, match="cycle"):
            full_makespan(tg)


class TestLazyTimeline:
    @pytest.mark.parametrize("mode", MODES)
    def test_timeline_after_sequence_is_the_real_one(
        self, mode, lenet_graph, topo4, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SIM_KERNELS", mode)
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="full",
        )
        _drive(sim, lenet_graph, topo4, np.random.default_rng(21), steps=30)
        assert sim.cost == sim.timeline.makespan
        assert sim.timeline.equals(full_simulate(sim.task_graph), tol=0)
        assert sim.timeline is sim.timeline  # built once, then kept

    def test_proposal_path_never_builds_a_timeline(self, lenet_graph, topo4, monkeypatch):
        def forbidden(tg):
            raise AssertionError("full_simulate called on the full proposal path")

        monkeypatch.setattr(simulator_mod, "full_simulate", forbidden)
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="full",
        )
        rng = np.random.default_rng(4)
        space = ConfigSpace(lenet_graph, topo4)
        for step in range(12):
            oid = int(rng.choice(lenet_graph.op_ids))
            cfg = space.random_config(oid, rng)
            sim.propose(oid, cfg)
            if step % 3 == 0:
                sim.commit()
            else:
                sim.revert()
        oid = int(lenet_graph.op_ids[0])
        sim.reconfigure(oid, space.random_config(oid, rng))
        monkeypatch.undo()
        assert sim.cost == full_simulate(sim.task_graph).makespan

    def test_revert_restores_a_read_timeline(self, lenet_graph, topo4):
        sim = Simulator(
            lenet_graph, topo4, data_parallelism(lenet_graph, topo4), OpProfiler(),
            algorithm="full",
        )
        before = sim.timeline
        space = ConfigSpace(lenet_graph, topo4)
        oid = lenet_graph.id_of("conv1")
        rng = np.random.default_rng(2)
        cfg = space.random_config(oid, rng)
        while cfg == sim.strategy[oid]:
            cfg = space.random_config(oid, rng)
        sim.propose(oid, cfg)
        assert sim.timeline is not before
        sim.revert()
        assert sim.timeline is before
        assert sim.cost == before.makespan
