"""Planner facade: legacy parity, error handling, store compaction, CLI."""

import subprocess
import sys

import pytest

from repro.plan import (
    BudgetConfig,
    EarlyStopConfig,
    ExecutionConfig,
    Planner,
    SearchConfig,
    SearchError,
    StoreConfig,
)
from repro.profiler.profiler import OpProfiler
from repro.search.optimizer import optimize
from repro.sim.simulator import simulate_strategy


class TestLegacyParity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_search_mcmc_bit_identical_to_optimize(self, lenet_graph, topo4, workers):
        """Acceptance: Planner.search("mcmc", cfg) == legacy optimize()."""
        legacy = optimize(
            lenet_graph, topo4, budget_iters=50, seed=3, workers=workers, cache_size=256
        )
        res = Planner(lenet_graph, topo4, profiler=OpProfiler()).search(
            "mcmc",
            SearchConfig(
                budget=BudgetConfig(iterations=50),
                execution=ExecutionConfig(workers=workers, cache_size=256),
                seed=3,
            ),
        )
        assert res.best_cost_us == legacy.best_cost_us
        assert res.best_strategy.signature() == legacy.best_strategy.signature()
        assert res.simulations == legacy.simulations
        for name, trace in legacy.traces.items():
            assert res.extras["traces"][name].costs == trace.costs

    def test_wrapper_result_surface_preserved(self, lenet_graph, topo4):
        """optimize() still returns a fully-populated OptimizeResult."""
        legacy = optimize(lenet_graph, topo4, budget_iters=40, seed=0, cache_size=512)
        assert legacy.workers == 1
        assert legacy.cache_hits + legacy.cache_misses > 0
        assert "best per-iteration time" in legacy.summary()
        assert len(legacy.chains) == len(legacy.traces)

    def test_exhaustive_wrapper_matches_backend(self, topo2):
        from repro.models.mlp import mlp
        from repro.search.exhaustive import exhaustive_search

        graph = mlp(batch=8, in_dim=16, hidden=(), num_classes=4)
        prof = OpProfiler()
        legacy = exhaustive_search(graph, topo2, profiler=prof)
        res = Planner(graph, topo2, profiler=prof).search("exhaustive")
        assert res.best_cost_us == legacy.best_cost_us
        assert res.extras["explored"] == legacy.explored
        assert res.extras["pruned"] == legacy.pruned


class TestChainSideMetrics:
    """The mcmc backend's metrics come from the winning chain's live
    simulator, spliced to its best strategy; they must equal a fresh
    one-shot simulation of that strategy exactly."""

    @staticmethod
    def _search(graph, topo, workers=1, algorithm="auto", store_root=None):
        return Planner(graph, topo, profiler=OpProfiler()).search(
            "mcmc",
            SearchConfig(
                budget=BudgetConfig(iterations=60, no_improve_frac=None),
                execution=ExecutionConfig(workers=workers, cache_size=256),
                store=StoreConfig(root=store_root),
                algorithm=algorithm,
                seed=5,
            ),
        )

    @pytest.mark.parametrize("algorithm", ["full", "delta", "auto"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_metrics_equal_fresh_simulation(self, lenet_graph, topo4, workers, algorithm):
        res = self._search(lenet_graph, topo4, workers, algorithm)
        fresh = simulate_strategy(lenet_graph, topo4, res.best_strategy, OpProfiler())
        assert res.metrics == fresh
        assert res.metrics.makespan_us == res.best_cost_us
        for chain in res.extras["chains"]:
            assert chain.metrics.makespan_us == chain.best_cost_us

    def test_weight_shared_groups(self, tiny_rnn_graph, topo4):
        res = self._search(tiny_rnn_graph, topo4)
        fresh = simulate_strategy(tiny_rnn_graph, topo4, res.best_strategy, OpProfiler())
        assert res.metrics == fresh

    def test_lazily_synced_chain_with_store(self, lenet_graph, topo4, tmp_path):
        root = str(tmp_path / "store")
        cold = self._search(lenet_graph, topo4, store_root=root)
        # The warm repeat answers every proposal from the store, so its
        # simulators never leave their initial strategies: the final
        # splice has to carry each chain all the way to its best.
        warm = self._search(lenet_graph, topo4, store_root=root)
        assert warm.store_stats.hits > 0
        assert warm.simulations == len(warm.extras["chains"])  # init sweeps only
        fresh = simulate_strategy(lenet_graph, topo4, warm.best_strategy, OpProfiler())
        assert warm.metrics == cold.metrics == fresh

    def test_splice_and_rebuild_paths(self, lenet_graph, topo4):
        """Few stale groups are spliced into the chain's simulator, most
        stale groups get a fresh build; both must equal a fresh
        simulation, and a best cost the sweep does not reproduce raises."""
        import numpy as np

        from repro.search.exec.base import _best_metrics
        from repro.sim.simulator import Simulator
        from repro.soap.presets import data_parallelism
        from repro.soap.space import ConfigSpace

        dp = data_parallelism(lenet_graph, topo4)
        space = ConfigSpace(lenet_graph, topo4)
        rng = np.random.default_rng(0)
        op = lenet_graph.op_ids[-2]
        cfg = space.random_config(op, rng)
        while cfg == dp[op]:
            cfg = space.random_config(op, rng)
        near, far = dp.with_config(op, cfg), space.random_strategy(rng)
        groups = len(lenet_graph.param_groups())
        assert 2 * sum(far[o] != dp[o] for o in lenet_graph.op_ids) > groups
        # (best, the simulator's strategy afterwards): spliced, then rebuilt.
        for best, after in ((near, near), (far, dp)):
            sim = Simulator(lenet_graph, topo4, dp, OpProfiler())
            want = simulate_strategy(lenet_graph, topo4, best, OpProfiler())
            assert _best_metrics(sim, best, want.makespan_us) == want
            assert sim.strategy.signature() == after.signature()
        with pytest.raises(RuntimeError, match="re-simulates"):
            _best_metrics(sim, dp, sim.cost + 1.0)


class TestSearchErrors:
    def test_all_chains_skipped_raises_search_error(self, lenet_graph, topo4):
        """Regression: an early-stop target of +inf marks the fleet done
        before any chain runs; this used to die on a bare AssertionError."""
        planner = Planner(lenet_graph, topo4)
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=20),
            early_stop=EarlyStopConfig(cost_us=float("inf")),
        )
        with pytest.raises(SearchError, match="skipped by the early-stop"):
            planner.search("mcmc", cfg)

    def test_legacy_optimize_raises_search_error_not_assert(self, lenet_graph, topo4):
        with pytest.raises(SearchError):
            optimize(lenet_graph, topo4, budget_iters=20, early_stop_cost=float("inf"))

    def test_unknown_init_still_value_error(self, lenet_graph, topo4):
        with pytest.raises(ValueError, match="alien"):
            Planner(lenet_graph, topo4).search("mcmc", SearchConfig(inits=("alien",)))

    def test_unknown_backend_option_rejected(self, lenet_graph, topo4):
        cfg = SearchConfig(backend_options={"reinforce": {"episodess": 3}})
        with pytest.raises(ValueError, match="episodess"):
            Planner(lenet_graph, topo4).search("reinforce", cfg)


class TestStoreCompaction:
    def test_compact_store_drops_duplicates(self, lenet_graph, topo4, tmp_path):
        from repro.search.store import StrategyStore

        root = tmp_path / "store"
        planner = Planner(lenet_graph, topo4, profiler=OpProfiler())
        cfg = SearchConfig(
            budget=BudgetConfig(iterations=30),
            store=StoreConfig(root=str(root)),
            seed=0,
        )
        baseline = planner.search("mcmc", cfg)
        assert baseline.store_stats.appended > 0

        # Two independent store handles flushing the same entry produce a
        # duplicate record; every flush also appends a separator line.
        context = planner.store_context(cfg)
        for _ in range(2):
            dup = StrategyStore(root, context)
            dup._snapshot.pop(12345, None)
            dup.record(12345, 1.0)
            dup.flush()

        before = (root / f"{context}.shard").stat().st_size
        stats = planner.compact_store(cfg)
        assert stats.duplicates_dropped >= 1
        assert stats.kept >= baseline.store_stats.appended
        assert stats.bytes_after < before
        assert stats.bytes_before == before

        # Compaction is content-preserving: a warm rerun still hits and
        # returns identical results.
        warm = planner.search("mcmc", cfg)
        assert warm.best_cost_us == baseline.best_cost_us
        assert warm.store_stats.warm_hits > 0

    def test_compact_store_without_root_rejected(self, lenet_graph, topo4, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(ValueError, match="store root"):
            Planner(lenet_graph, topo4).compact_store()

    def test_compact_missing_shard_is_noop(self, lenet_graph, topo4, tmp_path):
        stats = Planner(lenet_graph, topo4).compact_store(root=str(tmp_path / "empty"))
        assert stats.kept == 0
        assert stats.duplicates_dropped == 0


class TestConsoleCheck:
    def test_list_backends_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.plan", "--list-backends"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        listed = proc.stdout.split()
        for name in ("mcmc", "exhaustive", "optcnn", "reinforce"):
            assert name in listed
