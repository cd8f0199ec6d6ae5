"""The layers a proposal crosses, as traced entry points and metrics.

:func:`install` wraps each layer's public entry points with
:class:`~tracer.Tracer` spans.  Layer names follow the ``src/repro``
modules.  Functions imported by name are wrapped in the module that
calls them (``full_simulate`` & co. in ``repro.sim.simulator``,
``simulate_strategy`` in ``repro.plan.backends``, ``mcmc_search`` in
``repro.search.exec.base``, ``shared_store`` in its three callers).

:func:`layer_metrics` turns the spans of a traced run into the
per-layer metrics of ``BENCHMARK.json``.  Times are self times
(milliseconds), summed over the traced operations, with two exceptions:
``repair.*`` counts only sweeps called from the proposal path, so the
build and final sweeps do not count as repairs, and ``finalize.ms`` is
the whole final simulation (its children are the build and sweep it
repeats).
"""

from __future__ import annotations

import numpy as np

from tracer import Spans, Tracer, self_times

__all__ = ["LAYER_METRICS", "install", "layer_metrics"]

# Span names of the wrapped entry points (module.qualname).
CHAIN = "search.mcmc.mcmc_search"
SIM_INIT = "sim.simulator.Simulator.__init__"
FINALIZE = "sim.simulator.simulate_strategy"
FULL = "sim.full_sim.full_simulate"
DELTA = "sim.delta_sim.delta_simulate"
PROPAGATE = "sim.propagate.propagate_simulate"
ROUTE = "sim.propagate.preflight_route"
PROPOSE = "sim.simulator.Simulator.propose"
COMMIT = "sim.simulator.Simulator.commit"
REVERT = "sim.simulator.Simulator.revert"
TG_INIT = "sim.taskgraph.TaskGraph.__init__"
SPLICE = "sim.taskgraph.TaskGraph.replace_config"
UNDO = "sim.taskgraph.TaskGraph.undo_last_splice"
INTERN = "sim.arrays.TaskArrays.intern"
COPY = "sim.full_sim.Timeline.copy"
COPY_INTO = "sim.full_sim.Timeline.copy_into"
DRAW = "soap.space.ConfigSpace.random_config"
FP_PROPOSE = "search.cache.FingerprintTracker.propose"
FP_COMMIT = "search.cache.FingerprintTracker.commit"
CACHE_GET = "search.cache.SimulationCache.get"
CACHE_PUT = "search.cache.SimulationCache.put"
STORE_GET = "search.store.StrategyStore.get"
STORE_RECORD = "search.store.StrategyStore.record"
STORE_FLUSH = "search.store.StrategyStore.flush"
STORE_RELOAD = "search.store.StrategyStore.reload"
SHARED_STORE = "search.store.shared_store"

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("repair.full_calls", "count", "lower"),
    ("repair.full_ms", "ms", "lower"),
    ("repair.delta_ms", "ms", "lower"),
    ("repair.propagate_ms", "ms", "lower"),
    ("route.ms", "ms", "lower"),
    ("route.full", "count", "lower"),
    ("route.delta", "count", "higher"),
    ("route.propagate", "count", "higher"),
    ("route.noop", "count", "higher"),
    ("propose.self_ms", "ms", "lower"),
    ("splice.calls", "count", "lower"),
    ("splice.self_ms", "ms", "lower"),
    ("splice.undo_ms", "ms", "lower"),
    ("build.taskgraph_ms", "ms", "lower"),
    ("tasks.live", "count", "lower"),
    ("intern.calls", "count", "lower"),
    ("intern.ms", "ms", "lower"),
    ("intern.table_size", "count", "lower"),
    ("intern.rank_renumbers", "count", "lower"),
    ("snapshot.ms", "ms", "lower"),
    ("commit.ms", "ms", "lower"),
    ("revert.ms", "ms", "lower"),
    ("draw.calls", "count", "lower"),
    ("draw.ms", "ms", "lower"),
    ("fingerprint.ms", "ms", "lower"),
    ("cache.ms", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("store.get_ms", "ms", "lower"),
    ("store.record_ms", "ms", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.flush_ms", "ms", "lower"),
    ("store.reload_ms", "ms", "lower"),
    ("store.entries", "count", "lower"),
    ("finalize.ms", "ms", "lower"),
    ("chain.self_ms", "ms", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.setup_ms", "ms", "lower"),
    ("serve.search_ms", "ms", "lower"),
    ("wire.ms", "ms", "lower"),
    ("wire.reply_bytes", "bytes", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "higher"),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the ``repro`` package."""
    import repro.plan.backends as backends
    import repro.plan.serve as serve
    import repro.search.exec.base as exec_base
    import repro.search.exec.local as exec_local
    import repro.sim.simulator as simulator
    from repro.search.cache import FingerprintTracker, SimulationCache
    from repro.search.store import StrategyStore
    from repro.sim.arrays import TaskArrays
    from repro.sim.full_sim import Timeline
    from repro.sim.taskgraph import TaskGraph
    from repro.soap.space import ConfigSpace

    live = {}

    def capture_simulator(args, _result) -> None:
        live["sim"] = args[0]

    def read_gauges(_args, _result) -> None:
        # After the chain's loop: the Simulator it ran on is the one
        # built last (the final best-strategy simulation builds none).
        tg = live["sim"].task_graph
        tracer.gauge_max("tasks.live", tg.num_tasks)
        tracer.gauge_max("intern.table_size", len(tg.arrays._ckey_idx))
        tracer.gauge_max("intern.rank_renumbers", tg.arrays.rank_renumbers)

    wraps = [
        (simulator, "full_simulate", FULL),
        (simulator, "delta_simulate", DELTA),
        (simulator, "propagate_simulate", PROPAGATE),
        (simulator, "preflight_route", ROUTE),
        (backends, "simulate_strategy", FINALIZE),
        (simulator.Simulator, "propose", PROPOSE),
        (simulator.Simulator, "commit", COMMIT),
        (simulator.Simulator, "revert", REVERT),
        (TaskGraph, "__init__", TG_INIT),
        (TaskGraph, "replace_config", SPLICE),
        (TaskGraph, "undo_last_splice", UNDO),
        (TaskArrays, "intern", INTERN),
        (Timeline, "copy", COPY),
        (Timeline, "copy_into", COPY_INTO),
        (ConfigSpace, "random_config", DRAW),
        (FingerprintTracker, "propose", FP_PROPOSE),
        (FingerprintTracker, "commit", FP_COMMIT),
        (SimulationCache, "get", CACHE_GET),
        (SimulationCache, "put", CACHE_PUT),
        (StrategyStore, "get", STORE_GET),
        (StrategyStore, "record", STORE_RECORD),
        (StrategyStore, "flush", STORE_FLUSH),
        (StrategyStore, "reload", STORE_RELOAD),
        (exec_local, "shared_store", SHARED_STORE),
        (backends, "shared_store", SHARED_STORE),
        (serve, "shared_store", SHARED_STORE),
    ]
    for owner, attr, name in wraps:
        tracer.wrap(owner, attr, name)
    tracer.wrap(simulator.Simulator, "__init__", SIM_INIT, after=capture_simulator)
    tracer.wrap(exec_base, "mcmc_search", CHAIN, after=read_gauges)


def _phase_mask(spans: Spans, root: str) -> np.ndarray:
    """Spans that are ``root`` spans or descend from one."""
    inside = np.zeros(len(spans), dtype=bool)
    if root not in spans.names:
        return inside
    rid = spans.names.index(root)
    names = spans.name.tolist()
    parents = spans.parent.tolist()
    flags = [False] * len(names)
    for i, (n, p) in enumerate(zip(names, parents)):
        flags[i] = n == rid or (p >= 0 and flags[p])
    inside[:] = flags
    return inside


def layer_metrics(spans: Spans, loop_s: float) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced run.

    ``loop_s`` is the summed loop wall time of the traced chains
    (``SearchTrace.times_s[-1]``), the base of ``trace.coverage``.
    Metrics that come from results rather than spans (route counts,
    hit ratios, serve and wire figures, overhead) are filled in by the
    caller.
    """
    own = self_times(spans.parent, spans.start, spans.end) * 1e3
    total = (spans.end - spans.start) * 1e3
    ids = {n: i for i, n in enumerate(spans.names)}
    in_loop = _phase_mask(spans, CHAIN)

    def select(*names: str, mask: np.ndarray | None = None) -> np.ndarray:
        sel = np.isin(spans.name, [ids[n] for n in names if n in ids])
        return sel & mask if mask is not None else sel

    def self_ms(*names: str, mask: np.ndarray | None = None) -> float:
        return float(own[select(*names, mask=mask)].sum())

    def calls(*names: str, mask: np.ndarray | None = None) -> int:
        return int(select(*names, mask=mask).sum())

    chain = select(CHAIN)
    covered = float(own[in_loop & ~chain].sum())
    out = {
        "repair.full_calls": calls(FULL, mask=in_loop),
        "repair.full_ms": self_ms(FULL, mask=in_loop),
        "repair.delta_ms": self_ms(DELTA, mask=in_loop),
        "repair.propagate_ms": self_ms(PROPAGATE, mask=in_loop),
        "route.ms": self_ms(ROUTE),
        "propose.self_ms": self_ms(PROPOSE),
        "splice.calls": calls(SPLICE),
        "splice.self_ms": self_ms(SPLICE),
        "splice.undo_ms": self_ms(UNDO),
        "build.taskgraph_ms": self_ms(TG_INIT),
        "intern.calls": calls(INTERN),
        "intern.ms": self_ms(INTERN),
        "snapshot.ms": self_ms(COPY, COPY_INTO),
        "commit.ms": self_ms(COMMIT),
        "revert.ms": self_ms(REVERT),
        "draw.calls": calls(DRAW),
        "draw.ms": self_ms(DRAW),
        "fingerprint.ms": self_ms(FP_PROPOSE, FP_COMMIT),
        "cache.ms": self_ms(CACHE_GET, CACHE_PUT),
        "store.get_ms": self_ms(STORE_GET),
        "store.record_ms": self_ms(STORE_RECORD),
        "store.flush_ms": self_ms(STORE_FLUSH),
        "store.reload_ms": self_ms(STORE_RELOAD, SHARED_STORE),
        "finalize.ms": float(total[select(FINALIZE)].sum()),
        "chain.self_ms": float(own[chain].sum()),
        "trace.coverage": covered / (loop_s * 1e3) if loop_s > 0 else 0.0,
    }
    for gauge in ("tasks.live", "intern.table_size", "intern.rank_renumbers"):
        out[gauge] = spans.gauges.get(gauge, 0)
    return out
