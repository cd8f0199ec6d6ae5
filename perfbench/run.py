"""End-to-end benchmark of MCMC strategy search.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``repro`` is imported from
``src/``.  Workloads (see README.md for why each was chosen):

``inception16``
    One in-process ``Planner.search("mcmc")`` chain: Inception-v3 on a
    4x4 P100 slice, data-parallel init, 60 proposals, stall check off.
``nmt16``
    The same on NMT (CI scale), 20 proposals.
``served-alexnet4``
    A loopback planning server (``spawn_local_server``, one search
    worker, fresh store) and one ``PlanClient`` in a closed loop; each
    AlexNet/P100x4 request (random init, 100 proposals, stall check off)
    is sent twice, cold and then as an exact repeat answered from the
    server's store.

An *operation* is one search (search workloads) or one request
(served).  Search workloads run a cold search on a freshly built graph,
then warm repeats on the same ``Planner`` until ``--seconds`` have
passed (at least one).  The served workload sends a fixed number of
pairs, ``SERVED_PAIRS_PER_S`` per second of ``--seconds`` and at least
``MIN_SERVED_PAIRS``: the store, and with it the cost of a repeat, grows
with every pair sent, so the count must not depend on machine speed.

With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric.  With ``--trace 1`` a further search
(or a second server) runs with layer spans recorded (see ``layers.py``)
and the JSON holds every per-layer metric instead; the spans are written
to ``.perfbench/`` in the checkout.  Every run checks the program's
outputs; a failed check counts the operation as failed and makes
``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("proposals_per_s", "1/s", "higher"),
    ("time_to_best_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("request_cold_p50_ms", "ms", "lower"),
    ("request_warm_p50_ms", "ms", "lower"),
    ("request_p90_ms", "ms", "lower"),
)

# Search workloads pin their chain seed: the trajectory decides how far
# the task graph and intern table grow, and on NMT the proposal rate of
# different chain seeds differs four-fold (README.md), so the chain is
# part of the workload and its results are recorded in expected.json.
CHAIN_SEED = 0
SETUP_PROBES = 3  # extra set-up-only searches per search run
SERVER_SPAWNS = 5  # server start-ups per served run (the last one serves)
MIN_SERVED_PAIRS = 50  # >= 100 requests, so p90 has ten samples beyond it
SERVED_PAIRS_PER_S = 5  # a pair took ~0.2 s at the baseline commit
TRACED_PAIRS = 25  # served pairs per server in a traced run
SERVED_PROPOSALS = 100  # MCMC budget of each served request


@dataclass(frozen=True)
class SearchWorkload:
    model: str
    gpus: int
    proposals: int


SEARCH_WORKLOADS = {
    "inception16": SearchWorkload("inception_v3", 16, 60),
    "nmt16": SearchWorkload("nmt", 16, 20),
}
SERVED = "served-alexnet4"
WORKLOADS = (*SEARCH_WORKLOADS, SERVED)


# -- helpers ------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ranked = sorted(values)
    return ranked[max(1, math.ceil(q * len(ranked))) - 1]


def latency_metrics(cold_ms: list[float], warm_ms: list[float]) -> dict[str, float]:
    """Per-class medians plus the p90 of all operations.

    There is no pooled median: with half cold and half warm operations
    it would fall in the gap between the classes.
    """
    return {
        "request_cold_p50_ms": statistics.median(cold_ms),
        "request_warm_p50_ms": statistics.median(warm_ms),
        "request_p90_ms": percentile(cold_ms + warm_ms, 0.9),
    }


def chain_traces(result) -> list:
    return list(result.extras["traces"].values())


def loop_seconds(trace) -> float:
    return trace.times_s[-1]


def time_to_best(trace) -> float:
    """Loop seconds until the chain first holds its final best cost."""
    final = trace.best_costs[-1]
    return trace.times_s[trace.best_costs.index(final)]


def proposals_per_s(results) -> float:
    traces = [t for r in results for t in chain_traces(r)]
    return sum(t.proposed for t in traces) / sum(loop_seconds(t) for t in traces)


def result_errors(result) -> list[str]:
    """Checks every search result must pass."""
    errors = []
    if result.best_cost_us != result.metrics.makespan_us:
        errors.append(
            f"final simulation {result.metrics.makespan_us.hex()} != "
            f"best cost {result.best_cost_us.hex()}"
        )
    return errors


def expected_errors(result, expected: dict) -> list[str]:
    """Bit-for-bit comparison with the recorded outcome of the chain."""
    (trace,) = chain_traces(result)
    seen = {
        "best_cost": result.best_cost_us.hex(),
        "proposed": trace.proposed,
        "accepted": trace.accepted,
        "simulations": result.simulations,
    }
    return [f"{k}: got {seen[k]!r}, expected {v!r}" for k, v in expected.items() if seen[k] != v]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


@contextlib.contextmanager
def stderr_to(path: Path):
    """Point file descriptor 2 at ``path`` (children started inside inherit it)."""
    sys.stderr.flush()
    saved = os.dup(2)
    with open(path, "ab") as log:
        os.dup2(log.fileno(), 2)
    try:
        yield
    finally:
        os.dup2(saved, 2)
        os.close(saved)


class Outcome:
    """Operation counts and the reasons operations failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors)


# -- search workloads -----------------------------------------------------------
def run_search(name: str, seconds: float, trace: bool, spans_path: Path) -> tuple[dict, Outcome]:
    from repro.bench.harness import cluster
    from repro.models.registry import get_model
    from repro.plan import BudgetConfig, Planner, SearchConfig

    wl = SEARCH_WORKLOADS[name]
    expected = json.loads((HERE / "expected.json").read_text())[name]
    config = SearchConfig(
        budget=BudgetConfig(iterations=wl.proposals, no_improve_frac=None),
        inits=("data_parallel",),
        seed=CHAIN_SEED,
    )

    def build() -> Planner:
        return Planner(get_model(wl.model, scale="ci"), cluster("p100", wl.gpus))

    outcome = Outcome()
    # Set-up only: with no proposals the run wall is all set-up.
    setups = []
    probe = config.replace(budget=BudgetConfig(iterations=0, no_improve_frac=None))
    for _ in range(0 if trace else SETUP_PROBES):
        t0 = time.perf_counter()
        build().search("mcmc", probe)
        setups.append(time.perf_counter() - t0)

    def search(cls: str, planner: Planner, t0: float):
        result = planner.search("mcmc", config)
        wall = time.perf_counter() - t0
        errors = result_errors(result) + expected_errors(result, expected)
        outcome.record(f"{cls} search", errors)
        return cls, wall, result

    t_start = time.perf_counter()
    planner = build()
    runs = [search("cold", planner, t_start)]  # (class, wall s, result)
    while True:
        runs.append(search("warm", planner, time.perf_counter()))
        if trace or time.perf_counter() - t_start >= seconds:
            break
    elapsed = time.perf_counter() - t_start

    if trace:
        # One more search, traced; the untraced warm one before it is the
        # reference for trace.overhead.
        from tracer import Tracer

        import layers

        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = search("traced", planner, time.perf_counter())[2]
        finally:
            tracer.uninstall()
        spans = tracer.dump(str(spans_path))
        return search_layer_metrics(spans, runs[-1][2], traced), outcome

    results = [r for _, _, r in runs]
    per_chain_pps = [proposals_per_s([r]) for r in results]
    setups += [wall - loop_seconds(chain_traces(r)[0]) for _, wall, r in runs]
    metrics = {
        "proposals_per_s": statistics.median(per_chain_pps),
        "time_to_best_s": statistics.median(time_to_best(chain_traces(r)[0]) for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        "requests_per_s": len(runs) / elapsed,
        **latency_metrics(
            [w * 1e3 for c, w, _ in runs if c == "cold"],
            [w * 1e3 for c, w, _ in runs if c == "warm"],
        ),
    }
    return metrics, outcome


def result_layer_metrics(results) -> dict:
    """Per-layer metrics the program reports in its results: routes and
    hit ratios, summed over the traced searches."""
    routes: dict[str, int] = {}
    for r in results:
        for route, n in r.extras["route_counts"].items():
            routes[route] = routes.get(route, 0) + n

    def ratio(stats) -> float:
        lookups = sum(s.lookups for s in stats)
        return sum(s.hits for s in stats) / lookups if lookups else 0.0

    return {
        **{f"route.{k}": routes.get(k, 0) for k in ("full", "delta", "propagate", "noop")},
        "cache.hit_ratio": ratio([r.cache_stats for r in results]),
        "store.hit_ratio": ratio([r.store_stats for r in results]),
    }


def search_layer_metrics(spans, untraced, traced) -> dict:
    import layers

    out = layers.layer_metrics(spans, loop_seconds(chain_traces(traced)[0]))
    out.update(result_layer_metrics([traced]))
    out.update(
        {
            "store.entries": 0,
            "serve.requests": 0,
            "serve.setup_ms": 0.0,
            "serve.search_ms": 0.0,
            "wire.ms": 0.0,
            "wire.reply_bytes": 0,
            "trace.overhead": proposals_per_s([traced]) / proposals_per_s([untraced]),
        }
    )
    return out


# -- served workload --------------------------------------------------------------
class ServedRun:
    """One planning server on a fresh store, plus its client connection."""

    def __init__(self, work: Path, tag: str, spans_path: Path | None = None):
        from repro.plan.client import PlanClient
        from repro.plan.serve import spawn_local_server

        self.store = work / f"store-{tag}"
        self.log = work / f"server-{tag}.log"
        self.client = None
        t0 = time.perf_counter()
        if spans_path is None:
            with stderr_to(self.log):
                self.proc, addr = spawn_local_server(store_root=str(self.store), serve_workers=1)
        else:
            self.proc, addr = self._spawn_traced(spans_path)
        try:
            self.client = PlanClient(addr)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _spawn_traced(self, spans_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
        )
        args = [
            sys.executable, str(HERE / "traced_server.py"), str(spans_path),
            "--bind", "127.0.0.1:0", "--store-root", str(self.store), "--serve-workers", "1",
        ]
        with open(self.log, "ab") as log:
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=log, text=True, env=env)
        parts = proc.stdout.readline().split()
        if len(parts) != 3 or parts[0] != "REPRO-PLAN-SERVE":
            proc.kill()
            proc.wait()
            raise RuntimeError(f"traced server did not announce itself; see {self.log}")
        return proc, f"{parts[1]}:{parts[2]}"

    def stop(self) -> int:
        """Drain the server (SIGTERM) and wait for it; returns its exit code."""
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self.proc.stdout.close()
        return rc

    def store_entries(self) -> int:
        """Distinct fingerprints in the server's shard files."""
        fps = set()
        for shard in self.store.glob("*.shard"):
            for line in shard.read_text().splitlines():
                parts = line.split()
                if len(parts) == 2 and not line.startswith("#"):
                    fps.add(parts[0])
        return len(fps)


class ReplyMeter:
    """Counts the bytes the client reads, by wrapping the frame reader
    ``repro.plan.client`` imported by name."""

    def __init__(self) -> None:
        import repro.plan.client as client

        self._client = client
        self._recv_msg = client.recv_msg
        self.nbytes = 0
        client.recv_msg = lambda sock: self._recv_msg(_CountedSocket(sock, self))

    def close(self) -> None:
        self._client.recv_msg = self._recv_msg


class _CountedSocket:
    def __init__(self, sock, meter: ReplyMeter):
        self._sock = sock
        self._meter = meter

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        self._meter.nbytes += len(data)
        return data


def served_pairs(run: ServedRun, seeds, outcome: Outcome, meter=None):
    """Send each seed's request twice, cold then repeat; stops early at
    the first request that raises."""
    from repro.bench.harness import cluster
    from repro.models.registry import get_model
    from repro.plan import BudgetConfig, SearchConfig

    graph, topology = get_model("alexnet", scale="ci"), cluster("p100", 4)
    replies = []  # (class, latency s, result, reply bytes)
    for seed in seeds:
        config = SearchConfig(
            budget=BudgetConfig(iterations=SERVED_PROPOSALS, no_improve_frac=None),
            inits=("random",),
            seed=seed,
        )
        twin = None
        for cls in ("cold", "warm"):
            if meter is not None:
                meter.nbytes = 0
            t0 = time.perf_counter()
            try:
                result = run.client.plan(graph, topology, config=config)
            except Exception as exc:  # a failed request is a measured outcome
                outcome.record(f"{cls} request seed={seed}", [repr(exc)])
                return replies
            latency = time.perf_counter() - t0
            errors = result_errors(result)
            if twin is not None and result.best_cost_us != twin.best_cost_us:
                errors.append(
                    f"repeat best cost {result.best_cost_us.hex()} != "
                    f"cold {twin.best_cost_us.hex()}"
                )
            outcome.record(f"{cls} request seed={seed}", errors)
            replies.append((cls, latency, result, meter.nbytes if meter is not None else 0))
            twin = result
    return replies


def request_seeds(seed: int, pairs: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=pairs)]


def run_served(seed: int, seconds: float, trace: bool, work: Path, spans_path: Path):
    outcome = Outcome()
    if trace:
        return served_layer_metrics(seed, work, spans_path, outcome), outcome

    setups = []
    run = None
    try:
        for k in range(SERVER_SPAWNS):
            run = ServedRun(work, str(k))
            setups.append(run.setup_s)
            if k < SERVER_SPAWNS - 1:
                rc, run = run.stop(), None
                if rc != 0:
                    outcome.errors.append(f"server exited {rc} after start-up probe")
        pairs = max(MIN_SERVED_PAIRS, math.ceil(seconds * SERVED_PAIRS_PER_S))
        seeds = request_seeds(seed, pairs)
        t0 = time.perf_counter()
        replies = served_pairs(run, seeds, outcome)
        elapsed = time.perf_counter() - t0
    finally:
        if run is not None:
            rc = run.stop()
            if rc != 0:
                outcome.errors.append(f"server exited {rc}")
    results = [r for _, _, r, _ in replies]
    cold = [r for c, _, r, _ in replies if c == "cold"]
    metrics = {
        "proposals_per_s": proposals_per_s(results),
        "time_to_best_s": statistics.median(time_to_best(chain_traces(r)[0]) for r in cold),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "requests_per_s": len(replies) / elapsed,
        **latency_metrics(
            [lat * 1e3 for c, lat, _, _ in replies if c == "cold"],
            [lat * 1e3 for c, lat, _, _ in replies if c == "warm"],
        ),
    }
    return metrics, outcome


def served_layer_metrics(seed: int, work: Path, spans_path: Path, outcome: Outcome) -> dict:
    import layers
    from tracer import load_spans

    seeds = request_seeds(seed, TRACED_PAIRS)
    # Untraced reference pass, then the same requests on a traced server.
    run = ServedRun(work, "untraced")
    try:
        untraced = served_pairs(run, seeds, outcome)
    finally:
        if run.stop() != 0:
            outcome.errors.append("untraced server exited non-zero")
    meter = ReplyMeter()
    run = ServedRun(work, "traced", spans_path=spans_path)
    try:
        traced = served_pairs(run, seeds, outcome, meter)
    finally:
        meter.close()
        if run.stop() != 0:
            outcome.errors.append("traced server exited non-zero")
    results = [r for _, _, r, _ in traced]
    loop_s = sum(loop_seconds(t) for r in results for t in chain_traces(r))
    out = layers.layer_metrics(load_spans(str(spans_path)), loop_s)
    out.update(result_layer_metrics(results))
    serve = [(lat, r.extras["serve"]) for _, lat, r, _ in traced]
    out.update(
        {
            "store.entries": run.store_entries(),
            "serve.requests": len(traced),
            "serve.setup_ms": sum(s["setup_s"] for _, s in serve) * 1e3,
            "serve.search_ms": sum(s["search_s"] for _, s in serve) * 1e3,
            "wire.ms": sum(lat - s["setup_s"] - s["search_s"] for lat, s in serve) * 1e3,
            "wire.reply_bytes": sum(n for _, _, _, n in traced),
            "trace.overhead": proposals_per_s(results)
            / proposals_per_s([r for _, _, r, _ in untraced]),
        }
    )
    return out


# -- entry point -------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}.npz"
    trace = bool(args.trace)
    try:
        if args.workload == SERVED:
            metrics, outcome = run_served(args.seed, args.seconds, trace, work, spans_path)
        else:
            metrics, outcome = run_search(args.workload, args.seconds, trace, spans_path)
    except BaseException:
        print(f"perfbench: server logs and stores kept in {work}", file=sys.stderr)
        raise
    correct = outcome.failed == 0 and not outcome.errors
    if correct:
        shutil.rmtree(work)
    else:
        print(f"perfbench: server logs and stores kept in {work}", file=sys.stderr)

    import layers

    catalogue = layers.LAYER_METRICS if trace else END_TO_END
    report = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in catalogue},
    }
    for err in outcome.errors[:20]:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    for name, unit, _ in catalogue:
        print(f"perfbench: {args.workload} {name} = {metrics[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
