"""serve_mixed: ``python -m repro serve`` under a hot/cold request mix.

The server runs in its own process with default flags and serves a model
fitted, through the ``repro fit`` path, on 2,000 rows.  Every request
posts a 256-row source batch and a 2,000-row target column.  7 requests in
8 reuse one hot target (index cache hit; concurrent ones can be coalesced
by the micro-batcher); 1 in 8 carries a target column not sent before in
the run, so it misses the cache whatever its capacity (see
``serveplan.Plan``).

Two phases: an open loop of seeded Poisson arrivals at a fixed offered
rate (latency p50/p99 from each request's due time, recorded), then a
closed loop with ``nproc`` connections for ``--seconds``: its wall time
per 1,000 source rows served is ``wall_ms_per_krow``, and the server
process's CPU time over both phases per 1,000 rows is ``cpu_ms_per_krow``.
Every response is compared with the offline ``model.joiner().join_values``
result after both phases, and scored against the diagonal gold.

This workload is not in ``BENCHMARK.json``: on a shared 2-core host its
wall time spread wider than any bound the manifest allows (see
``perfbench/README.md``).  It runs by hand with the same command.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import loadgen
from common import (
    OUT_DIR,
    ROOT,
    emit,
    end_to_end,
    environment,
    finish_traced,
    fit_csv,
    percentile,
    table_pair,
    timed_setups,
    write_pair,
)
from layers import Layers
from serveplan import BATCH_ROWS, Plan, replay
from spans import Tracer

ROWS = 2_000
MODEL = "mixed"
#: Offered rate of the open loop, a constant never adapted to the code
#: measured: about half of the 80-100 rps the closed loop completes on a
#: 2-core host with these inputs.
OPEN_RATE_RPS = 50.0
#: Open-loop arrivals per run, whatever ``--seconds`` says: a p99 needs at
#: least ten samples beyond it.  ``--seconds`` is the closed loop's length.
OPEN_REQUESTS = 1_000
#: Upper bound on closed-loop throughput, used only to size the request plan.
CLOSED_PLAN_RPS = 200.0
#: ``capacity_rps`` counts only while the closed loop's p99 stays below this:
#: about twice the worst closed-loop p99 (79 ms) seen on a 2-core host.
CAPACITY_P99_LIMIT_MS = 150.0
#: The run is marked invalid (in its record and on stderr) when the
#: generator itself, not the server, was late: the p99 of its own send
#: delay above this limit.
GENERATOR_LATE_LIMIT_MS = 5.0
#: A send within this delay of its due time counts as on time.
ON_TIME_MS = 1.0
#: Requests the traced run replays in-process, per kernel tier.
REPLAY_REQUESTS = 400
#: Serial HTTP round trips timed for ``serve.http_overhead_ms``.
SERIAL_REQUESTS = 200


class Service:
    """Set-up: data, fitted model, server process, warm-up, request plan."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.dir = OUT_DIR / f"serve_mixed-seed{seed}"
        self.models = self.dir / "models"
        self.models.mkdir(parents=True, exist_ok=True)
        pair = table_pair(ROWS, seed)
        self.source, self.target = write_pair(pair, self.dir)
        self.model = fit_csv(self.source, self.target, self.models / f"{MODEL}.json")
        self.process, self.port = _start_server(self.models, self.dir / "server.log")
        try:
            total = OPEN_REQUESTS + math.ceil(CLOSED_PLAN_RPS * seconds)
            self.plan = Plan(list(pair.source["value"]), list(pair.target["value"]),
                             self.model.joiner(), seed, total)
            rng = random.Random(seed)
            self.arrivals = []
            clock = 0.0
            for _ in range(OPEN_REQUESTS):
                clock += rng.expovariate(OPEN_RATE_RPS)
                self.arrivals.append(clock)
            # The one cold warm-up request: model load, trie compile, hot
            # target index.  Its answer is checked like every other.
            hot = self.plan.cold.index(False)
            self.warmup_ok = self.plan.check(hot, *_post(self.port,
                                                         self.plan.bodies[hot]))
        except BaseException:
            self.close()
            raise

    def stats(self) -> dict:
        connection = HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/stats")
            stats = json.loads(connection.getresponse().read())
        finally:
            connection.close()
        # Records name files relative to the checkout, never by host path.
        stats["engine"]["registry"]["model_dir"] = str(self.models.relative_to(ROOT))
        return stats

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server process has used."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        line = next(line for line in status.splitlines() if line.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _start_server(models: Path, log: Path) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    with log.open("w") as handle:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(models), "--port", "0"],
            stdout=handle, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    deadline = time.monotonic() + 60
    port = None
    while time.monotonic() < deadline and process.poll() is None:
        for line in log.read_text().splitlines():
            if line.startswith("listening on http://"):
                port = int(line.split()[2].rsplit(":", 1)[1])
        if port is not None and _healthy(port):
            return process, port
        time.sleep(0.02)
    process.kill()
    process.wait()
    raise RuntimeError(f"server did not become healthy; see {log}")


def _healthy(port: int) -> bool:
    connection = HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", "/healthz")
        return connection.getresponse().status == 200
    except OSError:
        return False
    finally:
        connection.close()


def _post(port: int, body: bytes) -> tuple[int, bytes]:
    connection = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("POST", f"/join/{MODEL}", body, loadgen.HEADERS)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _http_run(service: Service, threads: int, seconds: float) -> dict:
    """The open then closed loop; outcomes checked after both phases."""
    plan = service.plan
    path = f"/join/{MODEL}"
    n_open = OPEN_REQUESTS
    cpu_before = service.cpu_seconds()
    opened = loadgen.open_loop("127.0.0.1", service.port, path,
                               plan.bodies[:n_open], service.arrivals, threads)
    closed, closed_s = loadgen.closed_loop(
        "127.0.0.1", service.port, path, plan.bodies[n_open:], seconds, threads)
    server_cpu_s = service.cpu_seconds() - cpu_before
    outcomes = opened + closed
    ok = [plan.check(index, outcome.status, outcome.body)
          for index, outcome in enumerate(outcomes)]
    served = [(index, json.loads(outcome.body)["pairs"])
              for index, outcome in enumerate(outcomes) if outcome.status == 200]
    correct, predicted, gold = plan.score(served)
    statuses = [outcome.status for outcome in outcomes]
    open_latency = [outcome.latency for outcome in opened]
    late = [outcome.generator_late for outcome in opened]
    closed_ok = sum(ok[n_open:])
    closed_p99_ms = percentile([o.latency for o in closed], 0.99) * 1e3
    gen_late_p99_ms = percentile(late, 0.99) * 1e3
    valid = gen_late_p99_ms <= GENERATOR_LATE_LIMIT_MS
    if not valid:
        print(f"invalid run: the load generator fell behind (its own send delay "
              f"p99 {gen_late_p99_ms:.2f} ms > {GENERATOR_LATE_LIMIT_MS} ms)",
              file=sys.stderr)
    return {
        "valid": valid,
        "attempted": len(outcomes),
        "failed": len(outcomes) - sum(ok),
        "status_429": statuses.count(429),
        "status_504": statuses.count(504),
        "transport_errors": statuses.count(-1),
        "open_requests": n_open,
        "open_cold": sum(plan.cold[:n_open]),
        "req_p50_ms": percentile(open_latency, 0.50) * 1e3,
        "req_p99_ms": percentile(open_latency, 0.99) * 1e3,
        "gen_late_p99_ms": gen_late_p99_ms,
        "on_time_share": sum((o.sent - o.due) * 1e3 <= ON_TIME_MS
                             for o in opened) / n_open,
        "closed_requests": len(closed),
        "closed_p50_ms": percentile([o.latency for o in closed], 0.50) * 1e3,
        "closed_p99_ms": closed_p99_ms,
        "closed_rps": closed_ok / closed_s,
        "capacity_rps": (closed_ok / closed_s
                         if closed_p99_ms <= CAPACITY_P99_LIMIT_MS else 0.0),
        "closed_ms_per_krow": closed_s * 1e6 / (closed_ok * BATCH_ROWS),
        "server_cpu_ms_per_krow": server_cpu_s * 1e6 / (len(outcomes) * BATCH_ROWS),
        "precision": correct / predicted,
        "recall": correct / gold,
        "plan_exhausted": len(closed) == len(plan.bodies) - n_open,
    }


def run(args, removed_env: list[str]) -> None:
    threads = os.cpu_count() or 1
    env = environment({"apply": BATCH_ROWS})
    env["loadgen_threads"] = threads
    if args.trace:
        _run_traced(args, env, removed_env, threads)
        return
    service, setup_s = timed_setups(lambda: Service(args.seed, args.seconds))
    try:
        http = _http_run(service, threads, args.seconds)
        stats = service.stats()
        peak_rss = service.peak_rss_mb()
    finally:
        service.close()

    failed = http["failed"] + (not service.warmup_ok)
    attempted = http["attempted"] + 1
    for name, unit in (("req_p50_ms", "ms"), ("req_p99_ms", "ms"),
                       ("capacity_rps", "1/s")):
        print(f"  {name:<34} {http[name]:>16.6g} {unit} (recorded, not gated)")
    metrics = end_to_end(
        setup_s=setup_s,
        wall_ms_per_krow=http["closed_ms_per_krow"],
        cpu_ms_per_krow=http["server_cpu_ms_per_krow"],
        precision=http["precision"],
        recall=http["recall"],
        peak_rss=peak_rss,
        ok_ratio=1 - failed / attempted,
    )
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    emit(args, env, removed_env, result,
         {**http, "failed_ratio": failed / attempted, "server_stats": stats})


def _run_traced(args, env, removed_env, threads: int) -> None:
    from repro import kernels

    layers = Layers()
    with layers.traced(), layers.tracer.span("setup"):
        service = Service(args.seed, args.seconds)
    try:
        http = _http_run(service, threads, args.seconds)
        stats = service.stats()
        layers.fit(service.model, service.source, service.target)
        plan = service.plan
        count = REPLAY_REQUESTS
        started = time.perf_counter()
        layers.checks["untraced_replay_matches"] = replay(
            plan, service.models, MODEL, count)[0]
        untraced_s = time.perf_counter() - started
        started = time.perf_counter()
        joined = layers.serve(plan, service.models, MODEL, count)
        traced_s = time.perf_counter() - started
        python_tracer = Tracer()
        with kernels.use_tier("python"), layers.traced(python_tracer):
            layers.checks["python_tier_replay_matches"] = replay(
                plan, service.models, MODEL, count, python_tracer)[0]
        layers.join(layers.serve_tracer, python_tracer, statistics.median(joined))
        http_overhead_ms = _http_overhead_ms(layers, service)
    finally:
        service.close()

    layers.checks["http_run_matches"] = http["failed"] == 0 and service.warmup_ok
    registry = stats["engine"]["registry"]["target_index_cache"]
    batcher = stats["engine"]["micro_batcher"]
    # The HTTP run's own figures: queueing and coalescing happen only there.
    served = {
        "serve.http_overhead_ms": http_overhead_ms,
        "serve.index_cache_hit_ratio": registry["hit_ratio"],
        "serve.index_cache_evictions": registry["evictions"],
        "serve.coalesced_share": batcher["coalesced_requests"] / batcher["requests"],
        "serve.peak_queued": stats["admission"]["peak_queued"],
        "serve.shed": stats["resilience"]["shed"],
        "serve.deadline_exceeded": stats["resilience"]["deadline_exceeded"],
        "serve.gen_late_p99_ms": http["gen_late_p99_ms"],
        "serve.req_p50_ms": http["req_p50_ms"],
        "serve.req_p99_ms": http["req_p99_ms"],
        "serve.capacity_rps": http["capacity_rps"],
    }
    for name, value in served.items():
        print(f"  {name:<34} {value:>16.6g} (HTTP run, recorded)")
    layers.details.update({"http": http, "http_figures": served, "server_stats": stats,
                           "replayed_requests": count, "untraced_replay_s": untraced_s,
                           "traced_replay_s": traced_s})
    finish_traced(args, env, removed_env, layers)


def _http_overhead_ms(layers: Layers, service: Service) -> float:
    """Serial HTTP round trip of hot requests minus their in-process engine span."""
    plan = service.plan
    hot = [index for index in range(REPLAY_REQUESTS)
           if not plan.cold[index]][:SERIAL_REQUESTS]
    round_trips = []
    ok = True
    client = loadgen._Client("127.0.0.1", service.port, f"/join/{MODEL}")
    try:
        for index in hot:
            started = time.perf_counter()
            status, body = client.post(plan.bodies[index])
            round_trips.append(time.perf_counter() - started)
            ok = ok and plan.check(index, status, body)
    finally:
        client.close()
    layers.checks["serial_http_matches"] = ok
    hot_ids = set(hot)
    engine = [span.seconds for span in layers.serve_tracer.spans
              if span.name == "serve.engine_join" and span.request_id in hot_ids]
    return (statistics.median(round_trips) - statistics.median(engine)) * 1e3
