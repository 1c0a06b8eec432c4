"""``serve-2k``: the online lookup path through ``repro serve``.

Set-up builds a warehouse from |R| = 2 000 Customer tuples on disk, then
starts ``repro serve --workers 2`` in its own process and waits until it
answers ``ping`` with ``serving``; this is done three times and the median
is reported, the last server staying up.  The load is one process with
two connections:

- open loop: requests fall due on a fixed schedule below the knee, drawn
  with a skew from a pool of distinct D2 inputs, so the server's
  cross-query caches see repeats.  Each request is timed from when it was
  due, so a stall also charges the requests queued behind it;
- closed loop: each connection sends its next request as soon as the
  previous one is answered.

The two phases alternate in SEGMENTS slices, so both spread over the
whole run and a slow spell of the host weighs on both alike.

The end-to-end latencies are those of the closed loop, each request timed
from send to answer.  The open loop's, timed from when each request was
due, are per-layer figures (``serve.open_p50_ms``, ``serve.open_p99_ms``):
over ten seeds the quartiles of the open-loop p99 spread by up to 53% of
the median and those of p50 by up to 27%, with no relation to the inputs'
in-process costs — a heavy request caught by a slow spell of the host
also delays the requests due behind it — while the closed loop's spread
by at most 20%, as the in-process workloads' do.

Every response must be ``completed`` (anything else counts as failed) and
its matches pass the same checks as the in-process workloads.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from common import (
    COLUMNS,
    CONFIG,
    SRC,
    AnswerOracle,
    Outcome,
    build_warehouse,
    dirty_inputs,
    make_rows,
    mean,
    overhead_pct,
    percentile,
    quality_metrics,
    ratio,
    remove_dir,
    work_dir,
)
from layers import read_path_metrics

from repro.core.weights import build_frequency_cache
from repro.serve.client import ServeClient

HERE = Path(__file__).resolve().parent
REFERENCE_SIZE = 2_000
# The warehouse is the same for every seed; the seed draws the traffic.
# At |R| = 2 000 the generated relation alone moved mean query cost by
# about 15% from seed to seed.
WAREHOUSE_SEED = 2003
SETUPS = 3
CONNECTIONS = 2  # closed loop; the open loop uses one (see open_loop)
# Most of the warehouse's tuples appear as inputs: about one input in ten
# costs over 10 ms, and with 700 inputs how many of them a seed drew moved
# p99 by a quarter from seed to seed.
POOL_INPUTS = 1_500
HOT_INPUTS = 150  # requested HOT_REPEATS times per phase; the rest once
HOT_REPEATS = 3
RATE = 60.0  # open-loop requests per second, below the knee
SEGMENTS = 6  # open- and closed-loop slices per round
SPIN_S = 0.001  # the generator sleeps until this long before a request is due, then spins
NAIVE_SAMPLE = 4  # pool inputs checked against a full scan
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int
    log: Any


def start_server(path: str, directory: str, totals: str | None) -> Server:
    """Start ``repro serve`` (wrapped by ``serve_traced.py`` when tracing)."""
    port_file = os.path.join(directory, "port")
    if os.path.exists(port_file):
        os.remove(port_file)
    entry = [str(HERE / "serve_traced.py"), totals] if totals else ["-m", "repro"]
    command = [
        sys.executable, *entry, "serve", "--db", path,
        "--workers", str(CONNECTIONS), "--port-file", port_file,
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log = open(os.path.join(directory, "server.log"), "ab")
    process = subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT)
    server = Server(process, "", 0, log)
    try:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not os.path.exists(port_file):
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not bind (exit {process.poll()})")
            time.sleep(0.005)
        with open(port_file) as handle:
            host, port = handle.read().split()
        server.host, server.port = host, int(port)
        with ServeClient(server.host, server.port, timeout_s=READY_TIMEOUT_S) as client:
            while client.ping().get("state") != "serving":
                if process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("server did not become ready")
                time.sleep(0.005)
    except BaseException:
        stop_server(server)
        raise
    return server


def stop_server(server: Server) -> None:
    """SIGTERM (graceful drain and checkpoint), then wait; kill if it hangs."""
    process = server.process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    server.log.close()


@dataclass
class Load:
    """The seeded request stream: one multiset of picks, shuffled per phase.

    ``open_segments[s]`` are the open-loop picks of slice ``s`` and
    ``closed_segments[s][c]`` those connection ``c`` sends in that slice.
    """

    pool: list[Any]
    open_segments: list[list[int]]
    closed_segments: list[list[list[int]]]


def make_load(rows: Sequence[tuple[int, tuple]], seed: int) -> Load:
    """A skewed mix with fixed multiplicities.

    A tenth of the distinct inputs take a quarter of the requests.  The
    counts are fixed rather than drawn, so seeds differ only in which
    inputs are hot and in the order: with heavy-tailed per-input cost, a
    drawn Zipf mix let one hot input set a run's throughput.
    """
    pool = dirty_inputs(rows, POOL_INPUTS, seed + 1)
    rng = random.Random(seed + 3)
    picks = [
        position
        for position in range(POOL_INPUTS)
        for _ in range(HOT_REPEATS if position < HOT_INPUTS else 1)
    ]
    open_picks = rng.sample(picks, len(picks))
    closed_picks = rng.sample(picks, len(picks))
    bounds = [len(picks) * segment // SEGMENTS for segment in range(SEGMENTS + 1)]
    slices = list(zip(bounds, bounds[1:]))
    open_segments = [open_picks[low:high] for low, high in slices]
    closed_segments = [
        [closed_picks[low:high][slot::CONNECTIONS] for slot in range(CONNECTIONS)]
        for low, high in slices
    ]
    return Load(pool, open_segments, closed_segments)


@dataclass
class Exchange:
    pick: int
    due: float
    sent: float
    done: float
    response: dict


def open_loop(server: Server, pool: Sequence[Any], picks: Sequence[int]) -> list[Exchange]:
    """The ``picks`` as requests due every 1/RATE s, over one connection.

    A request that falls due while the previous one is outstanding is
    sent as soon as it returns and is still timed from when it was due.
    One connection keeps two requests from sharing the server's
    interpreter lock, which made the median swing with how often a cheap
    request overlapped a heavy one.
    """
    exchanges: list[Exchange] = []
    start = time.perf_counter() + 0.05
    with ServeClient(server.host, server.port) as client:
        for index, pick in enumerate(picks):
            due = start + index / RATE
            delay = due - SPIN_S - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            while time.perf_counter() < due:
                pass
            sent = time.perf_counter()
            response = client.match(pool[pick].values)
            exchanges.append(Exchange(pick, due, sent, time.perf_counter(), response))
    return exchanges


def closed_loop(
    server: Server, pool: Sequence[Any], picks: Sequence[Sequence[int]]
) -> tuple[list[Exchange], float]:
    """Connection ``c`` sends ``picks[c]`` back to back; returns wall seconds."""
    results: list[list[Exchange]] = [[] for _ in range(CONNECTIONS)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(CONNECTIONS)

    def worker(slot: int) -> None:
        try:
            with ServeClient(server.host, server.port) as client:
                barrier.wait()
                for pick in picks[slot]:
                    sent = time.perf_counter()
                    response = client.match(pool[pick].values)
                    results[slot].append(Exchange(pick, sent, sent, time.perf_counter(), response))
        except BaseException as exc:  # re-raised in the caller's thread
            barrier.abort()
            errors.append(exc)

    started = time.perf_counter()
    run_threads(worker)
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return [exchange for slot in results for exchange in slot], wall


def run_threads(target: Any) -> None:
    threads = [threading.Thread(target=target, args=(slot,)) for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def engine_seconds(server: Server) -> tuple[float, int]:
    """Summed ``repro_match_seconds`` (sum, count) from the stats op."""
    with ServeClient(server.host, server.port) as client:
        payload = client.stats(["metrics"])
    total, count = 0.0, 0
    for series in payload["metrics"]["histograms"]:
        if series["name"] == "repro_match_seconds":
            total += series["sum"]
            count += series["count"]
    return total, count


def check(oracle: AnswerOracle, load: Load, exchanges: Sequence[Exchange]) -> int:
    """Check every response; returns how many were not ``completed``."""
    failed = 0
    first_answer: dict[int, list[tuple[int, float]]] = {}
    for number, exchange in enumerate(exchanges):
        response = exchange.response
        dirty = load.pool[exchange.pick]
        if response.get("outcome") != "completed":
            failed += 1
            continue
        got = [(m["tid"], m["similarity"], m["values"]) for m in response["matches"]]
        oracle.check(dirty.values, got, f"request {number}")
        if exchange.pick not in first_answer:
            first_answer[exchange.pick] = [(tid, sim) for tid, sim, _ in got]
            oracle.check_seed(dirty.values, got[0][1] if got else None, dirty.target_tid)
    for pick in sorted(first_answer)[:NAIVE_SAMPLE]:
        oracle.check_naive(load.pool[pick].values, first_answer[pick])
    return failed


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    root = work_dir()
    servers: list[Server] = []
    try:
        setups = []
        for attempt in range(SETUPS):
            directory = os.path.join(root, f"setup{attempt}")
            os.mkdir(directory)
            if servers:
                stop_server(servers.pop())
            started = time.perf_counter()
            rows = make_rows(REFERENCE_SIZE, WAREHOUSE_SEED)
            path = os.path.join(directory, "warehouse.pages")
            figures, size = build_warehouse(rows, path)
            servers.append(start_server(path, directory, None))
            setups.append(time.perf_counter() - started)
        load = make_load(rows, seed)
        untraced: list[Exchange] = []
        totals_path = None
        if trace:
            untraced = open_loop(servers[0], load.pool, load.open_segments[0])
            stop_server(servers.pop())
            totals_path = os.path.join(directory, "totals.json")
            servers.append(start_server(path, directory, totals_path))
        server = servers[0]

        opened, closed, closed_wall = [], [], 0.0
        engine = [0.0, 0]
        started = time.perf_counter()
        while True:
            for open_picks, closed_picks in zip(load.open_segments, load.closed_segments):
                before = engine_seconds(server)
                opened += open_loop(server, load.pool, open_picks)
                after = engine_seconds(server)
                engine[0] += after[0] - before[0]
                engine[1] += after[1] - before[1]
                batch, wall = closed_loop(server, load.pool, closed_picks)
                closed += batch
                closed_wall += wall
            if time.perf_counter() - started >= seconds:
                break
        stop_server(servers.pop())
        layer_totals = None
        if totals_path is not None:
            with open(totals_path) as handle:
                layer_totals = json.load(handle)
    finally:
        for server in servers:
            stop_server(server)
        remove_dir(root)

    oracle = AnswerOracle(dict(rows), build_frequency_cache((v for _, v in rows), len(COLUMNS)))
    failed = check(oracle, load, opened + closed)
    latencies = [exchange.done - exchange.sent for exchange in closed]
    due_latencies = [exchange.done - exchange.due for exchange in opened]
    service = [exchange.done - exchange.sent for exchange in opened]
    waits = [exchange.response.get("queue_wait_ms", 0.0) for exchange in opened]
    engine_ms = ratio(engine[0], engine[1]) * 1000.0
    end_to_end = {
        "setup_s": statistics.median(setups),
        "eti_bytes": float(size),
        "match_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "match_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "match_qps": len(closed) / closed_wall,
    }
    per_layer = dict(figures.metrics())
    per_layer.update(quality_metrics(oracle.tally))
    per_layer.update(
        {
            "serve.open_p50_ms": percentile(due_latencies, 0.50) * 1000.0,
            "serve.open_p99_ms": percentile(due_latencies, 0.99) * 1000.0,
            "serve.queue_wait_p50_ms": percentile(waits, 0.50),
            "serve.queue_wait_p99_ms": percentile(waits, 0.99),
            "serve.engine_ms_per_request": engine_ms,
            "serve.wire_ms_per_request": mean(service) * 1000.0 - mean(waits) - engine_ms,
            "serve.generator_late_p99_ms": percentile(
                [exchange.sent - exchange.due for exchange in opened], 0.99
            ) * 1000.0,
        }
    )
    if layer_totals is not None:
        per_layer.update(
            read_path_metrics(
                layer_totals["totals"],
                layer_totals["queries"],
                layer_totals["match_seconds"],
                layer_totals["stats"],
                layer_totals["kernel_cells"],
            )
        )
        per_layer["trace.overhead_pct"] = overhead_pct(
            service, [exchange.done - exchange.sent for exchange in untraced]
        )
    notes = [
        f"|R|={REFERENCE_SIZE} open={len(opened)} at {RATE:g}/s closed={len(closed)} "
        f"setups_s={[round(s, 3) for s in setups]}",
    ]
    if failed:
        notes.append(f"{failed} responses were not completed")
    attempted = len(opened) + len(closed)
    return Outcome(attempted, failed, oracle.tally.problems, end_to_end, per_layer, notes)
