"""``match-15k``: the paper's query path at |R| = 15 000.

Set-up generates the Customer relation, loads it into an in-memory
database and builds the ETI with the paper's configuration.  One caller
then runs a closed loop of ``FuzzyMatcher.match`` over 1 000 distinct
D2 inputs, after warming the cross-query caches on 100 other inputs.
Serving and the storage write path stay idle.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Sequence

from common import (
    COLUMNS,
    CONFIG,
    AnswerOracle,
    BuildFigures,
    Outcome,
    dirty_inputs,
    eti_bytes,
    make_rows,
    mean,
    overhead_pct,
    percentile,
    quality_metrics,
    ratio,
)
from layers import LayerTracer, add_stats, kernel_cells, read_path_metrics

from repro.core.cache import MatcherCaches
from repro.core.matcher import FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.core.strings import clear_edit_distance_caches
from repro.core.weights import build_frequency_cache
from repro.data.datasets import DirtyTuple
from repro.db.database import Database
from repro.eti.builder import build_eti

REFERENCE_SIZE = 15_000
WARMUP_INPUTS = 50
MEASURED_INPUTS = 1_000
NAIVE_SAMPLE = (0, 500)  # positions in the measured inputs
OVERHEAD_PREFIX = 300  # queries timed both untraced and traced


@dataclass
class World:
    rows: dict[int, tuple]
    reference: ReferenceTable
    eti: Any
    weights: Any
    build: BuildFigures
    eti_bytes: int


def set_up(seed: int) -> tuple[World, float]:
    """Generate, load, build; returns the world and its set-up seconds."""
    started = time.perf_counter()
    rows = make_rows(REFERENCE_SIZE, seed)
    db = Database.in_memory()
    reference = ReferenceTable(db, "reference", COLUMNS)
    loading = time.perf_counter()
    reference.load(rows)
    building = time.perf_counter()
    eti, stats = build_eti(db, reference, CONFIG)
    built = time.perf_counter()
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    setup_s = time.perf_counter() - started
    figures = BuildFigures(building - loading, built - building, stats.eti_rows, stats.max_tid_list)
    world = World(dict(rows), reference, eti, weights, figures, eti_bytes(eti.relation))
    return world, setup_s


@dataclass
class Pass:
    latencies: list[float]
    results: list[Any]
    loop_s: float
    stats: dict[str, float]
    kernel_cells: int
    pool: tuple[int, int, int]


def run_pass(
    world: World,
    warmup: Sequence[DirtyTuple],
    measured: Sequence[DirtyTuple],
    seconds: float,
    tracer: LayerTracer | None = None,
) -> Pass:
    """Fresh caches, warm-up, then whole rounds over ``measured``."""
    clear_edit_distance_caches()
    gc.collect()  # start each pass without the previous one's garbage
    matcher = FuzzyMatcher(
        world.reference, world.weights, CONFIG, world.eti, caches=MatcherCaches()
    )
    for dirty in warmup:
        matcher.match(dirty.values)
    if tracer is not None:
        tracer.install()
    latencies: list[float] = []
    results: list[Any] = []
    stats: dict[str, float] = {}
    pool = world.reference.relation.heap.pool.stats
    pool_before = (pool.hits, pool.misses, pool.physical_reads)
    cells = kernel_cells()
    clock = time.perf_counter
    started = clock()
    try:
        while True:
            for dirty in measured:
                begin = clock()
                result = matcher.match(dirty.values)
                latencies.append(clock() - begin)
                results.append(result)
                add_stats(stats, result.stats)
            if clock() - started >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    loop_s = clock() - started
    pool_delta = (
        pool.hits - pool_before[0],
        pool.misses - pool_before[1],
        pool.physical_reads - pool_before[2],
    )
    return Pass(latencies, results, loop_s, stats, kernel_cells() - cells, pool_delta)


def check(world: World, measured: Sequence[DirtyTuple], results: Sequence[Any]) -> AnswerOracle:
    oracle = AnswerOracle(world.rows, world.weights)
    for position, (dirty, result) in enumerate(zip(measured, results)):
        got = [(m.tid, m.similarity, m.values) for m in result.matches]
        oracle.check(dirty.values, got, f"input {position}")
        oracle.check_seed(dirty.values, got[0][1] if got else None, dirty.target_tid)
    for position in NAIVE_SAMPLE:
        result = results[position]
        oracle.check_naive(
            measured[position].values, [(m.tid, m.similarity) for m in result.matches]
        )
    return oracle


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    world, setup_s = set_up(seed)
    inputs = dirty_inputs(list(world.rows.items()), WARMUP_INPUTS + MEASURED_INPUTS, seed + 1)
    warmup, measured = inputs[:WARMUP_INPUTS], inputs[WARMUP_INPUTS:]

    untraced = None
    tracer = None
    if trace:
        untraced = run_pass(world, warmup, measured[:OVERHEAD_PREFIX], 0.0)
        tracer = LayerTracer()
    timed = run_pass(world, warmup, measured, seconds, tracer)
    oracle = check(world, measured, timed.results)
    queries = len(timed.latencies)

    end_to_end = {
        "setup_s": setup_s,
        "eti_bytes": float(world.eti_bytes),
        "match_p50_ms": percentile(timed.latencies, 0.50) * 1000.0,
        "match_p99_ms": percentile(timed.latencies, 0.99) * 1000.0,
        "match_qps": queries / timed.loop_s,
    }
    per_layer = dict(world.build.metrics())
    per_layer.update(quality_metrics(oracle.tally))
    per_layer.update(
        {
            "pager.hits_per_op": ratio(timed.pool[0], queries),
            "pager.misses_per_op": ratio(timed.pool[1], queries),
            "pager.physical_reads_per_op": ratio(timed.pool[2], queries),
        }
    )
    if tracer is not None and untraced is not None:
        per_layer.update(
            read_path_metrics(
                tracer.as_dict(), queries, sum(timed.latencies), timed.stats, timed.kernel_cells
            )
        )
        per_layer["trace.overhead_pct"] = overhead_pct(timed.latencies, untraced.latencies)
    notes = [
        f"|R|={REFERENCE_SIZE} queries={queries} mean_ms={mean(timed.latencies) * 1000:.3f}",
    ]
    return Outcome(queries, 0, oracle.tally.problems, end_to_end, per_layer, notes)
