"""Shared pieces of the benchmark: program import, inputs, statistics, checks.

Every workload module imports the program through :func:`load_program`,
draws its inputs from the ``--seed`` the benchmark was given, and checks
each answer with :class:`AnswerOracle`, which recomputes similarities with
:func:`repro.core.fms.fms` over rows the benchmark tracks itself — never
through the ETI, the matcher's caches or the budgeted verifier.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def load_program() -> None:
    """Put the checkout's ``src`` on the import path, or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


load_program()

from repro.core.config import MatchConfig  # noqa: E402
from repro.core.fms import fms  # noqa: E402
from repro.core.reference import ReferenceTable  # noqa: E402
from repro.data.datasets import DatasetSpec, DirtyTuple, make_dataset  # noqa: E402
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.page import PAGE_SIZE  # noqa: E402
from repro.db.snapshot import save_database  # noqa: E402
from repro.eti.builder import build_eti  # noqa: E402

# The paper's configuration (§6.1): q = 4, H = 2, K = 1, c = 0, with OSC.
CONFIG = MatchConfig(q=4, signature_size=2, k=1, min_similarity=0.0, use_osc=True)
COLUMNS = list(CUSTOMER_COLUMNS)

Row = tuple[str | None, ...]


def make_rows(count: int, seed: int) -> list[tuple[int, Row]]:
    """``count`` distinct synthetic Customer tuples, tids 0..count-1."""
    return [(c.tid, c.values) for c in generate_customers(count, seed=seed, unique=True)]


def dirty_inputs(
    rows: Sequence[tuple[int, Row]], count: int, seed: int
) -> list[DirtyTuple]:
    """``count`` distinct D2-preset dirty inputs drawn from ``rows``.

    Corruption rarely maps two seed tuples to the same dirty values; such
    repeats are dropped so every input is distinct.
    """
    dataset = make_dataset(rows, DatasetSpec.preset("D2"), min(len(rows), count + 16), seed=seed)
    seen: set[Row] = set()
    out: list[DirtyTuple] = []
    for dirty in dataset.inputs:
        if dirty.values not in seen:
            seen.add(dirty.values)
            out.append(dirty)
        if len(out) == count:
            return out
    raise SystemExit(f"perfbench: only {len(out)} distinct inputs of {count}")


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: with n >= 10 / (1 - share) samples at
    least ten lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def eti_bytes(relation: Any) -> int:
    """Bytes of the pages holding the ETI relation's rows."""
    return relation.num_pages * PAGE_SIZE


def work_dir() -> str:
    """A fresh scratch directory inside the checkout (removed by caller)."""
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=f"run{os.getpid()}_", dir=WORK)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only succeeds once no other run is using it
    except OSError:
        pass


@dataclass
class CheckTally:
    """Outcome of the answer checks over one run."""

    problems: list[str] = field(default_factory=list)
    below_seed: int = 0
    seed_checked: int = 0
    naive_checked: int = 0
    naive_mismatch: int = 0

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
        else:
            self.problems[-1] = f"... and more ({message})"


class AnswerOracle:
    """Checks answers against rows the benchmark tracks itself.

    ``rows`` maps tid -> values for the live reference relation (the
    caller keeps it current under churn) and ``weights`` is the raw IDF
    frequency cache — no memo, no budget, no index in between.
    """

    def __init__(self, rows: dict[int, Row], weights: Any, config: MatchConfig = CONFIG):
        self.rows = rows
        self.weights = weights
        self.config = config
        self.tally = CheckTally()

    def similarity(self, values: Sequence[str | None], tid: int) -> float:
        return fms(values, self.rows[tid], self.weights, self.config)

    def check(
        self,
        values: Sequence[str | None],
        matches: Sequence[tuple[int, float, Sequence[str | None]]],
        label: str,
    ) -> bool:
        """Structural and exact-similarity checks of one answer.

        ``matches`` are ``(tid, similarity, values)`` as returned.  Returns
        False (and records why) on the first broken property.
        """
        tally = self.tally
        config = self.config
        if len(matches) > config.k:
            tally.fail(f"{label}: {len(matches)} matches for K={config.k}")
            return False
        keys = [(-sim, tid) for tid, sim, _ in matches]
        if keys != sorted(keys) or len({tid for tid, _, _ in matches}) != len(matches):
            tally.fail(f"{label}: matches not sorted by (-similarity, tid) or duplicated")
            return False
        for tid, sim, row in matches:
            if sim < config.min_similarity:
                tally.fail(f"{label}: similarity {sim} below c")
                return False
            if tid not in self.rows:
                tally.fail(f"{label}: returned tid {tid} is not a live reference tuple")
                return False
            if tuple(row) != self.rows[tid]:
                tally.fail(f"{label}: tid {tid} returned stale values {tuple(row)}")
                return False
            expected = self.similarity(values, tid)
            if sim != expected:
                tally.fail(f"{label}: tid {tid} similarity {sim!r} != fms {expected!r}")
                return False
        return True

    def check_seed(
        self, values: Sequence[str | None], best: float | None, seed_tid: int
    ) -> None:
        """Count answers whose best similarity is below the seed tuple's fms.

        The paper's permissive OSC stopping test may stop on a non-optimal
        tuple, so this is measured, not counted as a failed operation.
        """
        if seed_tid not in self.rows:
            return
        self.tally.seed_checked += 1
        if best is None or best < self.similarity(values, seed_tid):
            self.tally.below_seed += 1

    def naive_top(self, values: Sequence[str | None]) -> list[tuple[int, float]]:
        """The exact top-K by a full scan with :func:`fms`."""
        scored = [(-self.similarity(values, tid), tid) for tid in self.rows]
        best = sorted(scored)[: self.config.k]
        return [
            (tid, -neg) for neg, tid in best if -neg >= self.config.min_similarity
        ]

    def check_naive(
        self, values: Sequence[str | None], got: Sequence[tuple[int, float]]
    ) -> None:
        """Compare one answer with the naive top-K (measured, see above)."""
        self.tally.naive_checked += 1
        if list(got) != self.naive_top(values):
            self.tally.naive_mismatch += 1


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    problems: list[str]
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    notes: list[str] = field(default_factory=list)


@dataclass
class BuildFigures:
    """Set-up figures a workload reports as ``build.*`` layer metrics."""

    load_s: float
    eti_s: float
    eti_rows: int
    max_tid_list: int

    def metrics(self) -> dict[str, float]:
        return {
            "build.load_s": self.load_s,
            "build.eti_s": self.eti_s,
            "build.eti_rows": float(self.eti_rows),
            "build.max_tid_list": float(self.max_tid_list),
        }


def overhead_pct(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Extra time of traced calls over the same untraced calls, in percent."""
    count = min(len(traced), len(untraced))
    base = sum(untraced[:count])
    return (sum(traced[:count]) / base - 1.0) * 100.0 if base else 0.0


def quality_metrics(tally: CheckTally) -> dict[str, float]:
    """The OSC optimality figures every traced run reports."""
    return {
        "osc.below_seed_share": ratio(tally.below_seed, tally.seed_checked),
        "osc.naive_mismatch_share": ratio(tally.naive_mismatch, tally.naive_checked),
    }


def build_warehouse(rows: Sequence[tuple[int, Row]], path: str) -> tuple[BuildFigures, int]:
    """Load ``rows`` and build the ETI in an on-disk WAL database, checkpoint, close.

    Returns the build figures and the ETI's bytes.
    """
    db = Database.on_disk(path)
    loading = time.perf_counter()
    with db.transaction():
        reference = ReferenceTable(db, "reference", COLUMNS)
        reference.load(rows)
        building = time.perf_counter()
        eti, stats = build_eti(db, reference, CONFIG)
    built = time.perf_counter()
    size = eti_bytes(eti.relation)
    save_database(db)
    db.close()
    figures = BuildFigures(building - loading, built - building, stats.eti_rows, stats.max_tid_list)
    return figures, size
