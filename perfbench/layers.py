"""Per-layer timing from outside the program.

:class:`LayerTracer` replaces public functions of each layer with wrappers
that count calls and accumulate inclusive and *self* time (a call's time
minus the time of wrapped calls it made).  Nothing under ``src/`` changes:
the wrappers are installed on the imported classes and on the matcher
module's names, and :meth:`LayerTracer.restore` puts the originals back.
Each thread keeps its own stack and totals, so the serve workers' calls
never share a counter.

Wrapped (``layer name``: function):

- ``signature``: ``repro.core.matcher.signature_entries_cached``
- ``eti.lookup``: ``EtiIndex.lookup``
- ``candidates.add`` / ``candidates.select``: ``ScoreTable.add_tid_list``
  / ``ScoreTable.candidates``
- ``osc.fetching_test`` / ``osc.stopping_test``: the matcher module's
  ``fetching_test`` / ``stopping_test``
- ``reference.fetch``: ``ReferenceTable.fetch``
- ``verify``: the matcher module's ``fms_budgeted``
- ``wal.append`` / ``wal.sync``: ``WalFile.append`` / ``WalFile.sync``

``EtiMaintainer`` mutations and the checkpoint (``save_database``) are
timed around the benchmark's own calls instead: ``update_tuple`` runs a
delete and an insert inside, so per-call wrappers would count it twice.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

from repro.core import matcher as matcher_module
from repro.core.candidates import ScoreTable
from repro.core.reference import ReferenceTable
from repro.db.wal import WalFile
from repro.eti.index import EtiIndex

# Layers whose self time is spent inside FuzzyMatcher.match.
READ_LAYERS = (
    "signature",
    "eti.lookup",
    "candidates.add",
    "candidates.select",
    "osc.fetching_test",
    "osc.stopping_test",
    "reference.fetch",
    "verify",
)


def _lookup_tids(_args: tuple, result: Any) -> int:
    return len(result.tid_list) if result is not None and result.tid_list else 0


def _pruned(_args: tuple, result: Any) -> int:
    return 1 if result[1] else 0


def _entries(_args: tuple, result: Any) -> int:
    return len(result)


# (owner, attribute, layer name, per-call item counter or None)
TARGETS: tuple[tuple[Any, str, str, Callable[[tuple, Any], int] | None], ...] = (
    (matcher_module, "signature_entries_cached", "signature", _entries),
    (EtiIndex, "lookup", "eti.lookup", _lookup_tids),
    (ScoreTable, "add_tid_list", "candidates.add", None),
    (ScoreTable, "candidates", "candidates.select", None),
    (matcher_module, "fetching_test", "osc.fetching_test", None),
    (matcher_module, "stopping_test", "osc.stopping_test", None),
    (ReferenceTable, "fetch", "reference.fetch", None),
    (matcher_module, "fms_budgeted", "verify", _pruned),
    (WalFile, "append", "wal.append", None),
    (WalFile, "sync", "wal.sync", None),
)


class LayerTotals:
    """Calls, inclusive seconds, self seconds and counted items of a layer."""

    __slots__ = ("calls", "seconds", "self_seconds", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.items = 0


class LayerTracer:
    """Installs the wrappers and sums what they measure."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict[str, LayerTotals]] = []
        self._lock = threading.Lock()
        self._originals: list[tuple[Any, str, Any]] = []

    def _thread_state(self) -> tuple[dict[str, LayerTotals], list[float]]:
        local = self._local
        table = getattr(local, "table", None)
        if table is None:
            table = local.table = {}
            local.stack = []
            with self._lock:
                self._tables.append(table)
        return table, local.stack

    def wrap(
        self, name: str, fn: Callable[..., Any], count: Callable[[tuple, Any], int] | None
    ) -> Callable[..., Any]:
        state = self._thread_state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            table, stack = state()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals = table.get(name)
                if totals is None:
                    totals = table[name] = LayerTotals()
                totals.calls += 1
                totals.seconds += elapsed
                totals.self_seconds += elapsed - child
            if count is not None:
                totals.items += count(args, result)
            return result

        return wrapper

    def install(self) -> "LayerTracer":
        for owner, attribute, name, count in TARGETS:
            original = vars(owner)[attribute]  # unbound, for classes too
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original, count))
        return self

    def restore(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def totals(self) -> dict[str, LayerTotals]:
        """Sums over every thread that ran a wrapped call."""
        merged: dict[str, LayerTotals] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, part in table.items():
                total = merged.setdefault(name, LayerTotals())
                total.calls += part.calls
                total.seconds += part.seconds
                total.self_seconds += part.self_seconds
                total.items += part.items
        return merged

    def as_dict(self) -> dict[str, list[float]]:
        return {
            name: [t.calls, t.seconds, t.self_seconds, t.items]
            for name, t in sorted(self.totals().items())
        }


def read_path_metrics(
    totals: dict[str, list[float]],
    queries: int,
    match_seconds: float,
    stats: dict[str, float],
    kernel_cells: int,
) -> dict[str, float]:
    """Per-query metrics of the match path from wrapper totals.

    ``totals`` is :meth:`LayerTracer.as_dict` output, ``match_seconds`` the
    summed wall time of the ``queries`` match calls, ``stats`` sums of the
    :class:`~repro.core.matcher.MatchStats` fields named below and
    ``kernel_cells`` the edit-distance kernels' DP cells over the same calls.
    """

    def layer(name: str) -> list[float]:
        return totals.get(name, [0, 0.0, 0.0, 0])

    def per_query(value: float) -> float:
        return value / queries if queries else 0.0

    def ms(name: str) -> float:
        return per_query(layer(name)[2] * 1000.0)

    lookups = layer("eti.lookup")
    verify = layer("verify")
    accounted = sum(layer(name)[2] for name in READ_LAYERS)
    hits = stats.get("reference_cache_hits", 0)
    misses = stats.get("reference_cache_misses", 0)
    return {
        "signature.ms_per_query": ms("signature"),
        "signature.entries_per_query": per_query(layer("signature")[3]),
        "eti.lookups_per_query": per_query(lookups[0]),
        "eti.lookup_ms_per_query": ms("eti.lookup"),
        "eti.tids_per_lookup": lookups[3] / lookups[0] if lookups[0] else 0.0,
        "candidates.ms_per_query": ms("candidates.add") + ms("candidates.select"),
        "candidates.tids_processed_per_query": per_query(stats.get("tids_processed", 0)),
        "osc.tests_ms_per_query": ms("osc.fetching_test") + ms("osc.stopping_test"),
        "osc.success_per_attempt": (
            stats.get("osc_succeeded", 0) / stats["osc_fetch_attempts"]
            if stats.get("osc_fetch_attempts")
            else 0.0
        ),
        "reference.fetches_per_query": per_query(layer("reference.fetch")[0]),
        "reference.fetch_ms_per_query": ms("reference.fetch"),
        "cache.reference_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "verify.calls_per_query": per_query(verify[0]),
        "verify.ms_per_query": ms("verify"),
        "verify.pruned_per_call": verify[3] / verify[0] if verify[0] else 0.0,
        "verify.kernel_cells_per_query": per_query(kernel_cells),
        "matcher.other_ms_per_query": per_query((match_seconds - accounted) * 1000.0),
    }


STAT_FIELDS = (
    "tids_processed",
    "osc_fetch_attempts",
    "osc_succeeded",
    "reference_cache_hits",
    "reference_cache_misses",
)


def add_stats(sums: dict[str, float], stats: Any) -> None:
    """Fold one query's :class:`MatchStats` into ``sums``."""
    for name in STAT_FIELDS:
        sums[name] = sums.get(name, 0) + int(getattr(stats, name))


def kernel_cells() -> int:
    """DP cells the edit-distance kernels have filled so far (classic + banded)."""
    from repro.core.kernels import COUNTERS

    return COUNTERS.classic_cells + COUNTERS.banded_cells
