"""``repro serve`` with the layer wrappers installed in the server process.

    python3 perfbench/serve_traced.py TOTALS.json serve --db PATH ...

Everything after the first argument goes to ``repro``'s command line.
When the server has drained and returned, the wrapper totals, the summed
``MatchStats`` of every ``FuzzyMatcher.match`` call with its wall time,
and the kernel DP cells are written to ``TOTALS.json`` for
``serve_wl.py`` to turn into per-query layer metrics.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402,F401  (puts the program on the import path)
from layers import LayerTracer, add_stats, kernel_cells  # noqa: E402

from repro import cli  # noqa: E402
from repro.core.matcher import FuzzyMatcher  # noqa: E402


def main() -> int:
    out = sys.argv[1]
    tracer = LayerTracer().install()
    lock = threading.Lock()
    sums: dict[str, float] = {}
    calls = [0, 0.0]
    original = FuzzyMatcher.__dict__["match"]

    def match(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        started = time.perf_counter()
        result = original(self, *args, **kwargs)
        elapsed = time.perf_counter() - started
        with lock:
            calls[0] += 1
            calls[1] += elapsed
            add_stats(sums, result.stats)
        return result

    FuzzyMatcher.match = match  # type: ignore[method-assign]
    cells = kernel_cells()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        FuzzyMatcher.match = original  # type: ignore[method-assign]
        tracer.restore()
        payload = {
            "totals": tracer.as_dict(),
            "stats": sums,
            "queries": calls[0],
            "match_seconds": calls[1],
            "kernel_cells": kernel_cells() - cells,
        }
        with open(out + ".tmp", "w") as handle:
            json.dump(payload, handle)
        Path(out + ".tmp").replace(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
