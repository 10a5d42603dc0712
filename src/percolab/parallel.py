"""Order-independent parallel replicate execution.

Replicates are pure functions of their index (seeds are derived per index),
so the outcomes of a pool, which come back in index order, are identical to
those of a serial loop for any worker count. A failed replicate ends the
run: ``results`` keeps the replicates below the first failure, and the
caller raises on a partial run (``estimators._run_all``), so a failed
replicate never leaves an output file.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass


@dataclass
class ParallelRun:
    results: list  # per-index results, truncated at the first failure
    partial: bool
    error: str | None  # the first failure, as "ExceptionType: message"


def _wrap(fn, idx):
    try:
        return True, fn(idx)
    except Exception as exc:  # noqa: BLE001 - repackaged for the caller
        return False, f"{type(exc).__name__}: {exc}"


def run_parallel(fn, n_tasks: int, workers: int | None = None) -> ParallelRun:
    """Evaluate fn(0..n_tasks-1) in index order, stopping at the first
    failure; ``workers`` None means one worker per CPU."""
    if workers is None:
        workers = multiprocessing.cpu_count()
    if workers <= 1 or n_tasks <= 1:
        # lazy, so the loop below runs nothing past the first failure
        outcomes = (_wrap(fn, i) for i in range(n_tasks))
    else:
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, n_tasks // (workers * 8))
        with ctx.Pool(workers) as pool:
            args = [(fn, i) for i in range(n_tasks)]
            outcomes = pool.starmap(_wrap, args, chunksize=chunk)

    results = []
    for ok, payload in outcomes:
        if not ok:
            return ParallelRun(results=results, partial=True, error=payload)
        results.append(payload)
    return ParallelRun(results=results, partial=False, error=None)
