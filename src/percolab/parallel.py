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
from functools import partial


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


def _collect(outcomes) -> ParallelRun:
    """The results of ``outcomes`` in index order, up to the first failure,
    consuming nothing past it."""
    results = []
    for ok, payload in outcomes:
        if not ok:
            return ParallelRun(results=results, partial=True, error=payload)
        results.append(payload)
    return ParallelRun(results=results, partial=False, error=None)


def workers_used(workers: int | None, n_tasks: int) -> int:
    """The processes that evaluate ``n_tasks`` tasks when ``workers`` are
    asked for (None or 0: one per CPU); 1 is the calling process alone."""
    workers = workers or multiprocessing.cpu_count()
    return workers if n_tasks > 1 else 1


def run_parallel(fn, n_tasks: int, workers: int | None = None) -> ParallelRun:
    """Evaluate fn(0..n_tasks-1) in index order, stopping at the first
    failure, in :func:`workers_used` processes."""
    workers = workers_used(workers, n_tasks)
    if workers <= 1:
        return _collect(_wrap(fn, i) for i in range(n_tasks))
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, n_tasks // (workers * 8))
    with ctx.Pool(workers) as pool:
        # consumed inside the block: leaving it at a failure terminates the
        # workers, so chunks past the failure are not evaluated
        return _collect(pool.imap(partial(_wrap, fn), range(n_tasks), chunksize=chunk))
