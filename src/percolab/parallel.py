"""Order-independent parallel replicate execution.

Replicates are pure functions of their index (seeds are derived per index),
so the outcomes of a pool, which come back in index order, are identical to
those of a serial loop for any worker count. A failed replicate ends the
run: ``results`` keeps the replicates below the first failure, and the
caller raises on a partial run (``estimators._run_all``), so a failed
replicate never leaves an output file.

Indices may be evaluated in blocks of consecutive ones, one task per
block, so that one call can share work among them (the estimators grow a
block's balls as the lanes of one growth). A block function yields its
indices' results in order, and an exception raised while it produces the
result of index i is the failure of index i. Each result is still a
function of its index alone, so the results do not depend on the block
size either. A run of one block runs in the calling process.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial


@dataclass
class ParallelRun:
    results: list  # per-index results, truncated at the first failure
    partial: bool
    error: str | None  # the first failure, as "ExceptionType: message"


_tallies: list = []  # the open tallies of processes_tally


@contextmanager
def processes_tally():
    """A list that receives the processes of every :func:`run_parallel`
    call made inside the ``with`` block."""
    tally = []
    _tallies.append(tally)
    try:
        yield tally
    finally:
        _tallies.remove(tally)


def _run_block(fn, block: int, n_tasks: int, start: int):
    """(results, failure) of the indices start .. start + block - 1 below
    n_tasks: the results before the first failure, and that failure as
    "ExceptionType: message" (None when there is none)."""
    results = []
    try:
        for result in fn(range(start, min(start + block, n_tasks))):
            results.append(result)
    except Exception as exc:  # noqa: BLE001 - repackaged for the caller
        return results, f"{type(exc).__name__}: {exc}"
    return results, None


def _collect(outcomes) -> ParallelRun:
    """The results of ``outcomes``, blocks in index order, up to the first
    failure, consuming nothing past it."""
    results = []
    for done, error in outcomes:
        results.extend(done)
        if error is not None:
            return ParallelRun(results=results, partial=True, error=error)
    return ParallelRun(results=results, partial=False, error=None)


def workers_used(workers: int | None, n_tasks: int) -> int:
    """The processes, at most one per task, that evaluate ``n_tasks`` tasks
    for ``workers`` (None or 0: one per CPU); 1 is the calling process."""
    workers = workers or multiprocessing.cpu_count()
    return min(workers, n_tasks)


def run_parallel(
    fn, n_tasks: int, workers: int | None = None, block: int | None = None
) -> ParallelRun:
    """Evaluate indices 0..n_tasks-1 in index order, stopping at the first
    failure, in :func:`workers_used` processes of the number of blocks.

    With ``block`` None, ``fn(index)`` is one index's result. Otherwise
    ``fn(indices)`` yields the results of a range of at most ``block``
    consecutive indices, in order.
    """
    if block is None:
        fn, block = partial(map, fn), 1
    n_blocks = -(-n_tasks // block)
    workers = workers_used(workers, n_blocks)
    for tally in _tallies:
        tally.append(workers)
    starts = range(0, n_tasks, block)
    task = partial(_run_block, fn, block, n_tasks)
    if workers <= 1:
        return _collect(map(task, starts))
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, n_blocks // (workers * 8))
    with ctx.Pool(workers) as pool:
        # consumed inside the block: leaving it at a failure terminates the
        # workers, so chunks past the failure are not evaluated
        return _collect(pool.imap(task, starts, chunksize=chunk))
