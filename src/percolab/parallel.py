"""Order-independent parallel replicate execution.

Replicates are pure functions of their index (seeds are derived per index),
so results can be merged in any order; outputs are re-sorted by index and
are therefore identical for any worker count. A failed replicate stops the
run: results with a smaller index than the first failure are kept and the
outcome is marked partial.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass


@dataclass
class ParallelRun:
    results: list  # per-index results, truncated at the first failure
    partial: bool
    first_failure: int | None
    error: str | None


def _wrap(fn, idx):
    try:
        return idx, True, fn(idx)
    except Exception as exc:  # noqa: BLE001 - repackaged for the caller
        return idx, False, f"{type(exc).__name__}: {exc}"


def run_parallel(fn, n_tasks: int, workers: int | None = None) -> ParallelRun:
    """Evaluate fn(0..n_tasks-1), merging results independently of order;
    ``workers`` None means one worker per CPU."""
    if workers is None:
        workers = multiprocessing.cpu_count()
    outcomes: dict[int, tuple[bool, object]] = {}
    if workers <= 1 or n_tasks <= 1:
        for i in range(n_tasks):
            idx, ok, payload = _wrap(fn, i)
            outcomes[idx] = (ok, payload)
            if not ok:
                break
    else:
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, n_tasks // (workers * 8))
        with ctx.Pool(workers) as pool:
            args = [(fn, i) for i in range(n_tasks)]
            for idx, ok, payload in pool.starmap(_wrap, args, chunksize=chunk):
                outcomes[idx] = (ok, payload)

    failures = sorted(i for i, (ok, _) in outcomes.items() if not ok)
    first_failure = failures[0] if failures else None
    horizon = first_failure if first_failure is not None else n_tasks
    results = [outcomes[i][1] for i in range(horizon) if i in outcomes]
    return ParallelRun(
        results=results,
        partial=first_failure is not None,
        first_failure=first_failure,
        error=outcomes[first_failure][1] if first_failure is not None else None,
    )
