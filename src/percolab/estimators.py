"""Monte Carlo estimation of the distance constant and event decay rates.

Replicate ``index`` of a run with seed ``seed`` is sampled with
``replicate_seed(seed, index)``, output ``index`` of a SplitMix64 stream
keyed by the mixed seed. So a replicate is a pure function of (seed, index):
runs are reproducible, parallel results are re-sorted by index so they do
not depend on the worker count, two event parameterizations evaluated at the
same replicate index share the sample exactly (coupling), and different
seeds do not share replicates. Every n of a grid uses the same replicate
seeds, but its box differs and an edge's uniform hashes its box-relative
index, so samples at two values of n are not one configuration seen twice.

Every estimator reads the chemical distance D(0, floor(n x)) through one
helper, :func:`target_distances`: per replicate, the certified distance and
the certified singleton times of the origin ball grown toward the target
until it reaches it, exhausts its cluster or first touches a box face
(``metric.grow_targets``). The distance is an int, ``inf`` when the finite
cluster misses the target, or None when the box cannot tell. The distance
constant averages the finite values, the upper-tail event maps the value
through ``upper_tail_outcome``, and the paired experiment also asks whether
a singleton time comes late. The scanned cut-point events instead go
through one pipeline, :func:`scan_rates`, for ``estimate-rate`` and for
``estimate-j``'s surface: it scores an :class:`EventGrid`, the product
s_grid x x_grid at one n and one window exponent, in one ``event_A`` (or
``event_A_free``) call on the origin ball of each replicate; the window
verdicts settled in that call are not kept. That ball stops at its first
face contact, or earlier once every vertex of the grid's windows is
reached or in a finite cluster that avoids every face and the ball (the
predicate ``grid.windows.settle(sample)``), which certifies the same
outcomes with less growth and needs no probe when scored.

The three target paths (``estimate-mu``, ``upper-tail`` and the upper-tail
event of ``estimate-rate``) share one runner, :func:`_run_targets`, which
gives each process one block of consecutive indices, or blocks of 64 when
that is more. A block grows the origin balls of its samples as the lanes
of one growth (``metric.grow_targets``) and hands each index its certified
distance and singleton times, in order, to the path's finisher
(``_mu_replicate``, ``_paired_replicate`` or ``_run_one_n``). A lane gives
what the ball grown alone gives, so no output depends on the blocks or the
worker count. A failure while a block samples or grows is reported at its
first index, and one in a finisher at that finisher's index.

Every box is ``BoxSpec(d, ceil(reach) + 2)``, built once per n and shared
by the replicates at that n. The reach is:

- for scanned events (:func:`_event_grid`), ``box_factor * (n * m + 2 w)``
  with m the largest sup norm of the grid's directions and w = floor(n^alpha)
  from ``cutpoints.window_radius``: every plain window and the distances
  across it fit (a free-line window has radius 4 w and may not);
- for the upper tail (:func:`_upper_tail_box`), ``box_factor * max(1, mu1
  (1 + xi)) * n * max(1, |x|_1)``: the box grows with the distance
  threshold ``mu1 (1 + xi) n |x|_1``, with mu1 = mu(e1);
- for the distance constant, ``box_factor * n * |x|_inf``.

Empirical decay rates are reported as -log(p_hat)/n at each finite n, with
Wilson intervals propagated; no extrapolation to the n -> infinity limit is
attempted, exact limit values are out of reach at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cutpoints import (
    EventGrid,
    EventOutcome,
    event_A,
    event_A_free,
    upper_tail_outcome,
    window_radius,
)
from .errors import GridCoverageError, PreconditionError
from .lattice import _MASK64, _SPLIT, BoxSpec, _mix64, sample_configuration
from .metric import grow_ball, grow_targets
from .parallel import run_parallel, workers_used

Z_95 = 1.959963984540054

def replicate_seed(seed: int, index: int) -> int:
    """Output ``index`` of a SplitMix64 stream keyed by the mixed run seed.

    The finalizer is a bijection, so one run's indices never share a seed.
    Two runs of at most N replicates share one only when their keys differ
    by k times the stream increment for some |k| < N.
    """
    key = _mix64(int(seed) & _MASK64)
    return _mix64((key + index * _SPLIT[0]) & _MASK64)


def wilson_interval(hits: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (math.nan, math.nan)
    z = Z_95
    phat = hits / trials
    z2 = z * z
    centre = phat + z2 / (2 * trials)
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    denom = 1 + z2 / trials
    return ((centre - half) / denom, (centre + half) / denom)


@dataclass
class Tally:
    """Outcome counts of one event at one n."""

    hits: int = 0
    misses: int = 0
    disconnected: int = 0
    contaminated: int = 0

    @property
    def replicates(self) -> int:
        return self.hits + self.misses + self.disconnected + self.contaminated


@dataclass
class RateEstimate:
    """Point estimate and Wilson interval of one event probability and its
    per-n decay rate -log(p)/n."""

    label: str
    s: float | None
    x: tuple
    n: int
    tally: Tally

    @property
    def resolved(self) -> int:
        return self.tally.replicates - self.tally.contaminated

    @property
    def p_hat(self) -> float:
        return self.tally.hits / self.resolved if self.resolved else math.nan

    @property
    def ci(self):
        return wilson_interval(self.tally.hits, self.resolved)

    @property
    def rate(self):
        """-log(p_hat)/n; None when no hits were seen (only a bound exists)."""
        if self.resolved == 0 or self.tally.hits == 0:
            return None
        return -math.log(self.p_hat) / self.n

    @property
    def rate_bounds(self):
        """(lower, upper) for the rate; upper is inf when hits == 0, and
        both are nan without a resolved replicate."""
        lo_p, hi_p = self.ci
        lower = math.inf if hi_p <= 0 else -math.log(hi_p) / self.n
        upper = math.inf if lo_p <= 0 else -math.log(lo_p) / self.n
        return (lower, upper)


# ---------------------------------------------------------------------------
# replicate outcomes to estimates


OUTCOME_CODES = {
    EventOutcome.HIT: 0,
    EventOutcome.MISS: 1,
    EventOutcome.DISCONNECTED: 2,
    EventOutcome.UNKNOWABLE: 3,
}
CODE_OUTCOMES = {v: k for k, v in OUTCOME_CODES.items()}


def rate_estimates(events, n: int, results):
    """One RateEstimate per (label, s, x) event, in event order, from the
    per-replicate tuples of outcome codes of those events."""
    # code k counts into the k-th Tally field
    codes = np.asarray(results, dtype=np.int64).reshape(len(results), len(events))
    return [
        RateEstimate(
            label=label, s=s, x=x, n=int(n),
            tally=Tally(*map(int, np.bincount(column, minlength=len(OUTCOME_CODES)))),
        )
        for (label, s, x), column in zip(events, codes.T)
    ]


def _run_all(fn, replicates: int, workers, block=None):
    """Results of every replicate; a failed replicate aborts the estimate.
    Every estimator command gets its replicates here (``block`` as in
    ``run_parallel``)."""
    run = run_parallel(fn, replicates, workers, block)
    if run.partial:
        raise PreconditionError(f"replicate {len(run.results)}: {run.error}")
    return run.results


def target_distances(box: BoxSpec, samples, n: int, x):
    """(certified distance, certified singleton times) per sample of the
    iterable ``samples`` on ``box`` from the origin to floor(n x), as
    ``metric.grow_targets`` certifies them: an int, ``math.inf`` or None
    (unknowable), and the increasing times t >= 1 of singleton layers."""
    target = tuple(int(math.floor(n * c)) for c in x)
    return grow_targets(samples, box.flat_index((0,) * len(target)), box.flat_index(target))


def _target_block(indices, *, finish, p, box, n, x, seed):
    """finish(index, dist=, singles=) of each index of ``indices``, their
    samples drawn one at a time and their balls grown as lanes."""
    samples = (sample_configuration(box, p, replicate_seed(seed, i)) for i in indices)
    for index, (dist, singles) in zip(indices, target_distances(box, samples, n, x)):
        yield finish(index, dist=dist, singles=singles)


def _run_targets(finish, replicates: int, workers, *, p, box, n, x, seed):
    """finish(index, dist=, singles=) of every replicate, in blocks of at
    most 64 lanes shared among the processes: the target paths' one runner."""
    fn = partial(_target_block, finish=finish, p=p, box=box, n=n, x=x, seed=seed)
    per_process = -(-replicates // max(1, workers_used(workers, replicates)))
    return _run_all(fn, replicates, workers, min(64, max(1, per_process)))


def _box(d: int, reach: float) -> BoxSpec:
    """The estimators' box: radius ceil(reach) + 2."""
    return BoxSpec(d, int(math.ceil(reach)) + 2)


# ---------------------------------------------------------------------------
# scanned cut-point events


def _event_grid(
    d: int, s_grid, x_grid, n: int, box_factor: float, *, alpha, free
) -> EventGrid:
    """The events (s, x) of ``s_grid`` x ``x_grid`` at n on the box their
    windows need."""
    w = window_radius(d, n, alpha)
    reach = box_factor * (n * max(max(abs(c) for c in x) for x in x_grid) + 2.0 * w)
    return EventGrid(_box(d, reach), s_grid, x_grid, n, alpha=alpha, free=free)


def scan_rates(
    d: int, p: float, s_grid, x_grid, n: int, replicates: int, seed: int,
    *, kind: str, box_factor: float, alpha, workers,
):
    """The one pipeline of every scanned grid: the events (s, x) of
    ``s_grid`` x ``x_grid`` at n, of ``kind`` "cutpoint" or "free", scored
    on each replicate's origin ball. Returns the RateEstimate of every event,
    s-major and labelled ``kind(s=...)``, and the tuple of outcome codes of
    every replicate."""
    grid = _event_grid(d, s_grid, x_grid, n, box_factor, alpha=alpha, free=kind == "free")
    fn = partial(_surface_replicate, p=p, grid=grid, seed=seed)
    codes = _run_all(fn, replicates, workers)
    events = [(f"{kind}(s={s})", s, x) for s, x in grid.events]
    return rate_estimates(events, n, codes), codes


def _surface_replicate(index: int, *, p, grid: EventGrid, seed):
    """Outcome codes of every event of ``grid``, scored in one call on one
    ball grown from the origin (the events share the sample and the ball)."""
    sample = sample_configuration(grid.box, p, replicate_seed(seed, index))
    ball = grow_ball(
        sample, (0,) * grid.box.dimension, stop_at_boundary=True,
        settle=grid.windows.settle(sample),
    )
    fn = event_A_free if grid.free else event_A
    return tuple(OUTCOME_CODES[r.outcome] for r in fn(ball, grid))


# ---------------------------------------------------------------------------
# events of the target distance


def _e1(d: int):
    """The default direction of a target: the first unit vector."""
    return (1.0,) + (0.0,) * (d - 1)


def _upper_tail_threshold(x, n: int, xi: float, mu1: float) -> float:
    """The upper tail's distance threshold mu1 (1 + xi) n |x|_1."""
    return mu1 * (1.0 + xi) * n * sum(abs(c) for c in x)


def _upper_tail_box(d: int, x, n: int, xi: float, mu1: float, box_factor: float):
    """The upper tail's box at n, grown with its threshold, and the threshold."""
    span = max(1.0, sum(abs(c) for c in x))
    reach = box_factor * max(1.0, mu1 * (1.0 + xi)) * n * span
    return _box(d, reach), _upper_tail_threshold(x, n, xi, mu1)


def _run_one_n(index: int, *, dist, singles, threshold):
    """The upper-tail outcome code of one replicate of ``estimate-rate``, as
    a 1-tuple."""
    return (OUTCOME_CODES[upper_tail_outcome(dist, threshold)],)


# ---------------------------------------------------------------------------
# distance constant


@dataclass
class MuPoint:
    n: int
    replicates: int
    connected: int
    disconnected: int
    contaminated: int
    mean: float  # conditional mean of D(0, floor(n x)) / n over connections
    sigma: float  # standard error of the mean; nan below two connections

    @property
    def ci(self):
        return (self.mean - Z_95 * self.sigma, self.mean + Z_95 * self.sigma)


def _mu_replicate(index: int, *, dist, singles):
    """Certified D(0, floor(n x)) of one replicate: int, inf or None."""
    return dist


def estimate_mu(
    p: float,
    d: int,
    direction,
    n_grid,
    replicates: int,
    seed: int,
    *,
    box_factor: float,
    workers,
) -> list:
    """One MuPoint per n of ``n_grid``: the conditional mean of
    D(0, floor(n x))/n over the connected, uncontaminated replicates.

    Every per-replicate ratio is at least |floor(n x)|_1 / n (a path needs
    as many edges as the l1 distance to its target), which can fall below
    |x|_1: 1/3 at x = (0.5, 0) and n = 3. An n without a connected,
    uncontaminated replicate has mean and sigma nan.
    """
    x = tuple(float(c) for c in direction)
    if all(c == 0 for c in x):
        raise PreconditionError("direction must be nonzero")
    points = []
    for n in map(int, n_grid):
        box = _box(d, box_factor * n * max(abs(c) for c in x))
        results = _run_targets(
            _mu_replicate, replicates, workers, p=p, box=box, n=n, x=x, seed=seed
        )
        values = [v for v in results if v not in (None, math.inf)]
        n_dis = results.count(math.inf)
        n_cont = results.count(None)
        if values:
            ratios = np.asarray(values, dtype=float) / n
            mean = float(ratios.mean())
            sigma = float(ratios.std(ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else math.nan
        else:
            mean, sigma = math.nan, math.nan
        points.append(
            MuPoint(
                n=n, replicates=replicates, connected=len(values),
                disconnected=n_dis, contaminated=n_cont,
                mean=mean, sigma=sigma,
            )
        )
    return points


# ---------------------------------------------------------------------------
# the upper-tail infimum of a rate surface


@dataclass
class JEstimate:
    value: float
    argmin: tuple  # (s, y)
    slack: float  # feasibility margin at the argmin
    R: float  # search-box half-side J / rate(1, 0); nan without that rate
    covered: bool  # grid covers [0, R] x [-R, R]^d


def estimate_J(direction, xi: float, mu_hat, estimates) -> JEstimate:
    """Grid infimum over the detour-cost constraint of the rate surface
    ``estimates``, the RateEstimates at (s, y) that :func:`scan_rates` returns.

    Feasible points satisfy s + mu(y - x) >= (1 + xi) mu(x). Only
    ``mu_hat`` = mu(e1) is known, and a norm with the lattice's reflection
    symmetries satisfies mu_hat |v|_inf <= mu(v) <= mu_hat |v|_1, so a point
    is admitted only when the lower bound for mu(y - x) clears the upper
    bound for mu(x). The value is the exact minimum over the admitted grid
    (entries without a defined rate are skipped). R = J / rate(1, 0) is the
    half-side of the box the search could be restricted to; it is nan when
    the surface has no defined rate at (1, 0), and then ``covered`` is false.
    """
    x = np.asarray(direction, dtype=float)
    unit = float(mu_hat)
    if not unit > 0:
        raise PreconditionError("mu_hat must be positive")
    need = (1.0 + xi) * unit * np.abs(x).sum()

    feasible = []
    for est in estimates:
        margin = est.s + unit * np.abs(np.asarray(est.x) - x).max() - need
        if margin >= -1e-12 and est.rate is not None:
            feasible.append((est.rate, est.s, est.x, margin))
    if not feasible:
        raise GridCoverageError(
            "no feasible grid point with a defined rate; enlarge the grid "
            f"(needed s + mu(y-x) >= {need:.4g})"
        )
    feasible.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    value, s_star, y_star, slack = feasible[0]

    unit_point = (1.0, (0.0,) * len(x))
    unit_rate = next((e.rate for e in estimates if (e.s, e.x) == unit_point), None)
    if unit_rate is None:
        R = math.nan
    else:
        R = value / unit_rate if unit_rate > 0 else math.inf
    s_max = max(e.s for e in estimates)
    y_max = max(max(abs(c) for c in e.x) for e in estimates)
    covered = s_max >= R - 1e-9 and y_max >= R - 1e-9
    return JEstimate(
        value=value, argmin=(s_star, y_star), slack=slack, R=R, covered=covered
    )


# ---------------------------------------------------------------------------
# paired upper-tail / cut-point experiment


@dataclass
class PairedTally:
    n: int
    counts: dict  # (upper outcome name, cut outcome name) -> count


def _paired_replicate(index: int, *, dist, singles, threshold, t_min):
    upper = upper_tail_outcome(dist, threshold)
    # a late cut-point: the certified singleton times stop at the distance
    if any(t >= t_min for t in singles):
        return upper.value, "hit"
    return upper.value, "censored" if dist is None else "miss"


def upper_tail_vs_cutpoint_experiment(
    p: float,
    d: int,
    xi: float,
    n_grid,
    replicates: int,
    seed: int,
    *,
    s: float,
    mu1: float,
    box_factor: float,
    workers,
):
    """Joint tallies of the upper-tail event and a late cut-point existing.

    The cut-point side scans singleton layers at times in [ceil(s n), D]
    (or up to the certified horizon when the endpoints do not connect).
    """
    x = _e1(d)
    out = []
    for n in map(int, n_grid):
        box, threshold = _upper_tail_box(d, x, n, xi, mu1, box_factor)
        finish = partial(
            _paired_replicate, threshold=threshold, t_min=max(1, math.ceil(s * n))
        )
        counts = {}
        for pair in _run_targets(
            finish, replicates, workers, p=p, box=box, n=n, x=x, seed=seed
        ):
            counts[pair] = counts.get(pair, 0) + 1
        out.append(PairedTally(n=n, counts=counts))
    return out
