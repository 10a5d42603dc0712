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
helper, :func:`target_distance`: the origin ball grown toward the target
until it reaches it, exhausts its cluster or first touches a box face, and
that ball's ``certified_distance`` (an int, ``inf`` when the finite cluster
misses the target, None when the box cannot tell). The distance constant
averages the finite values, the upper-tail event maps the value through
``upper_tail_outcome``, and the paired experiment also scans the same ball's
certified singleton layers. Every box is ``BoxSpec(d, ceil(reach) + 2)``
for a reach that each estimator states.

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
    BallEventContext,
    EventOutcome,
    EventSpec,
    alpha_default,
    event_A,
    event_A_free,
    upper_tail_outcome,
)
from .errors import GridCoverageError, PreconditionError
from .lattice import _MASK64, _SPLIT, BoxSpec, _mix64, sample_configuration
from .metric import grow_ball
from .parallel import run_parallel

Z_95 = 1.959963984540054
EVENT_KINDS = ("cutpoint", "free", "upper_tail")


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


def _run_all(fn, replicates: int, workers):
    """Results of every replicate; a failed replicate aborts the estimate.
    Every estimator command gets its replicates here."""
    run = run_parallel(fn, replicates, workers)
    if run.partial:
        raise PreconditionError(f"replicate {len(run.results)}: {run.error}")
    return run.results


def _ball_codes(sample, d: int, specs, free: bool = False):
    """Outcome codes of every spec, evaluated on one ball grown from the
    origin (the events share the sample and the ball)."""
    ball = grow_ball(sample, (0,) * d, stop_at_boundary=True)
    ctx = BallEventContext(sample, ball)
    fn = event_A_free if free else event_A
    return tuple(OUTCOME_CODES[fn(ctx, spec).outcome] for spec in specs)


def target_distance(sample, n: int, x):
    """The origin ball grown toward floor(n x), stopped at the target, at
    cluster exhaustion or at its first face contact, and its certified
    distance to the target: an int, ``math.inf`` or None (unknowable)."""
    target = tuple(int(math.floor(n * c)) for c in x)
    ball = grow_ball(
        sample, (0,) * len(target),
        targets=[sample.box.flat_index(target)], stop_at_boundary=True,
    )
    return ball, ball.certified_distance(target)


def _box(d: int, reach: float) -> BoxSpec:
    """The estimators' box: radius ceil(reach) + 2."""
    return BoxSpec(d, int(math.ceil(reach)) + 2)


# ---------------------------------------------------------------------------
# event families


@dataclass(frozen=True)
class EventFamily:
    """Descriptor of the event grid one replicate evaluates.

    kind 'cutpoint' and 'free' scan the s_grid (shared ball per replicate);
    kind 'upper_tail' uses xi and mu1 for the distance threshold.
    """

    kind: str
    d: int
    p: float
    s_grid: tuple = (0.25,)
    x: tuple = ()
    xi: float = 0.0
    mu1: float = 1.0
    alpha: float | None = None
    box_factor: float = 2.0

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise PreconditionError(f"unknown event kind {self.kind!r}")
        object.__setattr__(self, "s_grid", tuple(float(s) for s in self.s_grid))
        x = self.x or (0.0,) * self.d
        if self.kind == "upper_tail" and not self.x:
            x = (1.0,) + (0.0,) * (self.d - 1)
        object.__setattr__(self, "x", tuple(float(c) for c in x))

    def box_for(self, n: int) -> BoxSpec:
        if self.kind == "upper_tail":
            span = max(1.0, max(abs(c) for c in self.x))
            reach = self.box_factor * max(1.0, self.mu1 * (1.0 + self.xi)) * n * span
        else:
            # the witness scan only needs distances across the window around n x
            w = int(n ** (self.alpha if self.alpha is not None else alpha_default(self.d)))
            reach = self.box_factor * (n * max(abs(c) for c in self.x) + 2.0 * w)
        return _box(self.d, reach)

    def specs(self, n: int):
        return [EventSpec(s=s, x=self.x, n=n, alpha=self.alpha) for s in self.s_grid]

    def events(self):
        """(label, s, x) of each event, in outcome-code order; s is None for
        the upper tail."""
        if self.kind == "upper_tail":
            return [(f"upper_tail(xi={self.xi})", None, self.x)]
        return [(f"{self.kind}(s={s})", s, self.x) for s in self.s_grid]


def _run_one_n(index: int, *, family: EventFamily, seed: int, n: int):
    """Outcome codes of every family event for one replicate (shared sample)."""
    sample = sample_configuration(
        family.box_for(n), family.p, replicate_seed(seed, index)
    )
    if family.kind == "upper_tail":
        _, dist = target_distance(sample, n, family.x)
        threshold = family.mu1 * (1.0 + family.xi) * n
        return (OUTCOME_CODES[upper_tail_outcome(dist, threshold)],)
    return _ball_codes(sample, family.d, family.specs(n), free=family.kind == "free")


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


def _mu_replicate(index: int, *, d, p, x, n, box_factor, seed):
    """Certified D(0, floor(n x)) of one replicate: int, inf or None."""
    box = _box(d, box_factor * n * max(abs(c) for c in x))
    sample = sample_configuration(box, p, replicate_seed(seed, index))
    return target_distance(sample, n, x)[1]


def estimate_mu(
    p: float,
    d: int,
    direction,
    n_grid,
    replicates: int,
    seed: int,
    *,
    box_factor: float = 1.6,
    workers: int | None = None,
) -> list:
    """One MuPoint per n of ``n_grid``: the conditional mean of
    D(0, floor(n x))/n over the connected, uncontaminated replicates.

    Every per-replicate ratio is at least |x|_1 exactly (a path needs at
    least the l1 distance many edges). Raises PreconditionError when no n
    has a connected, uncontaminated replicate.
    """
    x = tuple(float(c) for c in direction)
    if all(c == 0 for c in x):
        raise PreconditionError("direction must be nonzero")
    points = []
    for n in n_grid:
        fn = partial(
            _mu_replicate, d=d, p=p, x=x, n=int(n),
            box_factor=box_factor, seed=seed,
        )
        results = _run_all(fn, replicates, workers)
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
                n=int(n), replicates=replicates, connected=len(values),
                disconnected=n_dis, contaminated=n_cont,
                mean=mean, sigma=sigma,
            )
        )
    if not any(pt.connected for pt in points):
        raise PreconditionError("all replicates disconnected at every n")
    return points


# ---------------------------------------------------------------------------
# rate surfaces and the upper-tail infimum


@dataclass
class RateSurface:
    """Rate estimates on an (s, x) grid at a fixed n."""

    entries: dict  # (s, x tuple) -> RateEstimate

    def rate(self, s: float, x) -> float | None:
        est = self.entries.get((float(s), tuple(float(c) for c in x)))
        return None if est is None else est.rate


def estimate_rate_surface(
    d: int,
    p: float,
    s_grid,
    x_grid,
    n: int,
    replicates: int,
    seed: int,
    *,
    box_factor: float = 2.0,
    alpha: float | None = None,
    workers: int | None = None,
) -> RateSurface:
    """Empirical cut-point rate surface over an (s, x) grid (coupled)."""
    x_grid = [tuple(float(c) for c in x) for x in x_grid]
    s_grid = [float(s) for s in s_grid]
    family_box = EventFamily(
        kind="cutpoint", d=d, p=p, s_grid=(max(s_grid),),
        x=max(x_grid, key=lambda x: sum(map(abs, x))),
        alpha=alpha, box_factor=box_factor,
    )
    box = family_box.box_for(n)
    specs = [
        EventSpec(s=s, x=x, n=n, alpha=alpha) for s in s_grid for x in x_grid
    ]
    fn = partial(
        _surface_replicate, d=d, p=p, box=box, specs=specs, seed=seed
    )
    events = [(f"cutpoint(s={sp.s},x={sp.x})", sp.s, sp.x) for sp in specs]
    estimates = rate_estimates(events, n, _run_all(fn, replicates, workers))
    return RateSurface(entries={(e.s, e.x): e for e in estimates})


def _surface_replicate(index: int, *, d, p, box, specs, seed):
    sample = sample_configuration(box, p, replicate_seed(seed, index))
    return _ball_codes(sample, d, specs)


@dataclass
class JEstimate:
    value: float
    argmin: tuple  # (s, y)
    slack: float  # feasibility margin at the argmin
    R: float  # search-box half-side J / rate(1, 0); nan without that rate
    covered: bool  # grid covers [0, R] x [-R, R]^d


def estimate_J(direction, xi: float, mu_hat, surface: RateSurface) -> JEstimate:
    """Grid infimum of the rate surface over the detour-cost constraint.

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
    for (s, y), est in surface.entries.items():
        margin = s + unit * np.abs(np.asarray(y) - x).max() - need
        if margin >= -1e-12 and est.rate is not None:
            feasible.append((est.rate, s, y, margin))
    if not feasible:
        raise GridCoverageError(
            "no feasible grid point with a defined rate; enlarge the grid "
            f"(needed s + mu(y-x) >= {need:.4g})"
        )
    feasible.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    value, s_star, y_star, slack = feasible[0]

    unit_rate = surface.rate(1.0, (0.0,) * len(x))
    if unit_rate is None:
        R = math.nan
    else:
        R = value / unit_rate if unit_rate > 0 else math.inf
    s_max = max(k[0] for k in surface.entries)
    y_max = max(max(abs(c) for c in k[1]) for k in surface.entries)
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


def _paired_replicate(index: int, *, d, p, n, xi, s, mu1, box_factor, seed):
    family = EventFamily(
        kind="upper_tail", d=d, p=p, xi=xi, mu1=mu1, box_factor=box_factor
    )
    sample = sample_configuration(family.box_for(n), p, replicate_seed(seed, index))
    ball, dist = target_distance(sample, n, family.x)
    upper = upper_tail_outcome(dist, mu1 * (1.0 + xi) * n)
    # late cut-point within the certified horizon, capped at the distance
    if ball.singletons(max(1, math.ceil(s * n)), dist):
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
    s: float = 0.1,
    mu1: float = 1.0,
    box_factor: float = 1.3,
    workers: int | None = None,
):
    """Joint tallies of the upper-tail event and a late cut-point existing.

    The cut-point side scans singleton layers at times in [ceil(s n), D]
    (or up to the certified horizon when the endpoints do not connect).
    """
    out = []
    for n in n_grid:
        fn = partial(
            _paired_replicate, d=d, p=p, n=int(n), xi=xi, s=s, mu1=mu1,
            box_factor=box_factor, seed=seed,
        )
        counts = {}
        for pair in _run_all(fn, replicates, workers):
            counts[pair] = counts.get(pair, 0) + 1
        out.append(PairedTally(n=int(n), counts=counts))
    return out
