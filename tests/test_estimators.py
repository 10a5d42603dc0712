import math

import numpy as np
import pytest
from scipy.stats import binomtest

from conftest import replicate_seed_oracle
from percolab import BoxSpec, estimators, sample_configuration
from percolab.cutpoints import EventOutcome, upper_tail_outcome
from percolab.errors import GridCoverageError, PreconditionError
from percolab.estimators import (
    CODE_OUTCOMES,
    RateEstimate,
    Tally,
    _event_grid,
    _surface_replicate,
    estimate_J,
    estimate_mu,
    rate_estimates,
    replicate_seed,
    scan_rates,
    target_distances,
    wilson_interval,
)
from percolab.harness import cli_dispatch


@pytest.mark.parametrize("trials", [1, 2, 7, 40, 1000])
def test_wilson_interval_matches_scipy(trials):
    for hits in sorted({0, 1, trials // 3, trials - 1, trials}):
        ci = binomtest(hits, trials).proportion_ci(method="wilson")
        lo, hi = wilson_interval(hits, trials)
        assert lo == pytest.approx(ci.low, abs=1e-12)
        assert hi == pytest.approx(ci.high, abs=1e-12)


def test_wilson_interval_without_trials_is_nan():
    assert all(math.isnan(v) for v in wilson_interval(0, 0))


def test_rate_bounds_are_nan_without_resolved_replicates():
    def bounds(**counts):
        return RateEstimate("e", 0.25, (0.0, 0.0), 8, Tally(**counts)).rate_bounds

    assert all(math.isnan(v) for v in bounds(contaminated=5))
    lower, upper = bounds(misses=5, contaminated=1)
    assert upper == math.inf and 0 < lower < math.inf
    assert bounds(hits=5) == (0.0, pytest.approx(-math.log(wilson_interval(5, 5)[0]) / 8))


def test_mu_interval_is_nan_below_two_connected_replicates():
    (one,) = estimate_mu(0.95, 2, (1.0, 0.0), [4], 1, 3, box_factor=1.6, workers=1)
    assert one.connected == 1 and math.isfinite(one.mean)
    assert all(math.isnan(v) for v in one.ci)
    (two,) = estimate_mu(0.95, 2, (1.0, 0.0), [4], 2, 3, box_factor=1.6, workers=1)
    assert two.connected == 2 and all(math.isfinite(v) for v in two.ci)


@pytest.mark.parametrize(
    "d, L, ps, n, x",
    [
        (2, 12, (0.45, 0.55, 0.7), 8, (1.0, 0.0)),
        (2, 12, (0.45, 0.55, 0.7), 6, (0.5, 1.0)),
        (3, 6, (0.22, 0.3, 0.45), 4, (1.0, 0.0, 0.0)),
        (3, 7, (0.22, 0.3, 0.45), 3, (1.0, 1.0, 0.0)),
    ],
)
def test_target_distance_never_rises_with_p_under_the_coupling(d, L, ps, n, x):
    # one seed samples nested configurations as p rises, so the Z^d distance
    # D(0, floor(n x)) can only fall and a connection is never lost; every
    # certified value (int or inf) is that distance, and None says nothing;
    # the balls of the nested samples grow in one lock-step call
    changes = set()
    for seed in range(40):
        samples = [sample_configuration(BoxSpec(d, L), p, seed) for p in ps]
        known = [dist for dist, _ in target_distances(samples, n, x) if dist is not None]
        assert known == sorted(known, reverse=True), (seed, known)
        changes.update(
            "joined" if a == math.inf else "shorter"
            for a, b in zip(known, known[1:]) if a > b
        )
    assert changes == {"joined", "shorter"}


def test_replicate_seeds_of_distinct_seed_index_pairs_are_distinct():
    seeds = np.concatenate([replicate_seed_oracle(s, np.arange(1024)) for s in range(1024)])
    assert len(np.unique(seeds)) == 1 << 20
    # the package's replicate_seed is that stream, on a sample of the pairs
    for pair in range(0, 1 << 20, 4099):
        seed, index = divmod(pair, 1024)
        assert replicate_seed(seed, index) == int(seeds[pair])


def test_replicate_seed_equals_the_oracle():
    indices = list(range(300)) + [2**31, 2**32 + 7, 2**53 + 1, 2**63, 2**64 - 1]
    array = np.array(indices, dtype=np.uint64)
    for seed in [0, 1, 7, 311, -1, -(2**63), 2**63, 2**64 - 1, 2**64 + 9, 2**70 + 3]:
        expected = replicate_seed_oracle(seed, array)
        got = [replicate_seed(seed, i) for i in indices]
        assert all(type(g) is int for g in got)
        assert got == [int(e) for e in expected], seed


def test_nearby_seeds_write_different_rates(tmp_path):
    # seed XOR index gave seeds 0, 1, 2, 3 and 5 the same 8 replicates
    written = set()
    for seed in (0, 1, 2, 3, 5):
        argv = ["estimate-rate", "--set=d=2", "--set=p=0.6", f"--set=seed={seed}",
                "--set=n_grid=6", "--set=replicates=8", "--set=workers=1",
                "--out-dir", str(tmp_path / str(seed))]
        assert cli_dispatch(argv) == 0
        written.add((tmp_path / str(seed) / "rates.csv").read_bytes())
    assert len(written) > 1


S_GRID = (0.25, 0.5)
EVENTS = [(f"cutpoint(s={s})", s, (0.0, 0.0)) for s in S_GRID]
N_GRID = (6, 8)
REPLICATES = 24
SEED = 41


def _csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


@pytest.fixture(scope="module")
def rate_runs(tmp_path_factory):
    """Rows of rates.csv and replicates.csv of one CLI run per worker count."""
    runs = {}
    for w in (1, 2):
        out = tmp_path_factory.mktemp(f"rates-{w}")
        argv = ["estimate-rate", "--set=d=2", "--set=p=0.6", f"--set=seed={SEED}",
                "--set=s=0.25,0.5", "--set=n_grid=6,8",
                f"--set=replicates={REPLICATES}", "--set=emit_replicates=true",
                f"--set=workers={w}", "--out-dir", str(out)]
        assert cli_dispatch(argv) == 0
        runs[w] = (_csv_rows(out / "rates.csv"), _csv_rows(out / "replicates.csv"))
    return runs


@pytest.fixture(scope="module")
def replicate_codes():
    """Outcome codes of every replicate, recomputed outside the CLI."""
    codes = {}
    for n in N_GRID:
        grid = _event_grid(2, S_GRID, [(0.0, 0.0)], n, 2.0, alpha=None, free=False)
        codes[n] = [
            _surface_replicate(i, p=0.6, grid=grid, seed=SEED) for i in range(REPLICATES)
        ]
    return codes


def test_event_rate_tallies_recount_the_replicates(rate_runs, replicate_codes):
    rates, reps = rate_runs[1]
    assert [(int(r["n"]), float(r["s"])) for r in rates] == [
        (n, s) for n in N_GRID for s in S_GRID
    ]
    for n, codes in replicate_codes.items():
        for k, row in enumerate(r for r in rates if int(r["n"]) == n):
            assert int(row["replicates"]) == REPLICATES
            outcomes = [CODE_OUTCOMES[c[k]] for c in codes]
            counts = [int(row[key]) for key in ("hits", "misses", "disconnected",
                                                "contaminated")]
            assert counts == [outcomes.count(o) for o in (
                EventOutcome.HIT, EventOutcome.MISS, EventOutcome.DISCONNECTED,
                EventOutcome.UNKNOWABLE,
            )]
            emitted = [r["outcome"] for r in reps
                       if int(r["n"]) == n and r["event"] == row["event"]]
            assert emitted == [o.value for o in outcomes]


def test_event_rate_is_independent_of_workers_and_matches_the_cli(
    rate_runs, replicate_codes
):
    assert rate_runs[1] == rate_runs[2]
    rates, _ = rate_runs[1]
    estimates = [
        est for n, codes in replicate_codes.items()
        for est in rate_estimates(EVENTS, n, codes)
    ]
    assert len(rates) == len(estimates)
    for row, est in zip(rates, estimates):
        assert row["event"] == est.label and float(row["s"]) == est.s
        assert int(row["n"]) == est.n
        counts = [int(row[k]) for k in ("hits", "misses", "disconnected", "contaminated")]
        t = est.tally
        assert counts == [t.hits, t.misses, t.disconnected, t.contaminated]
        assert float(row["p_lo"]) == est.ci[0] and float(row["p_hi"]) == est.ci[1]


@pytest.mark.parametrize("x", [(0.5, 0.0), (1.0, 1.0)])
def test_the_upper_tail_threshold_scales_with_the_l1_norm_of_x(tmp_path, x):
    # mu1 (1 + xi) n |x|_1 is 11.52 at (0.5, 0), where D(0, 6 e1) averages
    # about 10, and 46.08 at (1, 1), above D's floor |(12, 12)|_1 = 24.
    # Without the factor |x|_1 it would be 23.04 at both: 2.3 times the
    # typical distance at (0.5, 0), and below the floor at (1, 1)
    argv = ["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=3",
            "--set=event=upper_tail", f"--set=x={x[0]},{x[1]}", "--set=xi=0.2",
            "--set=mu1=1.6", "--set=n_grid=12", "--set=replicates=40",
            "--set=emit_replicates=true", "--set=workers=1", "--out-dir", str(tmp_path)]
    assert cli_dispatch(argv) == 0
    emitted = [r["outcome"] for r in _csv_rows(tmp_path / "replicates.csv")]
    box, _ = estimators._upper_tail_box(2, x, 12, 0.2, 1.6, 2.0)
    samples = [sample_configuration(box, 0.6, replicate_seed(3, i)) for i in range(40)]
    threshold = 1.6 * 1.2 * 12 * sum(x)
    assert emitted == [
        upper_tail_outcome(dist, threshold).value
        for dist, _ in target_distances(samples, 12, x)
    ]
    assert {"hit", "miss"} <= set(emitted)


def test_a_rate_surface_samples_the_box_of_its_widest_direction(monkeypatch):
    # at n = 16 the window is 12 wide, so the (0.9, 0) window reaches x1 = 26;
    # a box sized from (0.5, 0.5), the direction of largest l1 norm, has
    # radius ceil(0.7 * (8 + 24)) + 2 = 25
    boxes = []
    original = estimators.sample_configuration

    def recording(box, p, seed):
        boxes.append(box)
        return original(box, p, seed)

    monkeypatch.setattr(estimators, "sample_configuration", recording)

    def sampled_box(x_grid):
        boxes.clear()
        scan_rates(
            2, 0.6, [0.5], x_grid, 16, 1, 3, kind="cutpoint", box_factor=0.7,
            alpha=None, workers=1,
        )
        (box,) = boxes
        return box

    box = sampled_box([(0.5, 0.5), (0.9, 0.0)])
    assert box == sampled_box([(0.9, 0.0)])
    assert box.radius == 29


# ---------------------------------------------------------------------------
# estimate_J on hand-built surfaces


def _entry(s, y, hits, misses, n=1):
    """Surface estimate with rate -log(hits / (hits + misses)) / n."""
    tally = Tally(hits=hits, misses=misses)
    return RateEstimate(
        label="test", s=float(s), x=tuple(float(c) for c in y), n=n, tally=tally
    )


def _surface(*entries):
    return [_entry(*e) for e in entries]


def test_estimate_J_minimises_over_the_feasible_points_only():
    # x = e1, xi = 0.5, mu = 1: feasible iff s + |y - x|_inf >= 1.5
    surface = _surface(
        (0.25, (0, 0), 9, 1),  # lowest rate, but 0.25 + 1 < 1.5
        (1.0, (1, 0), 9, 1),  # 1 + 0 < 1.5
        (0.5, (0, 0), 1, 3),  # margin exactly 0: feasible
        (1.0, (0, 0), 1, 1),  # margin 0.5
        (1.0, (0, 1), 0, 4),  # feasible but no hits: skipped
    )
    j = estimate_J((1.0, 0.0), 0.5, 1.0, surface)
    assert j.value == pytest.approx(-math.log(0.5))
    assert j.argmin == (1.0, (0.0, 0.0))
    assert j.slack == pytest.approx(0.5)
    assert j.R == pytest.approx(1.0)  # J / rate(1, 0), the argmin itself
    assert j.covered  # s and |y| reach 1 >= R


def test_estimate_J_breaks_rate_ties_by_s_then_y():
    surface = _surface(
        (1.0, (0, 1), 1, 1),
        (1.0, (0, -1), 1, 1),
        (2.0, (0, 0), 1, 1),
        (1.0, (0, 0), 1, 3),
    )
    j = estimate_J((1.0, 0.0), 0.0, 1.0, surface)
    assert j.argmin == (1.0, (0.0, -1.0))
    assert j.R == pytest.approx(math.log(2) / math.log(4))


def test_estimate_J_radius_and_coverage():
    # at xi = 1.5 only (1, (3, 1)) is feasible: R = J / rate(1, 0) = 2 > max s
    surface = _surface((1.0, (0, 0), 1, 1), (1.0, (3, 1), 1, 3))
    j = estimate_J((1.0, 0.0), 0.0, 1.0, surface)
    assert j.value == pytest.approx(math.log(2)) and j.R == pytest.approx(1.0)
    assert j.covered
    j = estimate_J((1.0, 0.0), 1.5, 1.0, surface)
    assert j.argmin == (1.0, (3.0, 1.0))
    assert j.R == pytest.approx(2.0) and not j.covered
    # a certain unit event has rate 0: the radius is unbounded
    j = estimate_J((1.0, 0.0), 0.0, 1.0, _surface((1.0, (0, 0), 3, 0), (1.0, (1, 1), 1, 1)))
    assert j.R == math.inf and not j.covered


def test_estimate_J_refuses_off_axis_points_only_the_l1_margin_admits():
    # x = e1, xi = 0.5, mu = 1: (0.25, (0, 1)) has |y - x|_1 = 2, so the l1
    # margin 0.25 + 2 - 1.5 admits it, but mu(y - x) may be as low as
    # |y - x|_inf = 1 and 0.25 + 1 < 1.5
    surface = _surface((0.25, (0, 1), 9, 1), (1.0, (0, 0), 1, 1))
    j = estimate_J((1.0, 0.0), 0.5, 1.0, surface)
    assert j.argmin == (1.0, (0.0, 0.0)) and j.value == pytest.approx(math.log(2))
    assert j.slack == pytest.approx(0.5)


def test_estimate_J_rejects_a_nonpositive_unit():
    surface = _surface((1.0, (0, 0), 1, 1))
    for mu in (0.0, -1.0):
        with pytest.raises(PreconditionError):
            estimate_J((1.0, 0.0), 0.0, mu, surface)


def test_estimate_J_without_hits_at_the_unit_point_reports_nan_radius():
    surface = _surface((1.0, (0, 0), 0, 5), (1.0, (1, 1), 1, 3), (0.5, (1, -1), 1, 1))
    j = estimate_J((1.0, 0.0), 0.0, 1.0, surface)
    assert j.value == pytest.approx(math.log(2)) and j.argmin == (0.5, (1.0, -1.0))
    assert math.isnan(j.R) and not j.covered
    # no (1, 0) entry at all
    surface = _surface((0.5, (1, -1), 1, 1))
    j = estimate_J((1.0, 0.0), 0.0, 1.0, surface)
    assert math.isnan(j.R) and not j.covered


def test_estimate_J_without_feasible_rates_raises():
    surface = _surface((0.25, (1, 0), 1, 1), (1.0, (0, 0), 0, 3))
    with pytest.raises(GridCoverageError):
        estimate_J((1.0, 0.0), 0.5, 1.0, surface)
