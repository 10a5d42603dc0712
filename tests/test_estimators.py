import math

import numpy as np
import pytest
from scipy.stats import binomtest

from percolab.errors import GridCoverageError
from percolab.estimators import (
    CODE_OUTCOMES,
    EventFamily,
    RateEstimate,
    RateSurface,
    Tally,
    _run_one_n,
    estimate_event_rate,
    estimate_J,
    estimate_mu,
    replicate_seed,
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
    (one,) = estimate_mu(0.95, 2, (1.0, 0.0), [4], 1, 3, workers=1).points
    assert one.connected == 1 and math.isfinite(one.mean)
    assert all(math.isnan(v) for v in one.ci)
    (two,) = estimate_mu(0.95, 2, (1.0, 0.0), [4], 2, 3, workers=1).points
    assert two.connected == 2 and all(math.isfinite(v) for v in two.ci)


def test_replicate_seeds_of_distinct_seed_index_pairs_are_distinct():
    seeds = np.concatenate([replicate_seed(s, np.arange(1024)) for s in range(1024)])
    assert len(np.unique(seeds)) == 1 << 20
    assert replicate_seed(7, 3) == int(replicate_seed(7, np.arange(4))[3])


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


FAMILY = EventFamily(kind="cutpoint", d=2, p=0.6, s_grid=(0.25, 0.5))
N_GRID = (6, 8)
REPLICATES = 24
SEED = 41


@pytest.fixture(scope="module")
def rate_runs():
    return {
        w: estimate_event_rate(FAMILY, N_GRID, REPLICATES, SEED, workers=w)
        for w in (1, 2)
    }


def test_event_rate_tallies_recount_the_replicates(rate_runs):
    estimates = rate_runs[1]
    assert [(e.n, e.s) for e in estimates] == [
        (n, s) for n in N_GRID for s in FAMILY.s_grid
    ]
    for n in N_GRID:
        codes = [_run_one_n(i, family=FAMILY, seed=SEED, n=n) for i in range(REPLICATES)]
        for k, est in enumerate(e for e in estimates if e.n == n):
            assert est.tally.replicates == REPLICATES
            expected = Tally()
            for c in codes:
                expected.add(CODE_OUTCOMES[c[k]])
            assert est.tally == expected


def test_event_rate_is_independent_of_workers_and_matches_the_cli(rate_runs, tmp_path):
    one, two = rate_runs[1], rate_runs[2]
    assert one == two
    argv = ["estimate-rate", "--set=d=2", "--set=p=0.6", f"--set=seed={SEED}",
            "--set=s=0.25,0.5", "--set=n_grid=6,8", f"--set=replicates={REPLICATES}",
            "--set=workers=1", "--out-dir", str(tmp_path)]
    assert cli_dispatch(argv) == 0
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == len(one)
    for row, est in zip(rows, one):
        assert row["event"] == est.label and float(row["s"]) == est.s
        assert int(row["n"]) == est.n
        counts = [int(row[k]) for k in ("hits", "misses", "disconnected", "contaminated")]
        t = est.tally
        assert counts == [t.hits, t.misses, t.disconnected, t.contaminated]
        assert float(row["p_lo"]) == est.ci[0] and float(row["p_hi"]) == est.ci[1]


# ---------------------------------------------------------------------------
# estimate_J on hand-built surfaces


def _entry(s, y, hits, misses, n=1):
    """Surface entry with rate -log(hits / (hits + misses)) / n."""
    tally = Tally(hits=hits, misses=misses)
    return (float(s), tuple(float(c) for c in y)), RateEstimate(
        label="test", s=float(s), x=tuple(float(c) for c in y), n=n, tally=tally
    )


def _surface(*entries):
    return RateSurface(n=1, entries=dict(_entry(*e) for e in entries))


def test_estimate_J_minimises_over_the_feasible_points_only():
    # x = e1, xi = 0.5, mu = 1: feasible iff s + |y - x|_1 >= 1.5
    surface = _surface(
        (0.25, (0, 0), 9, 1),  # lowest rate, but 0.25 + 1 < 1.5
        (1.0, (1, 0), 9, 1),  # 1 + 0 < 1.5
        (0.5, (0, 0), 1, 3),  # margin exactly 0: feasible
        (1.0, (0, 0), 1, 1),  # margin 0.5
        (1.0, (0, 1), 0, 4),  # feasible but no hits: excluded
    )
    j = estimate_J((1.0, 0.0), 0.5, 1.0, surface)
    assert j.value == pytest.approx(-math.log(0.5))
    assert j.argmin == (1.0, (0.0, 0.0))
    assert j.slack == pytest.approx(0.5)
    assert j.excluded_undefined == 1
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
    # at xi = 1.5 only (1, (2, 1)) is feasible: R = J / rate(1, 0) = 2 > max s
    surface = _surface((1.0, (0, 0), 1, 1), (1.0, (2, 1), 1, 3))
    j = estimate_J((1.0, 0.0), 0.0, 1.0, surface)
    assert j.value == pytest.approx(math.log(2)) and j.R == pytest.approx(1.0)
    assert j.covered
    j = estimate_J((1.0, 0.0), 1.5, 1.0, surface)
    assert j.argmin == (1.0, (2.0, 1.0))
    assert j.R == pytest.approx(2.0) and not j.covered
    # a certain unit event has rate 0: the radius is unbounded
    j = estimate_J((1.0, 0.0), 0.0, 1.0, _surface((1.0, (0, 0), 3, 0), (1.0, (1, 1), 1, 1)))
    assert j.R == math.inf and not j.covered


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
