"""Golden CLI outputs: every estimator command writes byte-identical CSVs
for a fixed config and seed, at any worker count.

The sha256 values pin the bytes; a change that alters them on purpose says
so and why in CHANGES.md.
"""

import hashlib
import math

import pytest

from percolab.harness import cli_dispatch

GOLDEN = {
    "rate-cutpoint-d2": (
        ["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=11",
         "--set=s=0.25,0.5", "--set=n_grid=6,8", "--set=replicates=30"],
        {"rates.csv": "85abfdbdd721be7469b4a7ed6aa23005325a9143cbf35f9812e9211034d04720"},
    ),
    "rate-free-d2": (
        ["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=12",
         "--set=event=free", "--set=s=0.25,0.75", "--set=x=0.5,0",
         "--set=n_grid=8", "--set=replicates=30"],
        {"rates.csv": "c49a4867eee996670e394b556fe360c90f70d297f34772cbefc3464b8326c0de"},
    ),
    "rate-upper-tail-d2": (
        ["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=13",
         "--set=event=upper_tail", "--set=xi=0.3", "--set=mu1=1.2",
         "--set=n_grid=6,10", "--set=replicates=30"],
        {"rates.csv": "781d671ebce8728374d952912f186cbe29747d9c393bb7392e49c380af08dc79"},
    ),
    "rate-cutpoint-d3": (
        ["estimate-rate", "--set=d=3", "--set=p=0.4", "--set=seed=14",
         "--set=n_grid=4", "--set=replicates=12"],
        {"rates.csv": "cba71002ea1887485679ca03c2f5b60c905fa6f410b338fb3fe0bb84c1216f1e"},
    ),
    "rate-free-d3": (
        ["estimate-rate", "--set=d=3", "--set=p=0.4", "--set=seed=15",
         "--set=event=free", "--set=n_grid=4", "--set=replicates=12"],
        {"rates.csv": "f73886b5280cfcfeecaebb34a7e4c4951339c37a9fcab92eb71ec87bcc534c65"},
    ),
    "rate-upper-tail-d3": (
        ["estimate-rate", "--set=d=3", "--set=p=0.4", "--set=seed=16",
         "--set=event=upper_tail", "--set=n_grid=4", "--set=replicates=12"],
        {"rates.csv": "825439babab7e743f2194096a39bb85572799e4ae3dc412da1b38df620281435"},
    ),
    "rate-emit-replicates": (
        ["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=17",
         "--set=s=0.25,0.5", "--set=n_grid=6", "--set=replicates=20",
         "--set=emit_replicates=true"],
        {"rates.csv": "1b7eb521fbd8e5fd60e03ce20ce50ec370f3db0276fc1c34a378ef240e541a1e",
         "replicates.csv": "44d672b706f1de836b643a8441916d9751ee52969da2308151548506cf7a2ecc"},
    ),
    "j-d2": (
        ["estimate-j", "--set=d=2", "--set=p=0.52", "--set=seed=30", "--set=n=6",
         "--set=s_grid=0.25,0.5,1", "--set=xi_grid=0,0.5", "--set=y_max=0.5",
         "--set=replicates=40"],
        {"j.csv": "020f8f7a1383e661c81531eed0c83c0852a9f65de7c0e6ee2a7d4ab56830095f"},
    ),
    "upper-tail-d2": (
        ["upper-tail", "--set=d=2", "--set=p=0.6", "--set=seed=19",
         "--set=mu1=1.3", "--set=n_grid=8,12", "--set=replicates=60"],
        {"paired.csv": "c00053e6d4f1d3f00c01501bfb62054937774e90339080881c8eab77e57449ac"},
    ),
    "upper-tail-d3": (
        ["upper-tail", "--set=d=3", "--set=p=0.4", "--set=seed=20",
         "--set=n_grid=5", "--set=replicates=20"],
        {"paired.csv": "8ec8bed233e4236675348484884aa4e0a3082cde2504bbbae1cc1b379f60aa1a"},
    ),
    "mu-d2": (
        ["estimate-mu", "--set=d=2", "--set=p=0.6", "--set=seed=21",
         "--set=n_grid=6,10", "--set=replicates=30"],
        {"mu.csv": "888b1f3e05a012bc62f1be89fe8e8d44fd982ed926945948a7075a01d773ed4c"},
    ),
    "mu-d3": (
        ["estimate-mu", "--set=d=3", "--set=p=0.4", "--set=seed=22",
         "--set=x=1,1,0", "--set=n_grid=4", "--set=replicates=12"],
        {"mu.csv": "11afc0f626161de5c1a74e39d43d70f09413fc9dc83dc7ded2732f6807b928b9"},
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_bytes(tmp_path, name, workers):
    argv, expected = GOLDEN[name]
    code = cli_dispatch(argv + [f"--set=workers={workers}", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "manifest.json").exists()
    written = {p.name: _sha256(p) for p in tmp_path.glob("*.csv")}
    assert written == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_partial_run_keeps_replicates_below_the_fault(tmp_path, workers):
    argv = ["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=23",
            "--set=n_grid=6", "--set=replicates=40", "--set=fail_at=17",
            "--set=emit_replicates=true", f"--set=workers={workers}",
            "--out-dir", str(tmp_path)]
    assert cli_dispatch(argv) == 3
    assert not (tmp_path / "manifest.json").exists()
    rates = (tmp_path / "rates.csv").read_text().splitlines()
    reps = (tmp_path / "replicates.csv").read_text().splitlines()
    for lines in (rates, reps):
        assert lines[-1].startswith("# partial: replicate 17 failed")
    header = rates[1].split(",")
    (row,) = rates[2:-1]
    cells = dict(zip(header, row.split(",")))
    assert int(cells["replicates"]) == 17
    assert sum(int(cells[k]) for k in ("hits", "misses", "disconnected", "contaminated")) == 17
    assert [r.split(",")[4] for r in reps[2:-1]] == [str(i) for i in range(17)]


def test_estimate_j_without_unit_rate_reports_nan_radius(tmp_path):
    # no replicate hits the (s=1, y=0) cell, so the search radius R is unknown
    argv = ["estimate-j", "--set=d=2", "--set=p=0.6", "--set=seed=1",
            "--set=n=6", "--set=s_grid=0.25,1", "--set=xi_grid=0,0.5",
            "--set=y_max=0.5", "--set=replicates=20", "--set=workers=1",
            "--out-dir", str(tmp_path)]
    assert cli_dispatch(argv) == 0
    lines = (tmp_path / "j.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert [r["xi"] for r in rows] == ["0.0", "0.5"]
    for r in rows:
        assert math.isfinite(float(r["J"]))
        assert r["R"] == "nan" and r["covered"] == "0"
