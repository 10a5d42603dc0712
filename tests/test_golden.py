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
        {"rates.csv": "82ee967a9fceeb9a6843567b06f45a48270ce1eff7e306b22980f672af292026"},
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
        {"rates.csv": "f01dc43b6fb73543164ff8c45a331ffe574df5693f956095fd76cd4a861a8802"},
    ),
    "rate-cutpoint-d3": (
        ["estimate-rate", "--set=d=3", "--set=p=0.4", "--set=seed=14",
         "--set=n_grid=4", "--set=replicates=12"],
        {"rates.csv": "373fded121cf8faf019e17b93ea43cd9323ed660b8f03ca95fc3081482118914"},
    ),
    "rate-free-d3": (
        ["estimate-rate", "--set=d=3", "--set=p=0.4", "--set=seed=15",
         "--set=event=free", "--set=n_grid=4", "--set=replicates=12"],
        {"rates.csv": "f73886b5280cfcfeecaebb34a7e4c4951339c37a9fcab92eb71ec87bcc534c65"},
    ),
    "rate-upper-tail-d3": (
        ["estimate-rate", "--set=d=3", "--set=p=0.4", "--set=seed=16",
         "--set=event=upper_tail", "--set=n_grid=4", "--set=replicates=12"],
        {"rates.csv": "d936c303a5cc1f9bfdb691fdd3d9681a7f022e02be0818cf681c1f98e2c33de0"},
    ),
    "rate-emit-replicates": (
        ["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=17",
         "--set=s=0.25,0.5", "--set=n_grid=6", "--set=replicates=20",
         "--set=emit_replicates=true"],
        {"rates.csv": "8900ff3a439d43fb93cae7c333c139b003d78886f4435ae6422c8210a267c572",
         "replicates.csv": "9c17f9cd69203fbe4061941f6edc2c1c9b1e637d1fadfc5f8a0ffd45e43d21f2"},
    ),
    "j-d2": (
        ["estimate-j", "--set=d=2", "--set=p=0.52", "--set=seed=30", "--set=n=6",
         "--set=s_grid=0.25,0.5,1", "--set=xi_grid=0,0.5", "--set=y_max=0.5",
         "--set=replicates=40"],
        {"j.csv": "3107a85f8b3997e00e8c993102147ebe47e75250e28904a84a0a0ee6818dcb35"},
    ),
    "upper-tail-d2": (
        ["upper-tail", "--set=d=2", "--set=p=0.6", "--set=seed=19",
         "--set=mu1=1.3", "--set=n_grid=8,12", "--set=replicates=60"],
        {"paired.csv": "1b281df92943bd9d43d14ac8e21661049c46ed149fe18334439e397d91518772"},
    ),
    "upper-tail-d3": (
        ["upper-tail", "--set=d=3", "--set=p=0.4", "--set=seed=20",
         "--set=n_grid=5", "--set=replicates=20"],
        {"paired.csv": "9ec0a4d08c92482796df24777921d49ba9c0db8d7755278e117a1431d78d9c14"},
    ),
    "mu-d2": (
        ["estimate-mu", "--set=d=2", "--set=p=0.6", "--set=seed=21",
         "--set=n_grid=6,10", "--set=replicates=30"],
        {"mu.csv": "2fe3e8529df5e2e2c5cfac5aba3f8d986fd69c4f65470edb8dddc9dd5b4354b7"},
    ),
    "mu-d3": (
        ["estimate-mu", "--set=d=3", "--set=p=0.4", "--set=seed=22",
         "--set=x=1,1,0", "--set=n_grid=4", "--set=replicates=12"],
        {"mu.csv": "c0f6ea4fae35466906b6095e85ec0fa28df3eebd82926e449a56c08de2be280d"},
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
    argv = ["estimate-j", "--set=d=2", "--set=p=0.6", "--set=seed=4194304",
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
