"""Golden CLI outputs: every command writes byte-identical outputs for a
fixed config and seed, and every estimator command does so at any worker
count.

The sha256 values pin the bytes; a change that alters them on purpose says
so and why in CHANGES.md.
"""

import csv
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
         "--set=event=free", "--set=s=2.5,3.5", "--set=x=0.5,0",
         "--set=n_grid=8", "--set=replicates=30"],
        {"rates.csv": "6e6f907d263792c52f60fe96e70e13897741596e6a2220d2e59a67c462ea4adf"},
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
        ["estimate-rate", "--set=d=3", "--set=p=0.4", "--set=seed=12",
         "--set=event=free", "--set=s=2.5,3.5", "--set=n_grid=4",
         "--set=replicates=30"],
        {"rates.csv": "76672f4a46a13ed31ecfc678c9a8ad755d4387fa1ba52fdcf6a6c70e00ed0f6b"},
    ),
    "rate-upper-tail-d3": (
        ["estimate-rate", "--set=d=3", "--set=p=0.4", "--set=seed=16",
         "--set=event=upper_tail", "--set=n_grid=4", "--set=replicates=12"],
        {"rates.csv": "825439babab7e743f2194096a39bb85572799e4ae3dc412da1b38df620281435"},
    ),
    "rate-emit-replicates": (
        ["estimate-rate", "--set=d=2", "--set=p=0.52", "--set=seed=17",
         "--set=s=0.25,0.5", "--set=n_grid=6", "--set=replicates=20",
         "--set=emit_replicates=true"],
        {"rates.csv": "d742f8b61292fdaa2a5472d25e17084251aa68e08cf28701922be5646d3d92ac",
         "replicates.csv": "5d6151e62b66b3e8a13cbecac7f4202bd17f1dd6ff3ca569f8b28f634b525ebf"},
    ),
    "j-d2": (
        ["estimate-j", "--set=d=2", "--set=p=0.52", "--set=seed=30", "--set=n=6",
         "--set=s_grid=0.25,0.5,1", "--set=xi_grid=0,0.5", "--set=y_max=0.5",
         "--set=replicates=40"],
        {"j.csv": "736b91126b55cdfdfeaf1935528440b36970097dd2702d32cd615f677bf73c40"},
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

SAMPLE = ["sample", "--set=d=2", "--set=L=8", "--set=p=0.7", "--set=seed=3",
          "--set=out=sample.bin"]
SITES = ["--set=d=2", "--set=L=20", "--set=p=0.75", "--set=seed=4", "--set=N=4",
         "--set=mu1=10"]

# commands without a worker count; ``{sample}`` is the file SAMPLE writes
GOLDEN_SERIAL = {
    "sample-d2": (
        SAMPLE,
        {"sample.bin": "3f72102df988bac80b51c42fb2455fabbc42830f2892c96c09e3f5d55bd7b01a"},
    ),
    "ball-d2": (
        ["ball", "--set=sample={sample}", "--set=source=0,0"],
        {"dist.csv": "3d5487bc661cafe46cc47f8deea66bc77f3a333f435c544bf9aca17eb0b9f58a"},
    ),
    "cutpoint-scan-d2": (
        ["cutpoint-scan", "--set=d=2", "--set=L=10", "--set=p=0.7", "--set=seed=28"],
        {"cutpoints.csv": "9080eaf2dc18805358938884b5b12d5dd35791ecb1d50adca7aba9aca7b925a8"},
    ),
    # good sites and sites that fail conditions 1 and 3
    "classify-d2": (
        ["classify"] + SITES,
        {"classify.csv": "ccef006d6be494710cd4579f22406522efa05c22b549a6bab91b365f68621fc4"},
    ),
    "route-d2": (
        ["route"] + SITES + ["--set=sites=-1,-1;-1,0;0,0"],
        {"route.csv": "a29b746caaf5159d3ec34bd1f8862b0aae3f10565f16b27e79f9ab36bd905922"},
    ),
    # three parallel slabs, the event holds in one of them
    "slab-d3": (
        ["slab", "--set=d=3", "--set=L=9", "--set=p=0.5", "--set=seed=5",
         "--set=N=1", "--set=n=6", "--set=rho=1", "--set=xi=0.4"],
        {"slab.csv": "62843b24b1715596cc9f5cd58d6497ea2e35e2bb4f358932719e239963900a37"},
    ),
    **{
        f"lemma-{lemma}": (
            ["lemma-check", f"--set=lemma={lemma}", "--set=instances=4",
             "--set=seed=7"],
            {"lemma.csv": digest},
        )
        for lemma, digest in {
            "projection": "a58b0469aa08ec230872fb64a0c8ed73970f4bc715f3dc74edb398629de71a31",
            "distinct-subset": "11daf46aff7623091903f5ec596f52588bb1a07ca099c8ca7ece451c3ff33b69",
            "separated-matching": "1157df50ad22edf9150539e5466bdbd5de469950badaa6fd154776475e1af50c",
            "disjoint-paths": "c2c02b9c64b165ec8f385107b3e4c86bd5db6a070b7e1db778023b1205eabd0b",
            "axis-avoiding": "a8cfd49bcb372c988e6bb6a9b7e89483ab317639acd454c1781e3ccc41e6353a",
            "exterior-boundary": "5bd2f4338867405d4b136bf46f4cf9f289841a3d7eee0dd68a67a80c3611b80c",
            "animals": "2519a270cc16e7b732f65b5955409deba20db42a78e2d8b186bc3194876c4a0e",
        }.items()
    },
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_bytes(tmp_path, name, workers):
    argv, expected = GOLDEN[name]
    code = cli_dispatch(argv + [f"--set=workers={workers}", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "manifest.json").exists()
    written = {p.name: _sha256(p) for p in tmp_path.glob("*.csv")}
    assert written == expected
    if "rates.csv" in written:
        # a pin where every replicate hits (or misses) cannot see a change
        # of the sample stream that keeps the event trivially decided
        assert any(
            0 < int(row["hits"]) < int(row["hits"]) + int(row["misses"])
            for row in _rows(tmp_path / "rates.csv")
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_SERIAL))
def test_golden_serial_output_bytes(tmp_path, name):
    argv, expected = GOLDEN_SERIAL[name]
    sample = tmp_path / "in" / "sample.bin"
    assert cli_dispatch(SAMPLE + ["--out-dir", str(sample.parent)]) == 0
    out = tmp_path / "out"
    argv = [a.format(sample=sample) for a in argv]
    assert cli_dispatch(argv + ["--out-dir", str(out)]) == 0
    assert (out / "manifest.json").exists()
    written = {p.name: _sha256(p) for p in out.iterdir() if p.name != "manifest.json"}
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
