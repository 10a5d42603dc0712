"""The four CLI workloads and the checks every one of their runs must pass.

Every workload is one ``percolab`` subcommand with fixed parameters; the
benchmark varies only the seed. ``read_outputs`` checks a finished command:
exit code 0, manifest hashes, and tallies that add up to the configured
size. It returns the counts the figures of merit are computed from.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

Z_95 = 1.959963984540054


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    options: tuple  # fixed (key, value) pairs of the command's config
    replicates: int  # per command; 0 for classify, whose size is the box
    csv: str

    @property
    def size(self) -> int:
        """Replicates per command; for classify, the sites whose 3x-enlarged
        block fits in the box."""
        if self.replicates:
            return self.replicates
        opts = dict(self.options)
        L, N = opts["L"], opts["N"]
        per_axis = math.floor((L + 1 - 3 * N) / (2 * N)) - math.ceil((3 * N - L) / (2 * N)) + 1
        return max(per_axis, 0) ** opts["d"]

    def argv(self, seed: int, workers: int):
        opts = dict(self.options, seed=seed)
        if self.replicates:
            opts["replicates"] = self.replicates
            opts["workers"] = workers
        out = [self.command]
        for key, value in opts.items():
            out.append(f"--set={key}={value}")
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rate-d3", "estimate-rate",
            (("d", 3), ("p", 0.4), ("event", "cutpoint"), ("x", "0,0,0"),
             ("s", "0.25,0.5"), ("n_grid", 8)),
            replicates=240, csv="rates.csv",
        ),
        Workload(
            "surface-d2", "estimate-j",
            (("d", 2), ("p", 0.55), ("n", 8)),
            replicates=400, csv="j.csv",
        ),
        Workload(
            "classify-d2", "classify",
            (("d", 2), ("p", 0.7), ("L", 60), ("N", 12), ("mu1", 100.0)),
            replicates=0, csv="classify.csv",
        ),
        Workload(
            "tail-d2", "upper-tail",
            (("d", 2), ("p", 0.6), ("mu1", 1.55), ("xi", 1.0), ("s", 0.1),
             ("n_grid", 12)),
            replicates=2400, csv="paired.csv",
        ),
    )
}


def wilson(hits: int, trials: int, z: float = Z_95):
    """Wilson score interval, written independently of percolab's."""
    if trials <= 0:
        return (math.nan, math.nan)
    phat = hits / trials
    z2 = z * z
    centre = phat + z2 / (2 * trials)
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return ((centre - half) / (1 + z2 / trials), (centre + half) / (1 + z2 / trials))


@dataclass
class Outputs:
    """What one command produced, and what was wrong with it."""

    problems: list
    items: int = 0  # replicates, or classified sites for classify
    headline: tuple = (0, 0)  # (hits, trials) of the headline proportion
    censored: tuple = (0, 0)  # (censored, total) outcomes
    verdicts: tuple = (0, 0, 0, 0)  # classify: good, bad by condition 1..3


def _rows(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_manifest(out_dir, expected_csv, problems) -> None:
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        problems.append("no manifest.json")
        return
    with open(path) as fh:
        outputs = json.load(fh)["outputs"]
    if [o["path"] for o in outputs] != [expected_csv]:
        problems.append(f"manifest lists {[o['path'] for o in outputs]}")
    for o in outputs:
        target = os.path.join(out_dir, o["path"])
        if not os.path.exists(target) or _sha256(target) != o["sha256"]:
            problems.append(f"sha256 mismatch for {o['path']}")


def _rates(w, rows, replicates, out):
    s_grid = dict(w.options)["s"].split(",")
    if len(rows) != len(s_grid):
        out.problems.append(f"{len(rows)} rate rows, expected {len(s_grid)}")
    for row in rows:
        counts = [int(row[k]) for k in ("hits", "misses", "disconnected", "contaminated")]
        if int(row["replicates"]) != replicates or sum(counts) != replicates:
            out.problems.append(f"tallies {counts} do not sum to {replicates}")
            continue
        resolved = replicates - counts[3]
        lo, hi = wilson(counts[0], resolved)
        if abs(float(row["p_lo"]) - lo) > 1e-12 or abs(float(row["p_hi"]) - hi) > 1e-12:
            out.problems.append(f"Wilson interval of {row['event']} is wrong")
    if rows and not out.problems:
        out.headline = (int(rows[0]["hits"]), replicates - int(rows[0]["contaminated"]))
        out.censored = (
            sum(int(r["contaminated"]) for r in rows), replicates * len(rows)
        )


def _paired(w, rows, replicates, out):
    total = sum(int(r["count"]) for r in rows)
    if total != replicates:
        out.problems.append(f"paired counts sum to {total}, expected {replicates}")
        return
    upper = {}
    censored = 0
    for r in rows:
        upper[r["upper_tail"]] = upper.get(r["upper_tail"], 0) + int(r["count"])
        if r["upper_tail"] == "unknowable" or r["late_cutpoint"] == "censored":
            censored += int(r["count"])
    out.headline = (upper.get("hit", 0), replicates - upper.get("unknowable", 0))
    out.censored = (censored, replicates)


def _jrate(w, rows, replicates, out):
    if len(rows) != 3:  # one row per default xi
        out.problems.append(f"{len(rows)} J rows, expected 3")


def _classify(w, rows, sites, out):
    if len(rows) != sites:
        out.problems.append(f"{len(rows)} sites classified, expected {sites}")
    counts = [0, 0, 0, 0]
    for r in rows:
        if r["verdict"] == "good" and r["failed_condition"] == "":
            counts[0] += 1
        elif r["verdict"] == "bad" and r["failed_condition"] in ("1", "2", "3"):
            counts[int(r["failed_condition"])] += 1
        else:
            out.problems.append(f"bad verdict row {r}")
    out.verdicts = tuple(counts)


_READERS = {
    "estimate-rate": _rates,
    "upper-tail": _paired,
    "estimate-j": _jrate,
    "classify": _classify,
}


def read_outputs(w: Workload, out_dir, exit_code: int, stats: dict, size: int) -> Outputs:
    """Check one finished command; ``size`` is its replicates (or sites)."""
    out = Outputs(problems=[])
    if exit_code != 0:
        out.problems.append(f"exit code {exit_code}")
        return out
    _check_manifest(out_dir, w.csv, out.problems)
    rows = _rows(os.path.join(out_dir, w.csv))
    _READERS[w.command](w, rows, size, out)
    phase = stats.get("phase") or {}
    work = phase.get("work") or [0, 0, 0, 0]
    n_results, partial, censored, cells = work
    if w.replicates:
        expected = size * phase.get("calls", 0)
        if phase.get("calls", 0) < 1 or partial or n_results != expected:
            out.problems.append(f"{n_results} replicates returned, expected {expected}")
        if w.command == "estimate-j":
            out.censored = (censored, cells)
    out.items = n_results
    return out
