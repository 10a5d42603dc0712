"""percolab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the repository root. It runs one CLI command at a time, each in
a fresh interpreter (``perfbench/cli.py``), and checks every command's
outputs. With ``--trace 0`` it repeats the workload's command at
``workers=2`` for about S seconds and reports the end-to-end figures of
merit; the first command's seed also runs at ``workers=1``, and the two
must write byte-identical CSVs (the parallel contract). With ``--trace 1``
it runs the command three times per seed, untraced at ``workers=2`` and
``workers=1`` and traced at ``workers=1``, requires byte-identical CSVs
from all three, and reports the per-layer figures.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every figure by name and unit. Command seeds come from ``--seed`` and
differ in their high bits, because percolab derives replicate seeds as
``seed XOR index``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from workloads import WORKLOADS, Outputs, Workload, read_outputs, wilson

HERE = os.path.dirname(os.path.abspath(__file__))
CLI = os.path.join(HERE, "cli.py")
WORKERS = 2
MIN_COMMANDS = 3  # set-up time is a median over at least this many commands
DEADLINE_S = 170.0  # the whole run ends before 180 s
SEED_SHIFT = 20  # replicate indices stay below 2**20
BYTES_PER_EDGE = 25  # uint64 index + uint64 hash + float64 uniform + bool


@dataclass
class Command:
    seed: int
    workers: int
    size: int  # replicates, or sites for classify
    setup_s: float
    stats: dict
    out: Outputs
    csv_bytes: bytes

    @property
    def phase(self) -> dict:
        return self.stats.get("phase") or {}

    @property
    def ok(self) -> bool:
        return not self.out.problems


class Bench:
    def __init__(self, workload: Workload, seed: int, scratch: str):
        self.w = workload
        self.scratch = scratch
        self.started = time.monotonic()
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.commands: list[Command] = []
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))

    def next_seed(self) -> int:
        return self.rng.getrandbits(40) << SEED_SHIFT

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run(self, seed, workers, traced=False) -> Command:
        size = self.w.size
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        stats_path = os.path.join(out_dir, "stats.json")
        argv = [sys.executable, CLI, stats_path, "traced" if traced else "plain"]
        argv += self.w.argv(seed, workers) + ["--out-dir", out_dir]
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        spawned = time.monotonic()
        # its own process group, so that a timeout also stops the worker pool
        proc = subprocess.Popen(
            argv, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            stderr = proc.communicate(timeout=timeout)[1]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stderr = proc.communicate()[1] + f"timed out after {timeout:.0f} s".encode()
        exit_code = proc.returncode
        stderr = stderr.decode(errors="replace").strip()
        stats = {}
        if os.path.exists(stats_path):
            with open(stats_path) as fh:
                stats = json.load(fh)
        out = read_outputs(self.w, out_dir, exit_code, stats, size)
        if stderr and exit_code != 0:
            out.problems.append(stderr.splitlines()[-1])
        csv_path = os.path.join(out_dir, self.w.csv)
        csv_bytes = b""
        if os.path.exists(csv_path):
            with open(csv_path, "rb") as fh:
                csv_bytes = fh.read()
        start = (stats.get("command") or {}).get("first_start")
        cmd = Command(
            seed=seed, workers=workers, size=size,
            setup_s=(start - spawned) if start is not None else math.nan,
            stats=stats, out=out, csv_bytes=csv_bytes,
        )
        shutil.rmtree(out_dir)
        self.commands.append(cmd)
        return cmd

    def same_csv(self, a: Command, b: Command, what: str) -> None:
        if not (a.ok and b.ok):
            return
        if a.csv_bytes != b.csv_bytes:
            msg = f"{what}: {self.w.csv} differs (seed {a.seed})"
            a.out.problems.append(msg)
            b.out.problems.append(msg)

    def repeat(self, seconds: float, minimum: int, step) -> list:
        """Call ``step`` at least ``minimum`` times, then while another call
        as long as the last one still ends within ``seconds``."""
        done, begin, last = [], self.elapsed(), 0.0
        while len(done) < minimum or self.elapsed() - begin + last <= seconds:
            t0 = self.elapsed()
            done.append(step())
            last = self.elapsed() - t0
            if self.elapsed() > DEADLINE_S / 2:
                break
        return done

    def end_to_end(self, seconds: float) -> list[Command]:
        """Commands at ``workers=2`` for about ``seconds``. The first seed
        also runs at ``workers=1`` beforehand: the parallel contract wants
        byte-identical CSVs."""
        seed = self.next_seed()
        serial = self.run(seed, 1) if self.w.replicates else None
        seeds = itertools.chain([seed], iter(self.next_seed, None))
        measured = self.repeat(
            seconds, MIN_COMMANDS, lambda: self.run(next(seeds), WORKERS)
        )
        if serial:
            self.same_csv(serial, measured[0], "workers=1 vs workers=2")
        return measured

    def traced_runs(self, seconds: float) -> list[tuple]:
        """(untraced workers=2, untraced workers=1, traced workers=1) on one
        seed; classify has no workers, so its first command serves twice."""

        def triple():
            seed = self.next_seed()
            pooled = self.run(seed, WORKERS)
            serial = self.run(seed, 1) if self.w.replicates else pooled
            traced = self.run(seed, 1, traced=True)
            self.same_csv(pooled, serial, "workers=1 vs workers=2")
            self.same_csv(serial, traced, "traced vs untraced")
            return pooled, serial, traced

        return self.repeat(seconds, 1, triple)

    def counts(self):
        attempted = sum(c.size for c in self.commands)
        failed = sum(c.size for c in self.commands if not c.ok)
        return attempted, failed


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def figures(cmds: list[Command], setups: list[Command]) -> dict:
    """End-to-end figures of merit over the untraced ``workers=2`` commands
    of a run; set-up time over every command in ``setups``."""
    good = [c for c in cmds if c.ok]
    rate, rate_cpu = [], []
    for c in good:
        items = c.out.items
        rate.append(items / c.phase["total_s"] if c.phase.get("total_s") else math.nan)
        rate_cpu.append(items / c.phase["cpu_s"] if c.phase.get("cpu_s") else math.nan)
    hits = sum(c.out.headline[0] for c in good)
    trials = sum(c.out.headline[1] for c in good)
    cpu = sum(c.phase.get("cpu_s", 0.0) for c in good)
    halfwidth = 0.0
    if trials:
        lo, hi = wilson(hits, trials)
        halfwidth = (hi - lo) / 2 * math.sqrt(cpu)
    censored = sum(c.out.censored[0] for c in good)
    outcomes = sum(c.out.censored[1] for c in good)
    return {
        "setup_s": (_median(c.setup_s for c in setups if c.ok), "s"),
        "replicates_per_s": (_median(rate), "1/s"),
        "replicates_per_cpu_s": (_median(rate_cpu), "1/s"),
        "peak_rss_mb": (_median(c.stats.get("maxrss_kib", 0) / 1024 for c in good), "MB"),
        "censored_share": (censored / outcomes if outcomes else 0.0, "share"),
        "halfwidth_at_1_cpu_s": (halfwidth, "sqrt_s"),
        "headline_hits": (hits, "count"),
    }


END_TO_END = ("setup_s", "replicates_per_s", "replicates_per_cpu_s", "peak_rss_mb")


def _span(stats_list, name):
    """Sum one span's statistics over several commands."""
    total = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0,
             "work": None, "durations": []}
    for stats in stats_list:
        s = stats.get(name)
        if not s:
            continue
        for key in ("calls", "total_s", "self_s", "cpu_s"):
            total[key] += s[key]
        total["durations"] += s["durations"]
        if s["work"] is not None:
            if total["work"] is None:
                total["work"] = [0] * len(s["work"])
            total["work"] = [a + b for a, b in zip(total["work"], s["work"])]
    return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def tail_percentile(n: int) -> float:
    """Highest of 99.9/99/95/90/50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if n * (1 - q / 100) >= 10:
            return q
    return 50.0


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1)]


def per_layer(w: Workload, triples, notes: list) -> dict:
    """Per-layer figures from traced commands, against their untraced twins."""
    triples = [t for t in triples if all(c.ok for c in t)]
    pooled = [t[0] for t in triples]
    serial = [t[1] for t in triples]
    traced = [t[2] for t in triples]
    st = [c.stats for c in traced]
    phase = _span(st, "phase")
    phase_s = phase["total_s"]
    items = phase["work"][0] if phase["work"] else 0
    m = {}

    def layer(prefix, span, self_time=False):
        t = span["self_s"] if self_time else span["total_s"]
        m[f"{prefix}.calls"] = (span["calls"], "count")
        m[f"{prefix}.ms_per_call"] = (1000 * _ratio(t, span["calls"]), "ms")
        m[f"{prefix}.share"] = (_ratio(t, phase_s), "share")

    sample = _span(st, "lattice.sample")
    layer("lattice.sample", sample)
    edges = _ratio(sample["work"][0], sample["calls"]) if sample["work"] else 0.0
    m["lattice.sample.edges_per_call"] = (edges, "count")
    m["lattice.sample.mb_per_call"] = (edges * BYTES_PER_EDGE / 1e6, "MB")

    grow = _span(st, "metric.grow")
    layer("metric.grow", grow)
    reached, sampled = grow["work"] or (0, 0)
    m["metric.grow.vertices_per_call"] = (_ratio(reached, grow["calls"]), "count")
    m["metric.grow.reached_share"] = (_ratio(reached, sampled), "share")

    layer("cutpoints.event", _span(st, "cutpoints.event"), self_time=True)
    layer("cutpoints.probe", _span(st, "cutpoints.probe"))

    label = _span(st, "renorm.label")
    sites = 0 if w.replicates else items
    m["renorm.label.ms_per_site"] = (1000 * _ratio(label["total_s"], sites), "ms")
    cond3 = _span(st, "renorm.cond3")
    m["renorm.cond3.grows"] = (cond3["calls"], "count")
    m["renorm.cond3.ms_per_grow"] = (1000 * _ratio(cond3["total_s"], cond3["calls"]), "ms")
    m["renorm.cond3.share"] = (_ratio(cond3["total_s"], phase_s), "share")
    vertices = cond3["work"][0] if cond3["work"] else 0
    m["renorm.cond3.vertices_per_grow"] = (_ratio(vertices, cond3["calls"]), "count")
    verdicts = [sum(c.out.verdicts[k] for c in traced) for k in range(4)]
    for key, count in zip(("good", "bad_c1", "bad_c2", "bad_c3"), verdicts):
        m[f"renorm.verdicts.{key}"] = (count, "count")

    rep = _span(st, "estimators.replicate")
    q = tail_percentile(len(rep["durations"]))
    notes.append(
        f"estimators.replicate.ms_tail is the p{q:g} of {len(rep['durations'])} replicates"
    )
    m["estimators.replicate.ms_p50"] = (1000 * _percentile(rep["durations"], 50), "ms")
    m["estimators.replicate.ms_tail"] = (1000 * _percentile(rep["durations"], q), "ms")
    m["estimators.replicate.self_share"] = (_ratio(rep["self_s"], rep["total_s"]), "share")
    fig = figures(pooled, pooled)
    m["estimators.censored_share"] = fig["censored_share"]
    m["estimators.halfwidth_at_1_cpu_s"] = fig["halfwidth_at_1_cpu_s"]

    def wall(cmds):
        return sum(c.phase.get("total_s", 0.0) for c in cmds)

    efficiency = overhead = 0.0
    if w.replicates:
        efficiency = _ratio(wall(serial), WORKERS * wall(pooled))
        overhead = _ratio(wall(pooled) - wall(serial) / WORKERS, len(pooled))
    m["parallel.efficiency"] = (efficiency, "share")
    m["parallel.overhead_s"] = (overhead, "s")

    output = _span(st, "harness.output")
    m["harness.output_ms"] = (1000 * _ratio(output["total_s"], len(traced)), "ms")
    serial_cpu = sum(c.phase.get("cpu_s", 0.0) for c in serial)
    m["trace.overhead_share"] = (1 - _ratio(serial_cpu, phase["cpu_s"]), "share")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "percolab", "harness.py")):
        print("perfbench: run from the repository root (no src/percolab here)",
              file=sys.stderr)
        return 2

    os.makedirs(".perfbench", exist_ok=True)
    scratch = tempfile.mkdtemp(dir=".perfbench")
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, scratch)
        notes = []
        if args.trace:
            metrics = per_layer(bench.w, bench.traced_runs(args.seconds), notes)
        else:
            fig = figures(bench.end_to_end(args.seconds), bench.commands)
            for name, (value, unit) in fig.items():
                if name not in END_TO_END:
                    print(f"# {name} = {value!r} {unit}")
            metrics = {name: fig[name] for name in END_TO_END}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = bench.counts()
    for c in bench.commands:
        for problem in c.out.problems:
            print(f"# FAILED seed={c.seed} workers={c.workers}: {problem}")
    print(f"# failed_share = {failed / attempted!r} share")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
