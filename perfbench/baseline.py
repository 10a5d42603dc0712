"""Measure every workload on several seeds and print a baseline as JSON.

    python3 perfbench/baseline.py [--seeds 10] [--seconds 25] > perfbench/baseline.json

Run from the repository root. For each workload it makes one ``--trace 0``
run per seed and one ``--trace 1`` run, and reports each end-to-end metric's
median, quartiles and quartile spread (as a share of the median), the
per-layer figures, and the machine the numbers come from. It takes about
twenty-five minutes at the defaults. The expectations of which layer moves which
metric on which workload are in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import BYTES_PER_EDGE, WORKERS, WORKLOADS  # noqa: E402


def provenance() -> dict:
    import cpuinfo
    import numpy
    import scipy

    info = cpuinfo.get_cpu_info()
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": info.get("brand_raw"),
        "l2_cache_bytes": info.get("l2_cache_size"),
        "l3_cache_bytes": info.get("l3_cache_size"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
    }


def bench(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def box_of(d: int, edges: float, l2_bytes) -> dict:
    """Box side, vertices and edges from the sampled edge count."""
    side = 2
    while d * (side - 1) * side ** (d - 1) < edges:
        side += 1
    mb = edges * BYTES_PER_EDGE / 1e6
    return {
        "side": side, "vertices": side**d, "edges": int(edges),
        "per_edge_arrays_mb_computed": mb,
        "per_edge_arrays_over_l2": mb * 1e6 / l2_bytes if l2_bytes else None,
    }


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    prov = provenance()
    out = {"provenance": prov, "seconds": args.seconds, "workloads": {}}
    for name, w in WORKLOADS.items():
        runs = [bench(name, 1000 + k, args.seconds, 0) for k in range(args.seeds)]
        traced = bench(name, 1000, args.seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        metrics = {}
        for key in runs[0]["metrics"]:
            metrics[key] = summary([r["metrics"][key]["value"] for r in runs])
        out["workloads"][name] = {
            "command": w.command,
            "options": dict(w.options),
            "replicates_per_command": w.replicates,
            "workers": WORKERS if w.replicates else 1,
            "box": box_of(dict(w.options)["d"], layers["lattice.sample.edges_per_call"],
                          prov["l2_cache_bytes"]),
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "end_to_end": metrics,
            "per_layer": layers,
        }
        print(f"{name}: done", file=sys.stderr)
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
