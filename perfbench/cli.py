"""Run one percolab CLI command with phase timers, optionally traced per layer.

    python perfbench/cli.py STATS_JSON {plain,traced} <percolab arguments>

``plain`` times only the command handler and its replicate phase
(``run_parallel``, or ``classify_boxes`` for ``classify``): a handful of
spans per command. ``traced`` also wraps every layer entry point listed in
``install``; run it with ``workers=1`` so that all replicates execute in this
process. The span statistics and the peak resident set size of the process
that ran the replicates go to STATS_JSON; the exit code is the CLI's.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys

from spans import Tracer

REPLICATE = "estimators.replicate"
PROBE = "cutpoints.probe"


def _results(args, kwargs, run):
    """Replicates returned and, for outcome-code tuples, censored cells."""
    from percolab.cutpoints import EventOutcome
    from percolab.estimators import OUTCOME_CODES

    unknowable = OUTCOME_CODES[EventOutcome.UNKNOWABLE]
    cells = censored = 0
    for codes in run.results:
        if isinstance(codes, tuple) and all(type(c) is int for c in codes):
            cells += len(codes)
            censored += sum(c == unknowable for c in codes)
    return len(run.results), int(run.partial), censored, cells


def _sites(args, kwargs, classification):
    return len(classification.records), 0, 0, 0


def _edges(args, kwargs, sample):
    return (sample.box.n_edges,)


def _reached(args, kwargs, grown):
    layers = grown[2]
    return sum(len(layer) for layer in layers), args[0].box.n_vertices


def install(tracer: Tracer, traced: bool) -> None:
    """Wrap the entry points at the modules their callers look them up in."""
    from percolab import cutpoints, estimators, harness, metric, renorm

    for command in list(harness._HANDLERS):
        tracer.wrap(harness._HANDLERS, command, "command")
    tracer.wrap(harness, "run_parallel", "phase", work=_results, cpu=True)
    tracer.wrap(estimators, "run_parallel", "phase", work=_results, cpu=True)
    tracer.wrap(harness, "classify_boxes", "phase", work=_sites, cpu=True)
    if not traced:
        return
    for owner in (estimators, harness):
        tracer.wrap(owner, "sample_configuration", "lattice.sample", work=_edges)
    tracer.wrap(metric, "_grow", "metric.grow", work=_reached, skip_under=(PROBE,))
    tracer.wrap(estimators, "event_A", "cutpoints.event")
    tracer.wrap(estimators, "event_A_free", "cutpoints.event")
    tracer.wrap(cutpoints, "grow_ball_flats", PROBE)
    tracer.wrap(renorm, "_induced_components", "renorm.label")
    tracer.wrap(renorm, "_component_diameters", "renorm.label")
    tracer.wrap(renorm, "_grow", "renorm.cond3", work=_reached)
    tracer.wrap(harness, "_run_one_n", REPLICATE)
    for name in ("_surface_replicate", "_paired_replicate", "_mu_replicate"):
        tracer.wrap(estimators, name, REPLICATE)
    tracer.wrap(harness, "write_csv", "harness.output")
    tracer.wrap(harness, "write_manifest", "harness.output")
    tracer.wrap(renorm.MacroClassification, "to_csv", "harness.output")


def main(argv) -> int:
    stats_path, mode, cli_args = argv[0], argv[1], argv[2:]
    from percolab.harness import cli_dispatch

    tracer = Tracer(keep_durations=(REPLICATE,))
    install(tracer, traced=mode == "traced")
    try:
        code = cli_dispatch(cli_args)
    finally:
        tracer.restore()
    stats = {name: dataclasses.asdict(s) for name, s in tracer.stats.items()}
    # Peak resident set (KiB on Linux) of the process that ran the
    # replicates: the largest joined worker, else this process. The parent's
    # own peak is its imports whenever a pool runs the work.
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    stats["maxrss_kib"] = workers or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
