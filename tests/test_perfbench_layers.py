"""The benchmark's per-layer spans see the calls of a real command.

``perfbench/cli.py install(tracer, traced=True)`` wraps layer entry points
at the modules their callers look them up in. A change of an entry point's
signature or of the module a caller reads it from leaves the wrapper in
place but never called, and the layer's figures read 0; these run small
traced commands and check that the layers record their calls.
"""

import importlib
import os

import pytest

from percolab.harness import cli_dispatch

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
REPLICATES = 4


def _traced(monkeypatch, argv):
    """The exit code and the tracer of ``argv`` run under ``install``."""
    monkeypatch.syspath_prepend(PERFBENCH)
    cli, spans = importlib.import_module("cli"), importlib.import_module("spans")
    tracer = spans.Tracer()
    cli.install(tracer, traced=True)
    try:
        code = cli_dispatch(argv + [f"--set=replicates={REPLICATES}", "--set=workers=1"])
    finally:
        tracer.restore()
    return code, tracer


def test_traced_estimate_j_records_the_event_probe_and_growth_layers(tmp_path, monkeypatch):
    code, tracer = _traced(monkeypatch, [
        "estimate-j", "--set=d=2", "--set=p=0.55", "--set=n=8", "--set=seed=3",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    # the 125 events of each ball (5 time slacks times a 5 x 5 grid of y)
    # are scored in one call
    assert tracer.stats["cutpoints.event"].calls == REPLICATES
    assert tracer.stats["cutpoints.probe"].calls > 0
    assert tracer.stats["metric.grow"].calls >= REPLICATES
    # the censored share reads the replicates' outcome codes: one phase
    # returns a tuple of 125 codes per replicate
    phase = tracer.stats["phase"]
    assert phase.calls == 1
    replicates, partial, _, cells = phase.work
    assert (replicates, partial, cells) == (REPLICATES, 0, 125 * REPLICATES)
    # renorm.cond3 is not checked: it wraps renorm._grow, which block
    # condition 3 no longer calls (it runs one bit-parallel BFS per site), so
    # that span reads 0 on every command until the benchmark wraps the BFS


def test_traced_estimate_rate_records_every_replicate_and_one_phase_per_n(
    tmp_path, monkeypatch
):
    code, tracer = _traced(monkeypatch, [
        "estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=3",
        "--set=s=0.25,0.5", "--set=n_grid=6,8", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert tracer.stats["estimators.replicate"].calls == 2 * REPLICATES
    phase = tracer.stats["phase"]
    assert phase.calls == 2
    # summed over the two n: replicates, partial runs, censored cells, cells
    replicates, partial, _, cells = phase.work
    assert (replicates, partial, cells) == (2 * REPLICATES, 0, 2 * 2 * REPLICATES)


@pytest.mark.parametrize("command, values", [
    ("estimate-rate", ["--set=event=upper_tail", "--set=n_grid=6"]),
    ("upper-tail", ["--set=n_grid=6"]),
    ("estimate-mu", ["--set=n_grid=6"]),
])
def test_traced_target_commands_record_one_replicate_span_per_replicate(
    tmp_path, monkeypatch, command, values
):
    code, tracer = _traced(monkeypatch, [
        command, "--set=d=2", "--set=p=0.6", "--set=seed=3", *values,
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert tracer.stats["estimators.replicate"].calls == REPLICATES
