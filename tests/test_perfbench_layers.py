"""The benchmark's per-layer spans see the calls of a real command.

``perfbench/cli.py install(tracer, traced=True)`` wraps layer entry points
at the modules their callers look them up in. A change of an entry point's
signature or of the module a caller reads it from leaves the wrapper in
place but never called, and the layer's figures read 0; this runs a small
traced ``estimate-j`` and checks that the event, probe and growth layers
record calls.
"""

import importlib
import os

from percolab.harness import cli_dispatch

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
REPLICATES = 4


def test_traced_estimate_j_records_the_event_probe_and_growth_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    cli, spans = importlib.import_module("cli"), importlib.import_module("spans")
    tracer = spans.Tracer()
    cli.install(tracer, traced=True)
    try:
        code = cli_dispatch([
            "estimate-j", "--set=d=2", "--set=p=0.55", "--set=n=8", "--set=seed=3",
            f"--set=replicates={REPLICATES}", "--set=workers=1", "--out-dir", str(tmp_path),
        ])
    finally:
        tracer.restore()
    assert code == 0
    # 5 time slacks times a 5 x 5 grid of y: 125 events on each ball
    assert tracer.stats["cutpoints.event"].calls == 125 * REPLICATES
    assert tracer.stats["cutpoints.probe"].calls > 0
    assert tracer.stats["metric.grow"].calls >= REPLICATES
    # renorm.cond3 is not checked: it wraps renorm._grow, which block
    # condition 3 no longer calls (it runs one bit-parallel BFS per site), so
    # that span reads 0 on every command until the benchmark wraps the BFS
