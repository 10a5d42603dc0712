"""Self-tests of the benchmark: tiny workloads, metric names and units, and
removal of the tracing wrappers.

    python -m pytest perfbench/test_perfbench.py
"""

import contextlib
import dataclasses
import io
import json
import os
import sys

import pytest

import cli
import run
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = {
    "rate-d3": dict(replicates=6),
    # estimate-j aborts when its (s=1, y=0) cell has no hits (a known bug);
    # at p=0.52 that cell is hit in about 5% of replicates
    "surface-d2": dict(options=(("d", 2), ("p", 0.52), ("n", 8)),
                       replicates=120),
    # one site, so condition 3 still runs its 64 grows
    "classify-d2": dict(options=(("d", 2), ("p", 0.7), ("L", 40), ("N", 12), ("mu1", 100.0))),
    "tail-d2": dict(replicates=40),
}


def _run(monkeypatch, name, trace):
    monkeypatch.chdir(ROOT)
    tiny = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    monkeypatch.setitem(run.WORKLOADS, name, tiny)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, name, trace):
    result = _run(monkeypatch, name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_tracing_wrappers_are_removed():
    from percolab import cutpoints, estimators, harness, metric, renorm

    owners = (cutpoints, estimators, harness, metric, renorm, renorm.MacroClassification)
    before = [dict(vars(o)) for o in owners] + [dict(harness._HANDLERS)]
    tracer = Tracer()
    cli.install(tracer, traced=True)
    assert metric._grow is not before[3]["_grow"]
    tracer.restore()
    after = [dict(vars(o)) for o in owners] + [dict(harness._HANDLERS)]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "tail-d2", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
