"""The per-layer benchmark reaches into the package by name.

``perfbench/cli.py install()`` replaces module-level functions of
``percolab`` by timing spans, and ``_reached`` reads the layers at index 2
of ``metric._grow``'s tuple. The benchmark's own tests run for tens of
seconds and stay outside this suite, so these fast checks catch a refactor
that renames or reshapes one of those names.
"""

import importlib
import os

import numpy as np
import pytest

from percolab import BoxSpec, grow_ball, sample_configuration
from percolab import cutpoints, estimators, harness, metric, renorm

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("cli"), importlib.import_module("spans")


def _snapshot():
    owners = [cutpoints, estimators, harness, metric, renorm, renorm.MacroClassification]
    state = {id(o): dict(vars(o)) for o in owners}
    state["handlers"] = dict(harness._HANDLERS)
    return state


def test_install_resolves_every_wrapped_name_and_restore_puts_it_back(perfbench):
    cli, spans = perfbench
    before = _snapshot()
    tracer = spans.Tracer()
    try:
        cli.install(tracer, traced=True)
        patched = list(tracer._patched)
        assert len(patched) > len(harness._HANDLERS)
        for owner, key, original, is_dict in patched:
            current = owner[key] if is_dict else getattr(owner, key)
            assert current is not original, key
    finally:
        tracer.restore()
    assert _snapshot() == before


def test_reached_counts_the_vertices_of_a_real_grow(perfbench):
    cli, _ = perfbench
    sample = sample_configuration(BoxSpec(2, 8), 0.6, 3)
    source = np.array([sample.box.flat_index((0, 0))])
    grown = metric._grow(sample, source, stop_at_boundary=True)
    reached, total = cli._reached((sample, source), {}, grown)
    ball = grow_ball(sample, (0, 0), stop_at_boundary=True)
    assert reached == int(ball.ball_sizes[-1]) == int((ball.dist != metric._INF32).sum())
    assert total == sample.box.n_vertices
