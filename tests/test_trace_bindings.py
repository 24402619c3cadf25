"""The traced benchmark run (`perfbench/run.py --trace 1`) counts calls by
replacing package functions at the bindings the program calls them
through.  These tests build its tracer against the package as it is, so
a renamed or bypassed binding fails here rather than in a traced run."""

import importlib
from pathlib import Path

import numpy as np

import quasieq as qe
from quasieq import generator, monotonicity
from quasieq.rng import UniformStream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOLVE_LAYERS = (
    "fractional.best_response",
    "fractional.dinkelbach",
    "oracles.subgradient",
    "sets.project",
    "linalg.as_vector",
)
GENERATION_LAYERS = (
    "generator",
    "rng",
    "monotonicity.check",
    "linalg.symmetric_eigenvalues",
    "linalg.singular_values",
)


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # raises KeyError when a binding it patches is gone
    return importlib.import_module("tracing").Tracer()


def test_every_solve_layer_is_counted(monkeypatch):
    tracer = _tracer(monkeypatch)
    inst = qe.generate_instances(qe.GeneratorConfig(n=5, count=1, seed=12345))[0]
    with tracer.installed():
        for variant in ("ng1", "ng2"):
            qe.normal_subgradient_solve(
                qe.AffineFractionalOracle(inst), inst.box,
                qe.SolverConfig(variant=variant, trace_keep=0),
            )
    assert tracer.spans["solver.ng1"].calls == 1
    assert tracer.spans["solver.ng2"].calls == 1
    for name in SOLVE_LAYERS:
        assert tracer.spans[name].calls > 0, name


def test_every_generation_layer_is_counted(monkeypatch):
    config = qe.GeneratorConfig(n=3, count=2, seed=12345, require_paramonotone=True)
    per_draw = importlib.import_module("tracing").uniforms_per_draw(3)
    # with an accept test that certifies nothing, every candidate the
    # screen leaves goes through generator.check_paramonotone
    tracer = _tracer(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(monotonicity, "_certified", lambda sym, shift: np.zeros(len(sym), bool))
        with tracer.installed():
            qe.generate_instances(config)
    for name in GENERATION_LAYERS:
        assert tracer.spans[name].calls > 0, name
    # every uniform the stream hands out is counted through the binding
    assert tracer.counts["rng.uniforms"] == tracer.counts["generator.draws"] * per_draw
    # unpatched, only the band (neither ruled out nor certified) reaches
    # the certificate; up to the last accepted draw this stream has none
    tracer = _tracer(monkeypatch)
    with tracer.installed():
        last = qe.generate_instances(config)[-1]
    first = generator._FIRST_BLOCK // per_draw
    A, _, A1, b1, c, d = generator._fields(UniformStream(12345).uniforms(first * per_draw)
                                           .reshape(first, per_draw), 3)
    seen = int(np.flatnonzero(d == last.d)[0]) + 1  # the draws up to the last accepted one
    out, sure = monotonicity.screen(A[:seen], A1[:seen], b1[:seen], c[:seen], d[:seen])
    band = int(np.count_nonzero(~out & ~sure))
    assert tracer.spans["monotonicity.check"].calls == band == 0
