"""The traced benchmark run (`perfbench/run.py --trace 1`) counts calls by
replacing package functions at the bindings the program calls them
through.  These tests build its tracer against the package as it is, so
a renamed or bypassed binding fails here rather than in a traced run."""

import importlib
from pathlib import Path

import quasieq as qe

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
    tracer = _tracer(monkeypatch)
    config = qe.GeneratorConfig(n=3, count=2, seed=12345, require_paramonotone=True)
    with tracer.installed():
        qe.generate_instances(config)
    for name in GENERATION_LAYERS:
        assert tracer.spans[name].calls > 0, name
    # every uniform the stream hands out is counted through the binding
    per_draw = importlib.import_module("tracing").uniforms_per_draw(3)
    assert tracer.counts["rng.uniforms"] == tracer.counts["generator.draws"] * per_draw
