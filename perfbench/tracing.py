"""Per-module tracing for the traced benchmark run, applied from outside.

`Tracer.installed()` replaces the public functions of each quasieq module,
at every binding the program calls them through, with wrappers that count
calls, sum inclusive and self time (a span's duration minus its direct
child spans) and count exceptions by type.  Leaving the block restores
the originals, so untraced calls run the unmodified program.  The
wrappers are built once, so installing them costs only a few setattr
calls and can be done around every single timed call.

Spans are aggregated per name as they close rather than stored one by
one: a paper batch makes 75k to 95k `as_vector` calls, and keeping each
span would cost more memory than the program itself.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import quasieq
from quasieq import fractional, generator, linalg, monotonicity, oracles, rng, sets, solver
from quasieq.errors import ConvergenceError

VARIANTS = ("ng1", "ng2")
STATUSES = tuple(quasieq.SolveStatus)


def uniforms_per_draw(n: int) -> int:
    """Uniforms one candidate instance consumes: A, b, A1, b1, c, d."""
    return 2 * n * n + 3 * n + 1


class Span:
    """Aggregate of every closed span with one name."""

    __slots__ = ("calls", "seconds", "self_seconds", "errors")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.errors: Counter[str] = Counter()


class Tracer:
    """Per-name span aggregates and counters for the calls made while
    `installed()` is active."""

    def __init__(self):
        self.spans: defaultdict[str, Span] = defaultdict(Span)
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time accumulated per open span
        self._bindings = [(owner, attr, owner.__dict__[attr],
                           self._wrap(owner.__dict__[attr], name, after, before))
                          for owner, attr, name, after, before in self._patches()]

    def _wrap(self, original, name, after=None, before=None):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        fixed = None if callable(name) else spans[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = fixed if fixed is not None else spans[name(args, kwargs)]
            token = before() if before is not None else None
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.errors[type(exc).__name__] += 1
                raise
            finally:
                dt = clock() - t0
                span.calls += 1
                span.seconds += dt
                span.self_seconds += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
            if after is not None:
                after(args, kwargs, result, token)
            return result

        return wrapper

    def _patches(self):
        """(owner, attribute, span name, after-hook, before-hook) for every
        binding the workloads reach."""
        counts = self.counts

        def solve_name(args, kwargs):
            config = kwargs.get("config", args[2] if len(args) > 2 else None)
            return f"solver.{config.variant}"

        def after_solve(args, kwargs, report, _):
            span = solve_name(args, kwargs)
            counts[f"{span}.iterations"] += report.iterations
            counts[f"{span}.status.{report.status.name.lower()}"] += 1

        def after_dinkelbach(args, kwargs, result, _):
            counts["fractional.dinkelbach.rounds"] += result.iterations

        def after_check(args, kwargs, report, _):
            counts["monotonicity.accepted"] += bool(report.verdict)

        def after_uniforms(args, kwargs, values, _):
            counts["rng.uniforms"] += len(values)

        def after_generate(args, kwargs, instances, uniforms_before):
            config = kwargs.get("config", args[0] if args else None)
            used = counts["rng.uniforms"] - uniforms_before
            counts["generator.draws"] += used // uniforms_per_draw(config.n)
            counts["generator.accepted"] += len(instances)

        def uniforms_so_far():
            return counts["rng.uniforms"]

        patches = [
            (quasieq, "normal_subgradient_solve", solve_name, after_solve, None),
            (oracles, "best_response_residual", "fractional.best_response", None, None),
            (fractional, "dinkelbach_minimize", "fractional.dinkelbach", after_dinkelbach, None),
            (oracles, "fractional_diagonal_subgradient", "oracles.subgradient", None, None),
            (sets.BoxSet, "project", "sets.project", None, None),
            (linalg, "symmetric_eigenvalues", "linalg.symmetric_eigenvalues", None, None),
            (monotonicity, "symmetric_eigenvalues", "linalg.symmetric_eigenvalues", None, None),
            (monotonicity, "singular_values", "linalg.singular_values", None, None),
            (quasieq, "check_paramonotone", "monotonicity.check", after_check, None),
            (generator, "check_paramonotone", "monotonicity.check", after_check, None),
            (quasieq, "generate_instances", "generator", after_generate, uniforms_so_far),
            (rng.UniformStream, "uniforms", "rng", after_uniforms, None),
        ]
        for module in (solver, oracles, fractional, sets):
            patches.append((module, "as_vector", "linalg.as_vector", None, None))
        return patches

    @contextmanager
    def installed(self):
        try:
            for owner, attr, _, wrapper in self._bindings:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)

    def metrics(self, batches: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), averaged per batch."""
        per = 1.0 / max(batches, 1)
        spans, counts = self.spans, self.counts

        def calls(name):
            return spans[name].calls

        def secs(name):
            return spans[name].seconds

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "fractional.best_response.calls": (calls("fractional.best_response") * per, "count"),
            "fractional.best_response.s": (secs("fractional.best_response") * per, "s"),
            "fractional.dinkelbach.rounds": (counts["fractional.dinkelbach.rounds"] * per, "count"),
            "fractional.dinkelbach.rounds_per_call": (
                ratio(counts["fractional.dinkelbach.rounds"], calls("fractional.best_response")),
                "ratio"),
            "fractional.dinkelbach.failures": (
                spans["fractional.dinkelbach"].errors[ConvergenceError.__name__] * per, "count"),
            "linalg.as_vector.calls": (calls("linalg.as_vector") * per, "count"),
            "linalg.as_vector.s": (secs("linalg.as_vector") * per, "s"),
            "oracles.subgradient.calls": (calls("oracles.subgradient") * per, "count"),
            "oracles.subgradient.s": (secs("oracles.subgradient") * per, "s"),
            "sets.project.calls": (calls("sets.project") * per, "count"),
            "sets.project.s": (secs("sets.project") * per, "s"),
        }
        for v in VARIANTS:
            out[f"solver.{v}.iterations"] = (counts[f"solver.{v}.iterations"] * per, "count")
            out[f"solver.{v}.self_s"] = (spans[f"solver.{v}"].self_seconds * per, "s")
            for status in STATUSES:
                key = f"solver.{v}.status.{status.name.lower()}"
                out[key] = (counts[key] * per, "count")
        out.update({
            "linalg.symmetric_eigenvalues.calls": (calls("linalg.symmetric_eigenvalues") * per, "count"),
            "linalg.symmetric_eigenvalues.s": (secs("linalg.symmetric_eigenvalues") * per, "s"),
            "linalg.singular_values.calls": (calls("linalg.singular_values") * per, "count"),
            "linalg.singular_values.s": (secs("linalg.singular_values") * per, "s"),
            "monotonicity.check.calls": (calls("monotonicity.check") * per, "count"),
            "monotonicity.check.s": (secs("monotonicity.check") * per, "s"),
            "monotonicity.accept_ratio": (
                ratio(counts["monotonicity.accepted"], calls("monotonicity.check")), "ratio"),
            "generator.draws": (counts["generator.draws"] * per, "count"),
            "generator.accepted": (counts["generator.accepted"] * per, "count"),
            "generator.s": (secs("generator") * per, "s"),
            "rng.uniforms": (counts["rng.uniforms"] * per, "count"),
            "rng.s": (secs("rng") * per, "s"),
            "rng.us_per_uniform": (ratio(secs("rng") * 1e6, counts["rng.uniforms"]), "us"),
        })
        return out
