"""The inequalities of the convergence proof, on instances with a known answer.

For F(x) = Mx + r with r = -M x*, F(x*) = 0, so f(x*, .) = 0 and x* in
the box solves the variational inequality.  With M = I + B'B/n + (C - C'),
whose symmetric part I + B'B/n is positive definite,

    f(x_k, x*) = <M x_k + r, x* - x_k> = -(x_k - x*)' M (x_k - x*) < 0

at every x_k != x*, and on the affine VI the diagonal subgradient is
F(x_k), so <g_k, x* - x_k> = f(x_k, x*) too.  The proof combines that
sign with the Fejer-type inequality at z = x* to bound the distance to
the solution.  These tests check both on every trace record, and the
step-length bound that the Fejer inequality rests on.  They do not
assert convergence.
"""

import numpy as np
import pytest

from quasieq.oracles import AffineFractionalOracle, affine_vi_instance, fractional_value
from quasieq.sets import BoxSet
from quasieq.solver import SolverConfig, fejer_audit, normal_subgradient_solve, step_length_audit

CASES = [(n, seed) for n in (5, 10, 20) for seed in (1, 2, 3)]


def _known_answer(n, seed):
    """(affine VI instance on [1, 3]^n, its solution x*), x* drawn from
    the middle half [1.5, 2.5]^n."""
    gen = np.random.default_rng(seed)
    B, C = gen.normal(size=(2, n, n))
    x_star = gen.uniform(1.5, 2.5, size=n)
    M = np.eye(n) + B.T.dot(B) / n + (C - C.T)
    return affine_vi_instance(M, -M.dot(x_star), BoxSet.uniform(n, 1.0, 3.0)), x_star


@pytest.mark.parametrize("n, seed", CASES)
def test_residual_is_zero_at_the_known_answer(n, seed):
    inst, x_star = _known_answer(n, seed)
    assert AffineFractionalOracle(inst).residual(x_star) == 0.0


@pytest.mark.parametrize("variant", ["ng1", "ng2"])
@pytest.mark.parametrize("n, seed", CASES)
def test_proof_inequalities_hold_on_every_record(n, seed, variant):
    inst, x_star = _known_answer(n, seed)
    report = normal_subgradient_solve(AffineFractionalOracle(inst), inst.box,
                                      SolverConfig(variant=variant))
    assert report.trace
    assert step_length_audit(report.trace)
    assert fejer_audit(report.trace, x_star, report.x_final)
    for rec in report.trace:
        assert rec.g_unit.dot(x_star - rec.x) <= 0.0
        assert fractional_value(inst, rec.x, x_star) <= 0.0
