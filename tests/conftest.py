import math

import hypothesis
import numpy as np
import pytest

from quasieq import AffineFractionalInstance, BoxSet, affine_vi_instance
from quasieq.bench import BenchmarkReport, BenchmarkRow

hypothesis.settings.register_profile("pkg", deadline=None)
hypothesis.settings.load_profile("pkg")


@pytest.fixture
def unit_box():
    return BoxSet.uniform(1, 1.0, 3.0)


@pytest.fixture
def e1(unit_box):
    """1-D fractional instance with phi_x(y) = 2x * y / (y + 1)."""
    return AffineFractionalInstance(
        A=[[2.0]], b=[0.0], A1=[[1.0]], b1=[0.0], c=[1.0], d=1.0, box=unit_box
    )


@pytest.fixture
def t1(unit_box):
    """1-D variational inequality with F(x) = x - 2; solution x* = 2."""
    return affine_vi_instance(M=[[1.0]], r=[-2.0], box=unit_box)


@pytest.fixture
def bench_report():
    """A fixed three-row report: a plain row, a row whose every solve
    raised (NaN means), and a row with failures and a mean error of -0.0."""
    return BenchmarkReport(variant="ng1", schedule_scale=2.5, seed=7, rows=(
        BenchmarkRow(5, 20, 18, 0.001234, 5.6e-05),
        BenchmarkRow(10, 20, 0, math.nan, math.nan, {"DomainError": 20}),
        BenchmarkRow(20, 3, 1, 0.1, -0.0, {"ConvergenceError": 1, "DomainError": 1}),
    ))


@pytest.fixture
def rng():
    return np.random.default_rng(321)
