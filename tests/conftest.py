import hypothesis
import numpy as np
import pytest

from quasieq import AffineFractionalInstance, BoxSet, affine_vi_instance

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
def rng():
    return np.random.default_rng(321)
