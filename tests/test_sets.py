import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieq.errors import DimensionError
from quasieq.sets import BoxSet


def _boxes(max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(min_value=-50.0, max_value=50.0), min_size=n, max_size=n
            ),
            st.lists(
                st.floats(min_value=-50.0, max_value=50.0), min_size=n, max_size=n
            ),
            st.lists(
                st.floats(min_value=-200.0, max_value=200.0), min_size=n, max_size=n
            ),
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n),
        )
    )


def _make_box(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return BoxSet(np.minimum(a, b), np.maximum(a, b))


class TestBoxSet:
    def test_construction_and_dim(self):
        box = BoxSet([0.0, 1.0], [2.0, 3.0])
        assert box.dim == 2
        np.testing.assert_array_equal(box.center, [1.0, 2.0])

    def test_uniform_constructor(self):
        box = BoxSet.uniform(3, 1.0, 3.0)
        np.testing.assert_array_equal(box.lo, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(box.hi, [3.0, 3.0, 3.0])

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoxSet([2.0], [1.0])

    def test_rejects_mismatched_bounds(self):
        with pytest.raises(DimensionError):
            BoxSet([0.0, 1.0], [2.0])

    def test_project_interior_point_unchanged(self):
        box = BoxSet.uniform(2, 1.0, 3.0)
        np.testing.assert_array_equal(box.project(np.array([2.0, 1.5])), [2.0, 1.5])

    def test_project_clamps_componentwise(self):
        box = BoxSet.uniform(2, 1.0, 3.0)
        np.testing.assert_array_equal(box.project(np.array([0.0, 5.0])), [1.0, 3.0])

    def test_contains_tolerance(self):
        box = BoxSet.uniform(1, 1.0, 3.0)
        assert box.contains(np.array([3.0]))
        assert not box.contains(np.array([3.0 + 1e-12]))

    def test_project_dimension_mismatch(self):
        box = BoxSet.uniform(2, 1.0, 3.0)
        with pytest.raises(DimensionError):
            box.project(np.array([1.0]))

    @given(_boxes())
    @settings(max_examples=80)
    def test_projection_properties(self, data):
        a, b, x_raw, frac = data
        box = _make_box(a, b)
        x = np.asarray(x_raw)
        px = box.project(x)
        assert box.contains(px)
        # idempotence
        np.testing.assert_array_equal(box.project(px), px)
        # the projection solves the variational inequality <x - Px, z - Px> <= 0
        z = box.lo + np.asarray(frac) * (box.hi - box.lo)
        assert float(np.dot(x - px, z - px)) <= 1e-10

    @given(_boxes())
    @settings(max_examples=80)
    def test_projection_nonexpansive(self, data):
        a, b, x_raw, frac = data
        box = _make_box(a, b)
        x = np.asarray(x_raw)
        y = box.lo + np.asarray(frac) * (box.hi - box.lo) + 7.0
        px, py = box.project(x), box.project(y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
