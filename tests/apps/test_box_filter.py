"""Box filter: equivalence with direct convolution, edge handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import box_filter, box_filter_direct, window_areas
from repro.apps.box_filter import window_sums_from_sat
from repro.apps.synthetic import gaussian_blobs, gradient_image
from repro.errors import ConfigurationError
from repro.gpusim import GPU


def _gather_bounds(rows, cols, radius):
    ii = np.arange(rows)[:, None]
    jj = np.arange(cols)[None, :]
    return tuple(np.broadcast_to(b, (rows, cols)) for b in (
        np.maximum(ii - radius, 0), np.minimum(ii + radius, rows - 1),
        np.maximum(jj - radius, 0), np.minimum(jj + radius, cols - 1)))


def gather_window_sums(sat, radius):
    """Oracle: the four-corner formula as 2-D gathers and masked updates,
    each corner term applied only where that corner lies inside the SAT."""
    rows, cols = sat.shape
    top, bottom, left, right = _gather_bounds(rows, cols, radius)
    acc = (np.result_type(sat.dtype, np.int64)
           if np.issubdtype(sat.dtype, np.integer) else sat.dtype)
    total = sat[bottom, right].astype(acc, copy=True)
    m = top > 0
    total[m] -= sat[top[m] - 1, right[m]]
    m = left > 0
    total[m] -= sat[bottom[m], left[m] - 1]
    m = (top > 0) & (left > 0)
    total[m] += sat[top[m] - 1, left[m] - 1]
    return total


def gather_window_areas(rows, cols, radius):
    top, bottom, left, right = _gather_bounds(rows, cols, radius)
    return ((bottom - top + 1) * (right - left + 1)).astype(np.float64)


class TestWindowSums:
    """The slice form is bit-identical to the gather-and-mask formula."""

    SHAPES = ((1, 1), (1, 17), (17, 1), (9, 14), (33, 20), (0, 0), (0, 6),
              (6, 0))
    RADII = (0, 1, 3, 16, 40)   # 16 and 40 reach past every edge of some

    @staticmethod
    def _sat(shape, dtype, seed):
        rng = np.random.default_rng(seed)
        if np.dtype(dtype).kind == "f":
            a = (rng.standard_normal(shape) * 10).astype(dtype)
            a[rng.random(shape) < 0.3] = -0.0
            sat = a.cumsum(0).cumsum(1)
            sat[rng.random(shape) < 0.2] = -0.0     # signed zeros in the SAT
            return sat
        return rng.integers(-100, 100, size=shape).astype(dtype) \
            .cumsum(0).cumsum(1).astype(dtype)

    @pytest.mark.parametrize("radius", RADII)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", ["int64", "float32", "float64"])
    def test_matches_gather_formula(self, dtype, shape, radius):
        sat = self._sat(shape, dtype, seed=radius)
        got = window_sums_from_sat(sat, radius)
        want = gather_window_sums(sat, radius)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_all_negative_zero_keeps_its_sign(self):
        sat = np.full((5, 7), -0.0)
        got = window_sums_from_sat(sat, 1)
        # Windows whose top and left are clamped at the border subtract and
        # add nothing, so their -0.0 survives.
        assert np.signbit(got[:2, :2]).all()
        assert np.array_equal(np.signbit(got),
                              np.signbit(gather_window_sums(sat, 1)))

    def test_narrow_integer_sat_widens(self):
        sat = self._sat((12, 10), "int32", seed=1)
        got = window_sums_from_sat(sat, 2)
        assert got.dtype == np.int64
        assert np.array_equal(got, gather_window_sums(sat, 2))

    def test_does_not_modify_a_read_only_sat(self):
        sat = self._sat((20, 30), "int64", seed=2)
        sat.setflags(write=False)
        assert np.array_equal(window_sums_from_sat(sat, 3),
                              gather_window_sums(sat, 3))

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            window_sums_from_sat(np.zeros((4, 4)), -1)
        with pytest.raises(ConfigurationError):
            window_sums_from_sat(np.zeros((0, 0)), -1)

    @pytest.mark.parametrize("radius", RADII)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_window_areas_match_broadcast_form(self, shape, radius):
        got = window_areas(*shape, radius)
        want = gather_window_areas(*shape, radius)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class TestBoxFilter:
    def test_matches_direct_convolution(self):
        img = gaussian_blobs(40, seed=1)
        for radius in (0, 1, 3, 7):
            assert np.allclose(box_filter(img, radius),
                               box_filter_direct(img, radius)), radius

    def test_radius_zero_is_identity(self):
        img = gradient_image(16)
        assert np.allclose(box_filter(img, 0), img)

    def test_constant_image_unchanged(self):
        img = np.full((24, 24), 3.5)
        assert np.allclose(box_filter(img, 5), img)

    def test_huge_radius_gives_global_mean(self):
        img = gaussian_blobs(16, seed=2)
        out = box_filter(img, 100)
        assert np.allclose(out, img.mean())

    def test_smooths_variance(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(64, 64))
        assert box_filter(img, 4).var() < img.var() / 4

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            box_filter(np.zeros((8, 8)), -1)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            box_filter(np.zeros(8), 1)

    def test_window_areas_corners(self):
        areas = window_areas(10, 10, 2)
        assert areas[0, 0] == 9      # 3x3 clamped corner
        assert areas[5, 5] == 25     # full 5x5 interior
        assert areas[0, 5] == 15     # 3x5 edge

    def test_with_simulated_sat_algorithm(self):
        """End-to-end: blur through the paper's algorithm on the simulator."""
        img = gaussian_blobs(64, seed=3)
        via_sim = box_filter(img, 2, algorithm="skss-lb", gpu=GPU(seed=1))
        assert np.allclose(via_sim, box_filter_direct(img, 2))

    def test_with_host_algorithm(self):
        img = gaussian_blobs(64, seed=4)
        via_host = box_filter(img, 3, algorithm="2r1w")
        assert np.allclose(via_host, box_filter_direct(img, 3))

    @settings(deadline=None, max_examples=15)
    @given(n=st.integers(4, 24), radius=st.integers(0, 6),
           seed=st.integers(0, 1000))
    def test_property_mean_preserving_bounds(self, n, radius, seed):
        """A mean filter's output stays within [min, max] of the input."""
        rng = np.random.default_rng(seed)
        img = rng.normal(size=(n, n))
        out = box_filter(img, radius)
        assert out.min() >= img.min() - 1e-9
        assert out.max() <= img.max() + 1e-9
