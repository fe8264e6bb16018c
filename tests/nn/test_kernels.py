"""Tests for the shared kernel primitives: image-major col2im and its reuse."""

import numpy as np
import pytest

from repro.nn import ops
from repro.nn.kernels import col2im, conv_output_size


def _image_major_windows(x, k, s):
    """Per image, the (C*k*k, oh*ow) window columns, built from ops.im2col rows."""
    n, c, h, w = x.shape
    out_h, out_w = conv_output_size(h, k, s), conv_output_size(w, k, s)
    rows = ops.im2col(x, k, s).reshape(n, out_h * out_w, c * k * k)
    return np.ascontiguousarray(rows.transpose(0, 2, 1)), out_h, out_w


class TestCol2im:
    @pytest.mark.parametrize("k,s", [(1, 1), (2, 2), (3, 1), (3, 2)])
    def test_is_the_adjoint_of_image_major_im2col(self, k, s):
        # <im2col(x), cols> == <x, col2im(cols)> for every x and cols: the
        # scatter-add is exactly the transpose of the window gather.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 7, 7))
        windows, out_h, out_w = _image_major_windows(x, k, s)
        cols = rng.normal(size=windows.shape)
        back = col2im(cols, x.shape, k, s, out_h, out_w)
        np.testing.assert_allclose(np.vdot(windows, cols), np.vdot(x, back), rtol=1e-12)

    def test_ones_count_window_membership(self):
        n, c, h, w, k, s = 1, 2, 5, 5, 3, 1
        out_h, out_w = conv_output_size(h, k, s), conv_output_size(w, k, s)
        counts = col2im(np.ones((n, c * k * k, out_h * out_w)), (n, c, h, w), k, s, out_h, out_w)
        assert counts[0, 0, 0, 0] == 1 and counts[0, 1, 2, 2] == 9

    def test_preallocated_out_matches_allocating_form(self):
        rng = np.random.default_rng(0)
        n, c, h, w, k, s = 2, 3, 6, 6, 2, 2
        out_h, out_w = conv_output_size(h, k, s), conv_output_size(w, k, s)
        cols = rng.normal(size=(n, c * k * k, out_h * out_w))
        fresh = col2im(cols, (n, c, h, w), k, s, out_h, out_w)
        buffer = np.full((n, c, h, w), 7.5)  # stale values must be cleared
        reused = col2im(cols, (n, c, h, w), k, s, out_h, out_w, out=buffer)
        assert reused is buffer
        np.testing.assert_array_equal(fresh, reused)
