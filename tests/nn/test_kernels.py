"""Tests for the shared kernel primitives: window views and slab col2im."""

import numpy as np
import pytest

from repro.nn import ops
from repro.nn.kernels import col2im, conv_output_size, window_view


def _image_major_windows(x, k, s):
    """Per image, the (C*k*k, oh*ow) window columns, built from ops.im2col rows."""
    n, c, h, w = x.shape
    out_h, out_w = conv_output_size(h, k, s), conv_output_size(w, k, s)
    rows = ops.im2col(x, k, s).reshape(n, out_h * out_w, c * k * k)
    return np.ascontiguousarray(rows.transpose(0, 2, 1)), out_h, out_w


def _col2im(cols, x_shape, k, s, out_h, out_w, out=None):
    """col2im into an (N, C, H, W) batch through its (unpadded) window view."""
    out = np.empty(x_shape) if out is None else out
    return col2im(cols, window_view(out, k, s, out_h, out_w, x_shape[3], writeable=True), out)


class TestCol2im:
    @pytest.mark.parametrize("k,s", [(1, 1), (2, 2), (3, 1), (3, 2)])
    def test_is_the_adjoint_of_image_major_im2col(self, k, s):
        # <im2col(x), cols> == <x, col2im(cols)> for every x and cols: the
        # scatter-add is exactly the transpose of the window gather.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 7, 7))
        windows, out_h, out_w = _image_major_windows(x, k, s)
        cols = rng.normal(size=windows.shape)
        back = _col2im(cols, x.shape, k, s, out_h, out_w)
        np.testing.assert_allclose(np.vdot(windows, cols), np.vdot(x, back), rtol=1e-12)

    def test_ones_count_window_membership(self):
        n, c, h, w, k, s = 1, 2, 5, 5, 3, 1
        out_h, out_w = conv_output_size(h, k, s), conv_output_size(w, k, s)
        counts = _col2im(np.ones((n, c * k * k, out_h * out_w)), (n, c, h, w), k, s, out_h, out_w)
        assert counts[0, 0, 0, 0] == 1 and counts[0, 1, 2, 2] == 9

    def test_preallocated_out_matches_allocating_form(self):
        rng = np.random.default_rng(0)
        n, c, h, w, k, s = 2, 3, 6, 6, 2, 2
        out_h, out_w = conv_output_size(h, k, s), conv_output_size(w, k, s)
        cols = rng.normal(size=(n, c * k * k, out_h * out_w))
        fresh = _col2im(cols, (n, c, h, w), k, s, out_h, out_w)
        buffer = np.full((n, c, h, w), 7.5)  # stale values must be cleared
        reused = _col2im(cols, (n, c, h, w), k, s, out_h, out_w, out=buffer)
        assert reused is buffer
        np.testing.assert_array_equal(fresh, reused)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_row_padded_windows_are_runs_of_the_flat_frame(self, k):
        # Stride 1, span = row: slab (c, i, j) is the flat channel's run
        # starting at i*row + j, and col2im stays its exact adjoint.
        rng = np.random.default_rng(0)
        n, c, h, w = 2, 3, 6, 5
        out_h = conv_output_size(h, k, 1)
        frame = rng.normal(size=(n, c, h * w + k - 1))
        windows = window_view(frame, k, 1, out_h, w, w)
        for i in range(k):
            for j in range(k):
                run = frame[:, :, i * w + j : i * w + j + out_h * w]
                np.testing.assert_array_equal(windows[:, :, i, j].reshape(run.shape), run)
        cols = rng.normal(size=windows.shape)
        back = np.empty_like(frame)
        gwindows = window_view(back, k, 1, out_h, w, w, writeable=True)
        col2im(cols, gwindows, back)
        np.testing.assert_allclose(np.vdot(windows, cols), np.vdot(frame, back), rtol=1e-12)
