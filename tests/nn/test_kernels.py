"""Tests for the conv's window views and its col2im scatter.

The col2im half of a convolution's input gradient is no standalone kernel:
``_ConvOp.backward`` scatters its ``Wᵀ @ g`` columns back into the frames
through add pairs bound at compile time.  These cases drive it through a
one-conv grad plan over kernel 1/3, stride 1/2 and padding 0/1.
"""

import itertools

import numpy as np
import pytest

from repro.nn import InferenceEngine, ops
from repro.nn.kernels import conv_output_size, window_view
from repro.nn.layers import Conv2D
from repro.nn.network import Network
from repro.nn.plan import compile_plan

GRID = list(itertools.product((1, 3), (1, 2), (0, 1)))  # kernel, stride, padding


def _conv_plan(c, c_out, hw, k, s, p, n=2, seed=0):
    """A float64 grad plan of one conv, and its network."""
    network = Network([Conv2D(c, c_out, k, np.random.default_rng(seed), stride=s, padding=p)], (c, hw, hw))
    cast = InferenceEngine(network, dtype=np.float64)._cast
    return compile_plan(network, (n, c, hw, hw), np.float64, "grad", cast), network


def _input_grad(plan, seed):
    _, generation = plan.run_forward(np.zeros(plan.batch_shape))
    return plan.run_backward(seed, generation).copy()


class TestCol2im:
    @pytest.mark.parametrize("k,s", [(1, 1), (2, 2), (3, 1), (3, 2), (1, 2)])
    def test_is_the_adjoint_of_image_major_im2col(self, k, s):
        # <W @ im2col(x), g> == <x, backward(g)> for every x and g: the
        # input gradient is exactly the transpose of the window gather.
        rng = np.random.default_rng(0)
        for padding in (0, 1):
            plan, network = _conv_plan(3, 4, 7, k, s, padding)
            conv = network.layers[0]
            x = rng.normal(size=plan.batch_shape)
            padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
            rows = ops.im2col(padded, k, s) @ conv.params["weight"].data.reshape(4, -1).T
            out_h = out_w = conv_output_size(7 + 2 * padding, k, s)
            forward = rows.reshape(2, out_h, out_w, 4).transpose(0, 3, 1, 2)
            g = rng.normal(size=forward.shape)
            np.testing.assert_allclose(np.vdot(forward, g), np.vdot(x, _input_grad(plan, g)), rtol=1e-12)

    def test_ones_count_window_membership(self):
        # All-ones weights and cotangent: each pixel's gradient counts the
        # (window, kernel offset) pairs that read it.
        for k, s, p in GRID:
            plan, network = _conv_plan(2, 1, 6, k, s, p)
            network.layers[0].params["weight"].data[:] = 1.0
            out = conv_output_size(6 + 2 * p, k, s)
            counts = np.zeros((6 + 2 * p, 6 + 2 * p))
            for r, q, i, j in np.ndindex(out, out, k, k):
                counts[r * s + i, q * s + j] += 1
            want = np.broadcast_to(counts[p : p + 6, p : p + 6], plan.batch_shape)
            np.testing.assert_array_equal(_input_grad(plan, np.ones((2, 1, out, out))), want)

    def test_preallocated_out_matches_allocating_form(self):
        # A plan's scatter runs on the previous call's buffers: its result
        # must equal a freshly compiled plan's, bit for bit.
        rng = np.random.default_rng(0)
        for k, s, p in GRID:
            reused, _ = _conv_plan(3, 4, 6, k, s, p)
            fresh, _ = _conv_plan(3, 4, 6, k, s, p)
            out = conv_output_size(6 + 2 * p, k, s)
            stale, g = (rng.normal(size=(2, 4, out, out)) for _ in range(2))
            _input_grad(reused, stale)
            np.testing.assert_array_equal(_input_grad(reused, g), _input_grad(fresh, g))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_row_padded_windows_are_runs_of_the_flat_frame(self, k):
        # Stride 1, span = row: slab (c, i, j) is the flat channel's run
        # starting at i*row + j, and the scatter adds slab (i, j) of all
        # channels as one run per image of the flat gradient frames,
        # starting at that offset into the image's frames.
        rng = np.random.default_rng(0)
        n, c, h, w = 2, 3, 6, 5
        out_h = conv_output_size(h, k, 1)
        frame = rng.normal(size=(n, c, h * w + k - 1))
        windows = window_view(frame, k, 1, out_h, w, w)
        for i in range(k):
            for j in range(k):
                run = frame[:, :, i * w + j : i * w + j + out_h * w]
                np.testing.assert_array_equal(windows[:, :, i, j].reshape(run.shape), run)
        plan, _ = _conv_plan(c, 4, 6, k, 1, 1)
        conv = plan.steps[0]
        wp, image = 8, c * conv.frame.shape[-1]
        for rows, _, _, pairs in conv.gblocks:
            assert len(pairs) == k * k
            for (i, j), (dst, src) in zip(np.ndindex(k, k), pairs):
                assert dst.shape == src.shape == (rows.stop - rows.start, image)
                assert dst.strides[0] == image * dst.itemsize
                start = conv.gframe[rows.start * image + i * wp + j :]
                assert dst.__array_interface__["data"][0] == start.__array_interface__["data"][0]
