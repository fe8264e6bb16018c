"""Tests for the conv's window views and its col2im scatter.

The col2im half of a convolution's input gradient is no standalone kernel:
``_ConvOp.backward`` reduces its ``Wᵀ @ g`` columns back into the frames,
at stride 1 through one gather view per image block and at stride > 1
through add pairs, both bound at compile time.  These cases drive it
through a one-conv grad plan over kernel 1/2/3, stride 1/2 and padding
0/1.
"""

import itertools

import numpy as np
import pytest

from repro.nn import InferenceEngine, ops
from repro.nn.kernels import conv_output_size, window_view
from repro.nn.layers import Conv2D
from repro.nn.network import Network
from repro.nn import plan as plan_module
from repro.nn.plan import compile_plan

GRID = list(itertools.product((1, 3), (1, 2), (0, 1)))  # kernel, stride, padding


def _conv_plan(c, c_out, hw, k, s, p, n=2, seed=0, dtype=np.float64):
    """A grad plan of one conv (float64 unless given), and its network."""
    network = Network([Conv2D(c, c_out, k, np.random.default_rng(seed), stride=s, padding=p)], (c, hw, hw))
    cast = InferenceEngine(network, dtype=dtype)._cast
    return compile_plan(network, (n, c, hw, hw), dtype, "grad", cast), network


def _input_grad(plan, seed):
    _, generation = plan.run_forward(np.zeros(plan.batch_shape, dtype=plan.dtype))
    return plan.run_backward(seed, generation).copy()


def _slab_order_col2im(weight, g, hw, k, p):
    """Scalar col2im of a one-output-channel stride-1 conv: each frame
    element adds its ``weight · g`` terms slab by slab, in ``(kh, kw)``
    order, starting from ``+0.0``."""
    n, c = len(g), weight.shape[1]
    hp = hw + 2 * p
    out = g.shape[-1]
    frames = np.zeros((n, c, hp, hp), dtype=g.dtype)
    for m, ch, y, x in np.ndindex(n, c, hp, hp):
        total = g.dtype.type(0.0)
        for i, j in np.ndindex(k, k):
            r, q = y - i, x - j
            if 0 <= r < out and 0 <= q < out:
                total = total + weight[0, ch, i, j] * g[m, 0, r, q]
        frames[m, ch, y, x] = total
    return frames[:, :, p : p + hw, p : p + hw]


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stride1_scatter_adds_slabs_in_kernel_order(self, monkeypatch, k, dtype):
        # Terms that do not associate (big + 1 - big is 0 in one order, 1 in
        # another) pin the order of each frame element's sum: slab by slab
        # in (kh, kw) order from +0.0.  One output channel makes every
        # gradient column a single exact product, so the reference needs no
        # BLAS.  Blocks of two images put the -0.0 cotangent of images 2-3
        # into a block of its own: its frames must come out +0.0.
        monkeypatch.setattr(plan_module, "COL_BLOCK_BYTES", 1)
        big = 1e8 if dtype == np.float32 else 1e17
        rng = np.random.default_rng(k)
        c, hw = 3, 6
        for p, n in itertools.product((0, 1), (1, 3, 7)):
            plan, network = _conv_plan(c, 1, hw, k, 1, p, n=n, dtype=dtype)
            weight = network.layers[0].params["weight"]
            weight.data = rng.choice([big, -big, 1.0, -1.0, 3.0, 0.5], size=weight.data.shape)
            out = conv_output_size(hw + 2 * p, k, 1)
            g = rng.choice([1.0, -1.0, 2.0, 0.5, -0.0], size=(n, 1, out, out)).astype(dtype)
            g[2:4] = -0.0
            if n == 7:
                g[6, 0, 0, 0] = np.inf  # inf - inf: NaN in the frames
            got = _input_grad(plan, g)
            want = _slab_order_col2im(weight.data.astype(dtype), g, hw, k, p)
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
            np.testing.assert_array_equal(got.view(bits)[~nan], want.view(bits)[~nan])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_row_padded_windows_are_runs_of_the_flat_frame(self, k):
        # Stride 1, span = row: slab (c, i, j) is the flat channel's run
        # starting at i*row + j.  The scatter gathers, per block, every
        # term of every frame element through one view of the block's
        # gradient columns: element [m, i, j, q] is column element
        # (i*k + j)*image + q - (i*row + j) of image m, so its strides are
        # (k*k*image, k*image - row, image - 1, 1) elements, it starts at
        # the column scratch, and it reduces into the block's own frames.
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
        wp, image, item = 8, c * conv.frame.shape[-1], conv.gcols.itemsize
        for rows, _, frames, terms in conv.gblocks:
            b = rows.stop - rows.start
            assert terms.shape == (b, k, k, image)
            assert terms.strides == (k * k * image * item, (k * image - wp) * item, (image - 1) * item, item)
            assert not terms.flags.writeable
            assert terms.__array_interface__["data"][0] == conv.gcols.__array_interface__["data"][0]
            assert frames.shape == (b, image)
            start = conv.gframe[rows.start * image :]
            assert frames.__array_interface__["data"][0] == start.__array_interface__["data"][0]
