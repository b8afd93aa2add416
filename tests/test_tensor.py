"""Tensor engine: forward semantics, oracles, and gradient checks."""

import tracemalloc

import numpy as np
import pytest

from stereosr import tensor as T
from stereosr.gradcheck import check_gradients, numerical_gradient
from stereosr.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def naive_conv2d(x, w, b, padding=0, dilation=1):
    """Direct sextuple-loop cross-correlation, the conv oracle."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = h + 2 * padding - dilation * (kh - 1)
    wo = wd + 2 * padding - dilation * (kw - 1)
    out = np.zeros((n, o, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[ni, ci, yi + ki * dilation, xi + kj * dilation]
                                    * w[oi, ci, ki, kj]
                                )
                    out[ni, oi, yi, xi] = acc + b[oi]
    return out


def naive_conv2d_vjp(x, w, g, padding=0, dilation=1):
    """Input, weight and bias gradients of naive_conv2d for the output
    gradient g, scattered one output pixel and tap at a time in float64."""
    h, wd = x.shape[2:]
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    w = w.astype(np.float64)
    g = g.astype(np.float64)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    o, ho, wo = g.shape[1:]
    kh, kw = w.shape[2:]
    for oi in range(o):
        for yi in range(ho):
            for xi in range(wo):
                for ki in range(kh):
                    for kj in range(kw):
                        y, xx = yi + ki * dilation, xi + kj * dilation
                        gxp[:, :, y, xx] += g[:, oi, yi, xi, None] * w[oi, :, ki, kj]
                        gw[oi, :, ki, kj] += g[:, oi, yi, xi] @ xp[:, :, y, xx]
    gx = gxp[:, :, padding : padding + h, padding : padding + wd]
    return gx, gw, g.sum(axis=(0, 2, 3))


class TestConv2d:
    def test_all_ones_center(self):
        """3x3 ones against 3x3 ones kernel sums to 9 at the center."""
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, w, b, padding=1)
        assert out.data[0, 0, 1, 1] == pytest.approx(9.0)

    def test_identity_kernel(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 4, 5)))
        w = Tensor(np.array([[[[1.0]]]]))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, w, b)
        np.testing.assert_allclose(out.data, x.data, atol=1e-7)

    def test_dilated_matches_naive_oracle(self, rng):
        x = rng.normal(size=(1, 2, 5, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=4, dilation=4)
        want = naive_conv2d(x, w, b, padding=4, dilation=4)
        np.testing.assert_allclose(got.data, want, atol=1e-6)

    # (3, 1) pads past the kernel's reach: the outer output ring sees only zeros
    @pytest.mark.parametrize(
        "padding,dilation", [(0, 1), (1, 1), (0, 2), (2, 2), (0, 3), (3, 1)]
    )
    def test_strided_matches_naive_oracle(self, rng, padding, dilation):
        x = rng.normal(size=(2, 3, 7, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding, dilation)
        want = naive_conv2d(x, w, b, padding, dilation)
        np.testing.assert_allclose(got.data, want, atol=1e-5)

    def test_impulse_reproduces_kernel_at_dilation_spacing(self):
        """A unit impulse spreads the kernel taps d pixels apart."""
        d = 3
        x = np.zeros((1, 1, 9, 9))
        x[0, 0, 4, 4] = 1.0
        w = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3) + 1.0
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), padding=d, dilation=d)
        # output position (i,j) sees the impulse through tap (ki,kj) iff
        # i + ki*d - d == 4 (cross-correlation with padding d)
        for ki in range(3):
            for kj in range(3):
                yi = 4 + d - ki * d
                xi = 4 + d - kj * d
                if 0 <= yi < 9 and 0 <= xi < 9:
                    assert out.data[0, 0, yi, xi] == pytest.approx(w[0, 0, ki, kj])

    def test_channel_mismatch_names_dimension(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        b = Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="C=3.*C=4"):
            T.conv2d(x, w, b, padding=1)

    def test_invalid_geometry_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 2, 4)))
        w = Tensor(rng.normal(size=(1, 1, 3, 3)))
        with pytest.raises(ValueError, match="geometry"):
            T.conv2d(x, w, Tensor(np.zeros(1)), padding=0)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 6)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)
        report = check_gradients(
            lambda: (T.conv2d(x, w, b, padding=2, dilation=2) ** 2).sum(),
            [("x", x), ("w", w), ("b", b)],
            elementwise=True,
        )
        assert max(report.values()) < 1e-3

    # padding below, at and above the kernel reach dilation*(k-1): the input
    # gradient pads the column gradient, uses it as is, or crops it
    @pytest.mark.parametrize(
        "k,dilation,padding",
        [(1, d, p) for d in (1, 2, 4) for p in (0, 1)]
        + [(3, d, p) for d in (1, 2, 4) for p in (d, 2 * d, 2 * d + 1)],
    )
    def test_gradients_pad_and_crop(self, rng, k, dilation, padding):
        x = Tensor(rng.normal(size=(1, 2, 9, 10)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 2, k, k)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)
        report = check_gradients(
            lambda: (T.conv2d(x, w, b, padding=padding, dilation=dilation) ** 2).sum(),
            [("x", x), ("w", w), ("b", b)],
            elementwise=True,
        )
        assert max(report.values()) < 1e-3

    # (N, C, O, H, W, k, padding, dilation): 3x3 at dilation 1/4/8 with
    # padding = dilation, padding 0, padding past the reach dilation*(k-1)
    # (the input gradient crops g), 1x1 at C=24, one input channel, one
    # output channel, N=1 and N=8, non-square maps
    VJP_CASES = [
        (2, 3, 4, 9, 11, 3, 1, 1),
        (2, 3, 4, 9, 11, 3, 4, 4),
        (1, 2, 3, 17, 19, 3, 8, 8),
        (2, 3, 4, 9, 11, 3, 0, 1),
        (2, 3, 4, 10, 13, 3, 0, 4),
        (2, 3, 4, 7, 9, 3, 3, 1),
        (1, 2, 2, 9, 10, 3, 9, 4),
        (1, 24, 8, 5, 6, 1, 0, 1),
        (2, 1, 4, 8, 12, 3, 1, 1),
        (2, 3, 1, 8, 12, 3, 2, 2),
        (8, 2, 3, 5, 13, 3, 1, 1),
    ]

    VJP_IDS = ["n{}c{}o{}-{}x{}-k{}p{}d{}".format(*case) for case in VJP_CASES]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", VJP_CASES, ids=VJP_IDS)
    def test_vjp_matches_naive_oracle(self, rng, case, dtype):
        """All three gradients against the scatter of naive_conv2d, each
        within 1e-5 (float32) or 1e-12 (float64) of the array's max-abs; and
        each comes back in the shape and dtype of its operand."""
        n, c, o, h, w, k, padding, dilation = case
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        wt = rng.normal(size=(o, c, k, k)).astype(dtype)
        b = rng.normal(size=o).astype(dtype)
        out = T.conv2d(
            Tensor(x, requires_grad=True), Tensor(wt), Tensor(b), padding, dilation
        )
        g = rng.normal(size=out.shape).astype(dtype)
        got = out._vjp(g)
        want = naive_conv2d_vjp(x, wt, g, padding, dilation)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for name, operand, gv, wv in zip("xwb", (x, wt, b), got, want):
            assert gv.shape == operand.shape and gv.dtype == operand.dtype, name
            err = np.abs(gv - wv).max() / np.abs(wv).max()
            assert err <= tol, (name, err)

    @pytest.mark.parametrize("case", VJP_CASES, ids=VJP_IDS)
    def test_vjp_gradient_check(self, rng, case):
        n, c, o, h, w, k, padding, dilation = case
        x = Tensor(rng.normal(size=(n, c, h, w)), requires_grad=True, dtype=np.float64)
        wt = Tensor(rng.normal(size=(o, c, k, k)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=o), requires_grad=True, dtype=np.float64)
        g = Tensor(rng.normal(size=T.conv2d(x, wt, b, padding, dilation).shape))
        report = check_gradients(
            lambda: (T.conv2d(x, wt, b, padding, dilation) * g).sum(),
            [("x", x), ("w", wt), ("b", b)],
        )
        assert max(report.values()) < 1e-6, report

    def test_input_gradient_adds_taps_in_order(self, rng):
        """float32 input gradient equals a tap-by-tap (ki, kj) scatter bit for bit.

        Training runs are chaotic in this rounding, so a different summation
        order changes what the acceptance runs learn.
        """
        d, p = 2, 1
        x = Tensor(rng.normal(size=(2, 3, 7, 9)), requires_grad=True, dtype=np.float32)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), dtype=np.float32)
        out = T.conv2d(x, w, Tensor(np.zeros(4), dtype=np.float32), padding=p, dilation=d)
        g = rng.normal(size=out.shape).astype(np.float32)
        (out * Tensor(g)).sum().backward()
        ho, wo = out.shape[2:]
        dcols = np.matmul(w.data.reshape(4, 27).T, g.reshape(2, 4, ho * wo))
        dcols = dcols.reshape(2, 3, 3, 3, ho, wo)
        want = np.zeros((2, 3, 7 + 2 * p, 9 + 2 * p), dtype=np.float32)
        for ki in range(3):
            for kj in range(3):
                want[:, :, ki * d : ki * d + ho, kj * d : kj * d + wo] += dcols[:, :, ki, kj]
        assert np.array_equal(x.grad, want[:, :, p:-p, p:-p])

    def test_graph_keeps_only_the_output(self, rng):
        """Under grad, a conv holds its output and no window matrix for backward."""
        x = Tensor(rng.normal(size=(8, 8, 32, 96)), requires_grad=True, dtype=np.float32)
        w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True, dtype=np.float32)
        b = Tensor(np.zeros(8), requires_grad=True, dtype=np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.conv2d(x, w, b, padding=4, dilation=4)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + 64 * 1024


class TestLeakyRelu:
    def test_negative_scaled(self):
        out = T.leaky_relu(Tensor(np.array([-2.0])), 0.1)
        assert out.data[0] == pytest.approx(-0.2)

    def test_positive_passthrough(self):
        out = T.leaky_relu(Tensor(np.array([3.0])), 0.37)
        assert out.data[0] == pytest.approx(3.0)

    def test_gradient_on_negative_side(self):
        x = Tensor(np.array([-1.0]), requires_grad=True, dtype=np.float64)
        T.leaky_relu(x, 0.1).sum().backward()
        numeric = numerical_gradient(lambda: T.leaky_relu(x, 0.1).sum(), x)
        assert x.grad[0] == pytest.approx(0.1)
        assert abs(x.grad[0] - numeric[0]) < 1e-6

    def test_slope_domain(self):
        with pytest.raises(ValueError):
            T.leaky_relu(Tensor(np.zeros(1)), 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.1, 0.37])
    def test_matches_where_bit_for_bit(self, slope, dtype):
        values = [-0.0, 0.0, -1.5, 2.0, 1e-40, -1e-40, np.nan, -np.nan, -np.inf]
        if slope:
            values.append(np.inf)  # slope 0 maps +inf to NaN (0*inf)
        # long enough for numpy's vectorized loops, not only the scalar tail
        x = np.tile(np.array(values, dtype=dtype), 64)
        with np.errstate(invalid="ignore"):
            want = np.where(x >= 0, x, slope * x)
            got = T.leaky_relu(Tensor(x), slope).data
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_gradient_is_one_or_slope(self, rng):
        x = Tensor(np.array([-2.0, -0.0, 0.0, 3.0]), requires_grad=True, dtype=np.float32)
        g = rng.normal(size=4).astype(np.float32)
        (T.leaky_relu(x, 0.1) * Tensor(g)).sum().backward()
        want = g * np.where(x.data >= 0, np.float32(1.0), np.float32(0.1))
        assert x.grad.tobytes() == want.tobytes()

    def test_graph_keeps_only_the_output(self, rng):
        """The graph keeps no factor array: the vjp derives it from x."""
        x = Tensor(rng.normal(size=(8, 8, 32, 96)), requires_grad=True, dtype=np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.leaky_relu(x, 0.1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + 64 * 1024


class TestAbsolute:
    def test_gradient_is_sign_and_zero_at_zero(self):
        x = Tensor(np.array([-2.0, -0.0, 0.0, 3.0]), requires_grad=True, dtype=np.float32)
        x.abs().sum().backward()
        assert x.grad.tobytes() == np.sign(x.data).tobytes()
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 0.0, 1.0])


class TestSoftmaxLastdim:
    def test_uniform_logits(self):
        out = T.softmax_lastdim(Tensor(np.zeros((1, 4)) + 3.7))
        np.testing.assert_allclose(out.data, 0.25, atol=1e-7)

    def test_huge_logits_stable(self):
        out = T.softmax_lastdim(Tensor(np.array([[1000.0, 0.0]])))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)
        assert np.all(np.isfinite(out.data))

    def test_matches_direct_formula(self, rng):
        logits = rng.normal(size=8)
        got = T.softmax_lastdim(Tensor(logits, dtype=np.float64)).data
        want = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_rows_sum_to_one_and_bounded(self, rng):
        x = Tensor(rng.normal(scale=5.0, size=(3, 4, 6)))
        y = T.softmax_lastdim(x).data
        np.testing.assert_allclose(y.sum(-1), 1.0, atol=1e-5)
        assert y.min() >= 0.0 and y.max() <= 1.0

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True, dtype=np.float64)
        tgt = Tensor(rng.normal(size=(2, 5)), dtype=np.float64)
        report = check_gradients(
            lambda: ((T.softmax_lastdim(x) - tgt) ** 2).sum(), [("x", x)],
            elementwise=True,
        )
        assert max(report.values()) < 1e-3

    def test_no_grad_peak_is_the_output(self, rng):
        """Under no_grad the op allocates its output and nothing of that size."""
        a = Tensor(rng.normal(size=(1, 16, 96, 96)), dtype=np.float32).transpose(0, 1, 3, 2)
        with T.no_grad():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = T.softmax_lastdim(a)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peak <= out.data.nbytes + 64 * 1024

    @pytest.mark.parametrize("transposed", [False, True])
    def test_input_is_not_written(self, rng, transposed):
        # attention feeds one score volume to both directions
        a = Tensor(rng.normal(size=(2, 5, 7)), requires_grad=True, dtype=np.float32)
        if transposed:
            a = a.transpose(0, 2, 1)
        before = a.data.copy()
        T.softmax_lastdim(a)
        assert a.data.tobytes() == before.tobytes()


class TestBatchMatmul:
    def test_identity_stack(self, rng):
        b = rng.normal(size=(3, 4, 5))
        eye = np.broadcast_to(np.eye(4), (3, 4, 4)).copy()
        out = T.batch_matmul(Tensor(eye), Tensor(b))
        np.testing.assert_allclose(out.data, b, atol=1e-7)

    def test_scalar_batches(self):
        a = Tensor(np.array([[[2.0]], [[3.0]]]))
        b = Tensor(np.array([[[5.0]], [[7.0]]]))
        out = T.batch_matmul(a, b)
        np.testing.assert_allclose(out.data.ravel(), [10.0, 21.0])

    def test_matches_triple_loop_oracle(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        want = np.zeros((3, 4, 2))
        for bi in range(3):
            for i in range(4):
                for j in range(2):
                    for k in range(5):
                        want[bi, i, j] += a[bi, i, k] * b[bi, k, j]
        got = T.batch_matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(got.data, want, atol=1e-6)

    def test_dimension_mismatch(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(2, 5, 6)))
        with pytest.raises(ValueError, match="inner dims"):
            T.batch_matmul(a, b)

    def test_gradients(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True, dtype=np.float64)
        report = check_gradients(
            lambda: (T.batch_matmul(a, b) ** 2).sum(), [("a", a), ("b", b)],
            elementwise=True,
        )
        assert max(report.values()) < 1e-3


    @pytest.mark.parametrize("lead", [(2, 3), (2, 2, 3)], ids=["4d", "5d"])
    def test_stacks_match_per_matrix_products(self, rng, lead):
        a = rng.normal(size=(*lead, 4, 5))
        b = rng.normal(size=(*lead, 5, 3))
        got = T.batch_matmul(Tensor(a), Tensor(b)).data
        assert got.shape == (*lead, 4, 3)
        for idx in np.ndindex(*lead):
            np.testing.assert_allclose(got[idx], a[idx] @ b[idx], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lead", [(2, 3), (2, 2, 3)], ids=["4d", "5d"])
    def test_stack_gradients(self, rng, lead):
        a = Tensor(rng.normal(size=(*lead, 3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=(*lead, 4, 2)), requires_grad=True, dtype=np.float64)
        report = check_gradients(
            lambda: (T.batch_matmul(a, b) ** 2).sum(), [("a", a), ("b", b)],
            elementwise=True,
        )
        assert max(report.values()) < 1e-3

    def test_operand_of_a_swapped_view(self, rng):
        """The cycle term's product of a pair with its own swap along axis 0."""
        m = Tensor(rng.random((2, 3, 4, 4)), requires_grad=True, dtype=np.float64)
        report = check_gradients(
            lambda: (T.batch_matmul(m, m[::-1]) ** 2).sum(), [("m", m)], elementwise=True
        )
        assert max(report.values()) < 1e-3
        got = T.batch_matmul(m, m[::-1]).data
        np.testing.assert_allclose(got[0], m.data[0] @ m.data[1], rtol=1e-12)
        np.testing.assert_allclose(got[1], m.data[1] @ m.data[0], rtol=1e-12)

    @pytest.mark.parametrize(
        "a_shape, b_shape, message",
        [
            ((3, 4), (3, 4), "rank"),
            ((2, 3, 4), (1, 2, 4, 5), "rank"),
            ((2, 3, 4, 5), (2, 2, 5, 6), "batch dims"),
            ((2, 2, 3, 4), (2, 2, 5, 6), "inner dims"),
        ],
    )
    def test_shape_errors(self, a_shape, b_shape, message):
        with pytest.raises(ValueError, match=message):
            T.batch_matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))


class TestTake:
    def test_slice_shares_memory_with_its_input(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4, 4)))
        for idx in (1, (slice(None), slice(None, -1)), slice(None, None, -1)):
            out = a[idx]
            assert np.shares_memory(out.data, a.data), idx
            assert np.array_equal(out.data, a.data[idx])

    def test_scalar_stays_zero_dimensional(self):
        out = Tensor(np.array([1.5, 2.5]))[1]
        assert isinstance(out.data, np.ndarray) and out.data.shape == ()
        assert out.item() == 2.5

    @pytest.mark.parametrize(
        "idx", [1, (slice(None), slice(None, -1)), slice(None, None, -1)],
        ids=["index", "slice", "reverse"],
    )
    def test_gradient_scatters_into_zeros(self, rng, idx):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True, dtype=np.float64)
        w = rng.normal(size=a.data[idx].shape)
        (a[idx] * Tensor(w)).sum().backward()
        want = np.zeros_like(a.data)
        want[idx] = w
        assert np.array_equal(a.grad, want)


def composite_attention(q, k, scale):
    """The ops row_attention fuses, one direction at a time: batch_matmul, mul by
    scale, softmax of S^T (M_lr) and of S (M_rl)."""
    s = T.mul(T.batch_matmul(q, k), scale)
    m_rl = T.softmax_lastdim(s)
    return T.softmax_lastdim(s.transpose(0, 2, 1)), m_rl


_ROW_BYTES = 64 * 64 * 4
_WIDE_W = int(np.sqrt(T._ATTENTION_BLOCK_BYTES / 4)) + 1


class TestRowAttention:
    # (rows, width, channels) of every attention the benchmark workloads run,
    # then a row count that leaves a partial last block and a row of scores
    # larger than the whole block budget
    @pytest.mark.parametrize(
        "rows,width,channels",
        [
            (64, 128, 32),
            (48, 320, 8),
            (8 * 16, 48, 8),
            (8 * 32, 96, 8),
            (T._ATTENTION_BLOCK_BYTES // _ROW_BYTES + 7, 64, 4),
            (3, _WIDE_W, 4),
        ],
        ids=[
            "sr-stream", "sr-wide", "train-desk-lr", "train-desk-sr", "ragged-block",
            "row-over-budget",
        ],
    )
    def test_masks_and_gradients_equal_the_composite(self, rng, rows, width, channels):
        q0 = (3.0 * rng.normal(size=(rows, width, channels))).astype(np.float32)
        k0 = (3.0 * rng.normal(size=(rows, channels, width))).astype(np.float32)
        g = rng.normal(size=(2, rows, width, width)).astype(np.float32)
        results = []

        q = Tensor(q0.copy(), requires_grad=True)
        k = Tensor(k0.copy(), requires_grad=True)
        masks = T.row_attention(q, k, 1.0 / channels)
        # one graph node holds both directions
        assert masks.shape == (2, rows, width, width) and masks._parents == (q, k)
        (masks * g).sum().backward()
        results.append((masks.data[0], masks.data[1], q.grad, k.grad))

        q = Tensor(q0.copy(), requires_grad=True)
        k = Tensor(k0.copy(), requires_grad=True)
        m_lr, m_rl = composite_attention(q, k, 1.0 / channels)
        ((m_lr * g[0]).sum() + (m_rl * g[1]).sum()).backward()
        results.append((m_lr.data, m_rl.data, q.grad, k.grad))

        for got, want in zip(*results):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_gradient_float64(self, rng):
        q = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True, dtype=np.float64)
        k = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True, dtype=np.float64)
        g = rng.normal(size=(2, 2, 5, 5))

        def loss():
            return (T.row_attention(q, k, 0.7) * g).sum()

        report = check_gradients(loss, [("q", q), ("k", k)], elementwise=True)
        assert max(report.values()) < 1e-5

    def test_no_grad_peak_is_the_two_masks(self, rng):
        q = Tensor(rng.normal(size=(16, 256, 8)), dtype=np.float32)
        k = Tensor(rng.normal(size=(16, 8, 256)), dtype=np.float32)
        with T.no_grad():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                masks = T.row_attention(q, k, 0.125)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peak <= masks.data.nbytes + 64 * 1024

    @pytest.mark.parametrize(
        "q_shape,k_shape",
        [((2, 5, 3), (2, 5, 3)), ((2, 5, 3), (3, 3, 5)), ((5, 3), (3, 5)), ((2, 5, 3), (2, 3, 4))],
    )
    def test_shape_mismatch_rejected(self, q_shape, k_shape):
        with pytest.raises(ValueError, match="row_attention expects"):
            T.row_attention(Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)), 1.0)


def upsample_1d_oracle(vec, factor):
    """Independent 1-D linear interpolation (align_corners=False)."""
    n = len(vec)
    out = np.zeros(n * factor)
    for o in range(n * factor):
        src = (o + 0.5) / factor - 0.5
        i0 = int(np.floor(src))
        t = src - i0
        lo = min(max(i0, 0), n - 1)
        hi = min(max(i0 + 1, 0), n - 1)
        out[o] = vec[lo] * (1 - t) + vec[hi] * t
    return out


class TestTrilinearUpsample:
    def test_constant_preserved(self):
        v = Tensor(np.full((2, 3, 4), 0.5))
        out = T.trilinear_upsample(v, 3)
        np.testing.assert_allclose(out.data, 0.5, atol=1e-7)
        assert out.shape == (6, 9, 12)

    def test_unit_factors_identity(self, rng):
        v = rng.normal(size=(2, 3, 4))
        out = T.trilinear_upsample(Tensor(v), 1)
        np.testing.assert_allclose(out.data, v, atol=0)

    def test_hot_corner_matches_separable_oracle(self):
        v = np.zeros((2, 2, 2))
        v[0, 0, 0] = 1.0
        got = T.trilinear_upsample(Tensor(v, dtype=np.float64), 2).data
        # apply the 1-D oracle along each axis in turn
        want = v
        for axis in range(3):
            want = np.apply_along_axis(upsample_1d_oracle, axis, want, 2)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_batched_leading_axes(self, rng):
        v = rng.normal(size=(3, 2, 2, 2))
        got = T.trilinear_upsample(Tensor(v, dtype=np.float64), 2).data
        for i in range(3):
            single = T.trilinear_upsample(Tensor(v[i], dtype=np.float64), 2).data
            np.testing.assert_allclose(got[i], single, atol=1e-12)

    def test_gradient(self, rng):
        v = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True, dtype=np.float64)
        report = check_gradients(
            lambda: (T.trilinear_upsample(v, 2) ** 2).sum(), [("v", v)],
            elementwise=True,
        )
        assert max(report.values()) < 1e-3


class TestPixelShuffle:
    def test_s1_identity(self, rng):
        x = rng.normal(size=(1, 3, 2, 2))
        out = T.pixel_shuffle(Tensor(x), 1)
        np.testing.assert_allclose(out.data, x, atol=0)

    def test_hand_enumerated_mapping(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
        out = T.pixel_shuffle(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_matches_index_formula(self, rng):
        """out[n, c, h*s+i, w*s+j] = x[n, c*s^2 + i*s + j, h, w]."""
        s = 2
        x = rng.normal(size=(2, 8, 3, 4))
        out = T.pixel_shuffle(Tensor(x), s).data
        assert out.shape == (2, 2, 6, 8)
        for n, c, h, w, i, j in np.ndindex(2, 2, 3, 4, s, s):
            assert out[n, c, h * s + i, w * s + j] == x[n, c * s * s + i * s + j, h, w]

    def test_divisibility_error(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            T.pixel_shuffle(Tensor(rng.normal(size=(1, 3, 2, 2))), 2)

    def test_gradient_is_permutation(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 2, 3)), requires_grad=True, dtype=np.float64)
        w = Tensor(rng.normal(size=(1, 1, 4, 6)), dtype=np.float64)
        (T.pixel_shuffle(x, 2) * w).sum().backward()
        numeric = numerical_gradient(lambda: (T.pixel_shuffle(x, 2) * w).sum(), x)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-8)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        p = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        p.sum().backward()
        np.testing.assert_allclose(p.grad, 1.0)

    def test_sum_of_squares(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (p**2).sum().backward()
        np.testing.assert_allclose(p.grad, [2.0, 4.0])

    def test_repeat_backward_accumulates(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = (p**2).sum()
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(p.grad, [4.0, 8.0])

    def test_fanout_accumulates(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        (p * p + p).sum().backward()
        np.testing.assert_allclose(p.grad, [7.0])

    def test_non_scalar_loss_rejected(self, rng):
        p = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (p * 2.0).backward()

    def test_no_grad_suppresses_graph(self, rng):
        p = Tensor(rng.normal(size=3), requires_grad=True)
        with T.no_grad():
            out = (p * 2.0).sum()
        assert not out.requires_grad
        assert out._parents == ()


class TestNanChecks:
    def test_debug_mode_raises_on_nonfinite(self):
        prev = T.set_nan_checks(True)
        try:
            x = Tensor(np.array([1.0, 0.0]))
            with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="div"):
                T.div(x, Tensor(np.array([1.0, 0.0])))
        finally:
            T.set_nan_checks(prev)

    def test_disabled_by_default(self):
        x = Tensor(np.array([1.0]))
        with np.errstate(divide="ignore"):
            out = T.div(x, Tensor(np.array([0.0])))
        assert np.isinf(out.data[0])
