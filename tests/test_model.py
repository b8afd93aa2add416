"""Attention masks, warping, reconstruction, and the two-pass forward."""

import tracemalloc

import numpy as np
import pytest

from oracles import lone_eye_warp
from stereosr.backbone import extract_features, init_res_aspp_block
from stereosr.data import bicubic_resize, synth_stereo
from stereosr.gradcheck import check_gradients, numerical_gradient
from stereosr.model import (
    attention_masks,
    batch_tensors,
    forward_full,
    init_model,
    masks_pair,
    pair_disparity,
    reconstruct_sr,
    sr_pair,
    super_resolve,
    warp,
    zero_model,
)
from stereosr import tensor as T
from stereosr.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def tiny_model(rng, channels=4, scale=2, dtype=np.float32, tie_qk=False):
    # generic parameter point: keep the output conv randomly initialized
    params = init_model(
        rng, scale, channels, img_channels=1, dtype=dtype, zero_output=False
    )
    if tie_qk:
        params.attention.key.weight.data = params.attention.query.weight.data.copy()
        params.attention.key.bias.data = params.attention.query.bias.data.copy()
    return params


def one_hot_shift_mask(h, w, shift):
    """mask[i, a, a - shift] = 1: output column a copies input column a-shift."""
    m = np.zeros((h, w, w), dtype=np.float64)
    for a in range(w):
        m[:, a, np.clip(a - shift, 0, w - 1)] = 1.0
    return m


class TestAttentionMasks:
    def test_scores_symmetric_for_equal_eyes_tied_qk(self, rng):
        params = tiny_model(rng, tie_qk=True, dtype=np.float64)
        x = Tensor(rng.random((1, 1, 5, 7)), dtype=np.float64)
        f_l, f_r = extract_features(x, Tensor(x.data.copy()), params.extractor)
        m_lr, m_rl = attention_masks(f_l, f_r, params.attention).data
        np.testing.assert_array_equal(m_lr, m_rl)

    def test_constant_features_give_uniform_masks(self, rng):
        """Equal logits normalize to 1/W.

        The mixing block is zeroed so the constant input actually reaches
        the 1x1 query/key projections (its padded convs would otherwise
        perturb the borders of a constant map).
        """
        model = tiny_model(rng, channels=3)
        for p in (model.attention.mix.fuse,):
            p.weight.data[...] = 0.0
            p.bias.data[...] = 0.0
        f = Tensor(np.full((1, 3, 4, 6), 0.7, dtype=np.float32))
        m_lr, m_rl = attention_masks(f, Tensor(f.data.copy()), model.attention).data
        np.testing.assert_allclose(m_lr, 1.0 / 6.0, atol=1e-6)
        np.testing.assert_allclose(m_rl, 1.0 / 6.0, atol=1e-6)

    def test_row_slices_sum_to_one(self, rng):
        params = tiny_model(rng)
        a = Tensor(rng.random((2, 1, 5, 8)).astype(np.float32))
        b = Tensor(rng.random((2, 1, 5, 8)).astype(np.float32))
        f_l, f_r = extract_features(a, b, params.extractor)
        for m in attention_masks(f_l, f_r, params.attention).data:
            np.testing.assert_allclose(m.sum(-1), 1.0, atol=1e-5)
            assert m.min() >= 0.0

    def test_shape_mismatch_rejected(self, rng):
        params = tiny_model(rng)
        with pytest.raises(ValueError, match="differ"):
            attention_masks(
                Tensor(np.zeros((1, 4, 4, 5))),
                Tensor(np.zeros((1, 4, 4, 6))),
                params.attention,
            )


def mask_pair(m_lr, m_rl=None):
    """One [2,N,H,W,W] pair from [N,H,W,W] masks; M_rl defaults to M_lr."""
    return np.stack([m_lr, m_lr if m_rl is None else m_rl])


class TestWarp:
    def test_identity_mask_is_identity(self, rng):
        img = rng.random((2, 1, 2, 3, 5)).astype(np.float32)
        mask = np.broadcast_to(np.eye(5, dtype=np.float32), (2, 1, 3, 5, 5)).copy()
        out = warp(Tensor(mask), Tensor(img[0]), Tensor(img[1]))
        np.testing.assert_allclose(out.data, img, atol=1e-7)

    def test_uniform_mask_averages_rows(self, rng):
        img = rng.random((2, 1, 1, 4, 6)).astype(np.float64)
        mask = np.full((2, 1, 4, 6, 6), 1.0 / 6.0)
        out = warp(Tensor(mask, dtype=np.float64), *(Tensor(e, dtype=np.float64) for e in img))
        want = np.repeat(img.mean(axis=-1, keepdims=True), 6, axis=-1)
        np.testing.assert_allclose(out.data, want, atol=1e-9)

    def test_one_hot_shift_matches_direct_shift(self, rng):
        img = rng.random((2, 1, 1, 4, 8)).astype(np.float64)
        mask = mask_pair(one_hot_shift_mask(4, 8, 2)[None])
        out = warp(Tensor(mask, dtype=np.float64), *(Tensor(e, dtype=np.float64) for e in img))
        np.testing.assert_allclose(out.data[..., 2:], img[..., :-2], atol=1e-12)

    def test_linearity(self, rng):
        mask = Tensor(np.abs(rng.random((2, 1, 3, 5, 5))), dtype=np.float64)
        x = [Tensor(rng.random((1, 2, 3, 5)), dtype=np.float64) for _ in range(2)]
        y = [Tensor(rng.random((1, 2, 3, 5)), dtype=np.float64) for _ in range(2)]
        mixed = [Tensor(0.3 * a.data + 1.7 * b.data, dtype=np.float64) for a, b in zip(x, y)]
        lhs = warp(mask, *mixed)
        rhs = 0.3 * warp(mask, *x).data + 1.7 * warp(mask, *y).data
        np.testing.assert_allclose(lhs.data, rhs, atol=1e-5)

    def test_extent_mismatch_rejected(self, rng):
        eye = Tensor(np.zeros((1, 1, 4, 5)))
        with pytest.raises(ValueError, match="extents"):
            warp(Tensor(np.zeros((2, 1, 4, 6, 6))), eye, eye)

    def test_unbatched_mask_rejected(self):
        eye = Tensor(np.zeros((1, 1, 4, 6)))
        with pytest.raises(ValueError, match=r"warp needs a \[2,N,H,W,W\] mask pair"):
            warp(Tensor(np.zeros((4, 6, 6))), eye, eye)

    def test_eyes_of_different_shape_rejected(self):
        mask = Tensor(np.zeros((2, 1, 4, 6, 6)))
        with pytest.raises(ValueError, match="warp got eyes"):
            warp(mask, Tensor(np.zeros((1, 1, 4, 6))), Tensor(np.zeros((1, 2, 4, 6))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, c", [(1, 1), (1, 8), (2, 1), (2, 8)])
    def test_pair_equals_lone_eye_products_bitwise(self, rng, n, c, dtype):
        """Index 0 is M_lr applied to the left eye and index 1 M_rl to the right
        eye, each equal bit for bit to that eye's own batch_matmul. With OpenBLAS,
        a contiguous copy of the N=1, C=8 float64 rows rounds otherwise."""
        h, w = 5, 32
        masks = rng.random((2, n, h, w, w)).astype(dtype)
        left, right = rng.random((2, n, c, h, w)).astype(dtype)
        out = warp(Tensor(masks), Tensor(left), Tensor(right))
        assert out.shape == (2, n, c, h, w) and out.dtype == dtype
        for got, mask, eye in zip(out.data, masks, (left, right)):
            want = lone_eye_warp(Tensor(mask), Tensor(eye)).data
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_gradients(self, rng):
        masks = Tensor(rng.random((2, 2, 3, 4, 4)), requires_grad=True, dtype=np.float64)
        left = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True, dtype=np.float64)
        right = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True, dtype=np.float64)
        weight = Tensor(rng.normal(size=(2, 2, 3, 3, 4)), dtype=np.float64)
        report = check_gradients(
            lambda: (warp(masks, left, right) * weight).sum(),
            [("masks", masks), ("left", left), ("right", right)],
            elementwise=True,
        )
        assert max(report.values()) < 1e-6, report


class TestReconstruct:
    def test_output_shape(self, rng):
        params = tiny_model(rng, channels=4, scale=2)
        f = Tensor(rng.normal(size=(1, 4, 5, 6)).astype(np.float32))
        g = Tensor(rng.normal(size=(1, 4, 5, 6)).astype(np.float32))
        lr = Tensor(rng.random((1, 1, 5, 6)).astype(np.float32))
        out = reconstruct_sr(f, g, lr, params.attention, 2)
        assert out.shape == (1, 1, 10, 12)

    def test_zero_weights_reproduce_bicubic(self, rng):
        params = tiny_model(rng, dtype=np.float64)
        zero_model(params)
        lr = rng.random((1, 1, 6, 8))
        f = Tensor(np.zeros((1, 4, 6, 8)))
        out = reconstruct_sr(f, f, Tensor(lr, dtype=np.float64), params.attention, 2)
        want = bicubic_resize(lr[0], 12, 16)
        assert np.array_equal(out.data[0], want)

    def test_gradient_reaches_features_and_mask(self, rng):
        """On a 4x6 patch, d(loss)/d(F_own) and d(loss)/d(mask logits) both check out."""
        params = tiny_model(rng, channels=3, dtype=np.float64)
        f_own = Tensor(rng.normal(size=(1, 3, 4, 6)), requires_grad=True, dtype=np.float64)
        f_other = Tensor(rng.normal(size=(1, 3, 4, 6)), requires_grad=True, dtype=np.float64)
        logits = Tensor(rng.normal(size=(2, 1, 4, 6, 6)), requires_grad=True, dtype=np.float64)
        lr = Tensor(rng.random((1, 1, 4, 6)), dtype=np.float64)

        def loss():
            masks = T.softmax_lastdim(logits)
            # f_own as the left eye: M_rl warps f_other (index 1) onto it
            warped = warp(masks, f_own, f_other)[1]
            out = reconstruct_sr(f_own, warped, lr, params.attention, 2)
            return (out**2).sum()

        for p in (f_own, f_other, logits):
            p.zero_grad()
        loss().backward()
        for p in (f_own, f_other, logits):
            assert p.grad is not None and np.any(p.grad != 0)
            np.testing.assert_allclose(
                p.grad, numerical_gradient(loss, p), rtol=1e-4, atol=1e-7
            )


class TestForwardFull:
    def test_output_shapes(self, rng):
        params = tiny_model(rng, channels=4, scale=2)
        sample, _ = synth_stereo(1, 12, 20, (1.0, 2.0), scale=2)
        lr_l, lr_r, _, _ = batch_tensors([sample])
        out = forward_full(lr_l, lr_r, params)
        assert out.sr_left.shape == (1, 1, 12, 20)
        assert out.sr_right.shape == (1, 1, 12, 20)
        assert out.masks_lr.shape == (2, 1, 6, 10, 10)
        assert out.masks_sr.shape == (2, 1, 12, 20, 20)

    def test_all_mask_rows_normalized_after_forward(self, rng):
        params = tiny_model(rng)
        sample, _ = synth_stereo(2, 12, 20, (1.0, 2.0), scale=2)
        lr_l, lr_r, _, _ = batch_tensors([sample])
        out = forward_full(lr_l, lr_r, params)
        for m in (*out.masks_lr.data, *out.masks_sr.data):
            sums = m.sum(-1)
            assert np.all(np.abs(sums - 1.0) <= 1e-5)

    def test_eye_swap_with_tied_qk_swaps_outputs_bitwise(self, rng):
        """Shared weights make eye swap an exact symmetry once query=key."""
        params = tiny_model(rng, tie_qk=True, dtype=np.float64)
        sample, _ = synth_stereo(3, 12, 20, (1.0, 2.0), scale=2)
        lr_l, lr_r, _, _ = batch_tensors([sample], dtype=np.float64)
        fwd = forward_full(lr_l, lr_r, params)
        swp = forward_full(lr_r, lr_l, params)
        assert np.array_equal(swp.sr_left.data, fwd.sr_right.data)
        assert np.array_equal(swp.sr_right.data, fwd.sr_left.data)
        assert np.array_equal(swp.masks_lr.data[1], fwd.masks_lr.data[0])
        assert np.array_equal(swp.masks_lr.data[0], fwd.masks_lr.data[1])
        assert np.array_equal(swp.masks_sr.data[1], fwd.masks_sr.data[0])

    def test_zero_model_equals_bicubic_baseline(self, rng):
        params = tiny_model(rng, dtype=np.float64)
        zero_model(params)
        sample, _ = synth_stereo(4, 12, 20, (1.0, 2.0), scale=2)
        lr_l, lr_r, _, _ = batch_tensors([sample], dtype=np.float64)
        sr_l, sr_r, m_lr, m_rl = super_resolve(lr_l, lr_r, params)
        assert np.array_equal(sr_l.data[0], bicubic_resize(lr_l.data[0], 12, 20))
        assert np.array_equal(sr_r.data[0], bicubic_resize(lr_r.data[0], 12, 20))
        # zero features give uniform masks
        np.testing.assert_allclose(m_lr.data, 1.0 / 10.0, atol=1e-7)


class TestServingMemory:
    def test_super_resolve_peak_is_below_two_and_a_half_score_volumes(self, rng):
        """Under no_grad the two returned masks dominate the peak: the scores
        are worked in row blocks, never held as a third [H,W,W] array.

        The measured call is the second: the first also builds and caches
        the bicubic matrices of this frame size.
        """
        h, w = 16, 512
        params = init_model(rng, 2, 8, zero_output=False)
        left = Tensor(rng.random((1, 1, h, w)).astype(np.float32))
        right = Tensor(rng.random((1, 1, h, w)).astype(np.float32))
        with T.no_grad():
            super_resolve(left, right, params)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = super_resolve(left, right, params)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        volume = h * w * w * 4
        assert out[2].data.nbytes == volume
        assert peak < 2.5 * volume, peak / volume


class TestMasksPair:
    def test_equals_extract_features_and_attention_masks(self, rng):
        params = tiny_model(rng)
        sample, _ = synth_stereo(11, 16, 40, (2.0, 4.0), scale=2)
        m_lr, m_rl = masks_pair(params, sample.lr)
        with T.no_grad():
            f_l, f_r = extract_features(
                Tensor(sample.lr_left[None]), Tensor(sample.lr_right[None]), params.extractor
            )
            want_lr, want_rl = attention_masks(f_l, f_r, params.attention).data
        assert m_lr.shape == m_rl.shape == (8, 20, 20)
        assert m_lr.tobytes() == want_lr[0].tobytes()
        assert m_rl.tobytes() == want_rl[0].tobytes()


class TestPairHelpers:
    def test_sr_pair_equals_super_resolve(self, rng):
        params = tiny_model(rng)
        sample, _ = synth_stereo(12, 16, 40, (2.0, 4.0), scale=2)
        sr = sr_pair(params, sample.lr)
        with T.no_grad():
            want_l, want_r, _, _ = super_resolve(
                Tensor(sample.lr_left[None]), Tensor(sample.lr_right[None]), params
            )
        assert sr.shape == (2, 1, 16, 40)
        assert sr[0].tobytes() == want_l.data[0].tobytes()
        assert sr[1].tobytes() == want_r.data[0].tobytes()

    def test_batch_tensors_stacks_each_eye(self):
        samples = [synth_stereo(k, 8, 16, (1.0, 2.0), scale=2)[0] for k in range(3)]
        lr_l, lr_r, hr_l, hr_r = batch_tensors(samples, dtype=np.float64)
        names = ("lr_left", "lr_right", "hr_left", "hr_right")
        for got, name in zip((lr_l, lr_r, hr_l, hr_r), names):
            want = np.stack([getattr(s, name) for s in samples]).astype(np.float64)
            assert got.data.flags.c_contiguous and got.dtype == np.float64
            assert got.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("channels, img_channels", [(0, 1), (-1, 1), (4, 0)])
    def test_init_model_rejects_non_positive_channels(self, rng, channels, img_channels):
        with pytest.raises(ValueError, match="channels"):
            init_model(rng, 2, channels, img_channels)


class TestMaskDisparity:
    def test_recovers_shift_from_one_hot_masks(self):
        d = 3
        m_rl = one_hot_shift_mask(4, 10, d)  # left[a] taken from right[a-d]
        disp = pair_disparity(mask_pair(np.zeros_like(m_rl), m_rl))
        assert disp.shape == (2, 4, 10) and disp.dtype == np.int32
        assert np.all(disp[0, :, d:] == d)

    def test_lr_direction(self):
        d = 2
        # right[b] copies left[b + d]: mask[i, b, b + d] = 1
        m_lr = one_hot_shift_mask(4, 10, -d)
        disp = pair_disparity(mask_pair(m_lr, np.zeros_like(m_lr)))
        assert np.all(disp[1, :, : 10 - d] == d)
