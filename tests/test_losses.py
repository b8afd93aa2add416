"""Loss components against direct-formula oracles and hand enumerations."""

import tracemalloc

import numpy as np
import pytest

from oracles import lone_eye_warp
from stereosr.losses import (
    LossBreakdown,
    compute_losses,
    cycle_loss,
    disparity_consistency_loss,
    mse_loss,
    photometric_loss,
    smoothness_loss,
    total_loss,
)
from stereosr.data import synth_stereo
from stereosr.model import batch_tensors, forward_full, init_model
from stereosr.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def one_hot_shift_mask(h, w, shift):
    m = np.zeros((h, w, w))
    for a in range(w):
        m[:, a, np.clip(a - shift, 0, w - 1)] = 1.0
    return m


def warp_oracle(mask, img):
    """Direct triple loop: out[c,i,a] = sum_b mask[i,a,b] img[c,i,b]."""
    c, h, w = img.shape
    out = np.zeros_like(img)
    for ci in range(c):
        for i in range(h):
            for a in range(w):
                for b in range(w):
                    out[ci, i, a] += mask[i, a, b] * img[ci, i, b]
    return out


def upsample_1d_oracle(vec, factor):
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


class TestMseLoss:
    def test_zero_when_equal(self, rng):
        x = Tensor(rng.random((1, 1, 4, 6)))
        assert mse_loss(x, x, Tensor(x.data.copy()), Tensor(x.data.copy())).item() == 0.0

    def test_constant_offset(self, rng):
        hr = Tensor(rng.random((1, 1, 4, 6)), dtype=np.float64)
        sr = Tensor(hr.data + 0.1, dtype=np.float64)
        loss = mse_loss(sr, sr, hr, hr)
        assert loss.item() == pytest.approx(0.02, abs=1e-9)

    def test_matches_double_loop_oracle(self, rng):
        sl, srr = rng.random((1, 1, 3, 4)), rng.random((1, 1, 3, 4))
        hl, hrr = rng.random((1, 1, 3, 4)), rng.random((1, 1, 3, 4))
        want = 0.0
        for a, b in ((sl, hl), (srr, hrr)):
            acc = 0.0
            for idx in np.ndindex(a.shape):
                acc += (a[idx] - b[idx]) ** 2
            want += acc / a.size
        got = mse_loss(*(Tensor(v, dtype=np.float64) for v in (sl, srr, hl, hrr)))
        assert got.item() == pytest.approx(want, abs=1e-6)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="differ"):
            mse_loss(
                Tensor(np.zeros((1, 1, 4, 6))),
                Tensor(np.zeros((1, 1, 4, 6))),
                Tensor(np.zeros((1, 1, 4, 5))),
                Tensor(np.zeros((1, 1, 4, 6))),
            )


class TestDisparityConsistency:
    def test_zero_for_identical_masks_at_s1(self, rng):
        m = Tensor(np.abs(rng.random((2, 1, 3, 4, 4))), dtype=np.float64)
        m = m / m.data.sum(-1, keepdims=True)
        loss = disparity_consistency_loss(m, Tensor(m.data.copy(), dtype=np.float64), 1)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_masks_zero_at_s2(self):
        lr = Tensor(np.full((2, 1, 2, 3, 3), 1.0 / 3.0), dtype=np.float64)
        sr = Tensor(np.full((2, 1, 4, 6, 6), 1.0 / 6.0), dtype=np.float64)
        loss = disparity_consistency_loss(lr, sr, 2)
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_one_hot_vs_uniform_matches_oracle(self):
        """Upsample the one-hot mask with the 1-D oracle, renormalize, compare."""
        h, w, s = 2, 3, 2
        lr = one_hot_shift_mask(h, w, 1)[None]
        sr = np.full((1, h * s, w * s, w * s), 1.0 / (w * s))

        up = lr[0]
        for axis in range(3):
            up = np.apply_along_axis(upsample_1d_oracle, axis, up, s)
        up = up / up.sum(-1, keepdims=True)
        want = np.mean((up - sr[0]) ** 2) * 2  # both directions identical here

        got = disparity_consistency_loss(
            Tensor(np.stack([lr, lr]), dtype=np.float64),
            Tensor(np.stack([sr, sr]), dtype=np.float64),
            s,
        )
        assert got.item() == pytest.approx(want, abs=1e-5)

    def test_extent_mismatch(self, rng):
        lr = Tensor(np.zeros((2, 1, 2, 3, 3)))
        sr_bad = Tensor(np.zeros((2, 1, 4, 5, 5)))
        with pytest.raises(ValueError, match="does not match"):
            disparity_consistency_loss(lr, sr_bad, 2)

    def test_desk_batch_holds_no_full_intermediate(self, rng):
        """Forward plus backward at the desk batch (8 patches of 16x48, x2)
        traces under three SR mask pairs: the SR gradient and the leaf's
        accumulated copy of it, then blocks. The unfused upsample, row sums,
        quotient, gap and square, and their gradients, traced eight pairs."""
        lr = rng.random((2, 8, 16, 48, 48)).astype(np.float32)
        sr = rng.random((2, 8, 32, 96, 96)).astype(np.float32)
        lr = Tensor(lr / lr.sum(-1, keepdims=True), requires_grad=True)
        sr = Tensor(sr / sr.sum(-1, keepdims=True), requires_grad=True)
        tracemalloc.start()
        try:
            disparity_consistency_loss(lr, sr, 2).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sr.data.nbytes, peak / sr.data.nbytes


class TestPhotometric:
    def test_identical_eyes_identity_masks(self, rng):
        img = rng.random((1, 1, 4, 6))
        eye = np.broadcast_to(np.eye(6), (2, 1, 4, 6, 6)).copy()
        loss = photometric_loss(
            Tensor(img, dtype=np.float64),
            Tensor(img.copy(), dtype=np.float64),
            Tensor(eye, dtype=np.float64),
        )
        assert loss.item() == 0.0

    def test_exact_shift_zero_on_interior(self, rng):
        """With true shift masks only clamped border columns contribute."""
        d, h, w = 2, 4, 10
        left = rng.random((1, h, w))
        right = np.empty_like(left)
        right[:, :, : w - d] = left[:, :, d:]  # right[x] = left[x+d]
        right[:, :, w - d :] = left[:, :, -1:]
        m_rl = one_hot_shift_mask(h, w, d)  # left[a] <- right[a-d]
        m_lr = one_hot_shift_mask(h, w, -d)  # right[b] <- left[b+d]
        left_hat = warp_oracle(m_rl, right)
        right_hat = warp_oracle(m_lr, left)
        np.testing.assert_allclose(left_hat[:, :, d:], left[:, :, d:], atol=1e-12)
        np.testing.assert_allclose(
            right_hat[:, :, : w - d - 1], right[:, :, : w - d - 1], atol=1e-12
        )

    def test_matches_warp_plus_l1_oracle(self, rng):
        il, ir = rng.random((1, 1, 3, 5)), rng.random((1, 1, 3, 5))
        m_rl = np.abs(rng.random((1, 3, 5, 5)))
        m_rl /= m_rl.sum(-1, keepdims=True)
        m_lr = np.abs(rng.random((1, 3, 5, 5)))
        m_lr /= m_lr.sum(-1, keepdims=True)
        want = np.mean(np.abs(il[0] - warp_oracle(m_rl[0], ir[0]))) + np.mean(
            np.abs(ir[0] - warp_oracle(m_lr[0], il[0]))
        )
        got = photometric_loss(
            *(Tensor(v, dtype=np.float64) for v in (il, ir, np.stack([m_lr, m_rl])))
        )
        assert got.item() == pytest.approx(want, abs=1e-6)


class TestSmoothness:
    def test_constant_mask_zero(self):
        loss = smoothness_loss(Tensor(np.full((2, 1, 3, 4, 4), 0.25)))
        np.testing.assert_array_equal(loss.data, [0.0, 0.0])

    def test_uniform_mask_zero(self):
        m = Tensor(np.full((2, 1, 2, 5, 5), 0.2))
        np.testing.assert_array_equal(smoothness_loss(m).data, [0.0, 0.0])

    def test_toeplitz_slices_hand_enumeration(self):
        """Diagonal-constant slices zero the second term; row variation feeds the first.

        H=2, W=3: slice 0 = identity, slice 1 = subdiagonal. They differ in
        5 entries, so term1 = 5 / (1*3*3); both slices are Toeplitz, so
        term2 = 0.
        """
        m = np.zeros((1, 2, 3, 3))
        m[0, 0] = np.eye(3)
        m[0, 1] = np.diag(np.ones(2), k=-1)
        loss = smoothness_loss(Tensor(np.stack([m, m]), dtype=np.float64))
        np.testing.assert_allclose(loss.data, 5.0 / 9.0, atol=1e-9)

    def test_alternative_second_term(self):
        """The non-diagonal variant differences along the match axis only."""
        m = np.zeros((1, 1, 2, 2))
        m[0, 0, 0] = [1.0, 0.0]
        m[0, 0, 1] = [1.0, 0.0]
        loss = smoothness_loss(Tensor(np.stack([m, m]), dtype=np.float64), diagonal=False)
        # term1 = 0 (rows identical along i... only one i), term2 = |1-0| twice / 2
        np.testing.assert_allclose(loss.data, 1.0, atol=1e-9)

    def test_unbatched_mask_rejected(self):
        with pytest.raises(ValueError, match=r"\[2,N,H,W,W\]"):
            smoothness_loss(Tensor(np.full((3, 4, 4), 0.25)))


class TestCycle:
    def test_identity_masks_zero(self):
        eye = np.broadcast_to(np.eye(5), (2, 1, 3, 5, 5)).copy()
        loss = cycle_loss(Tensor(eye, dtype=np.float64))
        assert loss.item() == 0.0

    def test_inverse_shift_masks_zero_on_interior(self):
        h, w, d = 3, 8, 2
        m_fwd = one_hot_shift_mask(h, w, d)
        m_bwd = one_hot_shift_mask(h, w, -d)
        prod = np.matmul(m_fwd[0], m_bwd[0])
        np.testing.assert_array_equal(prod[d : w - d], np.eye(w)[d : w - d])

    def test_uniform_masks_w4_derived_value(self):
        """Per-row |uniform - I| sums to 6; mean-reduced both ways -> 0.75."""
        m = np.full((1, 2, 4, 4), 0.25)
        got = cycle_loss(Tensor(np.stack([m, m]), dtype=np.float64))
        # direct oracle
        prod = np.matmul(m, m)
        want = 2 * np.mean(np.abs(prod - np.eye(4)))
        assert want == pytest.approx(0.75)
        assert got.item() == pytest.approx(want, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mask pair"):
            cycle_loss(Tensor(np.zeros((2, 1, 2, 3, 4))))

    def test_unbatched_masks_rejected(self):
        m = np.full((2, 4, 4), 0.25)
        with pytest.raises(ValueError, match=r"\[2,N,H,W,W\]"):
            cycle_loss(Tensor(m))


class TestTotalLoss:
    def _parts(self, rng):
        vals = rng.random(6)
        return [Tensor(np.array(v), dtype=np.float64) for v in vals]

    def test_alpha_zero_reduces_to_mse(self, rng):
        parts = self._parts(rng)
        total, br = total_loss(*parts, alpha=0.0)
        assert total.item() == parts[0].item()
        assert br.total == br.mse

    def test_all_zero_components(self):
        zero = [Tensor(np.array(0.0)) for _ in range(6)]
        total, br = total_loss(*zero, alpha=0.005)
        assert total.item() == 0.0 and br.apam == 0.0

    def test_breakdown_invariants(self, rng):
        parts = self._parts(rng)
        _, br = total_loss(*parts, alpha=0.005)
        assert br.apam == pytest.approx(
            br.photo + br.smooth_lr + br.smooth_rl + br.cycle, abs=1e-6
        )
        assert br.total == pytest.approx(br.mse + 0.005 * (br.dc + br.apam), abs=1e-6)

    def test_csv_row_format(self):
        br = LossBreakdown(1, 2, 3, 4, 5, 6, 7, 8, 0.005)
        row = br.csv_row(12)
        assert row.split(",")[0] == "12"
        assert len(row.split(",")) == 9


class TestFullObjective:
    def test_components_nonnegative_on_model_outputs(self, rng):
        params = init_model(rng, 2, 4, 1)
        sample, _ = synth_stereo(11, 12, 24, (1.0, 2.0), scale=2)
        lr_l, lr_r, hr_l, hr_r = batch_tensors([sample])
        out = forward_full(lr_l, lr_r, params)
        _, br = compute_losses(out, lr_l, lr_r, hr_l, hr_r, 0.005, 2)
        for name in ("total", "mse", "dc", "apam", "photo", "smooth_lr", "smooth_rl", "cycle"):
            assert getattr(br, name) >= 0.0

    def test_alpha_zero_gradients_match_pure_mse_bitwise(self, rng):
        """At 64-bit, alpha=0 training gradients equal plain-MSE gradients."""
        from stereosr.optim import named_parameters, zero_grads

        params = init_model(rng, 2, 4, 1, dtype=np.float64)
        sample, _ = synth_stereo(13, 12, 24, (1.0, 2.0), scale=2)
        lr_l, lr_r, hr_l, hr_r = batch_tensors([sample], dtype=np.float64)

        zero_grads(params)
        out = forward_full(lr_l, lr_r, params)
        total, _ = compute_losses(out, lr_l, lr_r, hr_l, hr_r, 0.0, 2)
        total.backward()
        grads_alpha0 = {n: p.grad.copy() for n, p in named_parameters(params)}

        zero_grads(params)
        out = forward_full(lr_l, lr_r, params)
        mse_only = mse_loss(out.sr_left, out.sr_right, hr_l, hr_r)
        mse_only.backward()
        for name, p in named_parameters(params):
            got = p.grad if p.grad is not None else np.zeros_like(p.data)
            assert np.array_equal(grads_alpha0[name], got), name

    def test_stacked_terms_equal_per_direction_formulas_bitwise(self):
        """Float32 desk batch: every loss value and parameter gradient of the
        stacked mask terms equals the same terms written one direction at a
        time, bit for bit."""
        from stereosr import tensor as T
        from stereosr.optim import named_parameters, zero_grads

        alpha = 0.005
        params = init_model(np.random.default_rng(5), 2, 8, 1, zero_output=False)
        samples = [synth_stereo(20 + k, 32, 96, (2.0, 6.0), scale=2)[0] for k in range(8)]
        lr_l, lr_r, hr_l, hr_r = batch_tensors(samples)

        def upsample_renorm(m):
            up = T.trilinear_upsample(m, 2)
            return up / up.sum(axis=-1, keepdims=True)

        def smooth(m):
            return (m[:, :-1] - m[:, 1:]).abs().mean() + (
                m[:, :, :-1, :-1] - m[:, :, 1:, 1:]
            ).abs().mean()

        def per_direction(out):
            m_lr, m_rl = out.masks_lr[0], out.masks_lr[1]
            dc = ((upsample_renorm(m_lr) - out.masks_sr[0]) ** 2).mean() + (
                (upsample_renorm(m_rl) - out.masks_sr[1]) ** 2
            ).mean()
            photo = (lr_l - lone_eye_warp(m_rl, lr_r)).abs().mean() + (
                lr_r - lone_eye_warp(m_lr, lr_l)
            ).abs().mean()
            smooth_lr, smooth_rl = smooth(m_lr), smooth(m_rl)
            n, h, w, _ = m_lr.shape
            lr_rows, rl_rows = m_lr.reshape(n * h, w, w), m_rl.reshape(n * h, w, w)
            eye = Tensor(np.eye(w, dtype=np.float32))
            cycle = (T.batch_matmul(lr_rows, rl_rows) - eye).abs().mean() + (
                T.batch_matmul(rl_rows, lr_rows) - eye
            ).abs().mean()
            mse = mse_loss(out.sr_left, out.sr_right, hr_l, hr_r)
            return total_loss(mse, dc, photo, smooth_lr, smooth_rl, cycle, alpha)

        results = []
        for objective in (
            lambda out: compute_losses(out, lr_l, lr_r, hr_l, hr_r, alpha, 2),
            per_direction,
        ):
            zero_grads(params)
            total, br = objective(forward_full(lr_l, lr_r, params))
            total.backward()
            results.append((br, {n: p.grad.copy() for n, p in named_parameters(params)}))
        (got_br, got), (want_br, want) = results
        assert got_br == want_br
        assert len(got) == 56
        for name in want:
            assert np.array_equal(got[name], want[name]), name
