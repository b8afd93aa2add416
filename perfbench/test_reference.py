"""Tests of the benchmark's float64 reference on hand-computable cases.

    python3 -m pytest perfbench -q
"""

import math
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import reference  # noqa: E402
from stereosr import data, imageio, model, optim, tensor, training  # noqa: E402


def test_identity_kernel_returns_input():
    x = np.random.default_rng(0).random((2, 5, 6))
    w = np.zeros((2, 2, 3, 3))
    w[0, 0, 1, 1] = w[1, 1, 1, 1] = 1.0
    np.testing.assert_array_equal(reference.conv(x, w, np.zeros(2), pad=1), x)


def test_dilated_corner_tap_shifts_by_the_dilation():
    x = np.arange(25.0).reshape(1, 5, 5)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 0, 0] = 1.0
    out = reference.conv(x, w, np.array([0.5]), pad=2, dil=2)
    expect = np.full((1, 5, 5), 0.5)
    expect[0, 2:, 2:] += x[0, :3, :3]
    np.testing.assert_array_equal(out, expect)


def test_one_by_one_kernel_mixes_channels():
    x = np.stack([np.ones((2, 2)), 2.0 * np.ones((2, 2))])
    w = np.array([[3.0, -1.0]]).reshape(1, 2, 1, 1)
    np.testing.assert_array_equal(reference.conv(x, w, np.array([1.0])), np.full((1, 2, 2), 2.0))


def test_softmax_rows():
    halves = reference.softmax_rows(np.array([0.0, math.log(2.0)]))
    np.testing.assert_allclose(halves, [1 / 3, 2 / 3])
    np.testing.assert_allclose(reference.softmax_rows(np.array([[1000.0, 1000.0]])), [[0.5, 0.5]])


def test_one_hot_mask_warp_shifts_rows():
    feat = np.arange(16.0).reshape(2, 2, 4)  # [C, H, W]
    mask = np.zeros((2, 4, 4))
    for a in range(4):
        mask[:, a, max(a - 1, 0)] = 1.0  # column a takes column a - 1
    out = reference.warp_rows(mask, feat)
    np.testing.assert_array_equal(out[:, :, 1:], feat[:, :, :-1])
    np.testing.assert_array_equal(out[:, :, 0], feat[:, :, 0])


def test_pixel_shuffle_places_channels_on_the_subgrid():
    x = np.arange(4.0).reshape(4, 1, 1)
    np.testing.assert_array_equal(reference.pixel_shuffle(x, 2), [[[0.0, 1.0], [2.0, 3.0]]])


def test_keys_kernel_values():
    assert reference.keys(0.0) == 1.0
    assert reference.keys(1.0) == 0.0 and reference.keys(2.0) == 0.0
    assert reference.keys(0.5) == pytest.approx(0.5625)
    assert reference.keys(-1.5) == pytest.approx(-0.0625)


def test_bicubic_identity_constant_and_package_agreement():
    x = np.random.default_rng(1).random((1, 6, 9))
    np.testing.assert_allclose(reference.bicubic(x, 6, 9), x, atol=1e-15)
    np.testing.assert_allclose(reference.bicubic(np.full((1, 3, 4), 0.25), 6, 8), 0.25, atol=1e-15)
    package = data.bicubic_resize(x, 12, 18)
    np.testing.assert_allclose(reference.bicubic(x, 12, 18), package, atol=1e-12)


def test_psnr_db_hand_value():
    assert reference.psnr_db(np.zeros((1, 4, 4)), np.full((1, 4, 4), 0.1)) == pytest.approx(20.0)


def test_central_difference_and_gradient_gap():
    x = np.array([1.0, -2.0, 3.0])
    numeric = reference.central_difference(lambda: float(np.sum(x**3)), x, 1, 1e-5)
    assert numeric == pytest.approx(12.0, rel=1e-8)
    np.testing.assert_array_equal(x, [1.0, -2.0, 3.0])
    assert reference.gradient_gap(12.0, numeric) < 1e-8
    assert reference.gradient_gap(6.0, numeric) == pytest.approx(0.5, rel=1e-6)


def test_saved_pgm_rereads_as_quantized_image(tmp_path):
    img = np.random.default_rng(2).uniform(-0.1, 1.1, (1, 7, 5)).astype(np.float32)
    img[0, 0, :3] = np.array([0.5, 1.5, 2.5], dtype=np.float32) / 255  # half levels
    path = str(tmp_path / "x.pgm")
    imageio.save_image(path, np.clip(img, 0.0, 1.0))
    np.testing.assert_array_equal(reference.read_pgm(path), reference.quantize(img)[0])


@pytest.fixture(scope="module")
def small_case(tmp_path_factory):
    """A 4-channel model with a live head, its checkpoint records, and one served pair."""
    params = model.init_model(np.random.default_rng(3), 2, 4, zero_output=False)
    path = str(tmp_path_factory.mktemp("ckpt") / "m.bin")
    adam = optim.adam_init(optim.named_parameters(params))
    training.save_checkpoint(path, params, adam, 0, 0, 3, 0.0)
    ckpt = training.load_checkpoint(path)
    params, _, _ = training.restore_model(ckpt)
    sample, _ = data.synth_stereo(4, 12, 20, (1.0, 3.0), 2)
    with tensor.no_grad():
        sr_l, sr_r, m_lr, m_rl = model.super_resolve(
            tensor.Tensor(sample.lr_left[None]), tensor.Tensor(sample.lr_right[None]), params
        )
    out = (sample.lr_left, sample.lr_right, sr_l.data[0], sr_r.data[0], m_lr.data[0], m_rl.data[0])
    return ckpt, out


def test_reference_matches_super_resolve(small_case):
    ckpt, out = small_case
    gaps = reference.check_sr(reference.ReferenceModel(ckpt), *out)
    assert gaps["sr"] < reference.SR_TOL and gaps["mask"] < reference.MASK_RTOL


@pytest.mark.parametrize(
    "record",
    ["param.extractor.entry.weight", "param.attention.query.weight", "param.attention.output.bias"],
)
def test_check_fails_when_one_parameter_is_perturbed(small_case, record):
    ckpt, out = small_case
    perturbed = {k: v.copy() for k, v in ckpt.items()}
    perturbed[record].reshape(-1)[0] += 1e-2
    with pytest.raises(AssertionError):
        reference.check_sr(reference.ReferenceModel(perturbed), *out)
