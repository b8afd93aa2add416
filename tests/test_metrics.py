"""PSNR/SSIM against reference implementations; evaluation determinism."""

import math
import os

import numpy as np
import pytest

from stereosr.data import generate_dataset
from stereosr.metrics import evaluate, psnr, ssim
from stereosr.model import init_model, zero_model

from oracles import ssim_reference


@pytest.fixture
def rng():
    return np.random.default_rng(314)


class TestPsnr:
    def test_identical_is_inf(self, rng):
        a = rng.random((1, 5, 5))
        assert math.isinf(psnr(a, a.copy()))

    def test_known_mse(self):
        a = np.zeros((1, 10, 10))
        b = np.full((1, 10, 10), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_full_scale_error_is_zero_db(self):
        a = np.zeros((1, 4, 4))
        b = np.ones((1, 4, 4))
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            psnr(rng.random((1, 4, 4)), rng.random((1, 4, 5)))

    def test_monotone_in_noise_amplitude(self, rng):
        img = rng.random((1, 24, 24))
        noise = rng.normal(size=img.shape)
        scores = [psnr(img, img + s * noise) for s in (0.01, 0.02, 0.04)]
        assert scores[0] > scores[1] > scores[2]


class TestSsim:
    def test_identical_is_one(self, rng):
        a = rng.random((1, 16, 16))
        assert ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, rng):
        a = rng.random((1, 16, 16))
        b = rng.random((1, 16, 16))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)

    def test_matches_sliding_window_reference(self, rng):
        a = rng.random((1, 16, 16))
        b = np.clip(a + 0.1 * rng.normal(size=a.shape), 0, 1)
        assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-6)

    def test_multichannel_reference(self, rng):
        a = rng.random((3, 13, 14))
        b = rng.random((3, 13, 14))
        assert ssim(a, b) == pytest.approx(ssim_reference(a, b), abs=1e-6)

    def test_bounded(self, rng):
        a = rng.random((1, 16, 16))
        b = 1.0 - a
        val = ssim(a, b)
        assert -1.0 <= val <= 1.0
        assert val < 1.0

    def test_image_smaller_than_window_rejected(self, rng):
        with pytest.raises(ValueError, match="window"):
            ssim(rng.random((1, 8, 8)), rng.random((1, 8, 8)))


class TestEvaluate:
    @pytest.fixture
    def manifest(self, tmp_path):
        return generate_dataset(
            str(tmp_path), seed=5, counts=(1, 1, 2), frame_h=32, frame_w=48,
            disparity_range=(1.0, 3.0), scale=2,
        )

    def test_bicubic_deterministic(self, manifest, tmp_path):
        csv_a = os.path.join(tmp_path, "a.csv")
        csv_b = os.path.join(tmp_path, "b.csv")
        ra = evaluate(manifest, "test", 2, "bicubic", csv_path=csv_a)
        rb = evaluate(manifest, "test", 2, "bicubic", csv_path=csv_b)
        assert ra.mean_psnr == rb.mean_psnr
        with open(csv_a, "rb") as fa, open(csv_b, "rb") as fb:
            assert fa.read() == fb.read()
        assert math.isfinite(ra.mean_psnr)

    def test_zero_weight_model_scores_exactly_bicubic(self, manifest, rng):
        params = init_model(rng, 2, 4, 1)
        zero_model(params)
        base = evaluate(manifest, "test", 2, "bicubic")
        got = evaluate(manifest, "test", 2, "model", params=params)
        for a, b in zip(base.records, got.records):
            assert a.psnr_db == b.psnr_db
            assert a.ssim == b.ssim

    def test_csv_has_aggregate_row(self, manifest, tmp_path):
        csv = os.path.join(tmp_path, "r.csv")
        report = evaluate(manifest, "val", 2, "bicubic", csv_path=csv)
        lines = open(csv).read().strip().splitlines()
        assert lines[0] == "image_id,eye,psnr_db,ssim"
        assert lines[-1].startswith("aggregate,both,")
        assert len(lines) == 1 + len(report.records) + 1

    def test_empty_split_rejected(self, manifest):
        with pytest.raises(ValueError, match="empty"):
            evaluate(manifest, "nosuch", 2, "bicubic")
