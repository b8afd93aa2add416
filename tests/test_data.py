"""Data pipeline: resampling, patching, augmentation, synthesis, IO."""

import os

import numpy as np
import pytest

from oracles import corrupted
from stereosr import data
from stereosr.data import (
    ManifestEntry,
    StereoSample,
    augment,
    bicubic_resize,
    degrade,
    extract_patches,
    flip_horizontal,
    flip_vertical,
    generate_dataset,
    load_frame,
    manifest_patches,
    patch_offsets,
    read_manifest,
    synth_stereo,
    validate_sample,
    write_manifest,
)
from stereosr.imageio import (
    load_disparity,
    load_image,
    save_disparity,
    save_image,
)
from stereosr.tensor import _WEIGHT_CACHE_SIZE, resampling_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def keys_kernel(x):
    ax = abs(x)
    if ax <= 1:
        return (1.5 * ax - 2.5) * ax * ax + 1.0
    if ax < 2:
        return ((-0.5 * ax + 2.5) * ax - 4.0) * ax + 2.0
    return 0.0


def bicubic_oracle(img, out_h, out_w):
    """Direct per-pixel Keys (a=-0.5) evaluation, edge clamped."""
    c, h, w = img.shape
    out = np.zeros((c, out_h, out_w))
    for oy in range(out_h):
        sy = (oy + 0.5) * h / out_h - 0.5
        y0 = int(np.floor(sy))
        for ox in range(out_w):
            sx = (ox + 0.5) * w / out_w - 0.5
            x0 = int(np.floor(sx))
            for ci in range(c):
                acc = 0.0
                for ky in range(-1, 3):
                    wy = keys_kernel(ky - (sy - y0))
                    iy = min(max(y0 + ky, 0), h - 1)
                    for kx in range(-1, 3):
                        wx = keys_kernel(kx - (sx - x0))
                        ix = min(max(x0 + kx, 0), w - 1)
                        acc += wy * wx * img[ci, iy, ix]
                out[ci, oy, ox] = acc
    return out


class TestBicubicResize:
    def test_constant_preserved(self):
        img = np.full((1, 6, 8), 0.37)
        out = bicubic_resize(img, 3, 4)
        np.testing.assert_allclose(out, 0.37, atol=1e-6)

    def test_identity_resize(self, rng):
        img = rng.random((1, 5, 7))
        out = bicubic_resize(img, 5, 7)
        np.testing.assert_allclose(out, img, atol=1e-6)

    def test_ramp_downsize_matches_oracle(self):
        ramp = np.linspace(0, 1, 64).reshape(1, 8, 8)
        got = bicubic_resize(ramp, 4, 4)
        want = bicubic_oracle(ramp, 4, 4)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_random_resize_matches_oracle(self, rng):
        img = rng.random((2, 7, 9))
        got = bicubic_resize(img, 13, 5)
        want = bicubic_oracle(img, 13, 5)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_deterministic_bit_identical(self, rng):
        img = rng.random((1, 12, 16)).astype(np.float32)
        a = bicubic_resize(img, 6, 8)
        b = bicubic_resize(img.copy(), 6, 8)
        assert np.array_equal(a, b)

    def test_rejects_bad_target(self, rng):
        with pytest.raises(ValueError):
            bicubic_resize(rng.random((1, 4, 4)), 0, 3)
        with pytest.raises(ValueError, match="C, H, W"):
            bicubic_resize(rng.random((4, 4)), 2, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape, out",
        [((n, 2, 24, 40), out) for out in ((48, 80), (12, 20)) for n in (1, 8)]
        # a stacked stereo pair at each workload's HR frame size, degraded by 2
        + [((2, 1, h, w), (h // 2, w // 2)) for h, w in ((128, 256), (96, 640), (48, 144))],
        ids=["up-1", "up-8", "down-1", "down-8", "eyes-128x256", "eyes-96x640", "eyes-48x144"],
    )
    def test_batch_equals_per_image_stack(self, rng, dtype, shape, out):
        """Leading axes resample each image exactly as a [C,H,W] call does."""
        imgs = rng.random(shape).astype(dtype)
        got = bicubic_resize(imgs, *out)
        want = np.stack([bicubic_resize(img, *out) for img in imgs])
        assert got.dtype == dtype and got.shape == shape[:2] + out
        assert got.tobytes() == want.tobytes()
        deeper = bicubic_resize(imgs[None], *out)
        assert deeper.shape == (1,) + shape[:2] + out and deeper.tobytes() == want.tobytes()

    def test_weight_cache_is_bounded(self, rng):
        """A stream of new sizes evicts old matrices and keeps the results."""
        imgs = [rng.random((1, 7, 9)).astype(dt) for dt in (np.float32, np.float64)]
        first = [bicubic_resize(img, 13, 5) for img in imgs]
        for n in range(8, 40):
            bicubic_resize(rng.random((1, n, n)), 2 * n, 2 * n)
        cache = resampling_matrix.cache_info()
        assert cache.currsize <= cache.maxsize == _WEIGHT_CACHE_SIZE < 32
        for img, want in zip(imgs, first):
            got = bicubic_resize(img, 13, 5)
            assert got.dtype == img.dtype and np.array_equal(got, want)
            tol = 1e-6 if img.dtype == np.float32 else 1e-12
            np.testing.assert_allclose(got, bicubic_oracle(img, 13, 5), atol=tol)


class TestDegrade:
    def test_float64_hr_matches_the_synth_path(self, rng):
        """synth_stereo renders float64 HR: bicubic down, cast to float32, clip."""
        hr = rng.random((1, 16, 24))
        hr[:, :6], hr[:, -6:] = 1.2, -0.2  # rows the clip must pull back
        want = np.clip(bicubic_resize(hr, 8, 12).astype(np.float32), 0.0, 1.0)
        got = degrade(hr, 2)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert got.min() == 0.0 and got.max() == 1.0

    def test_float32_hr_matches_the_load_path(self, rng):
        """load_image returns float32 HR: bicubic down, clip."""
        hr = rng.random((3, 16, 24)).astype(np.float32)
        want = np.clip(bicubic_resize(hr, 4, 6), 0.0, 1.0)
        got = degrade(hr, 4)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def make_frame(rng, h, w, scale=2, fill=None):
    hr_h, hr_w = h * scale, w * scale
    if fill is None:
        hr_l = rng.random((1, hr_h, hr_w)).astype(np.float32)
        hr_r = rng.random((1, hr_h, hr_w)).astype(np.float32)
    else:
        hr_l = np.full((1, hr_h, hr_w), fill, dtype=np.float32)
        hr_r = hr_l.copy()
    hr = np.stack([hr_l, hr_r])
    return StereoSample(lr=bicubic_resize(hr, h, w).clip(0, 1), hr=hr, scale=scale)


class TestExtractPatches:
    def test_offsets_match_enumeration_oracle(self):
        """Offsets are every multiple of stride whose patch stays in-frame."""
        for extent, patch, stride in ((128, 30, 20), (128, 90, 20), (30, 30, 20), (97, 16, 8)):
            want = [o for o in range(0, extent, stride) if o + patch <= extent]
            assert patch_offsets(extent, patch, stride) == want

    def test_count_formula_128(self, rng):
        """floor((128-30)/20)+1 = 5 row offsets, floor((128-90)/20)+1 = 2 col offsets."""
        frame = make_frame(rng, 128, 128)
        patches = extract_patches(frame, 30, 90, 20)
        rows = (128 - 30) // 20 + 1
        cols = (128 - 90) // 20 + 1
        assert len(patches) == rows * cols == 10
        for p in patches:
            assert p.lr_left.shape == (1, 30, 90)
            assert p.hr_left.shape == (1, 60, 180)
            validate_sample(p)

    def test_exact_fit_single_patch(self, rng):
        frame = make_frame(rng, 30, 90)
        patches = extract_patches(frame, 30, 90, 20)
        assert len(patches) == 1
        np.testing.assert_array_equal(patches[0].lr_left, frame.lr_left)

    def test_patch_equals_stride_equals_frame(self, rng):
        frame = make_frame(rng, 20, 20)
        patches = extract_patches(frame, 20, 20, 20)
        assert len(patches) == 1
        np.testing.assert_array_equal(patches[0].hr_right, frame.hr_right)

    def test_too_small_frame_warns_empty(self, rng):
        frame = make_frame(rng, 8, 8)
        with pytest.warns(UserWarning, match="smaller than the patch|smaller"):
            assert extract_patches(frame, 30, 90, 20) == []

    def test_left_right_grids_identical(self, rng):
        frame = make_frame(rng, 40, 100)
        patches = extract_patches(frame, 30, 90, 10)
        for p in patches:
            assert p.lr.shape == (2, 1, 30, 90)
            assert p.hr.shape == (2, 1, 60, 180)

    def test_patch_is_the_same_window_of_each_eye(self, rng):
        frame = make_frame(rng, 40, 100)
        p = extract_patches(frame, 30, 90, 10)[-1]
        for eye in range(2):
            np.testing.assert_array_equal(p.lr[eye], frame.lr[eye][:, 10:40, 10:100])
            np.testing.assert_array_equal(p.hr[eye], frame.hr[eye][:, 20:80, 20:200])


class TestStereoSample:
    def test_eye_views_are_the_pair_halves(self, rng):
        frame = make_frame(rng, 6, 8)
        np.testing.assert_array_equal(frame.lr_left, frame.lr[0])
        np.testing.assert_array_equal(frame.lr_right, frame.lr[1])
        np.testing.assert_array_equal(frame.hr_left, frame.hr[0])
        np.testing.assert_array_equal(frame.hr_right, frame.hr[1])
        with pytest.raises(AttributeError):
            frame.lr_left = frame.lr[1]

    def test_validate_rejects_a_lone_eye_and_a_wrong_hr(self, rng):
        frame = make_frame(rng, 6, 8)
        with pytest.raises(ValueError, match=r"\[2, C, h, w\]"):
            validate_sample(StereoSample(frame.lr[0], frame.hr, 2))
        with pytest.raises(ValueError, match="HR shape"):
            validate_sample(StereoSample(frame.lr, frame.hr[:, :, :-2], 2))
        with pytest.raises(ValueError, match="HR shape"):
            validate_sample(StereoSample(frame.lr, frame.hr[:1], 2))


class TestAugment:
    def test_double_horizontal_flip_is_identity(self, rng):
        frame = make_frame(rng, 12, 20)
        back = flip_horizontal(flip_horizontal(frame))
        np.testing.assert_array_equal(back.lr_left, frame.lr_left)
        np.testing.assert_array_equal(back.hr_right, frame.hr_right)

    def test_double_vertical_flip_is_identity(self, rng):
        frame = make_frame(rng, 12, 20)
        back = flip_vertical(flip_vertical(frame))
        np.testing.assert_array_equal(back.lr_right, frame.lr_right)
        np.testing.assert_array_equal(back.hr_left, frame.hr_left)

    def test_horizontal_flip_mirrors_and_swaps_the_eyes(self, rng):
        frame = make_frame(rng, 12, 20)
        out = flip_horizontal(frame)
        np.testing.assert_array_equal(out.lr_left, frame.lr_right[:, :, ::-1])
        np.testing.assert_array_equal(out.lr_right, frame.lr_left[:, :, ::-1])
        np.testing.assert_array_equal(out.hr_left, frame.hr_right[:, :, ::-1])
        np.testing.assert_array_equal(out.hr_right, frame.hr_left[:, :, ::-1])
        up = flip_vertical(frame)
        np.testing.assert_array_equal(up.lr_right, frame.lr_right[:, ::-1, :])
        np.testing.assert_array_equal(up.hr_left, frame.hr_left[:, ::-1, :])

    def test_flipped_sample_keeps_invariants(self, rng):
        frame = make_frame(rng, 12, 20)
        validate_sample(flip_horizontal(frame))
        validate_sample(flip_vertical(frame))

    def test_augment_is_one_of_four_flips_and_draws_twice(self, rng):
        frame = make_frame(rng, 12, 20)
        flips = [frame, flip_horizontal(frame), flip_vertical(frame)]
        flips.append(flip_vertical(flips[1]))
        seen = set()
        for seed in range(16):
            gen = np.random.default_rng(seed)
            out = augment(frame, gen)
            validate_sample(out)
            seen.update(
                k for k, f in enumerate(flips)
                if np.array_equal(out.lr, f.lr) and np.array_equal(out.hr, f.hr)
            )
            ref = np.random.default_rng(seed)
            ref.random(2)
            assert gen.random() == ref.random()
        assert seen == {0, 1, 2, 3}

    def test_horizontal_flip_preserves_epipolar_shift(self):
        """Mirror+swap keeps right[x] = left[x+d] with the same positive d."""
        sample, _ = synth_stereo(5, 32, 64, (3.0, 3.0), scale=2)
        flipped = flip_horizontal(sample)
        d = 3
        got = flipped.hr_right[:, :, d:-d]
        want = flipped.hr_left[:, :, 2 * d :]
        np.testing.assert_allclose(got[:, :, : want.shape[2]], want, atol=1e-5)


class TestSynthStereo:
    def test_zero_disparity_eyes_equal(self):
        sample, field = synth_stereo(1, 24, 32, (0.0, 0.0), scale=2)
        np.testing.assert_allclose(sample.hr_right, sample.hr_left, atol=1e-7)
        np.testing.assert_array_equal(field, 0.0)

    def test_constant_disparity_shifts_columns(self):
        d = 4
        sample, field = synth_stereo(2, 24, 48, (float(d), float(d)), scale=2)
        np.testing.assert_array_equal(field, d)
        # right[x] = left[x+d] wherever x+d stays inside the frame
        np.testing.assert_allclose(
            sample.hr_right[:, :, : 48 - d], sample.hr_left[:, :, d:], atol=1e-6
        )

    def test_field_stays_in_range_and_smooth(self):
        sample, field = synth_stereo(3, 32, 64, (1.0, 5.0), scale=2)
        assert field.min() >= 1.0 - 1e-5 and field.max() <= 5.0 + 1e-5
        assert np.abs(np.diff(field, axis=1)).max() < 1.0
        validate_sample(sample)

    def test_invariants_and_determinism(self):
        a, fa = synth_stereo(7, 16, 32, (1.0, 2.0), scale=2)
        b, fb = synth_stereo(7, 16, 32, (1.0, 2.0), scale=2)
        validate_sample(a)
        np.testing.assert_array_equal(a.hr_left, b.hr_left)
        np.testing.assert_array_equal(fa, fb)

    def test_range_exceeding_width_rejected(self):
        with pytest.raises(ValueError, match="disparity"):
            synth_stereo(0, 16, 16, (0.0, 20.0), scale=2)

    @pytest.mark.parametrize(
        "bounds", [(np.nan, np.nan), (1.0, np.nan), (-np.inf, 2.0)], ids=["nan", "nan-max", "-inf"]
    )
    def test_non_finite_bound_rejected(self, bounds):
        with pytest.raises(ValueError, match="non-finite"):
            synth_stereo(0, 8, 16, bounds, scale=2)

    @pytest.mark.parametrize("bounds", [(-3.0, -1.0), (-1.0, 2.0)], ids=["both", "min"])
    def test_negative_bound_rejected(self, bounds):
        with pytest.raises(ValueError, match=r"disparity range \(-.*negative"):
            synth_stereo(0, 8, 16, bounds, scale=2)

    @pytest.mark.parametrize("extents", [(0, 16), (8, 0), (-2, 16)])
    def test_non_positive_extents_rejected(self, extents):
        h, w = extents
        with pytest.raises(ValueError, match=f"frame extents {h}x{w} must be positive"):
            synth_stereo(0, h, w, (1.0, 2.0), scale=2)

    def test_pair_layout(self):
        sample, _ = synth_stereo(8, 16, 32, (1.0, 3.0), scale=2, channels=3)
        assert sample.lr.shape == (2, 3, 8, 16) and sample.hr.shape == (2, 3, 16, 32)
        assert sample.lr.dtype == sample.hr.dtype == np.float32

    def test_rgb_channels(self):
        sample, _ = synth_stereo(4, 16, 32, (1.0, 2.0), scale=2, channels=3)
        assert sample.hr_left.shape == (3, 16, 32)
        validate_sample(sample)


# the file formats the package reads, each with a writer and its reader
FORMATS = pytest.mark.parametrize(
    "name,save,load",
    [
        ("x.pgm", lambda p, a: save_image(p, a[:1]), load_image),
        ("x.ppm", save_image, load_image),
        ("x.disp", lambda p, a: save_disparity(p, a[0]), load_disparity),
    ],
    ids=["pgm", "ppm", "disp"],
)


class TestImageIO:
    def test_pgm_roundtrip_lossless(self, rng, tmp_path):
        img = (rng.integers(0, 256, size=(1, 9, 13)) / 255.0).astype(np.float32)
        path = os.path.join(tmp_path, "x.pgm")
        save_image(path, img)
        back = load_image(path)
        np.testing.assert_array_equal(back, img)

    def test_ppm_roundtrip_lossless(self, rng, tmp_path):
        img = (rng.integers(0, 256, size=(3, 5, 7)) / 255.0).astype(np.float32)
        path = os.path.join(tmp_path, "x.ppm")
        save_image(path, img)
        back = load_image(path)
        np.testing.assert_array_equal(back, img)

    def test_missing_file_names_path(self):
        with pytest.raises(FileNotFoundError, match="nope.pgm"):
            load_image("nope.pgm")

    def test_uniform_gray_value(self, tmp_path):
        img = np.full((1, 16, 16), 128 / 255.0, dtype=np.float32)
        path = os.path.join(tmp_path, "g.pgm")
        save_image(path, img)
        np.testing.assert_allclose(load_image(path), 128 / 255.0, atol=1e-6)

    def test_disparity_sidecar_roundtrip(self, rng, tmp_path):
        field = rng.normal(size=(6, 9)).astype(np.float32)
        path = os.path.join(tmp_path, "d.disp")
        save_disparity(path, field)
        np.testing.assert_array_equal(load_disparity(path), field)

    def test_bad_magic_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P3\n1 1\n255\n0")
        with pytest.raises(ValueError, match="magic"):
            load_image(path)

    @FORMATS
    def test_every_truncation_rejected(self, rng, tmp_path, name, save, load):
        path = os.path.join(tmp_path, name)
        save(path, rng.random((3, 4, 5)).astype(np.float32))
        with open(path, "rb") as fh:
            blob = fh.read()
        load(path)
        for n in range(len(blob)):
            with open(path, "wb") as fh:
                fh.write(blob[:n])
            with pytest.raises(ValueError):
                load(path)

    @pytest.mark.parametrize(
        "header", [b"P5\n9999999 9999999\n255\n", b"P5\n-2 -3\n255\n", b"P6\n0 4\n255\n"]
    )
    def test_bad_raster_extents_rejected(self, tmp_path, header):
        path = os.path.join(tmp_path, "bad.pgm")
        with open(path, "wb") as fh:
            fh.write(header + b"\x00" * 64)
        with pytest.raises(ValueError, match="extents|truncated"):
            load_image(path)

    @pytest.mark.parametrize("extents", [(0, 4), (4, 0), (0xFFFFFFFF, 0xFFFFFFFF)])
    def test_bad_disparity_extents_rejected(self, tmp_path, extents):
        path = os.path.join(tmp_path, "bad.disp")
        with open(path, "wb") as fh:
            fh.write(np.array(extents, dtype="<u4").tobytes() + b"\x00" * 64)
        with pytest.raises(ValueError, match="extents|truncated"):
            load_disparity(path)


    @FORMATS
    def test_every_byte_corruption_loads_or_raises_value_error(
        self, rng, tmp_path, name, save, load
    ):
        path = os.path.join(tmp_path, name)
        save(path, rng.random((3, 4, 5)).astype(np.float32))
        with open(path, "rb") as fh:
            blob = fh.read()
        variants = 0
        for i, bad in corrupted(blob, range(len(blob))):
            with open(path, "wb") as fh:
                fh.write(bad)
            try:
                load(path)
            except ValueError:
                pass
            variants += 1
        assert variants >= 4 * len(blob)


class TestLoadFrame:
    @staticmethod
    def _entry(tmp_path, left, right):
        paths = [str(tmp_path / "f_L.pgm"), str(tmp_path / "f_R.pgm")]
        for path, img in zip(paths, (left, right)):
            save_image(path, img)
        return ManifestEntry("train", *paths)

    def test_derives_the_lr_pair_by_degrade(self, tmp_path):
        sample, _ = synth_stereo(6, 16, 32, (1.0, 3.0), scale=2)
        entry = self._entry(tmp_path, sample.hr_left, sample.hr_right)
        frame = load_frame(entry, 2)
        validate_sample(frame)
        assert np.array_equal(frame.hr_left, load_image(entry.left_path))
        assert np.array_equal(frame.hr_right, load_image(entry.right_path))
        assert frame.lr_left.tobytes() == degrade(frame.hr_left, 2).tobytes()
        assert frame.lr_right.tobytes() == degrade(frame.hr_right, 2).tobytes()

    def test_eyes_of_different_shape_rejected(self, rng, tmp_path):
        entry = self._entry(
            tmp_path, rng.random((1, 48, 144)), rng.random((1, 96, 288))
        )
        with pytest.raises(ValueError, match="differ in shape") as exc:
            load_frame(entry, 2)
        assert entry.left_path in str(exc.value) and entry.right_path in str(exc.value)

    def test_mismatched_manifest_pair_yields_no_patches(self, rng, tmp_path):
        entry = self._entry(
            tmp_path, rng.random((1, 48, 144)), rng.random((1, 96, 288))
        )
        manifest = str(tmp_path / "manifest.txt")
        write_manifest(manifest, [entry])
        with pytest.raises(ValueError, match="differ in shape"):
            manifest_patches(manifest, "train", 2, 16, 48, 8)

    def test_extents_not_divisible_by_scale_rejected(self, rng, tmp_path):
        img = rng.random((1, 10, 18))
        entry = self._entry(tmp_path, img, img)
        with pytest.raises(ValueError, match="not divisible"):
            load_frame(entry, 4)


class TestManifest:
    def test_generate_and_validate(self, tmp_path):
        manifest = generate_dataset(
            str(tmp_path), seed=0, counts=(2, 1, 1), frame_h=32, frame_w=64,
            disparity_range=(1.0, 3.0), scale=2,
        )
        entries = read_manifest(manifest)
        assert [e.split for e in entries] == ["train", "train", "val", "test"]
        for e in entries:
            assert os.path.exists(e.left_path) and os.path.exists(e.right_path)
        # every emitted patch satisfies the sample invariants
        for patch in manifest_patches(manifest, "train", 2, 8, 16, 8):
            validate_sample(patch)

    def test_splits_disjoint_and_test_family_distinct(self, tmp_path):
        manifest = generate_dataset(
            str(tmp_path), seed=0, counts=(1, 1, 1), frame_h=16, frame_w=32,
            disparity_range=(1.0, 2.0), scale=2,
        )
        entries = read_manifest(manifest)
        paths = [e.left_path for e in entries]
        assert len(set(paths)) == len(paths)
        train = load_image(entries[0].left_path)
        test = load_image(entries[2].left_path)
        assert not np.array_equal(train, test)

    def test_sidecar_exists_for_frames(self, tmp_path):
        manifest = generate_dataset(
            str(tmp_path), seed=1, counts=(1, 0, 0), frame_h=16, frame_w=32,
            disparity_range=(2.0, 2.0), scale=2,
        )
        entry = read_manifest(manifest)[0]
        field = load_disparity(data.disparity_sidecar_path(entry.left_path))
        np.testing.assert_array_equal(field, 2.0)

    def test_negative_count_rejected_before_writing(self, tmp_path):
        out = str(tmp_path / "ds")
        with pytest.raises(ValueError, match=r"frame counts \(1, -1, 0\)"):
            generate_dataset(out, 0, (1, -1, 0), 16, 32, (1.0, 2.0), 2)
        assert not os.path.exists(out)

    def test_bad_frame_arguments_rejected_before_writing(self, tmp_path):
        out = str(tmp_path / "ds")
        with pytest.raises(ValueError, match="negative"):
            generate_dataset(out, 0, (1, 0, 0), 8, 16, (-3.0, -1.0), 2)
        assert not os.path.exists(out)

    def test_malformed_manifest_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "m.txt")
        with open(path, "w") as fh:
            fh.write("train only_two_fields\n")
        with pytest.raises(ValueError, match="3 tab-separated"):
            read_manifest(path)
