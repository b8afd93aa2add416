"""Stereo training data: degradation, patching, augmentation, synthesis.

Images are numpy float arrays in [0, 1], shaped [C, H, W]. A
:class:`StereoSample` holds each stereo pair as one [2, C, H, W] array,
eye 0 left: ``lr`` the low-resolution pair, ``hr`` its high-resolution
ground truth. Every crop, flip and degradation acts on both eyes at once;
``lr_left``, ``lr_right``, ``hr_left`` and ``hr_right`` are views of one
eye that cannot be assigned. The trainer stacks samples into autodiff
tensors at the batch boundary.

The synthetic generator stands in for real capture. It renders a textured
high-resolution left frame, derives the right frame by resampling along a
smooth horizontal disparity field, and keeps that field as ground truth so
tests can score recovered correspondences against it.

Disparity convention: a left pixel (y, x) corresponds to right pixel
(y, x - d) with d >= 0, i.e. right[y, x] = left[y, x + d].
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .imageio import load_image, save_disparity, save_image
from .tensor import resampling_matrix

SCALES = (2, 4)  # the supported super-resolution factors


# ----------------------------------------------------------------------
# sample container
# ----------------------------------------------------------------------
@dataclass
class StereoSample:
    """LR stereo pair [2,C,h,w] plus HR ground truth [2,C,h*scale,w*scale], eye 0 left."""

    lr: np.ndarray
    hr: np.ndarray
    scale: int

    # per-eye views; there is no per-eye setter
    lr_left = property(lambda self: self.lr[0])
    lr_right = property(lambda self: self.lr[1])
    hr_left = property(lambda self: self.hr[0])
    hr_right = property(lambda self: self.hr[1])


def validate_sample(sample: StereoSample) -> None:
    """Raise ValueError on any violated StereoSample invariant."""
    if sample.scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {sample.scale}")
    if sample.lr.ndim != 4 or sample.lr.shape[0] != 2:
        raise ValueError(f"LR pair must be [2, C, h, w], got shape {sample.lr.shape}")
    _, c, h, w = sample.lr.shape
    expected_hr = (2, c, h * sample.scale, w * sample.scale)
    if sample.hr.shape != expected_hr:
        raise ValueError(
            f"HR shape {sample.hr.shape} is not scale*{(h, w)} pair {expected_hr}"
        )
    for name in ("lr", "hr"):
        arr = getattr(sample, name)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
        if arr.min() < -1e-6 or arr.max() > 1.0 + 1e-6:
            raise ValueError(f"{name} values fall outside [0, 1]")


# ----------------------------------------------------------------------
# bicubic resampling (Keys kernel, a = -0.5)
# ----------------------------------------------------------------------
def _keys_kernel(x: float) -> float:
    ax = abs(x)
    if ax <= 1.0:
        return (1.5 * ax - 2.5) * ax * ax + 1.0
    if ax < 2.0:
        return ((-0.5 * ax + 2.5) * ax - 4.0) * ax + 2.0
    return 0.0


def bicubic_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bicubic resampling of [..., C, H, W] images to [..., C, out_h, out_w].

    Leading axes are batch axes. Each image gets the products (out_h,H) @ (H,C*W)
    and (C*out_h,W) @ (W,out_w) of a lone [C,H,W] call, so it rounds the same.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError(f"target extents must be positive, got {out_h}x{out_w}")
    img = np.asarray(img)
    if img.ndim < 3:
        raise ValueError(f"bicubic_resize expects [..., C, H, W], got shape {img.shape}")
    *lead, c, h, w = img.shape
    A_h = resampling_matrix(h, out_h, _keys_kernel, img.dtype)
    A_w = resampling_matrix(w, out_w, _keys_kernel, img.dtype)
    cols = img.reshape(-1, c, h, w).swapaxes(1, 2).reshape(-1, h, c * w)
    rows = (A_h @ cols).reshape(-1, out_h, c, w).swapaxes(1, 2)  # [B, C, out_h, W]
    out = rows.reshape(-1, c * out_h, w) @ A_w.T
    return out.reshape(*lead, c, out_h, out_w)


def degrade(hr: np.ndarray, scale: int) -> np.ndarray:
    """Float32 LR frames of HR [..., C, H, W] frames whose extents scale divides.

    Bicubic down, then clipped: the overshoot can nudge values outside [0, 1].
    """
    h, w = hr.shape[-2:]
    lr = bicubic_resize(hr, h // scale, w // scale).astype(np.float32, copy=False)
    return np.clip(lr, 0.0, 1.0)


# ----------------------------------------------------------------------
# patch extraction
# ----------------------------------------------------------------------
def patch_offsets(extent: int, patch: int, stride: int) -> List[int]:
    """Valid top/left positions: multiples of stride, no tail patch."""
    if extent < patch:
        return []
    return list(range(0, extent - patch + 1, stride))


def extract_patches(
    sample: StereoSample, patch_h: int, patch_w: int, stride: int
) -> List[StereoSample]:
    """Crop a full-frame pair into LR patches on a regular stride grid.

    Patch geometry is given in LR pixels; HR crops are the co-located
    scale-multiplied windows. Left and right share one offset grid.
    """
    h, w = sample.lr.shape[-2:]
    offs_h = patch_offsets(h, patch_h, stride)
    offs_w = patch_offsets(w, patch_w, stride)
    if not offs_h or not offs_w:
        warnings.warn(
            f"frame {h}x{w} smaller than patch {patch_h}x{patch_w}; no patches"
        )
        return []
    s = sample.scale
    return [
        StereoSample(
            lr=sample.lr[..., i : i + patch_h, j : j + patch_w].copy(),
            hr=sample.hr[..., s * i : s * (i + patch_h), s * j : s * (j + patch_w)].copy(),
            scale=s,
        )
        for i in offs_h
        for j in offs_w
    ]


# ----------------------------------------------------------------------
# augmentation
# ----------------------------------------------------------------------
def flip_horizontal(sample: StereoSample) -> StereoSample:
    """Mirror both eyes along width and swap them, keeping disparity positive."""
    return StereoSample(
        sample.lr[::-1, :, :, ::-1].copy(), sample.hr[::-1, :, :, ::-1].copy(), sample.scale
    )


def flip_vertical(sample: StereoSample) -> StereoSample:
    """Mirror both eyes along height; the epipolar geometry is unaffected."""
    return StereoSample(
        sample.lr[:, :, ::-1, :].copy(), sample.hr[:, :, ::-1, :].copy(), sample.scale
    )


def augment(sample: StereoSample, rng: np.random.Generator) -> StereoSample:
    """Random x/y flips, each with probability 1/2."""
    out = sample
    if rng.random() < 0.5:
        out = flip_horizontal(out)
    if rng.random() < 0.5:
        out = flip_vertical(out)
    return out


# ----------------------------------------------------------------------
# synthetic stereo generation
# ----------------------------------------------------------------------
def _value_noise(rng: np.random.Generator, h: int, w: int, period: int) -> np.ndarray:
    """Smoothstep-interpolated lattice noise in [0,1]."""
    gh, gw = h // period + 2, w // period + 2
    lattice = rng.random((gh, gw))
    ys = np.arange(h) / period
    xs = np.arange(w) / period
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    ty = ys - y0
    tx = xs - x0
    ty = ty * ty * (3.0 - 2.0 * ty)
    tx = tx * tx * (3.0 - 2.0 * tx)
    tl = lattice[np.ix_(y0, x0)]
    tr = lattice[np.ix_(y0, x0 + 1)]
    bl = lattice[np.ix_(y0 + 1, x0)]
    br = lattice[np.ix_(y0 + 1, x0 + 1)]
    top = tl + (tr - tl) * tx[None, :]
    bot = bl + (br - bl) * tx[None, :]
    return top + (bot - top) * ty[:, None]


def _render_texture(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Multi-octave noise with vessel-like strokes, ellipses, and speckle.

    The per-pixel speckle matters: it keeps rows distinguishable column by
    column, so planted correspondences remain recoverable after bicubic
    degradation instead of dissolving into smooth ambiguity.
    """
    img = np.zeros((h, w))
    period = max(min(h, w) // 2, 2)
    amp = 1.0
    total = 0.0
    while period >= 2:
        img += amp * _value_noise(rng, h, w, period)
        total += amp
        amp *= 0.55
        period //= 2
    img /= total
    img = 0.75 * img + 0.25 * rng.random((h, w))

    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(3):
        cy, cx = rng.uniform(0.2 * h, 0.8 * h), rng.uniform(0.2 * w, 0.8 * w)
        ry, rx = rng.uniform(0.08, 0.25) * h, rng.uniform(0.08, 0.25) * w
        q = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2
        img += rng.uniform(-0.25, 0.25) * np.clip(1.0 - q, 0.0, 1.0)

    # quadratic strokes splatted as gaussian cross-sections
    for _ in range(4):
        pts = rng.uniform([0, 0], [h - 1, w - 1], size=(3, 2))
        ts = np.linspace(0.0, 1.0, 160)[:, None]
        path = ((1 - ts) ** 2) * pts[0] + 2 * ts * (1 - ts) * pts[1] + ts**2 * pts[2]
        sigma = rng.uniform(0.8, 1.8)
        gain = rng.uniform(-0.3, 0.3)
        r = int(np.ceil(3 * sigma))
        for py, px in path:
            iy, ix = int(round(py)), int(round(px))
            y0c, y1c = max(iy - r, 0), min(iy + r + 1, h)
            x0c, x1c = max(ix - r, 0), min(ix + r + 1, w)
            wy = yy[y0c:y1c, x0c:x1c] - py
            wx = xx[y0c:y1c, x0c:x1c] - px
            img[y0c:y1c, x0c:x1c] += gain * np.exp(
                -(wy * wy + wx * wx) / (2 * sigma * sigma)
            ) / 10.0

    lo, hi = img.min(), img.max()
    return 0.05 + 0.9 * (img - lo) / max(hi - lo, 1e-9)


def _shift_rows(img: np.ndarray, disparity: np.ndarray) -> np.ndarray:
    """Sample img at (y, x + d(y, x)) with linear interpolation, edge-clamped."""
    c, h, w = img.shape
    xs = np.arange(w)[None, :] + disparity
    x0 = np.floor(xs).astype(int)
    t = xs - x0
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    rows = np.arange(h)[:, None]
    out = np.empty_like(img)
    for ch in range(c):
        plane = img[ch]
        out[ch] = plane[rows, x0c] * (1.0 - t) + plane[rows, x1c] * t
    return out


def _check_frame_args(
    frame_h: int, frame_w: int, disparity_range: Tuple[float, float], scale: int
) -> None:
    """Raise ValueError unless synth_stereo can render a frame of these arguments."""
    d_min, d_max = disparity_range
    if not (np.isfinite(d_min) and np.isfinite(d_max)):
        raise ValueError(f"disparity range {disparity_range} has a non-finite bound")
    if frame_h < 1 or frame_w < 1:
        raise ValueError(f"frame extents {frame_h}x{frame_w} must be positive")
    if d_min > d_max:
        raise ValueError(f"empty disparity range {disparity_range}")
    if d_min < 0:
        raise ValueError(
            f"disparity range {disparity_range} has a negative bound; disparities are >= 0"
        )
    if d_max >= frame_w:
        raise ValueError(f"disparity range {disparity_range} exceeds width {frame_w}")
    if frame_h % scale or frame_w % scale:
        raise ValueError(
            f"frame extents {frame_h}x{frame_w} must be divisible by scale {scale}"
        )


def synth_stereo(
    seed: int,
    frame_h: int,
    frame_w: int,
    disparity_range: Tuple[float, float],
    scale: int = 2,
    channels: int = 1,
) -> Tuple[StereoSample, np.ndarray]:
    """Generate one full-frame stereo sample plus its ground-truth disparity.

    frame_h/frame_w are the HR extents and must be divisible by scale.
    The returned field is the HR left-image disparity in pixels; right
    content is the left frame resampled by it.
    """
    _check_frame_args(frame_h, frame_w, disparity_range, scale)
    d_min, d_max = disparity_range
    rng = np.random.default_rng(seed)
    if channels == 1:
        hr_left = _render_texture(rng, frame_h, frame_w)[None]
    else:
        base = _render_texture(rng, frame_h, frame_w)
        planes = [
            np.clip(base * rng.uniform(0.6, 1.0) + rng.uniform(-0.05, 0.05), 0, 1)
            for _ in range(channels)
        ]
        hr_left = np.stack(planes)

    if d_max == d_min:
        disparity = np.full((frame_h, frame_w), float(d_min))
    else:
        field = _value_noise(rng, frame_h, frame_w, max(frame_h // 2, 2))
        field = (field - field.min()) / max(field.max() - field.min(), 1e-9)
        disparity = d_min + (d_max - d_min) * field

    hr = np.stack([hr_left, _shift_rows(hr_left, disparity)])
    sample = StereoSample(degrade(hr, scale), hr.astype(np.float32), scale)
    return sample, disparity.astype(np.float32)


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
@dataclass
class ManifestEntry:
    split: str
    left_path: str
    right_path: str


def write_manifest(path: str, entries: Sequence[ManifestEntry]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for e in entries:
            fh.write(f"{e.split}\t{e.left_path}\t{e.right_path}\n")


def read_manifest(path: str) -> List[ManifestEntry]:
    if not os.path.exists(path):
        raise FileNotFoundError(f"manifest not found: {path}")
    entries = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            entries.append(ManifestEntry(*parts))
    return entries


def disparity_sidecar_path(left_path: str) -> str:
    stem, _ = os.path.splitext(left_path)
    return stem + ".disp"


def _family_seed(seed: int, family: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, family, index]).generate_state(1)[0])


def generate_dataset(
    out_dir: str,
    seed: int,
    counts: Tuple[int, int, int],
    frame_h: int,
    frame_w: int,
    disparity_range: Tuple[float, float],
    scale: int = 2,
    channels: int = 1,
) -> str:
    """Render synthetic frames to disk and write the split manifest.

    Train and val frames come from one generator seed family ("video"),
    test frames from a disjoint family, so the test split never shares
    content statistics drawn from the same seeds.
    """
    n_train, n_val, n_test = counts
    if min(counts) < 0:
        raise ValueError(f"frame counts {counts} must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_frame_args(frame_h, frame_w, disparity_range, scale)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    plan = [("train", n_train, 0), ("val", n_val, 0), ("test", n_test, 1)]
    index = 0
    for split, count, family in plan:
        for k in range(count):
            frame_seed = _family_seed(seed, family, index)
            index += 1
            sample, disparity = synth_stereo(
                frame_seed, frame_h, frame_w, disparity_range, scale, channels
            )
            ext = "pgm" if channels == 1 else "ppm"
            left = os.path.join(out_dir, f"{split}_{k:03d}_L.{ext}")
            right = os.path.join(out_dir, f"{split}_{k:03d}_R.{ext}")
            save_image(left, sample.hr_left)
            save_image(right, sample.hr_right)
            save_disparity(disparity_sidecar_path(left), disparity)
            entries.append(ManifestEntry(split, left, right))
    manifest = os.path.join(out_dir, "manifest.txt")
    write_manifest(manifest, entries)
    return manifest


def load_frame(entry: ManifestEntry, scale: int) -> StereoSample:
    """Load one manifest frame, both eyes of one shape, and degrade it to its LR pair."""
    hr_left = load_image(entry.left_path)
    hr_right = load_image(entry.right_path)
    if hr_left.shape != hr_right.shape:
        raise ValueError(
            f"frame eyes differ in shape: {entry.left_path} is {hr_left.shape}, "
            f"{entry.right_path} is {hr_right.shape}"
        )
    _, h, w = hr_left.shape
    if h % scale or w % scale:
        raise ValueError(
            f"frame {entry.left_path} extents {h}x{w} not divisible by scale {scale}"
        )
    hr = np.stack([hr_left, hr_right])
    return StereoSample(degrade(hr, scale), hr, scale)


def manifest_frames(manifest_path: str, split: str, scale: int) -> List[StereoSample]:
    return [load_frame(e, scale) for e in read_manifest(manifest_path) if e.split == split]


def manifest_patches(
    manifest_path: str,
    split: str,
    scale: int,
    patch_h: int,
    patch_w: int,
    stride: int,
) -> List[StereoSample]:
    patches: List[StereoSample] = []
    for frame in manifest_frames(manifest_path, split, scale):
        patches.extend(extract_patches(frame, patch_h, patch_w, stride))
    return patches
