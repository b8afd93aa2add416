"""Float64 reference computations the benchmark checks the program against.

Everything here is plain numpy written apart from the package: the model
forward uses shifted-window convolution, an explicit softmax, one matrix
product per image row for the mask warps, a loop-built pixel shuffle and
its own Keys-kernel bicubic resampler. It reads the parameters by their
checkpoint record names, so it shares no code path with ``stereosr.model``.
"""

from __future__ import annotations

import math
import re
from typing import Dict

import numpy as np

ACT_SLOPE = 0.1
ASPP_RATES = (1, 4, 8)

# Largest allowed |program - reference| on SR intensities (range [0, 1]),
# and on mask entries relative to the largest reference mask entry. The
# float32 program lands within ~3e-6 and ~7e-7 of the float64 reference;
# a 1e-2 change to one weight moves outputs by far more.
SR_TOL = 2e-5
MASK_RTOL = 1e-5
# Largest allowed |row sum - 1| of a float32 mask row.
ROW_SUM_TOL = 1e-5


# ----------------------------------------------------------------------
# building blocks
# ----------------------------------------------------------------------
def conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int = 0, dil: int = 1) -> np.ndarray:
    """Cross-correlation of [C,H,W] with [O,C,k,k] as a sum of shifted windows."""
    c, h, wd = x.shape
    o, cw, k, _ = w.shape
    if c != cw:
        raise ValueError(f"channel mismatch {c} vs {cw}")
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = h + 2 * pad - dil * (k - 1)
    wo = wd + 2 * pad - dil * (k - 1)
    out = np.broadcast_to(b.reshape(o, 1, 1), (o, ho, wo)).astype(np.float64)
    for i in range(k):
        for j in range(k):
            window = xp[:, i * dil : i * dil + ho, j * dil : j * dil + wo]
            out += np.tensordot(w[:, :, i, j], window, axes=(1, 0))
    return out


def lrelu(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, ACT_SLOPE * x)


def softmax_rows(s: np.ndarray) -> np.ndarray:
    """exp(s - max) / sum(exp(s - max)) along the last axis."""
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def warp_rows(mask: np.ndarray, feat: np.ndarray) -> np.ndarray:
    """out[c, i, a] = sum_b mask[i, a, b] * feat[c, i, b], one product per row."""
    out = np.empty_like(feat)
    for i in range(feat.shape[1]):
        out[:, i, :] = feat[:, i, :] @ mask[i].T
    return out


def pixel_shuffle(x: np.ndarray, s: int) -> np.ndarray:
    """[C*s*s, H, W] -> [C, H*s, W*s] with out[c, h*s+i, w*s+j] = x[c*s*s + i*s + j, h, w]."""
    cs2, h, w = x.shape
    c = cs2 // (s * s)
    out = np.empty((c, h * s, w * s), dtype=x.dtype)
    for ch in range(c):
        for i in range(s):
            for j in range(s):
                out[ch, i::s, j::s] = x[ch * s * s + i * s + j]
    return out


def keys(x: float) -> float:
    """Keys cubic convolution kernel with a = -0.5."""
    ax = abs(x)
    if ax <= 1.0:
        return 1.5 * ax**3 - 2.5 * ax**2 + 1.0
    if ax < 2.0:
        return -0.5 * ax**3 + 2.5 * ax**2 - 4.0 * ax + 2.0
    return 0.0


def _resize_axis(x: np.ndarray, n_out: int, axis: int) -> np.ndarray:
    """Four-tap bicubic gather along one axis, pixel-centre aligned, edges clamped."""
    n_in = x.shape[axis]
    moved = np.moveaxis(x, axis, -1)
    out = np.zeros(moved.shape[:-1] + (n_out,), dtype=np.float64)
    for o in range(n_out):
        src = (o + 0.5) * n_in / n_out - 0.5
        j0 = math.floor(src)
        t = src - j0
        for k in range(-1, 3):
            idx = min(max(j0 + k, 0), n_in - 1)
            out[..., o] += keys(k - t) * moved[..., idx]
    return np.moveaxis(out, -1, axis)


def bicubic(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    return _resize_axis(_resize_axis(x, out_h, 1), out_w, 2)


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
class ReferenceModel:
    """DCSSRnet inference in float64 from a checkpoint's records."""

    def __init__(self, ckpt: Dict[str, np.ndarray]):
        self.p = {
            k[len("param.") :]: np.asarray(v, dtype=np.float64)
            for k, v in ckpt.items()
            if k.startswith("param.")
        }
        self.scale = int(ckpt["meta.scale"][0])
        if not bool(ckpt["meta.global_residual"][0]):
            raise ValueError("the reference models the global bicubic residual only")

    def _conv(self, x, name, pad=0, dil=1):
        return conv(x, self.p[name + ".weight"], self.p[name + ".bias"], pad, dil)

    def _res(self, x, name):
        h = lrelu(self._conv(x, name + ".conv1", pad=1))
        return x + self._conv(h, name + ".conv2", pad=1)

    def _aspp(self, x, name):
        branches = [
            lrelu(self._conv(x, f"{name}.branches.{i}", pad=r, dil=r))
            for i, r in enumerate(ASPP_RATES)
        ]
        return x + self._conv(np.concatenate(branches), name + ".fuse")

    def features(self, img):
        h = lrelu(self._conv(img, "extractor.entry", pad=1))
        h = self._res(h, "extractor.res1")
        h = self._aspp(h, "extractor.aspp1")
        h = self._res(h, "extractor.res2")
        h = self._aspp(h, "extractor.aspp2")
        return self._res(h, "extractor.res3")

    def masks(self, f_left, f_right):
        """(m_lr, m_rl), each [H, W, W]: m_rl[i, a, b] and m_lr[i, b, a]."""
        q = self._conv(self._aspp(f_left, "attention.mix"), "attention.query")
        k = self._conv(self._aspp(f_right, "attention.mix"), "attention.key")
        c, h, _ = q.shape
        scores = np.stack([q[:, i, :].T @ k[:, i, :] for i in range(h)]) / c
        return softmax_rows(scores.transpose(0, 2, 1)), softmax_rows(scores)

    def reconstruct(self, f_own, f_warped, lr):
        h = self._conv(np.concatenate([f_own, f_warped]), "attention.fuse")
        h = self._res(h, "attention.recon1")
        h = self._res(h, "attention.recon2")
        h = pixel_shuffle(self._conv(h, "attention.upscale", pad=1), self.scale)
        out = self._conv(h, "attention.output", pad=1)
        _, lh, lw = lr.shape
        return out + bicubic(lr, lh * self.scale, lw * self.scale)

    def super_resolve(self, left, right):
        """(sr_left, sr_right, m_lr, m_rl) for one [C,H,W] LR pair."""
        left = np.asarray(left, dtype=np.float64)
        right = np.asarray(right, dtype=np.float64)
        f_l, f_r = self.features(left), self.features(right)
        m_lr, m_rl = self.masks(f_l, f_r)
        sr_l = self.reconstruct(f_l, warp_rows(m_rl, f_r), left)
        sr_r = self.reconstruct(f_r, warp_rows(m_lr, f_l), right)
        return sr_l, sr_r, m_lr, m_rl


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_sr(ref: ReferenceModel, left, right, sr_left, sr_right, m_lr, m_rl) -> Dict[str, float]:
    """Compare one program output with the reference; raise AssertionError on a miss.

    Program arrays are single-pair: SR [C, H*s, W*s], masks [H, W, W].
    Returns the observed worst-case gaps (the mask gap relative to the
    largest reference mask entry).
    """
    r_l, r_r, r_lr, r_rl = ref.super_resolve(left, right)
    gaps = {
        "sr": max(float(np.abs(sr_left - r_l).max()), float(np.abs(sr_right - r_r).max())),
        "mask": max(float(np.abs(m_lr - r_lr).max()), float(np.abs(m_rl - r_rl).max()))
        / max(float(r_lr.max()), float(r_rl.max())),
        "row_sum": max(
            float(np.abs(m.astype(np.float64).sum(axis=-1) - 1.0).max()) for m in (m_lr, m_rl)
        ),
    }
    if gaps["sr"] > SR_TOL:
        raise AssertionError(f"SR output differs from the reference by {gaps['sr']:.3g} > {SR_TOL}")
    if gaps["mask"] > MASK_RTOL:
        raise AssertionError(
            f"masks differ from the reference by {gaps['mask']:.3g} of their peak > {MASK_RTOL}"
        )
    if gaps["row_sum"] > ROW_SUM_TOL:
        raise AssertionError(f"a mask row sums to 1 +/- {gaps['row_sum']:.3g} > {ROW_SUM_TOL}")
    return gaps


def quantize(img: np.ndarray) -> np.ndarray:
    """8-bit gray levels a served SR image must be stored as.

    Rounded in the image's own dtype: float32 and float64 products of 255
    can fall on different sides of a half level.
    """
    img = np.asarray(img)
    return np.rint(np.clip(img, 0, 1) * img.dtype.type(255)).astype(np.uint8)


def read_pgm(path: str) -> np.ndarray:
    """Pixels of a binary 8-bit PGM without header comments, as uint8 [H, W]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", raw)
    if head is None:
        raise AssertionError(f"{path}: not an 8-bit binary PGM")
    w, h = int(head.group(1)), int(head.group(2))
    pixels = raw[head.end() :]
    if len(pixels) != w * h:
        raise AssertionError(f"{path}: {len(pixels)} pixel bytes, expected {w * h}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    """10 * log10(1 / mean squared error) for images in [0, 1]."""
    mse = float(np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2))
    return 10.0 * math.log10(1.0 / mse)


def central_difference(loss, values: np.ndarray, index, eps: float) -> float:
    """(loss(x + eps) - loss(x - eps)) / (2 eps) on one entry of ``values``, restored after."""
    saved = values[index]
    values[index] = saved + eps
    hi = loss()
    values[index] = saved - eps
    lo = loss()
    values[index] = saved
    return (hi - lo) / (2.0 * eps)


def gradient_gap(analytic: float, numeric: float) -> float:
    """|analytic - numeric| relative to the larger magnitude (floor 1e-12)."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
