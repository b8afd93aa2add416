"""PSNR / SSIM scoring and manifest-level evaluation reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .data import bicubic_resize, manifest_frames
from .model import sr_pair

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(1 / mse) for a peak of 1; identical inputs give +inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window(n: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    xs = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    w = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return w / w.sum()


def _valid_filter(img: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation of a 2-D image with a 1-D window."""
    from numpy.lib.stride_tricks import sliding_window_view

    rows = sliding_window_view(img, len(w), axis=0) @ w
    return sliding_window_view(rows, len(w), axis=1) @ w


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Single-scale SSIM of [0, 1] images with an 11x11 Gaussian window (sigma 1.5).

    Scores are averaged over all valid window positions and channels.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    if a.ndim != 3:
        raise ValueError(f"ssim expects [C,H,W] or [H,W], got shape {a.shape}")
    _, h, w = a.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(
            f"image {h}x{w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )
    win = _gaussian_window()
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    scores = []
    for x, y in zip(a, b):
        mu_x = _valid_filter(x, win)
        mu_y = _valid_filter(y, win)
        xx = _valid_filter(x * x, win) - mu_x * mu_x
        yy = _valid_filter(y * y, win) - mu_y * mu_y
        xy = _valid_filter(x * y, win) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
        scores.append(np.mean(num / den))
    return float(np.mean(scores))


@dataclass
class EvalRecord:
    image_id: str
    eye: str
    psnr_db: float
    ssim: float


@dataclass
class EvalReport:
    method: str
    scale: int
    records: List[EvalRecord] = field(default_factory=list)

    @property
    def mean_psnr(self) -> float:
        return float(np.mean([r.psnr_db for r in self.records]))

    @property
    def mean_ssim(self) -> float:
        return float(np.mean([r.ssim for r in self.records]))

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("image_id,eye,psnr_db,ssim\n")
            for r in self.records:
                fh.write(f"{r.image_id},{r.eye},{r.psnr_db:.10g},{r.ssim:.10g}\n")
            fh.write(f"aggregate,both,{self.mean_psnr:.10g},{self.mean_ssim:.10g}\n")


def evaluate(
    manifest_path: str,
    split: str,
    scale: int,
    method: str = "bicubic",
    params=None,
    csv_path: Optional[str] = None,
) -> EvalReport:
    """Score a method over one manifest split, both eyes per frame.

    method is "bicubic" or "model" (requires ``params``). Iteration
    follows manifest order, so repeated runs are bit-identical.
    """
    frames = manifest_frames(manifest_path, split, scale)
    if not frames:
        raise ValueError(f"split '{split}' of {manifest_path} is empty")
    report = EvalReport(method=method, scale=scale)
    for idx, frame in enumerate(frames):
        if method == "bicubic":
            sr = bicubic_resize(frame.lr, *frame.hr.shape[-2:])
        elif method == "model":
            if params is None:
                raise ValueError("method 'model' requires params")
            sr = sr_pair(params, frame.lr)
        else:
            raise ValueError(f"unknown method {method!r}")
        image_id = f"{split}_{idx:03d}"
        for eye, sr_eye, hr_eye in zip("LR", sr, frame.hr):
            report.records.append(
                EvalRecord(image_id, eye, psnr(sr_eye, hr_eye), ssim(sr_eye, hr_eye))
            )
    if csv_path:
        report.write_csv(csv_path)
    return report
