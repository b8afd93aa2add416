"""Training objective: intensity MSE plus disparity-constraint terms.

All terms are mean-reduced per element so the balance factor alpha keeps
its meaning across patch sizes. The composite objective is

    total = mse + alpha * (dc + apam)
    apam  = photo + smooth_lr + smooth_rl + cycle

where dc compares trilinearly upsampled LR masks against the SR-scale
masks, photo scores mask-warped cross-eye reconstruction, smoothness
penalizes mask variation across rows and along the (column, match)
diagonal, and cycle drives round-trip warps toward the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .model import warp
from .tensor import Tensor


@dataclass
class LossBreakdown:
    """Scalar values of every loss component for one optimization step.

    The loss fields, in order, are the columns of ``loss.csv`` after
    ``step``; ``alpha`` is the weight, not a logged value.
    """

    total: float
    mse: float
    dc: float
    apam: float
    photo: float
    smooth_lr: float
    smooth_rl: float
    cycle: float
    alpha: float

    def csv_row(self, step: int) -> str:
        return f"{step}," + ",".join(f"{getattr(self, c):.10g}" for c in LOSS_COLUMNS)


LOSS_COLUMNS = tuple(f.name for f in fields(LossBreakdown) if f.name != "alpha")
CSV_HEADER = ",".join(("step",) + LOSS_COLUMNS)


def mse_loss(sr_left: Tensor, sr_right: Tensor, hr_left: Tensor, hr_right: Tensor) -> Tensor:
    """Mean squared intensity error, summed over both eyes."""
    if sr_left.shape != hr_left.shape or sr_right.shape != hr_right.shape:
        raise ValueError(
            f"SR/HR shapes differ: {sr_left.shape} vs {hr_left.shape}, "
            f"{sr_right.shape} vs {hr_right.shape}"
        )
    return ((sr_left - hr_left) ** 2).mean() + ((sr_right - hr_right) ** 2).mean()


def photometric_loss(i_left: Tensor, i_right: Tensor, m_rl: Tensor, m_lr: Tensor) -> Tensor:
    """Mean L1 error of each eye against the mask-warped other eye."""
    left_hat = warp(m_rl, i_right)
    right_hat = warp(m_lr, i_left)
    return (i_left - left_hat).abs().mean() + (i_right - right_hat).abs().mean()


def _mean_abs(diff: Tensor) -> Tensor:
    # a 1-extent axis leaves nothing to difference; that term is zero
    if diff.size == 0:
        return Tensor(np.zeros((), dtype=diff.dtype))
    return diff.abs().mean()


def smoothness_loss(mask: Tensor, diagonal: bool = True) -> Tensor:
    """Mean absolute mask variation across rows plus a second difference.

    The second term runs along the (column, match) diagonal by default;
    ``diagonal=False`` swaps in a plain difference along the match axis.
    Out-of-range neighbors are dropped. Axes are (n, i, j, k) with i the
    image row and (j, k) the square attention matrix.
    """
    if mask.ndim != 4:
        raise ValueError(f"smoothness_loss needs an [N,H,W,W] mask, got {mask.shape}")
    row_diff = mask[:, :-1, :, :] - mask[:, 1:, :, :]
    if diagonal:
        second = mask[:, :, :-1, :-1] - mask[:, :, 1:, 1:]
    else:
        second = mask[:, :, :, :-1] - mask[:, :, :, 1:]
    return _mean_abs(row_diff) + _mean_abs(second)


def cycle_loss(m_lr: Tensor, m_rl: Tensor) -> Tensor:
    """Mean L1 distance of both round-trip row products from the identity."""
    if m_lr.shape != m_rl.shape:
        raise ValueError(f"mask shapes differ: {m_lr.shape} vs {m_rl.shape}")
    if m_lr.ndim != 4:
        raise ValueError(f"cycle_loss needs [N,H,W,W] masks, got {m_lr.shape}")
    n, h, w, _ = m_lr.shape
    lr_rows = m_lr.reshape(n * h, w, w)
    rl_rows = m_rl.reshape(n * h, w, w)
    eye = Tensor(np.eye(w, dtype=m_lr.dtype))
    forward = T.batch_matmul(lr_rows, rl_rows) - eye
    backward = T.batch_matmul(rl_rows, lr_rows) - eye
    return forward.abs().mean() + backward.abs().mean()


def _upsample_renorm(mask: Tensor, s: int) -> Tensor:
    """Trilinear upsample of a mask volume, rows rescaled back to sum 1."""
    up = T.trilinear_upsample(mask, s)
    return up / up.sum(axis=-1, keepdims=True)


def disparity_consistency_loss(
    m_lr_lr: Tensor, m_rl_lr: Tensor, m_lr_sr: Tensor, m_rl_sr: Tensor, s: int
) -> Tensor:
    """Mean squared gap between upsampled LR masks and the SR masks."""
    for lr_m, sr_m in ((m_lr_lr, m_lr_sr), (m_rl_lr, m_rl_sr)):
        expect = tuple(lr_m.shape[:-3]) + tuple(n * s for n in lr_m.shape[-3:])
        if tuple(sr_m.shape) != expect:
            raise ValueError(
                f"SR mask shape {sr_m.shape} does not match upsampled LR {expect}"
            )
    d_lr = _upsample_renorm(m_lr_lr, s) - m_lr_sr
    d_rl = _upsample_renorm(m_rl_lr, s) - m_rl_sr
    return (d_lr**2).mean() + (d_rl**2).mean()


def total_loss(
    mse: Tensor,
    dc: Tensor,
    photo: Tensor,
    smooth_lr: Tensor,
    smooth_rl: Tensor,
    cycle: Tensor,
    alpha: float,
):
    """Combine the components; returns (scalar tensor, LossBreakdown)."""
    apam = photo + smooth_lr + smooth_rl + cycle
    total = mse + alpha * (dc + apam)
    breakdown = LossBreakdown(
        total=total.item(),
        mse=mse.item(),
        dc=dc.item(),
        apam=apam.item(),
        photo=photo.item(),
        smooth_lr=smooth_lr.item(),
        smooth_rl=smooth_rl.item(),
        cycle=cycle.item(),
        alpha=alpha,
    )
    return total, breakdown


def compute_losses(
    outputs,
    lr_left: Tensor,
    lr_right: Tensor,
    hr_left: Tensor,
    hr_right: Tensor,
    alpha: float,
    scale: int,
    smooth_diagonal: bool = True,
):
    """Full objective for one forward pass; returns (total, LossBreakdown)."""
    mse = mse_loss(outputs.sr_left, outputs.sr_right, hr_left, hr_right)
    dc = disparity_consistency_loss(
        outputs.m_lr_lr, outputs.m_rl_lr, outputs.m_lr_sr, outputs.m_rl_sr, scale
    )
    photo = photometric_loss(lr_left, lr_right, outputs.m_rl_lr, outputs.m_lr_lr)
    smooth_lr = smoothness_loss(outputs.m_lr_lr, smooth_diagonal)
    smooth_rl = smoothness_loss(outputs.m_rl_lr, smooth_diagonal)
    cyc = cycle_loss(outputs.m_lr_lr, outputs.m_rl_lr)
    return total_loss(mse, dc, photo, smooth_lr, smooth_rl, cyc, alpha)
