"""Training objective: intensity MSE plus disparity-constraint terms.

All terms are mean-reduced per element so the balance factor alpha keeps
its meaning across patch sizes. The composite objective is

    total = mse + alpha * (dc + apam)
    apam  = photo + smooth_lr + smooth_rl + cycle

where dc compares trilinearly upsampled LR masks against the SR-scale
masks, photo scores mask-warped cross-eye reconstruction, smoothness
penalizes mask variation across rows and along the (column, match)
diagonal, and cycle drives round-trip warps toward the identity. dc is
one engine op, ``tensor.consistency_gap``, which works the SR rows in
blocks: the upsampled masks, their row sums, quotient and gap never
exist in full, in the forward or in the backward.

Every mask term takes a mask pair as one [2,N,H,W,W] tensor and works
both directions in one call: index 0 is M_lr, which warps the left eye
onto the right view, and index 1 is M_rl, which warps the right eye onto
the left view (``model`` module docstring). The photometric term holds
``warp``'s index 0 against the right eye and index 1 against the left.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .model import check_mask_pair, warp
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


def _direction_means(x: Tensor) -> Tensor:
    """[2] means of x's first and second half along its leading axis."""
    # a 1-extent axis leaves nothing to difference; that term is zero
    if x.size == 0:
        return Tensor(np.zeros(2, dtype=x.dtype))
    return x.reshape(2, -1).mean(axis=1)


def photometric_loss(i_left: Tensor, i_right: Tensor, masks: Tensor) -> Tensor:
    """Mean L1 error of each eye against the mask-warped other eye.

    One warp of both eyes: M_lr carries the left eye to the right view and
    M_rl the right eye to the left view.
    """
    warped = warp(masks, i_left, i_right)
    target = T.concat([i_right, i_left]).reshape(warped.shape)
    return _direction_means((target - warped).abs()).sum()


def smoothness_loss(masks: Tensor, diagonal: bool = True) -> Tensor:
    """Mean absolute mask variation across rows plus a second difference.

    Returns a [2] tensor, one value per direction (smooth_lr, smooth_rl).
    The second term runs along the (column, match) diagonal by default;
    ``diagonal=False`` swaps in a plain difference along the match axis.
    Out-of-range neighbors are dropped. Axes are (direction, n, i, j, k)
    with i the image row and (j, k) the square attention matrix.
    """
    check_mask_pair(masks, "smoothness_loss")
    row_diff = masks[:, :, :-1, :, :] - masks[:, :, 1:, :, :]
    if diagonal:
        second = masks[:, :, :, :-1, :-1] - masks[:, :, :, 1:, 1:]
    else:
        second = masks[:, :, :, :, :-1] - masks[:, :, :, :, 1:]
    return _direction_means(row_diff.abs()) + _direction_means(second.abs())


def cycle_loss(masks: Tensor) -> Tensor:
    """Mean L1 distance of both round-trip row products from the identity.

    One batched product of the pair against its swap: M_lr M_rl and M_rl M_lr.
    """
    check_mask_pair(masks, "cycle_loss")
    eye = Tensor(np.eye(masks.shape[-1], dtype=masks.dtype))
    return _direction_means((T.batch_matmul(masks, masks[::-1]) - eye).abs()).sum()


def disparity_consistency_loss(masks_lr: Tensor, masks_sr: Tensor, s: int) -> Tensor:
    """Mean squared gap between the SR masks and the trilinearly upsampled LR
    masks, whose rows are rescaled back to sum 1, summed over the two
    directions (``tensor.consistency_gap``)."""
    check_mask_pair(masks_lr, "disparity_consistency_loss")
    return T.consistency_gap(masks_lr, masks_sr, s).sum()


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
    values = (total, mse, dc, apam, photo, smooth_lr, smooth_rl, cycle)
    return total, LossBreakdown(*(v.item() for v in values), alpha=alpha)


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
    dc = disparity_consistency_loss(outputs.masks_lr, outputs.masks_sr, scale)
    photo = photometric_loss(lr_left, lr_right, outputs.masks_lr)
    smooth = smoothness_loss(outputs.masks_lr, smooth_diagonal)
    cyc = cycle_loss(outputs.masks_lr)
    return total_loss(mse, dc, photo, smooth[0], smooth[1], cyc, alpha)
