"""Row-wise parallax attention, feature warping, and SR reconstruction.

Attention scores are per-row dot products between query features of one
eye and key features of the other, computed with rows as the matmul batch
(``tensor.row_attention``, a block of rows at a time). Softmax over the
last axis turns each score matrix into a pair of disparity masks, carried
as one [2,N,H,W,W] tensor:

  * index 0, ``M_lr[n, i, b, a]``: weight of left column a when
    reconstructing right column b on row i (the transposed scores
    normalized over a). It warps the left eye onto the right view.
  * index 1, ``M_rl[n, i, a, b]``: weight of right column b when
    reconstructing left column a on row i (softmax over b). It warps the
    right eye onto the left view.

``warp`` applies the pair to both eyes in one product: index 0 is M_lr·left,
fused by the right eye's reconstruction, and index 1 M_rl·right, by the left's.

Before the dot products, one shared dilated-mixing block widens each
eye's features so correspondences draw on rows near the epipolar line
rather than the single line itself.

Training runs the extractor+attention stack twice with one weight set:
once on the LR pair (masks + SR reconstruction) and once on the SR pair
(masks only), so mask consistency across scales can be penalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import tensor as T
from .backbone import (
    Conv2dParams,
    FeatureExtractorParams,
    ResASPPBlockParams,
    ResidualBlockParams,
    conv,
    extract_features,
    init_conv,
    init_feature_extractor,
    init_res_aspp_block,
    init_residual_block,
    res_aspp_block,
    residual_block,
)
from .data import SCALES, bicubic_resize
from .tensor import Tensor


@dataclass
class AttentionParams:
    """Pre-attention mixing, query/key projections, fusion, and the SR head."""

    mix: ResASPPBlockParams
    query: Conv2dParams  # 1x1, C -> C
    key: Conv2dParams  # 1x1, C -> C
    fuse: Conv2dParams  # 1x1, 2C -> C
    recon1: ResidualBlockParams
    recon2: ResidualBlockParams
    upscale: Conv2dParams  # 3x3, C -> img_channels * s^2
    output: Conv2dParams  # 3x3, img_channels -> img_channels


@dataclass
class ModelParams:
    extractor: FeatureExtractorParams
    attention: AttentionParams
    scale: int
    channels: int
    img_channels: int


def init_model(
    rng: np.random.Generator,
    scale: int,
    channels: int,
    img_channels: int = 1,
    dtype=np.float32,
    zero_output: bool = True,
) -> ModelParams:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale}")
    if channels < 1 or img_channels < 1:
        raise ValueError(
            f"channels and img_channels must be >= 1, got {channels} and {img_channels}"
        )
    attention = AttentionParams(
        mix=init_res_aspp_block(rng, channels, dtype),
        query=init_conv(rng, channels, channels, 1, dtype),
        key=init_conv(rng, channels, channels, 1, dtype),
        fuse=init_conv(rng, channels, 2 * channels, 1, dtype),
        recon1=init_residual_block(rng, channels, dtype),
        recon2=init_residual_block(rng, channels, dtype),
        upscale=init_conv(rng, img_channels * scale * scale, channels, 3, dtype),
        output=init_conv(rng, img_channels, img_channels, 3, dtype),
    )
    if zero_output:
        # start at the bicubic baseline: a randomly initialized head adds
        # noise the optimizer would first have to unlearn
        attention.output.weight.data[...] = 0.0
    return ModelParams(
        extractor=init_feature_extractor(rng, img_channels, channels, dtype),
        attention=attention,
        scale=scale,
        channels=channels,
        img_channels=img_channels,
    )


def zero_model(params: ModelParams) -> None:
    """Set every parameter to zero in place (degenerate-case testing)."""
    from .optim import named_parameters

    for _, p in named_parameters(params):
        p.data[...] = 0.0


# ----------------------------------------------------------------------
# masks and warping
# ----------------------------------------------------------------------
def attention_masks(f_left: Tensor, f_right: Tensor, params: AttentionParams) -> Tensor:
    """Both disparity masks as one [2,N,H,W,W] tensor with unit row slices.

    The per-row scores are S[n,i,a,b] = <query(left)[i,a], key(right)[i,b]> / C.
    The 1/C normalization keeps the softmax out of saturation at init;
    raw dot products over C channels otherwise start with logit spreads
    of several units, freezing the masks on random peaks.

    Index 0 is M_lr (warps left->right), index 1 is M_rl (warps right->left).
    """
    if f_left.shape != f_right.shape:
        raise ValueError(f"feature shapes differ: {f_left.shape} vs {f_right.shape}")
    g_left = res_aspp_block(f_left, params.mix)
    g_right = res_aspp_block(f_right, params.mix)
    q = conv(g_left, params.query)
    k = conv(g_right, params.key)
    n, c, h, w = q.shape
    q_rows = q.transpose(0, 2, 3, 1).reshape(n * h, w, c)  # [N*H, W, C]
    k_rows = k.transpose(0, 2, 1, 3).reshape(n * h, c, w)  # [N*H, C, W]
    return T.row_attention(q_rows, k_rows, 1.0 / c).reshape(2, n, h, w, w)


def check_mask_pair(masks: Tensor, name: str) -> None:
    """The shape every reader of a mask pair takes: one [2,N,H,W,W] tensor."""
    if masks.ndim != 5 or masks.shape[0] != 2 or masks.shape[-1] != masks.shape[-2]:
        raise ValueError(f"{name} needs a [2,N,H,W,W] mask pair, got {masks.shape}")


def warp(masks: Tensor, left: Tensor, right: Tensor) -> Tensor:
    """Warp each eye onto the other view row-wise with its mask of the pair.

    Takes the [2,N,H,W,W] pair and both eyes [N,C,H,W]; returns [2,N,C,H,W]
    with out[d,n,c,i,a] = sum_b masks[d,n,i,a,b] * eye_d[n,c,i,b]: index 0
    is M_lr·left, the left eye on the right view, index 1 M_rl·right.
    """
    check_mask_pair(masks, "warp")
    if left.ndim != 4 or left.shape != right.shape:
        raise ValueError(f"warp got eyes {left.shape} and {right.shape}")
    _, n, h, w, _ = masks.shape
    ni, c, hi, wi = left.shape
    if (n, h, w) != (ni, hi, wi):
        raise ValueError(f"mask extents N,H,W={n, h, w} do not match image {ni, hi, wi}")
    # each eye's [N*H,W,C] operand keeps a lone eye's layout, a view at N=1
    # and a copy at N>1: OpenBLAS rounds the view's column-major [W,C] rows
    # differently from a copy, so folding the eyes into [2N*H,W,C] rows
    # would change the last bits at N=1
    eyes = T.concat([left, right]).reshape(2, n, c, h, w).transpose(0, 1, 3, 4, 2)
    rows = T.batch_matmul(masks.reshape(2, n * h, w, w), eyes.reshape(2, n * h, w, c))
    return rows.reshape(2, n, h, w, c).transpose(0, 1, 4, 2, 3)


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
def reconstruct_sr(
    f_own: Tensor,
    f_other_warped: Tensor,
    lr_image: Tensor,
    params: AttentionParams,
    scale: int,
) -> Tensor:
    """Fuse own and warped-other features and upscale to the SR image.

    The head predicts only the detail added on top of the bicubic
    upsample of the LR input, so a zero-weight network reproduces the
    bicubic baseline exactly.
    """
    fused = conv(T.concat([f_own, f_other_warped], axis=1), params.fuse)
    h = residual_block(fused, params.recon1)
    h = residual_block(h, params.recon2)
    h = conv(h, params.upscale, padding=1)
    h = T.pixel_shuffle(h, scale)
    out = conv(h, params.output, padding=1)
    # a constant: no gradient flows back through the bicubic upsample
    up = bicubic_resize(lr_image.data, *out.shape[-2:])
    return out + Tensor(up, dtype=lr_image.dtype)


def _lr_pass(
    lr_left: Tensor, lr_right: Tensor, params: ModelParams
) -> Tuple[Tensor, Tensor, Tensor]:
    """SR images for both eyes plus the stacked [2,N,h,w,w] LR mask pair."""
    f_left, f_right = extract_features(lr_left, lr_right, params.extractor)
    masks = attention_masks(f_left, f_right, params.attention)
    warped = warp(masks, f_left, f_right)
    sr_left = reconstruct_sr(f_left, warped[1], lr_left, params.attention, params.scale)
    sr_right = reconstruct_sr(f_right, warped[0], lr_right, params.attention, params.scale)
    return sr_left, sr_right, masks


def super_resolve(
    lr_left: Tensor, lr_right: Tensor, params: ModelParams
) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
    """One LR pass: SR images for both eyes plus the LR mask pair.

    Returns (sr_left, sr_right, m_lr, m_rl), each mask [N,h,w,w].
    """
    sr_left, sr_right, masks = _lr_pass(lr_left, lr_right, params)
    return sr_left, sr_right, masks[0], masks[1]


def sr_pair(params: ModelParams, lr: np.ndarray) -> np.ndarray:
    """Super-resolve one [2,C,h,w] LR pair without a graph; returns the [2,C,H,W] SR pair."""
    with T.no_grad():
        sr_left, sr_right, _, _ = super_resolve(Tensor(lr[:1]), Tensor(lr[1:]), params)
    return np.concatenate([sr_left.data, sr_right.data])


def masks_pair(params: ModelParams, lr: np.ndarray) -> np.ndarray:
    """LR masks of one [2,C,h,w] pair without a graph: [2,h,w,w], m_lr then m_rl."""
    with T.no_grad():
        f_left, f_right = extract_features(Tensor(lr[:1]), Tensor(lr[1:]), params.extractor)
        masks = attention_masks(f_left, f_right, params.attention)
    return masks.data[:, 0]


@dataclass
class ForwardOutputs:
    sr_left: Tensor
    sr_right: Tensor
    masks_lr: Tensor  # [2,N,h,w,w] LR-scale mask pair
    masks_sr: Tensor  # [2,N,H,W,W] SR-scale mask pair


def forward_full(lr_left: Tensor, lr_right: Tensor, params: ModelParams) -> ForwardOutputs:
    """Two-pass training forward: SR outputs, LR masks, and SR-scale masks.

    The second pass reuses the same extractor and attention weights on
    the freshly super-resolved pair, so gradients reach the parameters
    through both scales.
    """
    sr_left, sr_right, masks_lr = _lr_pass(lr_left, lr_right, params)
    f2_left, f2_right = extract_features(sr_left, sr_right, params.extractor)
    masks_sr = attention_masks(f2_left, f2_right, params.attention)
    return ForwardOutputs(sr_left, sr_right, masks_lr, masks_sr)


# ----------------------------------------------------------------------
# batching and mask inspection
# ----------------------------------------------------------------------
def batch_tensors(samples, dtype=np.float32) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
    """Stack StereoSamples into (lr_left, lr_right, hr_left, hr_right) tensors."""
    lr_l, lr_r = np.stack([s.lr for s in samples], axis=1).astype(dtype)
    hr_l, hr_r = np.stack([s.hr for s in samples], axis=1).astype(dtype)
    return Tensor(lr_l), Tensor(lr_r), Tensor(hr_l), Tensor(hr_r)


def pair_disparity(masks: np.ndarray) -> np.ndarray:
    """Integer disparity per pixel of each eye from a [2,h,w,w] mask pair's argmax.

    Returns [2,h,w] int32 maps, eye 0 left. The left map reads M_rl
    (index 1): d[i, a] = a - argmax_b M_rl[i, a, b]. The right map reads
    M_lr (index 0): d[i, b] = argmax_a M_lr[i, b, a] - b.
    """
    hit = np.asarray(masks).argmax(axis=-1)
    cols = np.arange(hit.shape[-1])
    return np.stack([cols - hit[1], hit[0] - cols]).astype(np.int32)
