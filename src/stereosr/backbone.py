"""Shared-weight feature backbone: residual and residual-ASPP blocks.

Both eyes pass through one parameter set: an entry 3x3 conv lifting the
image channels to the working width, then the alternating sequence
res -> resASPP -> res -> resASPP -> res. Each resASPP block runs three
dilated 3x3 branches (rates 1, 4, 8, padding = dilation) in parallel,
concatenates them, fuses with a 1x1 conv, and adds the block input back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import tensor as T
from .optim import xavier_uniform
from .tensor import Tensor

# leaky-relu slope used everywhere in the network
ACT_SLOPE = 0.1

ASPP_RATES = (1, 4, 8)


@dataclass
class Conv2dParams:
    weight: Tensor
    bias: Tensor


def init_conv(
    rng: np.random.Generator, out_ch: int, in_ch: int, k: int, dtype=np.float32
) -> Conv2dParams:
    weight = xavier_uniform((out_ch, in_ch, k, k), rng, dtype)
    bias = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True)
    return Conv2dParams(weight, bias)


def conv(x: Tensor, p: Conv2dParams, padding: int = 0, dilation: int = 1) -> Tensor:
    return T.conv2d(x, p.weight, p.bias, padding=padding, dilation=dilation)


@dataclass
class ResidualBlockParams:
    conv1: Conv2dParams
    conv2: Conv2dParams


def init_residual_block(
    rng: np.random.Generator, channels: int, dtype=np.float32
) -> ResidualBlockParams:
    return ResidualBlockParams(
        conv1=init_conv(rng, channels, channels, 3, dtype),
        conv2=init_conv(rng, channels, channels, 3, dtype),
    )


def residual_block(x: Tensor, params: ResidualBlockParams) -> Tensor:
    """y = x + conv2(act(conv1(x))), extents preserved."""
    if params.conv1.weight.shape[1] != x.shape[1]:
        raise ValueError(
            f"residual block expects C={params.conv1.weight.shape[1]}, got C={x.shape[1]}"
        )
    h = T.leaky_relu(conv(x, params.conv1, padding=1), ACT_SLOPE)
    return x + conv(h, params.conv2, padding=1)


@dataclass
class ResASPPBlockParams:
    branches: Tuple[Conv2dParams, ...]  # dilation rates 1, 4, 8
    fuse: Conv2dParams  # 1x1, 3C -> C


def init_res_aspp_block(
    rng: np.random.Generator, channels: int, dtype=np.float32
) -> ResASPPBlockParams:
    return ResASPPBlockParams(
        branches=tuple(init_conv(rng, channels, channels, 3, dtype) for _ in ASPP_RATES),
        fuse=init_conv(rng, channels, 3 * channels, 1, dtype),
    )


def res_aspp_block(x: Tensor, params: ResASPPBlockParams) -> Tensor:
    """y = x + fuse1x1(concat of dilated branches), padding = dilation."""
    outs = [
        T.leaky_relu(conv(x, p, padding=rate, dilation=rate), ACT_SLOPE)
        for rate, p in zip(ASPP_RATES, params.branches)
    ]
    return x + conv(T.concat(outs, axis=1), params.fuse)


@dataclass
class FeatureExtractorParams:
    entry: Conv2dParams
    res1: ResidualBlockParams
    aspp1: ResASPPBlockParams
    res2: ResidualBlockParams
    aspp2: ResASPPBlockParams
    res3: ResidualBlockParams


def init_feature_extractor(
    rng: np.random.Generator, in_channels: int, channels: int, dtype=np.float32
) -> FeatureExtractorParams:
    return FeatureExtractorParams(
        entry=init_conv(rng, channels, in_channels, 3, dtype),
        res1=init_residual_block(rng, channels, dtype),
        aspp1=init_res_aspp_block(rng, channels, dtype),
        res2=init_residual_block(rng, channels, dtype),
        aspp2=init_res_aspp_block(rng, channels, dtype),
        res3=init_residual_block(rng, channels, dtype),
    )


def extract_single(x: Tensor, params: FeatureExtractorParams) -> Tensor:
    h = T.leaky_relu(conv(x, params.entry, padding=1), ACT_SLOPE)
    h = residual_block(h, params.res1)
    h = res_aspp_block(h, params.aspp1)
    h = residual_block(h, params.res2)
    h = res_aspp_block(h, params.aspp2)
    return residual_block(h, params.res3)


def extract_features(
    left: Tensor, right: Tensor, params: FeatureExtractorParams
) -> Tuple[Tensor, Tensor]:
    """Run the one shared backbone over both eyes."""
    if left.shape != right.shape:
        raise ValueError(f"eye shapes differ: {left.shape} vs {right.shape}")
    return extract_single(left, params), extract_single(right, params)
