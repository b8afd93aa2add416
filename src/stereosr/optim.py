"""Initialization, Adam, and the stepwise learning-rate schedule."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor

# the fixed optimiser recipe, as in PASSRnet
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_HALVING_PERIOD = 30  # epochs


def xavier_uniform(shape, rng: np.random.Generator, dtype=np.float32) -> Tensor:
    """Uniform init on +/- sqrt(6 / (fan_in + fan_out)) for an [O, C, kH, kW] kernel.

    fan_in = C*kH*kW and fan_out = O*kH*kW.
    """
    shape = tuple(int(n) for n in shape)
    if len(shape) != 4:
        raise ValueError(f"cannot derive fans for shape {shape}")
    o, c, kh, kw = shape
    fan_in = c * kh * kw
    fan_out = o * kh * kw
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    data = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(data, requires_grad=True)


def named_parameters(obj, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
    """Depth-first walk of a parameter tree (dataclasses, sequences, Tensors)."""
    if isinstance(obj, Tensor):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            name = f.name if not prefix else f"{prefix}.{f.name}"
            yield from named_parameters(getattr(obj, f.name), name)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            name = str(i) if not prefix else f"{prefix}.{i}"
            yield from named_parameters(item, name)
    # scalars/strings carry no parameters


def zero_grads(obj) -> None:
    for _, p in named_parameters(obj):
        p.zero_grad()


def lr_schedule(epoch: int, lr0: float) -> float:
    """Stepwise decay: lr0 halved once per LR_HALVING_PERIOD epochs elapsed."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return lr0 * 0.5 ** (epoch // LR_HALVING_PERIOD)


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_init(params: Iterable[Tuple[str, Tensor]]) -> AdamState:
    state = AdamState()
    for name, p in params:
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def adam_step(params: List[Tuple[str, Tensor]], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update at the module's betas and eps; missing grads count as zero."""
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    state.t += 1
    t = state.t
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype)
