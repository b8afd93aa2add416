"""Acceptance gate: one test per exit criterion, each printing PASS/FAIL.

The quantitative criteria run small but real training jobs on synthetic
stereo data, so this module takes tens of minutes of CPU time in total.
Every run is seeded; reruns are bit-identical.
"""

import os
import time

import numpy as np
import pytest

from oracles import psnr_reference, ssim_reference

from stereosr.data import (
    bicubic_resize,
    extract_patches,
    generate_dataset,
    synth_stereo,
)
from stereosr.gradcheck import full_model_gradcheck
from stereosr.losses import compute_losses, cycle_loss, photometric_loss
from stereosr.metrics import evaluate, psnr, ssim
from stereosr.model import (
    batch_tensors,
    forward_full,
    init_model,
    pair_disparity,
    super_resolve,
    zero_model,
)
from stereosr.optim import adam_init, adam_step, named_parameters, zero_grads
from stereosr.tensor import Tensor, no_grad
from stereosr.training import (
    desk_config,
    load_checkpoint,
    restore_model,
    train,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# 1. gradient suite
# ----------------------------------------------------------------------
def test_gradient_suite_full_loss():
    """Analytic grads of the full objective match FD (eps=1e-4) at rel 1e-3."""
    t0 = time.time()
    report = full_model_gradcheck(
        scale=2, channels=4, patch_h=6, patch_w=12, seed=115, eps=1e-4
    )
    elapsed = time.time() - t0
    worst = max(report, key=report.get)
    ok = report[worst] < 1e-3 and elapsed < 300.0
    _report(
        "gradient-suite",
        ok,
        f"max rel err {report[worst]:.2e} over {len(report)} tensors "
        f"(worst: {worst}), {elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# 2. mask normalization
# ----------------------------------------------------------------------
def test_mask_normalization_after_forward():
    """100% of (i,j,.) slices of all four masks sum to 1 within 1e-5."""
    params = init_model(np.random.default_rng(0), 2, 8, 1)
    samples = [synth_stereo(s, 32, 96, (2.0, 6.0), scale=2)[0] for s in (1, 2)]
    lr_l, lr_r, hr_l, hr_r = batch_tensors(samples)
    # a couple of optimization steps so the check also covers trained weights
    named = list(named_parameters(params))
    adam = adam_init(named)
    for _ in range(3):
        out = forward_full(lr_l, lr_r, params)
        total, _ = compute_losses(out, lr_l, lr_r, hr_l, hr_r, 0.005, 2)
        zero_grads(params)
        total.backward()
        adam_step(named, adam, 1e-3)
    out = forward_full(lr_l, lr_r, params)
    frac_ok = []
    for m in (*out.masks_lr.data, *out.masks_sr.data):
        sums = m.sum(-1)
        frac_ok.append(float(np.mean(np.abs(sums - 1.0) <= 1e-5)))
    ok = all(f == 1.0 for f in frac_ok)
    _report("mask-normalization", ok, f"normalized slice fractions {frac_ok}")


# ----------------------------------------------------------------------
# 3. disparity recovery
# ----------------------------------------------------------------------
def _recovery_rate(masks: np.ndarray, truth_lr: np.ndarray) -> float:
    """Fraction of interior pixels whose left-eye argmax disparity is within 1 px."""
    disp = pair_disparity(masks)[0]
    h, w = disp.shape
    margin = int(np.ceil(truth_lr.max())) + 2
    got = disp[1 : h - 1, margin : w - margin]
    want = truth_lr[1 : h - 1, margin : w - margin]
    return float(np.mean(np.abs(got - want) <= 1.0))


def _train_constant_disparity(d: int, seed: int, max_steps: int = 2000):
    """Self-supervised run on constant-disparity patches; early stop at 0.9.

    Mask-shaping terms dominate (alpha=20) and steps are single-patch so
    the 2000-step budget concentrates on correspondence learning. The
    probe frame's stored HR disparity field is the oracle, downsampled to
    the LR grid where the LR masks live.
    """
    scale = 2
    patches = []
    for k in range(3):
        frame, _ = synth_stereo(
            1000 * seed + k, 64, 128, (float(scale * d), float(scale * d)), scale
        )
        patches.extend(extract_patches(frame, 16, 48, 8))
    probe, field = synth_stereo(
        1000 * seed + 999, 32, 96, (float(scale * d), float(scale * d)), scale
    )
    truth_lr = field[::scale, ::scale] / scale

    params = init_model(np.random.default_rng(seed), scale, 8, 1)
    named = list(named_parameters(params))
    adam = adam_init(named)
    order_rng = np.random.default_rng(seed + 1)
    pl, pr, _, _ = batch_tensors([probe])
    step = 0
    rate = 0.0
    while step < max_steps:
        for idx in order_rng.permutation(len(patches)):
            lr_l, lr_r, hr_l, hr_r = batch_tensors([patches[idx]])
            out = forward_full(lr_l, lr_r, params)
            total, _ = compute_losses(out, lr_l, lr_r, hr_l, hr_r, 20.0, scale)
            zero_grads(params)
            total.backward()
            adam_step(named, adam, 5e-3)
            step += 1
            if step >= 500 and step % 100 == 0:
                with no_grad():
                    pout = forward_full(pl, pr, params)
                rate = _recovery_rate(pout.masks_lr.data[:, 0], truth_lr)
                if rate >= 0.9:
                    return rate, step
            if step >= max_steps:
                break
    with no_grad():
        pout = forward_full(pl, pr, params)
    return _recovery_rate(pout.masks_lr.data[:, 0], truth_lr), step


@pytest.mark.parametrize("d", [1, 2, 3])
def test_disparity_recovery(d):
    """Trained masks recover planted constant disparity on >=90% interior."""
    t0 = time.time()
    rate, steps = _train_constant_disparity(d, seed=50 + d)
    ok = rate >= 0.9 and steps <= 2000 and time.time() - t0 < 1800
    _report(
        f"disparity-recovery d={d}",
        ok,
        f"rate {rate:.3f} after {steps} steps ({time.time() - t0:.0f}s)",
    )


# ----------------------------------------------------------------------
# 4. SR improvement over bicubic
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sr_dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("sr_ds"))
    manifest = generate_dataset(
        root, seed=42, counts=(4, 1, 2), frame_h=96, frame_w=192,
        disparity_range=(2.0, 6.0), scale=2,
    )
    return manifest


def test_sr_beats_bicubic_by_1db(sr_dataset, tmp_path):
    """Desk-scale recipe gains >= 1.0 dB mean PSNR on the held-out split."""
    t0 = time.time()
    cfg = desk_config(
        manifest=sr_dataset, out_dir=str(tmp_path / "sr_run"), seed=1, epochs=10
    )
    result = train(cfg)
    params, _, _ = restore_model(load_checkpoint(result.checkpoint_path))
    base = evaluate(sr_dataset, "test", 2, "bicubic")
    model = evaluate(sr_dataset, "test", 2, "model", params=params)
    gain = model.mean_psnr - base.mean_psnr
    ok = gain >= 1.0 and time.time() - t0 < 1800
    _report(
        "sr-improvement",
        ok,
        f"model {model.mean_psnr:.2f} dB vs bicubic {base.mean_psnr:.2f} dB "
        f"(gain {gain:.2f} dB, {time.time() - t0:.0f}s)",
    )


# ----------------------------------------------------------------------
# 5. ablation direction
# ----------------------------------------------------------------------
def _heldout_photometric(params, frames) -> float:
    vals = []
    with no_grad():
        for frame in frames:
            lr_l, lr_r, _, _ = batch_tensors([frame])
            _, _, m_lr, m_rl = super_resolve(lr_l, lr_r, params)
            masks = Tensor(np.stack([m_lr.data, m_rl.data]))
            vals.append(photometric_loss(lr_l, lr_r, masks).item())
    return float(np.mean(vals))


def test_ablation_alpha_lowers_heldout_photometric(tmp_path):
    """alpha=0.005 beats alpha=0 on held-out photometric loss (3-seed means)."""
    t0 = time.time()
    root = str(tmp_path / "abl_ds")
    manifest = generate_dataset(
        root, seed=77, counts=(3, 0, 2), frame_h=64, frame_w=128,
        disparity_range=(2.0, 6.0), scale=2,
    )
    from stereosr.data import manifest_frames

    heldout = manifest_frames(manifest, "test", 2)
    means = {}
    for alpha in (0.005, 0.0):
        per_seed = []
        for seed in (1, 2, 3):
            cfg = desk_config(
                manifest=manifest,
                out_dir=str(tmp_path / f"abl_{alpha}_{seed}"),
                seed=seed,
                epochs=3,
                alpha=alpha,
                checkpoint_every=3,
            )
            result = train(cfg)
            params, _, _ = restore_model(load_checkpoint(result.checkpoint_path))
            per_seed.append(_heldout_photometric(params, heldout))
        means[alpha] = float(np.mean(per_seed))
    ok = means[0.005] < means[0.0]
    _report(
        "ablation-direction",
        ok,
        f"photometric mean alpha=0.005: {means[0.005]:.5f} vs alpha=0: "
        f"{means[0.0]:.5f} ({time.time() - t0:.0f}s)",
    )


# ----------------------------------------------------------------------
# 6. degenerate equivalences
# ----------------------------------------------------------------------
def test_degenerate_equivalences():
    """Zero net == bicubic bitwise; perfect masks zero the mask losses."""
    params = init_model(np.random.default_rng(3), 2, 4, 1, dtype=np.float64)
    zero_model(params)
    sample, _ = synth_stereo(8, 24, 48, (2.0, 4.0), scale=2)
    lr_l, lr_r, _, _ = batch_tensors([sample], dtype=np.float64)
    sr_l, sr_r, _, _ = super_resolve(lr_l, lr_r, params)
    bic_ok = np.array_equal(
        sr_l.data[0], bicubic_resize(lr_l.data[0], 24, 48)
    ) and np.array_equal(sr_r.data[0], bicubic_resize(lr_r.data[0], 24, 48))

    img = np.random.default_rng(4).random((1, 1, 6, 10))
    eye = np.broadcast_to(np.eye(10), (2, 1, 6, 10, 10)).copy()
    photo = photometric_loss(
        Tensor(img, dtype=np.float64),
        Tensor(img.copy(), dtype=np.float64),
        Tensor(eye, dtype=np.float64),
    ).item()

    def shift_mask(h, w, s):
        m = np.zeros((h, w, w))
        for a in range(w):
            m[:, a, np.clip(a - s, 0, w - 1)] = 1.0
        return m

    d = 2
    fwd = shift_mask(4, 12, d)
    bwd = shift_mask(4, 12, -d)
    prod = np.matmul(fwd[0], bwd[0])
    interior_ok = np.array_equal(prod[d : 12 - d], np.eye(12)[d : 12 - d])

    ok = bic_ok and photo == 0.0 and interior_ok
    _report(
        "degenerate-equivalences",
        ok,
        f"zero-net==bicubic {bic_ok}, identity-mask photo {photo}, "
        f"inverse-shift interior identity {interior_ok}",
    )


# ----------------------------------------------------------------------
# 7. determinism and persistence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("det_ds"))
    return generate_dataset(
        root, seed=5, counts=(2, 1, 0), frame_h=48, frame_w=96,
        disparity_range=(2.0, 4.0), scale=2,
    )


def _det_cfg(manifest, out_dir, epochs):
    return desk_config(
        manifest=manifest,
        out_dir=out_dir,
        seed=11,
        epochs=epochs,
        channels=4,
        patch_h=8,
        patch_w=24,
        stride=8,
        batch=4,
        checkpoint_every=1,
    )


def test_determinism_and_resume(small_manifest, tmp_path):
    """Same seed -> identical checkpoints; resume -> identical continuation."""
    a = train(_det_cfg(small_manifest, str(tmp_path / "a"), epochs=2))
    b = train(_det_cfg(small_manifest, str(tmp_path / "b"), epochs=2))
    same = []
    for ep in (1, 2):
        fa = os.path.join(os.path.dirname(a.checkpoint_path), f"ckpt_ep{ep:03d}.bin")
        fb = os.path.join(os.path.dirname(b.checkpoint_path), f"ckpt_ep{ep:03d}.bin")
        with open(fa, "rb") as ha, open(fb, "rb") as hb:
            same.append(ha.read() == hb.read())

    short = train(_det_cfg(small_manifest, str(tmp_path / "c"), epochs=1))
    resumed = train(
        _det_cfg(small_manifest, str(tmp_path / "c"), epochs=2),
        resume=short.checkpoint_path,
    )
    fa = os.path.join(str(tmp_path / "a"), "ckpt_ep002.bin")
    with open(fa, "rb") as ha, open(resumed.checkpoint_path, "rb") as hr:
        resume_same = ha.read() == hr.read()
    ok = all(same) and resume_same
    _report(
        "determinism-persistence",
        ok,
        f"repeat-run checkpoints identical {same}, resume identical {resume_same}",
    )


# ----------------------------------------------------------------------
# 8. metric oracles
# ----------------------------------------------------------------------
def test_metric_oracles():
    """PSNR/SSIM match direct references on 20 pairs; PSNR monotone in noise."""
    rng = np.random.default_rng(99)
    worst_p = 0.0
    worst_s = 0.0
    for _ in range(20):
        a = rng.random((1, 16, 16))
        b = np.clip(a + 0.1 * rng.normal(size=a.shape), 0, 1)
        worst_p = max(worst_p, abs(psnr(a, b) - psnr_reference(a, b)))
        worst_s = max(worst_s, abs(ssim(a, b) - ssim_reference(a, b)))
    img = rng.random((1, 20, 20))
    noise = rng.normal(size=img.shape)
    scores = [psnr(img, img + amp * noise) for amp in (0.01, 0.02, 0.04)]
    mono = scores[0] > scores[1] > scores[2]
    ok = worst_p < 1e-6 and worst_s < 1e-6 and mono
    _report(
        "metric-oracles",
        ok,
        f"max |psnr err| {worst_p:.2e}, max |ssim err| {worst_s:.2e}, "
        f"monotone {mono}",
    )
