"""The benchmark's workloads: sr-stream, sr-wide and train-desk.

Each is a closed loop with one client. Inputs come from the run seed and
are written before any timed region; the package is driven only through
its public functions, looked up on their modules at call time so that a
traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

import reference

from stereosr import data, imageio, losses, model, optim, tensor, training

SCALE = 2
# sr set-ups per run; setup_s is their median
SETUPS = 5
SR_MODEL_SEED = 0
# served pairs between switches of the tracer in a traced run
SR_BLOCK = 4
# train-desk: one HR 48x144 train frame gives an LR 24x72 frame, which the
# desk preset (16x48 patches, stride 8) cuts into exactly one batch of 8
TRAIN_FRAME = (48, 144)
TRAIN_VAL_FRAMES = 4
TRAIN_DISPARITY = (2.0, 6.0)
# one-epoch train calls that time the set-up and warm the process up
TRAIN_SETUP_CALLS = 3
# The timed train call runs one epoch (one step) per requested second, at
# least 8: a fixed count keeps the loss log and val PSNR independent of the
# host's speed, and a dozen steps descend too little to clear the noise
# that random flips add to the per-step loss on some seeds.
TRAIN_MIN_EPOCHS = 8
# parameter tensors whose largest-gradient entry is checked by central differences
FD_PARAMS = (
    "extractor.entry.weight",
    "extractor.aspp1.branches.2.weight",
    "attention.query.weight",
    "attention.output.weight",
)
FD_EPS = 1e-6
FD_TOL = 2e-3  # float32 gradient of the run against a float64 difference quotient
PSNR_TOL_DB = 1e-6


@dataclass(frozen=True)
class SrSpec:
    channels: int
    lr_size: Tuple[int, int]
    disparity: Tuple[float, float]  # HR pixels
    pairs: int  # distinct pairs, served round-robin


SR_SPECS = {
    "sr-stream": SrSpec(channels=32, lr_size=(64, 128), disparity=(2.0, 6.0), pairs=16),
    "sr-wide": SrSpec(channels=8, lr_size=(48, 320), disparity=(4.0, 16.0), pairs=16),
}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _check(fn, *args):
    """Run one output check; returns its failure message, or None."""
    try:
        fn(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def _peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _seed_of(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _run_blocks(seconds: float, tracer, run_block):
    """Call ``run_block(traced)`` until about ``seconds`` have passed.

    ``run_block`` returns (items, ops, busy seconds). A traced run
    alternates untraced and traced blocks, so both modes see the same
    drift of the host; its first block warms the process up and is left
    out of both. Returns {traced: [items, ops, busy_s]}.
    """
    totals = {False: [0, 0, 0.0], True: [0, 0, 0.0]}
    start = time.perf_counter()
    blocks = 0
    while True:
        traced = tracer is not None and blocks % 2 == 1
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        counts = run_block(traced)
        if tracer is None or blocks > 0:
            for i, v in enumerate(counts):
                totals[traced][i] += v
        blocks += 1
        elapsed = time.perf_counter() - start
        # stop once the deadline is less than half a mean block away
        if elapsed + 0.5 * elapsed / blocks >= seconds and (tracer is None or blocks >= 3):
            break
    if tracer is not None:
        tracer.uninstall()
    return totals


def _latency_metrics(latencies):
    ms = np.asarray(latencies) * 1e3
    return {
        "latency_p50_ms": (float(np.percentile(ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(ms, 90)), "ms"),
    }


def _trace_metrics(tracer, totals, setups):
    items_u, _, busy_u = totals[False]
    items_t, ops_t, busy_t = totals[True]
    out = tracer.layer_metrics(ops_t, setups)
    rate_u, rate_t = items_u / busy_u, items_t / busy_t
    out["trace.items_per_s"] = (rate_t, "items/s")
    out["trace.untraced_items_per_s"] = (rate_u, "items/s")
    out["trace.overhead_pct"] = (100.0 * (rate_u - rate_t) / rate_u, "%")
    return out


# ----------------------------------------------------------------------
# sr-stream / sr-wide
# ----------------------------------------------------------------------
def _serve(params, paths):
    """One operation: load both LR PGMs, super-resolve, save both SR PGMs."""
    left = imageio.load_image(paths[0])
    right = imageio.load_image(paths[1])
    with tensor.no_grad():
        sr_l, sr_r, m_lr, m_rl = model.super_resolve(
            tensor.Tensor(left[None]), tensor.Tensor(right[None]), params
        )
    imageio.save_image(paths[2], np.clip(sr_l.data[0], 0.0, 1.0))
    imageio.save_image(paths[3], np.clip(sr_r.data[0], 0.0, 1.0))
    return left, right, sr_l.data[0], sr_r.data[0], m_lr.data[0], m_rl.data[0]


def _make_sr_inputs(spec: SrSpec, seed: int, work: str):
    """A seeded model with a live output head, saved as a checkpoint, and LR PGM pairs.

    The model seed is fixed: with random weights the SR quality swings
    with the draw, and the run seed is meant to vary the frames only.
    """
    params = model.init_model(
        np.random.default_rng(_seed_of(SR_MODEL_SEED, 1)), SCALE, spec.channels,
        zero_output=False,
    )
    ckpt_path = os.path.join(work, "model.bin")
    adam = optim.adam_init(optim.named_parameters(params))
    training.save_checkpoint(ckpt_path, params, adam, 0, 0, seed, 0.0)
    lr_h, lr_w = spec.lr_size
    pairs = []
    for k in range(spec.pairs):
        sample, _ = data.synth_stereo(
            _seed_of(seed, 2, k), SCALE * lr_h, SCALE * lr_w, spec.disparity, SCALE
        )
        paths = tuple(os.path.join(work, f"pair{k}_{eye}.pgm") for eye in ("L", "R", "SL", "SR"))
        imageio.save_image(paths[0], sample.lr_left)
        imageio.save_image(paths[1], sample.lr_right)
        pairs.append((paths, sample.hr_left, sample.hr_right))
    return ckpt_path, pairs


def _check_sr(ckpt, first, last, latest, pairs) -> None:
    """First and last pair against the reference; every saved PGM against its output."""
    ref = reference.ReferenceModel(ckpt)
    for out in (first, last):
        reference.check_sr(ref, *out)
    for k, out in latest.items():
        paths = pairs[k][0]
        for path, sr in ((paths[2], out[0]), (paths[3], out[1])):
            _require(
                np.array_equal(reference.read_pgm(path), reference.quantize(sr)[0]),
                f"{path} does not re-read as the clipped, rounded SR output",
            )


def run_sr(name: str, seed: int, seconds: float, tracer, work: str):
    spec = SR_SPECS[name]
    ckpt_path, pairs = _make_sr_inputs(spec, seed, work)

    if tracer is not None:
        tracer.install()
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ckpt = training.load_checkpoint(ckpt_path)
        params, _, _ = training.restore_model(ckpt)
        _serve(params, pairs[0][0])
        setup_times.append(time.perf_counter() - t0)

    # Only the SR images of each pair and the full outputs of the newest op
    # stay in memory, so the benchmark adds little to the peak it reports;
    # the first op's outputs wait on disk for the check.
    latencies, latest = [], {}
    newest = [None]
    first_path = os.path.join(work, "first.npz")

    def block(traced):
        busy = 0.0
        for _ in range(SR_BLOCK):
            n = len(latencies)
            k = n % len(pairs)
            if tracer is not None:
                tracer.op, tracer.phase = n, "op"
            newest[0] = None
            t0 = time.perf_counter()
            if traced:
                with tracer.span("bench.pair"):
                    newest[0] = _serve(params, pairs[k][0])
            else:
                newest[0] = _serve(params, pairs[k][0])
            latencies.append(time.perf_counter() - t0)
            busy += latencies[-1]
            latest[k] = newest[0][2:4]
            if n == 0:
                np.savez(first_path, *newest[0])
        return SR_BLOCK, SR_BLOCK, busy

    totals = _run_blocks(seconds, tracer, block)
    peak = _peak_mib()
    with np.load(first_path) as saved:
        first = tuple(saved[f"arr_{i}"] for i in range(6))
    problem = _check(_check_sr, ckpt, first, newest[0], latest, pairs)
    psnrs = [
        reference.psnr_db(np.clip(sr, 0.0, 1.0), hr)
        for k, out in latest.items()
        for sr, hr in ((out[0], pairs[k][1]), (out[1], pairs[k][2]))
    ]
    served = len(latencies)

    if tracer is not None:
        return served, _trace_metrics(tracer, totals, SETUPS), problem
    items, _, busy = totals[False]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (items / busy, "items/s"),
        **_latency_metrics(latencies),
        "peak_mib": (peak, "MiB"),
        "val_psnr_db": (float(np.mean(psnrs)), "dB"),
    }
    return served, metrics, problem


# ----------------------------------------------------------------------
# train-desk
# ----------------------------------------------------------------------
class StepProbe:
    """Timestamps every optimization step of ``training.train``.

    It also keeps the first batch, the parameters before the first update
    and the gradients of that update, for the finite-difference check.
    """

    def __init__(self):
        self.starts, self.ends = [], []
        self.patches = 0
        self.batch = None
        self.params = None
        self.grads = None

    def install(self) -> None:
        batch_tensors, forward_full, adam_step = (
            training.batch_tensors,
            training.forward_full,
            training.adam_step,
        )

        def probe_batch(samples, *args, **kwargs):
            out = batch_tensors(samples, *args, **kwargs)
            if self.batch is None:
                self.batch = [t.data.copy() for t in out]
            return out

        def probe_forward(lr_left, lr_right, params):
            self.starts.append(time.perf_counter())
            self.patches += lr_left.shape[0]
            return forward_full(lr_left, lr_right, params)

        def probe_adam(named, *args, **kwargs):
            if self.grads is None:
                self.params = [(n, p.data.copy()) for n, p in named]
                self.grads = {n: p.grad.copy() for n, p in named}
            out = adam_step(named, *args, **kwargs)
            self.ends.append(time.perf_counter())
            return out

        training.batch_tensors = probe_batch
        training.forward_full = probe_forward
        training.adam_step = probe_adam


def _check_gradients(probe: StepProbe, cfg) -> None:
    """Float64 central differences of the total loss against the run's first gradients."""
    params = model.init_model(
        np.random.default_rng(0), SCALE, cfg.channels, dtype=np.float64
    )
    named = dict(optim.named_parameters(params))
    for n, values in probe.params:
        named[n].data = values.astype(np.float64)
    lr_l, lr_r, hr_l, hr_r = (tensor.Tensor(a.astype(np.float64)) for a in probe.batch)

    def loss():
        with tensor.no_grad():
            outputs = model.forward_full(lr_l, lr_r, params)
            total, _ = losses.compute_losses(
                outputs, lr_l, lr_r, hr_l, hr_r, cfg.alpha, SCALE, cfg.smooth_diagonal
            )
        return total.item()

    for n in FD_PARAMS:
        grad = probe.grads[n]
        index = np.unravel_index(int(np.argmax(np.abs(grad))), grad.shape)
        numeric = reference.central_difference(loss, named[n].data, index, FD_EPS)
        _require(numeric != 0.0, f"d(total)/d({n}) is zero at the first batch; nothing to check")
        gap = reference.gradient_gap(float(grad[index]), numeric)
        _require(
            gap <= FD_TOL,
            f"d(total)/d({n}{list(index)}): backward {grad[index]:.6g}, "
            f"central difference {numeric:.6g} (relative gap {gap:.3g} > {FD_TOL})",
        )


def _read_csv_rows(path):
    """Numeric rows of a loss or validation log, header skipped."""
    with open(path, "r", encoding="ascii") as fh:
        next(fh)
        return [[float(v) for v in line.split(",")] for line in fh if line.strip()]


def _check_training(result, manifest) -> None:
    """Loss descent over the call, and the logged val PSNR recomputed from its checkpoint."""
    total = np.array([row[1] for row in _read_csv_rows(result.loss_csv)])
    q = len(total) // 4
    _require(
        q >= 1 and total[-q:].mean() < total[:q].mean(),
        f"{result.loss_csv}: mean total loss of the last quarter of steps "
        f"({total[-q:].mean():.6g}) is not below the first ({total[:q].mean():.6g})",
    )
    logged = _read_csv_rows(result.val_csv)[-1][1]
    params, _, _ = training.restore_model(training.load_checkpoint(result.checkpoint_path))
    scores = []
    with tensor.no_grad():
        for frame in data.manifest_frames(manifest, "val", SCALE):
            sr_l, sr_r, _, _ = model.super_resolve(
                tensor.Tensor(frame.lr_left[None]), tensor.Tensor(frame.lr_right[None]), params
            )
            scores.append(reference.psnr_db(sr_l.data[0], frame.hr_left))
            scores.append(reference.psnr_db(sr_r.data[0], frame.hr_right))
    recomputed = float(np.mean(scores))
    _require(
        abs(recomputed - logged) <= PSNR_TOL_DB,
        f"val PSNR of the final checkpoint is {recomputed:.10g} dB, val.csv says {logged:.10g}",
    )


def run_train(seed: int, seconds: float, tracer, work: str):
    """Set-up calls, then one timed train call; a traced run adds a traced twin of it."""
    manifest = data.generate_dataset(
        os.path.join(work, "data"), seed, (1, TRAIN_VAL_FRAMES, 0), *TRAIN_FRAME,
        TRAIN_DISPARITY, SCALE,
    )
    cfg = training.desk_config(manifest=manifest, seed=seed)
    epochs = max(TRAIN_MIN_EPOCHS, round(seconds))
    probe = StepProbe()
    probe.install()

    # one train call: (result, seconds to the end of its first step, later step
    # latencies, patches, steps, busy seconds)
    def call(name, n_epochs):
        n0, p0 = len(probe.ends), probe.patches
        t0 = time.perf_counter()
        result = training.train(replace(cfg, epochs=n_epochs, out_dir=os.path.join(work, name)))
        busy = time.perf_counter() - t0
        starts, ends = probe.starts[n0:], probe.ends[n0:]
        steps = [e - s for s, e in zip(starts[1:], ends[1:])]
        return result, ends[0] - t0, steps, probe.patches - p0, len(ends), busy

    setup_times = [call(f"setup{k}", 1)[1] for k in range(TRAIN_SETUP_CALLS)]
    result, setup, latencies, patches, steps, busy = call("train", epochs)
    setup_times.append(setup)
    timed = [result]
    if tracer is not None:
        tracer.install()
        tracer.op, tracer.phase = 0, "op"
        traced = call("traced", epochs)
        tracer.uninstall()
        timed.append(traced[0])
    peak = _peak_mib()
    problem = _check(_check_gradients, probe, cfg)
    for res in timed:
        problem = problem or _check(_check_training, res, manifest)

    if tracer is not None:
        totals = {False: [patches, steps, busy], True: list(traced[3:])}
        return steps + traced[4], _trace_metrics(tracer, totals, 1), problem
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (patches / busy, "items/s"),
        **_latency_metrics(latencies),
        "peak_mib": (peak, "MiB"),
        "val_psnr_db": (_read_csv_rows(result.val_csv)[-1][1], "dB"),
    }
    return steps, metrics, problem


def run(name: str, seed: int, seconds: float, tracer, work: str):
    """Run one workload; returns (attempted, metrics, failed check message or None)."""
    if name == "train-desk":
        return run_train(seed, seconds, tracer, work)
    return run_sr(name, seed, seconds, tracer, work)
