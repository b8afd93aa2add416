"""Training loop, run configuration, and binary checkpointing.

Reproducibility scheme: every random stream is derived from the run seed
plus a fixed purpose tag (init / shuffle / augment) and, where relevant,
the epoch index. Checkpoints therefore only need counters and the seed to
resume bit-identically at any epoch boundary.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .data import SCALES, augment, manifest_frames, manifest_patches
from .imageio import read_exact
from .losses import CSV_HEADER, compute_losses
from .metrics import psnr, ssim
from .model import (
    ModelParams,
    batch_tensors,
    forward_full,
    init_model,
    super_resolve,
)
from .optim import AdamState, adam_init, adam_step, lr_schedule, named_parameters, zero_grads
from .tensor import Tensor, no_grad

# purpose tags for derived RNG streams
_RNG_INIT = 0
_RNG_SHUFFLE = 1
_RNG_AUGMENT = 2


@dataclass
class TrainConfig:
    """Hyperparameters and paths for one training run.

    Defaults encode the full-size recipe; :func:`desk_config` returns the
    small configuration the test suite trains in minutes on a CPU. The
    optimiser constants and the halving period of the learning rate are
    fixed in :mod:`stereosr.optim`, and the image channel count is that of
    the training frames.
    """

    scale: int = 2
    alpha: float = 0.005
    lr0: float = 2e-4
    epochs: int = 80
    batch: Optional[int] = None  # 8 at scale 2, 4 at scale 4
    seed: int = 0
    patch_h: int = 30
    patch_w: int = 90
    stride: int = 20
    channels: int = 32
    manifest: str = ""
    out_dir: str = "runs/default"
    checkpoint_every: int = 10
    smooth_diagonal: bool = True

    def resolved_batch(self) -> int:
        if self.batch is not None:
            return self.batch
        return 8 if self.scale == 2 else 4

    def validate(self) -> None:
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {self.scale}")
        positive = (
            ("alpha", 0 <= self.alpha < math.inf),
            ("lr0", 0 < self.lr0 < math.inf),
            ("epochs", self.epochs > 0),
            ("batch", self.resolved_batch() >= 1),
            ("patch_h", self.patch_h > 0),
            ("patch_w", self.patch_w > 0),
            ("stride", self.stride > 0),
            ("channels", self.channels > 0),
            ("checkpoint_every", self.checkpoint_every > 0),
        )
        for name, ok in positive:
            if not ok:
                raise ValueError(f"config field '{name}' out of range")


def desk_config(**overrides) -> TrainConfig:
    """Small-footprint preset used by the acceptance runs."""
    cfg = TrainConfig(
        epochs=10,
        patch_h=16,
        patch_w=48,
        stride=8,
        channels=8,
        checkpoint_every=5,
    )
    return replace(cfg, **overrides)


_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def read_config_file(path: str) -> Dict[str, str]:
    """Flat key=value config format; '#' starts a comment."""
    out: Dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def apply_config(cfg: TrainConfig, values: Dict[str, str]) -> TrainConfig:
    """Overlay string key=value pairs onto a config, parsing per field type."""
    valid = {f.name: f for f in fields(TrainConfig)}
    updates = {}
    for key, raw in values.items():
        if key not in valid:
            raise ValueError(f"unknown config key '{key}'")
        kind = int if key == "batch" else type(getattr(TrainConfig, key))
        if key == "batch" and raw.lower() in ("", "none", "auto"):
            updates[key] = None
        elif kind is bool:
            if raw.lower() not in _BOOL_STRINGS:
                raise ValueError(f"config key '{key}' expects a boolean, got {raw!r}")
            updates[key] = _BOOL_STRINGS[raw.lower()]
        elif kind in (int, float):
            try:
                updates[key] = kind(raw)
            except ValueError:
                expects = "an integer" if kind is int else "a number"
                raise ValueError(f"config key '{key}' expects {expects}, got {raw!r}") from None
        else:
            updates[key] = raw
    return replace(cfg, **updates)


# ----------------------------------------------------------------------
# checkpoint format
# ----------------------------------------------------------------------
CKPT_MAGIC = b"SSRCKPT\x00"
CKPT_VERSION = 1
# counts travel as float32 records, which hold every integer only up to
# 2**24; restore_model rejects larger ones
_COUNT_MAX = 1 << 24


def _write_record(fh, name: str, arr: np.ndarray) -> None:
    data = np.ascontiguousarray(arr, dtype="<f4")
    name_b = name.encode("ascii")
    fh.write(np.array([len(name_b)], dtype="<u4").tobytes())
    fh.write(name_b)
    fh.write(np.array([data.ndim], dtype="<u4").tobytes())
    fh.write(np.array(data.shape, dtype="<u4").tobytes())
    fh.write(data.tobytes())


def _seed_limbs(seed: int) -> np.ndarray:
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.array([(seed >> (16 * k)) & 0xFFFF for k in range(4)], dtype="<f4")


def _limbs_seed(limbs: List[int]) -> int:
    return sum(v << (16 * k) for k, v in enumerate(limbs))


def save_checkpoint(
    path: str,
    params: ModelParams,
    adam: AdamState,
    epochs_done: int,
    global_step: int,
    seed: int,
    alpha: float,
) -> None:
    """Versioned binary dump of parameters, Adam moments, and counters."""
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(np.array([CKPT_VERSION], dtype="<u4").tobytes())
        for name, p in named_parameters(params):
            _write_record(fh, f"param.{name}", p.data)
        for name, m in adam.m.items():
            _write_record(fh, f"adam.m.{name}", m)
        for name, v in adam.v.items():
            _write_record(fh, f"adam.v.{name}", v)
        meta = {
            "meta.epochs_done": np.array([epochs_done], dtype="<f4"),
            "meta.global_step": np.array([global_step], dtype="<f4"),
            "meta.adam_t": np.array([adam.t], dtype="<f4"),
            "meta.seed": _seed_limbs(seed),
            "meta.alpha": np.array([alpha], dtype="<f4"),
            "meta.scale": np.array([params.scale], dtype="<f4"),
            "meta.channels": np.array([params.channels], dtype="<f4"),
            "meta.img_channels": np.array([params.img_channels], dtype="<f4"),
            # the head always adds the bicubic upsample; readers check this
            "meta.global_residual": np.array([1.0], dtype="<f4"),
        }
        for name, arr in meta.items():
            _write_record(fh, name, arr)


def load_checkpoint(path: str) -> Dict[str, np.ndarray]:
    """Read a checkpoint back into an ordered {record name: float32 array}.

    Raises ValueError naming the record being read on a short file.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    out: Dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            return read_exact(fh, path, n, f"in {what} of the checkpoint")

        def read_u4(count: int, what: str) -> List[int]:
            return np.frombuffer(read(4 * count, what), dtype="<u4").tolist()

        magic = read(len(CKPT_MAGIC), "the header")
        if magic != CKPT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        (version,) = read_u4(1, "the header")
        if version != CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        name = None
        while fh.tell() < size:
            what = "the first record" if name is None else f"the record after '{name}'"
            (name_len,) = read_u4(1, what)
            try:
                name = read(name_len, what).decode("ascii")
            except UnicodeDecodeError:
                raise ValueError(
                    f"{path}: {what} of the checkpoint has a non-ASCII name"
                ) from None
            what = f"record '{name}'"
            (rank,) = read_u4(1, what)
            shape = tuple(read_u4(rank, what))
            payload = read(4 * math.prod(shape), what)
            out[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    return out


def _record(ckpt: Dict[str, np.ndarray], key: str, shape: Tuple[int, ...]) -> np.ndarray:
    if key not in ckpt:
        raise ValueError(f"checkpoint missing record '{key}'")
    if ckpt[key].shape != shape:
        raise ValueError(
            f"checkpoint record '{key}' has shape {ckpt[key].shape}, expected {shape}"
        )
    if not np.all(np.isfinite(ckpt[key])):
        raise ValueError(f"checkpoint record '{key}' holds non-finite values")
    return ckpt[key]


def restore_model(ckpt: Dict[str, np.ndarray]) -> Tuple[ModelParams, AdamState, Dict[str, float]]:
    """Rebuild model params and optimizer state from a loaded checkpoint.

    Raises ValueError for a missing, misshapen or non-finite record, or a
    meta value out of range. The model extents are checked against the
    entry conv's weight before any parameter is allocated.
    """

    def scalar(key: str) -> float:
        return float(_record(ckpt, f"meta.{key}", (1,))[0])

    def integers(key: str, size: int, low: int, high: int) -> List[int]:
        values = _record(ckpt, f"meta.{key}", (size,)).tolist()
        if not all(math.isfinite(v) and v.is_integer() and low <= v <= high for v in values):
            raise ValueError(
                f"checkpoint record 'meta.{key}' holds {values}, "
                f"expected integers in [{low}, {high}]"
            )
        return [int(v) for v in values]

    def count(key: str, low: int = 0) -> int:
        return integers(key, 1, low, _COUNT_MAX)[0]

    meta = {
        "epochs_done": count("epochs_done"),
        "global_step": count("global_step"),
        "adam_t": count("adam_t"),
        "seed": _limbs_seed(integers("seed", 4, 0, 0xFFFF)),
        "alpha": scalar("alpha"),
        "scale": count("scale"),
        "channels": count("channels", 1),
        "img_channels": count("img_channels", 1),
    }
    if meta["scale"] not in SCALES:
        raise ValueError(
            f"checkpoint record 'meta.scale' holds {meta['scale']}, expected one of {SCALES}"
        )
    if scalar("global_residual") != 1.0:
        raise ValueError(
            "checkpoint record 'meta.global_residual' is not 1: "
            "only the bicubic-residual head is supported"
        )
    entry = "param.extractor.entry.weight"
    if entry not in ckpt:
        raise ValueError(f"checkpoint missing record '{entry}'")
    if ckpt[entry].shape[:2] != (meta["channels"], meta["img_channels"]):
        raise ValueError(
            f"checkpoint record '{entry}' has shape {ckpt[entry].shape}, but "
            f"meta.channels and meta.img_channels are "
            f"{meta['channels']} and {meta['img_channels']}"
        )
    params = init_model(
        np.random.default_rng(0),
        scale=meta["scale"],
        channels=meta["channels"],
        img_channels=meta["img_channels"],
    )
    adam = AdamState(t=meta["adam_t"])
    for name, p in named_parameters(params):
        p.data = _record(ckpt, f"param.{name}", p.data.shape).astype(np.float32)
        adam.m[name] = _record(ckpt, f"adam.m.{name}", p.data.shape).astype(np.float32)
        adam.v[name] = _record(ckpt, f"adam.v.{name}", p.data.shape).astype(np.float32)
    return params, adam, meta


def restore_checkpoint(path: str) -> Tuple[ModelParams, AdamState, Dict[str, float]]:
    """``restore_model(load_checkpoint(path))``; a bad record's error names the file."""
    ckpt = load_checkpoint(path)
    try:
        return restore_model(ckpt)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------
# training loop
# ----------------------------------------------------------------------
@dataclass
class TrainResult:
    checkpoint_path: str
    loss_csv: str
    val_csv: str
    epochs_done: int
    global_step: int


def _derived_rng(seed: int, purpose: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, purpose, *extra]))


def _validate_metrics(params: ModelParams, frames) -> Tuple[float, float]:
    ps, ss = [], []
    with no_grad():
        for frame in frames:
            sr_l, sr_r, _, _ = super_resolve(Tensor(frame.lr[:1]), Tensor(frame.lr[1:]), params)
            for sr, hr in zip((sr_l.data[0], sr_r.data[0]), frame.hr):
                ps.append(psnr(sr, hr))
                ss.append(ssim(sr, hr))
    return float(np.mean(ps)), float(np.mean(ss))


def train(
    cfg: TrainConfig,
    resume: Optional[str] = None,
    log=None,
) -> TrainResult:
    """Run the optimization loop; returns paths of the final artifacts.

    Aborts with FloatingPointError if the total loss goes non-finite,
    leaving the last epoch checkpoint on disk.
    """
    cfg.validate()
    if not cfg.manifest:
        raise ValueError("config field 'manifest' is required")
    os.makedirs(cfg.out_dir, exist_ok=True)
    batch = cfg.resolved_batch()

    patches = manifest_patches(
        cfg.manifest, "train", cfg.scale, cfg.patch_h, cfg.patch_w, cfg.stride
    )
    if not patches:
        raise ValueError("train split produced no patches")
    val_frames = manifest_frames(cfg.manifest, "val", cfg.scale)
    img_channels = patches[0].lr.shape[1]

    if resume:
        params, adam, meta = restore_checkpoint(resume)
        # seed and alpha as the checkpoint stores them
        run = dict(
            scale=cfg.scale, channels=cfg.channels, img_channels=img_channels,
            seed=cfg.seed & 0xFFFFFFFFFFFFFFFF, alpha=float(np.float32(cfg.alpha)),
        )
        differ = [f"{k} {meta[k]} vs {v}" for k, v in run.items() if meta[k] != v]
        if differ:
            raise ValueError(
                f"{resume} does not match this run (checkpoint vs run): {', '.join(differ)}"
            )
        start_epoch = meta["epochs_done"]
        global_step = meta["global_step"]
    else:
        params = init_model(
            _derived_rng(cfg.seed, _RNG_INIT),
            scale=cfg.scale,
            channels=cfg.channels,
            img_channels=img_channels,
        )
        adam = adam_init(named_parameters(params))
        start_epoch = 0
        global_step = 0

    named = list(named_parameters(params))
    loss_csv = os.path.join(cfg.out_dir, "loss.csv")
    val_csv = os.path.join(cfg.out_dir, "val.csv")
    mode = "a" if resume else "w"
    loss_fh = open(loss_csv, mode, encoding="ascii")
    val_fh = open(val_csv, mode, encoding="ascii")
    # a new or empty log gets its header, a resumed run's log too
    for fh, header in ((loss_fh, CSV_HEADER), (val_fh, "epoch,psnr_db,ssim")):
        if fh.tell() == 0:
            fh.write(header + "\n")

    last_ckpt = resume or "<none>"
    ckpt_path = last_ckpt
    try:
        for epoch in range(start_epoch, cfg.epochs):
            lr = lr_schedule(epoch, cfg.lr0)
            order = _derived_rng(cfg.seed, _RNG_SHUFFLE, epoch).permutation(len(patches))
            aug_rng = _derived_rng(cfg.seed, _RNG_AUGMENT, epoch)
            epoch_total = 0.0
            n_steps = 0
            for b0 in range(0, len(order), batch):
                samples = [augment(patches[i], aug_rng) for i in order[b0 : b0 + batch]]
                lr_l, lr_r, hr_l, hr_r = batch_tensors(samples)
                outputs = forward_full(lr_l, lr_r, params)
                total, breakdown = compute_losses(
                    outputs, lr_l, lr_r, hr_l, hr_r,
                    cfg.alpha, cfg.scale, cfg.smooth_diagonal,
                )
                if not np.isfinite(breakdown.total):
                    raise FloatingPointError(
                        f"training diverged at step {global_step} "
                        f"(total={breakdown.total}); last good checkpoint: {last_ckpt}"
                    )
                zero_grads(params)
                total.backward()
                adam_step(named, adam, lr)
                loss_fh.write(breakdown.csv_row(global_step) + "\n")
                epoch_total += breakdown.total
                global_step += 1
                n_steps += 1
            loss_fh.flush()

            if val_frames:
                vp, vs = _validate_metrics(params, val_frames)
                val_fh.write(f"{epoch},{vp:.10g},{vs:.10g}\n")
                val_fh.flush()
            if log:
                log(
                    f"epoch {epoch}: lr={lr:.3g} "
                    f"mean_total={epoch_total / max(n_steps, 1):.6g}"
                )

            if (epoch + 1) % cfg.checkpoint_every == 0 or epoch + 1 == cfg.epochs:
                ckpt_path = os.path.join(cfg.out_dir, f"ckpt_ep{epoch + 1:03d}.bin")
                save_checkpoint(
                    ckpt_path, params, adam, epoch + 1, global_step, cfg.seed, cfg.alpha
                )
                last_ckpt = ckpt_path
    finally:
        loss_fh.close()
        val_fh.close()

    return TrainResult(
        checkpoint_path=ckpt_path,
        loss_csv=loss_csv,
        val_csv=val_csv,
        epochs_done=cfg.epochs,
        global_step=global_step,
    )
