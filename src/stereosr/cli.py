"""Command-line surface: data generation, training, evaluation, inference.

Subcommands: gen-data, train, eval, sr, dump-masks, gradcheck.
Exit codes: 0 success, 1 runtime failure (message on stderr), 2 usage.
The STEREOSR_OUT_DIR environment variable overrides the configured
output directory unless --out-dir is given explicitly.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import training
from .data import SCALES, generate_dataset
from .gradcheck import full_model_gradcheck
from .imageio import load_image, save_image
from .metrics import evaluate
from .model import masks_pair, pair_disparity, sr_pair

OUT_DIR_ENV = "STEREOSR_OUT_DIR"


def _parse_values(text: str, caster, flag: str, example: str):
    """The values of ``flag``, as many as ``example`` holds, split at 'x' or ','."""
    want = len(example.replace("x", ",").split(","))
    parts = text.split("x" if "x" in text else ",")
    try:
        if len(parts) == want:
            return tuple(caster(part) for part in parts)
    except ValueError:
        pass
    raise ValueError(f"{flag} expects {want} values like {example}, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereosr",
        description="Disparity-constrained stereo super-resolution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render a synthetic stereo dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", default="6,2,2", help="train,val,test frame counts")
    p.add_argument("--size", default="128x256", help="HR frame size HxW")
    p.add_argument("--disparity", default="2,6", help="min,max disparity in HR pixels")
    p.add_argument("--scale", type=int, default=2, choices=SCALES)
    p.add_argument("--channels", type=int, default=1, choices=(1, 3))

    p = sub.add_parser("train", help="run the optimization loop")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--desk", action="store_true", help="start from the desk-scale preset")
    for f in dataclasses.fields(training.TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, default=None)

    p = sub.add_parser("eval", help="score a method over a manifest split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--scale", type=int, default=2, choices=SCALES)
    p.add_argument("--method", default="bicubic", choices=("bicubic", "model"))
    p.add_argument("--checkpoint", help="required for --method model")
    p.add_argument("--csv", help="report path (default: <out>/eval_<method>.csv)")

    # the flags of the commands that run a checkpoint on one LR pair
    pair = argparse.ArgumentParser(add_help=False)
    for flag in ("--checkpoint", "--left", "--right", "--out-left", "--out-right"):
        pair.add_argument(flag, required=True)
    sub.add_parser("sr", parents=[pair], help="super-resolve one LR stereo pair")
    p = sub.add_parser("dump-masks", parents=[pair], help="write argmax-disparity images per eye")
    p.add_argument("--gain", type=float, default=8.0, help="gray levels per pixel of disparity")

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--scale", type=int, default=2, choices=SCALES)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--patch", default="6x12", help="LR patch size HxW")
    p.add_argument("--seed", type=int, default=115)
    p.add_argument("--alpha", type=float, default=0.005)
    p.add_argument("--eps", type=float, default=1e-4, help="larger of the two steps, eps and eps/10")
    p.add_argument("--tolerance", type=float, default=1e-3)

    return parser


def _cmd_gen_data(args) -> int:
    counts = _parse_values(args.frames, int, "--frames", "6,2,2")
    h, w = _parse_values(args.size, int, "--size", "128x256")
    d_min, d_max = _parse_values(args.disparity, float, "--disparity", "2,6")
    manifest = generate_dataset(
        args.out, args.seed, counts, h, w, (d_min, d_max), args.scale, args.channels
    )
    print(f"wrote manifest {manifest}")
    return 0


def _cmd_train(args) -> int:
    cfg = training.desk_config() if args.desk else training.TrainConfig()
    if args.config:
        cfg = training.apply_config(cfg, training.read_config_file(args.config))
    overrides = {}
    for f in dataclasses.fields(training.TrainConfig):
        value = getattr(args, f.name)
        if value is not None:
            overrides[f.name] = value
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out and "out_dir" not in overrides:
        overrides["out_dir"] = env_out
    cfg = training.apply_config(cfg, {k: str(v) for k, v in overrides.items()})
    result = training.train(cfg, resume=args.resume, log=print)
    print(f"final checkpoint: {result.checkpoint_path}")
    print(f"loss log: {result.loss_csv}")
    return 0


def _cmd_eval(args) -> int:
    params = None
    if args.method == "model":
        if not args.checkpoint:
            raise ValueError("--method model requires --checkpoint")
        params, _, _ = training.restore_checkpoint(args.checkpoint)
        if params.scale != args.scale:
            raise ValueError(
                f"checkpoint was trained at scale {params.scale}, asked for {args.scale}"
            )
    csv_path = args.csv
    if csv_path is None:
        base = os.environ.get(OUT_DIR_ENV, ".")
        os.makedirs(base, exist_ok=True)
        csv_path = os.path.join(base, f"eval_{args.method}.csv")
    report = evaluate(
        args.manifest, args.split, args.scale, args.method, params, csv_path
    )
    print(
        f"{args.method} on {args.split}: mean PSNR {report.mean_psnr:.3f} dB, "
        f"mean SSIM {report.mean_ssim:.5f} ({csv_path})"
    )
    return 0


def _run_on_pair(args, model_fn, what: str) -> np.ndarray:
    """model_fn(params, lr) for the --checkpoint model on the [2,C,h,w] LR pair
    named by --left/--right. The result is checked before anything is
    written: finite weights can still overflow, and a NaN would be written
    as black or read as disparity 0."""
    params, _, _ = training.restore_checkpoint(args.checkpoint)
    left = load_image(args.left)
    right = load_image(args.right)
    if left.shape != right.shape:
        raise ValueError(
            f"stereo pair shapes differ: left {left.shape} vs right {right.shape}"
        )
    if left.shape[0] != params.img_channels:
        raise ValueError(
            f"model expects {params.img_channels}-channel images, got {left.shape[0]}"
        )
    values = model_fn(params, np.stack([left, right]))
    if not np.all(np.isfinite(values)):
        raise ValueError(
            f"{args.checkpoint}: the model gives non-finite {what} for this pair; "
            "its weights overflow"
        )
    return values


def _write_pair(args, images) -> int:
    for path, image in zip((args.out_left, args.out_right), images):
        save_image(path, image)
    print(f"wrote {args.out_left} and {args.out_right}")
    return 0


def _cmd_sr(args) -> int:
    return _write_pair(args, _run_on_pair(args, sr_pair, "SR images"))


def _cmd_dump_masks(args) -> int:
    if not np.isfinite(args.gain):
        raise ValueError(f"--gain must be finite, got {args.gain}")
    disps = pair_disparity(_run_on_pair(args, masks_pair, "masks"))
    gray = (128.0 + args.gain * disps[:, None]) / 255.0
    return _write_pair(args, gray.astype(np.float32))


def _cmd_gradcheck(args) -> int:
    for flag, value in (("--eps", args.eps), ("--tolerance", args.tolerance)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{flag} must be finite and positive, got {value}")
    if not np.isfinite(args.alpha):
        raise ValueError(f"--alpha must be finite, got {args.alpha}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    patch_h, patch_w = _parse_values(args.patch, int, "--patch", "6x12")
    report = full_model_gradcheck(
        scale=args.scale,
        channels=args.channels,
        patch_h=patch_h,
        patch_w=patch_w,
        seed=args.seed,
        alpha=args.alpha,
        eps=args.eps,
    )
    worst = max(report, key=report.get)
    max_err = report[worst]
    print(f"checked {len(report)} parameter tensors")
    print(f"max relative error {max_err:.3e} (parameter {worst})")
    if max_err < args.tolerance:
        print(f"PASS (< {args.tolerance:g})")
        return 0
    print(f"FAIL (>= {args.tolerance:g})")
    return 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sr": _cmd_sr,
    "dump-masks": _cmd_dump_masks,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
