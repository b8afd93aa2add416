"""Dump a checkout's model outputs, or compare two dumps byte for byte.

    PYTHONPATH=src python3 tools/compare_outputs.py dump OUT.npz
    python3 tools/compare_outputs.py compare A.npz B.npz

``dump`` imports ``stereosr`` from PYTHONPATH, so point it at the ``src``
of the checkout to dump; the script itself may come from another one. It
pins BLAS to one thread before numpy loads, as the test suite and the
benchmark do, because the thread count can change the last bit of a
float32 sum. It writes, as one .npz file:

  * ``sr_pair`` and ``masks_pair`` of two LR pairs each, for a 32-channel
    model on 64x128 and an 8-channel model on 48x320;
  * one training step each in float32 and float64, at x2 batch 8 and x4
    batch 2 on 16x48 LR patches (8 channels), and on one 30x90 patch at
    x2 (32 channels): both SR images, both mask pairs, every loss term and
    the gradient of every parameter.

Weights are drawn with a random output conv, so every loss term reaches
every parameter. ``compare`` lists each array whose dtype, shape or bytes
differ, or that only one file holds, and exits 1 if there is any.
"""

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# (channels, LR height, LR width) of the served pairs, two pairs each
SERVE_CASES = ((32, 64, 128), (8, 48, 320))
# (name, scale, batch, channels, LR patch height, LR patch width) of the steps
STEP_CASES = (
    ("x2_b8", 2, 8, 8, 16, 48),
    ("x4_b2", 4, 2, 8, 16, 48),
    ("x2_full", 2, 1, 32, 30, 90),
)
ALPHA = 0.005

# stereosr is imported inside the dump functions only: compare needs no
# checkout on PYTHONPATH.


def _model(channels, scale, dtype):
    from stereosr.model import init_model

    return init_model(np.random.default_rng(channels), scale, channels, 1, dtype, zero_output=False)


def _samples(count, scale, h, w, seed):
    from stereosr.data import synth_stereo

    return [
        synth_stereo(seed + i, h * scale, w * scale, (1.0, 3.0), scale)[0] for i in range(count)
    ]


def _serve_arrays():
    from stereosr.model import masks_pair, sr_pair

    arrays = {}
    for channels, h, w in SERVE_CASES:
        params = _model(channels, 2, np.float32)
        for i, sample in enumerate(_samples(2, 2, h, w, seed=10)):
            key = f"serve/c{channels}_{h}x{w}/pair{i}"
            arrays[f"{key}/sr_pair"] = sr_pair(params, sample.lr)
            arrays[f"{key}/masks_pair"] = masks_pair(params, sample.lr)
    return arrays


def _step_arrays():
    from stereosr.losses import LOSS_COLUMNS, compute_losses
    from stereosr.model import batch_tensors, forward_full
    from stereosr.optim import named_parameters

    arrays = {}
    for dtype in (np.float32, np.float64):
        for name, scale, batch, channels, h, w in STEP_CASES:
            key = f"step/{np.dtype(dtype).name}/{name}"
            params = _model(channels, scale, dtype)
            lr_l, lr_r, hr_l, hr_r = batch_tensors(_samples(batch, scale, h, w, seed=20), dtype)
            out = forward_full(lr_l, lr_r, params)
            total, breakdown = compute_losses(out, lr_l, lr_r, hr_l, hr_r, ALPHA, scale)
            total.backward()
            for field in ("sr_left", "sr_right", "masks_lr", "masks_sr"):
                arrays[f"{key}/{field}"] = getattr(out, field).data
            arrays[f"{key}/loss/total_tensor"] = total.data
            for column in LOSS_COLUMNS:
                arrays[f"{key}/loss/{column}"] = np.float64(getattr(breakdown, column))
            for pname, p in named_parameters(params):
                arrays[f"{key}/grad/{pname}"] = p.grad
    return arrays


def dump(path: str) -> int:
    import stereosr

    arrays = {**_serve_arrays(), **_step_arrays()}
    np.savez(path, **arrays)
    print(f"wrote {len(arrays)} arrays from {os.path.dirname(stereosr.__file__)} to {path}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    differ = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            differ.append(f"{key}: only in {path_a if key in a else path_b}")
        elif a[key].dtype != b[key].dtype:
            differ.append(f"{key}: dtype {a[key].dtype} vs {b[key].dtype}")
        elif a[key].shape != b[key].shape:
            differ.append(f"{key}: shape {a[key].shape} vs {b[key].shape}")
        elif a[key].tobytes() != b[key].tobytes():
            diff = np.abs(a[key].astype(np.float64) - b[key].astype(np.float64))
            differ.append(f"{key}: bytes differ, max abs difference {np.nanmax(diff):.3g}")
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(a.keys() | b.keys())} arrays differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump", help="write this checkout's arrays").add_argument("out")
    p = sub.add_parser("compare", help="list the arrays that differ")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    return dump(args.out) if args.command == "dump" else compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
