"""Score the trained model against the bicubic baseline and write SR images.

Run demos/03_train_small.py first (it leaves a dataset and checkpoint in
the demo output directory).
"""

import os
import sys

import numpy as np

from stereosr.data import bicubic_resize, degrade
from stereosr.imageio import load_image, save_image
from stereosr.metrics import evaluate
from stereosr.model import sr_pair
from stereosr.training import load_checkpoint, restore_model

out = os.environ.get("STEREOSR_OUT_DIR", "demo_out")
manifest = os.path.join(out, "dataset", "manifest.txt")
ckpt = os.path.join(out, "run_small", "ckpt_ep002.bin")
if not (os.path.exists(manifest) and os.path.exists(ckpt)):
    sys.exit("run demos/03_train_small.py first")

params, _, _ = restore_model(load_checkpoint(ckpt))

base = evaluate(manifest, "test", 2, "bicubic", csv_path=os.path.join(out, "eval_bicubic.csv"))
model = evaluate(manifest, "test", 2, "model", params=params,
                 csv_path=os.path.join(out, "eval_model.csv"))
print(f"bicubic : {base.mean_psnr:.3f} dB  SSIM {base.mean_ssim:.5f}")
print(f"model   : {model.mean_psnr:.3f} dB  SSIM {model.mean_ssim:.5f}")
print(f"gain    : {model.mean_psnr - base.mean_psnr:+.3f} dB after 2 epochs")

# side-by-side panel for one test frame: LR (upscaled) | model SR | ground truth
left = load_image(os.path.join(out, "dataset", "test_000_L.pgm"))
right = load_image(os.path.join(out, "dataset", "test_000_R.pgm"))
lr = degrade(np.stack([left, right]), 2)
sr = sr_pair(params, lr)
panel = np.concatenate(
    [bicubic_resize(lr[0], *left.shape[1:]), sr[0], left], axis=2
)
save_image(os.path.join(out, "panel_bicubic_sr_hr.pgm"), panel)
print("wrote", os.path.join(out, "panel_bicubic_sr_hr.pgm"))
