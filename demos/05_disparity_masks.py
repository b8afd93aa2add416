"""Peek at the attention masks: recovered disparity vs the stored field.

Uses the checkpoint from demos/03_train_small.py. Two epochs of the mild
default objective give diffuse masks; see the acceptance suite for a
recipe that locks them onto the true correspondence.
"""

import os
import sys

import numpy as np

from stereosr.data import disparity_sidecar_path, load_frame, read_manifest
from stereosr.imageio import load_disparity, save_image
from stereosr.model import masks_pair, pair_disparity
from stereosr.training import load_checkpoint, restore_model

out = os.environ.get("STEREOSR_OUT_DIR", "demo_out")
manifest = os.path.join(out, "dataset", "manifest.txt")
ckpt = os.path.join(out, "run_small", "ckpt_ep002.bin")
if not (os.path.exists(manifest) and os.path.exists(ckpt)):
    sys.exit("run demos/03_train_small.py first")

params, _, _ = restore_model(load_checkpoint(ckpt))
entry = [e for e in read_manifest(manifest) if e.split == "test"][0]
frame = load_frame(entry, scale=2)

masks = masks_pair(params, frame.lr)
m_rl = masks[1]

recovered = pair_disparity(masks)[0]
truth_hr = load_disparity(disparity_sidecar_path(entry.left_path))
truth_lr = truth_hr[::2, ::2] / 2.0

h, w = recovered.shape
margin = int(truth_lr.max()) + 2
inner = (slice(1, h - 1), slice(margin, w - margin))
agree = np.mean(np.abs(recovered[inner] - truth_lr[inner]) <= 1.0)
print(f"LR mask {m_rl.shape} rows sum to 1: "
      f"{np.allclose(m_rl.sum(-1), 1.0, atol=1e-5)}")
print(f"argmax disparity within 1 px of truth on {agree:.1%} of interior pixels")

gray = (128.0 + 16.0 * recovered) / 255.0
save_image(os.path.join(out, "recovered_disparity.pgm"), gray[None].astype(np.float32))
print("wrote", os.path.join(out, "recovered_disparity.pgm"))
