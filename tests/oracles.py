"""Independent reference implementations shared by the test modules."""

import numpy as np

from stereosr import tensor as T


def lone_eye_warp(mask, image):
    """One eye's row warp, the reference for ``model.warp``'s pair: one
    ``batch_matmul`` of the [N,H,W,W] mask as [N*H,W,W] rows by the [N,C,H,W]
    image as [N*H,W,C] rows. Tensors in and out."""
    n, c, h, w = image.shape
    rows = image.transpose(0, 2, 3, 1).reshape(n * h, w, c)
    out = T.batch_matmul(mask.reshape(n * h, w, w), rows)
    return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def psnr_reference(a, b, peak=1.0):
    mse = np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2)
    if mse == 0:
        return np.inf
    return 10.0 * np.log10(peak * peak / mse)


def ssim_reference(a, b, peak=1.0):
    """Direct sliding-window SSIM, one window position at a time."""
    win = 11
    sigma = 1.5
    xs = np.arange(win) - (win - 1) / 2
    g = np.exp(-(xs**2) / (2 * sigma**2))
    w2d = np.outer(g, g)
    w2d /= w2d.sum()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    vals = []
    for ch in range(a.shape[0]):
        x, y = a[ch], b[ch]
        h, w = x.shape
        for i in range(h - win + 1):
            for j in range(w - win + 1):
                px = x[i : i + win, j : j + win]
                py = y[i : i + win, j : j + win]
                mx = (w2d * px).sum()
                my = (w2d * py).sum()
                vx = (w2d * px * px).sum() - mx * mx
                vy = (w2d * py * py).sum() - my * my
                vxy = (w2d * px * py).sum() - mx * my
                vals.append(
                    ((2 * mx * my + c1) * (2 * vxy + c2))
                    / ((mx * mx + my * my + c1) * (vx + vy + c2))
                )
    return float(np.mean(vals))


# byte values written by the corruption sweeps, besides one flipped bit
CORRUPT_BYTES = (0x00, 0xFF, ord("9"), ord(" "))


def corrupted(blob, positions):
    """Yield (position, copy of blob with one byte overwritten) per corruption.

    Each position is overwritten with 0x00, 0xFF, '9', ' ' and with its
    own value with bit (position % 8) flipped; values equal to the original
    byte are skipped.
    """
    for i in positions:
        flipped = blob[i] ^ (1 << (i % 8))
        for value in dict.fromkeys(CORRUPT_BYTES + (flipped,)):
            if value != blob[i]:
                out = bytearray(blob)
                out[i] = value
                yield i, bytes(out)


def checkpoint_sweep_positions(blob, head_limit=600):
    """Byte positions of a checkpoint that the corruption sweeps overwrite.

    These are the 12-byte header, the length, name, rank and shape bytes
    of every record that starts within the first head_limit bytes, and
    every byte of the trailing meta.* records.
    """
    positions = list(range(12))
    at = 12
    meta_start = None
    while at < len(blob):
        n = int(np.frombuffer(blob, "<u4", 1, at)[0])
        name = blob[at + 4 : at + 4 + n].decode("ascii")
        rank = int(np.frombuffer(blob, "<u4", 1, at + 4 + n)[0])
        shape = np.frombuffer(blob, "<u4", rank, at + 8 + n)
        head_end = at + 8 + n + 4 * rank
        if name.startswith("meta.") and meta_start is None:
            meta_start = at
        if at < head_limit:
            positions.extend(p for p in range(at, head_end) if p < head_limit)
        at = head_end + 4 * int(np.prod(shape))
    return positions + list(range(meta_start, len(blob)))
