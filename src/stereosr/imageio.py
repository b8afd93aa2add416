"""Binary Netpbm raster IO and the float disparity sidecar format.

Images travel through the package as float arrays in [0, 1] with shape
[C, H, W]; on disk they are 8-bit PGM (P5, grayscale) or PPM (P6, RGB)
with maxval 255. Disparity fields are stored as a flat little-endian
float32 raster behind an 8-byte header of two uint32 extents (H then W).
"""

from __future__ import annotations

import os

import numpy as np

_MAXVAL = 255


def save_image(path: str, image: np.ndarray) -> None:
    """Write a [C,H,W] float array in [0,1] as binary PGM (C=1) or PPM (C=3)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] not in (1, 3):
        raise ValueError(
            f"save_image expects [C,H,W] with C in {{1,3}}, got shape {image.shape}"
        )
    c, h, w = image.shape
    quantized = np.rint(np.clip(image, 0.0, 1.0) * _MAXVAL).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    header = magic + f"\n{w} {h}\n{_MAXVAL}\n".encode("ascii")
    # P6 interleaves RGB per pixel; [C,H,W] -> [H,W,C]
    payload = quantized[0] if c == 1 else quantized.transpose(1, 2, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def _read_token(fh) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comments."""
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise ValueError("unexpected end of header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def check_left(path: str, n: int, left: int, what: str) -> None:
    """Raise unless n bytes of ``what`` fit in the ``left`` bytes of the file."""
    if n > left:
        raise ValueError(f"{path}: truncated {what}, needs {n} bytes, {left} left")


def read_exact(fh, path: str, n: int, what: str) -> bytes:
    """Read n bytes, checked against the file size first so a corrupt
    header never asks for a huge buffer."""
    check_left(path, n, os.fstat(fh.fileno()).st_size - fh.tell(), what)
    return fh.read(n)


def load_image(path: str) -> np.ndarray:
    """Read a binary PGM/PPM file into a [C,H,W] float32 array in [0,1]."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"image file not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"{path}: unsupported raster magic {magic!r} (want P5/P6)")
        w = int(_read_token(fh))
        h = int(_read_token(fh))
        maxval = int(_read_token(fh))
        if maxval != _MAXVAL:
            raise ValueError(f"{path}: unsupported maxval {maxval} (want {_MAXVAL})")
        if w < 1 or h < 1:
            raise ValueError(f"{path}: bad raster extents {w}x{h}")
        channels = 1 if magic == b"P5" else 3
        raw = read_exact(fh, path, w * h * channels, "pixel data")
    arr = np.frombuffer(raw, dtype=np.uint8)
    if channels == 1:
        arr = arr.reshape(1, h, w)
    else:
        arr = arr.reshape(h, w, 3).transpose(2, 0, 1)
    return arr.astype(np.float32) / _MAXVAL


def save_disparity(path: str, field: np.ndarray) -> None:
    """Write an [H,W] float32 disparity field with the 8-byte extent header."""
    field = np.asarray(field, dtype=np.float32)
    if field.ndim != 2:
        raise ValueError(f"disparity field must be [H,W], got shape {field.shape}")
    h, w = field.shape
    with open(path, "wb") as fh:
        fh.write(np.array([h, w], dtype="<u4").tobytes())
        fh.write(field.astype("<f4").tobytes())


def load_disparity(path: str) -> np.ndarray:
    """Read an [H,W] float32 disparity field written by :func:`save_disparity`."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"disparity file not found: {path}")
    with open(path, "rb") as fh:
        header = read_exact(fh, path, 8, "disparity header")
        h, w = np.frombuffer(header, dtype="<u4").tolist()
        if w < 1 or h < 1:
            raise ValueError(f"{path}: bad disparity extents {h}x{w}")
        raw = read_exact(fh, path, 4 * h * w, "disparity payload")
    return np.frombuffer(raw, dtype="<f4").reshape(h, w).copy()
