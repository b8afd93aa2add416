"""Spans and counts recorded around the package's public functions.

The tracer rebinds each function where its caller looks it up (a module
attribute, or ``Tensor.backward`` on the class), so the package itself is
unchanged. Spans are kept in memory as (name, start, end, parent, op,
phase, work) and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


def _conv_flops(args, kwargs, out) -> float:
    """2*N*O*C*kH*kW*Ho*Wo of one forward conv2d, from its shapes."""
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    n, o, ho, wo = out.shape
    _, c, kh, kw = weight.shape
    return 2.0 * n * o * c * kh * kw * ho * wo


def _loaded_bytes(args, kwargs, out) -> float:
    return float(out.size)  # one byte per 8-bit sample


def _saved_bytes(args, kwargs, out) -> float:
    image = args[1] if len(args) > 1 else kwargs["image"]
    return float(image.size)


# (owner inside the package, attribute, layer name, work counter) for every
# traced call site. A function imported by name into several modules is
# rebound in each module that calls it.
SITES = (
    ("tensor", "conv2d", "tensor.conv2d", _conv_flops),
    ("tensor", "softmax_lastdim", "tensor.softmax_lastdim", None),
    ("tensor", "batch_matmul", "tensor.batch_matmul", None),
    ("tensor", "trilinear_upsample", "tensor.trilinear_upsample", None),
    ("tensor.Tensor", "backward", "tensor.backward", None),
    ("model", "extract_features", "backbone.extract_features", None),
    ("model", "attention_masks", "model.attention_masks", None),
    ("model", "warp", "model.warp", None),
    ("losses", "warp", "model.warp", None),
    ("model", "reconstruct_sr", "model.reconstruct_sr", None),
    ("model", "super_resolve", "model.super_resolve", None),
    ("model", "bicubic_resize", "data.bicubic_resize", None),
    ("data", "bicubic_resize", "data.bicubic_resize", None),
    ("training", "train", "training.train", None),
    ("training", "forward_full", "model.forward_full", None),
    ("training", "compute_losses", "losses.compute_losses", None),
    ("training", "adam_step", "optim.adam_step", None),
    ("training", "batch_tensors", "model.batch_tensors", None),
    ("training", "augment", "data.augment", None),
    ("training", "super_resolve", "training.validation", None),
    ("training", "psnr", "metrics.psnr", None),
    ("training", "ssim", "metrics.ssim", None),
    ("training", "load_checkpoint", "training.load_checkpoint", None),
    ("training", "restore_model", "training.restore_model", None),
    ("training", "save_checkpoint", "training.save_checkpoint", None),
    ("training", "manifest_patches", "data.manifest_patches", None),
    ("imageio", "load_image", "imageio.load_image", _loaded_bytes),
    ("data", "load_image", "imageio.load_image", _loaded_bytes),
    ("imageio", "save_image", "imageio.save_image", _saved_bytes),
)
# every traced layer, plus the benchmark's own span around one served pair
LAYERS = tuple(dict.fromkeys(site[2] for site in SITES)) + ("bench.pair",)

# layers that run once per set-up rather than once per operation
SETUP_LAYERS = (
    "training.load_checkpoint",
    "training.restore_model",
    "training.save_checkpoint",
    "data.manifest_patches",
)


class Tracer:
    """Records nested spans while installed; ``op`` and ``phase`` tag each span."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.op = -1
        self.phase = "setup"
        self.saved = []

    def install(self) -> None:
        if self.saved:
            return
        for path, attr, name, work in SITES:
            owner = self.package
            for part in path.split("."):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work))

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, work):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            out, done = None, False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                end = clock()
                stack.pop()
                amount = work(args, kwargs, out) if work is not None and done else 0.0
                spans[idx] = (name, start, end, parent, self.op, self.phase, amount)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code, such as one served pair."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op, self.phase, 0.0)

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(self.spans)]

    def layer_metrics(self, ops: int, setups: int):
        """Per-layer self seconds, calls and work, per operation (set-up layers: per set-up)."""
        selfs = self.self_times()
        self_s = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(float)
        for (name, _s, _e, _p, _op, phase, amount), st in zip(self.spans, selfs):
            if name in SETUP_LAYERS or phase == "op":
                self_s[name] += st
                calls[name] += 1
                work[name] += amount

        def per(name):
            return max(setups, 1) if name in SETUP_LAYERS else max(ops, 1)

        out = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = (self_s[name] / per(name), "s")
        out["tensor.conv2d.calls"] = (calls["tensor.conv2d"] / per("tensor.conv2d"), "count")
        out["tensor.conv2d.gflop"] = (work["tensor.conv2d"] / 1e9 / per("tensor.conv2d"), "GFLOP")
        out["data.bicubic_resize.calls"] = (
            calls["data.bicubic_resize"] / per("data.bicubic_resize"),
            "count",
        )
        io_bytes = work["imageio.load_image"] + work["imageio.save_image"]
        out["imageio.mib"] = (io_bytes / 2**20 / max(ops, 1), "MiB")
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "phase", "work"],
                    "spans": self.spans,
                },
                fh,
            )
