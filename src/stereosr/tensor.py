"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array and
records, per operation, the parent tensors plus a vector-Jacobian-product
closure. ``Tensor.backward`` walks the recorded graph once in reverse
topological order and accumulates gradients into the leaves.

Conventions:
  * float32 is the default dtype; float64 is used by the gradient-check
    tooling (finite differences need the extra headroom).
  * convolution means cross-correlation (no kernel flip), always at
    stride 1.
  * the graph is rebuilt on every forward pass (define-by-run).
  * an op allocates only its output; state needed only by the backward
    pass is built inside the vjp from the parents' data.
  * three ops work their rows in the blocks that ``_row_blocks`` plans,
    and equal their unblocked form bit for bit:
    - ``conv2d``'s forward gathers and multiplies the windows of one block
      of output rows at a time, so no full window matrix exists.
    - ``row_attention`` returns one [2,B,W,W] tensor holding both softmax
      directions, so attention holds its two masks and never a full score
      volume; its vjp works the same blocks, so no full score gradient
      exists either. A served pair therefore holds two full [B,W,W] arrays,
      not three; the masks themselves remain full-size because
      ``model.super_resolve`` returns them.
    - ``consistency_gap`` is the disparity constraint: it upsamples the LR
      masks, renormalises their rows and squares their gap to the SR masks
      one block of rows at a time, and its vjp recomputes each block. A
      training step therefore holds no full upsampled, quotient or gap
      array, only the SR masks and their gradient.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.float32, np.float64)

# When enabled, every op verifies its output is finite and raises instead of
# silently propagating NaN/Inf through training.
_nan_checks = False


def set_nan_checks(enabled: bool) -> bool:
    """Toggle post-op NaN/Inf detection. Returns the previous setting."""
    global _nan_checks
    previous = _nan_checks
    _nan_checks = bool(enabled)
    return previous


class no_grad:
    """Context manager that suppresses graph recording inside the block."""

    _depth = 0

    def __enter__(self):
        no_grad._depth += 1
        return self

    def __exit__(self, *exc):
        no_grad._depth -= 1
        return False


def _grad_enabled() -> bool:
    return no_grad._depth == 0


# creation index of the next tensor: 1, 2, 3, ...
_next_seq = itertools.count(1).__next__


class Tensor:
    """N-dimensional float array with optional gradient tracking.

    Attributes:
        data: the underlying numpy array (row-major).
        requires_grad: whether gradients flow to/through this tensor.
        grad: accumulated gradient for leaf tensors, or None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op", "_seq")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None
        self._op = None
        self._seq = _next_seq()

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # autodiff core
    # ------------------------------------------------------------------
    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must be a scalar. Calling backward repeatedly without
        clearing the leaf grads accumulates additively.

        Nodes are processed in decreasing creation order (a canonical
        reverse topological order), so gradient accumulation for a tensor
        with several consumers happens in a fixed sequence regardless of
        which downstream branches exist in the graph.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo = _toposort(self)
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            if id(node) not in grads:
                continue
            if node._vjp is None:
                g = grads.pop(id(node))
                if node.requires_grad:
                    if node.grad is None:
                        # a fresh array in the leaf's dtype, never g itself (a
                        # vjp may hand one array to two parents); + 0.0 turns
                        # -0.0 into +0.0, as adding into zeros did
                        node.grad = np.add(g, 0.0, out=np.empty_like(node.data))
                    else:
                        node.grad += g
                continue
            # no reference is kept here, so a vjp frees g once done with it
            parent_grads = node._vjp(grads.pop(id(node)))
            if _nan_checks and not all(
                pg is None or np.all(np.isfinite(pg)) for pg in parent_grads
            ):
                raise FloatingPointError(f"non-finite gradient from the vjp of {node._op}")
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # ------------------------------------------------------------------
    # arithmetic operators
    # ------------------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return take(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def abs(self):
        return absolute(self)


def _toposort(root: Tensor):
    """Reachable ancestors of root, ordered by increasing creation index."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
    return sorted(seen.values(), key=lambda t: t._seq)


def _coerce(a, b):
    """Both operands of a binary op as Tensors; a plain number takes the
    other operand's dtype (float32 when both are numbers)."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=getattr(b, "dtype", DEFAULT_DTYPE)))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    return a, b


def _make(data: np.ndarray, parents, vjp, opname: str) -> Tensor:
    if _nan_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by {opname}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = opname
    out._seq = _next_seq()
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ----------------------------------------------------------------------
# elementwise ops
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return _make(out, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out = a.data / b.data
    a_data, b_data = a.data, b.data

    def vjp(g):
        gb = _unbroadcast(-g * a_data / (b_data * b_data), b.shape)
        return _unbroadcast(g / b_data, a.shape), gb

    return _make(out, (a, b), vjp, "div")


def power(a: Tensor, p) -> Tensor:
    p = float(p)
    out = a.data**p
    a_data = a.data

    def vjp(g):
        return (g * p * a_data ** (p - 1.0),)

    return _make(out, (a,), vjp, "power")


def absolute(a: Tensor) -> Tensor:
    out = np.abs(a.data)
    a_data = a.data

    def vjp(g):
        return (g * np.sign(a_data),)

    return _make(out, (a,), vjp, "abs")


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    """Elementwise max(x, slope*x) for slope in [0, 1).

    Equals ``where(x >= 0, x, slope*x)`` bit for bit, signed zeros and NaN
    included, except that slope 0 maps +inf to NaN (0*inf).
    """
    if not 0.0 <= slope < 1.0:
        raise ValueError(f"leaky_relu slope must lie in [0, 1), got {slope}")
    out = np.maximum(a.data, slope * a.data)
    a_data = a.data

    def vjp(g):
        factor = np.where(a_data >= 0, a_data.dtype.type(1.0), a_data.dtype.type(slope))
        return (g * factor,)

    return _make(out, (a,), vjp, "leaky_relu")


# ----------------------------------------------------------------------
# reductions and shape ops
# ----------------------------------------------------------------------
def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _make(np.asarray(out), (a,), vjp, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = range(a.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
    count = math.prod(a.shape[ax] for ax in axes)
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.shape
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(in_shape),)

    return _make(out, (a,), vjp, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = a.data.transpose(axes)

    def vjp(g):
        return (g.transpose(inverse),)

    return _make(out, (a,), vjp, "transpose")


def take(a: Tensor, idx) -> Tensor:
    # a basic index gives a view and no copy; a scalar stays 0-d
    out = np.asarray(a.data[idx])
    in_shape = a.shape

    def vjp(g):
        full = np.zeros(in_shape, dtype=g.dtype)
        full[idx] += g
        return (full,)

    return _make(out, (a,), vjp, "getitem")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), vjp, "concat")


# ----------------------------------------------------------------------
# softmax / matmul
# ----------------------------------------------------------------------
def _softmax_(y: np.ndarray) -> None:
    """Softmax along the last axis of a C-order array, in place, stabilized by
    max subtraction. The contiguous layout pins the reduction order."""
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of a last-axis softmax with output ``y``."""
    gx = g * y
    inner = gx.sum(axis=-1, keepdims=True)
    np.subtract(g, inner, out=gx)
    gx *= y
    return gx


def softmax_lastdim(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    # one C-order copy, worked in place: results are bit-identical whether
    # the input is a transposed view or not, and the input is never written
    y = np.array(a.data, order="C")
    _softmax_(y)
    return _make(y, (a,), lambda g: (_softmax_grad(g, y),), "softmax_lastdim")


# Bytes of rows that a blocked op (``row_attention``, ``consistency_gap``,
# ``conv2d``) works at once: a block and its temporaries stay in cache.
_BLOCK_BYTES = 1 << 20


def _row_blocks(n: int, row_bytes: int, unit: int = 1):
    """(start, stop) blocks of rows of ``row_bytes`` each that cover range(n)
    in order.

    Each block holds about _BLOCK_BYTES of rows, a whole number of ``unit``
    rows and at least two rows; a lone row left at the end joins the block
    before it. A blocked op equals its unblocked form bit for bit only if
    BLAS computes each block as it computes the whole, and two block shapes
    break that: a one-row product, which numpy hands to gemv (or to BLAS
    rather than its own loop), and a ragged group of columns, which OpenBLAS
    rounds with the kernel that the shape of the whole product selects.
    Hence the two-row floor, and ``unit``.
    """
    step = max(_BLOCK_BYTES // max(row_bytes, 1) // unit * unit, unit, 2)
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def row_attention(q_rows: Tensor, k_rows: Tensor, scale: float) -> Tensor:
    """Both softmax directions of the per-row scores S = scale * q_rows @ k_rows.

    Takes q_rows [B,W,C] and k_rows [B,C,W]; returns one [2,B,W,W] tensor:
    index 0 is softmax(S^T), index 1 is softmax(S), both over the last axis.
    Equals ``batch_matmul``, ``mul`` by scale and ``softmax_lastdim`` of S and
    of S^T bit for bit, gradients included, but the forward and the vjp work
    the same blocks of rows: both directions are written in place into the
    output buffer and no full score volume is ever held, nor, in the vjp, a
    full score gradient.
    """
    if (
        q_rows.ndim != 3
        or k_rows.ndim != 3
        or q_rows.shape != (k_rows.shape[0], k_rows.shape[2], k_rows.shape[1])
    ):
        raise ValueError(
            f"row_attention expects q [B,W,C] and k [B,C,W], got {q_rows.shape} and {k_rows.shape}"
        )
    q, k = q_rows.data, k_rows.data
    B, W, _ = q.shape
    buf = np.empty((2, B, W, W), dtype=np.result_type(q, k))
    m_lr, m_rl = buf
    scale = np.asarray(scale, dtype=buf.dtype)
    blocks = [slice(r0, r1) for r0, r1 in _row_blocks(B, W * W * buf.itemsize)]
    for rows in blocks:
        s = m_rl[rows]
        np.matmul(q[rows], k[rows], out=s)
        s *= scale
        m_lr[rows] = s.transpose(0, 2, 1)
        _softmax_(s)
        _softmax_(m_lr[rows])

    def vjp(g):
        # the score gradient g_rl + g_lr^T, one block of the forward's rows
        # at a time: each [W,W] slice is independent, so no full score
        # gradient or softmax-gradient temporary exists
        dtype = np.result_type(g, buf, q, k)
        gq, gk = np.empty(q.shape, dtype), np.empty(k.shape, dtype)
        for rows in blocks:
            gs = _softmax_grad(g[1, rows], m_rl[rows])
            gs += _softmax_grad(g[0, rows], m_lr[rows]).transpose(0, 2, 1)
            gs *= scale
            np.matmul(gs, k[rows].transpose(0, 2, 1), out=gq[rows])
            np.matmul(q[rows].transpose(0, 2, 1), gs, out=gk[rows])
            del gs
        return gq, gk

    return _make(buf, (q_rows, k_rows), vjp, "row_attention")


def batch_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Independent matrix product per batch index: [...,M,K] x [...,K,N] -> [...,M,N],
    the leading (batch) dims of the two operands equal."""
    if a.ndim < 3 or a.ndim != b.ndim:
        raise ValueError(
            f"batch_matmul expects operands of one rank >= 3, got {a.shape} and {b.shape}"
        )
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(
            f"batch_matmul batch dims differ: {a.shape[:-2]} vs {b.shape[:-2]}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"batch_matmul inner dims differ: K={a.shape[-1]} vs K={b.shape[-2]}"
        )
    out = np.matmul(a.data, b.data)
    a_data, b_data = a.data, b.data

    def vjp(g):
        ga = np.matmul(g, b_data.swapaxes(-1, -2))
        gb = np.matmul(a_data.swapaxes(-1, -2), g)
        return ga, gb

    return _make(out, (a, b), vjp, "batch_matmul")


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
def _windows(a: np.ndarray, kH: int, kW: int, dilation: int) -> np.ndarray:
    """Read-only view [..., Ho, Wo, kH, kW] of every dilated window over the
    last two axes, built from strides directly: on the small maps of a
    gradient check, sliding_window_view's argument handling took about half
    of conv2d's forward time."""
    H, W = a.shape[-2:]
    sH, sW = a.strides[-2:]
    return np.lib.stride_tricks.as_strided(
        a,
        (*a.shape[:-2], H - dilation * (kH - 1), W - dilation * (kW - 1), kH, kW),
        (*a.strides, dilation * sH, dilation * sW),
        writeable=False,
    )


# Columns per block group of conv2d's GEMMs: a multiple of the column groups
# of OpenBLAS's GEMM kernels (16 in float32, 8 in float64).
_GEMM_COLUMNS = 64


def _pad_hw(a: np.ndarray, ph: int, pw: int, spare_rows: int = 0) -> np.ndarray:
    """Zero-pad [N,C,H,W] by ph rows / pw columns per side, crop where
    negative, and add ``spare_rows`` zero rows at the bottom."""
    ch, cw = max(-ph, 0), max(-pw, 0)
    a = a[:, :, ch : a.shape[2] - ch, cw : a.shape[3] - cw]
    ph, pw = max(ph, 0), max(pw, 0)
    if ph or pw or spare_rows:
        # zeros + copy: np.pad's per-call overhead is ~10x this on small maps
        N, C, H, W = a.shape
        out = np.zeros((N, C, H + 2 * ph + spare_rows, W + 2 * pw), dtype=a.dtype)
        out[:, :, ph : ph + H, pw : pw + W] = a
        a = out
    return a


def conv2d(
    x: Tensor, weight: Tensor, bias: Tensor, padding: int = 0, dilation: int = 1
) -> Tensor:
    """2-D cross-correlation over [N,C,H,W] with an [O,C,kH,kW] kernel."""
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be [N,C,H,W], got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d weight must be [O,C,kH,kW], got shape {weight.shape}")
    N, C, H, W = x.shape
    O, Cw, kH, kW = weight.shape
    if C != Cw:
        raise ValueError(
            f"conv2d channel mismatch: input has C={C} but weight expects C={Cw}"
        )
    if bias.shape != (O,):
        raise ValueError(f"conv2d bias must have shape ({O},), got {bias.shape}")
    if dilation < 1 or padding < 0:
        raise ValueError("conv2d needs dilation >= 1 and padding >= 0")

    Ho = H + 2 * padding - dilation * (kH - 1)
    Wo = W + 2 * padding - dilation * (kW - 1)
    if Ho < 1 or Wo < 1:
        raise ValueError(
            f"conv2d geometry invalid: input {H}x{W}, kernel {kH}x{kW}, "
            f"padding {padding}, dilation {dilation} "
            "does not yield positive output extents"
        )

    # Per sample, one GEMM per block of output rows. The block's windows are
    # gathered into a C-order [C*kH*kW, rows*Wo] matrix that stays in L2
    # while the GEMM reads it, and the product goes straight into the
    # block's columns of the output; no [C*kH*kW, Ho*Wo] window matrix
    # (9.4 MB for a 32-channel 64x128 conv) is gathered. A window block is
    # half of _BLOCK_BYTES: on a 2 MiB L2 that was faster than a whole one,
    # while the other blocked ops were slower at half.
    #
    # A block is a whole number of _GEMM_COLUMNS columns, and a map whose
    # Ho*Wo is not is one block. So is a conv with one output channel, which
    # numpy computes by gemv, whose float32 kernel changes above 16384
    # columns; and a 1x1 conv, whose block is a view of the input with
    # nothing to gather. The output then equals one GEMM over the whole map
    # bit for bit on OpenBLAS 0.3.31 for depths C*kH*kW up to 288: every conv
    # of a model of up to 32 channels. From 50 channels on, the upscale conv
    # is 450 or more deep with 4 to 48 output channels; a block of it can
    # fall to OpenBLAS's small-matrix kernel, which sums the whole depth in
    # one pass, and round differently in the last bits.
    w_mat = weight.data.reshape(O, C * kH * kW)
    win = _windows(_pad_hw(x.data, padding, padding), kH, kW, dilation)
    out = np.empty((N, O, Ho, Wo), dtype=np.result_type(w_mat, win))
    out_cols = out.reshape(N, O, Ho * Wo)
    if kH * kW == 1 or O == 1 or Ho * Wo % _GEMM_COLUMNS:
        blocks = [(0, Ho)]
    else:
        unit = _GEMM_COLUMNS // math.gcd(Wo, _GEMM_COLUMNS)
        blocks = _row_blocks(Ho, 2 * C * kH * kW * Wo * out.itemsize, unit)
    for n in range(N):
        for r0, r1 in blocks:
            block = win[n, :, r0:r1].transpose(0, 3, 4, 1, 2)
            np.matmul(
                w_mat,
                block.reshape(C * kH * kW, -1),
                out=out_cols[n, :, r0 * Wo : r1 * Wo],
            )
    out += bias.data.reshape(1, O, 1, 1)

    def vjp(g):
        gb = g.sum(axis=(0, 2, 3))
        # Weight gradient, one GEMM: the windows, gathered again rather than
        # kept (the graph holds no C*k^2*Ho*Wo buffer), straight into a C-order
        # [C*kH*kW, N*Ho*Wo] matrix, times g as [N*Ho*Wo, O]; the [C*kH*kW, O]
        # product is returned transposed. Neither big operand is copied into
        # a transposed layout, as np.tensordot would.
        win = _windows(_pad_hw(x.data, padding, padding), kH, kW, dilation)
        cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(C * kH * kW, N * Ho * Wo)
        g_rows = g.transpose(1, 0, 2, 3).reshape(O, N * Ho * Wo)
        gw = (cols @ g_rows.T).T
        del win, cols
        # Input gradient, per sample one [C,O] x [O,H*Wp] GEMM per tap,
        # accumulated (kn2row-aa, arXiv:1709.03395). Input pixel (y, x) takes
        # tap (ki, kj) from g at (y + padding - ki*dilation, x + padding -
        # kj*dilation). Once g is padded by dilation*(k-1) - padding per side
        # (cropped where that is negative) to [Hp, Wp] = [H, W] +
        # dilation*(k-1), that is flat offset y*Wp + x + off, with off below.
        # So each tap reads one contiguous span of g's flattened rows. Its
        # columns W..Wp-1 wrap into the next row and are cropped at the end,
        # and a spare zero row keeps the first tap's span in bounds. The taps
        # are added one by one in (ki, kj) order, which fixes the float
        # rounding of the gradient. Each product is only [C, H*Wp], and the
        # suite and the benchmark pin BLAS to one thread.
        qh, qw = dilation * (kH - 1) - padding, dilation * (kW - 1) - padding
        gq = _pad_hw(g, qh, qw, spare_rows=1)
        Wp = gq.shape[3]
        flat = gq.reshape(N, O, -1)
        w_taps = weight.data.transpose(2, 3, 1, 0)  # [kH, kW, C, O]
        gx = np.zeros((N, C, H * Wp), dtype=np.result_type(weight.data, g))
        tap = np.empty_like(gx)
        for ki in range(kH):
            for kj in range(kW):
                off = dilation * ((kH - 1 - ki) * Wp + kW - 1 - kj)
                np.matmul(w_taps[ki, kj], flat[:, :, off : off + H * Wp], out=tap)
                gx += tap
        gx = gx.reshape(N, C, H, Wp)[:, :, :, :W]
        return gx, gw.reshape(weight.shape), gb

    return _make(out, (x, weight, bias), vjp, "conv2d")


# ----------------------------------------------------------------------
# resampling ops
# ----------------------------------------------------------------------
# Resampling matrices kept at once. A workload uses a few (sizes, each way,
# per kernel and dtype); a stream of new sizes evicts the oldest.
_WEIGHT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def resampling_matrix(n_in: int, n_out: int, kernel, dtype) -> np.ndarray:
    """Read-only (n_out, n_in) resampling matrix: pixel-centre source positions,
    four edge-clamped taps weighted by ``kernel``, built in float64 then cast."""
    scale = n_in / n_out
    A = np.zeros((n_out, n_in), dtype=np.float64)
    for o in range(n_out):
        src = (o + 0.5) * scale - 0.5
        j0 = int(np.floor(src))
        t = src - j0
        for k in range(-1, 3):
            idx = min(max(j0 + k, 0), n_in - 1)
            A[o, idx] += kernel(k - t)
    A = A.astype(dtype)
    A.flags.writeable = False
    return A


def _triangle_kernel(x: float) -> float:
    return max(0.0, 1.0 - abs(x))


def _apply_matrix_along_axis(M: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(x, axis, -1)
    out = np.matmul(moved, M.T)
    return np.moveaxis(out, -1, axis)


def trilinear_upsample(volume: Tensor, s: int) -> Tensor:
    """Trilinear upsampling of the last three axes by one integer factor s.

    Uses align_corners=False coordinates with edge clamping, applied
    separably one axis at a time. Leading axes are treated as batch.
    """
    s = int(s)
    if s < 1:
        raise ValueError(f"upsample factor must be >= 1, got {s}")
    if volume.ndim < 3:
        raise ValueError(f"trilinear_upsample needs >= 3 axes, got shape {volume.shape}")
    axes = (-3, -2, -1)
    mats = [
        resampling_matrix(n, n * s, _triangle_kernel, volume.dtype)
        for n in volume.shape[-3:]
    ]

    out = volume.data
    for ax, M in zip(axes, mats):
        out = _apply_matrix_along_axis(M, out, ax)

    def vjp(g):
        for ax, M in zip(axes, mats):
            g = _apply_matrix_along_axis(M.T, g, ax)
        return (g,)

    return _make(np.ascontiguousarray(out), (volume,), vjp, "trilinear_upsample")


def _support(M: np.ndarray, r0: int, r1: int):
    """First and past-the-last column of the nonzero entries of M[r0:r1]."""
    cols = np.flatnonzero(M[r0:r1].any(axis=0))
    return int(cols[0]), int(cols[-1]) + 1


def _upsample_rows(vol: np.ndarray, Mh: np.ndarray, Mw: np.ndarray, r0: int, r1: int):
    """Rows r0:r1 of ``trilinear_upsample`` of one [h,w,w] volume, read from the
    LR rows in their support, by the same matmul calls, so the same bits."""
    a0, a1 = _support(Mh, r0, r1)
    out = _apply_matrix_along_axis(Mh[r0:r1, a0:a1], vol[a0:a1], -3)
    out = _apply_matrix_along_axis(Mw, out, -2)
    return _apply_matrix_along_axis(Mw, out, -1)


def consistency_gap(masks_lr: Tensor, masks_sr: Tensor, s: int) -> Tensor:
    """Per-direction means of (up / up.sum(-1) - masks_sr)^2, where up is the
    trilinear upsample of masks_lr by the integer factor s.

    Takes a [D,N,h,w,w] LR pair and a [D,N,sh,sw,sw] SR pair; returns [D].
    Equals ``trilinear_upsample``, the row renormalisation, the squared gap
    and a mean over each direction bit for bit, gradients included, but no
    full upsampled, quotient or gap array exists. The forward works blocks
    of SR rows, each from the LR rows in its support. The vjp works blocks
    of LR rows, each s times an SR row's size, and recomputes the SR rows
    that each block reads, a halo of a row or two included.
    """
    s = int(s)
    if masks_lr.ndim != 5 or s < 1:
        raise ValueError(
            f"consistency_gap expects a [D,N,h,w,w] LR pair and s >= 1, got {masks_lr.shape}, s={s}"
        )
    D, N, h, w, _ = masks_lr.shape
    sh, sw = h * s, w * s
    if masks_sr.shape != (D, N, sh, sw, sw):
        raise ValueError(
            f"SR mask shape {masks_sr.shape} does not match upsampled LR {(D, N, sh, sw, sw)}"
        )
    if masks_sr.dtype != masks_lr.dtype:
        raise ValueError(
            f"consistency_gap expects one dtype, got {masks_lr.dtype} and {masks_sr.dtype}"
        )
    lr = masks_lr.data.reshape(D * N, h, w, w)
    sr = masks_sr.data.reshape(D * N, sh, sw, sw)
    Mh = resampling_matrix(h, sh, _triangle_kernel, masks_lr.dtype)
    Mw = resampling_matrix(w, sw, _triangle_kernel, masks_lr.dtype)

    # the squares are summed as one array, as a mean over each direction
    # sums them, so the sum rounds the same
    sq = np.empty_like(sr)
    for b in range(D * N):
        for r0, r1 in _row_blocks(sh, sw * sw * sr.itemsize):
            up = _upsample_rows(lr[b], Mh, Mw, r0, r1)
            gap = np.divide(up, up.sum(axis=-1, keepdims=True), out=up)
            gap -= sr[b, r0:r1]
            np.square(gap, out=sq[b, r0:r1])
    inv_count = np.asarray(1.0 / max(N * sh * sw * sw, 1), dtype=sq.dtype)
    means = sq.reshape(D, -1).sum(axis=1) * inv_count

    def vjp(g):
        # the vjp chain of the unfused ops, element for element: the mean,
        # the square, the subtraction, the quotient, then the transposed
        # upsample along H, W and W
        k = g * inv_count * 2.0
        g_lr = np.empty(lr.shape, np.result_type(lr, g))
        g_sr = np.empty(sr.shape, np.result_type(sr, g))
        for b in range(D * N):
            # LR rows whose SR rows, halos aside, make one forward block
            for a0, a1 in _row_blocks(h, s * sw * sw * sr.itemsize):
                r0, r1 = _support(Mh.T, a0, a1)
                up = _upsample_rows(lr[b], Mh, Mw, r0, r1)
                S = up.sum(axis=-1, keepdims=True)
                gg = up / S
                gg -= sr[b, r0:r1]
                gg *= k[b // N]
                g_sr_rows = np.negative(gg, out=g_sr[b, r0:r1])
                # the quotient's vjp: gg / S + sum(-gg * up / (S * S)), in
                # place; -gg * up is g_sr * up, since negation is exact
                gs = np.multiply(up, g_sr_rows, out=up)
                gs /= S * S
                g_up = np.divide(gg, S, out=gg)
                g_up += gs.sum(axis=-1, keepdims=True)
                del up, gs
                out = _apply_matrix_along_axis(Mh[r0:r1, a0:a1].T, g_up, -3)
                out = _apply_matrix_along_axis(Mw.T, out, -2)
                g_lr[b, a0:a1] = _apply_matrix_along_axis(Mw.T, out, -1)
        return g_lr.reshape(masks_lr.shape), g_sr.reshape(masks_sr.shape)

    return _make(means, (masks_lr, masks_sr), vjp, "consistency_gap")


def pixel_shuffle(x: Tensor, s: int) -> Tensor:
    """Rearrange [N, C*s^2, H, W] into [N, C, s*H, s*W] (sub-pixel upscale)."""
    if x.ndim != 4:
        raise ValueError(f"pixel_shuffle input must be [N,C,H,W], got {x.shape}")
    N, Cs2, H, W = x.shape
    if Cs2 % (s * s):
        raise ValueError(
            f"pixel_shuffle channel count {Cs2} not divisible by s^2={s * s}"
        )
    C = Cs2 // (s * s)
    out = (
        x.data.reshape(N, C, s, s, H, W)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(N, C, H * s, W * s)
    )

    def vjp(g):
        gx = (
            g.reshape(N, C, H, s, W, s)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(N, Cs2, H, W)
        )
        return (np.ascontiguousarray(gx),)

    return _make(np.ascontiguousarray(out), (x,), vjp, "pixel_shuffle")
