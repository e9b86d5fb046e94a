"""Dense 4-D tensors, the differentiable kernel set, and the reverse-mode tape.

Everything in this library moves through one currency: a contiguous
row-major ``(N, C, H, W)`` float buffer.  All ops are pure functions over
immutable tensors.  While a :class:`Tape` is active, ops whose result
depends on a gradient-carrying tensor append a record; :func:`backward`
replays those records in exact reverse creation order and accumulates
``d(root)/d(leaf)`` into the ``grad`` of every leaf it reaches, made on first reach.

Convolution uses the cross-correlation convention (no kernel flip) and is
lowered to im2col plus one matrix multiply (GEMM), forward and backward.
Every im2col and col2im buffer is bounded by ``_TILE_BYTES``: the forward
and the input gradient are tiled over output rows, the weight gradient over
input channels.  The summation order is the BLAS library's, so results
agree with a scalar nested-loop reference within the rounding-error bound
of a length-``C*kH*kW`` dot product, not bit-for-bit; they are
deterministic on one machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, ShapeError, UsageError

DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class Tensor:
    """A dense ``(N, C, H, W)`` array with an optional gradient buffer.

    Data is treated as immutable after construction.  ``grad`` starts as
    ``None``; the first :func:`backward` that reaches a leaf created with
    ``requires_grad=True`` gives it a buffer of identical dims, and later
    calls accumulate into it until :meth:`zero_grad` is called.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ContractError(f"tensor data must be 4-D (N,C,H,W), got shape {arr.shape}")
        if arr.dtype not in DTYPE_NAMES:
            raise ContractError(f"unsupported element type {arr.dtype}; use float32 or float64")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def dims(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def dtype_name(self):
        return DTYPE_NAMES[self.data.dtype]

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got dims {self.dims}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0

    def __repr__(self):
        shape = "x".join(str(d) for d in self.dims)
        return f"Tensor({shape}, {self.dtype_name}, requires_grad={self.requires_grad})"


def zeros(dims, dtype=np.float32, requires_grad=False):
    return Tensor(np.zeros(dims, dtype=dtype), requires_grad=requires_grad)


def ones(dims, dtype=np.float32, requires_grad=False):
    return Tensor(np.ones(dims, dtype=dtype), requires_grad=requires_grad)


def full(dims, value, dtype=np.float32, requires_grad=False):
    return Tensor(np.full(dims, value, dtype=dtype), requires_grad=requires_grad)


def ones_like(x):
    return Tensor(np.ones_like(x.data))


def kaiming_uniform(rng, dims, dtype=np.float32):
    """Seeded uniform init in ±sqrt(6/fan_in); fan_in = dims[1]*dims[2]*dims[3]."""
    fan_in = dims[1] * dims[2] * dims[3]
    if fan_in <= 0:
        raise ContractError(f"fan_in must be positive for init, got dims {dims}")
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, dims).astype(dtype)


class Parameter:
    """A named leaf tensor whose gradient buffer :func:`backward` allocates and keeps."""

    __slots__ = ("name", "value")

    def __init__(self, name, data):
        self.name = name
        self.value = Tensor(data, requires_grad=True)

    @property
    def dims(self):
        return self.value.dims

    @property
    def grad(self):
        return self.value.grad

    def zero_grad(self):
        self.value.zero_grad()

    def __repr__(self):
        shape = "x".join(str(d) for d in self.dims)
        return f"Parameter({self.name!r}, {shape}, {self.value.dtype_name})"


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class TapeRecord:
    """One recorded op: id, input refs, output ref, saved intermediates.

    An op that takes a branch (a relu mask, a pool arg-max) saves that
    decision under ``"branch"``; its backward rule reads it from there,
    and the gradient checker compares it between probe evaluations.
    """

    op: str
    inputs: tuple
    output: Tensor
    saved: dict


class Tape:
    """Ordered op record for one execution context.

    Use as a context manager; ops executed inside the ``with`` block are
    recorded whenever their output depends on a gradient-carrying tensor.
    """

    def __init__(self):
        self.records = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.records)


_TAPE_STACK = []


def _record(op, inputs, data, **saved):
    """Every op's result: ``data`` needing a gradient when any input does, taped if so."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    for t in inputs:  # a plain loop: any() over a generator adds a frame to every op
        if t.requires_grad:
            out.requires_grad = True
            break
    if _TAPE_STACK and out.requires_grad:
        _TAPE_STACK[-1].records.append(TapeRecord(op, tuple(inputs), out, saved))
    return out


# ---------------------------------------------------------------------------
# Shape helpers
# ---------------------------------------------------------------------------

def _pair(value, name):
    if isinstance(value, int):
        value = (value, value)
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise ContractError(f"{name} must be an int or a pair, got {value!r}")
    return pair


@dataclass(frozen=True)
class ConvSpec:
    """Stride / padding / dilation bundle for :func:`conv2d`."""

    stride: tuple = (1, 1)
    padding: tuple = (0, 0)
    dilation: tuple = (1, 1)

    def __post_init__(self):
        object.__setattr__(self, "stride", _pair(self.stride, "stride"))
        object.__setattr__(self, "padding", _pair(self.padding, "padding"))
        object.__setattr__(self, "dilation", _pair(self.dilation, "dilation"))
        if min(self.stride) < 1:
            raise ContractError(f"stride must be >= 1, got {self.stride}")
        if min(self.padding) < 0:
            raise ContractError(f"padding must be >= 0, got {self.padding}")
        if min(self.dilation) < 1:
            raise ContractError(f"dilation must be >= 1, got {self.dilation}")

    def out_hw(self, h, w, kh, kw):
        """Output spatial dims: floor((D + 2p - d*(k-1) - 1)/s) + 1, each >= 0."""
        oh = (h + 2 * self.padding[0] - self.dilation[0] * (kh - 1) - 1) // self.stride[0] + 1
        ow = (w + 2 * self.padding[1] - self.dilation[1] * (kw - 1) - 1) // self.stride[1] + 1
        if oh < 0 or ow < 0:
            raise ShapeError(
                f"convolution output dims ({oh}, {ow}) are negative for input "
                f"({h}, {w}), kernel ({kh}, {kw}), spec {self}"
            )
        return oh, ow


def _same_dtype(*tensors):
    dtypes = {t.dtype for t in tensors if t is not None}
    if len(dtypes) > 1:
        raise ContractError(f"operands must share one element type, got {sorted(map(str, dtypes))}")


def _reduce_broadcast(grad, dims):
    """Sum-reduce a gradient over the axes that were broadcast in forward."""
    axes = tuple(i for i in range(4) if dims[i] == 1 and grad.shape[i] > 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv2d(x, weight, bias=None, spec=None):
    """Cross-correlate ``x`` with ``weight`` under ``spec``.

    ``weight`` dims are ``(C_out, C_in, kH, kW)``; an optional bias has
    dims ``(1, C_out, 1, 1)``.  Computed as im2col plus GEMM over row
    tiles of at most ``_TILE_BYTES`` of columns; each output element is a
    length-``C_in*kH*kW`` dot product summed in the BLAS library's order,
    so it is deterministic on one machine but not bit-exact across
    platforms.
    """
    spec = spec or ConvSpec()
    _same_dtype(x, weight, bias)
    n, c, h, w = x.dims
    c_out, c_in, kh, kw = weight.dims
    if c_in != c:
        raise ContractError(f"weight in-channel dim {c_in} != input channels {c}")
    if bias is not None and bias.dims != (1, c_out, 1, 1):
        raise ContractError(f"bias dims {bias.dims} != (1, {c_out}, 1, 1)")
    oh, ow = spec.out_hw(h, w, kh, kw)

    out = _conv_forward(x.data, weight.data, None if bias is None else bias.data, spec, oh, ow)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _record("conv2d", inputs, out, spec=spec)


# Upper bound on the bytes of one im2col or col2im buffer.  1 MiB holds
# three output rows of the pyramid's 3x3 smooth at stride 8 of a 256^2
# image (K = 2304, OW = 32, f32) and keeps a 2048^2 input from
# materializing its whole column matrix (about 600 MB for that layer).
_TILE_BYTES = 1 << 20


def _padded(xd, spec):
    py, px = spec.padding
    return np.pad(xd, ((0, 0), (0, 0), (py, py), (px, px))) if (py or px) else xd


def _taps(xp, kh, kw, spec, row0, rows, ow):
    """Read-only im2col view ``(N, C, kH, kW, rows, OW)`` of output rows ``row0:row0+rows``."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    (sy, sx), (dy, dx) = spec.stride, spec.dilation
    return np.lib.stride_tricks.as_strided(
        xp[:, :, row0 * sy:], (n, c, kh, kw, rows, ow),
        (sn, sc, sh * dy, sw * dx, sh * sy, sw * sx), writeable=False)


def _tile(count, unit_bytes):
    """How many units of ``unit_bytes`` (at least one) fit in ``_TILE_BYTES``."""
    return max(1, min(count, _TILE_BYTES // max(1, unit_bytes)))


def _conv_forward(xd, wd, bias_d, spec, oh, ow):
    n, c = xd.shape[:2]
    c_out, _, kh, kw = wd.shape
    k = c * kh * kw
    out = np.zeros((n, c_out, oh * ow), xd.dtype)
    if out.size:
        xp = _padded(xd, spec)
        w2 = wd.reshape(c_out, k)
        step = _tile(oh, n * k * ow * xd.itemsize)
        for row0 in range(0, oh, step):
            rows = min(step, oh - row0)
            # a view for an unpadded 1x1 stride-1 conv; otherwise the im2col copy
            cols = _taps(xp, kh, kw, spec, row0, rows, ow).reshape(n, k, rows * ow)
            np.matmul(w2, cols, out=out[:, :, row0 * ow:(row0 + rows) * ow])
    out = out.reshape(n, c_out, oh, ow)
    if bias_d is not None:
        out += bias_d
    return out


def _conv_backward(rec, grad_out):
    x, weight = rec.inputs[0], rec.inputs[1]
    bias = rec.inputs[2] if len(rec.inputs) == 3 else None
    spec = rec.saved["spec"]
    xd, wd = x.data, weight.data
    n, c, h, w = xd.shape
    c_out, _, kh, kw = wd.shape
    oh, ow = grad_out.shape[2:]
    k = c * kh * kw
    py, px = spec.padding
    go = grad_out.reshape(n, c_out, oh * ow)

    grad_x = None
    if x.requires_grad:
        # col2im: W^T @ grad_out per row tile, scattered one (ky, kx) tap at a time
        gxp = np.zeros((n, c, h + 2 * py, w + 2 * px), xd.dtype)
        (sy, sx), (dy, dx) = spec.stride, spec.dilation
        wt = wd.reshape(c_out, k).T
        if grad_out.size:
            step = _tile(oh, n * k * ow * xd.itemsize)
            for row0 in range(0, oh, step):
                rows = min(step, oh - row0)
                g = np.matmul(wt, go[:, :, row0 * ow:(row0 + rows) * ow])
                g = g.reshape(n, c, kh, kw, rows, ow)
                for ky in range(kh):
                    y0 = row0 * sy + ky * dy
                    ys = slice(y0, y0 + (rows - 1) * sy + 1, sy)
                    for kx in range(kw):
                        x0 = kx * dx
                        gxp[:, :, ys, x0:x0 + (ow - 1) * sx + 1:sx] += g[:, :, ky, kx]
        grad_x = gxp[:, :, py:py + h, px:px + w]

    grad_w = None
    if weight.requires_grad:
        # grad_out @ cols^T per chunk of input channels, written in place
        grad_w = np.zeros_like(wd)
        if grad_out.size:
            xp = _padded(xd, spec)
            go2 = go.transpose(1, 0, 2).reshape(c_out, n * oh * ow)
            gw2 = grad_w.reshape(c_out, k)
            taps = kh * kw
            step = _tile(c, taps * n * oh * ow * xd.itemsize)
            for c0 in range(0, c, step):
                cc = min(step, c - c0)
                cols = _taps(xp[:, c0:c0 + cc], kh, kw, spec, 0, oh, ow)
                cols = cols.transpose(1, 2, 3, 0, 4, 5).reshape(cc * taps, n * oh * ow)
                np.matmul(go2, cols.T, out=gw2[:, c0 * taps:(c0 + cc) * taps])

    grad_b = None
    if bias is not None and bias.requires_grad:
        grad_b = grad_out.sum(axis=(0, 2, 3)).reshape(1, c_out, 1, 1)
    return (grad_x, grad_w) if bias is None else (grad_x, grad_w, grad_b)


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def _check_broadcast(a_dims, b_dims):
    for axis, (da, db) in enumerate(zip(a_dims, b_dims)):
        if da != db and da != 1 and db != 1:
            raise ContractError(
                f"dims {a_dims} and {b_dims} are not broadcast-compatible at axis {axis}"
            )


def add(a, b):
    _same_dtype(a, b)
    _check_broadcast(a.dims, b.dims)
    return _record("add", (a, b), a.data + b.data)


def _add_backward(rec, grad_out):
    a, b = rec.inputs
    ga = _reduce_broadcast(grad_out, a.dims) if a.requires_grad else None
    gb = _reduce_broadcast(grad_out, b.dims) if b.requires_grad else None
    return ga, gb


def mul(a, b):
    _same_dtype(a, b)
    _check_broadcast(a.dims, b.dims)
    return _record("mul", (a, b), a.data * b.data)


def _mul_backward(rec, grad_out):
    a, b = rec.inputs
    ga = _reduce_broadcast(grad_out * b.data, a.dims) if a.requires_grad else None
    gb = _reduce_broadcast(grad_out * a.data, b.dims) if b.requires_grad else None
    return ga, gb


def relu(x):
    mask = x.data > 0
    return _record("relu", (x,), np.where(mask, x.data, x.data.dtype.type(0)), branch=mask)


def _relu_backward(rec, grad_out):
    return (grad_out * rec.saved["branch"],)


def sigmoid(x):
    xd = x.data
    # exp of a non-positive argument only, so large |x| cannot overflow
    pos = xd >= 0
    z = np.exp(np.where(pos, -xd, xd))
    out_d = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z)).astype(xd.dtype, copy=False)
    return _record("sigmoid", (x,), out_d)


def _sigmoid_backward(rec, grad_out):
    s = rec.output.data
    return (grad_out * s * (1.0 - s),)


def square(x):
    return _record("square", (x,), x.data * x.data)


def _square_backward(rec, grad_out):
    (x,) = rec.inputs
    return (grad_out * (2.0 * x.data),)


def edge_magnitude(gx, gy):
    """Pointwise sqrt(gx^2 + gy^2) with a zero gradient at exactly (0, 0).

    A fused op: composing sqrt, add and square would send an infinite
    factor through the chain where both inputs vanish, while the magnitude
    itself has a well-defined (sub)gradient of zero there.
    """
    _same_dtype(gx, gy)
    if gx.dims != gy.dims:
        raise ContractError(f"edge_magnitude dims differ: {gx.dims} vs {gy.dims}")
    mag = np.sqrt(gx.data * gx.data + gy.data * gy.data)
    return _record("edge_magnitude", (gx, gy), mag, branch=mag > 0)


def _edge_magnitude_backward(rec, grad_out):
    gx, gy = rec.inputs
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(rec.saved["branch"], grad_out / rec.output.data,
                         grad_out.dtype.type(0))
    ga = scale * gx.data if gx.requires_grad else None
    gb = scale * gy.data if gy.requires_grad else None
    return ga, gb


# ---------------------------------------------------------------------------
# Reductions and resampling
# ---------------------------------------------------------------------------

def _spatial_flat(x, op):
    """``x`` as N x C x (H*W), refusing an empty spatial extent."""
    n, c, h, w = x.dims
    if h * w < 1:
        raise DomainError(f"{op} over empty spatial extent {h}x{w}")
    return x.data.reshape(n, c, h * w)


def global_avg_pool(x):
    """Average over all H*W positions per sample and channel, to N x C x 1 x 1."""
    n, c = x.dims[:2]
    out_d = _spatial_flat(x, "global_avg_pool").mean(axis=2).reshape(n, c, 1, 1)
    return _record("global_avg_pool", (x,), out_d.astype(x.dtype, copy=False))


def global_max_pool(x):
    """Maximum over all H*W positions per sample and channel, to N x C x 1 x 1."""
    n, c = x.dims[:2]
    flat = _spatial_flat(x, "global_max_pool")
    idx = flat.argmax(axis=2)  # first maximal position in scan order
    out_d = np.take_along_axis(flat, idx[:, :, None], axis=2).reshape(n, c, 1, 1)
    return _record("global_max_pool", (x,), out_d, branch=idx)


def _global_avg_pool_backward(rec, grad_out):
    (x,) = rec.inputs
    n, c, h, w = x.dims
    g = np.broadcast_to(grad_out / (h * w), (n, c, h, w)).astype(grad_out.dtype, copy=True)
    return (g,)


def _global_max_pool_backward(rec, grad_out):
    (x,) = rec.inputs
    n, c, h, w = x.dims
    flat = np.zeros((n, c, h * w), grad_out.dtype)
    np.put_along_axis(flat, rec.saved["branch"][:, :, None], grad_out.reshape(n, c, 1), axis=2)
    return (flat.reshape(n, c, h, w),)


def up2_nearest(x):
    """Double H and W by replicating each pixel into a 2x2 block."""
    return _record("up2_nearest", (x,), np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3))


def down2_max(x):
    """Halve H and W by a 2x2, stride-2 max."""
    n, c, h, w = x.dims
    if h % 2 or w % 2:
        raise ShapeError(f"down2_max needs even spatial dims, got {h}x{w}")
    blocks = x.data.reshape(n, c, h // 2, 2, w // 2, 2)
    flat = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = flat.argmax(axis=4)  # first maximal element per block, row-major
    out_d = np.take_along_axis(flat, idx[..., None], axis=4)[..., 0]
    return _record("down2_max", (x,), np.ascontiguousarray(out_d), branch=idx)


def _up2_nearest_backward(rec, grad_out):
    n, c, h2, w2 = grad_out.shape
    g = grad_out.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))
    return (g,)


def _down2_max_backward(rec, grad_out):
    (x,) = rec.inputs
    n, c, h, w = x.dims
    flat = np.zeros((n, c, h // 2, w // 2, 4), grad_out.dtype)
    np.put_along_axis(flat, rec.saved["branch"][..., None], grad_out[..., None], axis=4)
    g = flat.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return (np.ascontiguousarray(g),)


def replicate_pad(x):
    """Grow H and W by one pixel on each side, repeating the border values.

    Filters applied after this pad see a locally constant extension of the
    image instead of an artificial step against zero, so zero-sum kernels
    stay silent on flat regions all the way to the border.
    """
    n, c, h, w = x.dims
    if h < 1 or w < 1:
        raise DomainError(f"replicate_pad needs a non-empty spatial extent, got {h}x{w}")
    out_d = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
    return _record("replicate_pad", (x,), out_d)


def _replicate_pad_backward(rec, grad_out):
    (x,) = rec.inputs
    n, c, h, w = x.dims
    g = grad_out[:, :, 1:h + 1, 1:w + 1].copy()
    # Border rows/columns received up to three replicas; fold their
    # gradients back.  When h == 1 (or w == 1) the two edge statements
    # target the same row (column), which is exactly the replica count.
    g[:, :, 0, :] += grad_out[:, :, 0, 1:w + 1]
    g[:, :, h - 1, :] += grad_out[:, :, h + 1, 1:w + 1]
    g[:, :, :, 0] += grad_out[:, :, 1:h + 1, 0]
    g[:, :, :, w - 1] += grad_out[:, :, 1:h + 1, w + 1]
    g[:, :, 0, 0] += grad_out[:, :, 0, 0]
    g[:, :, 0, w - 1] += grad_out[:, :, 0, w + 1]
    g[:, :, h - 1, 0] += grad_out[:, :, h + 1, 0]
    g[:, :, h - 1, w - 1] += grad_out[:, :, h + 1, w + 1]
    return (g,)


def channel_mean(x):
    """Average across channels, to N x 1 x H x W."""
    n, c, h, w = x.dims
    if c < 1:
        raise DomainError("channel_mean over zero channels")
    out_d = x.data.mean(axis=1, keepdims=True).astype(x.dtype, copy=False)
    return _record("channel_mean", (x,), out_d)


def _channel_mean_backward(rec, grad_out):
    (x,) = rec.inputs
    n, c, h, w = x.dims
    g = np.broadcast_to(grad_out / c, (n, c, h, w)).astype(grad_out.dtype, copy=True)
    return (g,)


def concat_channels(xs):
    """Concatenate along the channel axis, preserving input order."""
    xs = tuple(xs)
    if not xs:
        raise ContractError("concat_channels needs at least one tensor")
    _same_dtype(*xs)
    base = xs[0].dims
    for t in xs[1:]:
        if (t.dims[0], t.dims[2], t.dims[3]) != (base[0], base[2], base[3]):
            raise ContractError(
                f"concat_channels spatial/batch mismatch: {t.dims} vs {base}"
            )
    return _record("concat_channels", xs, np.concatenate([t.data for t in xs], axis=1))


def _concat_channels_backward(rec, grad_out):
    grads = []
    offset = 0
    for t in rec.inputs:
        c = t.dims[1]
        grads.append(grad_out[:, offset:offset + c].copy() if t.requires_grad else None)
        offset += c
    return tuple(grads)


def sum_all(x):
    """Sum every element into a 1 x 1 x 1 x 1 scalar tensor."""
    return _record("sum_all", (x,), x.data.sum(dtype=x.dtype).reshape(1, 1, 1, 1))


def _sum_all_backward(rec, grad_out):
    (x,) = rec.inputs
    return (np.broadcast_to(grad_out.reshape(()), x.dims).astype(grad_out.dtype, copy=True),)


# ---------------------------------------------------------------------------
# Backward dispatch
# ---------------------------------------------------------------------------

BACKWARD = {
    "conv2d": _conv_backward,
    "add": _add_backward,
    "mul": _mul_backward,
    "relu": _relu_backward,
    "sigmoid": _sigmoid_backward,
    "square": _square_backward,
    "edge_magnitude": _edge_magnitude_backward,
    "global_avg_pool": _global_avg_pool_backward,
    "global_max_pool": _global_max_pool_backward,
    "up2_nearest": _up2_nearest_backward,
    "down2_max": _down2_max_backward,
    "replicate_pad": _replicate_pad_backward,
    "channel_mean": _channel_mean_backward,
    "concat_channels": _concat_channels_backward,
    "sum_all": _sum_all_backward,
}


def backward(tape, root):
    """Accumulate d(root)/d(leaf) into the grad buffer of every leaf reached.

    ``root`` must be a 1x1x1x1 scalar produced on ``tape``.  Records are
    visited in exact reverse creation order; gradients accumulate across
    repeated calls until the leaves are explicitly zeroed.
    """
    if root.dims != (1, 1, 1, 1):
        raise ContractError(f"backward root must be a 1x1x1x1 scalar, got dims {root.dims}")
    if not any(rec.output is root for rec in tape.records):
        raise UsageError("backward root was not produced on this tape")

    # id(tensor) -> (tensor, gradient accumulated so far)
    pending = {id(root): (root, np.ones((1, 1, 1, 1), root.dtype))}
    for rec in reversed(tape.records):
        entry = pending.pop(id(rec.output), None)
        if entry is None:
            continue
        grads = BACKWARD[rec.op](rec, entry[1])
        for inp, g in zip(rec.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            held = pending.get(id(inp))
            # out-of-place: backward rules may alias one array to several
            # inputs (add with no broadcast), so never mutate
            pending[id(inp)] = (inp, g if held is None else held[1] + g)

    # whatever was never popped had no producing record on this tape: a leaf
    for leaf, g in pending.values():
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)
        leaf.grad += g
