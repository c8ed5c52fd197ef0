"""Reverse-mode automatic differentiation on dense numpy arrays.

The engine is deliberately small: a node holds its operands and their
local gradients, and only the operations the semantic branch needs
(elementwise arithmetic, matmul, whole-tensor sum and mean, reshaping,
indexing, joining along an existing axis, 2-D convolution and its
adjoint, and a handful of activations). There is no GPU path and no
broadcasting beyond what the layers in this package use.

Every op gives ``Tensor._from_op`` its value and, per operand, a pair of
the operand and its local gradient: a function from the output gradient
g to that operand's share of it, its vector-Jacobian product (Baydin et
al., JMLR 2018). Only pairs whose operand requires grad when the op runs
become graph edges. ``Tensor.backward`` alone calls a local gradient,
reduces a broadcast to the operand's shape and accumulates the result,
keeping or copying the array as the op's ``owned`` flag says.

One patch kernel (``_im2col``, then a GEMM) and its adjoint serve both
convolutions, forward and backward: each is one op's forward pass and
the other's input gradient. At stride 1 the adjoint is the patch kernel
again, with the kernels flipped and transposed and the padding k-1-p (a
crop where that is negative), so no scatter runs (Dumoulin & Visin,
arXiv 1603.07285). Above stride 1 it is a GEMM, then the ``_col2im``
scatter. Both weight gradients sum one GEMM per image against the patch
matrix.

Dtypes: a tensor holds float32 or float64 data. Float32 data stays
float32 and any other dtype becomes float64, so an op's output has the
dtype NumPy promotes its operands to. A Python scalar operand takes the
dtype of the tensor it meets (a weak scalar, as in NumPy 2's NEP 50), so
it neither widens float32 work nor rounds float64 work: a float64 graph
gives the same bits as an engine that is float64 throughout. Layers
take their float64 parameters through ``Tensor.astype``, which crosses
between the dtypes inside a graph and keeps its last cast. Gradient
checks run in float64; training and ``pipeline.transmit_image`` run the
encoder and decoder in float32 (see ``pipeline.send_batch``).
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = [
    "AutodiffError",
    "DimensionError",
    "Tensor",
    "concat",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "softplus",
    "erf",
    "leaky_relu",
    "conv2d",
    "conv_transpose2d",
    "gdn",
]


class AutodiffError(RuntimeError):
    """Graph misuse: non-scalar backward, detached loss, repeated backward."""


class DimensionError(ValueError):
    """Operand shapes cannot be reconciled; the message names the axis."""


_FLOAT32, _FLOAT64 = np.dtype(np.float32), np.dtype(np.float64)


class Tensor:
    """Dense float32 or float64 array plus the graph edges of the op that
    made it: ``_edges``, its (operand, local gradient) pairs in operand
    order, and ``_owned`` (see :func:`_accumulate`), read by ``backward``.

    ``data`` keeps float32 as float32; any other dtype becomes float64.
    ``version`` counts in-place writes to ``data``. Code that writes into
    a parameter's ``data`` in place must bump it, as ``training.Adam.step``
    does; code that rebinds ``data`` (``layers.Module.load_state_dict``,
    ``p.data = ...``) need not. ``astype`` keeps its last cast and checks
    it against the array itself and this version, so an in-place write
    that skips the bump leaves the cast stale.
    """

    __slots__ = ("data", "grad", "requires_grad", "version", "_edges", "_owned", "_spent",
                 "_cast")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype is not _FLOAT64 and data.dtype is not _FLOAT32:
            data = data.astype(np.float64)
        self.data = data
        self.version = 0
        self.grad = None
        self.requires_grad = requires_grad
        self._edges = ()  # _owned is set with the edges, by _from_op
        self._spent = False
        self._cast = None  # (source array, its version, cast tensor), see astype

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _from_op(data, edges, owned: bool = True):
        """Output of an op with its (operand, local gradient) pairs. Only
        pairs whose operand requires grad now, when the op runs, become
        edges, whatever the flags are at backward; ``owned`` is False when
        a local gradient returns g or a view of it."""
        out = Tensor(data)
        edges = [edge for edge in edges if edge[0].requires_grad]
        if edges:
            out.requires_grad = True
            out._edges = edges
            out._owned = owned
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def astype(self, dtype) -> Tensor:
        """These values as ``dtype`` (float32 or float64); the tensor
        itself when its dtype already matches. The gradient flows back
        cast to this tensor's dtype. The cast tensor is kept while ``data``
        is the same array at the same ``version``, and handed out itself
        while this tensor needs no gradient."""
        source = self.data.dtype
        if source == dtype:
            return self
        kept = self._cast
        if kept is None or kept[0] is not self.data or kept[1] != self.version:
            kept = self._cast = (self.data, self.version, Tensor(self.data.astype(dtype)))
        if not self.requires_grad:
            return kept[2]
        return Tensor._from_op(kept[2].data, [(self, lambda g: g.astype(source))])

    # -- backward pass ---------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every reachable tensor that requires it.

        Only valid on scalar outputs of a connected graph. A second call
        on the same graph raises; rebuild the forward pass instead.
        """
        if self.data.size != 1:
            raise AutodiffError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise AutodiffError("loss is detached from every trainable tensor")
        if self._spent:
            raise AutodiffError(
                "backward() already ran on this graph; rebuild the forward pass"
            )
        order = []
        seen = set()
        pending = [(self, False)]
        while pending:
            node, expanded = pending.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            pending.append((node, True))
            for operand, _ in node._edges:
                if id(operand) not in seen:
                    pending.append((operand, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            for operand, local_grad in node._edges:
                g = _unbroadcast(local_grad(node.grad), operand.data.shape)
                _accumulate(operand, g, node._owned)
        self._spent = True

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other, self)
        return Tensor._from_op(
            self.data + other.data, [(self, lambda g: g), (other, lambda g: g)], owned=False
        )

    __radd__ = __add__

    def __neg__(self):
        return Tensor._from_op(-self.data, [(self, np.negative)])

    def __sub__(self, other):
        return self + (-_wrap(other, self))

    def __rsub__(self, other):
        return _wrap(other, self) + (-self)

    def __mul__(self, other):
        other = _wrap(other, self)
        return Tensor._from_op(
            self.data * other.data,
            [(self, lambda g: g * other.data), (other, lambda g: g * self.data)],
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other, self)
        return Tensor._from_op(
            self.data / other.data,
            [
                (self, lambda g: g / other.data),
                (other, lambda g: -g * self.data / (other.data * other.data)),
            ],
        )

    def __rtruediv__(self, other):
        return _wrap(other, self) / self

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return Tensor._from_op(
            self.data ** exponent, [(self, lambda g: g * exponent * self.data ** (exponent - 1))]
        )

    def __matmul__(self, other):
        other = _wrap(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise DimensionError("matmul operands must have at least 2 dims")
        return Tensor._from_op(
            np.matmul(self.data, other.data),
            [
                (self, lambda g: np.matmul(g, np.swapaxes(other.data, -1, -2))),
                (other, lambda g: np.matmul(np.swapaxes(self.data, -1, -2), g)),
            ],
        )

    # -- shape manipulation -------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.data.shape
        return Tensor._from_op(
            self.data.reshape(shape), [(self, lambda g: g.reshape(src_shape))], owned=False
        )

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        return Tensor._from_op(
            self.data.transpose(axes), [(self, lambda g: g.transpose(inverse))], owned=False
        )

    def __getitem__(self, index):
        src_shape = self.data.shape

        def scatter(g):
            full = np.zeros(src_shape, self.data.dtype)
            np.add.at(full, index, g)
            return full

        return Tensor._from_op(self.data[index], [(self, scatter)])

    # -- reductions -----------------------------------------------------------

    def sum(self):
        src_shape = self.data.shape
        return Tensor._from_op(
            self.data.sum(), [(self, lambda g: np.broadcast_to(g, src_shape))], owned=False
        )

    def mean(self):
        return self.sum() * (1.0 / self.data.size)


def _wrap(value, like: Tensor | None = None) -> Tensor:
    """value as a Tensor. A Python scalar that meets the tensor ``like``
    takes its dtype."""
    if isinstance(value, Tensor):
        return value
    if like is not None and isinstance(value, (int, float)):
        return Tensor(np.array(value, like.data.dtype))
    return Tensor(value)


def _accumulate(t: Tensor, g: np.ndarray, owned: bool):
    """Add g into t.grad. A first gradient becomes an array of t's shape
    and dtype: g itself when the op owns it (owned=True: an array the
    local gradient built, which no other tensor sees) and g is an ndarray
    of that shape and dtype, else a copy of g broadcast and cast to them.
    So an op that mixes float32 and float64 operands gives each operand a
    gradient of its own dtype, and the NumPy scalar an op on 0-d arrays
    returns becomes a 0-d array."""
    if t.grad is None:
        if owned and type(g) is np.ndarray and g.shape == t.data.shape and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = np.array(np.broadcast_to(g, t.data.shape), dtype=t.data.dtype)
    else:
        t.grad += g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape, if it differs."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- joining ------------------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    """Join along an existing axis; each operand's local gradient is its
    slice of g."""
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % out_data.ndim)
    edges, start = [], 0
    for t in tensors:
        stop = start + t.data.shape[axis]
        edges.append((t, lambda g, piece=lead + (slice(start, stop),): g[piece]))
        start = stop
    return Tensor._from_op(out_data, edges, owned=False)


# -- elementwise functions -----------------------------------------------------


def log(t: Tensor) -> Tensor:
    t = _wrap(t)
    return Tensor._from_op(np.log(t.data), [(t, lambda g: g / t.data)])


def sqrt(t: Tensor) -> Tensor:
    t = _wrap(t)
    out_data = np.sqrt(t.data)
    return Tensor._from_op(out_data, [(t, lambda g: g * 0.5 / out_data)])


def tanh(t: Tensor) -> Tensor:
    t = _wrap(t)
    out_data = np.tanh(t.data)
    return Tensor._from_op(out_data, [(t, lambda g: g * (1.0 - out_data * out_data))])


def sigmoid(t: Tensor) -> Tensor:
    t = _wrap(t)
    out_data = _sp.expit(t.data)
    return Tensor._from_op(out_data, [(t, lambda g: g * out_data * (1.0 - out_data))])


def softplus(t: Tensor) -> Tensor:
    """log(1 + e^x), evaluated as logaddexp for numerical safety."""
    t = _wrap(t)
    return Tensor._from_op(np.logaddexp(0.0, t.data), [(t, lambda g: g * _sp.expit(t.data))])


_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


def erf(t: Tensor) -> Tensor:
    t = _wrap(t)
    return Tensor._from_op(
        _sp.erf(t.data), [(t, lambda g: g * _TWO_OVER_SQRT_PI * np.exp(-t.data * t.data))]
    )


def leaky_relu(t: Tensor, slope: float = 0.01) -> Tensor:
    t = _wrap(t)
    positive = t.data > 0
    out_data = np.where(positive, t.data, slope * t.data)
    return Tensor._from_op(out_data, [(t, lambda g: g * np.where(positive, 1.0, slope))])


# -- 2-D convolution and its adjoint ------------------------------------------


def _im2col(a: np.ndarray, k: int, stride: int, padding: int, h: int, w: int):
    """[B,C,H,W] zero-padded by ``padding`` on each side, or cropped by
    ``-padding`` when it is negative -> the [B, C*k*k, h*w] matrix of its
    k x k patches at ``stride``: one read-only strided view of the padded
    or cropped array, which the reshape copies unless it already is that
    matrix. The view stays in bounds: every caller sizes h and w so that
    (h - 1) * stride + k never exceeds the padded height, nor
    (w - 1) * stride + k its width."""
    if padding > 0:
        padded = np.zeros(a.shape[:2] + tuple(n + 2 * padding for n in a.shape[2:]), a.dtype)
        padded[:, :, padding:-padding, padding:-padding] = a
        a = padded
    elif padding < 0:
        a = a[:, :, -padding:padding, -padding:padding]
    s_h, s_w = a.strides[2:]
    windows = np.lib.stride_tricks.as_strided(
        a, a.shape[:2] + (k, k, h, w), a.strides + (stride * s_h, stride * s_w), writeable=False
    )
    return windows.reshape(a.shape[0], a.shape[1] * k * k, h * w)


def _col2im(cols, channels, h, w, k, stride, padding, h_cols, w_cols):
    """Adjoint of _im2col: scatter-add the [B, channels*k*k,
    h_cols*w_cols] patches onto the padded grid and crop it to h x w.
    Only strides above 1 need it; see _adjoint."""
    cols = cols.reshape(cols.shape[0], channels, k, k, h_cols, w_cols)
    grid = np.zeros(cols.shape[:2] + (h + 2 * padding, w + 2 * padding), cols.dtype)
    h_span, w_span = stride * h_cols, stride * w_cols
    for i in range(k):
        for j in range(k):
            grid[:, :, i : i + h_span : stride, j : j + w_span : stride] += cols[:, :, i, j]
    return grid[:, :, padding : padding + h, padding : padding + w]


def _adjoint(a: np.ndarray, weight: np.ndarray, stride: int, padding: int, h: int, w: int):
    """The adjoint of the patch kernel: [B, c_in, H, W] through
    [c_in, c_out, k, k] kernels to [B, c_out, h, w], without bias. It is
    conv_transpose2d's forward pass and conv2d's input gradient. At stride
    1 it is the patch kernel itself, a cross-correlation with the kernels
    flipped in both spatial axes and transposed to [c_out, c_in, k, k] at
    padding k - 1 - padding (a crop where that is negative): one _im2col
    and one GEMM, with no scatter. Above stride 1 it is a GEMM, then
    _col2im."""
    c_in, c_out, k, _ = weight.shape
    batch, _, h_a, w_a = a.shape
    if stride == 1:
        flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_out, c_in * k * k)
        cols = _im2col(a, k, 1, k - 1 - padding, h, w)
        return np.matmul(flipped, cols).reshape(batch, c_out, h, w)
    cols = np.matmul(weight.reshape(c_in, c_out * k * k).T, a.reshape(batch, c_in, h_a * w_a))
    return _col2im(cols, c_out, h, w, k, stride, padding, h_a, w_a)


def _conv_operands(op: str, x, weight, bias, x_axis: int):
    """x, weight and bias as tensors, checked: 4-D input and weight, a square kernel,
    x's channels on weight axis ``x_axis`` and a bias as long as the other axis."""
    x, weight = _wrap(x), _wrap(weight)
    if x.data.ndim != 4:
        raise DimensionError(f"{op} input must be 4-D, got {x.data.ndim}-D")
    if weight.data.ndim != 4:
        raise DimensionError(f"{op} weight must be 4-D, got {weight.data.ndim}-D")
    k, k2 = weight.data.shape[2:]
    if k != k2:
        raise DimensionError(f"{op} kernel must be square, got {k}x{k2}")
    c_x, c_other = weight.data.shape[x_axis], weight.data.shape[1 - x_axis]
    if x.data.shape[1] != c_x:
        raise DimensionError(
            f"{op} channel axis mismatch: input has {x.data.shape[1]} channels, "
            f"weight expects {c_x}"
        )
    if bias is not None:
        bias = _wrap(bias)
        if bias.data.shape != (c_other,):
            raise DimensionError(
                f"{op} bias axis mismatch: expected ({c_other},), got {bias.data.shape}"
            )
    return x, weight, bias


def _weight_grad(a, cols, shape):
    """The weight gradient: a[b] @ cols[b]ᵀ summed in batch order, one GEMM
    per image, as an array of ``shape``."""
    gw = a[0] @ cols[0].T
    for i in range(1, len(a)):
        gw += a[i] @ cols[i].T
    return gw.reshape(shape)


def _conv_output(out_data, edges, bias) -> Tensor:
    """out_data plus the bias, whose edge follows those into x and weight."""
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1)
        edges.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return Tensor._from_op(out_data, edges)


def conv2d(x: Tensor, weight: Tensor, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate [B,C_in,H,W] with [C_out,C_in,k,k] kernels."""
    x, weight, bias = _conv_operands("conv2d", x, weight, bias, x_axis=1)
    c_out, c_in, k, _ = weight.data.shape
    if k % 2 != 1:
        raise DimensionError(f"conv2d kernel size must be odd, got {k}")
    batch, _, h_in, w_in = x.data.shape
    h_out = (h_in + 2 * padding - k) // stride + 1
    w_out = (w_in + 2 * padding - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise DimensionError(f"conv2d output would be empty for spatial input {h_in}x{w_in}")
    kernels = weight.data
    w_mat = kernels.reshape(c_out, c_in * k * k)
    cols = _im2col(x.data, k, stride, padding, h_out, w_out)
    out_data = np.matmul(w_mat, cols).reshape(batch, c_out, h_out, w_out)

    edges = [
        (x, lambda g: _adjoint(g, kernels, stride, padding, h_in, w_in)),
        (weight, lambda g: _weight_grad(g.reshape(batch, c_out, -1), cols, kernels.shape)),
    ]
    return _conv_output(out_data, edges, bias)


def conv_transpose2d(
    x: Tensor, weight: Tensor, bias=None, stride: int = 1, padding: int = 0
) -> Tensor:
    """Adjoint of conv2d. ``weight`` is [C_in, C_out, k, k] with C_in the
    channel count of ``x``; sharing one array between conv2d (as
    [C_out, C_in, k, k]) and this op realizes the transpose pair."""
    x, weight, bias = _conv_operands("conv_transpose2d", x, weight, bias, x_axis=0)
    c_in, c_out, k, _ = weight.data.shape
    batch, _, h_in, w_in = x.data.shape
    h_out = (h_in - 1) * stride - 2 * padding + k
    w_out = (w_in - 1) * stride - 2 * padding + k
    if h_out < 1 or w_out < 1:
        raise DimensionError(
            f"conv_transpose2d output would be empty for spatial input {h_in}x{w_in}"
        )
    w_mat = weight.data.reshape(c_in, c_out * k * k)
    x_flat = x.data.reshape(batch, c_in, h_in * w_in)
    out_data = _adjoint(x.data, weight.data, stride, padding, h_out, w_out)

    def g_cols(g):
        return _im2col(g, k, stride, padding, h_in, w_in)

    edges = [
        (x, lambda g: np.matmul(w_mat, g_cols(g)).reshape(x.data.shape)),
        (weight, lambda g: _weight_grad(x_flat, g_cols(g), weight.data.shape)),
    ]
    return _conv_output(out_data, edges, bias)


# -- composite ops used across the semantic branch ----------------------------


def gdn(x: Tensor, beta: Tensor, gamma: Tensor, inverse: bool = False) -> Tensor:
    """Generalized divisive normalization over the channel axis.

    y_i = x_i / sqrt(beta_i + sum_j gamma_ij * x_j^2); the inverse flag
    multiplies by the root instead of dividing (IGDN).
    """
    x, beta, gamma = _wrap(x), _wrap(beta), _wrap(gamma)
    channels = x.data.shape[1]
    if beta.data.shape != (channels,):
        raise DimensionError(
            f"gdn beta axis mismatch: expected ({channels},), got {beta.data.shape}"
        )
    if gamma.data.shape != (channels, channels):
        raise DimensionError(
            f"gdn gamma axis mismatch: expected ({channels}, {channels}), "
            f"got {gamma.data.shape}"
        )
    if np.any(beta.data <= 0):
        raise ValueError("gdn beta must be strictly positive after flooring")
    batch, _, height, width = x.data.shape
    x_flat = x.reshape(batch, channels, height * width)
    norm = gamma @ (x_flat * x_flat) + beta.reshape(channels, 1)
    root = sqrt(norm).reshape(batch, channels, height, width)
    if inverse:
        return x * root
    return x / root
