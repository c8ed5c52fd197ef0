"""Parameter containers and the layer types used by the semantic branch.

A ``Module`` tracks parameter tensors and child modules by attribute
assignment, enough for optimizers and checkpointing; a non-empty tuple
of modules assigned to ``name`` registers its items as the children
``name.0``, ``name.1``, ... in order, so a tuple serves as a module
list. ``frozen`` keeps parameters out of the backward graph for the
length of a block, for staged training and graph-free inference. A
layer runs in the dtype of its input, on its float64 parameters as
``Tensor.astype`` gives them: the parameter itself, or a cast it keeps
per weight state, whose gradient flows back as float64 (the master
weights of Micikevicius et al., "Mixed Precision Training", ICLR 2018).
Initialization follows the package-wide conventions: Glorot-uniform
weights, zero biases, GDN at beta=1 / gamma=0.1*I, PReLU slopes at 0.25.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LEAKY_SLOPE = 0.01
GDN_FLOOR = 1e-6
# ConvTranspose2d exactly doubles the spatial dims: (h - 1) * 2 - 2 + 4 = 2h
UP_KERNEL, UP_STRIDE, UP_PADDING = 4, 2, 1


class Module:
    """Minimal parameter container with named traversal."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        """Register a grad-requiring Tensor as a parameter, a Module as a
        child, and each item of a non-empty tuple of Modules as the child
        ``name.<index>``. A tuple registers once, at assignment."""
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        elif isinstance(value, tuple) and value and all(isinstance(m, Module) for m in value):
            for i, item in enumerate(value):
                self._children[f"{name}.{i}"] = item
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, param in self._params.items():
            yield prefix + name, param
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        """The tensors of ``named_parameters``, in its order."""
        return [param for _, param in self.named_parameters()]

    def zero_grad(self):
        for param in self.parameters():
            param.grad = None

    def state_dict(self):
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state):
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)[:4]}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs "
                    f"model {param.data.shape}"
                )
            param.data = value.copy()


@contextlib.contextmanager
def frozen(params):
    """Clear ``requires_grad`` on ``params`` inside a ``with`` block and
    restore each flag on exit. Ops run inside the block record no graph
    edge into a frozen tensor, so no backward pass through them, inside
    the block or after it, fills its grad."""
    saved = [(p, p.requires_grad) for p in params]
    for p, _ in saved:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in saved:
            p.requires_grad = flag


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Conv2d(Module):
    """Biased convolution, zero-padded by kernel // 2 on every side."""

    def __init__(self, c_in, c_out, kernel, rng, stride=1):
        super().__init__()
        self.stride = stride
        self.padding = kernel // 2
        fan = kernel * kernel
        self.weight = Tensor(
            glorot_uniform(rng, (c_out, c_in, kernel, kernel), c_in * fan, c_out * fan),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        weight, bias = (p.astype(x.data.dtype) for p in (self.weight, self.bias))
        return ad.conv2d(x, weight, bias, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    """Biased transpose convolution that doubles the spatial dims
    (kernel UP_KERNEL, stride UP_STRIDE, padding UP_PADDING)."""

    def __init__(self, c_in, c_out, rng):
        super().__init__()
        fan = UP_KERNEL * UP_KERNEL
        self.weight = Tensor(
            glorot_uniform(
                rng, (c_in, c_out, UP_KERNEL, UP_KERNEL), c_in * fan, c_out * fan
            ),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        weight, bias = (p.astype(x.data.dtype) for p in (self.weight, self.bias))
        return ad.conv_transpose2d(x, weight, bias, stride=UP_STRIDE, padding=UP_PADDING)


class Linear(Module):
    """Affine map on the trailing axis."""

    def __init__(self, n_in, n_out, rng):
        super().__init__()
        self.weight = Tensor(
            glorot_uniform(rng, (n_in, n_out), n_in, n_out), requires_grad=True
        )
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight.astype(x.data.dtype) + self.bias.astype(x.data.dtype)


class Embedding(Module):
    """Integer-index lookup table, initialized from U(-0.1, 0.1)."""

    def __init__(self, count, dim, rng):
        super().__init__()
        self.table = Tensor(rng.uniform(-0.1, 0.1, size=(count, dim)), requires_grad=True)

    def __call__(self, index) -> Tensor:
        return self.table[np.asarray(index, dtype=np.intp)]


class GDN(Module):
    """(Inverse) generalized divisive normalization with positivity enforced
    by the square-plus-floor reparameterization."""

    def __init__(self, channels, inverse=False):
        super().__init__()
        self.inverse = inverse
        self.beta_raw = Tensor(np.full(channels, np.sqrt(1.0 - GDN_FLOOR)), requires_grad=True)
        gamma0 = 0.1 * np.eye(channels)
        self.gamma_raw = Tensor(np.sqrt(np.maximum(gamma0 - GDN_FLOOR, 0.0)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        beta_raw, gamma_raw = (p.astype(x.data.dtype) for p in (self.beta_raw, self.gamma_raw))
        beta = beta_raw * beta_raw + GDN_FLOOR
        gamma = gamma_raw * gamma_raw + GDN_FLOOR
        return ad.gdn(x, beta, gamma, inverse=self.inverse)


class PReLU(Module):
    """Per-channel parametric rectifier for [B,C,H,W] tensors."""

    def __init__(self, channels):
        super().__init__()
        self.slope = Tensor(np.full(channels, 0.25), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        positive = ad.leaky_relu(x, 0.0)
        negative = x - positive
        return positive + self.slope.astype(x.data.dtype).reshape(1, -1, 1, 1) * negative


def leaky_relu(x: Tensor) -> Tensor:
    return ad.leaky_relu(x, LEAKY_SLOPE)
