"""Semantic encoder: stacked residual-enhanced modules.

Each module halves the spatial dims of both the image path and the
residual path, gates the image features with an attention map computed
from the residual features, and (except in the last module) mixes the
enhanced image features back into the residual path through a 1x1 conv.
The stack maps (x, x_r) to semantic features s and a hyperprior r, both
at 1/2^N scale.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .layers import Conv2d, Module, ModuleList, leaky_relu

DEFAULT_WIDTHS = (16, 32, 64, 32)


class Down(Module):
    """Two 3x3 convs (stride 2 then stride 1), LeakyReLU after each."""

    def __init__(self, c_in, c_out, rng):
        super().__init__()
        self.conv1 = Conv2d(c_in, c_out, 3, rng, stride=2)
        self.conv2 = Conv2d(c_out, c_out, 3, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return leaky_relu(self.conv2(leaky_relu(self.conv1(x))))


class Rem(Module):
    """Residual-enhanced module.

    y_next = y_hat + y_hat * sigmoid(conv(r_hat)); the residual path
    continues as a 1x1 conv over the channel-concatenated (r_hat,
    y_next), or as r_hat itself when this is the last module.
    """

    def __init__(self, c_in, c_out, rng, last=False):
        super().__init__()
        self.down_y = Down(c_in, c_out, rng)
        self.down_r = Down(c_in, c_out, rng)
        self.attention = Conv2d(c_out, c_out, 3, rng)
        if not last:
            self.mix = Conv2d(2 * c_out, c_out, 1, rng)
        self.last = last

    def __call__(self, y: Tensor, r: Tensor):
        if y.data.shape[2:] != r.data.shape[2:]:
            raise DimensionError(
                f"image path {y.data.shape[2:]} and residual path "
                f"{r.data.shape[2:]} must share spatial dims"
            )
        y_hat = self.down_y(y)
        r_hat = self.down_r(r)
        gate = ad.sigmoid(self.attention(r_hat))
        y_next = y_hat + y_hat * gate
        if self.last:
            return y_next, r_hat
        r_next = self.mix(ad.concat([r_hat, y_next], axis=1))
        return y_next, r_next


class SemanticEncoder(Module):
    """N-module stack; widths[-1] is the semantic channel count C_s."""

    def __init__(self, rng, widths=DEFAULT_WIDTHS, c_in=3):
        super().__init__()
        self.widths = tuple(widths)
        self.c_in = c_in
        rems = []
        prev = c_in
        for i, width in enumerate(self.widths):
            rems.append(Rem(prev, width, rng, last=(i == len(self.widths) - 1)))
            prev = width
        self.rems = ModuleList(rems)

    @property
    def scale(self):
        return 2 ** len(self.widths)

    def check_image(self, shape):
        """Raise DimensionError unless `shape` is an H x W x c_in image
        with H and W multiples of the scale."""
        if tuple(shape[2:]) != (self.c_in,) or any(n % self.scale for n in shape[:2]):
            raise DimensionError(
                f"semantic input must be H x W x {self.c_in} with H and W "
                f"multiples of {self.scale}, got {tuple(shape)}"
            )

    def __call__(self, x: Tensor, x_r: Tensor):
        if x.data.shape != x_r.data.shape:
            raise DimensionError(
                f"image {x.data.shape} and residual {x_r.data.shape} must match"
            )
        y, r = x, x_r
        for rem in self.rems:
            y, r = rem(y, r)
        return y, r


def image_to_tensor(img: np.ndarray) -> Tensor:
    """[H,W,C] float image in [0,1] to a constant [1,C,H,W] Tensor."""
    return Tensor(np.transpose(img, (2, 0, 1))[None])


def batch_to_tensor(imgs) -> Tensor:
    """Sequence of [H,W,C] images to one [B,C,H,W] Tensor."""
    return Tensor(np.stack([np.transpose(i, (2, 0, 1)) for i in imgs]))


def tensor_to_image(t) -> np.ndarray:
    """[1,C,H,W] Tensor or array back to an [H,W,C] float image."""
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    return np.transpose(data[0], (1, 2, 0))
