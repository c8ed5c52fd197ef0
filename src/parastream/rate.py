"""Conditional rate adaptation for the semantic stream.

The residual hyperprior r parameterizes a Gaussian entropy model for
the quantized semantic features s. Per-patch entropies (one patch = one
spatial position, all channels) are ceiled into a discrete rate set W,
and paired per-rate FC banks stretch or shrink each patch vector to its
allotted dimension. CBR accounting converts real dimensions to complex
symbols and charges a 5-bit-per-patch side channel for the rate map.

All log quantities are base 2 (bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import Conv2d, Module, leaky_relu

RATE_SET = tuple(range(4, 129, 4))
RHO = 0.2
SIGMA_FLOOR = 1e-6
LIKELIHOOD_FLOOR = 1e-12
SIDE_BITS_PER_PATCH = 5  # ceil(log2 |W|)
_INV_LN2 = 1.0 / math.log(2.0)
_INV_ROOT2 = 1.0 / math.sqrt(2.0)


def quantize(t: Tensor, mode: str, rng=None) -> Tensor:
    """Additive U(-1/2,1/2) noise in train mode; round-half-away-from-zero
    (as a detached offset, so graphs stay connected) in test mode."""
    if mode == "train":
        if rng is None:
            raise ValueError("train-mode quantization needs an rng")
        return t + Tensor(rng.uniform(-0.5, 0.5, size=t.data.shape))
    if mode == "test":
        rounded = np.copysign(np.floor(np.abs(t.data) + 0.5), t.data)
        return t + Tensor(rounded - t.data)
    raise ValueError(f"mode must be 'train' or 'test', got {mode!r}")


def _clamp_min(t: Tensor, floor: float) -> Tensor:
    return t + ad.leaky_relu(floor - t, 0.0)


def _std_normal_cdf(x: Tensor) -> Tensor:
    return 0.5 * (1.0 + ad.erf(x * _INV_ROOT2))


def likelihood(s_tilde: Tensor, mu: Tensor, sigma: Tensor) -> Tensor:
    """P(s̃) under N(mu, sigma^2) convolved with U(-1/2,1/2): the CDF
    difference across the unit bin, floored at 1e-12."""
    upper = _std_normal_cdf((s_tilde - mu + 0.5) / sigma)
    lower = _std_normal_cdf((s_tilde - mu - 0.5) / sigma)
    return _clamp_min(upper - lower, LIKELIHOOD_FLOOR)


class HyperSynthesis(Module):
    """conv - LeakyReLU - conv mapping r̃ to (mu, sigma) for s̃."""

    def __init__(self, c_r, c_s, rng, hidden=None):
        super().__init__()
        hidden = c_r if hidden is None else hidden
        self.conv1 = Conv2d(c_r, hidden, 3, rng)
        self.conv2 = Conv2d(hidden, 2 * c_s, 3, rng)
        self.c_s = c_s

    def __call__(self, r_tilde: Tensor):
        out = self.conv2(leaky_relu(self.conv1(r_tilde)))
        mu = out[:, : self.c_s]
        sigma = ad.softplus(out[:, self.c_s :]) + SIGMA_FLOOR
        return mu, sigma


class FactorizedPrior(Module):
    """Learned per-channel CDF for the hyperprior: a 1-3-3-1 stack of
    monotone affine layers with bounded tanh gates, squashed by a final
    sigmoid. Nonnegative weights (softplus) and |gate| < 1 keep every
    channel's CDF strictly increasing."""

    _UNIT_SLOPE_RAW = math.log(math.expm1((1.0 / 9.0) ** (1.0 / 3.0)))

    def __init__(self, channels, rng):
        super().__init__()
        raw = self._UNIT_SLOPE_RAW
        self.w1 = Tensor(np.full((channels, 1, 3), raw), requires_grad=True)
        self.b1 = Tensor(rng.uniform(-0.5, 0.5, (channels, 1, 3)), requires_grad=True)
        self.a1 = Tensor(np.zeros((channels, 1, 3)), requires_grad=True)
        self.w2 = Tensor(np.full((channels, 3, 3), raw), requires_grad=True)
        self.b2 = Tensor(rng.uniform(-0.5, 0.5, (channels, 1, 3)), requires_grad=True)
        self.a2 = Tensor(np.zeros((channels, 1, 3)), requires_grad=True)
        self.w3 = Tensor(np.full((channels, 3, 1), raw), requires_grad=True)
        self.b3 = Tensor(np.zeros((channels, 1, 1)), requires_grad=True)
        self.channels = channels

    def cdf(self, x: Tensor) -> Tensor:
        """x: [B,C,L,1] -> CDF values in (0,1), same shape."""
        y = x @ ad.softplus(self.w1) + self.b1
        y = y + ad.tanh(self.a1) * ad.tanh(y)
        y = y @ ad.softplus(self.w2) + self.b2
        y = y + ad.tanh(self.a2) * ad.tanh(y)
        return ad.sigmoid(y @ ad.softplus(self.w3) + self.b3)

    def __call__(self, r_tilde: Tensor) -> Tensor:
        """Elementwise likelihood of r̃ [B,C,H,W] under the prior."""
        batch, channels, height, width = r_tilde.data.shape
        if channels != self.channels:
            raise ValueError(
                f"prior built for {self.channels} channels, got {channels}"
            )
        flat = r_tilde.reshape(batch, channels, height * width, 1)
        p = self.cdf(flat + 0.5) - self.cdf(flat - 0.5)
        return _clamp_min(p, LIKELIHOOD_FLOOR).reshape(
            batch, channels, height, width
        )


def rate_term(s_tilde, r_tilde, mu, sigma, prior: FactorizedPrior) -> Tensor:
    """Total bits: -sum log2 p(s̃ | entropy model) - sum log2 p(r̃ | prior)."""
    p_s = likelihood(s_tilde, mu, sigma)
    p_r = prior(r_tilde)
    return -(ad.log(p_s).sum() + ad.log(p_r).sum()) * _INV_LN2


@dataclass
class RateAllocation:
    """Per-patch entropies alpha [B,H,W], their ceilings into W, and the
    count of patches clamped at max(W)."""

    alpha: np.ndarray
    alpha_bar: np.ndarray
    clamped: int
    rate_set: tuple

    @property
    def k_s(self):
        return self.alpha.shape[1] * self.alpha.shape[2]

    def totals(self):
        """Sum of allotted dimensions per image, [B]."""
        return self.alpha_bar.sum(axis=(1, 2))

    def indices(self):
        """alpha_bar as indices into the rate set, [B,H,W]."""
        return np.searchsorted(self.rate_set, self.alpha_bar)


def allocate_rates(p_s, rho=RHO, rate_set=RATE_SET) -> RateAllocation:
    """Ceiling allocation: alpha_i = -rho * sum_channels log2 p; the patch
    rate is the smallest w in the set with w >= alpha_i, clamped at the
    largest w (clamp occurrences counted, not raised)."""
    p = p_s.data if isinstance(p_s, Tensor) else np.asarray(p_s)
    rates = np.asarray(rate_set)
    if p.ndim != 4:
        raise ValueError("expected likelihoods shaped [B,C,H,W]")
    alpha = -rho * np.log2(p).sum(axis=1)
    idx = np.searchsorted(rates, alpha, side="left")
    clamped = int((idx == len(rates)).sum())
    alpha_bar = rates[np.minimum(idx, len(rates) - 1)]
    return RateAllocation(
        alpha=alpha, alpha_bar=alpha_bar, clamped=clamped, rate_set=tuple(rate_set)
    )


class RateBanks(Module):
    """Paired per-rate FC banks plus learned rate tokens.

    The encoder adds the token of the patch's rate to the patch vector
    and maps it through the bank of that rate; the decoder bank maps the
    received reals back to the embedding dimension. Rate W[r] owns
    columns starts[r]:starts[r]+W[r] of enc_weight [C, sum(W)] and
    enc_bias, the same rows of dec_weight, and dec_bias[r]. Banks start
    as truncated identities, so the square case is a perfect round
    trip; tokens start at zero. Nothing is drawn from `rng`.
    """

    def __init__(self, c_s, rng, rate_set=RATE_SET):
        super().__init__()
        self.c_s = c_s
        self.widths = np.asarray(rate_set)
        self.starts = np.cumsum(self.widths) - self.widths
        eye = np.concatenate([np.eye(c_s, w) for w in self.widths], axis=1)
        self.tokens = Tensor(np.zeros((self.widths.size, c_s)), requires_grad=True)
        self.enc_weight = Tensor(eye, requires_grad=True)
        self.enc_bias = Tensor(np.zeros(eye.shape[1]), requires_grad=True)
        self.dec_weight = Tensor(eye.T.copy(), requires_grad=True)
        self.dec_bias = Tensor(np.zeros((self.widths.size, c_s)), requires_grad=True)

    def _layout(self, alpha_bar):
        """Per patch of a [B,H,W] grid, raster order: its rate index; per
        slot j < widest, whether it holds a real (True entries, row-major,
        are the stream) and its bank column/row starts[idx] + j."""
        idx = np.searchsorted(self.widths, alpha_bar.reshape(-1))
        widths = self.widths[idx]
        slot = np.arange(widths.max())
        sizes = widths.reshape(alpha_bar.shape[0], -1).sum(axis=1)
        return idx, sizes, slot < widths[:, None], self.starts[idx][:, None] + slot

    def encode(self, s_tilde: Tensor, alloc: RateAllocation):
        """Flatten patches, add rate tokens, stretch each to its rate.

        Returns one real-valued Tensor [sum(alpha_bar)] per image, in
        raster patch order.
        """
        batch, channels, height, width = s_tilde.data.shape
        if channels != self.c_s:
            raise ValueError(f"banks built for {self.c_s} channels, got {channels}")
        if alloc.alpha_bar.shape != (batch, height, width):
            raise ValueError("allocation grid does not match the feature grid")
        idx, sizes, mask, bank = self._layout(alloc.alpha_bar)
        patches = s_tilde.transpose(0, 2, 3, 1).reshape(idx.size, channels)
        every_rate = (patches + self.tokens[idx]) @ self.enc_weight + self.enc_bias
        reals = every_rate[np.nonzero(mask)[0], bank[mask]]
        return [reals[end - size : end] for size, end in zip(sizes, np.cumsum(sizes))]

    def decode(self, received, alpha_bar: np.ndarray) -> Tensor:
        """Inverse-map a batch of received reals to a [B,C,H,W] grid.

        received holds one real Tensor per image, as encode returns
        them, and alpha_bar is the [B,H,W] grid of allotted dimensions;
        a length mismatch between any image's stream and its
        sum(alpha_bar) is a hard error.
        """
        idx, sizes, mask, bank = self._layout(alpha_bar)
        got, expected = [v.data.shape for v in received], [(int(n),) for n in sizes]
        if got != expected:
            raise ValueError(f"semantic payload holds {got} reals, allocation {expected}")
        # empty slots read the zero appended to the stream, times bank row 0
        slots = np.where(mask, np.cumsum(mask).reshape(mask.shape) - 1, mask.sum())
        reals = ad.concat([*received, np.zeros(1)])[slots].reshape(idx.size, 1, -1)
        features = reals @ self.dec_weight[np.where(mask, bank, 0)]
        grid = features.reshape(idx.size, self.c_s) + self.dec_bias[idx]
        return grid.reshape(*alpha_bar.shape, self.c_s).transpose(0, 3, 1, 2)


def cbr_real_dims(alloc_totals, m: int, k: int) -> float:
    """Diagnostic variant counting semantic real dimensions directly."""
    if k == 0:
        raise ValueError("source dimension k must be positive")
    return (int(alloc_totals) + m) / k


def side_channel_symbols(k_s: int) -> int:
    """QPSK symbols to convey the per-patch rate map out of band."""
    return math.ceil(SIDE_BITS_PER_PATCH * k_s / 2)


def pack_rate_indices(indices) -> bytes:
    """Pack rate-set indices (5 bits each, big-endian) into bytes."""
    values = np.asarray(indices).reshape(-1)
    if not np.all((values >= 0) & (values < 32)):
        raise ValueError("rate index out of 5-bit range")
    bits = np.unpackbits(values.astype(np.uint8)[:, None], axis=1)[:, 3:]
    return np.packbits(bits.reshape(-1)).tobytes()


def unpack_rate_indices(blob: bytes, count: int) -> np.ndarray:
    """Inverse of pack_rate_indices for `count` indices."""
    if len(blob) * 8 < count * SIDE_BITS_PER_PATCH:
        raise ValueError("side-channel blob too short")
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
    fields = bits[: count * SIDE_BITS_PER_PATCH].reshape(count, SIDE_BITS_PER_PATCH)
    return fields @ (1 << np.arange(SIDE_BITS_PER_PATCH - 1, -1, -1))
