"""Semantic decoder: multi-scale latents from the conventional
reconstruction, fused with the semantic features by SNR-conditioned
per-pixel aggregation, then upsampled back to an image.

The latent pyramid u_0..u_L comes from a dense entry block followed by
L stride-2 stages. Reconstruction starts at v_0 = s_hat and repeats
v_l = up(aggregate(v_{l-1}, u_{L+1-l}, snr)) until v_L is the image.
Each aggregation stage owns its parameters; nothing is shared between
scales.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .encoder import IMAGE_CHANNELS
from .layers import (
    GDN,
    Conv2d,
    ConvTranspose2d,
    Embedding,
    Linear,
    Module,
    PReLU,
    glorot_uniform,
    leaky_relu,
)

LATENT_WIDTHS = (16, 32, 64, 64, 32)
SNR_LEVELS = 21
SNR_EMBED_DIM = 32
RESIDUAL_SCALE = 0.2


class DenseBlock(Module):
    """Three convs with dense connections and a scaled residual."""

    def __init__(self, channels, growth, rng):
        super().__init__()
        self.conv1 = Conv2d(channels, growth, 3, rng)
        self.conv2 = Conv2d(channels + growth, growth, 3, rng)
        self.conv3 = Conv2d(channels + 2 * growth, channels, 3, rng)

    def __call__(self, x: Tensor) -> Tensor:
        g1 = leaky_relu(self.conv1(x))
        g2 = leaky_relu(self.conv2(ad.concat([x, g1], axis=1)))
        out = self.conv3(ad.concat([x, g1, g2], axis=1))
        return x + RESIDUAL_SCALE * out


class RRDB(Module):
    """Residual-in-residual stack of three dense blocks."""

    def __init__(self, channels, growth, rng):
        super().__init__()
        self.block1 = DenseBlock(channels, growth, rng)
        self.block2 = DenseBlock(channels, growth, rng)
        self.block3 = DenseBlock(channels, growth, rng)

    def __call__(self, x: Tensor) -> Tensor:
        out = self.block3(self.block2(self.block1(x)))
        return x + RESIDUAL_SCALE * out


class DownStage(Module):
    """Two (conv + GDN + LeakyReLU) stages, the first at stride 2."""

    def __init__(self, c_in, c_out, rng):
        super().__init__()
        self.conv1 = Conv2d(c_in, c_out, 3, rng, stride=2)
        self.gdn1 = GDN(c_out)
        self.conv2 = Conv2d(c_out, c_out, 3, rng)
        self.gdn2 = GDN(c_out)

    def __call__(self, x: Tensor) -> Tensor:
        x = leaky_relu(self.gdn1(self.conv1(x)))
        return leaky_relu(self.gdn2(self.conv2(x)))


class PagNet(Module):
    """Per-pixel SNR-conditioned aggregation of two equal-shape streams.

    Each stream's features pass a 3x3 conv; their difference is gated
    channel-wise by a projected SNR embedding and reduced to one score
    per pixel by the bias-free weight ``fc``. The weight of ``v`` is the
    sigmoid of that score and the weight of ``u`` its complement: the
    two-stream softmax of the per-stream scores, whose shared terms
    cancel in the difference.
    """

    def __init__(self, channels, rng):
        super().__init__()
        self.conv_v = Conv2d(channels, channels, 3, rng)
        self.conv_u = Conv2d(channels, channels, 3, rng)
        self.snr_embed = Embedding(SNR_LEVELS, SNR_EMBED_DIM, rng)
        self.proj = Linear(SNR_EMBED_DIM, channels, rng)
        self.fc = Tensor(glorot_uniform(rng, (channels, 1), channels, 1), requires_grad=True)

    def _v_weight(self, v: Tensor, u: Tensor, snr_db) -> Tensor:
        """Per-pixel weight [B,1,H,W] of ``v``; see ``stream_weights``."""
        if v.data.shape != u.data.shape:
            raise DimensionError(
                f"stream shapes differ: {v.data.shape} vs {u.data.shape}"
            )
        level = int(np.clip(np.round(snr_db), 0, SNR_LEVELS - 1))
        dtype = v.data.dtype
        gate = self.proj(self.snr_embed([level]).astype(dtype)).reshape(1, -1, 1, 1)
        gated = (self.conv_v(v) - self.conv_u(u)) * gate
        score = gated.transpose(0, 2, 3, 1) @ self.fc.astype(dtype)  # [B,H,W,1]
        return ad.sigmoid(score.transpose(0, 3, 1, 2))

    def stream_weights(self, v: Tensor, u: Tensor, snr_db) -> Tensor:
        """Per-pixel weights [B,2,H,W] of the two streams at ``snr_db``,
        ``v``'s first.

        The SNR picks a row of the embedding table: it is rounded to
        whole dB (half to even) and clipped to the table's levels 0 ..
        SNR_LEVELS-1 dB. So an SNR below 0 dB is treated as 0 dB and one
        above the top level as the top level, without a warning.
        """
        a = self._v_weight(v, u, snr_db)
        return ad.concat([a, 1.0 - a], axis=1)

    def __call__(self, v: Tensor, u: Tensor, snr_db) -> Tensor:
        a = self._v_weight(v, u, snr_db)
        return u + a * (v - u)


class UpBlock(Module):
    """Stride-2 transpose conv (exact doubling) + inverse GDN + activation."""

    def __init__(self, c_in, c_out, rng, last=False):
        super().__init__()
        self.tconv = ConvTranspose2d(c_in, c_out, rng)
        self.gdn = GDN(c_out, inverse=True)
        if not last:
            self.act = PReLU(c_out)
        self.last = last

    def __call__(self, x: Tensor) -> Tensor:
        x = self.gdn(self.tconv(x))
        if self.last:
            return ad.sigmoid(x)
        return self.act(x)


class SemanticDecoder(Module):
    """Latent pyramid of ``latent_widths`` over the conventional
    reconstruction; the up path mirrors it. Level i fuses a stream as
    wide as the latent it meets, ``latent_widths[:0:-1][i]``, and ends as
    wide as the next one, or at the image's channels."""

    def __init__(self, rng, latent_widths=LATENT_WIDTHS, growth=16):
        super().__init__()
        fused = tuple(latent_widths[:0:-1])
        self.entry = Conv2d(IMAGE_CHANNELS, latent_widths[0], 3, rng)
        self.rrdb = RRDB(latent_widths[0], growth, rng)
        self.extractors = tuple(
            DownStage(c_in, c_out, rng) for c_in, c_out in zip(latent_widths, latent_widths[1:])
        )
        self.pagnets = tuple(PagNet(c, rng) for c in fused)
        outs = fused[1:] + (IMAGE_CHANNELS,)
        self.ups = tuple(
            UpBlock(c_in, c_out, rng, last=(i == len(fused) - 1))
            for i, (c_in, c_out) in enumerate(zip(fused, outs))
        )

    def extract_latents(self, x_c: Tensor):
        """u_0..u_L, u_0 at image scale and each u_l at half the previous."""
        u = [self.rrdb(self.entry(x_c))]
        for stage in self.extractors:
            u.append(stage(u[-1]))
        return u

    def __call__(self, x_c: Tensor, s_hat: Tensor, snr_db) -> Tensor:
        latents = self.extract_latents(x_c)
        if s_hat.data.shape[1:] != latents[-1].data.shape[1:]:
            raise DimensionError(
                f"semantic features {s_hat.data.shape[1:]} must match the "
                f"deepest latent {latents[-1].data.shape[1:]}"
            )
        v = s_hat
        for pagnet, up, u in zip(self.pagnets, self.ups, latents[:0:-1]):
            v = up(pagnet(v, u, snr_db))
        return v
