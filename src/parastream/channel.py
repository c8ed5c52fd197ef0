"""Wireless channel simulation shared by both transmit streams.

Models z_hat = h * z + n with AWGN or block Rayleigh fading. Every
stream enters at unit average symbol power (pipeline.power_gain), so the
SNR alone sets the noise power sigma2 = 10^(-snr_db / 10). All
randomness flows through counter-based generators keyed on
(seed, trial), so realizations are reproducible and trials can run in
any order. For a fading draw, gains are sampled before noise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import _is_int, make_rng

KINDS = ("awgn", "rayleigh_block")


@dataclass(frozen=True)
class ChannelConfig:
    kind: str = "awgn"
    snr_db: float = 10.0
    block_len: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        # +inf is the noiseless channel; -inf would be all noise
        if self.snr_db == -math.inf:
            raise ValueError("snr_db must not be -inf")
        if not _is_int(self.block_len, 1):
            raise ValueError(f"block_len must be an integer >= 1, got {self.block_len!r}")
        if not _is_int(self.seed, 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class ChannelRealization:
    h: np.ndarray
    n: np.ndarray
    sigma2: float


def snr_to_sigma2(snr_db):
    """Noise power sigma2 = 10^(-snr_db / 10) for unit symbol power."""
    return 10.0 ** (-snr_db / 10.0)


def draw_realization(cfg, length, trial=0):
    """Sample gains and noise for `length` symbols at trial index `trial`."""
    rng = make_rng(cfg.seed, trial)
    sigma2 = snr_to_sigma2(cfg.snr_db)
    if cfg.kind == "awgn":
        h = np.ones(length, dtype=np.complex128)
    else:
        blocks = -(-length // cfg.block_len)
        g = (rng.standard_normal(blocks) + 1j * rng.standard_normal(blocks))
        h = np.repeat(g / np.sqrt(2.0), cfg.block_len)[:length]
    noise = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    n = np.sqrt(sigma2 / 2.0) * noise
    return ChannelRealization(h=h, n=n, sigma2=sigma2)


def transmit(z, cfg, trial=0):
    """Pass unit-power symbols through the configured channel."""
    z = np.asarray(z, dtype=np.complex128)
    real = draw_realization(cfg, z.shape[-1], trial)
    return real.h * z + real.n, real
