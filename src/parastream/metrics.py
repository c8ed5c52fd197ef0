"""Reconstruction quality metrics: PSNR on the 0..255 scale and
multi-scale SSIM with the standard window and scale weights."""

from __future__ import annotations

import functools
import math

import numpy as np

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
WINDOW = 11
_SIGMA = 1.5
_K1 = 0.01
_K2 = 0.03


def psnr(x: np.ndarray, xhat: np.ndarray) -> float:
    """10*log10(255^2 / MSE) with MSE on the 0..255 scale; identical
    inputs return math.inf (serialized as an empty CSV cell)."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ValueError(f"psnr shape mismatch: {x.shape} vs {xhat.shape}")
    mse = float(np.mean((255.0 * (x - xhat)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def _gaussian_window() -> np.ndarray:
    t = np.arange(WINDOW) - (WINDOW - 1) / 2.0
    g = np.exp(-(t**2) / (2.0 * _SIGMA**2))
    return g / g.sum()


_G = _gaussian_window()


@functools.lru_cache(maxsize=16)
def _band(size: int) -> np.ndarray:
    """[size, size - 10] read-only matrix whose column i holds the
    window on rows i..i+10, so v @ _band(len(v)) is the 'valid'
    correlation of v with the window."""
    out = size - WINDOW + 1
    band = np.zeros((size, out))
    cols = np.arange(out)
    for k in range(WINDOW):
        band[cols + k, cols] = _G[k]
    band.flags.writeable = False
    return band


def _filter_valid(planes: np.ndarray) -> np.ndarray:
    """Separable Gaussian 'valid' filter of every trailing 2-D plane: one
    GEMM with a banded matrix along the rows of all planes, then one
    batched matmul along the columns. BLAS orders the sums its own way,
    so results agree with np.convolve to rounding, not bit for bit."""
    h, w = planes.shape[-2:]
    rows = planes.reshape(-1, w) @ _band(w)
    return np.matmul(_band(h).T, rows.reshape(planes.shape[:-1] + (rows.shape[-1],)))


def _luminance_contrast(x: np.ndarray, y: np.ndarray):
    """Mean luminance and contrast-structure terms of each [..., H, W]
    plane pair, all planes and their five moments filtered at once."""
    c1 = _K1**2
    c2 = _K2**2
    mx, my, xx, yy, xy = _filter_valid(np.stack([x, y, x * x, y * y, x * y]))
    vx = xx - mx * mx
    vy = yy - my * my
    cov = xy - mx * my
    lum = (2.0 * mx * my + c1) / (mx * mx + my * my + c1)
    cs = (2.0 * cov + c2) / (vx + vy + c2)
    return lum.mean(axis=(-2, -1)), cs.mean(axis=(-2, -1))


def _downsample(planes: np.ndarray) -> np.ndarray:
    """2x2 mean pooling of every trailing 2-D plane; odd dims are
    edge-padded first so a 161-pixel side survives four halvings at the
    11-pixel window (161 -> ... -> 11)."""
    h, w = planes.shape[-2:]
    if h % 2:
        planes = np.concatenate([planes, planes[..., -1:, :]], axis=-2)
    if w % 2:
        planes = np.concatenate([planes, planes[..., -1:]], axis=-1)
    h2, w2 = planes.shape[-2] // 2, planes.shape[-1] // 2
    return planes.reshape(planes.shape[:-2] + (h2, 2, w2, 2)).mean(axis=(-3, -1))


def _scale_count(h: int, w: int) -> int:
    scales = 0
    dim = min(h, w)
    while dim >= WINDOW and scales < len(MS_SSIM_WEIGHTS):
        scales += 1
        dim = (dim + 1) // 2
    return scales


def _ms_ssim_planes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """MS-SSIM of each [..., H, W] plane pair, all planes a scale at once."""
    scales = _scale_count(*x.shape[-2:])
    if scales == 0:
        raise ValueError(
            f"image {x.shape[-2:]} smaller than the {WINDOW}x{WINDOW} window"
        )
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    score = np.ones(x.shape[:-2])
    for s in range(scales):
        lum, cs = _luminance_contrast(x, y)
        if s < scales - 1:
            score *= np.maximum(cs, 0.0) ** weights[s]
            x, y = _downsample(np.stack([x, y]))
        else:
            score *= np.maximum(lum * cs, 0.0) ** weights[s]
    return score


def ms_ssim(x: np.ndarray, xhat: np.ndarray) -> float:
    """Multi-scale SSIM in [0, 1], averaged over channels. Five scales
    when the image allows (min dim >= 161); otherwise as many scales as
    fit the window, with the weights renormalized."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ValueError(f"ms_ssim shape mismatch: {x.shape} vs {xhat.shape}")
    if x.ndim == 2:
        x = x[:, :, None]
        xhat = xhat[:, :, None]
    values = _ms_ssim_planes(x.transpose(2, 0, 1), xhat.transpose(2, 0, 1))
    return float(np.clip(np.mean(values), 0.0, 1.0))
