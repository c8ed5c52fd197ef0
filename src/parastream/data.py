"""Procedural desk-scale image corpus and bit-exact PPM (P6) I/O.

The corpus needs no downloads: seeded gradients, checkerboards and
Gaussian blobs at 16x16 or 32x32, returned as H x W x 3 float arrays in
[0, 1]. PPM loaders accept user-supplied conversions of larger corpora.
"""

from __future__ import annotations

import numpy as np

from .rng import make_rng


def gradient_image(rng: np.random.Generator, size: int) -> np.ndarray:
    theta = rng.uniform(0.0, 2.0 * np.pi)
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    ramp = np.cos(theta) * xx + np.sin(theta) * yy
    ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-9)
    c0 = rng.uniform(0.0, 0.4, size=3)
    c1 = rng.uniform(0.6, 1.0, size=3)
    return c0 + ramp[:, :, None] * (c1 - c0)


def checkerboard_image(rng: np.random.Generator, size: int) -> np.ndarray:
    period = int(rng.choice([2, 4, 8]))
    phase_y, phase_x = rng.integers(0, period, size=2)
    yy, xx = np.mgrid[0:size, 0:size]
    mask = (((yy + phase_y) // period + (xx + phase_x) // period) % 2).astype(bool)
    c0 = rng.uniform(0.0, 1.0, size=3)
    c1 = rng.uniform(0.0, 1.0, size=3)
    img = np.where(mask[:, :, None], c1, c0)
    return img


def blob_image(rng: np.random.Generator, size: int) -> np.ndarray:
    img = np.tile(rng.uniform(0.1, 0.9, size=3), (size, size, 1))
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    for _ in range(int(rng.integers(2, 5))):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        sigma = rng.uniform(0.08, 0.3)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
        color = rng.uniform(-0.8, 0.8, size=3)
        img = img + bump[:, :, None] * color
    return np.clip(img, 0.0, 1.0)


_KINDS = (gradient_image, checkerboard_image, blob_image)


def make_corpus(count: int, size: int, seed: int) -> list[np.ndarray]:
    """Deterministic list of H x W x 3 images cycling through the kinds."""
    if size < 1:
        raise ValueError(f"image size must be at least 1, got size={size}")
    if count < 0:
        raise ValueError(f"image count must be at least 0, got count={count}")
    rng = make_rng(seed)
    return [_KINDS[i % len(_KINDS)](rng, size) for i in range(count)]


def write_ppm(path, img: np.ndarray):
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"PPM writer expects H x W x 3, got {img.shape}")
    h, w, _ = img.shape
    raw = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raw.tobytes())


def read_ppm(path) -> np.ndarray:
    """An 8-bit binary (P6) PPM file as an H x W x 3 float array in
    [0, 1]. A file that is not one (another magic number or maxval, a
    header cut short or not numeric, a width or height below 1, or a
    raster shorter than w * h * 3 bytes) raises ValueError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ValueError(f"{path}: PPM header cut short after {len(fields)} of 4 fields")
        fields.append(data[start:pos])
    if fields[0] != b"P6":
        raise ValueError(f"{path}: not a P6 PPM file: magic {fields[0]!r}")
    try:
        w, h, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise ValueError(f"{path}: PPM header {b' '.join(fields[1:])!r} is not numeric") from None
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PPM supported, maxval {maxval}")
    if w < 1 or h < 1:
        raise ValueError(f"{path}: empty PPM image, {w} x {h}")
    pos += 1  # single whitespace after maxval
    raster = data[pos : pos + h * w * 3]
    if len(raster) < h * w * 3:
        raise ValueError(
            f"{path}: PPM raster holds {len(raster)} bytes, {w} x {h} x 3 needs {h * w * 3}"
        )
    raw = np.frombuffer(raster, dtype=np.uint8)
    return raw.reshape(h, w, 3).astype(np.float64) / 255.0
