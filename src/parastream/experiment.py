"""Seeded evaluation sweeps: CSV rows, gnuplot data files, FER probes.

A sweep walks the (quality, SNR) grid from an experiment config and
writes one CSV row per trial seed at each point. Every row aggregates
a fixed slice of the corpus: PSNR comes from the mean MSE over that
slice (so the infinity sentinel appears only when every reconstruction
is exact), the other metrics are plain means. Everything is seeded, so
re-running a config reproduces the CSV byte for byte.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass

import numpy as np

from . import data
from .channel import ChannelConfig
from .config import ExperimentConfig, load_config
from .ldpc import MAX_ITER_DEFAULT
from .pipeline import (
    DEFAULT_TABLE,
    ModelConfig,
    SemanticModel,
    load_code,
    send_coded,
    transmit_image,
)
from .rng import _is_int, make_rng

CSV_COLUMNS = ("snr_db", "cbr", "psnr_db", "ms_ssim", "corruption_rate", "seed")
FER_CHUNK = 500  # frames per send_coded call; fer_monte_carlo keys trials on it


@dataclass(frozen=True)
class MetricsRow:
    snr_db: float
    q: int
    cbr: float
    psnr_db: float
    ms_ssim: float
    corruption_rate: float
    seed: int


def load_corpus(cfg: ExperimentConfig):
    """``cfg.images`` procedural images, or every .ppm under cfg.ppm_dir."""
    if cfg.ppm_dir:
        paths = sorted(pathlib.Path(cfg.ppm_dir).glob("*.ppm"))
        if not paths:
            raise FileNotFoundError(f"no .ppm files under {cfg.ppm_dir}")
        return [data.read_ppm(p) for p in paths]
    return data.make_corpus(cfg.images, cfg.corpus_size, cfg.corpus_seed)


def load_experiment_model(cfg: ExperimentConfig):
    if not cfg.semantic:
        return None
    if cfg.checkpoint:
        from .training import load_model

        return load_model(cfg.checkpoint)[0]
    return SemanticModel(ModelConfig(init_seed=cfg.init_seed))


def evaluate_point(images, pcfg, model, trial_seed):
    """Metrics for one trial: every image once, aggregated into one row."""
    mses, ssims, cbrs, corrupted = [], [], [], 0
    for i, img in enumerate(images):
        x_hat, _, report = transmit_image(
            img, pcfg, seed=trial_seed * len(images) + i, model=model
        )
        mses.append(float(np.mean(((x_hat - img) * 255.0) ** 2)))
        ssims.append(report["ms_ssim"])
        cbrs.append(report["cbr"])
        corrupted += int(report["corrupted"])
    mean_mse = float(np.mean(mses))
    psnr = math.inf if mean_mse == 0.0 else 10.0 * math.log10(255.0**2 / mean_mse)
    return MetricsRow(
        snr_db=pcfg.channel.snr_db,
        q=pcfg.q,
        cbr=float(np.mean(cbrs)),
        psnr_db=psnr,
        ms_ssim=float(np.mean(ssims)),
        corruption_rate=corrupted / len(images),
        seed=trial_seed,
    )


def sweep_rows(cfg: ExperimentConfig, images=None, model=None):
    """All MetricsRows of the configured grid, q-major then SNR then seed;
    a corpus smaller than ``cfg.images`` raises ValueError first."""
    if images is None:
        images = load_corpus(cfg)
    if len(images) < cfg.images:
        raise ValueError(
            f"[sweep] images = {cfg.images} needs that many corpus images, "
            f"the corpus holds {len(images)}"
        )
    images = images[: cfg.images]
    if model is None:
        model = load_experiment_model(cfg)
    rows = []
    for q in cfg.q_points:
        for snr_db in cfg.snr_points:
            pcfg = cfg.point(q, snr_db)
            for seed in range(cfg.trials):
                rows.append(evaluate_point(images, pcfg, model, seed))
    return rows


def _fmt(value):
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, column)) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _plot_series(rows, metric):
    """Per-q blocks of (snr, mean over seeds) for one metric column."""
    blocks = []
    for q in sorted({row.q for row in rows}):
        lines = [f"# q = {q}"]
        for snr in sorted({r.snr_db for r in rows if r.q == q}):
            values = [
                getattr(r, metric) for r in rows if r.q == q and r.snr_db == snr
            ]
            mean = float(np.mean(values))
            if math.isinf(mean):
                lines.append(f"# {_fmt(snr)} exact (infinite PSNR)")
            else:
                lines.append(f"{_fmt(snr)} {_fmt(mean)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_outputs(rows, out_prefix):
    """The CSV plus one two-column .dat per metric; returns the paths."""
    prefix = pathlib.Path(out_prefix)
    if prefix.parent != pathlib.Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = [prefix.with_suffix(".csv")]
    paths[0].write_bytes(rows_to_csv(rows).encode("utf-8"))
    for metric in ("psnr_db", "ms_ssim", "corruption_rate", "cbr"):
        path = prefix.parent / f"{prefix.name}_{metric}.dat"
        path.write_bytes(_plot_series(rows, metric).encode("utf-8"))
        paths.append(path)
    return paths


def run_experiment(config_path):
    """Load a config, run the sweep, write the artifacts, return paths."""
    cfg = load_config(config_path)
    rows = sweep_rows(cfg)
    return write_outputs(rows, cfg.out)


def fer_monte_carlo(
    snr_db, frames, seed=0, code=DEFAULT_TABLE, max_iter=MAX_ITER_DEFAULT
):
    """Frame error rate of the coded QPSK link over an AWGN channel.

    Chunk c of FER_CHUNK random frames crosses send_coded at channel
    trial c. A frame errs when decoding fails to converge or the info
    bits it recovers differ from the ones sent.
    """
    if not _is_int(frames, 1):
        raise ValueError(f"frames must be an integer >= 1, got {frames!r}")
    pcm = load_code(code)
    chan = ChannelConfig(kind="awgn", snr_db=snr_db, seed=seed)
    rng = make_rng(seed)
    errors = 0
    for trial, start in enumerate(range(0, frames, FER_CHUNK)):
        size = (min(FER_CHUNK, frames - start), pcm.k)
        info = rng.integers(0, 2, size=size, dtype=np.uint8)
        ((bits, converged, _),) = send_coded([info], chan, pcm, [trial], max_iter)
        wrong = (bits != info).any(axis=1)
        errors += int((wrong | ~converged).sum())
    return errors / frames
