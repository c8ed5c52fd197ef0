"""Parallel-stream image transmission over simulated wireless channels.

A conventional DCT codec + LDPC + QPSK chain runs next to a learned
semantic stream whose per-patch rate follows a conditional entropy
model; an SNR-conditioned aggregation network fuses both streams at the
receiver. Everything is NumPy on a small reverse-mode autodiff core, so
training and evaluation run deterministically from seeds. Importing
the package pins NumPy's OpenBLAS to one thread (see blas.py), so the
bytes do not depend on the BLAS thread count.
"""

from .blas import pin_one_thread
from .channel import ChannelConfig, transmit
from .codec import compress, decompress
from .data import make_corpus, read_ppm, write_ppm
from .experiment import fer_monte_carlo, run_experiment, sweep_rows
from .metrics import ms_ssim, psnr
from .pipeline import (
    ModelConfig,
    PipelineConfig,
    SemanticModel,
    TransmissionFrame,
    transmit_image,
)
from .training import TrainConfig, load_model, save_model, train

pin_one_thread()

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "ModelConfig",
    "PipelineConfig",
    "SemanticModel",
    "TrainConfig",
    "TransmissionFrame",
    "compress",
    "decompress",
    "fer_monte_carlo",
    "load_model",
    "make_corpus",
    "ms_ssim",
    "psnr",
    "read_ppm",
    "run_experiment",
    "save_model",
    "sweep_rows",
    "train",
    "transmit",
    "transmit_image",
    "write_ppm",
]
