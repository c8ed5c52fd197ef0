"""End-to-end parallel-stream image transmission.

The conventional branch compresses the image, protects the bytes with
the QC-LDPC code, and sends QPSK symbols; the semantic branch encodes
(image, coding residual) into features whose per-patch dimensions are
chosen by the conditional entropy model, and sends them as analog
symbol pairs. Both streams cross independently drawn channels at the
configured SNR. The receiver fuses its (possibly corrupted)
conventional reconstruction with the received features, weighting the
two per pixel by SNR. Frame accounting charges every complex symbol of
either stream plus the 5-bit-per-patch rate map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import codec, ldpc, metrics, rate
from .autodiff import Tensor
from .channel import ChannelConfig, transmit
from .decoder import LATENT_WIDTHS, UP_WIDTHS, SemanticDecoder
from .encoder import DEFAULT_WIDTHS, SemanticEncoder, image_to_tensor, tensor_to_image
from .layers import Module
from .modem import qpsk_modulate, qpsk_soft_demod
from .rate import FactorizedPrior, HyperSynthesis, RateBanks
from .rng import make_rng

# stands in for sigma^2 = 0 so a noiseless channel demaps to saturated,
# correct LLRs instead of dividing by zero
_NOISELESS_SIGMA2 = 1e-12

DEFAULT_TABLE = "qc_rate34_z64.txt"


@dataclass(frozen=True)
class ModelConfig:
    """Widths and seeds for every learned module, desk-scale defaults."""

    c_s: int = 32
    encoder_widths: tuple = DEFAULT_WIDTHS
    latent_widths: tuple = LATENT_WIDTHS
    up_widths: tuple = UP_WIDTHS
    growth: int = 16
    hyper_hidden: int | None = None
    init_seed: int = 0


class SemanticModel(Module):
    """Bundle of the learned modules: encoder, decoder, entropy model
    (hyper synthesis + factorized prior), and the paired rate banks."""

    def __init__(self, cfg: ModelConfig):
        super().__init__()
        if cfg.encoder_widths[-1] != cfg.c_s:
            raise ValueError("last encoder width must equal c_s")
        if cfg.latent_widths[-1] != cfg.c_s:
            raise ValueError("deepest latent width must equal c_s")
        if len(cfg.encoder_widths) != len(cfg.up_widths):
            raise ValueError("encoder and decoder must use the same scale count")
        rng = make_rng(cfg.init_seed)
        self.cfg = cfg
        self.stage = 0  # training progress marker; see training.train
        self.encoder = SemanticEncoder(rng, widths=cfg.encoder_widths)
        self.decoder = SemanticDecoder(
            rng,
            latent_widths=cfg.latent_widths,
            up_widths=cfg.up_widths,
            growth=cfg.growth,
        )
        self.hyper = HyperSynthesis(cfg.c_s, cfg.c_s, rng, hidden=cfg.hyper_hidden)
        self.prior = FactorizedPrior(cfg.c_s, rng)
        self.banks = RateBanks(cfg.c_s, rng)

    def ra_parameters(self):
        """Parameters of the rate-adaptation codec (banks and tokens)."""
        return self.banks.parameters()

    def non_ra_parameters(self):
        ra = set(id(p) for p in self.ra_parameters())
        return [p for p in self.parameters() if id(p) not in ra]


@dataclass(frozen=True)
class PipelineConfig:
    q: int = 50
    code: str = DEFAULT_TABLE
    channel: ChannelConfig = field(
        default_factory=lambda: ChannelConfig(kind="awgn", snr_db=10.0)
    )
    model: ModelConfig = field(default_factory=ModelConfig)
    lambda1: float = 0.1
    lambda2: float = 0.1
    semantic: bool = True
    bp_iters: int = 50

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be nonnegative")


@dataclass(frozen=True)
class TransmissionFrame:
    """Complex-symbol budget of one transmitted image.

    frame_bits lists the payload bits carried by each LDPC frame (the
    last one short by pad_bits). n = image + semantic + side symbols.
    """

    frame_bits: tuple
    pad_bits: int
    image_symbols: int
    semantic_dims: int
    semantic_symbols: int
    side_bits: int
    side_symbols: int
    k: int

    @property
    def n(self) -> int:
        return self.image_symbols + self.semantic_symbols + self.side_symbols

    @property
    def cbr(self) -> float:
        return self.n / self.k


@functools.lru_cache(maxsize=4)
def load_code(name: str = DEFAULT_TABLE) -> ldpc.ParityCheckMatrix:
    base, z = ldpc.load_base_table(name)
    return ldpc.build_qc_ldpc(base, z)


def bits_to_frames(bits: np.ndarray, k: int):
    """Segment a bit vector into k-bit rows, zero-padding the last one.
    Returns (frames [F,k], pad bit count)."""
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    frames = max(1, -(-bits.size // k))
    pad = frames * k - bits.size
    return np.concatenate([bits, np.zeros(pad, np.uint8)]).reshape(frames, k), pad


def frames_to_bits(frames: np.ndarray, pad: int) -> np.ndarray:
    flat = np.asarray(frames, dtype=np.uint8).reshape(-1)
    return flat[: flat.size - pad]


def power_gain(z: np.ndarray, power: float = 1.0) -> float:
    """Scale factor bringing z to average symbol power `power` (1.0 for
    an empty or all-zero stream)."""
    energy = float(np.vdot(z, z).real)
    if energy == 0.0:
        return 1.0
    return math.sqrt(power * z.size / energy)


def split_source(x, q: int):
    """Compress/decompress x and split it into the pipeline's source of
    truth and its two parts: returns (x_ref, x_c, x_r, blob) where
    x_ref = x_r + x_c holds exactly (x_ref is within one rounding of x).
    """
    x = np.asarray(x, dtype=np.float64)
    blob = codec.compress(x, q)
    x_c = codec.decompress(blob)
    x_r = x - x_c
    return x_r + x_c, x_c, x_r, blob


def _send_conventional(blob, shape, cfg, pcm, trial):
    """Compressed bytes through LDPC/QPSK/channel; returns the receiver
    image, the corruption flag, and the segment table."""
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
    frames, pad = bits_to_frames(bits, pcm.k)
    code = ldpc.ldpc_encode(pcm, frames)
    symbols = qpsk_modulate(code.reshape(-1))
    gain = power_gain(symbols, cfg.channel.power)
    y, real = transmit(gain * symbols, cfg.channel, trial)
    sigma2 = real.sigma2 if real.sigma2 > 0 else _NOISELESS_SIGMA2
    llr = qpsk_soft_demod(y, gain * real.h, sigma2)
    hard, converged, _ = ldpc.ldpc_decode_bp(
        pcm, llr.reshape(code.shape), max_iter=cfg.bp_iters
    )
    payload = np.packbits(frames_to_bits(hard[:, : pcm.k], pad)).tobytes()
    frame_bits = (pcm.k,) * (frames.shape[0] - 1) + (pcm.k - pad,)
    segments = {
        "frame_bits": frame_bits,
        "pad_bits": pad,
        "image_symbols": frames.shape[0] * (pcm.n // 2),
        "frames_converged": int(converged.sum()),
    }
    corrupted = not bool(converged.all())
    try:
        x_c = codec.decompress(payload)
    except codec.CodecError:
        return np.full(shape, 0.5), True, segments
    if x_c.shape != shape:
        return np.full(shape, 0.5), True, segments
    return x_c, corrupted, segments


def send_analog(vec: Tensor, chan: ChannelConfig, trial: int) -> Tensor:
    """Analog transmission of one real feature vector, differentiable.

    Consecutive reals pair into complex symbols (odd tail zero-padded)
    and the block is scaled to average power chan.power before it
    crosses the channel at `trial`. The receiver zero-forces with the
    known gain and channel estimate, so each real arrives as itself
    plus the equalized noise n/h divided by the power gain; that gain
    stays in the graph (unit gain for an all-zero block). A symbol
    whose h is zero arrives erased: both of its reals read zero.
    """
    length = vec.data.shape[0]
    reals = np.append(vec.data, np.zeros(length % 2))
    z = reals[0::2] + 1j * reals[1::2]
    _, real = transmit(power_gain(z, chan.power) * z, chan, trial)
    erased = real.h == 0
    zf = np.where(erased, 0.0, real.n / np.where(erased, 1.0, real.h))
    noise = Tensor(np.stack([zf.real, zf.imag], axis=-1).reshape(-1)[:length])
    keep = Tensor(np.repeat(~erased, 2)[:length].astype(np.float64))
    energy = (vec * vec).sum()
    inv_gain = (energy / (chan.power * z.size)) ** 0.5 if energy.data else 1.0
    return (vec + noise * inv_gain) * keep


def transmit_image(x, cfg: PipelineConfig, seed: int = 0, model=None, pcm=None):
    """One image through both branches.

    Returns (x_hat, frame, metrics). The conventional and semantic
    streams use channel trials 2*seed and 2*seed+1, so every call index
    sees independent realizations of the same configured channel.
    """
    if cfg.semantic:
        model = SemanticModel(cfg.model) if model is None else model
        model.encoder.check_image(np.shape(x))
    if pcm is None:
        pcm = load_code(cfg.code)
    x_ref, _, x_r, blob = split_source(x, cfg.q)

    x_c_hat, corrupted, seg = _send_conventional(
        blob, x_ref.shape, cfg, pcm, 2 * seed
    )

    if cfg.semantic:
        s, r = model.encoder(image_to_tensor(x_ref), image_to_tensor(x_r))
        s_tilde = rate.quantize(s, "test")
        r_tilde = rate.quantize(r, "test")
        mu, sigma = model.hyper(r_tilde)
        alloc = rate.allocate_rates(rate.likelihood(s_tilde, mu, sigma))
        sent = model.banks.encode(s_tilde, alloc)[0]
        received = send_analog(sent, cfg.channel, 2 * seed + 1)
        side_blob = rate.pack_rate_indices(alloc.indices()[0])
        rx_idx = rate.unpack_rate_indices(side_blob, alloc.k_s)
        rx_widths = np.asarray(rate.RATE_SET)[rx_idx].reshape(alloc.alpha_bar.shape)
        s_hat = model.banks.decode([received], rx_widths)
        x_hat = tensor_to_image(
            model.decoder(image_to_tensor(x_c_hat), s_hat, cfg.channel.snr_db)
        )
        semantic_dims = int(alloc.totals()[0])
        sem_symbols = -(-semantic_dims // 2)
        side_bits = rate.SIDE_BITS_PER_PATCH * alloc.k_s
        side_symbols = rate.side_channel_symbols(alloc.k_s)
        clamped = alloc.clamped
    else:
        x_hat = x_c_hat
        semantic_dims = sem_symbols = side_bits = side_symbols = clamped = 0

    frame = TransmissionFrame(
        frame_bits=seg["frame_bits"],
        pad_bits=seg["pad_bits"],
        image_symbols=seg["image_symbols"],
        semantic_dims=semantic_dims,
        semantic_symbols=sem_symbols,
        side_bits=side_bits,
        side_symbols=side_symbols,
        k=x_ref.size,
    )
    report = {
        "psnr_db": metrics.psnr(x_ref, x_hat),
        "ms_ssim": metrics.ms_ssim(x_ref, x_hat),
        "corrupted": corrupted,
        "cbr": frame.cbr,
        "cbr_real_dims": rate.cbr_real_dims(
            frame.semantic_dims, frame.image_symbols, frame.k
        ),
        "frames_converged": seg["frames_converged"],
        "frame_count": len(frame.frame_bits),
        "clamped_patches": clamped,
    }
    return x_hat, frame, report
