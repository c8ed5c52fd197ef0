"""End-to-end parallel-stream image transmission.

The conventional branch compresses the image, protects the bytes with
the QC-LDPC code, and sends QPSK symbols; the semantic branch encodes
(image, coding residual) into features whose per-patch dimensions are
chosen by the conditional entropy model, and sends them as analog
symbol pairs. Both streams cross independently drawn channels at the
configured SNR. The receiver fuses its (possibly corrupted)
conventional reconstruction with the received features, weighting the
two per pixel by SNR. Frame accounting charges every complex symbol of
either stream plus the 5-bit-per-patch rate map. `send_batch` is the one
pass over both streams: `transmit_image` runs it as a batch of one and
`training.training_forward` trains through it.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import codec, ldpc, metrics, rate
from .autodiff import Tensor
from .channel import ChannelConfig, _is_int, transmit
from .decoder import LATENT_WIDTHS, SemanticDecoder
from .encoder import DEFAULT_WIDTHS, SemanticEncoder, batch_to_tensor, tensor_to_image
from .layers import Module, frozen
from .modem import qpsk_modulate, qpsk_soft_demod
from .rate import FactorizedPrior, HyperSynthesis, RateBanks
from .rng import make_rng

# stands in for sigma^2 = 0 so a noiseless channel demaps to saturated,
# correct LLRs instead of dividing by zero
_NOISELESS_SIGMA2 = 1e-12

DEFAULT_TABLE = "qc_rate34_z64.txt"


@dataclass(frozen=True)
class ModelConfig:
    """Widths and seeds for every learned module, desk-scale defaults.
    The rest is derived: c_s is the last encoder width, and the decoder's
    up path mirrors the latent pyramid (see SemanticDecoder). A width
    tuple that is empty or holds anything but integers >= 1, a growth
    that is not such an integer or an init_seed that is not an integer
    >= 0 raises ValueError naming the field; SemanticModel checks the
    widths against each other."""

    encoder_widths: tuple = DEFAULT_WIDTHS
    latent_widths: tuple = LATENT_WIDTHS
    growth: int = 16
    init_seed: int = 0

    def __post_init__(self):
        for name in ("encoder_widths", "latent_widths"):
            widths = getattr(self, name)
            if not (isinstance(widths, tuple) and widths and all(_is_int(n, 1) for n in widths)):
                raise ValueError(
                    f"ModelConfig.{name} must be a non-empty tuple of integers >= 1, "
                    f"got {widths!r}"
                )
        for name, low in (("growth", 1), ("init_seed", 0)):
            value = getattr(self, name)
            if not _is_int(value, low):
                raise ValueError(f"ModelConfig.{name} must be an integer >= {low}, got {value!r}")


class SemanticModel(Module):
    """Bundle of the learned modules: encoder, decoder, entropy model
    (hyper synthesis + factorized prior), and the paired rate banks."""

    def __init__(self, cfg: ModelConfig):
        super().__init__()
        c_s = cfg.encoder_widths[-1]
        if cfg.latent_widths[-1] != c_s:
            raise ValueError(f"deepest latent width must equal c_s = {c_s}")
        if len(cfg.latent_widths) != len(cfg.encoder_widths) + 1:
            raise ValueError("need one more latent width than encoder widths (scale count)")
        rng = make_rng(cfg.init_seed)
        self.cfg = cfg
        self.stage = 0  # training progress marker; see training.train
        self.encoder = SemanticEncoder(rng, widths=cfg.encoder_widths)
        self.decoder = SemanticDecoder(rng, latent_widths=cfg.latent_widths, growth=cfg.growth)
        self.hyper = HyperSynthesis(c_s, rng)
        self.prior = FactorizedPrior(c_s, rng)
        self.banks = RateBanks(c_s)


@dataclass(frozen=True)
class PipelineConfig:
    q: int = 50
    code: str = DEFAULT_TABLE
    channel: ChannelConfig = field(
        default_factory=lambda: ChannelConfig(kind="awgn", snr_db=10.0)
    )
    lambda1: float = 0.1
    semantic: bool = True

    def __post_init__(self):
        if not (_is_int(self.q, 1) and self.q <= 100):
            raise ValueError(f"PipelineConfig.q must be an integer in [1, 100], got {self.q!r}")
        if not math.isfinite(self.lambda1) or self.lambda1 < 0:
            raise ValueError(
                f"loss weight lambda1 must be finite and nonnegative, got {self.lambda1}"
            )


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


def load_code(name: str = DEFAULT_TABLE) -> ldpc.ParityCheckMatrix:
    """The code of a shift table: a filesystem path or a bundled name, as
    `ldpc.load_base_table` resolves it. A path is cached by its resolved
    location, modification time and size, so a rewritten file loads
    again; a bundled name is cached by the name."""
    if os.path.exists(name):
        stat = os.stat(name)
        return _build_code(os.path.realpath(name), stat.st_mtime_ns, stat.st_size)
    return _build_code(name)


@functools.lru_cache(maxsize=4)
def _build_code(name, *stamp):
    # stamp, a path's (mtime_ns, size), only keys the cache
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


def power_gain(z: np.ndarray) -> float:
    """Scale factor bringing z to unit average symbol power (1.0 for an
    empty or all-zero stream)."""
    energy = float(np.vdot(z, z).real)
    if energy == 0.0:
        return 1.0
    return math.sqrt(z.size / energy)


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


def send_coded(payloads, chan: ChannelConfig, pcm, trials, bp_iters):
    """[frames, k] info-bit payloads through LDPC, QPSK and the channel.

    Payload i is scaled to unit power, crosses `chan` at trials[i] and is
    demapped on its own (at _NOISELESS_SIGMA2 if the channel has no
    noise), while one encoder and one decoder call cover every frame.
    Returns one (hard info bits, converged, iters) per payload, by frame.
    """
    bounds = np.cumsum([frames.shape[0] for frames in payloads])[:-1]
    code = ldpc.ldpc_encode(pcm, np.concatenate(payloads))
    llrs = []
    for words, trial in zip(np.split(code, bounds), trials):
        symbols = qpsk_modulate(words.reshape(-1))
        gain = power_gain(symbols)
        y, real = transmit(gain * symbols, chan, trial)
        sigma2 = real.sigma2 if real.sigma2 > 0 else _NOISELESS_SIGMA2
        llrs.append(qpsk_soft_demod(y, gain * real.h, sigma2).reshape(words.shape))
    hard, converged, iters = ldpc.ldpc_decode_bp(pcm, np.concatenate(llrs), bp_iters)
    parts = (hard[:, : pcm.k], converged, iters)
    return list(zip(*(np.split(part, bounds) for part in parts)))


def _send_conventional(blobs, shapes, cfg, pcm, trials):
    """Compressed images through send_coded, image i at trial trials[i].
    Returns one (receiver image, corruption flag, segment table) each;
    an image whose bits do not decompress to its shape arrives mid-gray."""
    bits = [np.unpackbits(np.frombuffer(blob, dtype=np.uint8)) for blob in blobs]
    framed = [bits_to_frames(b, pcm.k) for b in bits]
    payloads = [frames for frames, _ in framed]
    received = send_coded(payloads, cfg.channel, pcm, trials, ldpc.MAX_ITER_DEFAULT)
    out = []
    for (frames, pad), shape, (hard, converged, iters) in zip(framed, shapes, received):
        segments = {
            "frame_bits": (pcm.k,) * (frames.shape[0] - 1) + (pcm.k - pad,),
            "pad_bits": pad,
            "image_symbols": frames.shape[0] * (pcm.n // 2),
            "frames_converged": int(converged.sum()),
            "bp_iterations": int(iters.sum()),
            "bp_iterations_per_frame": tuple(int(i) for i in iters),
        }
        try:
            x_c = codec.decompress(np.packbits(frames_to_bits(hard, pad)).tobytes())
        except codec.CodecError:
            x_c = np.empty(0)
        ok = x_c.shape == shape
        corrupted = not (ok and converged.all())
        out.append((x_c if ok else np.full(shape, 0.5), corrupted, segments))
    return out


def send_analog(vec: Tensor, chan: ChannelConfig, trial: int) -> Tensor:
    """Analog transmission of one real feature vector, differentiable.

    Consecutive reals pair into complex symbols (odd tail zero-padded)
    and the block is scaled to unit average power before it
    crosses the channel at `trial`. The receiver zero-forces with the
    known gain and channel estimate, so each real arrives as itself
    plus the equalized noise n/h divided by the power gain; that gain
    stays in the graph (unit gain for an all-zero block). A symbol
    whose h is zero arrives erased: both of its reals read zero.
    """
    length = vec.data.shape[0]
    reals = np.append(vec.data, np.zeros(length % 2))
    z = reals[0::2] + 1j * reals[1::2]
    _, real = transmit(power_gain(z) * z, chan, trial)
    erased = real.h == 0
    zf = np.where(erased, 0.0, real.n / np.where(erased, 1.0, real.h))
    noise = Tensor(np.stack([zf.real, zf.imag], axis=-1).reshape(-1)[:length])
    keep = Tensor(np.repeat(~erased, 2)[:length].astype(np.float64))
    energy = (vec * vec).sum()
    inv_gain = (energy / z.size) ** 0.5 if energy.data else 1.0
    return (vec + noise * inv_gain) * keep


def semantic_forward(model, refs, residuals, x_c_hats, chan, keys, rng=None, bypass=False):
    """The semantic chain the receiver runs and training optimises.

    Image i is encoded from (refs[i], residuals[i]); its features cross
    `chan` at trial 2*keys[i]+1 and its rate map the 5-bit side-channel
    packer, and the decoder fuses them with x_c_hats[i]. The quantizer
    rounds, or adds U(-1/2,1/2) noise from `rng` (training). `bypass`
    (training stage 1) sends the unquantized s at full dimension and
    skips the banks. Returns a dict of x_hat [B,C,H,W], s_tilde, p_s (its
    likelihood, which both allocates and prices the rate), r_tilde and
    alloc (None on bypass). The encoder and
    decoder run in the dtype of their inputs, the rest in float64 (see
    `send_batch`).
    """
    s, r = (
        t.astype(np.float64)
        for t in model.encoder(batch_to_tensor(refs), batch_to_tensor(residuals))
    )
    s_tilde, r_tilde = (rate.quantize(t, rng) for t in (s, r))
    p_s = rate.likelihood(s_tilde, *model.hyper(r_tilde))
    if bypass:
        flat, alloc = s.reshape(len(keys), -1), None
        sent = [flat[b] for b in range(len(keys))]
    else:
        alloc = rate.allocate_rates(p_s)
        sent = model.banks.encode(s_tilde, alloc)
    received = [send_analog(v, chan, 2 * t + 1) for v, t in zip(sent, keys)]
    if bypass:
        s_hat = ad.concat(received).reshape(s.data.shape)
    else:
        blobs = [rate.pack_rate_indices(idx) for idx in alloc.indices()]
        rx_idx = np.stack([rate.unpack_rate_indices(blob, alloc.k_s) for blob in blobs])
        rx_widths = model.banks.widths[rx_idx].reshape(alloc.alpha_bar.shape)
        s_hat = model.banks.decode(received, rx_widths)
    x_c = batch_to_tensor(x_c_hats)
    x_hat = model.decoder(x_c, s_hat.astype(x_c.data.dtype), chan.snr_db)
    return dict(x_hat=x_hat, s_tilde=s_tilde, p_s=p_s, r_tilde=r_tilde, alloc=alloc)


def send_batch(model, images, cfg: PipelineConfig, pcm, keys, rng=None, bypass=False):
    """Both streams for a batch: the one pass `transmit_image` and
    `training.training_forward` share. Image i is split by
    `split_source`, its coded stream crosses cfg.channel at trial
    2*keys[i], and `semantic_forward` sends it on at 2*keys[i]+1 with
    `rng` and `bypass`. Returns (refs, sent, parts): the float64 sources
    of truth, `_send_conventional`'s output, and semantic_forward's dict
    with x_hat cast back to float64 (None when cfg.semantic is off).

    Precision: the encoder and decoder run in float32, on float32 copies
    of the refs, residuals and conventional reconstructions and on the
    float32 casts their float64 parameters keep per weight state, which
    pass their gradients back as float64. Their convolutions are most of
    the work, and float32 GEMMs run about twice as fast. From the
    quantizer through the hyper synthesis, rate allocation, banks and
    analog channel to the loss, the chain stays float64: in float32, CDF
    differences in the Gaussian tails reach the likelihood floor and
    flip rate decisions.
    """
    refs, _, residuals, blobs = zip(*(split_source(x, cfg.q) for x in images))
    sent = _send_conventional(blobs, [x.shape for x in refs], cfg, pcm, [2 * t for t in keys])
    if not cfg.semantic:
        return refs, sent, None
    x_c_hats = [x_c_hat for x_c_hat, _, _ in sent]
    inputs = ([a.astype(np.float32) for a in arrays] for arrays in (refs, residuals, x_c_hats))
    parts = semantic_forward(model, *inputs, cfg.channel, keys, rng, bypass)
    parts["x_hat"] = parts["x_hat"].astype(np.float64)
    return refs, sent, parts


def validate_image(x) -> None:
    """Raise ValueError unless x is an H x W x C image of a float dtype
    whose values are all finite and in [0, 1]."""
    x = np.asarray(x)
    if x.ndim != 3 or 0 in x.shape:
        raise ValueError(
            f"image must be H x W x C with positive dims, got shape {x.shape}"
        )
    if not np.issubdtype(x.dtype, np.floating):
        raise ValueError(
            f"image must have a float dtype with values in [0, 1], got {x.dtype}"
        )
    if not np.isfinite(x).all():
        raise ValueError("image values must be finite")
    lo, hi = x.min(), x.max()
    if lo < 0.0 or hi > 1.0:
        raise ValueError(
            f"image values must lie in [0, 1], got min {lo:.6g} and max {hi:.6g}"
        )


def transmit_image(x, cfg: PipelineConfig, seed: int = 0, model=None, pcm=None):
    """One image through both branches: `send_batch` as a batch of one.

    Returns (x_hat, frame, metrics), x_hat in float64. The conventional
    and semantic streams use channel trials 2*seed and 2*seed+1, so
    every call index sees independent realizations of the same
    configured channel. An image that is not H x W x C, of a float
    dtype, finite and in [0, 1], or that has a side shorter than the
    MS-SSIM window (`metrics.WINDOW`) raises ValueError before any work
    (DimensionError for a shape the semantic branch cannot take).
    """
    if cfg.semantic:
        model = SemanticModel(ModelConfig()) if model is None else model
        model.encoder.check_image(np.shape(x))
    validate_image(x)
    if min(np.shape(x)[:2]) < metrics.WINDOW:
        raise ValueError(f"image sides must be at least the {metrics.WINDOW} px MS-SSIM window")
    if pcm is None:
        pcm = load_code(cfg.code)
    with frozen(model.parameters() if cfg.semantic else ()):
        (x_ref,), ((x_c_hat, corrupted, seg),), parts = send_batch(model, [x], cfg, pcm, [seed])

    x_hat, semantic_dims, k_s, clamped = x_c_hat, 0, 0, 0
    if parts is not None:
        x_hat, alloc = tensor_to_image(parts["x_hat"]), parts["alloc"]
        semantic_dims, k_s, clamped = int(alloc.totals()[0]), alloc.k_s, alloc.clamped

    frame = TransmissionFrame(
        frame_bits=seg["frame_bits"],
        pad_bits=seg["pad_bits"],
        image_symbols=seg["image_symbols"],
        semantic_dims=semantic_dims,
        semantic_symbols=-(-semantic_dims // 2),
        side_bits=rate.SIDE_BITS_PER_PATCH * k_s,
        side_symbols=rate.side_channel_symbols(k_s),
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
        "bp_iterations": seg["bp_iterations"],
        "bp_iterations_per_frame": seg["bp_iterations_per_frame"],
        "frame_count": len(frame.frame_bits),
        "clamped_patches": clamped,
    }
    return x_hat, frame, report
