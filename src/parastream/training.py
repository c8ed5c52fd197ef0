"""Rate-distortion loss, Adam, and the three-stage training schedule.

Stage 1 trains everything except the rate banks, sending the semantic
features across the channel analog at full dimension. Stage 2 freezes
those weights and trains only the banks and rate tokens through the
full variable-rate path. Stage 3 fine-tunes all parameters under a
polynomial learning-rate decay. Every batch samples one SNR from the
training set and runs the conventional branch for real (no gradients),
so the decoder sees genuinely corrupted reconstructions at low SNR.

Both streams cross the same channel functions that `transmit_image`
uses (`pipeline._send_conventional` and `pipeline.send_analog`), so
training noise comes from `ChannelConfig.seed` and a trial index. The
image at position i of step s in stage k is keyed on
t = 3 * (s * batch_size + i) + k - 1; its conventional stream takes
channel trial 2t and its semantic stream 2t + 1, so no realization
repeats within or across the three stages.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from . import rate
from .encoder import batch_to_tensor
from .pipeline import (
    ModelConfig,
    PipelineConfig,
    SemanticModel,
    _send_conventional,
    load_code,
    send_analog,
    split_source,
)
from .rng import make_rng

TRAIN_SNRS_DB = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)


@dataclass(frozen=True)
class TrainConfig:
    stage: int
    steps: int = 200
    batch_size: int = 4
    lr: float = 1e-3
    poly_power: float = 0.9
    betas: tuple = (0.9, 0.999)
    snr_set: tuple = TRAIN_SNRS_DB
    flip_h: bool = True
    flip_v: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.stage not in (1, 2, 3):
            raise ValueError(f"stage must be 1, 2, or 3, got {self.stage}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


class Adam:
    """Standard Adam with bias correction; lr is mutable for schedules."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def poly_lr(base: float, step: int, total: int, power: float = 0.9) -> float:
    """base * (1 - step/total)^power; zero at the final boundary."""
    return base * (1.0 - step / total) ** power


def rd_loss(x, x_hat, s_tilde, r_tilde, mu, sigma, model, lambda1):
    """MSE on the 0..255 pixel scale plus lambda1 * bits, per image."""
    err = (x_hat - x) * 255.0
    mse = (err * err).mean()
    if lambda1 == 0.0:
        return mse
    bits = rate.rate_term(s_tilde, r_tilde, mu, sigma, model.prior)
    return mse + (lambda1 / x.data.shape[0]) * bits


def training_forward(model, images, pcfg, snr_db, rng, stage, pcm, trial):
    """One differentiable pass over a batch at a fixed SNR.

    `trial` is the index of the batch's first image within the stage;
    image i crosses the channel as t = 3 * (trial + i) + stage - 1, its
    conventional stream at channel trial 2t and its semantic stream at
    2t + 1. Returns (loss, parts) where parts carries the tensors a
    caller may inspect (x_hat, s_tilde, alloc when the banks are in the
    loop).
    """
    chan = replace(pcfg.channel, snr_db=float(snr_db))
    keys = [3 * (trial + i) + stage - 1 for i in range(len(images))]
    refs, residuals, received_cond = [], [], []
    for img, t in zip(images, keys):
        x_ref, _, x_r, blob = split_source(img, pcfg.q)
        x_c_hat, _, _ = _send_conventional(
            blob, x_ref.shape, replace(pcfg, channel=chan), pcm, 2 * t
        )
        refs.append(x_ref)
        residuals.append(x_r)
        received_cond.append(x_c_hat)
    x = batch_to_tensor(refs)
    s, r = model.encoder(x, batch_to_tensor(residuals))
    s_tilde = rate.quantize(s, "train", rng)
    r_tilde = rate.quantize(r, "train", rng)
    mu, sigma = model.hyper(r_tilde)
    alloc = None
    if stage == 1:
        flat = s.reshape(len(keys), -1)
        rows = [send_analog(flat[b], chan, 2 * t + 1) for b, t in enumerate(keys)]
        s_hat = ad.stack(rows).reshape(s.data.shape)
    else:
        alloc = rate.allocate_rates(rate.likelihood(s_tilde, mu, sigma))
        encoded = model.banks.encode(s_tilde, alloc)
        received = [send_analog(v, chan, 2 * t + 1) for v, t in zip(encoded, keys)]
        s_hat = model.banks.decode(received, alloc.alpha_bar)
    x_hat = model.decoder(batch_to_tensor(received_cond), s_hat, snr_db)
    loss = rd_loss(x, x_hat, s_tilde, r_tilde, mu, sigma, model, pcfg.lambda1)
    return loss, {"x_hat": x_hat, "s_tilde": s_tilde, "alloc": alloc}


def stage_parameters(model, stage):
    if stage == 2:
        return model.ra_parameters()
    if stage == 1:
        return model.non_ra_parameters()
    return model.parameters()


def train(cfg: TrainConfig, dataset, model, pcfg: PipelineConfig | None = None):
    """Run one stage over the dataset; returns (model, loss history).

    The model carries a stage marker; stages must run in order 1, 2, 3.
    """
    if pcfg is None:
        pcfg = PipelineConfig()
    if cfg.stage != model.stage + 1:
        raise ValueError(
            f"stage {cfg.stage} cannot follow stage {model.stage}; "
            "run stages in order"
        )
    pcm = load_code(pcfg.code)
    rng = make_rng(cfg.seed, cfg.stage)
    opt = Adam(stage_parameters(model, cfg.stage), cfg.lr, betas=cfg.betas)
    history = []
    for step in range(cfg.steps):
        if cfg.stage == 3:
            opt.lr = poly_lr(cfg.lr, step, cfg.steps, cfg.poly_power)
        batch_idx = rng.integers(0, len(dataset), size=cfg.batch_size)
        images = []
        for idx in batch_idx:
            img = dataset[idx]
            if cfg.flip_h and rng.integers(2):
                img = img[:, ::-1]
            if cfg.flip_v and rng.integers(2):
                img = img[::-1]
            images.append(np.ascontiguousarray(img))
        snr_db = float(rng.choice(cfg.snr_set))
        opt.zero_grad()
        loss, _ = training_forward(
            model, images, pcfg, snr_db, rng, cfg.stage, pcm,
            trial=step * cfg.batch_size,
        )
        loss.backward()
        opt.step()
        history.append(float(loss.data))
    model.stage = cfg.stage
    return model, history


def save_model(path, model, history=()):
    """Persist parameters, the stage marker, and the loss log."""
    np.savez(
        path,
        __stage__=np.array(model.stage),
        __config__=np.array(json.dumps(asdict(model.cfg))),
        __history__=np.asarray(list(history), dtype=np.float64),
        **model.state_dict(),
    )


def load_model(path):
    """Rebuild a model from :func:`save_model` output. Returns
    (model, history)."""
    blob = np.load(path, allow_pickle=False)
    raw = json.loads(str(blob["__config__"]))
    for key, value in raw.items():
        if isinstance(value, list):
            raw[key] = tuple(value)
    model = SemanticModel(ModelConfig(**raw))
    state = {name: blob[name] for name in blob.files if not name.startswith("__")}
    model.load_state_dict(state)
    model.stage = int(blob["__stage__"])
    return model, list(blob["__history__"])
