"""Rate-distortion loss, Adam, and the three-stage training schedule.

Stage 1 trains everything except the rate banks, sending the semantic
features across the channel analog at full dimension. Stage 2 freezes
those weights and trains only the banks and rate tokens through the
full variable-rate path. Stage 3 fine-tunes all parameters under the
decay lr * (1 - step/steps)^0.9. Adam runs at betas (0.9, 0.999) and
eps 1e-8. A stage runs inside `layers.frozen` over the parameters it
does not train, so stage 2 backpropagates only into the banks (via the
decoder's inputs, never its weights) and frozen parameters keep no
grad. Every batch samples one SNR from the training set and runs the
conventional branch for real (no gradients), so the decoder sees
genuinely corrupted reconstructions at low SNR.

Each step sends its whole batch through one `pipeline.send_batch`
call, the pass and precisions of `transmit_image`, on per-image channel
trials (see `training_forward`) that never repeat within or across the
stages. `Adam.step` bumps each parameter's `version`, so the next step
casts the float64 master weights afresh (Micikevicius et al., "Mixed
Precision Training", ICLR 2018).
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import rate
from .channel import _is_int
from .encoder import batch_to_tensor
from .layers import frozen
from .pipeline import (
    ModelConfig,
    PipelineConfig,
    SemanticModel,
    _send_conventional,  # unused; perfbench/instrument.py looks it up here
    load_code,
    send_batch,
    validate_image,
)
from .rng import make_rng

TRAIN_SNRS_DB = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)


@dataclass(frozen=True)
class TrainConfig:
    stage: int
    steps: int = 200
    batch_size: int = 4
    lr: float = 1e-3
    snr_set: tuple = TRAIN_SNRS_DB
    seed: int = 0

    def __post_init__(self):
        if not (_is_int(self.stage, 1) and self.stage <= 3):
            raise ValueError(f"TrainConfig.stage must be 1, 2, or 3, got {self.stage!r}")
        for name, low in (("steps", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value, low):
                raise ValueError(f"TrainConfig.{name} must be an integer >= {low}, got {value!r}")
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise ValueError(f"learning rate lr must be finite and positive, got {self.lr}")
        if len(self.snr_set) == 0 or not all(math.isfinite(s) for s in self.snr_set):
            raise ValueError(
                f"snr_set must hold at least one SNR, each finite, got {self.snr_set!r}"
            )


class Adam:
    """Standard Adam with bias correction; lr is mutable for schedules."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._work = np.empty(2 * max((p.data.size for p in self.params), default=0))
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
            # m += (1-b1)(g-m); v += (1-b2)(g*g-v); p -= lr(m/c1)/(sqrt(v/c2)+eps)
            num, den = self._work[: 2 * g.size].reshape((2,) + g.shape)
            m += np.multiply(np.subtract(g, m, out=num), 1.0 - self.beta1, out=num)
            np.subtract(np.multiply(g, g, out=num), v, out=num)
            v += np.multiply(num, 1.0 - self.beta2, out=num)
            np.multiply(np.divide(m, c1, out=num), self.lr, out=num)
            np.add(np.sqrt(np.divide(v, c2, out=den), out=den), self.eps, out=den)
            p.data -= np.divide(num, den, out=num)
            p.version += 1


def poly_lr(base: float, step: int, total: int) -> float:
    """base * (1 - step/total)^0.9; zero at the final boundary."""
    return base * (1.0 - step / total) ** 0.9


def rd_loss(x, x_hat, p_s, r_tilde, model, lambda1):
    """MSE on the 0..255 pixel scale plus lambda1 * bits of (p_s, r̃), per image."""
    err = (x_hat - x) * 255.0
    mse = (err * err).mean()
    if lambda1 == 0.0:
        return mse
    bits = rate.rate_term(p_s, r_tilde, model.prior)
    return mse + (lambda1 / x.data.shape[0]) * bits


def training_forward(model, images, pcfg, snr_db, rng, stage, pcm, trial):
    """One differentiable pass over a batch at a fixed SNR.

    `trial` is the index of the batch's first image within the stage;
    image i crosses the channel as t = 3 * (trial + i) + stage - 1, its
    conventional stream at channel trial 2t and its semantic stream at
    2t + 1. Returns (loss, parts) where parts is send_batch's dict:
    x_hat (float64), s_tilde, p_s, r_tilde, and alloc (None in
    stage 1). Every image passes the checks of transmit_image before any
    work, but for its minimum side: training computes no MS-SSIM.
    """
    for img in images:
        model.encoder.check_image(np.shape(img))
        validate_image(img)
    cfg = replace(pcfg, channel=replace(pcfg.channel, snr_db=float(snr_db)))
    keys = [3 * (trial + i) + stage - 1 for i in range(len(images))]
    refs, _, parts = send_batch(model, images, cfg, pcm, keys, rng, stage == 1)
    loss_inputs = [parts[name] for name in ("x_hat", "p_s", "r_tilde")]
    return rd_loss(batch_to_tensor(refs), *loss_inputs, model, pcfg.lambda1), parts


def stage_parameters(model, stage):
    if stage == 3:
        return model.parameters()
    ra = {id(p) for p in model.banks.parameters()}
    return [p for p in model.parameters() if (id(p) in ra) == (stage == 2)]


def train(cfg: TrainConfig, dataset, model, pcfg: PipelineConfig | None = None):
    """Run one stage over the dataset; returns (model, loss history).

    The model carries a stage marker; stages must run in order 1, 2, 3.
    """
    if pcfg is None:
        pcfg = PipelineConfig()
    if not pcfg.semantic:
        raise ValueError("PipelineConfig.semantic is off; training needs the semantic stream")
    if cfg.stage != model.stage + 1:
        raise ValueError(
            f"stage {cfg.stage} cannot follow stage {model.stage}; "
            "run stages in order"
        )
    if len(dataset) == 0:
        raise ValueError("the dataset is empty; training needs at least one image")
    pcm = load_code(pcfg.code)
    rng = make_rng(cfg.seed, cfg.stage)
    opt = Adam(stage_parameters(model, cfg.stage), cfg.lr)
    trainable = {id(p) for p in opt.params}
    model.zero_grad()
    history = []
    with frozen([p for p in model.parameters() if id(p) not in trainable]):
        for step in range(cfg.steps):
            if cfg.stage == 3:
                opt.lr = poly_lr(cfg.lr, step, cfg.steps)
            batch_idx = rng.integers(0, len(dataset), size=cfg.batch_size)
            images = []
            for idx in batch_idx:
                img = dataset[idx]
                if rng.integers(2):
                    img = img[:, ::-1]
                if rng.integers(2):
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
    # the last step's gradients are spent; leave none on the model
    opt.zero_grad()
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
    (model, history). A file that is not such a checkpoint (empty, not an
    .npz archive, cut short, or an archive without its entries), names a
    config key ModelConfig does not have, holds a config ModelConfig or
    SemanticModel rejects or misses a parameter raises ValueError naming
    the file and the problem."""
    with open(path, "rb") as fh:
        try:
            blob = np.load(fh, allow_pickle=False)
            entries = {name: blob[name] for name in getattr(blob, "files", ())}
        except (EOFError, ValueError, zipfile.BadZipFile):
            raise ValueError(f"{path}: not a model checkpoint, no readable .npz archive") from None
    absent = [k for k in ("__config__", "__stage__", "__history__") if k not in entries]
    if absent:
        raise ValueError(f"{path}: not a model checkpoint, no {', '.join(absent)} entry")
    raw = json.loads(str(entries["__config__"]))
    # older checkpoints hold fields now derived (c_s, up_widths; one that
    # disagrees fails the shape check below) or fixed (a null hyper_hidden)
    derived = ("c_s", "up_widths")
    raw = {k: v for k, v in raw.items() if k not in derived and (k, v) != ("hyper_hidden", None)}
    unknown = sorted(set(raw) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown model config keys {unknown}")
    try:
        model = SemanticModel(
            ModelConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
        )
    except ValueError as exc:
        raise ValueError(f"{path}: bad model config: {exc}") from None
    # older checkpoints hold PagNet's score weight as fc.weight, next to
    # an fc.bias that cancelled between the streams and is ignored
    state = {
        name.removesuffix(".weight") if name.endswith(".fc.weight") else name: value
        for name, value in entries.items()
        if not name.startswith("__")
    }
    missing = sorted({name for name, _ in model.named_parameters()} - set(state))
    if missing:
        raise ValueError(f"{path}: checkpoint misses parameters {missing[:4]}")
    model.load_state_dict(state)
    model.stage = int(entries["__stage__"])
    return model, list(entries["__history__"])
