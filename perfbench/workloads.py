"""The benchmark's three seeded workloads.

Each is a closed loop with one caller: the next operation starts when
the previous one has returned. The workload seed decides the images,
the order of sizes and SNRs, the model's init seed and every per-call
seed; the program receives only the generated inputs. An operation is
one ``transmit_image`` call on the transmit workloads and one training
step on ``train_desk``.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time

import numpy as np

import instrument
from parastream import data, pipeline, training
from parastream.channel import ChannelConfig
from parastream.codec import compress, decompress
from parastream.pipeline import ModelConfig, PipelineConfig, SemanticModel

Q = 50
POOL = 96  # images generated per size; an operation draws one of them
WARM_UP_SEED = 10**9
# Operations are timed in CPU time of the one caller thread (BLAS runs
# single-threaded in it). On an idle machine this equals wall time; on a
# shared virtual machine it leaves out time the hypervisor gives to other
# guests, which swings wall time by tens of percent from run to run.
CLOCK = time.thread_time


class CheckError(AssertionError):
    """A program output failed one of the benchmark's correctness checks."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


class Quality:
    """Quality figures of a fixed set of transmissions, plus a digest of
    every output so that two passes can be compared bit for bit."""

    def __init__(self):
        self.mse, self.ms_ssim, self.cbr = [], [], []
        self.corrupted = self.frames = self.frames_converged = 0
        self.losses = []
        self.digest = hashlib.sha256()

    def add_image(self, x, x_hat, frame, report):
        self.mse.append(float(np.mean(((x_hat - x) * 255.0) ** 2)))
        self.ms_ssim.append(report["ms_ssim"])
        self.cbr.append(report["cbr"])
        self.corrupted += int(report["corrupted"])
        self.frames += report["frame_count"]
        self.frames_converged += report["frames_converged"]
        self.digest.update(np.ascontiguousarray(x_hat).tobytes())
        self.digest.update(repr((frame, sorted(report.items()))).encode())

    def add_losses(self, history):
        _require(all(math.isfinite(v) for v in history), "training loss is not finite")
        self.losses.extend(history)
        self.digest.update(repr(list(history)).encode())

    def summary(self, loss_tail=0):
        """psnr_db comes from the mean MSE, as in experiment.evaluate_point."""
        n = len(self.mse)
        out = {
            "psnr_db": 10.0 * math.log10(255.0**2 / float(np.mean(self.mse))),
            "ms_ssim": float(np.mean(self.ms_ssim)),
            "cbr": float(np.mean(self.cbr)),
            "corruption_rate": self.corrupted / n,
            "frame_error_rate": 1.0 - self.frames_converged / self.frames,
            "images": n,
            "frames": self.frames,
            "digest": self.digest.hexdigest(),
        }
        if loss_tail:
            out["train_loss_end"] = float(np.mean(self.losses[-loss_tail:]))
        return out


def check_transmission(x, out, pcm, semantic, exact_codec):
    x_hat, frame, report = out
    _require(x_hat.shape == x.shape, f"x_hat shape {x_hat.shape} != input {x.shape}")
    _require(bool(np.isfinite(x_hat).all()), "x_hat is not finite")
    if not semantic:
        _require(0.0 <= x_hat.min() and x_hat.max() <= 1.0, "x_hat leaves [0, 1]")
    _require(
        frame.n == frame.image_symbols + frame.semantic_symbols + frame.side_symbols,
        "frame symbols do not add up",
    )
    _require(
        frame.image_symbols == len(frame.frame_bits) * pcm.n // 2,
        "image symbols != frame count * n/2",
    )
    _require(report["frame_count"] == len(frame.frame_bits), "frame count mismatch")
    _require(report["cbr"] == frame.n / frame.k, "cbr != n/k")
    if exact_codec and not report["corrupted"]:
        _require(
            np.array_equal(x_hat, decompress(compress(x, Q))),
            "uncorrupted image differs from the codec round trip",
        )


@contextlib.contextmanager
def _patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Run:
    """What one pass measured: latencies, attempts, failures, quality."""

    def __init__(self):
        self.latencies = []  # CPU seconds per operation
        self.wall = []  # wall seconds per operation
        self.attempted = self.failed = 0
        self.errors = []
        self.quality = Quality()

    def fail(self, exc):
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")


class TransmitWorkload:
    """``transmit_image`` over every (size, SNR) pair once per block, in
    an order the seed permutes. Quality comes from the first
    ``QUALITY_BLOCKS`` blocks; timing runs whole blocks until time is
    up. A traced pass replays the first ``TRACE_BLOCKS`` blocks."""

    QUALITY_BLOCKS = 20
    TRACE_BLOCKS = 8

    def __init__(self, name, semantic, sizes, snrs):
        self.name = name
        self.semantic = semantic
        self.sizes, self.snrs = sizes, snrs

    def setup(self, seed):
        self.seed = seed
        self.pcm = pipeline.load_code(pipeline.DEFAULT_TABLE)
        self.model = SemanticModel(ModelConfig(init_seed=seed)) if self.semantic else None
        self.pools = {
            size: data.make_corpus(POOL, size, seed * 100 + i)
            for i, size in enumerate(self.sizes)
        }
        self.configs = {
            snr: PipelineConfig(
                q=Q,
                channel=ChannelConfig(kind="awgn", snr_db=snr, seed=seed),
                semantic=self.semantic,
            )
            for snr in self.snrs
        }

    def block(self, b):
        """Operations (index, image, snr) of block b."""
        combos = [(size, j) for size in self.sizes for j in range(len(self.snrs))]
        order = np.random.default_rng([self.seed, b]).permutation(len(combos))
        return [
            (
                b * len(combos) + pos,
                self.pools[combos[c][0]][(b * len(self.snrs) + combos[c][1]) % POOL],
                self.snrs[combos[c][1]],
            )
            for pos, c in enumerate(order)
        ]

    def _transmit(self, index, x, snr):
        return pipeline.transmit_image(
            x, self.configs[snr], seed=index, model=self.model, pcm=self.pcm
        )

    def warm_up(self):
        """One untimed call per size, on call seeds no block uses."""
        for i, size in enumerate(self.sizes):
            self._transmit(WARM_UP_SEED + i, self.pools[size][0], self.snrs[0])

    def _run_op(self, index, x, snr, run, rec=None, quality=True):
        run.attempted += 1
        if rec is not None:
            rec.op = index
        start, start_wall = CLOCK(), time.perf_counter()
        try:
            out = self._transmit(index, x, snr)
        except Exception as exc:  # counted against attempts; the run reports it
            run.fail(exc)
            return
        run.latencies.append(CLOCK() - start)
        run.wall.append(time.perf_counter() - start_wall)
        check_transmission(
            x, out, self.pcm, self.semantic, exact_codec=quality and not self.semantic
        )
        if quality:
            run.quality.add_image(x, *out)

    def measure(self, seconds):
        run = Run()
        deadline = time.perf_counter() + seconds
        b = 0
        while b < self.QUALITY_BLOCKS or time.perf_counter() < deadline:
            for op in self.block(b):
                self._run_op(*op, run, quality=b < self.QUALITY_BLOCKS)
            b += 1
        run.summary = run.quality.summary()
        return run

    def trace(self, rec):
        """Every operation of the first TRACE_BLOCKS blocks twice, untraced
        and traced, in alternating order so that drift in machine speed
        hits both passes alike. Returns (untraced run, traced run)."""
        runs = (Run(), Run())
        for b in range(self.TRACE_BLOCKS):
            for op in self.block(b):
                for k in (0, 1) if op[0] % 2 == 0 else (1, 0):
                    with instrument.traced(rec) if k else contextlib.nullcontext():
                        self._run_op(*op, runs[k], rec if k else None)
        for run in runs:
            run.summary = run.quality.summary()
        return runs


class TrainWorkload:
    """The three-stage desk schedule from tests/conftest.py, scaled to
    20:6:16 steps (the 500:150:400 ratio), on a fresh model per cycle.
    The first cycle's losses and an evaluation of its model give the
    quality figures; timing runs further cycles until time is up."""

    SCHEDULE = ((1, 20, 1e-3), (2, 6, 1e-3), (3, 16, 3e-4))
    LAMBDA1 = 0.02
    EVAL_IMAGES = 96

    def __init__(self, name):
        self.name = name

    def setup(self, seed):
        self.seed = seed
        self.pcm = pipeline.load_code(pipeline.DEFAULT_TABLE)
        self.corpus = data.make_corpus(32, 16, 2 * seed)
        self.eval_images = data.make_corpus(self.EVAL_IMAGES, 16, 2 * seed + 1)
        self.pcfg = PipelineConfig(
            channel=ChannelConfig(kind="awgn", snr_db=10.0, seed=seed),
            lambda1=self.LAMBDA1,
        )
        self.model = self.fresh_model(0)

    def fresh_model(self, cycle):
        return SemanticModel(ModelConfig(init_seed=self.seed * 1000 + cycle))

    def _stage(self, cycle, model, stage, steps, lr, run, rec=None):
        """One ``training.train`` call; a step runs from one entry into
        ``training_forward`` to the next, the last one until train returns."""
        marks = []

        def clocked(forward):
            def step(*args, **kwargs):
                marks.append((CLOCK(), time.perf_counter()))
                if rec is not None:
                    rec.op += 1
                return forward(*args, **kwargs)

            return step

        cfg = training.TrainConfig(
            stage=stage, steps=steps, lr=lr, batch_size=4, seed=self.seed * 1000 + cycle
        )
        run.attempted += steps
        try:
            with _patched(training, "training_forward", clocked):
                model, history = training.train(cfg, self.corpus, model, self.pcfg)
        except Exception as exc:  # the whole stage counts as failed
            run.failed += steps - 1
            run.fail(exc)
            return None, []
        marks.append((CLOCK(), time.perf_counter()))
        cpu, wall = np.diff(marks, axis=0).T
        run.latencies.extend(cpu.tolist())
        run.wall.extend(wall.tolist())
        return model, history

    def _cycle(self, cycle, model, run, deadline=None):
        histories = []
        for stage, steps, lr in self.SCHEDULE:
            model, history = self._stage(cycle, model, stage, steps, lr, run)
            if model is None:
                return None, histories
            histories.append(history)
            if deadline is not None and time.perf_counter() >= deadline:
                break
        return model, histories

    def _evaluate(self, model, run):
        """The trained model transmits held-out images at the training SNRs."""
        for i, x in enumerate(self.eval_images):
            snr = training.TRAIN_SNRS_DB[i % len(training.TRAIN_SNRS_DB)]
            cfg = PipelineConfig(
                q=Q, channel=ChannelConfig(kind="awgn", snr_db=snr, seed=self.seed)
            )
            run.attempted += 1
            try:
                out = pipeline.transmit_image(x, cfg, seed=i, model=model, pcm=self.pcm)
            except Exception as exc:  # counted against attempts; the run reports it
                run.fail(exc)
                continue
            check_transmission(x, out, self.pcm, True, exact_codec=False)
            run.quality.add_image(x, *out)

    def _finish(self, model, run):
        if model is not None:
            self._evaluate(model, run)
        run.summary = run.quality.summary(loss_tail=self.SCHEDULE[-1][1] // 2)

    def warm_up(self):
        cfg = training.TrainConfig(stage=1, steps=1, batch_size=4, seed=self.seed)
        training.train(cfg, self.corpus, self.fresh_model(WARM_UP_SEED), self.pcfg)

    def measure(self, seconds):
        run = Run()
        deadline = time.perf_counter() + seconds
        model, histories = self._cycle(0, self.model, run)
        for history in histories:
            run.quality.add_losses(history)
        self._finish(model, run)
        cycle = 1
        while time.perf_counter() < deadline:
            self._cycle(cycle, self.fresh_model(cycle), run, deadline=deadline)
            cycle += 1
        return run

    def trace(self, rec):
        """The first cycle twice, on two copies of the same fresh model,
        untraced and traced, stage by stage in alternating order so that
        drift in machine speed hits both passes alike. Evaluation runs
        untraced. Returns (untraced run, traced run)."""
        runs = (Run(), Run())
        models = [self.model, self.fresh_model(0)]
        for i, (stage, steps, lr) in enumerate(self.SCHEDULE):
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                if models[k] is None:
                    continue
                with instrument.traced(rec) if k else contextlib.nullcontext():
                    models[k], history = self._stage(
                        0, models[k], stage, steps, lr, runs[k], rec if k else None
                    )
                runs[k].quality.add_losses(history)
        for model, run in zip(models, runs):
            self._finish(model, run)
        return runs


WORKLOADS = {
    w.name: w
    for w in (
        TransmitWorkload(
            "semantic_clear",
            semantic=True,
            sizes=(16, 32, 64),
            snrs=(6.0, 8.0, 10.0, 12.0),
        ),
        TransmitWorkload(
            "conventional_cliff",
            semantic=False,
            sizes=(16, 32, 64),
            snrs=(1.0, 3.0, 4.5, 6.0, 9.0),
        ),
        TrainWorkload("train_desk"),
    )
}
