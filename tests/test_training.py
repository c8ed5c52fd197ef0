"""Loss, optimizer, the analog channel training crosses, and the staged
schedule."""

import json
import re

import numpy as np
import pytest

from parastream import data, ldpc, pipeline, rate, training
from parastream.autodiff import DimensionError, Tensor
from parastream.channel import ChannelConfig, ChannelRealization, draw_realization
from parastream.layers import frozen
from parastream.pipeline import PipelineConfig, load_code, power_gain, send_analog
from parastream.rng import make_rng
from parastream.training import (
    Adam,
    TrainConfig,
    poly_lr,
    rd_loss,
    save_model,
    train,
    training_forward,
)

from helpers import (
    adam_step_oracle,
    float64_training_chain,
    gradcheck,
    toy_images,
    toy_model,
)


def toy_pipeline(lambda1=0.05):
    return PipelineConfig(
        channel=ChannelConfig(kind="awgn", snr_db=10.0, seed=0), lambda1=lambda1
    )


class TestRdLoss:
    def _inputs(self, model, seed=11):
        rng = make_rng(seed)
        x = Tensor(rng.uniform(0.0, 1.0, (2, 3, 8, 8)))
        x_hat = Tensor(
            x.data + 0.01 * rng.standard_normal(x.data.shape), requires_grad=True
        )
        s = Tensor(rng.standard_normal((2, 4, 2, 2)), requires_grad=True)
        r = Tensor(rng.standard_normal((2, 4, 2, 2)), requires_grad=True)
        mu = Tensor(0.1 * rng.standard_normal((2, 4, 2, 2)), requires_grad=True)
        sigma = Tensor(rng.uniform(0.5, 1.5, (2, 4, 2, 2)), requires_grad=True)
        return x, x_hat, s, r, mu, sigma

    @staticmethod
    def _loss(x, x_hat, s, r, mu, sigma, model, lambda1):
        return rd_loss(x, x_hat, rate.likelihood(s, mu, sigma), r, model, lambda1)

    def test_zero_lambda_is_pure_mse(self):
        model = toy_model()
        x, x_hat, s, r, mu, sigma = self._inputs(model)
        loss = self._loss(x, x_hat, s, r, mu, sigma, model, 0.0)
        err = (x_hat.data - x.data) * 255.0
        assert loss.data == (err * err).mean()

    def test_perfect_reconstruction_is_zero(self):
        model = toy_model()
        x, _, s, r, mu, sigma = self._inputs(model)
        loss = self._loss(x, x, s, r, mu, sigma, model, 0.0)
        assert loss.data == 0.0

    def test_rate_term_enters_per_image(self):
        # the lambda-weighted difference must be exactly the batch rate
        # divided by the batch size
        model = toy_model()
        x, x_hat, s, r, mu, sigma = self._inputs(model)
        base = self._loss(x, x_hat, s, r, mu, sigma, model, 0.0)
        full = self._loss(x, x_hat, s, r, mu, sigma, model, 0.4)
        bits = rate.rate_term(rate.likelihood(s, mu, sigma), r, model.prior)
        np.testing.assert_allclose(
            full.data - base.data, 0.4 * bits.data / 2.0, rtol=1e-12
        )

    def test_gradients_reach_every_input(self):
        model = toy_model()
        x, x_hat, s, r, mu, sigma = self._inputs(model)

        def fn():
            return self._loss(x, x_hat, s, r, mu, sigma, model, 0.1)

        assert gradcheck(fn, [x_hat, s, r, mu, sigma]) < 1e-4


class TestAdam:
    def test_first_step_matches_update_rule(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([2.0, -0.5])
        opt = Adam([p], lr=0.1)
        opt.step()
        g = np.array([2.0, -0.5])
        m = 0.1 * g
        v = 0.001 * g * g
        expected = np.array([1.0, -2.0]) - 0.1 * (m / 0.1) / (
            np.sqrt(v / 0.001) + 1e-8
        )
        np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(400):
            opt.zero_grad()
            d = p - Tensor(np.array([3.0]))
            loss = (d * d).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0] - 3.0) < 1e-2

    def test_skips_missing_gradients(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.data[0] == 5.0

    def test_matches_array_expressions_bit_for_bit(self):
        rng = np.random.default_rng(21)
        shapes = [(3, 2, 3, 3), (5,), (4, 7), (1,)]
        # parameters on the scale of one update, so that a last-bit change
        # in the update shows in the parameter bits
        start = [1e-3 * rng.standard_normal(shape) for shape in shapes]
        fast = Adam([Tensor(a.copy(), requires_grad=True) for a in start], lr=3e-3)
        slow = Adam([Tensor(a.copy(), requires_grad=True) for a in start], lr=3e-3)
        for step in range(5):
            fast.lr = slow.lr = 3e-3 * (1.0 - step / 5)
            for p, q in zip(fast.params, slow.params):
                p.grad = 10.0 ** step * rng.standard_normal(p.data.shape)
                q.grad = p.grad.copy()
            # the last parameter has no gradient on odd steps
            if step % 2:
                fast.params[-1].grad = slow.params[-1].grad = None
            fast.step()
            adam_step_oracle(slow)
            for a, b in zip(fast.params, slow.params):
                assert a.data.tobytes() == b.data.tobytes(), step
            for a, b in zip(fast.m + fast.v, slow.m + slow.v):
                assert a.tobytes() == b.tobytes(), step

    def test_lr_is_live(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = Adam([p], lr=0.1)
        opt.lr = 0.0
        opt.step()
        assert p.data[0] == 5.0


class TestPolyLr:
    def test_start_and_end(self):
        assert poly_lr(3e-4, 0, 100) == 3e-4
        assert poly_lr(3e-4, 100, 100) == 0.0

    def test_monotone_decay(self):
        values = [poly_lr(1.0, s, 50) for s in range(51)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestTrainConfig:
    def test_stage_out_of_range(self):
        with pytest.raises(ValueError, match="stage"):
            TrainConfig(stage=0)
        with pytest.raises(ValueError, match="stage"):
            TrainConfig(stage=4)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(stage=1, lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_names_the_field(self, lr):
        with pytest.raises(ValueError, match="learning rate lr"):
            TrainConfig(stage=1, lr=lr)

    @pytest.mark.parametrize("snr_set", [(), [], (10.0, float("nan")), (float("-inf"),)])
    def test_empty_or_non_finite_snr_set_names_the_field(self, snr_set):
        with pytest.raises(ValueError, match="snr_set"):
            TrainConfig(stage=1, snr_set=snr_set)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", 0), ("steps", -1), ("steps", 2.5), ("steps", 2.0), ("steps", True),
            ("batch_size", 0), ("batch_size", -1), ("batch_size", 2.0),
            ("stage", 1.0), ("stage", True),
            ("seed", -1), ("seed", 0.5),
        ],
    )
    def test_counts_below_one_name_the_field(self, field, value):
        # stage, steps and batch_size are integers >= 1 and seed >= 0;
        # a float or bool once passed here and failed inside train
        with pytest.raises(ValueError, match=f"TrainConfig.{field} must be"):
            TrainConfig(**{"stage": 1, field: value})


def expected_analog(vec, chan, trial):
    """vec plus the zero-forced noise of draw_realization, divided by
    the power gain of the paired block: the receiver's reals, built
    without send_analog."""
    reals = np.append(vec, np.zeros(vec.size % 2))
    z = reals[0::2] + 1j * reals[1::2]
    real = draw_realization(chan, z.size, trial)
    zf = real.n / real.h
    noise = np.stack([zf.real, zf.imag], axis=-1).reshape(-1)[: vec.size]
    return vec + noise / power_gain(z)


class TestSendAnalog:
    def test_zero_noise_is_identity(self):
        vec = Tensor(make_rng(1).standard_normal(5), requires_grad=True)
        out = send_analog(vec, ChannelConfig(snr_db=np.inf), trial=0)
        np.testing.assert_array_equal(out.data, vec.data)

    def test_noise_scaled_by_inverse_gain(self):
        for kind in ("awgn", "rayleigh_block"):
            for length in (6, 7):
                chan = ChannelConfig(kind=kind, snr_db=8.0, block_len=2, seed=4)
                vec = make_rng(length).standard_normal(length) * 3.0
                out = send_analog(Tensor(vec), chan, trial=5)
                np.testing.assert_allclose(
                    out.data, expected_analog(vec, chan, 5), rtol=1e-12
                )

    def test_all_zero_block_has_unit_gain(self):
        chan = ChannelConfig(kind="rayleigh_block", snr_db=6.0, block_len=2, seed=1)
        for length in (6, 7):
            zeros = np.zeros(length)
            out = send_analog(Tensor(zeros), chan, trial=2)
            np.testing.assert_array_equal(out.data, expected_analog(zeros, chan, 2))

    def test_zero_gain_erases_its_reals(self, monkeypatch):
        def fading(z, cfg, trial=0):
            real = draw_realization(cfg, z.size, trial)
            h = real.h.copy()
            h[[1, 3]] = 0.0
            return h * z + real.n, ChannelRealization(h=h, n=real.n, sigma2=real.sigma2)

        monkeypatch.setattr(pipeline, "transmit", fading)
        chan = ChannelConfig(kind="awgn", snr_db=10.0, seed=2)
        vec = Tensor(make_rng(7).standard_normal(7))
        out = send_analog(vec, chan, trial=1)
        erased = [2, 3, 6]
        np.testing.assert_array_equal(out.data[erased], 0.0)
        kept = [0, 1, 4, 5]
        np.testing.assert_allclose(
            out.data[kept], expected_analog(vec.data, chan, 1)[kept], rtol=1e-12
        )

    def test_snr_is_amplitude_invariant(self):
        # scaling the payload scales the effective noise with it
        base = make_rng(2).standard_normal(6)
        chan = ChannelConfig(kind="awgn", snr_db=5.0, seed=3)
        small = send_analog(Tensor(base), chan, trial=4).data
        large = send_analog(Tensor(10.0 * base), chan, trial=4).data
        np.testing.assert_allclose(large, 10.0 * small, rtol=1e-10)

    def test_gradient_through_gain(self):
        rng = make_rng(3)
        vec = Tensor(rng.standard_normal(7), requires_grad=True)
        proj = rng.standard_normal(7)
        chan = ChannelConfig(kind="rayleigh_block", snr_db=6.0, block_len=2, seed=5)

        def fn():
            return (send_analog(vec, chan, trial=8) * Tensor(proj)).sum()

        assert gradcheck(fn, [vec]) < 1e-4


class TestZfNoise:
    """The equalized noise send_analog adds, read off an all-zero block
    (unit gain)."""

    def test_awgn_moments(self):
        chan = ChannelConfig(kind="awgn", snr_db=10.0 * np.log10(2.0), seed=4)
        out = send_analog(Tensor(np.zeros(400_000)), chan, trial=0).data
        assert abs(out.mean()) < 5e-3
        np.testing.assert_allclose(out.var(), 0.25, rtol=0.02)

    def test_deterministic(self):
        vec = Tensor(make_rng(5).standard_normal(999))
        chan = ChannelConfig(kind="rayleigh_block", snr_db=3.0, block_len=8, seed=6)
        first = send_analog(vec, chan, trial=11).data
        assert first.tobytes() == send_analog(vec, chan, trial=11).data.tobytes()
        assert first.tobytes() != send_analog(vec, chan, trial=12).data.tobytes()
        other_seed = ChannelConfig(kind="rayleigh_block", snr_db=3.0, block_len=8, seed=7)
        assert first.tobytes() != send_analog(vec, other_seed, trial=11).data.tobytes()

    def test_rayleigh_block_equalized(self):
        chan = ChannelConfig(kind="rayleigh_block", snr_db=10.0, block_len=64, seed=6)
        out = send_analog(Tensor(np.zeros(2000)), chan, trial=0).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, expected_analog(np.zeros(2000), chan, 0), rtol=1e-12)
        # fading makes the equalized noise heavier-tailed than AWGN
        awgn = send_analog(Tensor(np.zeros(2000)), ChannelConfig(snr_db=10.0, seed=6), 0)
        assert np.abs(out).max() != np.abs(awgn.data).max()


class TestTrainingForward:
    def test_stage1_shapes(self):
        model = toy_model()
        pcfg = toy_pipeline()
        pcm = load_code(pcfg.code)
        loss, parts = training_forward(
            model, toy_images(2), pcfg, 10.0, make_rng(9), 1, pcm, trial=0
        )
        assert loss.data.shape == ()
        assert np.isfinite(loss.data)
        assert parts["x_hat"].data.shape == (2, 3, 8, 8)
        assert parts["alloc"] is None

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (lambda img: img[:6, :6], DimensionError, "multiples of 4"),
            (lambda img: img + 2.0, ValueError, r"\[0, 1\]"),
            (lambda img: (img * 255).astype(np.uint8), ValueError, "float dtype"),
        ],
        ids=["shape", "range", "dtype"],
    )
    def test_images_are_checked_before_any_work(self, monkeypatch, bad, error, match):
        # the checks of transmit_image, before the codec or the channel runs
        def reached(*args):
            raise AssertionError("split_source ran on an invalid image")

        monkeypatch.setattr(pipeline, "split_source", reached)
        model, pcfg = toy_model(), toy_pipeline()
        images = toy_images(2)
        images[1] = bad(images[1])
        with pytest.raises(error, match=match):
            training_forward(
                model, images, pcfg, 10.0, make_rng(9), 1, load_code(pcfg.code), trial=0
            )

    def test_stage2_runs_the_banks(self):
        model = toy_model()
        pcfg = toy_pipeline()
        pcm = load_code(pcfg.code)
        loss, parts = training_forward(
            model, toy_images(2), pcfg, 10.0, make_rng(9), 2, pcm, trial=0
        )
        assert parts["alloc"] is not None
        assert parts["x_hat"].data.shape == (2, 3, 8, 8)
        loss.backward()
        grads = [p.grad for p in model.banks.parameters()]
        assert any(g is not None and np.any(g) for g in grads)

    def test_rate_map_crosses_the_side_channel_packer(self, monkeypatch):
        packed = []
        original = rate.pack_rate_indices

        def spy(indices):
            packed.append(np.asarray(indices).shape)
            return original(indices)

        monkeypatch.setattr(rate, "pack_rate_indices", spy)
        pcfg = toy_pipeline()
        images = toy_images(2)
        for stage, expected in ((1, []), (2, [(2, 2)] * 2)):
            packed.clear()
            training_forward(
                toy_model(), images, pcfg, 10.0, make_rng(9), stage,
                load_code(pcfg.code), trial=0,
            )
            assert packed == expected

    def test_frozen_stage2_gives_identical_bank_gradients(self):
        # freezing everything but the banks only prunes the graph; the
        # gradients the banks receive stay bit-identical
        pcfg = toy_pipeline()
        pcm = load_code(pcfg.code)
        grads = []
        for freeze in (False, True):
            model = toy_model()
            model.banks.tokens.data[:] = 0.5
            ra = {id(p) for p in model.banks.parameters()}
            others = [p for p in model.parameters() if id(p) not in ra] if freeze else []
            with frozen(others):
                loss, _ = training_forward(
                    model, toy_images(2), pcfg, 10.0, make_rng(9), 2, pcm, trial=0
                )
                loss.backward()
            assert all(p.grad is None for p in others)
            grads.append([p.grad.tobytes() for p in model.banks.parameters()])
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("snr_db", [2.0, 10.0])
    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_gradients_match_the_float64_chain(self, monkeypatch, stage, snr_db):
        # float32 conv stacks on float64 master weights give every
        # parameter the gradient of the float64 chain to float32 accuracy
        model = pipeline.SemanticModel(pipeline.ModelConfig())
        images = data.make_corpus(count=2, size=16, seed=3)
        pcfg = PipelineConfig()
        pcm = load_code(pcfg.code)
        grads = []
        for wide in (False, True):
            if wide:
                float64_training_chain(monkeypatch)
            model.zero_grad()
            loss, _ = training_forward(
                model, images, pcfg, snr_db, make_rng(5), stage, pcm, trial=0
            )
            loss.backward()
            grads.append({n: p.grad for n, p in model.named_parameters() if p.grad is not None})
        single, double = grads
        assert single.keys() == double.keys() and len(single) > 100
        for name, g in double.items():
            gap = np.linalg.norm(single[name] - g)
            assert gap <= 5e-4 * np.linalg.norm(g), name

    def test_end_to_end_gradients_match_finite_differences(self, monkeypatch):
        # a deterministic closure (fresh rng per call) makes central
        # differences through the whole training graph meaningful. They
        # need the float64 chain: float32 conv stacks cannot resolve them.
        # Each in-place perturbation bumps `version`, as any in-place write
        # must, so no kept cast goes stale
        float64_training_chain(monkeypatch)
        model = toy_model()
        model.banks.tokens.data[:] = 0.5
        pcfg = toy_pipeline()
        pcm = load_code(pcfg.code)
        images = toy_images(2)

        def forward():
            loss, _ = training_forward(
                model, images, pcfg, 10.0, make_rng(123), 2, pcm, trial=0
            )
            return loss

        for p in model.parameters():
            p.grad = None
        forward().backward()

        names = dict(model.named_parameters())
        probes = [
            next(n for n in names if n.startswith("encoder")),
            "decoder.entry.weight",
            next(n for n in names if n.startswith("hyper")),
            "banks.tokens",
        ]
        eps = 3e-4
        for name in probes:
            param = names[name]
            flat = param.data.reshape(-1)
            for idx in (0, flat.size // 2):
                keep = flat[idx]
                flat[idx] = keep + eps
                param.version += 1
                hi = float(forward().data)
                flat[idx] = keep - eps
                param.version += 1
                lo = float(forward().data)
                flat[idx] = keep
                param.version += 1
                fd = (hi - lo) / (2 * eps)
                grad = param.grad.reshape(-1)[idx]
                scale = max(abs(fd), abs(grad))
                if scale < 1e-8:
                    continue
                assert abs(fd - grad) / scale < 2e-3, (name, idx, fd, grad)


def rewritten_checkpoint(tmp_path, change, model=None):
    """A saved checkpoint of `model`, by default a toy one, whose entries
    pass through `change`."""
    path = tmp_path / "model.npz"
    save_model(path, toy_model(seed=3) if model is None else model, [1.0])
    with np.load(path) as blob:
        entries = {name: blob[name] for name in blob.files}
    change(entries)
    np.savez(path, **entries)
    return path


def with_config(**extra):
    """A checkpoint change that merges `extra` into the saved config."""

    def change(entries):
        raw = json.loads(str(entries["__config__"]))
        entries["__config__"] = np.array(json.dumps({**raw, **extra}))

    return change


class TestTrainLoop:
    def _cfg(self, stage, steps=2):
        return TrainConfig(
            stage=stage, steps=steps, batch_size=2, lr=1e-3, snr_set=(10.0,), seed=0
        )

    def test_stages_must_run_in_order(self):
        model = toy_model()
        with pytest.raises(ValueError, match="run stages in order"):
            train(self._cfg(2), toy_images(), model, toy_pipeline())

    def test_stage_cannot_be_skipped(self):
        model = toy_model()
        model, _ = train(self._cfg(1), toy_images(), model, toy_pipeline())
        with pytest.raises(ValueError, match="run stages in order"):
            train(self._cfg(3), toy_images(), model, toy_pipeline())

    def test_conventional_only_pipeline_rejected(self):
        # training trains the semantic stream; a pipeline without one
        # has nothing to train
        pcfg = PipelineConfig(channel=toy_pipeline().channel, semantic=False)
        with pytest.raises(ValueError, match="PipelineConfig.semantic"):
            train(self._cfg(1), toy_images(), toy_model(), pcfg)

    def test_empty_dataset_rejected_before_a_batch(self):
        with pytest.raises(ValueError, match="dataset is empty"):
            train(self._cfg(1), [], toy_model(), toy_pipeline())

    def test_history_has_one_loss_per_step(self):
        model = toy_model()
        model, history = train(self._cfg(1, steps=3), toy_images(), model, toy_pipeline())
        assert len(history) == 3
        assert all(np.isfinite(v) for v in history)
        assert model.stage == 1

    def test_channel_trials_never_repeat(self, monkeypatch):
        # every image of every step and stage draws its own realization
        # for each of its two streams
        trials = []
        original = pipeline.transmit

        def spy(z, cfg, trial=0):
            trials.append(trial)
            return original(z, cfg, trial)

        monkeypatch.setattr(pipeline, "transmit", spy)
        model = toy_model()
        model, _ = train(self._cfg(1, steps=3), toy_images(), model, toy_pipeline())
        model, _ = train(self._cfg(2, steps=2), toy_images(), model, toy_pipeline())
        assert len(set(trials)) == len(trials)
        assert len(trials) == (3 + 2) * 2 * 2

    def test_one_decoder_call_per_step(self, monkeypatch):
        # a step decodes the frames of its whole batch together
        frames = []
        original = ldpc.ldpc_decode_bp

        def spy(pcm, llr, *args, **kwargs):
            frames.append(llr.shape[0])
            return original(pcm, llr, *args, **kwargs)

        monkeypatch.setattr(ldpc, "ldpc_decode_bp", spy)
        train(self._cfg(1, steps=3), toy_images(), toy_model(), toy_pipeline())
        # three steps, each of two images that fit one frame apiece
        assert frames == [2, 2, 2]

    def test_stage2_only_moves_the_banks(self):
        model = toy_model()
        model, _ = train(self._cfg(1), toy_images(), model, toy_pipeline())
        before = {k: v.tobytes() for k, v in model.state_dict().items()}
        model, _ = train(self._cfg(2), toy_images(), model, toy_pipeline())
        after = model.state_dict()
        frozen = [k for k in before if not k.startswith("banks.")]
        assert frozen
        for key in frozen:
            assert after[key].tobytes() == before[key], key
        assert any(
            after[k].tobytes() != before[k] for k in before if k.startswith("banks.")
        )

    def test_stage2_leaves_frozen_parameters_untouched(self):
        model = toy_model()
        model, _ = train(self._cfg(1), toy_images(), model, toy_pipeline())
        model, _ = train(self._cfg(2), toy_images(), model, toy_pipeline())
        ra = {id(p) for p in model.banks.parameters()}
        others = [p for p in model.parameters() if id(p) not in ra]
        assert others
        for p in others:
            assert p.grad is None
            assert p.requires_grad
        assert all(p.requires_grad for p in model.banks.parameters())

    def test_train_leaves_no_gradients(self):
        # the last step's gradients are spent once Adam has used them
        model = toy_model()
        model, _ = train(self._cfg(1, steps=2), toy_images(), model, toy_pipeline())
        assert all(p.grad is None for p in model.parameters())
        model, _ = train(self._cfg(2, steps=2), toy_images(), model, toy_pipeline())
        assert all(p.grad is None for p in model.parameters())

    def test_weight_casts_kept_from_a_transmit_do_not_change_training(self):
        # a model that has transmitted keeps float32 casts of its weights.
        # One that transmits before each stage of a 3:2:3 schedule gives
        # the bytes of a run that starts every stage on a fresh model
        # loaded with the same state, and a second such run repeats them
        state = toy_model(seed=4).state_dict()
        image = toy_images(1, size=16)[0]

        def schedule(transmitted):
            model, histories = toy_model(), []
            model.load_state_dict(state)
            for stage, steps in ((1, 3), (2, 2), (3, 3)):
                if transmitted:
                    pipeline.transmit_image(image, toy_pipeline(), seed=2, model=model)
                    assert all(p._cast is not None for p in model.encoder.parameters())
                else:
                    fresh = toy_model()
                    fresh.load_state_dict(model.state_dict())
                    fresh.stage, model = model.stage, fresh
                model, history = train(self._cfg(stage, steps), toy_images(), model, toy_pipeline())
                histories.append(np.array(history).tobytes())
            return histories, [a.tobytes() for a in model.state_dict().values()]

        first = schedule(transmitted=True)
        assert first == schedule(transmitted=False)
        assert first == schedule(transmitted=True)

    def test_checkpoint_round_trip(self, tmp_path):
        model = toy_model(seed=3)
        model, history = train(self._cfg(1), toy_images(), model, toy_pipeline())
        path = tmp_path / "model.npz"
        save_model(path, model, history)
        loaded, loaded_history = training.load_model(path)
        assert loaded.stage == 1
        assert loaded.cfg == model.cfg
        np.testing.assert_array_equal(loaded_history, history)
        state, loaded_state = model.state_dict(), loaded.state_dict()
        assert set(state) == set(loaded_state)
        for key in state:
            assert loaded_state[key].tobytes() == state[key].tobytes(), key

    def test_checkpoint_with_null_hyper_hidden_loads(self, tmp_path):
        # checkpoints saved while the hyperprior width was a field hold it as null
        path = rewritten_checkpoint(tmp_path, with_config(hyper_hidden=None))
        loaded, history = training.load_model(path)
        assert loaded.cfg == toy_model(seed=3).cfg and history == [1.0]

    def test_checkpoint_with_derived_widths_loads(self, tmp_path):
        # checkpoints saved while c_s and up_widths were fields hold them
        model = pipeline.SemanticModel(pipeline.ModelConfig(init_seed=4))
        legacy = with_config(c_s=32, up_widths=[64, 64, 32, 3])
        loaded, _ = training.load_model(rewritten_checkpoint(tmp_path, legacy, model))
        assert loaded.cfg == model.cfg
        state, loaded_state = model.state_dict(), loaded.state_dict()
        assert list(loaded_state) == list(state)
        for key in state:
            assert loaded_state[key].tobytes() == state[key].tobytes(), key

    def test_checkpoint_with_pagnet_fc_layer_loads(self, tmp_path):
        # checkpoints saved while PagNet.fc was a Linear layer hold its
        # weight as fc.weight and a bias that cancelled between the streams
        model = pipeline.SemanticModel(pipeline.ModelConfig(init_seed=4))
        fc_keys = [name for name, _ in model.named_parameters() if name.endswith(".fc")]
        assert len(fc_keys) == len(model.decoder.pagnets)

        def linear_fc(entries):
            for key in fc_keys:
                entries[f"{key}.weight"] = entries.pop(key)
                entries[f"{key}.bias"] = np.full(1, 0.7)

        image = data.make_corpus(count=1, size=16, seed=5)[0]
        outputs = []
        for change in (lambda entries: None, linear_fc):
            loaded, _ = training.load_model(rewritten_checkpoint(tmp_path, change, model))
            x_hat, _, _ = pipeline.transmit_image(image, PipelineConfig(), seed=1, model=loaded)
            outputs.append(x_hat.tobytes())
        assert outputs[0] == outputs[1]

    def test_checkpoint_with_other_up_widths_names_the_parameter(self, tmp_path):
        # a model saved with up_widths ending in 4 had a 4-channel last up block
        def four_channel_output(entries):
            with_config(c_s=32, up_widths=[64, 64, 32, 4])(entries)
            shapes = {
                "tconv.weight": (32, 4, 4, 4),
                "tconv.bias": (4,),
                "gdn.beta_raw": (4,),
                "gdn.gamma_raw": (4, 4),
            }
            for leaf, shape in shapes.items():
                entries[f"decoder.ups.3.{leaf}"] = np.zeros(shape)

        model = pipeline.SemanticModel(pipeline.ModelConfig())
        path = rewritten_checkpoint(tmp_path, four_channel_output, model)
        with pytest.raises(ValueError, match=r"decoder\.ups\.3\.tconv\.weight"):
            training.load_model(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            (with_config(hyper_hidden=8), r"unknown model config keys \['hyper_hidden'\]"),
            (with_config(width=3), r"unknown model config keys \['width'\]"),
            (lambda entries: entries.pop("__config__"), "no __config__ entry"),
            (lambda entries: entries.pop("decoder.entry.weight"), "misses parameters"),
            (with_config(growth=0), r"bad model config: ModelConfig\.growth "),
            (with_config(growth="2"), r"bad model config: ModelConfig\.growth "),
            (with_config(init_seed="3"), r"bad model config: ModelConfig\.init_seed "),
            (with_config(encoder_widths=[]), r"bad model config: ModelConfig\.encoder_widths "),
            (with_config(latent_widths=[4, 4, 0]), r"config: ModelConfig\.latent_widths "),
            (with_config(latent_widths=[4, 4]), "bad model config: need one more latent width"),
        ],
        ids=[
            "set-hyper-hidden", "unknown-key", "no-config", "missing-parameter",
            "zero-growth", "text-growth", "text-seed", "no-encoder-widths", "zero-latent-width",
            "scale-count",
        ],
    )
    def test_bad_checkpoint_raises_value_error(self, tmp_path, change, message):
        path = rewritten_checkpoint(tmp_path, change)
        with pytest.raises(ValueError, match=message):
            training.load_model(path)

    @pytest.mark.parametrize("kind", ["empty", "text", "cut-in-half"])
    def test_unreadable_file_is_not_a_checkpoint(self, tmp_path, kind):
        path = tmp_path / "model.npz"
        save_model(path, toy_model(seed=3), [1.0])
        whole = path.read_bytes()
        raw = {"empty": b"", "text": b"not a checkpoint\n", "cut-in-half": whole[: len(whole) // 2]}
        path.write_bytes(raw[kind])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a model checkpoint"):
            training.load_model(path)

    def test_checkpoint_shape_mismatch_rejected(self):
        model = toy_model()
        state = model.state_dict()
        state["decoder.entry.weight"] = state["decoder.entry.weight"][:, :1]
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)
