"""Both branches end to end: framing, accounting, degradation paths."""

import importlib.resources
import inspect
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastream import autodiff, codec, data, ldpc, metrics, pipeline, training
from parastream.autodiff import DimensionError, Tensor
from parastream.channel import ChannelConfig
from parastream.config import ExperimentConfig
from parastream.decoder import SemanticDecoder
from parastream.encoder import SemanticEncoder
from parastream.layers import ConvTranspose2d, frozen
from parastream.modem import qpsk_modulate
from parastream.rate import HyperSynthesis
from parastream.rng import make_rng
from parastream.training import TrainConfig

from helpers import send_conventional_oracle


def desk_config(snr_db=10.0, semantic=True, q=50, seed=0):
    return pipeline.PipelineConfig(
        q=q,
        channel=ChannelConfig(kind="awgn", snr_db=snr_db, seed=seed),
        semantic=semantic,
    )


@pytest.fixture(scope="module")
def image():
    return data.gradient_image(make_rng(7), 16)


@pytest.fixture(scope="module")
def model():
    return pipeline.SemanticModel(pipeline.ModelConfig())


class TestFraming:
    def test_bit_segmentation(self):
        frames, pad = pipeline.bits_to_frames(np.ones(13, np.uint8), 8)
        assert frames.shape == (2, 8)
        assert pad == 3
        np.testing.assert_array_equal(frames[1], [1, 1, 1, 1, 1, 0, 0, 0])

    def test_exact_fit_has_no_pad(self):
        frames, pad = pipeline.bits_to_frames(np.zeros(16, np.uint8), 8)
        assert frames.shape == (2, 8) and pad == 0

    @given(st.integers(1, 100), st.integers(2, 16))
    @settings(max_examples=30, deadline=None)
    def test_segmentation_round_trip(self, nbits, k):
        bits = (np.arange(nbits) * 7 % 2).astype(np.uint8)
        frames, pad = pipeline.bits_to_frames(bits, k)
        np.testing.assert_array_equal(pipeline.frames_to_bits(frames, pad), bits)

    def test_pairing_round_trip(self):
        # a noiseless channel hands back exactly the reals that were
        # paired into symbols, odd tail included
        chan = ChannelConfig(kind="awgn", snr_db=np.inf)
        for count in (6, 7):
            reals = Tensor(make_rng(count).standard_normal(count))
            out = pipeline.send_analog(reals, chan, trial=0)
            np.testing.assert_array_equal(out.data, reals.data)

    def test_power_gain_normalizes(self):
        reals = make_rng(3).standard_normal(40) * 3.7
        z = reals[0::2] + 1j * reals[1::2]
        scaled = pipeline.power_gain(z) * z
        assert np.vdot(scaled, scaled).real / scaled.size == pytest.approx(1.0, rel=1e-12)

    def test_zero_stream_passes_through(self):
        assert pipeline.power_gain(np.zeros(4, complex)) == 1.0

    @pytest.mark.parametrize("symbols", [7, 1024, 512000])
    def test_qpsk_streams_have_unit_gain_exactly(self, symbols):
        # so normalizing a coded payload leaves its symbols and channel
        # gains bit for bit as they were
        bits = make_rng(symbols).integers(0, 2, size=2 * symbols)
        assert pipeline.power_gain(qpsk_modulate(bits)) == 1.0


class TestCodedLink:
    @pytest.fixture(scope="class")
    def sources(self):
        images = data.make_corpus(2, 16, 41) + data.make_corpus(2, 32, 42)
        return [pipeline.split_source(img, 50) for img in images]

    @pytest.mark.parametrize("kind", ["awgn", "rayleigh_block"])
    @pytest.mark.parametrize("snr_db", [1.0, 4.0, 12.0])
    @pytest.mark.parametrize("bp_iters", [3, 50])
    def test_batch_matches_one_image_at_a_time(
        self, sources, kind, snr_db, bp_iters, monkeypatch
    ):
        monkeypatch.setattr(ldpc, "MAX_ITER_DEFAULT", bp_iters)
        chan = ChannelConfig(kind=kind, snr_db=snr_db, block_len=16, seed=5)
        cfg = pipeline.PipelineConfig(channel=chan, semantic=False)
        pcm = pipeline.load_code(cfg.code)
        blobs = [blob for _, _, _, blob in sources]
        shapes = [x_ref.shape for x_ref, _, _, _ in sources]
        trials = [6, 0, 11, 3]
        batch = pipeline._send_conventional(blobs, shapes, cfg, pcm, trials)
        assert len(batch) == len(blobs)
        for got, blob, shape, trial in zip(batch, blobs, shapes, trials):
            want = send_conventional_oracle(blob, shape, cfg, pcm, trial)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] is want[1]
            assert got[2] == want[2]

    def test_one_encoder_and_decoder_call_for_every_payload(self, monkeypatch):
        calls = []
        for name in ("ldpc_encode", "ldpc_decode_bp"):
            original = getattr(ldpc, name)

            def spy(pcm, rows, *args, _name=name, _fn=original, **kwargs):
                calls.append((_name, rows.shape[0]))
                return _fn(pcm, rows, *args, **kwargs)

            monkeypatch.setattr(ldpc, name, spy)
        pcm = pipeline.load_code()
        chan = ChannelConfig(kind="awgn", snr_db=3.0, seed=2)
        payloads = [
            make_rng(i).integers(0, 2, size=(f, pcm.k)) for i, f in enumerate((2, 1, 3))
        ]
        out = pipeline.send_coded(payloads, chan, pcm, [4, 9, 1], 50)
        assert calls == [("ldpc_encode", 6), ("ldpc_decode_bp", 6)]
        assert [bits.shape for bits, _, _ in out] == [p.shape for p in payloads]
        assert [ok.shape for _, ok, _ in out] == [(2,), (1,), (3,)]


class TestSplitSource:
    def test_residual_identity_exact(self, image):
        x_ref, x_c, x_r, _ = pipeline.split_source(image, 50)
        np.testing.assert_array_equal(x_r + x_c, x_ref)

    def test_reference_tracks_input(self, image):
        x_ref, _, _, _ = pipeline.split_source(image, 50)
        assert np.abs(x_ref - image).max() < 1e-12

    def test_blob_matches_codec(self, image):
        _, x_c, _, blob = pipeline.split_source(image, 50)
        assert blob == codec.compress(image, 50)
        np.testing.assert_array_equal(x_c, codec.decompress(blob))


class TestConfigValidation:
    @pytest.mark.parametrize("semantic", [False, True])
    def test_nan_snr_rejected_at_the_boundary(self, image, model, semantic):
        with pytest.raises(ValueError, match="snr_db must not be NaN"):
            cfg = desk_config(snr_db=math.nan, semantic=semantic)
            pipeline.transmit_image(image, cfg, seed=0, model=model)

    @pytest.mark.parametrize("semantic", [False, True])
    @pytest.mark.parametrize(
        "make_bad, requirement",
        [
            (lambda x: np.round(255 * x).astype(np.uint8), "float dtype"),
            (lambda x: x > 0.5, "float dtype"),
            (lambda x: 2.0 * x, r"in \[0, 1\]"),
            (lambda x: x - 0.5, r"in \[0, 1\]"),
            (lambda x: np.where(x > 0.5, np.nan, x), "finite"),
            (lambda x: np.where(x > 0.5, np.inf, x), "finite"),
        ],
    )
    def test_bad_pixels_rejected_before_any_work(
        self, image, model, monkeypatch, semantic, make_bad, requirement
    ):
        def no_work(*args):
            raise AssertionError("the codec ran before the image check")

        monkeypatch.setattr(pipeline, "split_source", no_work)
        cfg = desk_config(snr_db=9.0, semantic=semantic)
        with pytest.raises(ValueError, match=requirement):
            pipeline.transmit_image(make_bad(image), cfg, seed=0, model=model)

    @pytest.mark.parametrize("shape", [(16, 16), (16, 16, 3, 1), (0, 16, 3)])
    def test_conventional_shape_rejected_before_any_work(self, shape, monkeypatch):
        monkeypatch.setattr(pipeline, "split_source", None)
        with pytest.raises(ValueError, match="H x W x C"):
            pipeline.transmit_image(np.full(shape, 0.5), desk_config(semantic=False))

    @pytest.mark.parametrize("shape", [(8, 8, 3), (16, 10, 3), (1, 40, 1)])
    def test_image_under_the_ms_ssim_window_rejected_before_any_work(self, shape, monkeypatch):
        monkeypatch.setattr(pipeline, "split_source", None)
        with pytest.raises(ValueError, match=f"at least the {metrics.WINDOW} px"):
            pipeline.transmit_image(np.full(shape, 0.5), desk_config(semantic=False))

    def test_image_of_the_ms_ssim_window_accepted(self):
        side = metrics.WINDOW
        x_hat, _, report = pipeline.transmit_image(
            np.full((side, side, 3), 0.5), desk_config(semantic=False)
        )
        assert x_hat.shape == (side, side, 3) and 0.0 <= report["ms_ssim"] <= 1.0

    def test_single_precision_image_in_range_accepted(self, image):
        cfg = desk_config(snr_db=9.0, semantic=False)
        x_hat, _, report = pipeline.transmit_image(image.astype(np.float32), cfg)
        assert x_hat.shape == image.shape and not report["corrupted"]

    def test_negative_loss_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pipeline.PipelineConfig(lambda1=-0.1)

    @pytest.mark.parametrize("q", [0, 101, 50.7, 50.0, True])
    def test_quality_that_is_not_an_integer_in_range_names_the_field(self, q):
        with pytest.raises(ValueError, match=r"PipelineConfig\.q must be an integer"):
            pipeline.PipelineConfig(q=q)

    @pytest.mark.parametrize("lambda1", [float("nan"), float("inf")])
    def test_non_finite_loss_weight_names_the_field(self, lambda1):
        with pytest.raises(ValueError, match="lambda1"):
            pipeline.PipelineConfig(lambda1=lambda1)

    def test_config_fields_are_pinned(self):
        # each field is an option tests and the benchmark must cover, so
        # adding one changes this list on purpose
        names = {
            cls: tuple(f.name for f in fields(cls))
            for cls in (
                ChannelConfig, pipeline.ModelConfig, pipeline.PipelineConfig, TrainConfig,
                ExperimentConfig,
            )
        }
        assert names == {
            ChannelConfig: ("kind", "snr_db", "block_len", "seed"),
            pipeline.ModelConfig: ("encoder_widths", "latent_widths", "growth", "init_seed"),
            pipeline.PipelineConfig: ("q", "code", "channel", "lambda1", "semantic"),
            TrainConfig: ("stage", "steps", "batch_size", "lr", "snr_set", "seed"),
            # [sweep] images sizes the procedural corpus and [sweep] q is
            # the only quality list
            ExperimentConfig: (
                "corpus_size", "corpus_seed", "ppm_dir", "channel_kind", "block_len",
                "channel_seed", "code", "semantic", "checkpoint", "init_seed", "snr_points",
                "q_points", "trials", "images", "out",
            ),
        }
        # the transpose conv always doubles: kernel, stride and padding are constants
        assert tuple(inspect.signature(ConvTranspose2d).parameters) == ("c_in", "c_out", "rng")
        # the decoder's up path is derived from the latent widths
        assert tuple(inspect.signature(SemanticDecoder).parameters) == (
            "rng", "latent_widths", "growth"
        )
        # the hyperlatent r̃ is as wide as s̃
        assert tuple(inspect.signature(HyperSynthesis).parameters) == ("c_s", "rng")

    def test_model_width_contracts(self):
        with pytest.raises(ValueError, match="latent"):
            pipeline.SemanticModel(
                pipeline.ModelConfig(latent_widths=(16, 32, 64, 64, 16))
            )
        with pytest.raises(ValueError, match="scale count"):
            pipeline.SemanticModel(
                pipeline.ModelConfig(
                    encoder_widths=(16, 32, 32),
                    latent_widths=(16, 32, 64, 64, 32),
                )
            )

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"encoder_widths": (), "latent_widths": (32,)}, "encoder_widths"),
            ({"latent_widths": ()}, "latent_widths"),
            ({"encoder_widths": (0,), "latent_widths": (4, 0)}, "encoder_widths"),
            ({"encoder_widths": (4,), "latent_widths": (-1, 4)}, "latent_widths"),
            ({"encoder_widths": (4, 2.5), "latent_widths": (4, 4, 4)}, "encoder_widths"),
            ({"latent_widths": 32}, "latent_widths"),
            ({"growth": 0}, "growth"),
            ({"growth": "16"}, "growth"),
            ({"init_seed": -1}, "init_seed"),
            ({"init_seed": 2.5}, "init_seed"),
        ],
        ids=[
            "no-encoder-widths", "no-latent-widths", "zero-width", "negative-width",
            "fractional-width", "width-not-a-tuple", "zero-growth", "growth-not-an-int",
            "negative-seed", "fractional-seed",
        ],
    )
    def test_model_config_names_the_bad_field(self, fields, field):
        with pytest.raises(ValueError, match=rf"^ModelConfig\.{field} must be"):
            pipeline.ModelConfig(**fields)


@st.composite
def consistent_widths(draw):
    """(encoder_widths, latent_widths) over 1-3 scales and widths 1-4,
    with the deepest latent as wide as the last encoder module."""
    scales = draw(st.integers(1, 3))
    width = st.integers(1, 4)
    encoder_widths = tuple(draw(st.lists(width, min_size=scales, max_size=scales)))
    latents = tuple(draw(st.lists(width, min_size=scales, max_size=scales)))
    return encoder_widths, latents + encoder_widths[-1:]


class TestDerivedShape:
    @settings(max_examples=15, deadline=None)
    @given(widths=consistent_widths(), batch=st.integers(1, 2))
    def test_every_consistent_width_set_builds(self, widths, batch):
        encoder_widths, latent_widths = widths
        model = pipeline.SemanticModel(
            pipeline.ModelConfig(encoder_widths, latent_widths, growth=1)
        )
        scales = len(encoder_widths)
        side = 2**scales
        dec = model.decoder
        x_c = Tensor(np.zeros((batch, 3, side, side)))
        s_hat = Tensor(np.zeros((batch, encoder_widths[-1], 1, 1)))
        assert dec(x_c, s_hat, 10).data.shape == (batch, 3, side, side)
        latents = dec.extract_latents(x_c)
        assert len(dec.pagnets) == len(dec.ups) == scales
        for i, net in enumerate(dec.pagnets):
            fused = latents[scales - i].data.shape[1]
            assert fused == latent_widths[scales - i]
            assert net.conv_u.weight.data.shape[:2] == (fused, fused)
            assert net.proj.weight.data.shape[1] == fused


class TestConventionalOnly:
    def test_noiseless_matches_codec_exactly(self, image):
        cfg = desk_config(snr_db=np.inf, semantic=False)
        x_hat, frame, report = pipeline.transmit_image(image, cfg, seed=0)
        np.testing.assert_array_equal(
            x_hat, codec.decompress(codec.compress(image, cfg.q))
        )
        assert report["corrupted"] is False
        assert frame.semantic_symbols == 0 and frame.side_symbols == 0
        assert frame.n == frame.image_symbols

    def test_segment_table_consistent(self, image):
        cfg = desk_config(snr_db=np.inf, semantic=False)
        _, frame, report = pipeline.transmit_image(image, cfg, seed=0)
        pcm = pipeline.load_code(cfg.code)
        bits = 8 * len(codec.compress(image, cfg.q))
        assert sum(frame.frame_bits) == bits
        assert frame.pad_bits == len(frame.frame_bits) * pcm.k - bits
        assert frame.image_symbols == len(frame.frame_bits) * pcm.n // 2
        assert report["frame_count"] == len(frame.frame_bits)

    def test_clean_link_reports_no_bp_iterations(self, image):
        cfg = desk_config(snr_db=30.0, semantic=False)
        _, frame, report = pipeline.transmit_image(image, cfg, seed=0)
        assert report["bp_iterations"] == 0
        assert report["bp_iterations_per_frame"] == (0,) * len(frame.frame_bits)
        assert report["frames_converged"] == len(frame.frame_bits)

    def test_bp_iterations_sum_the_decoder_counts(self, monkeypatch):
        # 32 px sends two frames, so the per-frame counts are more than a sum
        image = data.gradient_image(make_rng(7), 32)
        monkeypatch.setattr(ldpc, "MAX_ITER_DEFAULT", 3)
        cfg = desk_config(snr_db=1.0, semantic=False)
        calls = []
        decode = ldpc.ldpc_decode_bp

        def spy(pcm, llr, max_iter):
            out = decode(pcm, llr, max_iter)
            calls.append((llr, max_iter, out[2]))
            return out

        monkeypatch.setattr(ldpc, "ldpc_decode_bp", spy)
        _, _, report = pipeline.transmit_image(image, cfg, seed=0)
        (llr, max_iter, iters), = calls
        assert max_iter == 3
        _, _, direct = decode(pipeline.load_code(cfg.code), llr, max_iter=3)
        np.testing.assert_array_equal(iters, direct)
        assert report["bp_iterations"] == int(direct.sum()) > 0
        per_frame = report["bp_iterations_per_frame"]
        assert per_frame == tuple(direct.tolist())
        assert len(per_frame) == report["frame_count"] == 2
        assert all(type(i) is int for i in per_frame)

    def test_across_the_cliff_outputs_and_accounting_hold(self):
        # seeded transmits where BP works hardest: every call keeps its
        # image in [0, 1], its frame accounting exact, and flags each
        # image that a frame failed to decode
        pcm = pipeline.load_code()
        outcomes = set()
        for size in (16, 32, 64):
            images = data.make_corpus(4, size, 400 + size)
            for snr_db in (1.0, 3.0, 4.5):
                cfg = desk_config(snr_db=snr_db, semantic=False, seed=size)
                for call, x in enumerate(images * 3):
                    x_hat, frame, report = pipeline.transmit_image(x, cfg, seed=call, pcm=pcm)
                    assert x_hat.shape == x.shape and np.isfinite(x_hat).all()
                    assert x_hat.min() >= 0.0 and x_hat.max() <= 1.0
                    count = report["frame_count"]
                    assert count == len(frame.frame_bits) == len(report["bp_iterations_per_frame"])
                    assert sum(frame.frame_bits) == 8 * len(codec.compress(x, cfg.q))
                    assert sum(frame.frame_bits) == count * pcm.k - frame.pad_bits
                    assert frame.n == frame.image_symbols == count * pcm.n // 2
                    assert report["cbr"] == frame.n / frame.k
                    failed = report["frames_converged"] < count
                    assert report["corrupted"] or not failed
                    outcomes.add((failed, report["corrupted"]))
        # the battery holds images with a failed frame, and clean ones
        assert {(True, True), (False, False)} <= outcomes

    def test_deep_noise_corrupts_and_degrades_gracefully(self, image):
        cfg = desk_config(snr_db=-5.0, semantic=False)
        x_hat, _, report = pipeline.transmit_image(image, cfg, seed=1)
        assert report["corrupted"] is True
        assert x_hat.shape == image.shape
        assert np.isfinite(x_hat).all()
        assert x_hat.min() >= 0.0 and x_hat.max() <= 1.0


class TestSemanticForward:
    """One batched pass of the semantic chain against batch-of-one calls.

    Equality is to rtol 1e-12, not bit for bit: batched convs may sum in
    another order, which moves the last bit of x_hat at 16 px.
    """

    @pytest.fixture(scope="class")
    def loud_model(self):
        # fresh weights round every feature to zero; doubled encoder
        # weights leave features that survive the quantizer
        model = pipeline.SemanticModel(pipeline.ModelConfig())
        for p in model.encoder.parameters():
            p.data = p.data * 2.0
        return model

    @pytest.mark.parametrize("size", [16, 32])
    @pytest.mark.parametrize("bypass", [False, True])
    def test_batch_matches_batches_of_one(self, loud_model, size, bypass):
        images = data.make_corpus(count=3, size=size, seed=5)
        refs, x_cs, residuals, _ = zip(*(pipeline.split_source(x, 50) for x in images))
        chan = ChannelConfig(kind="rayleigh_block", snr_db=6.0, block_len=4)
        keys = [4, 9, 2]
        with frozen(loud_model.parameters()):
            batch = pipeline.semantic_forward(
                loud_model, refs, residuals, x_cs, chan, keys, bypass=bypass
            )
            ones = [
                pipeline.semantic_forward(
                    loud_model, [ref], [res], [x_c], chan, [key], bypass=bypass
                )
                for ref, res, x_c, key in zip(refs, residuals, x_cs, keys)
            ]
        assert np.count_nonzero(batch["s_tilde"].data)
        for name in ("x_hat", "s_tilde", "p_s", "r_tilde"):
            np.testing.assert_allclose(
                batch[name].data,
                np.concatenate([one[name].data for one in ones]),
                rtol=1e-12,
                err_msg=name,
            )
        if bypass:
            assert batch["alloc"] is None
        else:
            np.testing.assert_array_equal(
                batch["alloc"].alpha_bar,
                np.concatenate([one["alloc"].alpha_bar for one in ones]),
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clear_bypass_hands_the_decoder_the_encoder_features(
        self, loud_model, monkeypatch, dtype
    ):
        # at snr_db = inf the noise is exactly 0 and keep exactly 1, so
        # stage 1's send and regroup must return s itself, [B, C, H, W]
        images = data.make_corpus(count=3, size=16, seed=5)
        refs, x_cs, residuals = (
            [a.astype(dtype) for a in arrays]
            for arrays in zip(*(pipeline.split_source(x, 50)[:3] for x in images))
        )
        seen = {}
        encode, decode = SemanticEncoder.__call__, SemanticDecoder.__call__

        def encoder_spy(encoder, x, x_r):
            seen["s"], _ = out = encode(encoder, x, x_r)
            return out

        def decoder_spy(decoder, x_c, s_hat, snr_db):
            seen["s_hat"] = s_hat
            return decode(decoder, x_c, s_hat, snr_db)

        monkeypatch.setattr(SemanticEncoder, "__call__", encoder_spy)
        monkeypatch.setattr(SemanticDecoder, "__call__", decoder_spy)
        chan = ChannelConfig(kind="rayleigh_block", snr_db=math.inf, block_len=4)
        with frozen(loud_model.parameters()):
            pipeline.semantic_forward(
                loud_model, refs, residuals, x_cs, chan, [4, 9, 2], bypass=True
            )
        s, s_hat = seen["s"].data, seen["s_hat"].data
        assert s.dtype == dtype and s.ndim == 4 and np.count_nonzero(s)
        assert s_hat.dtype == s.dtype and s_hat.shape == s.shape
        assert s_hat.tobytes() == s.tobytes()

    def test_transmit_is_its_batch_of_one(self, loud_model):
        # transmit_image runs the encoder and decoder in float32: its
        # batch of one takes float32 inputs, and every layer follows them
        x = data.make_corpus(count=1, size=16, seed=5)[0]
        cfg = desk_config(snr_db=6.0)
        x_hat, frame, _ = pipeline.transmit_image(x, cfg, seed=3, model=loud_model)
        x_ref, _, x_r, blob = pipeline.split_source(x, cfg.q)
        pcm = pipeline.load_code(cfg.code)
        ((x_c_hat, _, _),) = pipeline._send_conventional(
            [blob], [x_ref.shape], cfg, pcm, [6]
        )
        inputs = ([a.astype(np.float32)] for a in (x_ref, x_r, x_c_hat))
        with frozen(loud_model.parameters()):
            out = pipeline.semantic_forward(loud_model, *inputs, cfg.channel, [3])
        assert x_hat.dtype == np.float64 and out["x_hat"].data.dtype == np.float32
        np.testing.assert_array_equal(x_hat, out["x_hat"].data[0].transpose(1, 2, 0))
        assert frame.semantic_dims == int(out["alloc"].totals()[0])

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_single_precision_conv_stacks_match_float64(self, loud_model, size):
        # float64 from the quantizer on: no rounding of s or r and no
        # rate decision moves, and x_hat moves by float32 rounding only
        images = data.make_corpus(count=8, size=size, seed=21)
        refs, x_cs, residuals, _ = zip(*(pipeline.split_source(x, 50) for x in images))
        chan = ChannelConfig(kind="awgn", snr_db=6.0)
        keys = list(range(8))
        with frozen(loud_model.parameters()):
            wide = pipeline.semantic_forward(loud_model, refs, residuals, x_cs, chan, keys)
            inputs = ([a.astype(np.float32) for a in part] for part in (refs, residuals, x_cs))
            narrow = pipeline.semantic_forward(loud_model, *inputs, chan, keys)
        assert np.count_nonzero(wide["s_tilde"].data)
        for name in ("s_tilde", "r_tilde"):
            assert narrow[name].data.dtype == np.float64
            np.testing.assert_array_equal(
                np.rint(narrow[name].data), np.rint(wide[name].data), err_msg=name
            )
        np.testing.assert_array_equal(narrow["alloc"].alpha_bar, wide["alloc"].alpha_bar)
        assert narrow["x_hat"].data.dtype == np.float32
        assert np.abs(narrow["x_hat"].data - wide["x_hat"].data).max() <= 1e-5


class TestFullPipeline:
    def test_accounting_identity(self, image, model):
        cfg = desk_config(snr_db=10.0)
        _, frame, report = pipeline.transmit_image(image, cfg, seed=0, model=model)
        assert frame.semantic_symbols == -(-frame.semantic_dims // 2)
        assert frame.n == (
            frame.image_symbols + frame.semantic_symbols + frame.side_symbols
        )
        assert frame.side_bits == 5 * 1  # one patch on a 16x16 source
        assert frame.side_symbols == 3
        assert frame.k == image.size
        assert report["cbr"] == pytest.approx(frame.n / frame.k)
        assert report["cbr_real_dims"] == pytest.approx(
            (frame.semantic_dims + frame.image_symbols) / frame.k
        )

    def test_every_stream_is_power_normalized(self, image, monkeypatch):
        recorded = []
        original = pipeline.transmit

        def spy(z, cfg, trial=0):
            recorded.append(np.asarray(z))
            return original(z, cfg, trial)

        monkeypatch.setattr(pipeline, "transmit", spy)
        # a fresh model can quantize its features to all zeros; nonzero
        # rate tokens guarantee the semantic stream carries power
        local = pipeline.SemanticModel(pipeline.ModelConfig())
        local.banks.tokens.data[:] = 1.0
        cfg = desk_config(snr_db=10.0)
        pipeline.transmit_image(image, cfg, seed=0, model=local)
        assert len(recorded) == 2
        for z in recorded:
            power = np.vdot(z, z).real / z.size
            assert abs(power - 1.0) < 1e-9

    def test_zero_semantic_payload_passes_through(self, image, model, monkeypatch):
        recorded = []
        original = pipeline.transmit

        def spy(z, cfg, trial=0):
            recorded.append(np.asarray(z))
            return original(z, cfg, trial)

        monkeypatch.setattr(pipeline, "transmit", spy)
        # the untrained model rounds every feature to zero, so the
        # semantic stream is the documented zero-power edge case
        pipeline.transmit_image(image, desk_config(), seed=0, model=model)
        assert np.all(recorded[1] == 0.0)

    @pytest.mark.parametrize(
        "shape, requirement",
        [((20, 20, 3), "multiples of 16"), ((16, 16, 1), "H x W x 3"), ((16, 16), "H x W x 3")],
    )
    def test_semantic_input_shape_checked_first(self, model, monkeypatch, shape, requirement):
        def no_work(*args):
            raise AssertionError("the codec ran before the shape check")

        monkeypatch.setattr(pipeline, "split_source", no_work)
        with pytest.raises(DimensionError, match=requirement):
            pipeline.transmit_image(np.full(shape, 0.5), desk_config(), model=model)

    def test_deterministic_per_seed(self, image, model):
        cfg = desk_config(snr_db=6.0)
        first, frame_a, _ = pipeline.transmit_image(image, cfg, seed=3, model=model)
        second, frame_b, _ = pipeline.transmit_image(image, cfg, seed=3, model=model)
        assert first.tobytes() == second.tobytes()
        assert frame_a == frame_b

    def test_seeds_draw_different_noise(self, image, model):
        cfg = desk_config(snr_db=6.0)
        first, _, _ = pipeline.transmit_image(image, cfg, seed=0, model=model)
        second, _, _ = pipeline.transmit_image(image, cfg, seed=1, model=model)
        assert first.tobytes() != second.tobytes()

    def test_output_shape_and_range(self, image, model):
        cfg = desk_config(snr_db=4.0)
        x_hat, _, _ = pipeline.transmit_image(image, cfg, seed=2, model=model)
        assert x_hat.shape == image.shape
        assert x_hat.min() > 0.0 and x_hat.max() < 1.0

    def test_conventional_segments_unaffected_by_semantic_branch(self, image, model):
        snr = 8.0
        _, with_sem, _ = pipeline.transmit_image(
            image, desk_config(snr_db=snr), seed=5, model=model
        )
        _, without, _ = pipeline.transmit_image(
            image, desk_config(snr_db=snr, semantic=False), seed=5
        )
        assert with_sem.frame_bits == without.frame_bits
        assert with_sem.image_symbols == without.image_symbols

    def test_semantic_transmit_builds_no_graph(self, image, model, monkeypatch):
        made = []
        original = Tensor._from_op

        def spy(data, edges, owned=True):
            out = original(data, edges, owned)
            made.append(out.requires_grad)
            return out

        monkeypatch.setattr(Tensor, "_from_op", staticmethod(spy))
        pipeline.transmit_image(image, desk_config(), seed=0, model=model)
        assert made and not any(made)

    def test_transmit_restores_parameters(self, image, model, monkeypatch):
        arrays = [p.data for p in model.parameters()]

        def check():
            for p, data in zip(model.parameters(), arrays):
                assert p.requires_grad
                assert p.grad is None
                assert p.data is data and p.data.dtype == np.float64

        pipeline.transmit_image(image, desk_config(), seed=0, model=model)
        check()

        def broken(*args):
            raise RuntimeError("link down")

        monkeypatch.setattr(pipeline, "send_analog", broken)
        with pytest.raises(RuntimeError, match="link down"):
            pipeline.transmit_image(image, desk_config(), seed=0, model=model)
        check()

    def test_rayleigh_channel_supported(self, image, model):
        cfg = pipeline.PipelineConfig(
            channel=ChannelConfig(
                kind="rayleigh_block", snr_db=14.0, block_len=64, seed=2
            )
        )
        x_hat, frame, report = pipeline.transmit_image(
            image, cfg, seed=0, model=model
        )
        assert x_hat.shape == image.shape
        assert frame.n == (
            frame.image_symbols + frame.semantic_symbols + frame.side_symbols
        )
        assert math.isfinite(report["psnr_db"])


class TestFloat32Inference:
    """transmit_image and training_forward run the encoder and decoder in
    float32 on weight casts that follow every weight state; parameters,
    gradients, Adam's moments and the loss stay float64."""

    @staticmethod
    def spy_convs(monkeypatch):
        seen = []
        for name in ("conv2d", "conv_transpose2d"):

            def spy(x, weight, *args, _fn=getattr(autodiff, name), **kwargs):
                seen.append((x.data.dtype, weight.data.dtype, weight))
                return _fn(x, weight, *args, **kwargs)

            monkeypatch.setattr(autodiff, name, spy)
        return seen

    @staticmethod
    def assert_conv_stacks_single_precision(seen, model):
        hyper = model.hyper.parameters()
        in_hyper = [any(w is p for p in hyper) for _, _, w in seen]
        assert sum(in_hyper) == 2 and len(seen) > 2
        for (x_dtype, w_dtype, _), wide in zip(seen, in_hyper):
            assert x_dtype == w_dtype == (np.float64 if wide else np.float32)

    def test_conv_stacks_run_in_single_precision_and_the_hyper_in_float64(
        self, image, model, monkeypatch
    ):
        seen = self.spy_convs(monkeypatch)
        x_hat, _, _ = pipeline.transmit_image(image, desk_config(), seed=0, model=model)
        assert x_hat.dtype == np.float64
        self.assert_conv_stacks_single_precision(seen, model)

    def test_parameters_keep_their_arrays_during_a_transmit(self, image, model, monkeypatch):
        # the float32 work runs on casts: no parameter's data is swapped
        # out, not even while the convolutions run
        params = model.encoder.parameters() + model.decoder.parameters()
        arrays = [p.data for p in params]
        intact = []
        conv2d = autodiff.conv2d

        def spy(*args, **kwargs):
            intact.append(all(p.data is a for p, a in zip(params, arrays)))
            return conv2d(*args, **kwargs)

        monkeypatch.setattr(autodiff, "conv2d", spy)
        pipeline.transmit_image(image, desk_config(), seed=0, model=model)
        assert len(intact) > 2 and all(intact)
        assert all(a.dtype == np.float64 for a in arrays)

    def test_training_runs_conv_stacks_in_single_precision_on_float64_masters(
        self, image, monkeypatch
    ):
        model = pipeline.SemanticModel(pipeline.ModelConfig())
        seen = self.spy_convs(monkeypatch)
        loss, parts = training.training_forward(
            model, [image, image], desk_config(), 6.0, make_rng(3), 3,
            pipeline.load_code(), trial=0,
        )
        self.assert_conv_stacks_single_precision(seen, model)
        assert loss.data.dtype == parts["x_hat"].data.dtype == np.float64
        opt = training.Adam(model.parameters(), 1e-3)
        loss.backward()
        opt.step()
        assert all(p.grad is not None for p in opt.params)
        for array in [a for p in opt.params for a in (p.data, p.grad)] + opt.m + opt.v:
            assert array.dtype == np.float64

    @staticmethod
    def same_as_fresh(model, image):
        """transmit_image's x_hat on `model`, checked byte for byte against
        a freshly built model that holds the same state."""
        fresh = pipeline.SemanticModel(model.cfg)
        fresh.load_state_dict(model.state_dict())
        cfg = desk_config(snr_db=8.0)
        got, frame, _ = pipeline.transmit_image(image, cfg, seed=4, model=model)
        want, want_frame, _ = pipeline.transmit_image(image, cfg, seed=4, model=fresh)
        assert got.tobytes() == want.tobytes() and frame == want_frame
        return got

    def test_weights_follow_a_training_step(self, image):
        model = pipeline.SemanticModel(pipeline.ModelConfig())
        before = self.same_as_fresh(model, image)
        training.train(TrainConfig(stage=1, steps=1, batch_size=1), [image], model)
        assert self.same_as_fresh(model, image).tobytes() != before.tobytes()

    def test_weights_follow_load_state_dict(self, image):
        model = pipeline.SemanticModel(pipeline.ModelConfig())
        before = self.same_as_fresh(model, image)
        other = pipeline.SemanticModel(pipeline.ModelConfig(init_seed=1))
        model.load_state_dict(other.state_dict())
        assert self.same_as_fresh(model, image).tobytes() != before.tobytes()

    def test_weights_follow_a_rebound_array(self, image):
        model = pipeline.SemanticModel(pipeline.ModelConfig())
        before = self.same_as_fresh(model, image)
        for p in model.decoder.parameters():
            p.data = p.data * 1.01
        assert self.same_as_fresh(model, image).tobytes() != before.tobytes()


class TestLoadCode:
    def test_rewritten_table_file_loads_again(self, tmp_path):
        tables = importlib.resources.files("parastream") / "tables"
        path = tmp_path / "table.txt"
        path.write_bytes((tables / "qc_rate34_z64.txt").read_bytes())
        assert pipeline.load_code(str(path)).n == 1024
        path.write_bytes((tables / "qc_rate34_z384.txt").read_bytes())
        assert pipeline.load_code(str(path)).n == 6144

    def test_bundled_tables_are_cached(self):
        assert pipeline.load_code() is pipeline.load_code(pipeline.DEFAULT_TABLE)
