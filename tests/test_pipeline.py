"""Both branches end to end: framing, accounting, degradation paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastream import codec, data, pipeline
from parastream.autodiff import DimensionError, Tensor
from parastream.channel import ChannelConfig
from parastream.rng import make_rng


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
        for power in (0.5, 1.0, 3.0):
            scaled = pipeline.power_gain(z, power) * z
            assert np.vdot(scaled, scaled).real / scaled.size == pytest.approx(
                power, rel=1e-12
            )

    def test_zero_stream_passes_through(self):
        assert pipeline.power_gain(np.zeros(4, complex)) == 1.0


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
    def test_negative_loss_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pipeline.PipelineConfig(lambda1=-0.1)

    def test_model_width_contracts(self):
        with pytest.raises(ValueError, match="c_s"):
            pipeline.SemanticModel(pipeline.ModelConfig(c_s=16))
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

    def test_deep_noise_corrupts_and_degrades_gracefully(self, image):
        cfg = desk_config(snr_db=-5.0, semantic=False)
        x_hat, _, report = pipeline.transmit_image(image, cfg, seed=1)
        assert report["corrupted"] is True
        assert x_hat.shape == image.shape
        assert np.isfinite(x_hat).all()
        assert x_hat.min() >= 0.0 and x_hat.max() <= 1.0


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
            assert abs(power - cfg.channel.power) < 1e-9

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
