"""Channel simulation: power normalization, noise statistics, fading."""

import pathlib
import re

import numpy as np
import pytest

from parastream import channel
from parastream.pipeline import power_gain
from parastream.rng import make_rng


class TestNormalizePower:
    """pipeline.power_gain scales every stream to unit power before it
    crosses the channel."""

    def test_fixed_point(self):
        z = np.exp(1j * np.linspace(0, 3, 16))  # already unit power
        np.testing.assert_allclose(power_gain(z) * z, z, atol=1e-12)

    def test_power_four_halves(self):
        z = np.full(8, 2.0 + 0j)
        np.testing.assert_allclose(power_gain(z) * z, z / 2.0)

    def test_exact_power_after_scaling(self):
        z = make_rng(1).standard_normal(100) + 1j * make_rng(2).standard_normal(100)
        out = power_gain(z) * z
        assert np.vdot(out, out).real / out.size == pytest.approx(1.0, rel=1e-12)

    def test_zero_vector_passthrough(self):
        z = np.zeros(5, dtype=np.complex128)
        np.testing.assert_array_equal(power_gain(z) * z, z)

    def test_empty_stream_unit_gain(self):
        assert power_gain(np.array([], dtype=np.complex128)) == 1.0


class TestSnrToSigma2:
    def test_zero_db(self):
        assert channel.snr_to_sigma2(0.0) == 1.0

    def test_ten_db(self):
        assert channel.snr_to_sigma2(10.0) == pytest.approx(0.1)

    def test_power_scales(self):
        # noise power follows 10^(-snr/10) between the decades too
        assert channel.snr_to_sigma2(3.0) == pytest.approx(10 ** -0.3)


class TestConfig:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            channel.ChannelConfig(kind="laplace")

    @pytest.mark.parametrize("block_len", [0, 1.5, True])
    def test_bad_block_len_rejected(self, block_len):
        with pytest.raises(ValueError, match="block_len"):
            channel.ChannelConfig(kind="rayleigh_block", block_len=block_len)

    @pytest.mark.parametrize("seed", [-1, 1.5, 1.9, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
            channel.ChannelConfig(seed=seed)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="snr_db must not be NaN"):
            channel.ChannelConfig(snr_db=np.nan)

    def test_infinite_snr_allowed(self):
        assert channel.ChannelConfig(snr_db=np.inf).snr_db == np.inf

    def test_minus_infinite_snr_rejected(self):
        with pytest.raises(ValueError, match="snr_db must not be -inf"):
            channel.ChannelConfig(snr_db=-np.inf)


class TestMakeRng:
    @pytest.mark.parametrize(
        "seed, substream",
        [(-1, 0), (0, -1), (1.5, 0), (1.9, 0), (True, 0), (0, 2.0), (0, False)],
    )
    def test_bad_seed_or_substream_rejected(self, seed, substream):
        # a float used to be truncated: 1.5 and 1.9 drew seed 1's stream
        with pytest.raises(ValueError, match="seed and substream must be integers >= 0"):
            make_rng(seed, substream)

    def test_numpy_integers_accepted(self):
        got = make_rng(np.int64(5), np.uint32(2)).standard_normal(4)
        np.testing.assert_array_equal(got, make_rng(5, 2).standard_normal(4))


class TestTransmit:
    def test_noiseless_awgn_is_identity(self):
        cfg = channel.ChannelConfig(kind="awgn", snr_db=np.inf, seed=3)
        z = make_rng(4).standard_normal(32) + 0j
        out, real = channel.transmit(z, cfg)
        np.testing.assert_array_equal(out, z)
        assert real.sigma2 == 0.0

    def test_awgn_noise_power_within_one_percent(self):
        cfg = channel.ChannelConfig(kind="awgn", snr_db=10.0, seed=5)
        z = np.zeros(1_000_000, dtype=np.complex128)
        out, real = channel.transmit(z, cfg)
        measured = np.vdot(out, out).real / out.size
        assert abs(measured - 0.1) / 0.1 < 0.01

    def test_length_preserved(self):
        cfg = channel.ChannelConfig(kind="rayleigh_block", snr_db=8.0,
                                    block_len=7, seed=6)
        out, real = channel.transmit(np.ones(23, np.complex128), cfg)
        assert out.shape == (23,) and real.h.shape == (23,)

    def test_single_block_constant_gain(self):
        cfg = channel.ChannelConfig(kind="rayleigh_block", snr_db=10.0,
                                    block_len=16, seed=7)
        real = channel.draw_realization(cfg, 16)
        assert np.unique(real.h).size == 1

    def test_gain_constant_within_blocks(self):
        cfg = channel.ChannelConfig(kind="rayleigh_block", snr_db=10.0,
                                    block_len=4, seed=8)
        real = channel.draw_realization(cfg, 10)
        h = real.h
        assert np.unique(h[0:4]).size == 1
        assert np.unique(h[4:8]).size == 1
        assert np.unique(h[8:10]).size == 1
        assert h[0] != h[4]

    def test_rayleigh_gain_power_calibrated(self):
        cfg = channel.ChannelConfig(kind="rayleigh_block", snr_db=10.0,
                                    block_len=1, seed=9)
        real = channel.draw_realization(cfg, 200_000)
        assert 0.99 <= np.mean(np.abs(real.h) ** 2) <= 1.01

    def test_awgn_gain_is_all_ones(self):
        cfg = channel.ChannelConfig(kind="awgn", snr_db=4.0, seed=10)
        real = channel.draw_realization(cfg, 50)
        np.testing.assert_array_equal(real.h, np.ones(50))

    def test_same_seed_bit_identical(self):
        cfg = channel.ChannelConfig(kind="rayleigh_block", snr_db=6.0,
                                    block_len=3, seed=11)
        z = make_rng(12).standard_normal(64) + 0j
        out1, real1 = channel.transmit(z, cfg, trial=5)
        out2, real2 = channel.transmit(z, cfg, trial=5)
        assert out1.tobytes() == out2.tobytes()
        assert real1.h.tobytes() == real2.h.tobytes()

    def test_trials_differ(self):
        cfg = channel.ChannelConfig(kind="awgn", snr_db=6.0, seed=11)
        z = np.zeros(64, dtype=np.complex128)
        out1, _ = channel.transmit(z, cfg, trial=0)
        out2, _ = channel.transmit(z, cfg, trial=1)
        assert not np.array_equal(out1, out2)


def test_channel_is_the_only_noise_source():
    # both streams, in training and at inference, draw their noise
    # through channel.draw_realization; a second Gaussian draw elsewhere
    # would be a second, unkeyed noise path
    package = pathlib.Path(channel.__file__).parent
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "channel.py" and "standard_normal" in path.read_text()
    ]
    assert offenders == []


def test_every_coded_crossing_goes_through_one_link():
    # pipeline.send_coded is the only place bits meet the LDPC code and
    # the QPSK modem; a second call site would be a second coded link
    package = pathlib.Path(channel.__file__).parent
    sources = {
        path.name: path.read_text()
        for path in sorted(package.glob("*.py"))
        if path.name not in ("ldpc.py", "modem.py")
    }
    calls = ("ldpc_encode(", "ldpc_decode_bp(", "qpsk_modulate(", "qpsk_soft_demod(")
    for call in calls:
        sites = {name: text.count(call) for name, text in sources.items()}
        assert {name: n for name, n in sites.items() if n} == {"pipeline.py": 1}, call


def test_every_semantic_crossing_goes_through_one_chain():
    # pipeline.semantic_forward is the only semantic chain and
    # pipeline.send_batch the only pass that splits the source, sends the
    # coded stream, casts the semantic inputs and runs that chain;
    # transmit and training both call it, so inference runs the pass
    # that was trained
    package = pathlib.Path(channel.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    calls = (
        "model.encoder(", "model.hyper(", "banks.encode(", "banks.decode(",
        "model.decoder(", "send_analog(", "split_source(", "_send_conventional(",
        "semantic_forward(", "astype(np.float32)",
    )
    for call in calls:
        site = re.compile(r"(?<!def )" + re.escape(call))
        sites = {name: len(site.findall(text)) for name, text in sources.items()}
        assert {name: n for name, n in sites.items() if n} == {"pipeline.py": 1}, call


def test_fer_probe_has_no_link_of_its_own():
    from parastream import experiment

    for name in ("ldpc", "modem", "transmit", "qpsk_modulate", "qpsk_soft_demod"):
        assert name not in vars(experiment), name
