"""PSNR and MS-SSIM quality metrics.

The MS-SSIM noise floor is a frozen regression: two independent noise
images measured once at 0.009721 and pinned with slack.
"""

import numpy as np
import pytest

from helpers import filter_valid_oracle
from parastream import data, metrics
from parastream.rng import make_rng

NOISE_FLOOR_MSSSIM = 0.009721


class TestPsnr:
    def test_identical_is_infinite(self):
        img = data.blob_image(make_rng(1), 16)
        assert metrics.psnr(img, img) == np.inf

    def test_known_mse(self):
        a = np.zeros((8, 8, 3))
        b = np.full((8, 8, 3), 10.0 / 255.0)
        # MSE = 100 on the 0..255 scale -> 10*log10(255^2/100)
        assert abs(metrics.psnr(a, b) - 10 * np.log10(255.0**2 / 100.0)) < 1e-9

    def test_symmetry(self):
        a = data.blob_image(make_rng(2), 16)
        b = data.gradient_image(make_rng(3), 16)
        assert metrics.psnr(a, b) == pytest.approx(metrics.psnr(b, a))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            metrics.psnr(np.zeros((8, 8, 3)), np.zeros((16, 16, 3)))


class TestMsSsim:
    def test_identical_is_one(self):
        img = data.gradient_image(make_rng(5), 64)
        assert metrics.ms_ssim(img, img) == pytest.approx(1.0, abs=1e-9)

    def test_independent_noise_near_zero(self):
        rng = make_rng(2024)
        a = rng.uniform(0, 1, size=(64, 64, 3))
        b = rng.uniform(0, 1, size=(64, 64, 3))
        value = metrics.ms_ssim(a, b)
        assert value < 0.2
        assert value == pytest.approx(NOISE_FLOOR_MSSSIM, abs=1e-4)

    def test_monotone_under_noise(self):
        img = data.blob_image(make_rng(6), 64)
        rng = make_rng(7)
        noise = rng.standard_normal(img.shape)
        scores = []
        for sigma in (0.0, 5.0, 15.0, 30.0):
            noisy = np.clip(img + sigma / 255.0 * noise, 0, 1)
            scores.append(metrics.ms_ssim(img, noisy))
        assert scores[0] == pytest.approx(1.0, abs=1e-9)
        assert scores == sorted(scores, reverse=True)

    def test_five_scales_at_161(self):
        assert metrics._scale_count(161, 161) == 5
        assert metrics._scale_count(160, 160) == 4
        assert metrics._scale_count(161, 160) == 4
        assert metrics._scale_count(11, 11) == 1

    def test_small_images_renormalize_weights(self):
        img = data.blob_image(make_rng(8), 16)
        # 16 px supports a single 11x11 scale; must still be a valid score
        value = metrics.ms_ssim(img, np.clip(img + 0.01, 0, 1))
        assert 0.0 <= value <= 1.0

    def test_range_clipped(self):
        a = data.checkerboard_image(make_rng(9), 64)
        b = 1.0 - a
        value = metrics.ms_ssim(a, b)
        assert 0.0 <= value <= 1.0

    def test_window_too_large_rejected(self):
        with pytest.raises(ValueError, match="11"):
            metrics.ms_ssim(np.zeros((8, 8, 3)), np.zeros((8, 8, 3)))


class TestChannelBatch:
    """ms_ssim filters every channel of a scale in one pass. Its GEMMs
    order sums as BLAS likes, so it matches a per-plane call and the
    np.convolve filter within rtol 1e-12, not bit for bit."""

    @pytest.mark.parametrize("shape", [(16, 16), (45, 32), (161, 170)])
    @pytest.mark.parametrize("channels", [None, 1, 2, 3])
    def test_matches_per_plane_and_convolve(self, shape, channels, monkeypatch):
        rng = make_rng(channels or 0)
        full = shape if channels is None else shape + (channels,)
        a = rng.uniform(0, 1, size=full)
        b = np.clip(a + 0.1 * rng.standard_normal(full), 0, 1)
        batched = metrics.ms_ssim(a, b)
        planes = [(a, b)] if channels is None else [
            (a[:, :, ch], b[:, :, ch]) for ch in range(channels)
        ]
        per_plane = np.mean([metrics.ms_ssim(x, y) for x, y in planes])
        assert batched == pytest.approx(per_plane, rel=1e-12)
        monkeypatch.setattr(metrics, "_filter_valid", filter_valid_oracle)
        assert batched == pytest.approx(
            np.mean([metrics.ms_ssim(x, y) for x, y in planes]), rel=1e-12
        )


class TestFilterOracle:
    """The shifted-slice Gaussian filter against np.convolve per row and
    per column, at rtol 1e-12."""

    @pytest.mark.parametrize(
        "shape", [(11, 11), (16, 16), (17, 29), (33, 20), (64, 64), (161, 161)]
    )
    def test_filter_matches_convolve(self, shape):
        rng = make_rng(sum(shape))
        x = rng.uniform(0, 1, size=shape + (3,))
        planes = np.stack([x[:, :, 0], x[:, :, 1], x[:, :, 2] ** 2])
        np.testing.assert_allclose(
            metrics._filter_valid(planes), filter_valid_oracle(planes), rtol=1e-12
        )
        np.testing.assert_allclose(
            metrics._filter_valid(x[:, :, 1]),
            filter_valid_oracle(x[:, :, 1]),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("shape", [(11, 13), (16, 16), (45, 32), (161, 170)])
    def test_ms_ssim_matches_convolve_path(self, shape, monkeypatch):
        rng = make_rng(shape[0])
        a = rng.uniform(0, 1, size=shape + (3,))
        b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, 1)
        fast = metrics.ms_ssim(a, b)
        monkeypatch.setattr(metrics, "_filter_valid", filter_valid_oracle)
        assert fast == pytest.approx(metrics.ms_ssim(a, b), rel=1e-12)
