"""Synthetic corpus generators and PPM round trips."""

import re

import numpy as np
import pytest

from parastream import data
from parastream.rng import make_rng


class TestGenerators:
    @pytest.mark.parametrize(
        "maker", [data.gradient_image, data.checkerboard_image, data.blob_image]
    )
    def test_shape_and_range(self, maker):
        img = maker(make_rng(4), 32)
        assert img.shape == (32, 32, 3)
        assert img.dtype == np.float64
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_gradient_varies_smoothly(self):
        img = data.gradient_image(make_rng(4), 64)
        dx = np.abs(np.diff(img, axis=1)).max()
        dy = np.abs(np.diff(img, axis=0)).max()
        assert max(dx, dy) < 0.1

    def test_checkerboard_is_two_valued_per_channel(self):
        img = data.checkerboard_image(make_rng(4), 32)
        for c in range(3):
            assert len(np.unique(img[:, :, c])) <= 2

    def test_blob_not_constant(self):
        img = data.blob_image(make_rng(4), 32)
        assert img.std() > 0.01

    def test_same_seed_same_image(self):
        a = data.blob_image(make_rng(9), 32)
        b = data.blob_image(make_rng(9), 32)
        np.testing.assert_array_equal(a, b)

    def test_corpus_cycles_kinds_deterministically(self):
        corpus = data.make_corpus(6, 16, 123)
        # a longer corpus starts with the shorter one, so a sweep that
        # generates only the images it reads reads the same images
        again = data.make_corpus(32, 16, 123)
        assert len(corpus) == 6
        for a, b in zip(corpus, again):
            np.testing.assert_array_equal(a, b)
        # different kinds should not all be identical
        assert not np.array_equal(corpus[0], corpus[1])


    @pytest.mark.parametrize("size", [0, -3])
    def test_corpus_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match=f"size={size}"):
            data.make_corpus(2, size, 1)

    def test_corpus_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count=-1"):
            data.make_corpus(-1, 16, 1)
        assert data.make_corpus(0, 16, 1) == []


class TestPpm:
    def test_round_trip(self, tmp_path):
        img = data.blob_image(make_rng(8), 24)
        path = tmp_path / "img.ppm"
        data.write_ppm(path, img)
        back = data.read_ppm(path)
        # write quantizes to 8 bits, so agree to half a step
        assert np.max(np.abs(back - np.round(img * 255) / 255)) < 1e-12

    def test_read_rejects_ascii_variant(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError, match="P6"):
            data.read_ppm(path)

    def test_read_tolerates_comments(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        img = data.read_ppm(path)
        assert img.shape == (1, 2, 3)
        np.testing.assert_array_equal(img, 0.0)

    @pytest.mark.parametrize(
        "raw, match",
        [
            (b"P6\n2 1\n", r"header cut short after 3 of 4 fields"),
            (b"P6\n2", r"header cut short after 2 of 4 fields"),
            (b"", r"header cut short after 0 of 4 fields"),
            (b"P6\n2 x\n255\n" + bytes(6), r"header b'2 x 255' is not numeric"),
            (b"P6\n2 2\n255\n" + bytes(11), r"raster holds 11 bytes, 2 x 2 x 3 needs 12"),
            (b"P6\n2 1\n255", r"raster holds 0 bytes, 2 x 1 x 3 needs 6"),
            (b"P6\n0 0\n255\n", r"empty PPM image, 0 x 0"),
            (b"P6\n3 0\n255\n", r"empty PPM image, 3 x 0"),
        ],
        ids=[
            "no-maxval", "no-height", "empty-file", "text-height", "short-raster",
            "no-raster", "zero-size", "zero-height",
        ],
    )
    def test_read_rejects_broken_file_naming_it(self, tmp_path, raw, match):
        path = tmp_path / "broken.ppm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{match}$"):
            data.read_ppm(path)
