"""Block-DCT codec tests: quantizer scaling, round trips, stream
determinism, corruption behavior, and frozen desk-scale regressions."""

import numpy as np
import pytest

from parastream import codec, data, metrics
from parastream.rng import make_rng

# measured once on gradient_image(make_rng(11), 32) at q=95, frozen
Q95_GRADIENT_PSNR = 59.782


class TestQuantTable:
    def test_q50_is_base_table(self):
        np.testing.assert_array_equal(codec.quant_table(50), codec.BASE_QUANT)

    def test_q100_clamps_to_floor(self):
        table = codec.quant_table(100)
        np.testing.assert_array_equal(table, np.ones((8, 8), dtype=np.int64))

    def test_q25_doubles_base(self):
        table = codec.quant_table(25)
        assert table[0, 0] == 32  # base entry 16 at scale 200
        np.testing.assert_array_equal(
            table, np.clip(np.round(codec.BASE_QUANT * 2.0), 1, 255)
        )

    @pytest.mark.parametrize("q", [0, 101, -3])
    def test_invalid_quality_rejected(self, q):
        with pytest.raises(codec.CodecError):
            codec.quant_table(q)


class TestDctBasis:
    def test_orthonormality(self):
        err = np.max(np.abs(codec.DCT @ codec.DCT.T - np.eye(8)))
        assert err < 1e-9

    def test_energy_preserved(self):
        rng = make_rng(3)
        block = rng.uniform(-128, 127, size=(8, 8))
        coeff = codec.DCT @ block @ codec.DCT.T
        assert abs(np.linalg.norm(coeff) - np.linalg.norm(block)) < 1e-9

    def test_zigzag_starts_with_standard_prefix(self):
        np.testing.assert_array_equal(
            codec.ZIGZAG_FLAT[:10], [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]
        )
        assert sorted(codec.ZIGZAG_FLAT) == list(range(64))


class TestCompress:
    def test_constant_gray_is_dc_only(self):
        gray = np.full((16, 16, 3), 128.0 / 255.0)
        stream = codec.compress(gray, 50)
        # 4 blocks x 3 channels, each a 2-bit zero-diff DC plus a 4-bit EOB
        payload_bits = int.from_bytes(stream[13:17], "big")
        assert payload_bits == 72
        np.testing.assert_array_equal(codec.decompress(stream), gray)

    def test_size_monotone_in_quality(self):
        img = data.blob_image(make_rng(7), 32)
        sizes = [len(codec.compress(img, q)) for q in (10, 30, 50, 80)]
        assert sizes == sorted(sizes)

    def test_q95_gradient_regression(self):
        img = data.gradient_image(make_rng(11), 32)
        rec = codec.decompress(codec.compress(img, 95))
        value = metrics.psnr(img, rec)
        assert value >= 40.0
        assert abs(value - Q95_GRADIENT_PSNR) < 0.1

    def test_deterministic_streams(self):
        img = data.checkerboard_image(make_rng(21), 24)
        assert codec.compress(img, 30) == codec.compress(img, 30)

    def test_invalid_dims_rejected(self):
        with pytest.raises(codec.CodecError, match="H x W x C"):
            codec.compress(np.zeros((8, 8)), 50)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected(self, bad):
        img = np.full((8, 8, 3), 0.5)
        img[3, 4, 1] = bad
        with pytest.raises(codec.CodecError, match="non-finite"):
            codec.compress(img, 50)

    def test_non_multiple_of_8_pads_and_recovers(self):
        img = data.blob_image(make_rng(5), 19)
        rec = codec.decompress(codec.compress(img, 90))
        assert rec.shape == img.shape
        assert metrics.psnr(img, rec) > 25.0

    def test_residual_shrinkage_over_corpus(self):
        for img in data.make_corpus(6, 32, 9):
            r90 = np.mean(np.abs(img - codec.decompress(codec.compress(img, 90))))
            r10 = np.mean(np.abs(img - codec.decompress(codec.compress(img, 10))))
            assert r90 <= r10


class TestDecompress:
    def test_round_trip_never_errors(self):
        for i, img in enumerate(data.make_corpus(9, 16, 77)):
            for q in (1, 25, 75, 100):
                rec = codec.decompress(codec.compress(img, q))
                assert rec.shape == img.shape
                assert rec.min() >= 0.0 and rec.max() <= 1.0

    def test_header_round_trip_fields(self):
        img = data.blob_image(make_rng(2), 17)
        stream = codec.compress(img, 42)
        assert stream[:4] == codec.MAGIC
        assert stream[4] == codec.VERSION
        assert int.from_bytes(stream[5:7], "big") == 17
        assert int.from_bytes(stream[7:9], "big") == 17
        assert stream[9] == 3
        assert stream[10] == 42

    def test_bad_magic_rejected(self):
        img = data.blob_image(make_rng(2), 16)
        stream = bytearray(codec.compress(img, 42))
        stream[0] ^= 0xFF
        with pytest.raises(codec.CodecError, match="magic"):
            codec.decompress(bytes(stream))

    def test_truncated_stream_rejected(self):
        img = data.blob_image(make_rng(2), 16)
        stream = codec.compress(img, 42)
        with pytest.raises(codec.CodecError):
            codec.decompress(stream[: len(stream) // 2])

    def test_unpadded_block_dimensions_rejected(self):
        # header claiming h=17 with pad 0 leaves a partial block row
        stream = bytearray(codec.compress(data.blob_image(make_rng(2), 16), 42))
        stream[5:7] = (17).to_bytes(2, "big")
        with pytest.raises(codec.CodecError, match="block size"):
            codec.decompress(bytes(stream))

    def test_oversized_dimensions_rejected(self):
        # 8000 rows of blocks cannot fit in a 16x16 image's payload
        stream = bytearray(codec.compress(data.blob_image(make_rng(2), 16), 42))
        stream[5:7] = (8000).to_bytes(2, "big")
        with pytest.raises(codec.CodecError, match="inconsistent"):
            codec.decompress(bytes(stream))

    def test_corrupt_byte_fails_gracefully(self):
        # Every payload flip must end in CodecError or a well-formed image;
        # most flips should be visible (pad-bit flips legitimately are not).
        img = data.blob_image(make_rng(31), 24)
        stream = codec.compress(img, 60)
        clean = codec.decompress(stream)
        rng = make_rng(32)
        visible = 0
        for _ in range(24):
            corrupt = bytearray(stream)
            pos = int(rng.integers(17, len(stream)))
            corrupt[pos] ^= int(rng.integers(1, 256))
            try:
                rec = codec.decompress(bytes(corrupt))
            except codec.CodecError as err:
                assert err.offset >= 0
                visible += 1
                continue
            assert rec.shape == clean.shape
            assert rec.min() >= 0.0 and rec.max() <= 1.0
            if not np.array_equal(rec, clean):
                visible += 1
        assert visible >= 20

    def test_error_carries_byte_offset(self):
        img = data.blob_image(make_rng(2), 16)
        stream = codec.compress(img, 42)
        with pytest.raises(codec.CodecError, match="byte offset"):
            codec.decompress(stream[:17] + b"\xff" * 4)


class TestAmplitudeCoding:
    def test_extend_inverts_encode(self):
        for value in range(-1023, 1024):
            size, amp = codec._amplitude_bits(value)
            assert codec._extend_amplitude(amp, size) == value

    def test_category_sizes(self):
        assert codec._amplitude_bits(0) == (0, 0)
        assert codec._amplitude_bits(1)[0] == 1
        assert codec._amplitude_bits(-1)[0] == 1
        assert codec._amplitude_bits(1023)[0] == 10
