"""Block-DCT codec tests: quantizer scaling, round trips, stream
determinism, corruption behavior, frozen desk-scale regressions, and
the table-driven coder against the bit-serial oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parastream import codec, data, metrics
from parastream.rng import make_rng

from helpers import compress_oracle, decompress_oracle

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

    @pytest.mark.parametrize("q", [0, 101, -3, 50.7, 50.0, True, "50"])
    def test_invalid_quality_rejected(self, q):
        with pytest.raises(codec.CodecError, match="integer in"):
            codec.quant_table(q)

    def test_numpy_integer_quality_accepted(self):
        image = data.gradient_image(make_rng(3), 16)
        assert codec.compress(image, np.int64(50)) == codec.compress(image, 50)


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
        assert stream[17:] == bytes.fromhex("28a28a28a28a28a28a")
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


def _image(kind, h, w, c, seed):
    """An h x w x c image in [0, 1]: random pixels, one flat value, or
    smooth blobs (channels cycle through the blob's three)."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random((h, w, c))
    if kind == "flat":
        return np.full((h, w, c), rng.random())
    blob = data.blob_image(make_rng(seed), max(h, w))
    return blob[:h, :w, [i % 3 for i in range(c)]]


images = st.tuples(
    st.sampled_from(["random", "flat", "blob"]),
    st.integers(1, 72),
    st.integers(1, 72),
    st.integers(1, 4),
    st.integers(0, 2**16),
)


def _coefficients(stream):
    h, w, c, _, pad_h, pad_w, payload_bits = codec._read_header(stream)
    per_plane = ((h + pad_h) // 8) * ((w + pad_w) // 8)
    return codec._decode_blocks(stream[codec._HEADER.size :], payload_bits, c, per_plane)


class TestOracle:
    """The table-driven coder against the bit-serial one in helpers."""

    @settings(max_examples=60, deadline=None)
    @given(image=images, q=st.integers(1, 100))
    # a one-pixel-wide image pads to a plane one block wide, whose blocks
    # reshape to a strided view; here that view's sum order rounded a tie
    # the other way
    @example(image=("blob", 20, 1, 2, 2079), q=94)
    def test_streams_and_decodes_match(self, image, q):
        x = _image(*image)
        stream = codec.compress(x, q)
        assert stream == compress_oracle(x, q)
        expected, quant = decompress_oracle(stream, return_quant=True)
        np.testing.assert_array_equal(_coefficients(stream), quant)
        np.testing.assert_allclose(codec.decompress(stream), expected, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(image=images, q=st.integers(1, 100))
    @example(image=("blob", 20, 1, 2, 2079), q=94)
    def test_bytes_do_not_depend_on_memory_layout(self, image, q):
        x = _image(*image)
        wide = np.zeros(x.shape[:2] + (x.shape[2] + 2,))
        wide[:, :, 1:-1] = x
        copies = (np.ascontiguousarray(x), np.asfortranarray(x), wide[:, :, 1:-1])
        assert len({codec.compress(copy, q) for copy in copies}) == 1


@st.composite
def damaged_streams(draw):
    """A valid stream with flipped bytes, cut short, with one header
    byte replaced, or with a random payload behind its header."""
    kind, h, w, c, seed = draw(images)
    h, w = min(h, 24), min(w, 24)
    stream = bytearray(codec.compress(_image(kind, h, w, c, seed), draw(st.integers(1, 100))))
    how = draw(st.sampled_from(["flip", "truncate", "header", "payload"]))
    if how == "flip":
        for _ in range(draw(st.integers(1, 4))):
            pos = draw(st.integers(0, len(stream) - 1))
            stream[pos] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del stream[draw(st.integers(0, len(stream) - 1)) :]
    elif how == "header":
        stream[draw(st.integers(5, 16))] = draw(st.integers(0, 255))
    else:
        size = len(stream) - codec._HEADER.size
        stream[codec._HEADER.size :] = draw(st.binary(min_size=size, max_size=size))
    return bytes(stream)


def _outcome(decode, stream):
    try:
        return decode(stream)
    except codec.CodecError as err:
        return err


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(stream=damaged_streams())
    def test_damaged_streams_decode_or_raise_codec_error(self, stream):
        # any other exception escapes and fails the test
        got = _outcome(codec.decompress, stream)
        want = _outcome(decompress_oracle, stream)
        if isinstance(want, codec.CodecError):
            assert isinstance(got, codec.CodecError), want
            assert (str(got), got.offset) == (str(want), want.offset)
            return
        assert not isinstance(got, codec.CodecError), got
        h, w, c = codec._HEADER.unpack_from(stream)[2:5]
        assert got.shape == (h, w, c)
        assert got.min() >= 0.0 and got.max() <= 1.0
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(payload=st.binary(max_size=64), header=st.tuples(
        st.integers(1, 40), st.integers(1, 40), st.integers(1, 3),
        st.integers(0, 101), st.integers(0, 8), st.integers(0, 8), st.integers(0, 600),
    ))
    def test_random_payloads_decode_or_raise_codec_error(self, payload, header):
        stream = codec._HEADER.pack(codec.MAGIC, codec.VERSION, *header) + payload
        got = _outcome(codec.decompress, stream)
        want = _outcome(decompress_oracle, stream)
        if isinstance(want, codec.CodecError):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert got.shape == header[:3]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "payload_bits, message, offset",
        [(10, "payload truncated", 18), (24, "invalid prefix code", 19)],
    )
    def test_truncation_wins_over_an_invalid_code(self, payload_bits, message, offset):
        # all-ones bits start no DC code; the search reads 16 of them
        # first, so a payload shorter than that is a truncation
        stream = codec._HEADER.pack(
            codec.MAGIC, codec.VERSION, 8, 8, 1, 50, 0, 0, payload_bits
        ) + b"\xff\xff\xff"
        for decode in (codec.decompress, decompress_oracle):
            with pytest.raises(codec.CodecError, match=message) as err:
                decode(stream)
            assert err.value.offset == offset

    def test_decode_walk_is_bounded_by_the_payload(self):
        # 1024 x 1024 px is 16384 blocks, about what the size check lets
        # 4 kB of payload promise; all zero bits decode as a 2-bit DC and
        # 63 3-bit AC symbols per block, so the walk runs out of bits
        # after 172 blocks and stops there
        payload_bits = 4096 * 8
        stream = codec._HEADER.pack(
            codec.MAGIC, codec.VERSION, 1024, 1024, 1, 50, 0, 0, payload_bits
        )
        with pytest.raises(codec.CodecError, match="truncated"):
            codec.decompress(stream + bytes(4096))
