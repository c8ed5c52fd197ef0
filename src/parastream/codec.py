"""Baseline block-DCT image codec for the conventional stream.

Not interchange-JPEG: a self-contained container with a documented
header (see docs/bitstream.md) wrapping 8x8 orthonormal-DCT blocks,
quality-scaled quantization, zigzag run-length coding and the canonical
prefix code shipped below. Coding is per channel on the 0..255 scale,
with no color transform and no subsampling.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"BDCC"
VERSION = 1
_HEADER = struct.Struct(">4sBHHBBBBI")

# standard luminance base quantization table
BASE_QUANT = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

# canonical prefix code: counts-per-length plus symbol lists, in the
# widely published baseline form (see docs/bitstream.md for the layout)
DC_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_VALS = list(range(12))

AC_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]

ZRL = 0xF0
EOB = 0x00


class CodecError(ValueError):
    """Malformed or corrupt stream; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def quant_table(q: int) -> np.ndarray:
    """Quality-scaled 8x8 quantizer, entries clamped to [1, 255]."""
    if not 1 <= int(q) <= 100:
        raise CodecError(f"quality factor must be in [1, 100], got {q}")
    q = int(q)
    scale = 5000.0 / q if q < 50 else 200.0 - 2.0 * q
    return np.clip(np.round(BASE_QUANT * scale / 100.0), 1, 255).astype(np.int64)


def _dct_matrix() -> np.ndarray:
    d = np.zeros((8, 8))
    j = np.arange(8)
    d[0, :] = 1.0 / np.sqrt(8.0)
    for i in range(1, 8):
        d[i, :] = 0.5 * np.cos((2 * j + 1) * i * np.pi / 16.0)
    return d


DCT = _dct_matrix()


def _zigzag_order():
    order = []
    for d in range(15):
        if d % 2 == 0:
            rows = range(min(d, 7), max(0, d - 7) - 1, -1)
        else:
            rows = range(max(0, d - 7), min(d, 7) + 1)
        order.extend((i, d - i) for i in rows)
    return order


ZIGZAG = _zigzag_order()
ZIGZAG_FLAT = np.array([i * 8 + j for i, j in ZIGZAG])
DEZIGZAG_FLAT = np.argsort(ZIGZAG_FLAT)


def _build_encoder_table(bits, vals):
    codes = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[vals[k]] = (code, length)
            k += 1
            code += 1
        code <<= 1
    return codes

def _build_decoder_table(bits, vals):
    mincode = [0] * 17
    maxcode = [-1] * 17
    valptr = [0] * 17
    code = 0
    k = 0
    for length in range(1, 17):
        if bits[length - 1] == 0:
            maxcode[length] = -1
        else:
            valptr[length] = k
            mincode[length] = code
            k += bits[length - 1]
            code += bits[length - 1]
            maxcode[length] = code - 1
        code <<= 1
    return mincode, maxcode, valptr


DC_ENC = _build_encoder_table(DC_BITS, DC_VALS)
AC_ENC = _build_encoder_table(AC_BITS, AC_VALS)
DC_DEC = _build_decoder_table(DC_BITS, DC_VALS)
AC_DEC = _build_decoder_table(AC_BITS, AC_VALS)


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.fill = 0
        self.total = 0

    def write(self, value: int, nbits: int):
        if nbits == 0:
            return
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.fill += nbits
        self.total += nbits
        while self.fill >= 8:
            self.fill -= 8
            self.buf.append((self.acc >> self.fill) & 0xFF)
        self.acc &= (1 << self.fill) - 1

    def getvalue(self) -> bytes:
        if self.fill:
            return bytes(self.buf) + bytes([(self.acc << (8 - self.fill)) & 0xFF])
        return bytes(self.buf)


class _BitReader:
    def __init__(self, data: bytes, nbits: int, base_offset: int):
        self.data = data
        self.nbits = nbits
        self.pos = 0
        self.base = base_offset

    @property
    def byte_offset(self) -> int:
        return self.base + self.pos // 8

    def read_bit(self) -> int:
        if self.pos >= self.nbits:
            raise CodecError("payload truncated", self.byte_offset)
        byte = self.data[self.pos // 8]
        bit = (byte >> (7 - self.pos % 8)) & 1
        self.pos += 1
        return bit

    def read_bits(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value


def _decode_symbol(reader: _BitReader, table) -> int:
    mincode, maxcode, valptr = table
    vals = DC_VALS if table is DC_DEC else AC_VALS
    code = 0
    for length in range(1, 17):
        code = (code << 1) | reader.read_bit()
        if maxcode[length] >= 0 and code <= maxcode[length]:
            return vals[valptr[length] + code - mincode[length]]
    raise CodecError("invalid prefix code", reader.byte_offset)


def _amplitude_bits(value: int):
    size = int(abs(value)).bit_length()
    if value < 0:
        return size, value + (1 << size) - 1
    return size, value


def _extend_amplitude(bits: int, size: int) -> int:
    if size == 0:
        return 0
    if bits < (1 << (size - 1)):
        return bits - (1 << size) + 1
    return bits


def _pad_to_blocks(plane: np.ndarray):
    h, w = plane.shape
    pad_h = (-h) % 8
    pad_w = (-w) % 8
    if pad_h or pad_w:
        plane = np.pad(plane, ((0, pad_h), (0, pad_w)), mode="edge")
    return plane, pad_h, pad_w


def _forward_blocks(plane: np.ndarray, table: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    blocks = plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    coeff = np.einsum("ij,bjk,lk->bil", DCT, blocks - 128.0, DCT)
    quant = np.round(coeff / table)
    # L2 keeps any single coefficient within +-1024; the prefix code tops
    # out at 10-bit AC amplitudes, so pin the corner case
    quant[:, :, :] = np.clip(quant, -1023, 1023)
    quant[:, 0, 0] = np.clip(np.round(coeff[:, 0, 0] / table[0, 0]), -1024, 1016)
    return quant.astype(np.int64)


def _inverse_blocks(quant: np.ndarray, table: np.ndarray, h: int, w: int) -> np.ndarray:
    coeff = quant * table
    blocks = np.einsum("ji,bjk,kl->bil", DCT, coeff.astype(np.float64), DCT) + 128.0
    plane = (
        blocks.reshape(h // 8, w // 8, 8, 8).transpose(0, 2, 1, 3).reshape(h, w)
    )
    return plane


def compress(x: np.ndarray, q: int) -> bytes:
    """Encode an H x W x C image with pixel values in [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] < 1 or x.shape[1] < 1 or x.shape[2] < 1:
        raise CodecError(f"image must be H x W x C with positive dims, got {x.shape}")
    if not np.isfinite(x).all():
        raise CodecError("image holds non-finite pixels")
    h, w, c = x.shape
    if h > 0xFFFF or w > 0xFFFF or c > 0xFF:
        raise CodecError(f"image dims exceed header field widths: {x.shape}")
    table = quant_table(q)
    pixels = np.clip(np.round(x * 255.0), 0, 255)
    writer = _BitWriter()
    pad_h = pad_w = 0
    for ch in range(c):
        plane, pad_h, pad_w = _pad_to_blocks(pixels[:, :, ch])
        quant = _forward_blocks(plane, table)
        prev_dc = 0
        for block in quant:
            zz = block.reshape(64)[ZIGZAG_FLAT]
            diff = int(zz[0]) - prev_dc
            prev_dc = int(zz[0])
            size, amp = _amplitude_bits(diff)
            code, length = DC_ENC[size]
            writer.write(code, length)
            writer.write(amp, size)
            run = 0
            last_nonzero = np.nonzero(zz[1:])[0]
            last = int(last_nonzero[-1]) + 1 if last_nonzero.size else 0
            for idx in range(1, last + 1):
                value = int(zz[idx])
                if value == 0:
                    run += 1
                    continue
                while run >= 16:
                    code, length = AC_ENC[ZRL]
                    writer.write(code, length)
                    run -= 16
                size, amp = _amplitude_bits(value)
                code, length = AC_ENC[(run << 4) | size]
                writer.write(code, length)
                writer.write(amp, size)
                run = 0
            if last < 63:
                code, length = AC_ENC[EOB]
                writer.write(code, length)
    payload = writer.getvalue()
    header = _HEADER.pack(MAGIC, VERSION, h, w, c, int(q), pad_h, pad_w, writer.total)
    return header + payload


def decompress(stream: bytes) -> np.ndarray:
    """Decode a stream from :func:`compress` back to an [0, 1] image."""
    if len(stream) < _HEADER.size:
        raise CodecError("stream shorter than header", len(stream))
    magic, version, h, w, c, q, pad_h, pad_w, payload_bits = _HEADER.unpack_from(stream)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise CodecError(f"unsupported version {version}", 4)
    if h < 1 or w < 1 or c < 1 or pad_h > 7 or pad_w > 7:
        raise CodecError("invalid header dimensions", 5)
    payload = stream[_HEADER.size :]
    if payload_bits > len(payload) * 8:
        raise CodecError("payload shorter than declared bit count", len(stream))
    table = quant_table(q)
    hp, wp = h + pad_h, w + pad_w
    if hp % 8 or wp % 8:
        raise CodecError("padded dimensions not a multiple of the block size", 5)
    blocks_per_plane = (hp // 8) * (wp // 8)
    # every block costs at least one DC symbol and one end-of-block, so
    # headers promising more blocks than the payload could hold are bad
    if 2 * blocks_per_plane * c > payload_bits + 16:
        raise CodecError("header dimensions inconsistent with payload size", 5)
    reader = _BitReader(payload, payload_bits, _HEADER.size)
    out = np.zeros((h, w, c))
    for ch in range(c):
        quant = np.zeros((blocks_per_plane, 64), dtype=np.int64)
        prev_dc = 0
        for b in range(blocks_per_plane):
            size = _decode_symbol(reader, DC_DEC)
            diff = _extend_amplitude(reader.read_bits(size), size)
            prev_dc += diff
            quant[b, 0] = prev_dc
            idx = 1
            while idx < 64:
                symbol = _decode_symbol(reader, AC_DEC)
                if symbol == EOB:
                    break
                run = symbol >> 4
                size = symbol & 0x0F
                if size == 0:
                    if run != 15 or idx + 16 > 64:
                        raise CodecError("invalid zero-run symbol", reader.byte_offset)
                    idx += 16
                    continue
                idx += run
                if idx > 63:
                    raise CodecError("coefficient index overflow", reader.byte_offset)
                amp = _extend_amplitude(reader.read_bits(size), size)
                quant[b, idx] = amp
                idx += 1
        plane = _inverse_blocks(
            quant[:, DEZIGZAG_FLAT].reshape(-1, 8, 8), table, hp, wp
        )
        out[:, :, ch] = np.clip(plane, 0.0, 255.0)[:h, :w]
    return out / 255.0
