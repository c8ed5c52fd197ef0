"""Baseline block-DCT image codec for the conventional stream.

Not interchange-JPEG: a self-contained container with a documented
header (see docs/bitstream.md) wrapping 8x8 orthonormal-DCT blocks,
quality-scaled quantization, zigzag run-length coding and the canonical
prefix code shipped below. Coding is per channel on the 0..255 scale,
with no color transform and no subsampling.
"""

from __future__ import annotations

import numbers
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
    if isinstance(q, bool) or not isinstance(q, numbers.Integral) or not 1 <= q <= 100:
        raise CodecError(f"quality factor must be an integer in [1, 100], got {q!r}")
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

def _code_table(bits, vals):
    """Canonical (code, length) of every symbol, as two arrays indexed by
    symbol value; unused symbols have length 0."""
    code_of = np.zeros(256, dtype=np.int64)
    length_of = np.zeros(256, dtype=np.int64)
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            code_of[vals[k]] = code
            length_of[vals[k]] = length
            k += 1
            code += 1
        code <<= 1
    return code_of, length_of


def _lookahead_table(code_of, length_of, entry):
    """``entry(length, symbol)`` for every 16-bit window that starts with
    that symbol's code, 0 for windows no code prefixes."""
    table = np.zeros(1 << 16, dtype=np.uint16)
    for symbol in np.flatnonzero(length_of):
        shift = 16 - length_of[symbol]
        code = code_of[symbol]
        table[code << shift : (code + 1) << shift] = entry(length_of[symbol], symbol)
    return table


def _ac_step(symbol):
    """Zigzag positions an AC symbol advances: run + 1, sixteen for a
    zero run, none for end-of-block."""
    return {ZRL: 16, EOB: 0}.get(symbol, (symbol >> 4) + 1)


DC_CODE, DC_LEN = _code_table(DC_BITS, DC_VALS)
AC_CODE, AC_LEN = _code_table(AC_BITS, AC_VALS)
# Decoder lookahead tables, indexed by the next 16 payload bits. A DC
# entry is advance << 4 | size, an AC entry advance << 9 | size << 5 |
# step + 1, where advance counts the code and its amplitude bits.
DC_LOOKAHEAD = _lookahead_table(DC_CODE, DC_LEN, lambda n, s: (n + s) << 4 | s)
AC_LOOKAHEAD = _lookahead_table(
    AC_CODE, AC_LEN, lambda n, s: (n + (s & 15)) << 9 | (s & 15) << 5 | (_ac_step(s) + 1)
)

# m zero-run codes back to back, m = 0..3 (a block has at most 62 zeros
# before its last nonzero AC coefficient)
_ZRL_RUNS = [0]
for _ in range(3):
    _ZRL_RUNS.append(_ZRL_RUNS[-1] << int(AC_LEN[ZRL]) | int(AC_CODE[ZRL]))
_ZRL_RUNS = np.array(_ZRL_RUNS)

# A block reads at most 64 symbols of at most 27 bits (16 code, 11
# amplitude), so a decode that starts a block inside the payload reads
# no further than this past its end.
_BLOCK_BITS = 64 * 27
_WINDOW_SHIFTS = np.arange(8, 0, -1, dtype=np.uint32)


def _amplitude_bits(value):
    """Size class ``bit_length(|v|)`` and amplitude bits, negatives
    stored as ``v + 2^s - 1``; elementwise."""
    value = np.asarray(value, dtype=np.int64)
    size = np.frexp(np.abs(value))[1].astype(np.int64)
    return size, (value - (value < 0)) & ((1 << size) - 1)


def _extend_amplitude(bits, size):
    """Inverse of :func:`_amplitude_bits`; elementwise, size 0 gives 0."""
    bits = np.asarray(bits, dtype=np.int64)
    size = np.asarray(size, dtype=np.int64)
    return np.where(bits < ((1 << size) >> 1), bits - (1 << size) + 1, bits)


def _forward_blocks(plane: np.ndarray, table: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    blocks = plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    # one C-ordered plane per call and an einsum, not a matmul: the
    # einsum's sum order depends on the batch size and on the memory
    # layout (a plane one block tall or wide reshapes to a strided view),
    # and a matmul regroups the sum; each moves np.round at half-integer
    # ties and so the bytes
    coeff = np.einsum("ij,bjk,lk->bil", DCT, np.ascontiguousarray(blocks) - 128.0, DCT)
    quant = np.round(coeff / table)
    # L2 keeps any single coefficient within +-1024; the prefix code tops
    # out at 10-bit AC amplitudes, so pin the corner case
    quant[:, :, :] = np.clip(quant, -1023, 1023)
    quant[:, 0, 0] = np.clip(np.round(coeff[:, 0, 0] / table[0, 0]), -1024, 1016)
    return quant.astype(np.int64)


def _inverse_blocks(quant: np.ndarray, table: np.ndarray, h: int, w: int) -> np.ndarray:
    """Pixels of zigzag-ordered [planes, blocks, 64] coefficients, as
    C x h x w planes on the 0..255 scale (unclipped)."""
    c = quant.shape[0]
    coeff = (quant[:, :, DEZIGZAG_FLAT] * table.reshape(64)).astype(np.float64)
    blocks = DCT.T @ coeff.reshape(-1, 8, 8) @ DCT
    blocks += 128.0
    return blocks.reshape(c, h // 8, w // 8, 8, 8).transpose(0, 1, 3, 2, 4).reshape(c, h, w)


def _fields(zz: np.ndarray):
    """Bit fields (value, length) of zigzag-ordered [planes, blocks, 64]
    coefficients, in payload order. Each block is one field for its DC
    code and amplitude, one per nonzero AC coefficient for its zero-run
    codes, code and amplitude, and one for end-of-block (empty when the
    block's last coefficient is nonzero). A field is at most 59 bits."""
    planes, per_plane, _ = zz.shape
    n_blocks = planes * per_plane
    dc_diff = zz[:, :, 0].copy()
    dc_diff[:, 1:] -= zz[:, :-1, 0]
    dc_size, dc_amp = _amplitude_bits(dc_diff.reshape(-1))
    ac = zz.reshape(n_blocks, 64)[:, 1:]
    block, col = np.nonzero(ac)
    # zeros before each nonzero, counted from the previous one in its block
    prev = np.empty_like(col)
    prev[0:1] = -1
    prev[1:] = np.where(block[1:] == block[:-1], col[:-1], -1)
    run = col - prev - 1
    size, amp = _amplitude_bits(ac[block, col])
    symbol = ((run & 15) << 4) | size
    n_zrl = run >> 4
    code_len = AC_LEN[symbol] + size

    # block g holds fields 2g + (nonzeros before it) .. 2g + (nonzeros up
    # to it) + 1, so the i-th nonzero overall is field 2g + i + 1
    counts = np.bincount(block, minlength=n_blocks)
    dc_at = 2 * np.arange(n_blocks) + np.cumsum(counts) - counts
    ac_at = 2 * block + np.arange(1, block.size + 1)
    eob_at = dc_at + counts + 1
    value = np.zeros(2 * n_blocks + block.size, dtype=np.int64)
    length = np.zeros_like(value)
    value[dc_at] = (DC_CODE[dc_size] << dc_size) | dc_amp
    length[dc_at] = DC_LEN[dc_size] + dc_size
    value[ac_at] = (_ZRL_RUNS[n_zrl] << code_len) | (AC_CODE[symbol] << size) | amp
    length[ac_at] = AC_LEN[ZRL] * n_zrl + code_len
    value[eob_at] = AC_CODE[EOB]
    length[eob_at] = AC_LEN[EOB] * (ac[:, -1] == 0)
    return value, length


def _pack(value: np.ndarray, length: np.ndarray):
    """Payload bytes and bit count of ``value`` fields, each its
    ``length`` low bits, most significant first."""
    # each bit's shift is its distance to the end of its field: length - 1
    # at a field's first bit, then one less per bit (an int8 running sum)
    ends = np.cumsum(length)
    total = int(ends[-1])
    step = np.full(total, -1, dtype=np.int8)
    used = length > 0
    step[(ends - length)[used]] = length[used] - 1
    bits = np.repeat(value, length)
    bits >>= np.cumsum(step, dtype=np.int8)
    bits &= 1
    return np.packbits(bits.astype(np.uint8)).tobytes(), total


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
    pad_h, pad_w = (-h) % 8, (-w) % 8
    if pad_h or pad_w:
        pixels = np.pad(pixels, ((0, pad_h), (0, pad_w), (0, 0)), mode="edge")
    quant = np.stack([_forward_blocks(pixels[:, :, ch], table) for ch in range(c)])
    payload, total = _pack(*_fields(quant.reshape(c, -1, 64)[:, :, ZIGZAG_FLAT]))
    header = _HEADER.pack(MAGIC, VERSION, h, w, c, int(q), pad_h, pad_w, total)
    return header + payload


def _symbol_error(message: str, pos: int, length: int, nbits: int) -> CodecError:
    """The error a symbol of ``length`` bits at bit ``pos`` raises: running
    past the payload comes first."""
    if pos + length > nbits:
        return CodecError("payload truncated", _HEADER.size + nbits // 8)
    return CodecError(message, _HEADER.size + (pos + length) // 8)


def _decode_blocks(payload: bytes, nbits: int, planes: int, per_plane: int) -> np.ndarray:
    """Zigzag-ordered [planes, blocks, 64] coefficients of a payload.

    Every bit position gets the 16-bit window that starts there (bytes
    past the payload's last byte read as 0). The walk looks each symbol
    up in the window where it starts, one table lookup per symbol, and
    only chains positions; amplitudes are shifted out of the windows
    afterwards. It never trusts a bit past ``nbits``: a walk that runs
    past it is caught when its block ends, and an error raised by a
    symbol that reaches it is a truncation.
    """
    nbytes = (nbits + 7) // 8
    buf = np.zeros(nbytes + _BLOCK_BITS // 8 + 4, dtype=np.uint32)
    buf[:nbytes] = np.frombuffer(payload, dtype=np.uint8, count=nbytes)
    # the 24 bits from each byte on; the window at bit k of a byte is
    # those bits shifted right by 8 - k and cut to 16 bits by the cast
    spans = (buf[:-2] << 16) | (buf[1:-1] << 8) | buf[2:]
    win = (spans[:, None] >> _WINDOW_SHIFTS).astype(np.uint16).reshape(-1)

    window, dc_entry, ac_entry = memoryview(win), memoryview(DC_LOOKAHEAD), memoryview(AC_LOOKAHEAD)
    n_blocks = planes * per_plane
    # positions of each block's DC symbol and of every AC symbol that
    # moves the index, and the count of the latter after each block
    dc_at, ac_at, ac_end = [], [], []
    pos = 0
    for _ in range(n_blocks):
        entry = dc_entry[window[pos]]
        if not entry:
            raise _symbol_error("invalid prefix code", pos, 16, nbits)
        dc_at.append(pos)
        pos += entry >> 4
        idx = 1
        while idx < 64:
            entry = ac_entry[window[pos]]
            step = (entry & 31) - 1
            if step > 0:
                idx += step
                if idx > 64:
                    raise _ac_error(entry, pos, nbits)
                ac_at.append(pos)
            elif step < 0:
                raise _symbol_error("invalid prefix code", pos, 16, nbits)
            pos += entry >> 9
            if not step:
                break
        if pos > nbits:
            raise CodecError("payload truncated", _HEADER.size + nbits // 8)
        ac_end.append(len(ac_at))

    quant = np.zeros((n_blocks, 64), dtype=np.int64)
    at = np.array(ac_at, dtype=np.intp)
    entry = AC_LOOKAHEAD[win[at]]
    size = (entry >> 5) & 15
    # a symbol's coefficient index is the sum of the steps up to it in
    # its block
    ends = np.asarray(ac_end, dtype=np.intp)
    counts = np.diff(ends, prepend=0)
    block = np.repeat(np.arange(n_blocks), counts)
    reach = np.cumsum((entry & 31).astype(np.intp) - 1)
    reach -= np.concatenate(([0], reach))[ends - counts][block]
    quant[block, reach] = _amplitudes(win, at + (entry >> 9), size)
    at = np.array(dc_at, dtype=np.intp)
    entry = DC_LOOKAHEAD[win[at]]
    diff = _amplitudes(win, at + (entry >> 4), entry & 15)
    quant[:, 0] = np.cumsum(diff.reshape(planes, per_plane), axis=1).reshape(-1)
    return quant.reshape(planes, per_plane, 64)


def _amplitudes(win: np.ndarray, end: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Signed values of the ``size``-bit amplitudes that end at ``end``."""
    end = end.astype(np.intp)
    size = size.astype(np.intp)
    return _extend_amplitude(win[end - size] >> (16 - size), size)


def _ac_error(entry: int, pos: int, nbits: int) -> CodecError:
    """The error of an AC symbol that runs past the block's last index."""
    size = (entry >> 5) & 15
    message = "coefficient index overflow" if size else "invalid zero-run symbol"
    return _symbol_error(message, pos, (entry >> 9) - size, nbits)


def _read_header(stream: bytes):
    """Validated header fields (h, w, c, quant table, pad_h, pad_w,
    payload_bits)."""
    if len(stream) < _HEADER.size:
        raise CodecError("stream shorter than header", len(stream))
    magic, version, h, w, c, q, pad_h, pad_w, payload_bits = _HEADER.unpack_from(stream)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise CodecError(f"unsupported version {version}", 4)
    if h < 1 or w < 1 or c < 1 or pad_h > 7 or pad_w > 7:
        raise CodecError("invalid header dimensions", 5)
    if payload_bits > (len(stream) - _HEADER.size) * 8:
        raise CodecError("payload shorter than declared bit count", len(stream))
    table = quant_table(q)
    if (h + pad_h) % 8 or (w + pad_w) % 8:
        raise CodecError("padded dimensions not a multiple of the block size", 5)
    # every block costs at least one DC symbol and one end-of-block, so
    # headers promising more blocks than the payload could hold are bad
    if 2 * ((h + pad_h) // 8) * ((w + pad_w) // 8) * c > payload_bits + 16:
        raise CodecError("header dimensions inconsistent with payload size", 5)
    return h, w, c, table, pad_h, pad_w, payload_bits


def decompress(stream: bytes) -> np.ndarray:
    """Decode a stream from :func:`compress` back to an [0, 1] image."""
    h, w, c, table, pad_h, pad_w, payload_bits = _read_header(stream)
    hp, wp = h + pad_h, w + pad_w
    quant = _decode_blocks(stream[_HEADER.size :], payload_bits, c, (hp // 8) * (wp // 8))
    planes = np.clip(_inverse_blocks(quant, table, hp, wp), 0.0, 255.0)
    out = np.ascontiguousarray(planes[:, :h, :w].transpose(1, 2, 0))
    out /= 255.0
    return out
