"""Shared test utilities: finite-difference gradient checks and
brute-force oracles that the fast implementations are compared against."""

import numpy as np

from parastream.ldpc import MAX_ITER_DEFAULT


def conv2d_oracle(x, w, b=None, stride=1, padding=1):
    """Direct nested-loop cross-correlation, the slow reference."""
    batch, c_in, h_in, w_in = x.shape
    c_out, _, k, _ = w.shape
    h_out = (h_in + 2 * padding - k) // stride + 1
    w_out = (w_in + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((batch, c_out, h_out, w_out))
    for bi in range(batch):
        for co in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    acc = 0.0
                    for ci in range(c_in):
                        for di in range(k):
                            for dj in range(k):
                                acc += (
                                    xp[bi, ci, i * stride + di, j * stride + dj]
                                    * w[co, ci, di, dj]
                                )
                    out[bi, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def _patches(xp, k, stride, h_out, w_out):
    """[B,C,Hp,Wp] -> [B, C*k*k, h_out*w_out], one strided slice per tap."""
    batch, channels = xp.shape[:2]
    out = np.empty((batch, channels, k, k, h_out, w_out))
    for di in range(k):
        for dj in range(k):
            out[:, :, di, dj] = xp[
                :, :, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride
            ]
    return out.reshape(batch, channels * k * k, h_out * w_out)


def conv2d_grads_oracle(x, w, g, stride, padding):
    """(x.grad, weight.grad) of sum(conv2d(x, w) * g): the weight gradient
    as the einsum over the patch matrix that conv2d's backward used before
    it moved to batched matmul, the input gradient as one scatter per tap
    onto the padded grid."""
    batch, c_in, h_in, w_in = x.shape
    c_out, _, k, _ = w.shape
    _, _, h_out, w_out = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = _patches(xp, k, stride, h_out, w_out)
    gw = np.einsum("bol,bkl->ok", g.reshape(batch, c_out, -1), cols)
    gxp = np.zeros_like(xp)
    for di in range(k):
        for dj in range(k):
            gxp[:, :, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride] += (
                np.einsum("bohw,oc->bchw", g, w[:, :, di, dj])
            )
    gx = gxp[:, :, padding : padding + h_in, padding : padding + w_in]
    return gx, gw.reshape(w.shape)


def conv_transpose2d_grads_oracle(x, w, g, stride, padding):
    """(x.grad, weight.grad) of sum(conv_transpose2d(x, w) * g): the
    weight gradient as the einsum that conv_transpose2d's backward used
    before it moved to batched matmul, the input gradient as the einsum
    of the kernels with the same patch matrix of g."""
    batch, c_in, h_in, w_in = x.shape
    _, c_out, k, _ = w.shape
    gp = np.pad(g, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    g_cols = _patches(gp, k, stride, h_in, w_in)
    gw = np.einsum("bcl,bkl->ck", x.reshape(batch, c_in, -1), g_cols)
    gx = np.einsum("ck,bkl->bcl", w.reshape(c_in, -1), g_cols)
    return gx.reshape(x.shape), gw.reshape(w.shape)


def adam_step_oracle(opt):
    """Adam.step as the three array expressions it was before it moved to
    scratch buffers; the in-place form must match it bit for bit."""
    opt.t += 1
    c1 = 1.0 - opt.beta1**opt.t
    c2 = 1.0 - opt.beta2**opt.t
    for p, m, v in zip(opt.params, opt.m, opt.v):
        g = p.grad
        if g is None:
            continue
        m += (1.0 - opt.beta1) * (g - m)
        v += (1.0 - opt.beta2) * (g * g - v)
        p.data -= opt.lr * (m / c1) / (np.sqrt(v / c2) + opt.eps)


def banks_encode_oracle(banks, s_tilde, alpha_bar):
    """Per-patch reference for RateBanks.encode: each patch vector plus
    its rate token through that rate's column slice of enc_weight and
    enc_bias, concatenated in raster order per image."""
    from parastream import autodiff as ad

    batch, channels, height, width = s_tilde.data.shape
    outs = []
    for b in range(batch):
        parts = []
        for i in range(height):
            for j in range(width):
                r = int(np.searchsorted(banks.widths, alpha_bar[b, i, j]))
                cols = slice(banks.starts[r], banks.starts[r] + banks.widths[r])
                vec = (s_tilde[b, :, i, j] + banks.tokens[r]).reshape(1, channels)
                out = vec @ banks.enc_weight[:, cols] + banks.enc_bias[cols]
                parts.append(out.reshape(-1))
        outs.append(ad.concat(parts))
    return outs


def banks_decode_oracle(banks, received, alpha_bar):
    """Per-patch reference for RateBanks.decode: each patch's reals
    through that rate's row slice of dec_weight plus its dec_bias."""
    from parastream import autodiff as ad

    batch, height, width = alpha_bar.shape
    rows = []
    for b in range(batch):
        offset = 0
        for w in alpha_bar[b].reshape(-1):
            r = int(np.searchsorted(banks.widths, w))
            segment = received[b][offset : offset + w].reshape(1, -1)
            bank = banks.dec_weight[banks.starts[r] : banks.starts[r] + w]
            rows.append(segment @ bank + banks.dec_bias[r])
            offset += w
    grid = ad.concat(rows).reshape(batch, height, width, banks.c_s)
    return grid.transpose(0, 3, 1, 2)


def dense_h(pcm):
    """H of a lifted code as a dense 0/1 matrix [m, n], lifted from
    pcm.base and pcm.z by the definition: a shift s >= 0 is the Z x Z
    identity rolled s columns right, -1 the zero block."""
    eye = np.eye(pcm.z, dtype=np.uint8)
    zero = np.zeros_like(eye)
    return np.block(
        [[np.roll(eye, s, axis=1) if s >= 0 else zero for s in row] for row in pcm.base]
    )


def slot_tables_oracle(pcm):
    """The (slot_col, col_slots) that the dense lifting implies: check i
    reads its columns in ascending order, padded by the dummy column n;
    column c lists the flat slots j * m + i that read it by ascending
    check i, padded by the sentinel slot dmax * m."""
    h = dense_h(pcm)
    m, n = h.shape
    reads = [np.flatnonzero(row) for row in h]
    slot_col = np.full((max(map(len, reads)), m), n, dtype=np.intp)
    slot_of = {}
    for i, cols in enumerate(reads):
        slot_col[: cols.size, i] = cols
        slot_of.update({(i, c): j * m + i for j, c in enumerate(cols)})
    fed = [np.flatnonzero(col) for col in h.T]
    col_slots = np.full((max(map(len, fed)), n), slot_col.size, dtype=np.intp)
    for c, checks in enumerate(fed):
        col_slots[: checks.size, c] = [slot_of[i, c] for i in checks]
    return slot_col, col_slots


def edge_list(pcm):
    """(check, column) of every 1 of H: by check, then by column."""
    return np.nonzero(dense_h(pcm))


def _edge_parity(edges, bits):
    """Per-check parity of bits [frames, n] summed with reduceat over an
    edge list grouped by check."""
    rows, cols = edges
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    bits = np.atleast_2d(np.asarray(bits)).astype(np.int64)
    sums = np.add.reduceat(bits[:, cols], starts, axis=1)
    return (sums % 2).astype(np.uint8)


def syndrome_oracle(pcm, bits):
    """Per-check parity over the edge list of the dense lifting, the
    reference for ldpc.syndrome."""
    return _edge_parity(edge_list(pcm), bits)


def gf2_rank(mat):
    """Rank over GF(2) of a 0/1 matrix, by Gaussian elimination on
    unpacked rows."""
    mat = np.array(mat, dtype=np.uint8) & 1
    rank = 0
    for col in range(mat.shape[1]):
        hits = rank + np.flatnonzero(mat[rank:, col])
        if hits.size == 0:
            continue
        mat[[rank, hits[0]]] = mat[[hits[0], rank]]
        others = np.flatnonzero(mat[:, col])
        mat[others[others != rank]] ^= mat[rank]
        rank += 1
        if rank == mat.shape[0]:
            break
    return rank


def codeword_table(pcm):
    """Every codeword of a small code (n up to about 16), found by
    trying all 2^n words against syndrome_oracle. Row i is the codeword
    whose k information bits spell i, most significant bit first, so
    table_encode can look codewords up for codes that ldpc_encode does
    not serve."""
    words = np.arange(2**pcm.n)[:, None] >> np.arange(pcm.n - 1, -1, -1)
    words = (words & 1).astype(np.uint8)
    code = words[~syndrome_oracle(pcm, words).any(axis=1)]
    # words run in increasing order, so word i * 2^(n - k) is the first
    # with prefix i: a codeword per prefix lands in prefix order
    prefixes = words[:: 2 ** (pcm.n - pcm.k), : pcm.k]
    assert np.array_equal(code[:, : pcm.k], prefixes), "the parity part is singular"
    return code


def table_encode(table, info):
    """The codewords of a codeword_table for info bits [frames, k]."""
    k = info.shape[1]
    return table[info.astype(np.int64) @ (1 << np.arange(k - 1, -1, -1))]


def send_conventional_oracle(blob, shape, cfg, pcm, trial):
    """One image's compressed bytes through LDPC/QPSK/channel on their
    own: the reference for one image of pipeline._send_conventional.
    Returns (receiver image, corruption flag, segment table)."""
    from parastream import codec, ldpc
    from parastream.channel import transmit
    from parastream.modem import qpsk_modulate, qpsk_soft_demod
    from parastream.pipeline import (
        _NOISELESS_SIGMA2,
        bits_to_frames,
        frames_to_bits,
        power_gain,
    )

    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8))
    frames, pad = bits_to_frames(bits, pcm.k)
    code = ldpc.ldpc_encode(pcm, frames)
    symbols = qpsk_modulate(code.reshape(-1))
    gain = power_gain(symbols)
    y, real = transmit(gain * symbols, cfg.channel, trial)
    sigma2 = real.sigma2 if real.sigma2 > 0 else _NOISELESS_SIGMA2
    llr = qpsk_soft_demod(y, gain * real.h, sigma2)
    hard, converged, iters = ldpc.ldpc_decode_bp(
        pcm, llr.reshape(code.shape), max_iter=ldpc.MAX_ITER_DEFAULT
    )
    payload = np.packbits(frames_to_bits(hard[:, : pcm.k], pad)).tobytes()
    frame_bits = (pcm.k,) * (frames.shape[0] - 1) + (pcm.k - pad,)
    segments = {
        "frame_bits": frame_bits,
        "pad_bits": pad,
        "image_symbols": frames.shape[0] * (pcm.n // 2),
        "frames_converged": int(converged.sum()),
        "bp_iterations": int(iters.sum()),
        "bp_iterations_per_frame": tuple(int(i) for i in iters),
    }
    corrupted = not bool(converged.all())
    try:
        x_c = codec.decompress(payload)
    except codec.CodecError:
        return np.full(shape, 0.5), True, segments
    if x_c.shape != shape:
        return np.full(shape, 0.5), True, segments
    return x_c, corrupted, segments


# caps a float64 tanh below 1, so a message stays below 2 * arctanh(it) = 21.4
_ORACLE_TANH_CLIP = 0.999999999


def ldpc_decode_bp_oracle(pcm, llr, max_iter=MAX_ITER_DEFAULT, stall_abort=True):
    """Edge-list, log-domain sum-product decoder in float64: the
    reference for ldpc.ldpc_decode_bp. Same flooding schedule, early
    stopping and stall abort, on full-scale float64 messages with its
    own tanh clip (_ORACLE_TANH_CLIP, which rounds to 1 in float32);
    the check-node product is a sum of log magnitudes, gathered per row
    and per column with reduceat. ldpc_decode_bp runs in float32, so
    the two agree on convergence and on the bits of converged frames,
    not bit for bit (see tests/test_ldpc.py). With stall_abort=False
    every frame runs until it converges or reaches max_iter: the plain
    flooding decoder."""
    from parastream.ldpc import STALL_FRACTION, STALL_ITERS

    llr = np.asarray(llr, dtype=np.float64)
    single = llr.ndim == 1
    llr = np.atleast_2d(llr)
    frames = llr.shape[0]
    m = pcm.n - pcm.k
    edges = edge_list(pcm)
    e_row, e_col = edges
    r_start = np.flatnonzero(np.diff(e_row, prepend=-1))
    col_perm = np.argsort(e_col, kind="stable")
    c_start = np.concatenate([[0], np.cumsum(np.bincount(e_col))])[:-1]

    bits = (llr < 0).astype(np.uint8)
    converged = ~_edge_parity(edges, bits).any(axis=1)
    iters = np.zeros(frames, dtype=np.int64)
    active = ~converged
    # fewest unsatisfied checks seen per frame, and the iterations since
    # that record was last broken
    record = [None] * frames
    stale = [0] * frames

    v2c = llr[:, e_col]
    iteration = 0
    while iteration < max_iter and active.any():
        iteration += 1
        msg = v2c[active]
        t = np.tanh(0.5 * msg)
        np.clip(t, -_ORACLE_TANH_CLIP, _ORACLE_TANH_CLIP, out=t)
        zero = t == 0.0
        sign = np.where(t < 0.0, -1.0, 1.0)
        logmag = np.log(np.abs(np.where(zero, 1.0, t)))

        neg = np.add.reduceat((sign < 0).astype(np.int64), r_start, axis=1)
        zeros = np.add.reduceat(zero.astype(np.int64), r_start, axis=1)
        logsum = np.add.reduceat(logmag, r_start, axis=1)

        other_zero = zeros[:, e_row] - zero
        magnitude = np.exp(logsum[:, e_row] - logmag)
        np.clip(magnitude, None, _ORACLE_TANH_CLIP, out=magnitude)
        row_sign = 1.0 - 2.0 * (neg[:, e_row] % 2)
        product = np.where(other_zero > 0, 0.0, row_sign * sign * magnitude)
        c2v = 2.0 * np.arctanh(product)

        col_sums = np.add.reduceat(c2v[:, col_perm], c_start, axis=1)
        total = llr[active] + col_sums
        v2c[active] = total[:, e_col] - c2v

        hard = (total < 0.0).astype(np.uint8)
        bits[active] = hard
        unsatisfied = _edge_parity(edges, hard).sum(axis=1)
        for frame, count in zip(np.flatnonzero(active), unsatisfied):
            if record[frame] is None or count < record[frame]:
                record[frame], stale[frame] = count, 0
            else:
                stale[frame] += 1
            stalled = (
                stall_abort
                and stale[frame] >= STALL_ITERS
                and record[frame] > STALL_FRACTION * m
            )
            if count == 0 or stalled:
                converged[frame] = count == 0
                iters[frame] = iteration
                active[frame] = False

    iters[active] = iteration
    if single:
        return bits[0], bool(converged[0]), int(iters[0])
    return bits, converged, iters


def filter_valid_oracle(planes):
    """Separable 11-tap Gaussian 'valid' filter of each trailing 2-D plane
    by np.convolve along every row, then every column."""
    from parastream.metrics import _G

    planes = np.asarray(planes, dtype=np.float64)
    out = []
    for plane in planes.reshape((-1,) + planes.shape[-2:]):
        tmp = np.apply_along_axis(
            lambda r: np.convolve(r, _G, mode="valid"), 1, plane
        )
        out.append(
            np.apply_along_axis(
                lambda col: np.convolve(col, _G, mode="valid"), 0, tmp
            )
        )
    return np.stack(out).reshape(planes.shape[:-2] + out[0].shape)


def max_rel_error(analytic, numeric):
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradcheck(fn, tensors, eps=1e-4):
    """Compare backward() gradients of the scalar ``fn()`` against central
    finite differences for every tensor in ``tensors``. ``fn`` must rebuild
    the graph on each call. Each in-place write bumps the tensor's
    ``version``, so a layer that reads it through a kept ``astype`` cast
    sees it. Returns the worst relative error observed."""
    for t in tensors:
        t.grad = None
    out = fn()
    out.backward()
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "parameter received no gradient"
        analytic = t.grad.copy()
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            t.version += 1
            hi = float(fn().data)
            flat[idx] = orig - eps
            t.version += 1
            lo = float(fn().data)
            flat[idx] = orig
            t.version += 1
            nflat[idx] = (hi - lo) / (2.0 * eps)
        worst = max(worst, max_rel_error(analytic, numeric))
    return worst


def projection_loss(out, proj):
    """Reduce a tensor to a scalar through a fixed random projection so a
    gradient check exercises the whole Jacobian, not just the row sums."""
    return (out * proj).sum()


def pagnet_softmax_oracle(net, v, u, snr_db, bias=0.0):
    """(weights [B,2,H,W], fused output) of ``PagNet`` as a two-stream
    softmax: each stream's gated features reduced to a logit by ``fc``
    plus a ``bias`` shared by both, then the max-shifted softmax over the
    stream axis. Runs on the net's convs and SNR gate, in NumPy."""
    from parastream.decoder import SNR_LEVELS

    level = int(np.clip(np.round(snr_db), 0, SNR_LEVELS - 1))
    gate = net.proj(net.snr_embed([level])).data.reshape(1, -1, 1, 1)
    logits = np.concatenate(
        [
            np.einsum("bchw,c->bhw", conv(x).data * gate, net.fc.data[:, 0])[:, None] + bias
            for conv, x in ((net.conv_v, v), (net.conv_u, u))
        ],
        axis=1,
    )
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights = exps / exps.sum(axis=1, keepdims=True)
    return weights, weights[:, 0:1] * v.data + weights[:, 1:2] * u.data


def toy_model(seed=0):
    """A two-scale semantic model small enough for finite differences
    and for quick end-to-end training runs on 8x8 images."""
    from parastream.pipeline import ModelConfig, SemanticModel

    cfg = ModelConfig(encoder_widths=(4, 4), latent_widths=(4, 4, 4), growth=2, init_seed=seed)
    return SemanticModel(cfg)


def toy_images(n=3, size=8):
    from parastream import data

    return data.make_corpus(count=n, size=size, seed=500)


def float64_training_chain(monkeypatch):
    """Make `pipeline.send_batch`, and with it
    `training.training_forward`, run the whole chain in float64: the
    float32 refs, residuals and reconstructions it hands
    `semantic_forward` are widened back to float64, so every layer runs
    in the dtype of its float64 parameters and every cast is a no-op."""
    from parastream import pipeline

    semantic_forward = pipeline.semantic_forward

    def widened(model, *args):
        images = [[a.astype(np.float64) for a in arrays] for arrays in args[:3]]
        return semantic_forward(model, *images, *args[3:])

    monkeypatch.setattr(pipeline, "semantic_forward", widened)


# Bit-serial block-DCT coder: the reference that codec.compress and
# codec.decompress must match byte for byte and decode for decode. It
# writes one field at a time through a bit accumulator, reads one bit
# per call, searches code lengths 1..16 for every symbol, and runs the
# inverse DCT as a three-operand einsum.


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.fill = 0
        self.total = 0

    def write(self, value, nbits):
        if nbits == 0:
            return
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.fill += nbits
        self.total += nbits
        while self.fill >= 8:
            self.fill -= 8
            self.buf.append((self.acc >> self.fill) & 0xFF)
        self.acc &= (1 << self.fill) - 1

    def getvalue(self):
        if self.fill:
            return bytes(self.buf) + bytes([(self.acc << (8 - self.fill)) & 0xFF])
        return bytes(self.buf)


class _BitReader:
    def __init__(self, data, nbits, base_offset):
        self.data = data
        self.nbits = nbits
        self.pos = 0
        self.base = base_offset

    @property
    def byte_offset(self):
        return self.base + self.pos // 8

    def read_bit(self):
        from parastream.codec import CodecError

        if self.pos >= self.nbits:
            raise CodecError("payload truncated", self.byte_offset)
        byte = self.data[self.pos // 8]
        bit = (byte >> (7 - self.pos % 8)) & 1
        self.pos += 1
        return bit

    def read_bits(self, nbits):
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value


def _encoder_table_oracle(bits, vals):
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


def _decoder_table_oracle(bits, vals):
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
    return mincode, maxcode, valptr, vals


def _decode_symbol_oracle(reader, table):
    from parastream.codec import CodecError

    mincode, maxcode, valptr, vals = table
    code = 0
    for length in range(1, 17):
        code = (code << 1) | reader.read_bit()
        if maxcode[length] >= 0 and code <= maxcode[length]:
            return vals[valptr[length] + code - mincode[length]]
    raise CodecError("invalid prefix code", reader.byte_offset)


def _amplitude_bits_oracle(value):
    size = int(abs(value)).bit_length()
    if value < 0:
        return size, value + (1 << size) - 1
    return size, value


def _extend_amplitude_oracle(bits, size):
    if size == 0:
        return 0
    if bits < (1 << (size - 1)):
        return bits - (1 << size) + 1
    return bits


def compress_oracle(x, q):
    """codec.compress one field at a time; returns the same bytes."""
    from parastream import codec
    from parastream.codec import CodecError

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] < 1 or x.shape[1] < 1 or x.shape[2] < 1:
        raise CodecError(f"image must be H x W x C with positive dims, got {x.shape}")
    if not np.isfinite(x).all():
        raise CodecError("image holds non-finite pixels")
    h, w, c = x.shape
    table = codec.quant_table(q)
    dc_enc = _encoder_table_oracle(codec.DC_BITS, codec.DC_VALS)
    ac_enc = _encoder_table_oracle(codec.AC_BITS, codec.AC_VALS)
    pixels = np.clip(np.round(x * 255.0), 0, 255)
    writer = _BitWriter()
    pad_h, pad_w = (-h) % 8, (-w) % 8
    for ch in range(c):
        plane = np.pad(pixels[:, :, ch], ((0, pad_h), (0, pad_w)), mode="edge")
        hp, wp = plane.shape
        blocks = plane.reshape(hp // 8, 8, wp // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
        blocks = np.ascontiguousarray(blocks) - 128.0
        coeff = np.einsum("ij,bjk,lk->bil", codec.DCT, blocks, codec.DCT)
        quant = np.clip(np.round(coeff / table), -1023, 1023)
        quant[:, 0, 0] = np.clip(np.round(coeff[:, 0, 0] / table[0, 0]), -1024, 1016)
        prev_dc = 0
        for block in quant.astype(np.int64):
            zz = block.reshape(64)[codec.ZIGZAG_FLAT]
            diff = int(zz[0]) - prev_dc
            prev_dc = int(zz[0])
            size, amp = _amplitude_bits_oracle(diff)
            writer.write(*dc_enc[size])
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
                    writer.write(*ac_enc[codec.ZRL])
                    run -= 16
                size, amp = _amplitude_bits_oracle(value)
                writer.write(*ac_enc[(run << 4) | size])
                writer.write(amp, size)
                run = 0
            if last < 63:
                writer.write(*ac_enc[codec.EOB])
    header = codec._HEADER.pack(
        codec.MAGIC, codec.VERSION, h, w, c, int(q), pad_h, pad_w, writer.total
    )
    return header + writer.getvalue()


def decompress_oracle(stream, return_quant=False):
    """codec.decompress one bit per call. With ``return_quant`` it also
    returns the quantized coefficients as [channels, blocks, 64] in
    zigzag order."""
    from parastream import codec
    from parastream.codec import CodecError

    header = codec._HEADER
    if len(stream) < header.size:
        raise CodecError("stream shorter than header", len(stream))
    magic, version, h, w, c, q, pad_h, pad_w, payload_bits = header.unpack_from(stream)
    if magic != codec.MAGIC:
        raise CodecError(f"bad magic {magic!r}", 0)
    if version != codec.VERSION:
        raise CodecError(f"unsupported version {version}", 4)
    if h < 1 or w < 1 or c < 1 or pad_h > 7 or pad_w > 7:
        raise CodecError("invalid header dimensions", 5)
    payload = stream[header.size :]
    if payload_bits > len(payload) * 8:
        raise CodecError("payload shorter than declared bit count", len(stream))
    table = codec.quant_table(q)
    hp, wp = h + pad_h, w + pad_w
    if hp % 8 or wp % 8:
        raise CodecError("padded dimensions not a multiple of the block size", 5)
    blocks_per_plane = (hp // 8) * (wp // 8)
    if 2 * blocks_per_plane * c > payload_bits + 16:
        raise CodecError("header dimensions inconsistent with payload size", 5)
    dc_dec = _decoder_table_oracle(codec.DC_BITS, codec.DC_VALS)
    ac_dec = _decoder_table_oracle(codec.AC_BITS, codec.AC_VALS)
    reader = _BitReader(payload, payload_bits, header.size)
    out = np.zeros((h, w, c))
    quants = []
    for ch in range(c):
        quant = np.zeros((blocks_per_plane, 64), dtype=np.int64)
        prev_dc = 0
        for b in range(blocks_per_plane):
            size = _decode_symbol_oracle(reader, dc_dec)
            prev_dc += _extend_amplitude_oracle(reader.read_bits(size), size)
            quant[b, 0] = prev_dc
            idx = 1
            while idx < 64:
                symbol = _decode_symbol_oracle(reader, ac_dec)
                if symbol == codec.EOB:
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
                quant[b, idx] = _extend_amplitude_oracle(reader.read_bits(size), size)
                idx += 1
        quants.append(quant)
        coeff = (quant[:, codec.DEZIGZAG_FLAT].reshape(-1, 8, 8) * table).astype(np.float64)
        blocks = np.einsum("ji,bjk,kl->bil", codec.DCT, coeff, codec.DCT) + 128.0
        plane = blocks.reshape(hp // 8, wp // 8, 8, 8).transpose(0, 2, 1, 3).reshape(hp, wp)
        out[:, :, ch] = np.clip(plane, 0.0, 255.0)[:h, :w]
    if return_quant:
        return out / 255.0, np.stack(quants)
    return out / 255.0
