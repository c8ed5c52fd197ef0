"""Quasi-cyclic LDPC codes: shift-table parsing, lifting, systematic
encoding, and sum-product decoding.

Base matrices ship as plain-text shift tables (grammar in
docs/base_matrices.md). An entry s >= 0 lifts to the Z x Z identity
cyclically shifted by s, so a block acting on a length-Z vector x is
np.roll(x, -s); an entry of -1 lifts to the zero block.

The encoder takes the syndrome of the information bits (the parity
bits set to 0) through the slot table below, then solves the parity
part of H for it in O(n) by forward substitution (Richardson and
Urbanke, "Efficient encoding of low-density parity-check codes", IEEE
Trans. IT 2001). It serves only the dual-diagonal parity arrangement
of the shipped tables, as in IEEE 802.16e and 802.11n. That parity
part is invertible by construction: its block rows sum to [I 0 ... 0],
so the first parity block is the sum of the syndrome blocks and each
later one follows uniquely. A table without that structure still
lifts, and decodes, but ldpc_encode rejects it.

The decoder runs the flooding sum-product schedule on a dense slot
table lifted once per code, block by block. Block (r, b) with shift s
writes, for i in 0..Z-1, column b*Z + (i + s) mod Z into slot j (the
rank of b among row r's live blocks) of check r*Z + i, and slot
j*m + r*Z + (i - s) mod Z into entry c (the rank of r among column b's)
of column b*Z + i. So slot j of check i reads column slot_col[j, i]
(a dummy column n, whose bit is 0, pads short checks), columns in
ascending order, and column c sums the check messages of slots
col_slots[:, c] by ascending check (a sentinel slot whose message is 0
pads light columns). Every message array keeps the frames
still decoding on its last axis (LLRs [n + 1, frames], slot messages
[dmax, m, frames], check messages [dmax * m + 1, frames]), so both
gathers copy whole rows and each slot is one contiguous block.

The decoder works in float32 on half-scale messages. The float64 LLRs
are clipped to +-LLR_CAP (1e6: past about 70 on the desk code no message
can outweigh an LLR, and tanh of half of it is 1) and cast once to
LLR / 2, so tanh reads v2c / 2 directly and arctanh returns c2v / 2; a
power-of-two scale rounds nothing. The dummy column n holds +inf, so a
pad slot reads tanh 1. A check-node update is the tanh rule over
t = tanh(v2c / 2): one np.multiply.reduce over the slot axis gives each
check's product, and slot j's leave-one-out product is that product
divided by t[j]. An exact zero t (an erased bit) is first lifted to
2**-64, so the division is defined: the erased slot still receives the
exact product of the others, and the others receive magnitudes near
2**-64 instead of 0. The quotient is clipped to the largest float32
below 1, 1 - 2**-24, so a check message is at most 2 * arctanh of it,
17.3. Hardware decoders pass 6-8-bit messages (Chen and Fossorier,
IEEE Trans. Commun. 50(3), 2002), so float32 is not what limits
decoding. An iteration costs one tanh, one divide and one arctanh per
slot and no log, exp or reduceat, and its buffers are allocated once
per decode and again only when finished frames are compacted out.

A frame finishes when its hard decisions satisfy every check, or when
it stalls: the fewest unsatisfied checks it has reached is above
STALL_FRACTION of the checks (64 of 256 on the desk code) and has not
fallen for STALL_ITERS = 5 iterations (after Kienle and Wehn, "Low
complexity stopping criterion for LDPC code decoders", VTC 2005). A
stalled frame returns unconverged with the hard decisions of the
iteration it stopped at. Over 2,000 seeded frames per SNR and two seeds
on the desk code, the rule gave up no frame that flooding to 50
iterations decodes, at 1, 3, 4, 4.5, 5 and 5.5 dB; it spent 0.14x the
iterations at 1 dB, 0.97x at 3 dB and 1.00x from 4 dB up. A frame whose
count has ever reached the floor is never given up.

The float64 log-domain edge-list decoder that tests/helpers.py keeps as
ldpc_decode_bp_oracle is the reference. This decoder is not bit-identical
to it: float32 rounding and the single clip move iteration counts, and
the bits of frames that fail, now and then. Over 4,000 seeded desk-code
frames per SNR against the float64 decoder it replaced, the convergence
flags were equal at 3, 4, 4.5 and 5 dB and FER was the same; at 5.5 dB
one frame that the float64 decoder decoded at 22 iterations needed 78.
Converged frames always had the same bits, and 7 of 13,220 moved their
iteration count. On the desk code (n = 1024, one core of a 2-CPU Xeon
VM, one BLAS thread, 1 dB) it takes about 43 us per frame-iteration for
one frame and 12-23 us for 5 to 40 frames, against 70 and 30-40 us for
the float64 decoder.
"""

import importlib.resources
import os
from dataclasses import dataclass

import numpy as np

MAX_ITER_DEFAULT = 50
# the decoder's float32 half-scale arithmetic (see the module docstring):
# LLRs are clipped to LLR_CAP before the cast, a check product to the
# largest float32 below 1 before its arctanh, and an exact zero tanh is
# lifted to a power of two, so that dividing by it is defined and exact
LLR_CAP = 1e6
_TANH_CLIP = np.nextafter(np.float32(1.0), np.float32(0.0))
_ZERO_LIFT = np.float32(2.0**-64)
# a frame stalls once its fewest unsatisfied checks exceeds
# STALL_FRACTION of the checks and has not fallen for STALL_ITERS
# iterations (see the module docstring)
STALL_ITERS = 5
STALL_FRACTION = 0.25


class LdpcError(Exception):
    """Malformed shift table or invalid code construction."""


# ---------------------------------------------------------------------------
# shift tables


def parse_base_table(text):
    """Parse a shift table. Returns (base matrix, lifting size Z).

    Grammar: '#' starts a comment; the first tokens are 'Z <int>', then
    '<rows> <cols>', then rows*cols shift entries in row-major order.
    """
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if len(tokens) < 4 or tokens[0] != "Z":
        raise LdpcError("shift table must start with a 'Z <lift>' header")
    try:
        z = int(tokens[1])
        rows, cols = int(tokens[2]), int(tokens[3])
        entries = [int(t) for t in tokens[4:]]
    except ValueError:
        raise LdpcError("shift table contains a non-integer token") from None
    if rows < 1 or cols < 1:
        raise LdpcError("shift table dimensions must be positive")
    if len(entries) != rows * cols:
        raise LdpcError(
            f"expected {rows * cols} shift entries, found {len(entries)}"
        )
    return np.array(entries, dtype=np.int64).reshape(rows, cols), z


def load_base_table(name):
    """Load a shift table from a filesystem path or the bundled tables."""
    if os.path.exists(name):
        with open(name, "r", encoding="ascii") as fh:
            return parse_base_table(fh.read())
    resource = importlib.resources.files("parastream") / "tables" / name
    if not resource.is_file():
        raise LdpcError(f"no such shift table: {name!r}")
    return parse_base_table(resource.read_text(encoding="ascii"))


# ---------------------------------------------------------------------------
# construction


@dataclass
class ParityCheckMatrix:
    base: np.ndarray
    z: int
    n: int
    k: int
    slot_col: np.ndarray  # [dmax, m]; n pads a check with fewer edges
    col_slots: np.ndarray  # [cmax, n]; dmax * m pads a lighter column
    structured: tuple | None  # (s0, interior row) of a dual-diagonal part

    @property
    def rate(self):
        return self.k / self.n


def _detect_dual_diagonal(base):
    """Recognize the shipped parity arrangement.

    The first parity column carries a paired shift s0 in the top and
    bottom rows plus a zero shift in one interior row; the remaining
    parity columns form a zero-shift staircase. Returns (s0,
    interior_row) or None.
    """
    m, n_b = base.shape
    split = n_b - m
    if m < 3 or split < 1:
        return None
    first = base[:, split]
    nonzero = np.flatnonzero(first >= 0)
    if nonzero.size != 3 or nonzero[0] != 0 or nonzero[-1] != m - 1:
        return None
    interior = int(nonzero[1])
    s0 = int(first[0])
    if first[m - 1] != s0 or first[interior] != 0:
        return None
    for j in range(1, m):
        col = base[:, split + j]
        hits = np.flatnonzero(col >= 0)
        if not np.array_equal(hits, [j - 1, j]) or col[hits].any():
            return None
    return s0, interior


def build_qc_ldpc(base, z):
    """Lift a base shift matrix by Z into the decoder's slot tables.

    Any base lifts; `structured` records whether its parity part is the
    dual-diagonal one that ldpc_encode requires.
    """
    base = np.asarray(base, dtype=np.int64)
    if base.ndim != 2:
        raise LdpcError("base matrix must be two-dimensional")
    if base.size == 0:
        raise LdpcError(f"base matrix is empty, shape {base.shape}")
    if z < 1:
        raise LdpcError("lifting size must be positive")
    if base.min() < -1 or base.max() >= z:
        raise LdpcError(f"shifts must lie in [-1, {z})")
    m_b, n_b = base.shape
    if n_b < m_b:
        raise LdpcError("base matrix has more rows than columns")

    live = base >= 0
    empty = np.flatnonzero(~live.any(axis=1))
    if empty.size:
        raise LdpcError(f"base row {empty[0]} is empty")
    if not live.any(axis=0).all():
        raise LdpcError("expanded matrix has an empty column")

    n, m = n_b * z, m_b * z
    row_rank = np.cumsum(live, axis=1) - 1
    col_rank = np.cumsum(live, axis=0) - 1
    r, b = np.nonzero(live)
    s, j = base[r, b][:, None], row_rank[r, b]
    offsets = np.arange(z)
    slot_col = np.full((row_rank[:, -1].max() + 1, m), n, dtype=np.intp)
    slot_col[j[:, None], r[:, None] * z + offsets] = b[:, None] * z + (offsets + s) % z
    col_slots = np.full((col_rank[-1].max() + 1, n), slot_col.size, dtype=np.intp)
    col_slots[col_rank[r, b][:, None], b[:, None] * z + offsets] = (
        (j * m + r * z)[:, None] + (offsets - s) % z
    )

    return ParityCheckMatrix(
        base=base,
        z=z,
        n=n,
        k=n - m,
        slot_col=slot_col,
        col_slots=col_slots,
        structured=_detect_dual_diagonal(base),
    )


# ---------------------------------------------------------------------------
# encoding


def syndrome(pcm, bits):
    """Per-check parity of `bits` ([n] or [frames, n]); 0 means satisfied."""
    bits = np.atleast_2d(np.asarray(bits))
    if bits.shape[1] != pcm.n:
        raise LdpcError(f"expected {pcm.n} bits, got {bits.shape[1]}")
    padded = np.zeros((pcm.n + 1, bits.shape[0]), dtype=np.uint8)
    padded[: pcm.n] = bits.T
    return _parity(pcm, padded & 1).T


def _parity(pcm, padded, gathered=None):
    """Syndrome [m, frames] of 0/1 uint8 bits [n + 1, frames] whose dummy
    row n is 0. `gathered` is an optional [dmax, m, frames] uint8 scratch
    array for the slot gather. Every np.take on the slot tables passes
    mode="clip", which writes into `out` directly where the default
    mode buffers it; the tables hold no out-of-range index."""
    gathered = np.take(padded, pcm.slot_col, axis=0, out=gathered, mode="clip")
    return np.bitwise_xor.reduce(gathered, axis=0)


def _solve_dual_diagonal(pcm, lam):
    """Parity bits [m, frames] of the dual-diagonal parity part from the
    information syndrome `lam` [m, frames], by forward substitution over
    the m_b parity blocks."""
    s0, interior = pcm.structured
    m_b = pcm.base.shape[0]
    lam = lam.reshape(m_b, pcm.z, -1)
    parity = np.empty_like(lam)
    p0 = np.bitwise_xor.reduce(lam, axis=0)
    parity[0] = p0
    parity[1] = lam[0] ^ np.roll(p0, -s0, axis=0)
    for r in range(1, m_b - 1):
        parity[r + 1] = lam[r] ^ parity[r]
        if r == interior:
            parity[r + 1] ^= p0
    return parity.reshape(m_b * pcm.z, -1)


def ldpc_encode(pcm, info):
    """Systematically encode info bits; [k] or [frames, k] accepted.

    The syndrome of the information part, one slot-table gather, is
    solved for the parity bits by forward substitution. A table whose
    parity part is not dual-diagonal raises LdpcError.
    """
    if pcm.structured is None:
        raise LdpcError(
            "ldpc_encode needs a dual-diagonal parity part (see "
            "docs/base_matrices.md); this table can only be decoded"
        )
    info = np.asarray(info)
    single = info.ndim == 1
    info = np.atleast_2d(info)
    if info.shape[1] != pcm.k:
        raise LdpcError(f"expected {pcm.k} information bits, got {info.shape[1]}")
    # frames last; row n is the dummy column the pad slots read
    padded = np.zeros((pcm.n + 1, info.shape[0]), dtype=np.uint8)
    padded[: pcm.k] = info.T
    padded[: pcm.k] &= 1
    padded[pcm.k : pcm.n] = _solve_dual_diagonal(pcm, _parity(pcm, padded))
    if __debug__:
        assert not _parity(pcm, padded).any(), "encoder produced a non-codeword"
    code = np.ascontiguousarray(padded[: pcm.n].T)
    return code[0] if single else code


# ---------------------------------------------------------------------------
# decoding


def _scratch(pcm, frames):
    """Per-iteration buffers of the decoder for `frames` active frames:
    the half-scale posterior LLRs [n + 1, frames] (dummy row n stays
    +inf), the column gather of check messages, the check products
    [m, frames], the zero mask of the slot tanhs and the parity gather."""
    total = np.empty((pcm.n + 1, frames), dtype=np.float32)
    total[pcm.n] = np.inf
    return (
        total,
        np.empty(pcm.col_slots.shape + (frames,), dtype=np.float32),
        np.empty(pcm.slot_col.shape[1:] + (frames,), dtype=np.float32),
        np.empty(pcm.slot_col.shape + (frames,), dtype=bool),
        np.empty(pcm.slot_col.shape + (frames,), dtype=np.uint8),
    )


def _flood(pcm, llr, max_iter, active, bits, converged, iters):
    """Flooding iterations for the frames `active` of `llr`, none of them
    converged yet. Fills their rows of `bits`, `converged` and `iters` in
    place. A frame leaves the batch when it converges or stalls (see
    STALL_ITERS). Messages are float32 and half scale (see the module
    docstring)."""
    n, slots, m = pcm.n, pcm.slot_col.size, pcm.slot_col.shape[1]
    stall_floor = STALL_FRACTION * m

    # frames last; row n is the dummy column that pad slots read: +inf,
    # so tanh 1 and never a 1 bit
    chan = np.empty((n + 1, active.size), dtype=np.float32)
    chan[:n] = 0.5 * np.clip(llr[active].T, -LLR_CAP, LLR_CAP)
    chan[n] = np.inf
    # half-scale variable-to-check messages, turned into their tanh in place
    t = np.take(chan, pcm.slot_col, axis=0)
    # half-scale check-to-variable messages by flat slot, plus the zero
    # sentinel slot
    c2v = np.zeros((slots + 1, active.size), dtype=np.float32)
    hard = np.empty((n + 1, active.size), dtype=bool)
    total, gathered, product, zero, checks = _scratch(pcm, active.size)
    # per frame: the fewest unsatisfied checks reached so far, and the
    # iteration at which that count last fell
    best = np.full(active.size, m + 1)
    best_at = np.zeros(active.size, dtype=np.int64)
    iteration = 0
    while iteration < max_iter and active.size:
        iteration += 1
        np.tanh(t, out=t)
        # a zero (an erased bit) would make the division 0/0
        np.equal(t, 0.0, out=zero)
        np.copyto(t, _ZERO_LIFT, where=zero)
        # leave-one-out products: the check's product over t[j]
        np.multiply.reduce(t, axis=0, out=product)
        msg = c2v[:slots].reshape(t.shape)
        np.divide(product, t, out=msg)
        np.clip(msg, -_TANH_CLIP, _TANH_CLIP, out=msg)
        np.arctanh(msg, out=msg)

        np.take(c2v, pcm.col_slots, axis=0, out=gathered, mode="clip")
        np.add.reduce(gathered, axis=0, out=total[:n])
        total[:n] += chan[:n]
        np.take(total, pcm.slot_col, axis=0, out=t, mode="clip")
        t -= msg

        np.less(total, 0.0, out=hard)
        unsatisfied = np.add.reduce(
            _parity(pcm, hard.view(np.uint8), checks), axis=0, dtype=np.int64
        )
        np.copyto(best_at, iteration, where=unsatisfied < best)
        np.minimum(best, unsatisfied, out=best)
        ok = unsatisfied == 0
        stop = (best_at <= iteration - STALL_ITERS) & (best > stall_floor)
        stop |= ok
        if stop.any():
            done = active[stop]
            iters[done] = iteration
            converged[done] = ok[stop]
            bits[done] = hard[:n, stop].T
            keep = ~stop
            active = active[keep]
            # compress, unlike a mask index, keeps the frames axis last in memory
            chan, t, c2v, hard = (
                np.compress(keep, a, axis=-1) for a in (chan, t, c2v, hard)
            )
            best, best_at = best[keep], best_at[keep]
            total, gathered, product, zero, checks = _scratch(pcm, active.size)

    # frames still running keep the decisions of their last iteration
    bits[active] = hard[:n].T
    iters[active] = iteration


def ldpc_decode_bp(pcm, llr, max_iter=MAX_ITER_DEFAULT):
    """Sum-product decoding, flooding schedule, with early stopping.

    Accepts one LLR vector or a [frames, n] batch of finite LLRs; an
    LLR past +-LLR_CAP decodes as the cap. The messages are float32 (see
    the module docstring), so the result is not bit-identical to a
    float64 decoder's. Returns (hard bits, converged flag, iterations
    used) with matching leading shape. max_iter=0 yields the hard
    decisions of the input. A frame stops once its hard decisions satisfy every check, or
    unconverged once it stalls (STALL_ITERS, STALL_FRACTION) or reaches
    max_iter, with the hard decisions of its last iteration; frames
    still running are compacted so later iterations skip the finished
    ones.
    """
    llr = np.asarray(llr, dtype=np.float64)
    single = llr.ndim == 1
    llr = np.atleast_2d(llr)
    if llr.shape[1] != pcm.n:
        raise LdpcError(f"expected {pcm.n} LLRs, got {llr.shape[1]}")
    if max_iter < 0:
        raise LdpcError(f"max_iter must be nonnegative, got {max_iter}")
    finite = np.isfinite(llr).all(axis=1)
    if not finite.all():
        raise LdpcError(f"frame {int(np.argmin(finite))} holds non-finite LLRs")
    bits = (llr < 0).view(np.uint8)
    converged = ~syndrome(pcm, bits).any(axis=1)
    iters = np.zeros(llr.shape[0], dtype=np.int64)
    active = np.flatnonzero(~converged)
    if active.size and max_iter:
        _flood(pcm, llr, max_iter, active, bits, converged, iters)
    if single:
        return bits[0], bool(converged[0]), int(iters[0])
    return bits, converged, iters
