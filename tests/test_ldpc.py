"""QC-LDPC construction, encoding, and sum-product decoding."""

import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    codeword_table,
    dense_h,
    edge_list,
    gf2_rank,
    ldpc_decode_bp_oracle,
    slot_tables_oracle,
    syndrome_oracle,
    table_encode,
)
from parastream import channel, ldpc, modem
from parastream.rng import make_rng

DESK_TABLE = "qc_rate34_z64.txt"
FULL_TABLE = "qc_rate34_z384.txt"


@pytest.fixture(scope="module")
def desk_code():
    base, z = ldpc.load_base_table(DESK_TABLE)
    return ldpc.build_qc_ldpc(base, z)


class TestParseTable:
    def test_round_trip_with_comments(self):
        text = "# comment\nZ 4\n1 2\n0 -1  # trailing\n"
        base, z = ldpc.parse_base_table(text)
        assert z == 4
        np.testing.assert_array_equal(base, [[0, -1]])

    def test_missing_header_rejected(self):
        with pytest.raises(ldpc.LdpcError, match="Z"):
            ldpc.parse_base_table("4\n1 1\n0\n")

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ldpc.LdpcError, match="entries"):
            ldpc.parse_base_table("Z 4\n2 2\n0 1 2\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ldpc.LdpcError, match="non-integer"):
            ldpc.parse_base_table("Z 4\n1 1\nx\n")

    def test_unknown_bundled_name_rejected(self):
        with pytest.raises(ldpc.LdpcError, match="no such"):
            ldpc.load_base_table("missing_table.txt")


@st.composite
def _drawn_bases(draw):
    """A base of 1-5 rows and at least as many columns, with shifts in
    [0, z) and a drawn share of -1 entries; some have an empty row or
    column."""
    m_b = draw(st.integers(1, 5))
    n_b = draw(st.integers(m_b, 8))
    z = draw(st.integers(1, 12))
    density = draw(st.floats(0.0, 0.8))
    rng = make_rng(draw(st.integers(0, 2**31 - 1)))
    shifts = rng.integers(0, z, (m_b, n_b))
    return np.where(rng.random((m_b, n_b)) < density, -1, shifts), z


class TestBuild:
    def test_slot_table_matches_edge_list(self, desk_code):
        pcm = desk_code
        edge_row, edge_col = edge_list(pcm)
        slots, m = pcm.slot_col.shape
        assert m == pcm.n - pcm.k
        check = np.broadcast_to(np.arange(m), pcm.slot_col.shape)
        real = pcm.slot_col < pcm.n
        # every edge sits in exactly one slot of its check
        np.testing.assert_array_equal(
            np.sort(check[real] * pcm.n + pcm.slot_col[real]),
            np.sort(edge_row * pcm.n + edge_col),
        )
        # each column lists the slots that read it, padded by the sentinel
        feeds = pcm.col_slots < slots * m
        np.testing.assert_array_equal(
            pcm.slot_col.reshape(-1)[pcm.col_slots[feeds]],
            np.broadcast_to(np.arange(pcm.n), pcm.col_slots.shape)[feeds],
        )
        assert feeds.sum() == real.sum() == edge_col.size

    @settings(max_examples=200, deadline=None)
    @given(drawn=_drawn_bases())
    @example(drawn=ldpc.load_base_table(DESK_TABLE))
    @example(drawn=ldpc.load_base_table(FULL_TABLE))
    def test_slot_tables_match_the_dense_lifting(self, drawn):
        base, z = drawn
        live = base >= 0
        empty_rows = np.flatnonzero(~live.any(axis=1))
        if empty_rows.size:
            with pytest.raises(ldpc.LdpcError, match=f"^base row {empty_rows[0]} is empty$"):
                ldpc.build_qc_ldpc(base, z)
        elif not live.any(axis=0).all():
            with pytest.raises(ldpc.LdpcError, match="^expanded matrix has an empty column$"):
                ldpc.build_qc_ldpc(base, z)
        else:
            pcm = ldpc.build_qc_ldpc(base, z)
            for got, want in zip((pcm.slot_col, pcm.col_slots), slot_tables_oracle(pcm)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_identity_lift(self):
        pcm = ldpc.build_qc_ldpc([[0]], 4)
        np.testing.assert_array_equal(dense_h(pcm), np.eye(4, dtype=np.uint8))
        assert pcm.k == 0

    def test_shift_lift_structure(self):
        pcm = ldpc.build_qc_ldpc([[2]], 5)
        dense = dense_h(pcm)
        # row i has a single one at column (i + 2) mod 5
        for i in range(5):
            assert dense[i].sum() == 1
            assert dense[i, (i + 2) % 5] == 1

    def test_desk_dimensions(self, desk_code):
        assert (desk_code.n, desk_code.k) == (1024, 768)
        assert dense_h(desk_code).shape == (256, 1024)
        assert desk_code.rate == pytest.approx(0.75)

    def test_full_scale_dimensions(self):
        base, z = ldpc.load_base_table(FULL_TABLE)
        pcm = ldpc.build_qc_ldpc(base, z)
        assert (pcm.n, pcm.k) == (6144, 4608)
        assert pcm.rate == pytest.approx(0.75)

    def test_out_of_range_shift_rejected(self):
        with pytest.raises(ldpc.LdpcError, match="shifts"):
            ldpc.build_qc_ldpc([[4]], 4)
        with pytest.raises(ldpc.LdpcError, match="shifts"):
            ldpc.build_qc_ldpc([[-2]], 4)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_empty_base_rejected(self, shape):
        with pytest.raises(ldpc.LdpcError, match=f"^base matrix is empty, shape {re.escape(str(shape))}$"):
            ldpc.build_qc_ldpc(np.zeros(shape, dtype=np.int64), 4)

    def test_empty_column_rejected(self):
        with pytest.raises(ldpc.LdpcError, match="empty"):
            ldpc.build_qc_ldpc([[0, -1], [1, -1]], 4)

    def test_desk_base_has_no_four_cycles(self, desk_code):
        # two columns sharing two rows with equal shift differences mod Z
        # would close a length-4 cycle in the lifted graph
        base, z = desk_code.base, desk_code.z
        m, nb = base.shape
        for a in range(nb):
            for b in range(a + 1, nb):
                shared = [r for r in range(m) if base[r, a] >= 0 and base[r, b] >= 0]
                for i in range(len(shared)):
                    for j in range(i + 1, len(shared)):
                        r1, r2 = shared[i], shared[j]
                        da = (base[r1, a] - base[r2, a]) % z
                        db = (base[r1, b] - base[r2, b]) % z
                        assert da != db


@st.composite
def _dual_diagonal_bases(draw):
    """A base with random information columns (none empty) and a
    dual-diagonal parity part; returns (base, z, s0, interior row)."""
    m_b = draw(st.integers(3, 6))
    info_cols = draw(st.integers(1, 3))
    z = draw(st.integers(2, 16))
    s0 = draw(st.integers(0, z - 1))
    interior = draw(st.integers(1, m_b - 2))
    base = np.full((m_b, info_cols + m_b), -1, dtype=np.int64)
    column = st.lists(st.integers(-1, z - 1), min_size=m_b, max_size=m_b)
    for c in range(info_cols):
        base[:, c] = draw(column.filter(lambda col: max(col) >= 0))
    base[[0, interior, m_b - 1], info_cols] = s0, 0, s0
    for j in range(1, m_b):
        base[[j - 1, j], info_cols + j] = 0
    return base, z, s0, interior


class TestEncode:
    def test_zero_info_zero_codeword(self, desk_code):
        code = ldpc.ldpc_encode(desk_code, np.zeros(desk_code.k, np.uint8))
        assert not code.any()

    def test_systematic_prefix(self, desk_code):
        info = make_rng(1).integers(0, 2, desk_code.k).astype(np.uint8)
        code = ldpc.ldpc_encode(desk_code, info)
        np.testing.assert_array_equal(code[: desk_code.k], info)

    def test_random_syndromes_zero(self, desk_code):
        info = make_rng(2).integers(0, 2, (50, desk_code.k)).astype(np.uint8)
        assert not ldpc.syndrome(desk_code, ldpc.ldpc_encode(desk_code, info)).any()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_linearity(self, seed):
        base, z = ldpc.load_base_table(DESK_TABLE)
        pcm = _CACHED.setdefault("desk", ldpc.build_qc_ldpc(base, z))
        rng = make_rng(seed)
        a = rng.integers(0, 2, pcm.k).astype(np.uint8)
        b = rng.integers(0, 2, pcm.k).astype(np.uint8)
        lhs = ldpc.ldpc_encode(pcm, a) ^ ldpc.ldpc_encode(pcm, b)
        np.testing.assert_array_equal(lhs, ldpc.ldpc_encode(pcm, a ^ b))

    def test_length_mismatch_rejected(self, desk_code):
        with pytest.raises(ldpc.LdpcError, match="information bits"):
            ldpc.ldpc_encode(desk_code, np.zeros(10, np.uint8))

    @pytest.mark.parametrize(
        "base, z",
        [
            pytest.param([[0, 0], [0, 0]], 4, id="rank deficient"),
            # full row rank, but both parity columns read [2, 1] in both rows
            pytest.param([[2, 0, 2, 1], [-1, 0, 2, 1]], 3, id="singular parity part"),
            pytest.param([[0, 0, 1, -1], [2, 0, -1, 0]], 4, id="generic 4x4"),
        ],
    )
    def test_unstructured_table_rejected(self, base, z):
        # such a table still lifts for the decoder, but has no encoder
        pcm = ldpc.build_qc_ldpc(base, z)
        assert pcm.structured is None
        with pytest.raises(ldpc.LdpcError, match="dual-diagonal"):
            ldpc.ldpc_encode(pcm, np.zeros(pcm.k, np.uint8))

    def test_paired_shift_zero_is_dual_diagonal(self):
        # three identity blocks in the first parity column still sum to I
        pcm = ldpc.build_qc_ldpc([[1, 0, 0, 0, -1], [0, 2, 0, 0, 0], [2, -1, 0, -1, 0]], 4)
        assert pcm.structured == (0, 1)
        info = make_rng(3).integers(0, 2, (8, pcm.k)).astype(np.uint8)
        code = ldpc.ldpc_encode(pcm, info)
        np.testing.assert_array_equal(code[:, : pcm.k], info)
        assert not syndrome_oracle(pcm, code).any()

    @settings(max_examples=60, deadline=None)
    @given(drawn=_dual_diagonal_bases(), seed=st.integers(0, 2**31 - 1))
    def test_dual_diagonal_parity_part_is_invertible(self, drawn, seed):
        base, z, s0, interior = drawn
        pcm = ldpc.build_qc_ldpc(base, z)
        assert pcm.structured == (s0, interior)
        assert gf2_rank(dense_h(pcm)[:, pcm.k :]) == pcm.n - pcm.k
        info = make_rng(seed).integers(0, 2, (4, pcm.k)).astype(np.uint8)
        code = ldpc.ldpc_encode(pcm, info)
        np.testing.assert_array_equal(code[:, : pcm.k], info)
        assert not syndrome_oracle(pcm, code).any()

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from([DESK_TABLE, FULL_TABLE]),
        frames=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_batch_is_the_systematic_codeword(self, oracle_codes, name, frames, seed):
        # the parity part of H is invertible, so info has exactly one
        # codeword with it as prefix: these checks pin every bit
        pcm = oracle_codes[name]
        info = make_rng(seed).integers(0, 2, (frames, pcm.k)).astype(np.uint8)
        code = ldpc.ldpc_encode(pcm, info)
        assert code.shape == (frames, pcm.n) and code.dtype == np.uint8
        np.testing.assert_array_equal(code[:, : pcm.k], info)
        assert not syndrome_oracle(pcm, code).any()
        alone = np.stack([ldpc.ldpc_encode(pcm, row) for row in info])
        np.testing.assert_array_equal(code, alone)

    def test_codewords_pinned(self, oracle_codes):
        # digest of 64 desk and 8 full-scale codewords, recorded before the
        # encoders moved onto the slot-table syndrome
        digest = hashlib.sha256()
        for name, frames in ((DESK_TABLE, 64), (FULL_TABLE, 8)):
            pcm = oracle_codes[name]
            info = make_rng(2024).integers(0, 2, (frames, pcm.k)).astype(np.uint8)
            digest.update(ldpc.ldpc_encode(pcm, info).tobytes())
        assert digest.hexdigest() == (
            "100a154045821a14eba762a2aacfd586688e1944bbb47a4343f34f57ebbc9e58"
        )


_CACHED = {}


class TestDecode:
    def test_noiseless_converges_without_iterating(self, desk_code):
        info = make_rng(5).integers(0, 2, desk_code.k).astype(np.uint8)
        code = ldpc.ldpc_encode(desk_code, info)
        llr = 8.0 * (1.0 - 2.0 * code.astype(np.float64))
        bits, converged, iters = ldpc.ldpc_decode_bp(desk_code, llr)
        assert converged and iters == 0
        np.testing.assert_array_equal(bits, code)

    def test_max_iter_zero_returns_hard_decisions(self, desk_code):
        llr = make_rng(6).standard_normal(desk_code.n)
        bits, converged, iters = ldpc.ldpc_decode_bp(desk_code, llr, max_iter=0)
        np.testing.assert_array_equal(bits, (llr < 0).astype(np.uint8))
        assert iters == 0 and not converged

    def test_single_flip_corrected(self, desk_code):
        rng = make_rng(7)
        for _ in range(20):
            info = rng.integers(0, 2, desk_code.k).astype(np.uint8)
            code = ldpc.ldpc_encode(desk_code, info)
            llr = 8.0 * (1.0 - 2.0 * code.astype(np.float64))
            pos = int(rng.integers(0, desk_code.n))
            llr[pos] = -llr[pos]
            bits, converged, _ = ldpc.ldpc_decode_bp(desk_code, llr)
            assert converged
            np.testing.assert_array_equal(bits, code)

    def test_erasures_filled_in(self, desk_code):
        rng = make_rng(8)
        info = rng.integers(0, 2, desk_code.k).astype(np.uint8)
        code = ldpc.ldpc_encode(desk_code, info)
        llr = 8.0 * (1.0 - 2.0 * code.astype(np.float64))
        llr[rng.choice(desk_code.n, size=5, replace=False)] = 0.0
        bits, converged, _ = ldpc.ldpc_decode_bp(desk_code, llr)
        assert converged
        np.testing.assert_array_equal(bits, code)

    def test_batch_shapes(self, desk_code):
        llr = make_rng(9).standard_normal((3, desk_code.n))
        bits, converged, iters = ldpc.ldpc_decode_bp(desk_code, llr, max_iter=2)
        assert bits.shape == (3, desk_code.n)
        assert converged.shape == (3,) and iters.shape == (3,)

    def test_length_mismatch_rejected(self, desk_code):
        with pytest.raises(ldpc.LdpcError, match="LLRs"):
            ldpc.ldpc_decode_bp(desk_code, np.zeros(100))

    def test_non_finite_llrs_rejected(self, desk_code):
        llr = np.full((3, desk_code.n), -5.0)
        llr[1, 7] = np.nan
        with pytest.raises(ldpc.LdpcError, match="frame 1 .*non-finite"):
            ldpc.ldpc_decode_bp(desk_code, llr)
        llr[1, 7] = -5.0
        llr[2] = np.inf
        with pytest.raises(ldpc.LdpcError, match="frame 2 .*non-finite"):
            ldpc.ldpc_decode_bp(desk_code, llr)
        with pytest.raises(ldpc.LdpcError, match="frame 0 .*non-finite"):
            ldpc.ldpc_decode_bp(desk_code, np.full(desk_code.n, np.nan))

    def test_negative_max_iter_rejected(self, desk_code):
        with pytest.raises(ldpc.LdpcError, match="max_iter"):
            ldpc.ldpc_decode_bp(desk_code, np.zeros(desk_code.n), max_iter=-3)

    def test_extreme_llrs_decode_without_warnings(self, desk_code):
        # the float32 cast of an LLR past float32's range would overflow;
        # the decoder clips at LLR_CAP first
        pcm = desk_code
        rng = make_rng(15)
        code = ldpc.ldpc_encode(pcm, rng.integers(0, 2, (2, pcm.k)).astype(np.uint8))
        huge = 1e300 * (1.0 - 2.0 * code)
        huge[0, rng.choice(pcm.n, size=8, replace=False)] = 0.0
        huge[1, rng.choice(pcm.n, size=8, replace=False)] *= -1.0
        erased = _channel_llrs(pcm, rng, 4, 4.0)
        erased[rng.random(erased.shape) < 0.05] = 0.0
        llr = np.concatenate([
            huge, np.where(rng.random((2, pcm.n)) < 0.5, 1e300, -1e300),
            np.zeros((1, pcm.n)), erased,
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits, converged, iters = ldpc.ldpc_decode_bp(pcm, llr)
            capped = ldpc.ldpc_decode_bp(pcm, np.clip(llr, -ldpc.LLR_CAP, ldpc.LLR_CAP))
        assert bits.dtype == np.uint8 and set(np.unique(bits)) <= {0, 1}
        assert (iters <= ldpc.MAX_ITER_DEFAULT).all()
        assert not ldpc.syndrome(pcm, bits[converged]).any()
        # erasures and a flipped bit at full confidence do not stop a
        # codeword from decoding; zero LLRs are the zero codeword
        assert converged[[0, 4]].all()
        np.testing.assert_array_equal(bits[0], code[0])
        assert not bits[4].any()
        for got, want in zip((bits, converged, iters), capped):
            np.testing.assert_array_equal(got, want)

    def test_awgn_6db_frame_errors(self, desk_code):
        # true FER measured once at 1.0e-4 (20000 frames); a 500-frame
        # seeded run sees zero errors, frozen here as the regression
        rng = make_rng(42)
        sigma2 = channel.snr_to_sigma2(6.0)
        info = rng.integers(0, 2, (500, desk_code.k)).astype(np.uint8)
        code = ldpc.ldpc_encode(desk_code, info)
        symbols = modem.qpsk_modulate(code)
        noise = rng.standard_normal(symbols.shape) + 1j * rng.standard_normal(
            symbols.shape
        )
        received = symbols + np.sqrt(sigma2 / 2.0) * noise
        llr = modem.qpsk_soft_demod(received, np.ones_like(received), sigma2)
        bits, converged, _ = ldpc.ldpc_decode_bp(desk_code, llr)
        assert converged.all()
        assert (bits[:, : desk_code.k] == info).all()


@pytest.fixture(scope="module")
def oracle_codes():
    codes = {}
    for name in (DESK_TABLE, FULL_TABLE):
        codes[name] = ldpc.build_qc_ldpc(*ldpc.load_base_table(name))
    codes["generic 4x4"] = ldpc.build_qc_ldpc([[0, 0, 1, -1], [2, 0, -1, 0]], 4)
    # its first four checks read one bit each: their products are empty
    codes["degree-1 checks"] = ldpc.build_qc_ldpc([[-1, -1, 0], [0, 0, 1]], 4)
    return codes


def _encode(pcm, info):
    """ldpc_encode, or a codeword-table lookup for the small codes
    without a dual-diagonal parity part, which ldpc_encode rejects."""
    if pcm.structured is not None:
        return ldpc.ldpc_encode(pcm, info)
    key = ("codewords", pcm.base.tobytes(), pcm.base.shape, pcm.z)
    if key not in _CACHED:
        _CACHED[key] = codeword_table(pcm)
    return table_encode(_CACHED[key], info)


def _channel_llrs(pcm, rng, frames, snr_db):
    info = rng.integers(0, 2, (frames, pcm.k)).astype(np.uint8)
    symbols = modem.qpsk_modulate(_encode(pcm, info))
    sigma2 = channel.snr_to_sigma2(snr_db)
    noise = rng.standard_normal(symbols.shape) + 1j * rng.standard_normal(
        symbols.shape
    )
    received = symbols + np.sqrt(sigma2 / 2.0) * noise
    return modem.qpsk_soft_demod(received, np.ones_like(received), sigma2)


# How far the float32 decoder may move from the float64 oracle: on a
# converged frame the iteration count by at most MOVED_ITERS, on at most
# MOVED_SHARE of the converged frames of the whole battery (BATTERY)
MOVED_ITERS = 2
MOVED_SHARE = 0.005


def _assert_matches_oracle(pcm, llr, max_iter=ldpc.MAX_ITER_DEFAULT, got=None, want=None):
    """Hold ldpc_decode_bp's result `got` (by default, computed here)
    against the oracle's `want` (likewise).

    Convergence flags must be equal frame for frame, and so must the
    bits of every converged frame; their iteration counts may be
    MOVED_ITERS apart. Unconverged frames must pass
    _assert_stopped_rightly. Returns [converged frames, converged
    frames whose count moved]."""
    if got is None:
        got = ldpc.ldpc_decode_bp(pcm, llr, max_iter)
    if want is None:
        want = ldpc_decode_bp_oracle(pcm, llr, max_iter)
    assert type(got[1]) is type(want[1]) and type(got[2]) is type(want[2])
    (bits, converged, iters), (want_bits, want_converged, want_iters) = (
        (np.atleast_2d(b), np.atleast_1d(c), np.atleast_1d(i)) for b, c, i in (got, want)
    )
    np.testing.assert_array_equal(converged, want_converged, err_msg="converged")
    np.testing.assert_array_equal(bits[converged], want_bits[converged], err_msg="bits")
    moved = np.abs(iters - want_iters)[converged]
    assert moved.max(initial=0) <= MOVED_ITERS, f"iterations moved by {moved.max()}"
    _assert_stopped_rightly(pcm, bits, converged, iters, max_iter)
    return np.array([converged.sum(), np.count_nonzero(moved)])


def _assert_stopped_rightly(pcm, bits, converged, iters, max_iter):
    """An unconverged frame ran at most max_iter iterations, and one that
    stopped short of it stalled: it ran more than STALL_ITERS and its
    bits still fail more than STALL_FRACTION of the checks."""
    assert (iters <= max_iter).all()
    short = ~converged & (iters < max_iter)
    assert (iters[short] > ldpc.STALL_ITERS).all()
    failing = ldpc.syndrome(pcm, bits[short]).sum(axis=1)
    assert (failing > ldpc.STALL_FRACTION * (pcm.n - pcm.k)).all()


def _awgn_llrs(pcm, name):
    """LLR batches across the cliff, and one single frame."""
    rng = make_rng(11)
    # the full-scale code is 6x longer, so it runs fewer frames
    batches = (1, 40) if name != FULL_TABLE else (1, 4)
    for snr_db in (0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0):
        for frames in batches:
            yield _channel_llrs(pcm, rng, frames, snr_db)
    yield _channel_llrs(pcm, rng, 1, 2.0)[0]


def _erasure_llrs(pcm):
    """Channel LLRs with 5% erasures, saturated LLRs of a random word with
    some erased, and all-zero LLRs."""
    rng = make_rng(12)
    for snr_db in (2.0, 5.0):
        llr = _channel_llrs(pcm, rng, 16, snr_db)
        llr[rng.random(llr.shape) < 0.05] = 0.0
        yield llr
    saturated = np.where(rng.random((4, pcm.n)) < 0.5, 30.0, -30.0)
    saturated[:, rng.random(pcm.n) < 0.1] = 0.0
    yield saturated
    yield np.zeros((3, pcm.n))


AWGN_CODES = (DESK_TABLE, FULL_TABLE, "generic 4x4", "degree-1 checks")
ERASURE_CODES = (DESK_TABLE, "generic 4x4", "degree-1 checks")
CAPS = (0, 1, 2)
STALL_SNRS = (4.0, 4.5, 5.0, 5.5)
# the seeded battery the decoder is held against the oracle on; the key
# is a code name, an iteration cap or the SNR of a stall batch
BATTERY = (
    [("awgn", name) for name in AWGN_CODES]
    + [("erasures", name) for name in ERASURE_CODES]
    + [("cap", cap) for cap in CAPS]
    + [("stall", snr_db) for snr_db in STALL_SNRS]
)


def _battery(codes, kind, key):
    """The (code, LLRs, max_iter) runs of one battery entry."""
    full = ldpc.MAX_ITER_DEFAULT
    if kind == "awgn":
        return [(codes[key], llr, full) for llr in _awgn_llrs(codes[key], key)]
    if kind == "erasures":
        return [(codes[key], llr, full) for llr in _erasure_llrs(codes[key])]
    if kind == "cap":
        return [(pcm, _channel_llrs(pcm, make_rng(13), 7, 2.0), key) for pcm in codes.values()]
    desk = codes[DESK_TABLE]
    return [(desk, _channel_llrs(desk, make_rng(int(10 * key)), 500, key), full)]


# _assert_matches_oracle's tally per battery entry, summed over its runs
_TALLIES = {}


def _tally(codes, kind, key):
    """Hold one battery entry against the oracle, once per session. A
    stall batch is held against plain flooding: the stall abort may give
    up only frames that flooding does not decode either."""
    if (kind, key) not in _TALLIES:
        tally = 0
        for pcm, llr, max_iter in _battery(codes, kind, key):
            want = None
            if kind == "stall":
                want = ldpc_decode_bp_oracle(pcm, llr, max_iter, stall_abort=False)
            tally = tally + _assert_matches_oracle(pcm, llr, max_iter, want=want)
        _TALLIES[kind, key] = tally
    return _TALLIES[kind, key]


class TestDecodeMatchesOracle:
    """The float32 slot-table decoder against the float64 edge-list
    log-domain decoder in tests/helpers.py, under the contract of
    _assert_matches_oracle."""

    @pytest.mark.parametrize("name", AWGN_CODES)
    def test_awgn_across_the_cliff(self, oracle_codes, name):
        _tally(oracle_codes, "awgn", name)

    @pytest.mark.parametrize("name", ERASURE_CODES)
    def test_erasures_and_saturation(self, oracle_codes, name):
        _tally(oracle_codes, "erasures", name)

    @pytest.mark.parametrize("max_iter", CAPS)
    def test_iteration_caps(self, oracle_codes, max_iter):
        _tally(oracle_codes, "cap", max_iter)

    def test_syndrome_matches_oracle(self, oracle_codes):
        rng = make_rng(14)
        for pcm in oracle_codes.values():
            bits = rng.integers(0, 2, (5, pcm.n)).astype(np.uint8)
            np.testing.assert_array_equal(
                ldpc.syndrome(pcm, bits), syndrome_oracle(pcm, bits)
            )
            np.testing.assert_array_equal(
                ldpc.syndrome(pcm, bits.astype(bool)), syndrome_oracle(pcm, bits)
            )


# on the desk code, frames at 4-10 dB converge after 0 to 50 iterations,
# "clean" ones (30 dB) before the first, and frames at 2 dB or of
# "noise" (LLRs unrelated to any codeword) not within 50
_FRAME_KINDS = ("clean", 2.0, 4.0, 4.5, 5.0, 6.0, 8.0, 10.0, "noise")


class TestBatchInvariance:
    """A frame decodes the same alone and in any batch: compaction and
    the deferred write of the hard decisions must not leak between
    frames."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        kinds=st.lists(st.sampled_from(_FRAME_KINDS), min_size=2, max_size=8),
        max_iter=st.sampled_from([1, 4, 20, ldpc.MAX_ITER_DEFAULT]),
    )
    def test_mixed_batch_matches_each_frame_alone(self, desk_code, seed, kinds, max_iter):
        pcm = desk_code
        rng = make_rng(seed)
        rows = []
        for kind in kinds:
            if kind == "noise":
                rows.append(3.0 * rng.standard_normal(pcm.n))
            else:
                rows.append(_channel_llrs(pcm, rng, 1, 30.0 if kind == "clean" else kind)[0])
        llr = np.stack(rows)
        sent = llr.copy()

        bits, converged, iters = ldpc.ldpc_decode_bp(pcm, llr, max_iter)
        np.testing.assert_array_equal(llr, sent)
        for i, row in enumerate(llr):
            alone = ldpc.ldpc_decode_bp(pcm, row, max_iter)
            np.testing.assert_array_equal(bits[i], alone[0])
            assert (converged[i], iters[i]) == alone[1:]
        _assert_matches_oracle(pcm, llr, max_iter, got=(bits, converged, iters))

        bits0, converged0, iters0 = ldpc.ldpc_decode_bp(pcm, llr, 0)
        np.testing.assert_array_equal(bits0, (llr < 0).astype(np.uint8))
        np.testing.assert_array_equal(converged0, ~ldpc.syndrome(pcm, bits0).any(axis=1))
        assert not iters0.any()
        np.testing.assert_array_equal(llr, sent)


class TestStallAbort:
    """The stall abort gives up only frames that flooding would not
    decode either, and stops hopeless frames early."""

    @pytest.mark.parametrize("snr_db", STALL_SNRS)
    def test_no_decodable_frame_given_up(self, oracle_codes, snr_db):
        _tally(oracle_codes, "stall", snr_db)

    def test_pure_noise_stops_early(self, desk_code):
        # LLRs unrelated to any codeword: the unsatisfied-check count
        # hovers near half the checks and stops falling within a few
        # iterations
        llr = 3.0 * make_rng(21).standard_normal((8, desk_code.n))
        bits, converged, iters = ldpc.ldpc_decode_bp(desk_code, llr)
        assert not converged.any()
        assert (iters <= 2 * ldpc.STALL_ITERS).all()
        # a stalled frame keeps the hard decisions of the iteration it
        # stopped at
        for row, got, stop in zip(llr, bits, iters):
            flood = ldpc_decode_bp_oracle(desk_code, row, int(stop), stall_abort=False)
            np.testing.assert_array_equal(got, flood[0])


class TestBattery:
    """The whole seeded battery above, taken together."""

    def test_few_iteration_counts_moved(self, oracle_codes):
        converged, moved = sum(_tally(oracle_codes, *entry) for entry in BATTERY)
        assert moved <= MOVED_SHARE * converged, f"{moved} of {converged} converged frames moved"

    def test_results_pinned(self, oracle_codes):
        # SHA-256 of the decoder's (bits, converged, iters) over the
        # battery, so that any reordering of the float32 work shows.
        # NumPy picks its float32 tanh and arctanh kernels by the widest
        # x86 SIMD level it dispatches to, and the kernels round
        # differently, so the digest is recorded per level (NumPy 2.4;
        # X86_V3 read with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
        # AVX512_SPR"). Another platform needs its digest recorded here.
        pinned = {
            "X86_V4": "c4479a3ab3b96e9024d1588e35ceb761ae3d41e9def0a7e1714507f9b8638c77",
            "X86_V3": "7760f71b0f25c5e32135e3c2b5bfabea02233aac2b7890986ea30efb01aa5d97",
        }
        from numpy._core._multiarray_umath import __cpu_features__
        level = next((lv for lv in pinned if __cpu_features__.get(lv)), None)
        digest = hashlib.sha256()
        for entry in BATTERY:
            for pcm, llr, max_iter in _battery(oracle_codes, *entry):
                for part in ldpc.ldpc_decode_bp(pcm, llr, max_iter):
                    digest.update(np.asarray(part).tobytes())
        assert pinned.get(level) == digest.hexdigest(), (level, digest.hexdigest())
