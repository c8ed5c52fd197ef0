"""QPSK modem: Gray mapping and max-likelihood soft demapping.

Bit pairs map to unit-power symbols; the demapper emits per-bit LLRs
with the convention LLR > 0 means bit 0 is more likely.
"""

import numpy as np

LLR_SAT = 30.0
_SCALE = 2.0 * np.sqrt(2.0)


def qpsk_modulate(bits):
    """Map an even-length bit vector to Gray-coded QPSK symbols.

    Pair (b0, b1) becomes ((1 - 2 b0) + 1j (1 - 2 b1)) / sqrt(2), so the
    constellation has unit power symbol by symbol. Works on batches via
    the leading axes.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValueError("qpsk_modulate needs an even bit count")
    b0 = bits[..., 0::2].astype(np.float64)
    b1 = bits[..., 1::2].astype(np.float64)
    return ((1.0 - 2.0 * b0) + 1j * (1.0 - 2.0 * b1)) / np.sqrt(2.0)


def qpsk_soft_demod(y, h, sigma2):
    """Coherent soft demapping of QPSK under gain h and noise power sigma2.

    LLR(b0) = 2 sqrt(2) Re(h* y) / sigma2 and likewise Im for b1,
    saturated at +/- LLR_SAT. A zero gain yields LLR 0 (erasure).
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    y = np.asarray(y, dtype=np.complex128)
    w = np.conj(h) * y
    scale = _SCALE / sigma2
    llr = np.empty(y.shape[:-1] + (2 * y.shape[-1],), dtype=np.float64)
    llr[..., 0::2] = scale * w.real
    llr[..., 1::2] = scale * w.imag
    return np.clip(llr, -LLR_SAT, LLR_SAT)
