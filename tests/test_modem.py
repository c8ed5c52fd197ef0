"""QPSK mapping conventions and soft demapper formula checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parastream import modem
from parastream.rng import make_rng

ROOT2 = np.sqrt(2.0)

even_bit_lists = st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(
    lambda bits: len(bits) % 2 == 0
)


class TestModulate:
    @pytest.mark.parametrize(
        "pair,symbol",
        [
            ((0, 0), (1 + 1j) / ROOT2),
            ((0, 1), (1 - 1j) / ROOT2),
            ((1, 0), (-1 + 1j) / ROOT2),
            ((1, 1), (-1 - 1j) / ROOT2),
        ],
    )
    def test_gray_mapping(self, pair, symbol):
        out = modem.qpsk_modulate(np.array(pair))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(symbol)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            modem.qpsk_modulate(np.array([0, 1, 0]))

    @given(even_bit_lists)
    def test_unit_power_per_symbol(self, bits):
        symbols = modem.qpsk_modulate(np.array(bits))
        np.testing.assert_allclose(np.abs(symbols) ** 2, 1.0, rtol=1e-12)

    def test_batch_shape(self):
        bits = make_rng(1).integers(0, 2, (3, 10))
        assert modem.qpsk_modulate(bits).shape == (3, 5)


class TestSoftDemod:
    def test_formula_reference_point(self):
        llr = modem.qpsk_soft_demod(np.array([(1 + 1j) / ROOT2]), 1.0, 1.0)
        np.testing.assert_allclose(llr, [2.0, 2.0], rtol=1e-12)

    def test_zero_gain_is_erasure(self):
        llr = modem.qpsk_soft_demod(np.array([0.7 + 0.2j]), 0.0, 1.0)
        np.testing.assert_array_equal(llr, [0.0, 0.0])

    def test_saturation(self):
        llr = modem.qpsk_soft_demod(np.array([100.0 - 100.0j]), 1.0, 0.1)
        np.testing.assert_array_equal(llr, [modem.LLR_SAT, -modem.LLR_SAT])

    def test_gain_phase_compensated(self):
        bits = np.array([0, 0, 1, 0, 0, 1, 1, 1])
        symbols = modem.qpsk_modulate(bits)
        h = 0.9 * np.exp(1j * 0.8)
        llr = modem.qpsk_soft_demod(h * symbols, h, 0.5)
        np.testing.assert_array_equal(llr < 0, bits)

    def test_sigma2_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma2"):
            modem.qpsk_soft_demod(np.array([1.0 + 0j]), 1.0, 0.0)

    @given(even_bit_lists)
    def test_noiseless_round_trip(self, bits):
        bits = np.array(bits)
        llr = modem.qpsk_soft_demod(modem.qpsk_modulate(bits), 1.0, 1e-3)
        np.testing.assert_array_equal(llr < 0, bits)

    def test_llr_scales_inversely_with_noise(self):
        y = np.array([0.3 + 0.1j])
        weak = modem.qpsk_soft_demod(y, 1.0, 2.0)
        strong = modem.qpsk_soft_demod(y, 1.0, 1.0)
        np.testing.assert_allclose(strong, 2.0 * weak, rtol=1e-12)
