"""Entropy model, rate allocation, FC banks, and CBR accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from parastream import rate
from parastream.autodiff import Tensor
from parastream.rng import make_rng

from helpers import (
    banks_decode_oracle,
    banks_encode_oracle,
    gradcheck,
    projection_loss,
)

# sigma for which the unit bin around the mean holds exactly half the
# mass: 0.5 / ndtri(0.75), since P(|Z| < ndtri(0.75)) = 0.5
SIGMA_HALF = 0.5 / special.ndtri(0.75)


class TestQuantize:
    def test_rounds_half_away_from_zero(self):
        t = Tensor(np.array([2.4, 2.5, -2.5, 0.5, -0.5, 1.5, -2.4, 0.0]))
        out = rate.quantize(t)
        np.testing.assert_array_equal(
            out.data, [2.0, 3.0, -3.0, 1.0, -1.0, 2.0, -2.0, 0.0]
        )

    def test_rounding_passes_gradients_through(self):
        t = Tensor(np.array([0.3, 1.7, -0.9]), requires_grad=True)
        rate.quantize(t).sum().backward()
        np.testing.assert_array_equal(t.grad, [1.0, 1.0, 1.0])

    def test_train_noise_moments(self):
        t = Tensor(np.zeros(1_000_000))
        out = rate.quantize(t, make_rng(0)).data
        assert abs(out.mean()) < 0.002
        assert abs(out.var() - 1.0 / 12.0) < 0.002
        assert out.min() >= -0.5 and out.max() <= 0.5



class TestLikelihood:
    def test_unit_bin_of_standard_normal(self):
        p = rate.likelihood(Tensor([0.0]), Tensor([0.0]), Tensor([1.0]))
        assert p.data[0] == pytest.approx(0.382925, abs=1e-5)

    def test_half_mass_sigma(self):
        p = rate.likelihood(Tensor([0.0]), Tensor([0.0]), Tensor([SIGMA_HALF]))
        assert p.data[0] == pytest.approx(0.5, abs=1e-12)

    def test_decreases_with_sigma(self):
        sigmas = np.array([0.1, 0.5, 1.0, 2.0, 10.0])
        p = rate.likelihood(Tensor(np.zeros(5)), Tensor(np.zeros(5)), Tensor(sigmas))
        assert np.all(np.diff(p.data) < 0)

    def test_tiny_sigma_concentrates_all_mass(self):
        p = rate.likelihood(Tensor([3.0]), Tensor([3.0]), Tensor([1e-6]))
        assert p.data[0] == pytest.approx(1.0, abs=1e-12)

    def test_floor_applies_far_from_mean(self):
        p = rate.likelihood(Tensor([40.0]), Tensor([0.0]), Tensor([0.5]))
        assert p.data[0] == rate.LIKELIHOOD_FLOOR

    @given(
        mu=st.floats(-5, 5),
        sigma=st.floats(0.2, 3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_pmf_sums_to_one(self, mu, sigma):
        grid = np.arange(-60.0, 61.0)
        p = rate.likelihood(
            Tensor(grid), Tensor(np.full(121, mu)), Tensor(np.full(121, sigma))
        )
        assert p.data.sum() == pytest.approx(1.0, abs=1e-6)


class TestHyperSynthesis:
    def test_zero_input_at_init(self):
        net = rate.HyperSynthesis(3, make_rng(1))
        mu, sigma = net(Tensor(np.zeros((1, 3, 6, 6))))
        assert mu.data.shape == (1, 3, 6, 6)
        assert sigma.data.shape == (1, 3, 6, 6)
        np.testing.assert_array_equal(mu.data, 0.0)
        np.testing.assert_allclose(
            sigma.data, math.log(2.0) + rate.SIGMA_FLOOR, atol=1e-15
        )

    def test_sigma_positive_everywhere(self):
        net = rate.HyperSynthesis(2, make_rng(2))
        _, sigma = net(Tensor(make_rng(3).standard_normal((2, 2, 5, 5)) * 10))
        assert sigma.data.min() >= rate.SIGMA_FLOOR

    def test_gradients_match_finite_differences(self):
        net = rate.HyperSynthesis(2, make_rng(4))
        x = Tensor(make_rng(5).standard_normal((1, 2, 4, 4)))
        proj_mu = Tensor(make_rng(6).standard_normal((1, 2, 4, 4)))
        proj_sigma = Tensor(make_rng(7).standard_normal((1, 2, 4, 4)))

        def loss():
            mu, sigma = net(x)
            return projection_loss(mu, proj_mu) + projection_loss(sigma, proj_sigma)

        assert gradcheck(loss, list(net.parameters())) < 1e-4


class TestFactorizedPrior:
    def test_cdf_strictly_increasing(self):
        prior = rate.FactorizedPrior(3, make_rng(8))
        grid = np.linspace(-30, 30, 201)
        x = Tensor(np.broadcast_to(grid[None, None, :, None], (1, 3, 201, 1)).copy())
        cdf = prior.cdf(x).data
        assert np.all(np.diff(cdf, axis=2) > 0)
        assert cdf.min() > 0.0 and cdf.max() < 1.0

    def test_pmf_sums_to_one_at_init(self):
        prior = rate.FactorizedPrior(4, make_rng(9))
        grid = np.arange(-50.0, 51.0)
        x = Tensor(np.broadcast_to(grid[None, None, :, None], (1, 4, 101, 1)).copy())
        p = prior(x)
        np.testing.assert_allclose(p.data.sum(axis=2), 1.0, atol=1e-6)

    def test_channel_count_enforced(self):
        prior = rate.FactorizedPrior(4, make_rng(10))
        with pytest.raises(ValueError, match="channels"):
            prior(Tensor(np.zeros((1, 3, 2, 2))))

    def test_likelihood_floor(self):
        prior = rate.FactorizedPrior(1, make_rng(11))
        p = prior(Tensor(np.full((1, 1, 1, 1), 300.0)))
        assert p.data.min() >= rate.LIKELIHOOD_FLOOR

    def test_gradients_match_finite_differences(self):
        prior = rate.FactorizedPrior(2, make_rng(12))
        x = Tensor(make_rng(13).standard_normal((1, 2, 3, 2)))
        proj = Tensor(make_rng(14).standard_normal((1, 2, 3, 2)))

        def loss():
            return projection_loss(prior(x), proj)

        assert gradcheck(loss, list(prior.parameters())) < 1e-4


class TestRateTerm:
    def test_one_bit_for_half_likelihood(self):
        prior = rate.FactorizedPrior(1, make_rng(15))
        r = Tensor(np.zeros((1, 1, 1, 1)))
        prior_bits = -np.log2(prior(r).data).sum()
        p_s = rate.likelihood(
            Tensor(np.zeros((1, 1, 1, 1))),
            Tensor(np.zeros((1, 1, 1, 1))),
            Tensor(np.full((1, 1, 1, 1), SIGMA_HALF)),
        )
        bits = rate.rate_term(p_s, r, prior)
        assert bits.data == pytest.approx(1.0 + prior_bits, abs=1e-9)

    def test_certain_features_cost_nothing(self):
        prior = rate.FactorizedPrior(1, make_rng(16))
        r = Tensor(np.zeros((1, 1, 1, 1)))
        prior_bits = -np.log2(prior(r).data).sum()
        p_s = rate.likelihood(
            Tensor(np.full((1, 1, 2, 2), 5.0)),
            Tensor(np.full((1, 1, 2, 2), 5.0)),
            Tensor(np.full((1, 1, 2, 2), 1e-6)),
        )
        bits = rate.rate_term(p_s, r, prior)
        assert bits.data == pytest.approx(prior_bits, abs=1e-9)

    def test_matches_scipy_oracle(self):
        rng = make_rng(17)
        s = rng.standard_normal((1, 2, 3, 3))
        mu = rng.standard_normal((1, 2, 3, 3)) * 0.1
        sigma = rng.uniform(0.5, 2.0, (1, 2, 3, 3))
        prior = rate.FactorizedPrior(2, make_rng(18))
        r = Tensor(rng.standard_normal((1, 2, 2, 2)))
        p_s = special.ndtr((s - mu + 0.5) / sigma) - special.ndtr(
            (s - mu - 0.5) / sigma
        )
        expected = -np.log2(p_s).sum() - np.log2(prior(r).data).sum()
        bits = rate.rate_term(rate.likelihood(Tensor(s), Tensor(mu), Tensor(sigma)), r, prior)
        assert bits.data == pytest.approx(expected, rel=1e-9)


class TestAllocateRates:
    def test_certain_patches_get_minimum_rate(self):
        alloc = rate.allocate_rates(np.ones((1, 4, 2, 2)))
        np.testing.assert_array_equal(alloc.alpha, 0.0)
        np.testing.assert_array_equal(alloc.alpha_bar, 4)
        assert alloc.clamped == 0

    def test_fractional_entropy_rounds_up(self):
        # two channels at p = 2^-23.75 give alpha = 0.2 * 47.5 = 9.5
        p = np.full((1, 2, 1, 1), 2.0 ** -23.75)
        alloc = rate.allocate_rates(p)
        assert alloc.alpha[0, 0, 0] == pytest.approx(9.5, abs=1e-12)
        assert alloc.alpha_bar[0, 0, 0] == 12

    def test_exact_boundary_is_not_bumped(self):
        # alpha exactly 8 takes the 8-dimensional bank, not 12
        p = np.full((1, 1, 1, 1), 2.0 ** -40.0)
        alloc = rate.allocate_rates(p)
        assert alloc.alpha[0, 0, 0] == pytest.approx(8.0, abs=1e-12)
        assert alloc.alpha_bar[0, 0, 0] == 8

    def test_clamp_at_largest_rate_is_counted(self):
        p = np.full((1, 1, 1, 2), 2.0 ** -650.0)
        p[0, 0, 0, 1] = 1.0
        alloc = rate.allocate_rates(p)
        assert alloc.alpha_bar[0, 0, 0] == 128
        assert alloc.clamped == 1

    def test_shape_contract(self):
        with pytest.raises(ValueError, match="B,C,H,W"):
            rate.allocate_rates(np.ones((4, 2, 2)))

    def test_totals_and_indices(self):
        p = np.ones((1, 1, 1, 3))
        p[0, 0, 0, 1] = 2.0 ** -30.0  # alpha 6 -> 8
        p[0, 0, 0, 2] = 2.0 ** -650.0  # clamped -> 128
        alloc = rate.allocate_rates(p)
        np.testing.assert_array_equal(alloc.totals(), [4 + 8 + 128])
        np.testing.assert_array_equal(alloc.indices()[0, 0], [0, 1, 31])
        assert alloc.k_s == 3

    @given(st.lists(st.floats(0.0, 200.0), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_ceiling_into_rate_set(self, alphas):
        # spread each target entropy across 32 channels so every
        # likelihood stays far above the floor
        p = np.array([[2.0 ** (-a / 6.4)] * 32 for a in alphas])
        alloc = rate.allocate_rates(p.T.reshape(1, 32, 1, len(alphas)))
        for a, a_bar in zip(alloc.alpha.reshape(-1), alloc.alpha_bar.reshape(-1)):
            expected = min(max(4 * math.ceil(a / 4.0), 4), 128)
            assert a_bar == expected


class TestRateBanks:
    @staticmethod
    def uniform_alloc(width, grid_hw, channels):
        """Allocation giving every patch the same rate `width` (targets
        entropy width - 0.5, safely inside the bin)."""
        exponent = -(width - 0.5) / (0.2 * channels)
        p = np.full((1, channels) + grid_hw, 2.0 ** exponent)
        alloc = rate.allocate_rates(p)
        assert (alloc.alpha_bar == width).all()
        return alloc

    def test_square_bank_starts_as_identity(self):
        banks = rate.RateBanks(8)
        s = Tensor(make_rng(20).standard_normal((1, 8, 2, 2)))
        alloc = self.uniform_alloc(8, (2, 2), 8)
        reals = banks.encode(s, alloc)
        assert reals[0].data.shape == (32,)
        back = banks.decode(reals, alloc.alpha_bar)
        np.testing.assert_array_equal(back.data, s.data)

    def test_narrow_bank_truncates_and_pads(self):
        banks = rate.RateBanks(8)
        s = Tensor(make_rng(22).standard_normal((1, 8, 2, 2)))
        alloc = self.uniform_alloc(4, (2, 2), 8)
        reals = banks.encode(s, alloc)
        assert reals[0].data.shape == (16,)
        back = banks.decode(reals, alloc.alpha_bar)
        np.testing.assert_array_equal(back.data[:, :4], s.data[:, :4])
        np.testing.assert_array_equal(back.data[:, 4:], 0.0)

    def test_mixed_rates_concatenate_in_raster_order(self):
        banks = rate.RateBanks(8)
        s = Tensor(make_rng(24).standard_normal((1, 8, 1, 2)))
        p = np.empty((1, 8, 1, 2))
        p[0, :, 0, 0] = 2.0 ** -2.4375  # alpha 3.9
        p[0, :, 0, 1] = 2.0 ** -4.6875  # alpha 7.5
        alloc = rate.allocate_rates(p)
        np.testing.assert_array_equal(alloc.alpha_bar[0, 0], [4, 8])
        reals = banks.encode(s, alloc)
        assert reals[0].data.shape == (12,)
        np.testing.assert_array_equal(reals[0].data[:4], s.data[0, :4, 0, 0])
        np.testing.assert_array_equal(reals[0].data[4:], s.data[0, :, 0, 1])

    def test_tokens_shift_the_patch_vector(self):
        banks = rate.RateBanks(4)
        banks.tokens.data[0] = [1.0, 2.0, 3.0, 4.0]
        s = Tensor(np.zeros((1, 4, 1, 1)))
        alloc = self.uniform_alloc(4, (1, 1), 4)
        reals = banks.encode(s, alloc)
        np.testing.assert_array_equal(reals[0].data, [1.0, 2.0, 3.0, 4.0])

    def test_tokens_learn(self):
        banks = rate.RateBanks(4)
        s = Tensor(make_rng(27).standard_normal((1, 4, 2, 2)))
        alloc = self.uniform_alloc(4, (2, 2), 4)
        out = banks.encode(s, alloc)[0]
        (out * out).sum().backward()
        assert banks.tokens.grad is not None
        assert np.abs(banks.tokens.grad[0]).max() > 0.0

    def test_channel_count_enforced(self):
        banks = rate.RateBanks(4)
        alloc = self.uniform_alloc(4, (1, 1), 8)
        with pytest.raises(ValueError, match="banks built for"):
            banks.encode(Tensor(np.zeros((1, 8, 1, 1))), alloc)

    def test_allocation_grid_must_match(self):
        banks = rate.RateBanks(4)
        alloc = self.uniform_alloc(4, (2, 2), 4)
        with pytest.raises(ValueError, match="allocation grid"):
            banks.encode(Tensor(np.zeros((1, 4, 1, 1))), alloc)

    def test_payload_length_mismatch_is_hard_error(self):
        banks = rate.RateBanks(4)
        alloc = self.uniform_alloc(4, (2, 2), 4)
        # one image's stream one real short, or one stream too many
        for lengths in [(15,), (16, 16)]:
            with pytest.raises(ValueError, match="semantic payload holds"):
                banks.decode([Tensor(np.zeros(n)) for n in lengths], alloc.alpha_bar)

    def test_banks_are_one_matrix_per_direction(self):
        banks = rate.RateBanks(4)
        total = sum(rate.RATE_SET)
        shapes = {name: p.data.shape for name, p in banks.named_parameters()}
        assert shapes == {
            "tokens": (32, 4),
            "enc_weight": (4, total),
            "enc_bias": (total,),
            "dec_weight": (total, 4),
            "dec_bias": (32, 4),
        }
        start = banks.starts[5]
        np.testing.assert_array_equal(
            banks.enc_weight.data[:, start : start + 24], np.eye(4, 24)
        )
        np.testing.assert_array_equal(
            banks.dec_weight.data[start : start + 24], np.eye(24, 4)
        )


class TestRateBanksOracle:
    """The batched banks against the per-patch loop in helpers: batch 2
    on a 2x3 grid with mixed rates and one patch clamped at 128."""

    ALPHAS = [[[3.9, 7.5, 40.2], [98.5, 200.0, 12.1]],
              [[55.0, 3.5, 127.9], [8.5, 19.5, 63.5]]]
    WIDTHS = [[[4, 8, 44], [100, 128, 16]], [[56, 4, 128], [12, 20, 64]]]

    @pytest.fixture()
    def setup(self):
        rng = make_rng(40)
        banks = rate.RateBanks(4)
        for param in banks.parameters():
            param.data = rng.standard_normal(param.data.shape)
        # alpha = -0.2 * 4 channels * log2 p
        p = 2.0 ** (-np.asarray(self.ALPHAS)[:, None] / 0.8)
        alloc = rate.allocate_rates(np.repeat(p, 4, axis=1))
        np.testing.assert_array_equal(alloc.alpha_bar, self.WIDTHS)
        assert alloc.clamped == 1
        s = Tensor(rng.standard_normal((2, 4, 2, 3)), requires_grad=True)
        return banks, alloc, s, rng

    @staticmethod
    def grads(loss, tensors):
        for t in tensors:
            t.grad = None
        loss.backward()
        return [t.grad.copy() for t in tensors]

    def test_encode_matches_per_patch_loop(self, setup):
        banks, alloc, s, rng = setup
        fast = banks.encode(s, alloc)
        slow = banks_encode_oracle(banks, s, alloc.alpha_bar)
        assert [v.data.shape for v in fast] == [v.data.shape for v in slow]
        proj = [rng.standard_normal(v.data.shape) for v in slow]
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-12)
        tensors = [s, banks.tokens, banks.enc_weight, banks.enc_bias]

        def loss(outs):
            return sum(((v * p).sum() for v, p in zip(outs, proj)), Tensor(0.0))

        for a, b in zip(self.grads(loss(fast), tensors), self.grads(loss(slow), tensors)):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_decode_matches_per_patch_loop(self, setup):
        banks, alloc, _, rng = setup
        received = [
            Tensor(rng.standard_normal(n), requires_grad=True) for n in alloc.totals()
        ]
        fast = banks.decode(received, alloc.alpha_bar)
        slow = banks_decode_oracle(banks, received, alloc.alpha_bar)
        np.testing.assert_allclose(fast.data, slow.data, rtol=1e-12)
        proj = rng.standard_normal(slow.data.shape)
        tensors = [*received, banks.dec_weight, banks.dec_bias]
        fast_grads = self.grads((fast * proj).sum(), tensors)
        for a, b in zip(fast_grads, self.grads((slow * proj).sum(), tensors)):
            np.testing.assert_allclose(a, b, rtol=1e-12)


class TestCbr:
    def test_real_dims_variant_counts_reals(self):
        assert rate.cbr_real_dims(100, 26, 768) == pytest.approx(126.0 / 768.0)

    def test_zero_source_dimension_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            rate.cbr_real_dims(10, 5, 0)

    def test_side_channel_symbol_count(self):
        assert rate.side_channel_symbols(4) == 10
        assert rate.side_channel_symbols(3) == 8
        assert rate.side_channel_symbols(0) == 0


class TestSideChannelPacking:
    def test_round_trip(self):
        idx = np.array([0, 31, 7, 16, 1, 2, 3])
        blob = rate.pack_rate_indices(idx)
        assert len(blob) == 5  # ceil(35 / 8)
        np.testing.assert_array_equal(rate.unpack_rate_indices(blob, 7), idx)

    def test_known_bytes(self):
        # 00001 00010 00011 padded to 0000 1000 1000 0110
        assert rate.pack_rate_indices([1, 2, 3]) == bytes([0x08, 0x86])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="5-bit"):
            rate.pack_rate_indices([32])
        with pytest.raises(ValueError, match="5-bit"):
            rate.pack_rate_indices([-1])

    def test_short_blob_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            rate.unpack_rate_indices(b"\x00", 2)

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, values):
        blob = rate.pack_rate_indices(values)
        np.testing.assert_array_equal(
            rate.unpack_rate_indices(blob, len(values)), values
        )


class TestAllocationConsistency:
    def test_alpha_accounts_for_all_semantic_bits(self):
        # sum(alpha) / rho must equal the semantic part of the rate term
        rng = make_rng(31)
        s = rng.standard_normal((2, 4, 3, 3))
        mu = rng.standard_normal((2, 4, 3, 3)) * 0.1
        sigma = rng.uniform(0.5, 2.0, (2, 4, 3, 3))
        p = rate.likelihood(Tensor(s), Tensor(mu), Tensor(sigma))
        alloc = rate.allocate_rates(p)
        semantic_bits = -np.log2(p.data).sum()
        assert alloc.alpha.sum() / rate.RHO == pytest.approx(semantic_bits, rel=1e-12)
