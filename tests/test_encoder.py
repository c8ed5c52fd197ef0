"""Residual-enhanced encoder modules: algebra, shapes, locality, grads."""

import numpy as np
import pytest

from parastream import encoder
from parastream.autodiff import DimensionError, Tensor
from parastream.rng import make_rng

from helpers import gradcheck, projection_loss


def small_rem(c_in=2, c_out=3, seed=0, last=False):
    return encoder.Rem(c_in, c_out, make_rng(seed), last=last)


class TestRem:
    def test_neutral_attention_scales_by_half(self):
        rem = small_rem()
        rem.attention.weight.data[:] = 0.0
        rem.attention.bias.data[:] = 0.0  # sigmoid(0) = 0.5
        y = Tensor(make_rng(1).standard_normal((1, 2, 8, 8)))
        r = Tensor(make_rng(2).standard_normal((1, 2, 8, 8)))
        y_next, _ = rem(y, r)
        expected = 1.5 * rem.down_y(y).data
        np.testing.assert_allclose(y_next.data, expected, atol=1e-12)

    def test_saturated_off_attention_passes_through(self):
        rem = small_rem()
        rem.attention.weight.data[:] = 0.0
        rem.attention.bias.data[:] = -40.0  # sigmoid ~ 4e-18
        y = Tensor(make_rng(3).standard_normal((1, 2, 8, 8)))
        r = Tensor(make_rng(4).standard_normal((1, 2, 8, 8)))
        y_next, _ = rem(y, r)
        np.testing.assert_allclose(y_next.data, rem.down_y(y).data, atol=1e-12)

    def test_halves_spatial_dims(self):
        rem = small_rem()
        y = Tensor(np.zeros((1, 2, 32, 32)))
        y_next, r_next = rem(y, y)
        assert y_next.data.shape == (1, 3, 16, 16)
        assert r_next.data.shape == (1, 3, 16, 16)

    def test_last_rem_skips_mix(self):
        rem = small_rem(last=True)
        assert not hasattr(rem, "mix")
        y = Tensor(np.zeros((1, 2, 8, 8)))
        _, r_next = rem(y, y)
        np.testing.assert_array_equal(r_next.data, rem.down_r(y).data)

    def test_dim_mismatch_rejected(self):
        rem = small_rem()
        with pytest.raises(DimensionError, match="spatial"):
            rem(Tensor(np.zeros((1, 2, 8, 8))), Tensor(np.zeros((1, 2, 4, 4))))

    def test_attention_locality(self):
        # enhancement from a residual supported on the top-left 4x4 block
        # cannot reach past that block's receptive cone; compare against
        # the zero-residual run (biases alone do not cancel otherwise)
        rem = small_rem(c_in=1, c_out=2, seed=5)
        for name, param in rem.attention.named_parameters():
            param.data = np.abs(param.data)
        y = Tensor(make_rng(6).standard_normal((1, 1, 16, 16)))
        support = np.zeros((1, 1, 16, 16))
        support[:, :, :4, :4] = make_rng(7).standard_normal((4, 4))
        with_res, _ = rem(y, Tensor(support))
        without_res, _ = rem(y, Tensor(np.zeros((1, 1, 16, 16))))
        diff = np.abs(with_res.data - without_res.data)
        # cone: stride-2 conv + two stride-1 convs reach half-res index 4
        assert diff[:, :, 5:, 5:].max() == 0.0
        assert diff[:, :, :5, :5].max() > 0.0


class TestEncoder:
    def test_output_shapes(self):
        enc = encoder.SemanticEncoder(make_rng(8))
        x = Tensor(np.zeros((1, 3, 32, 32)))
        s, r = enc(x, x)
        assert s.data.shape == (1, 32, 2, 2)
        assert r.data.shape == (1, 32, 2, 2)
        assert enc.scale == 16

    def test_input_mismatch_rejected(self):
        enc = encoder.SemanticEncoder(make_rng(8))
        with pytest.raises(DimensionError, match="match"):
            enc(Tensor(np.zeros((1, 3, 32, 32))), Tensor(np.zeros((1, 3, 16, 16))))

    def test_all_parameters_receive_gradient(self):
        enc = encoder.SemanticEncoder(make_rng(9), widths=(2, 3))
        x = Tensor(make_rng(10).standard_normal((1, 3, 8, 8)))
        xr = Tensor(make_rng(11).standard_normal((1, 3, 8, 8)))
        s, r = enc(x, xr)
        ((s * s).sum() + (r * r).sum()).backward()
        for name, param in enc.named_parameters():
            assert param.grad is not None, name
            assert np.any(param.grad != 0.0), name

    def test_gradients_match_finite_differences(self):
        enc = encoder.SemanticEncoder(make_rng(12), widths=(2, 2))
        x = Tensor(make_rng(13).standard_normal((1, 3, 8, 8)))
        xr = Tensor(make_rng(14).standard_normal((1, 3, 8, 8)))
        rng = make_rng(15)
        proj_s = Tensor(rng.standard_normal((1, 2, 2, 2)))
        proj_r = Tensor(rng.standard_normal((1, 2, 2, 2)))

        def loss():
            s, r = enc(x, xr)
            return projection_loss(s, proj_s) + projection_loss(r, proj_r)

        assert gradcheck(loss, enc.parameters()) < 1e-4


class TestImageConversion:
    def test_round_trip(self):
        img = make_rng(16).uniform(0, 1, (5, 7, 3))
        t = encoder.batch_to_tensor([img])
        assert t.data.shape == (1, 3, 5, 7)
        np.testing.assert_array_equal(encoder.tensor_to_image(t), img)

    def test_batch(self):
        imgs = [make_rng(17).uniform(0, 1, (4, 4, 3)) for _ in range(2)]
        assert encoder.batch_to_tensor(imgs).data.shape == (2, 3, 4, 4)
