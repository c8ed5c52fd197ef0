"""Decoder latent pyramid, per-pixel aggregation, and upsampling path."""

import numpy as np
import pytest

from parastream import decoder, pipeline
from parastream.autodiff import DimensionError, Tensor
from parastream.layers import Conv2d, Embedding, Linear
from parastream.rng import make_rng

from helpers import gradcheck, pagnet_softmax_oracle


def tiny_decoder(seed=0):
    return decoder.SemanticDecoder(make_rng(seed), latent_widths=(2, 2, 2), growth=2)


class TestLatentExtraction:
    def test_pyramid_shapes(self):
        dec = decoder.SemanticDecoder(make_rng(1))
        latents = dec.extract_latents(Tensor(np.zeros((1, 3, 32, 32))))
        sizes = [u.data.shape for u in latents]
        assert sizes == [
            (1, 16, 32, 32),
            (1, 32, 16, 16),
            (1, 64, 8, 8),
            (1, 64, 4, 4),
            (1, 32, 2, 2),
        ]

    def test_zero_image_zero_latent_at_init(self):
        # all biases start at zero, so the dense entry block maps zero to zero
        dec = tiny_decoder()
        u0 = dec.extract_latents(Tensor(np.zeros((1, 3, 16, 16))))[0]
        np.testing.assert_array_equal(u0.data, 0.0)

    def test_perturbation_locality(self):
        dec = tiny_decoder(seed=2)
        base = make_rng(3).standard_normal((1, 3, 32, 32))
        bumped = base.copy()
        bumped[:, :, :8, :8] += 1.0
        clean = dec.extract_latents(Tensor(base))
        dirty = dec.extract_latents(Tensor(bumped))
        # receptive radii: entry+RRDB = 10 px, then each stage adds
        # (stride, then 2*stride) px; safe rows follow from the cones
        for scale, safe_row in ((0, 18), (1, 11), (2, 7)):
            diff = np.abs(dirty[scale].data - clean[scale].data)
            assert diff[:, :, safe_row:, safe_row:].max() == 0.0
            assert diff[:, :, 0, 0].max() > 0.0


class TestRrdb:
    def test_zero_weights_give_scaled_residual(self):
        # zero convs make every dense block the identity, so the outer
        # residual adds the input back once more: x + 0.2 * x
        block = decoder.RRDB(2, 2, make_rng(4))
        for _, param in block.named_parameters():
            param.data[:] = 0.0
        x = Tensor(make_rng(5).standard_normal((1, 2, 6, 6)))
        np.testing.assert_array_equal(block(x).data, x.data + 0.2 * x.data)

    def test_residual_scaling(self):
        block = decoder.DenseBlock(1, 1, make_rng(6))
        x = Tensor(make_rng(7).standard_normal((1, 1, 5, 5)))
        out = block(x)
        inner = (out.data - x.data) / decoder.RESIDUAL_SCALE
        assert np.abs(inner).max() > 0.0


class TestPagnet:
    def test_weights_sum_to_one(self):
        net = decoder.PagNet(3, make_rng(8))
        v = Tensor(make_rng(9).standard_normal((2, 3, 4, 4)))
        u = Tensor(make_rng(10).standard_normal((2, 3, 4, 4)))
        for snr in range(0, 21, 4):
            w = net.stream_weights(v, u, snr)
            np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9)

    def test_symmetric_logits_average_streams(self):
        net = decoder.PagNet(3, make_rng(11))
        net.conv_v.weight.data[:] = 0.0
        net.conv_u.weight.data[:] = 0.0
        net.conv_v.bias.data[:] = 0.0
        net.conv_u.bias.data[:] = 0.0
        v = Tensor(make_rng(12).standard_normal((1, 3, 4, 4)))
        u = Tensor(make_rng(13).standard_normal((1, 3, 4, 4)))
        out = net(v, u, 10)
        np.testing.assert_allclose(out.data, (v.data + u.data) / 2.0, atol=1e-12)

    def test_saturated_logit_selects_single_stream(self):
        net = decoder.PagNet(3, make_rng(14))
        net.conv_v.weight.data[:] = 0.0
        net.conv_u.weight.data[:] = 0.0
        net.conv_v.bias.data[:] = [20.0, 0.0, 0.0]
        net.conv_u.bias.data[:] = [-20.0, 0.0, 0.0]
        net.proj.weight.data[:] = 0.0
        net.proj.bias.data[:] = 1.0
        net.fc.data[:] = np.array([[1.0], [0.0], [0.0]])
        v = Tensor(make_rng(15).standard_normal((1, 3, 4, 4)))
        u = Tensor(make_rng(16).standard_normal((1, 3, 4, 4)))
        np.testing.assert_allclose(net(v, u, 10).data, v.data, atol=1e-12)

    def test_sigmoid_gate_matches_two_stream_softmax(self):
        # the sigmoid of one score difference is the two-stream softmax of
        # the per-stream logits, whatever bias the logits share. The second
        # pass gives each stream's conv its own bias, the third scales fc
        # so that the scores reach +-40, where both saturate
        net = decoder.PagNet(3, make_rng(40))
        v = Tensor(make_rng(41).standard_normal((2, 3, 5, 5)))
        u = Tensor(make_rng(42).standard_normal((2, 3, 5, 5)))

        def peak_score():
            weights = [pagnet_softmax_oracle(net, v, u, snr)[0] for snr in range(21)]
            return max(np.abs(np.log(w[:, 0]) - np.log(w[:, 1])).max() for w in weights)

        def assert_matches_oracle():
            for snr in range(21):
                weights, fused = pagnet_softmax_oracle(net, v, u, snr, bias=0.3 * snr - 2.0)
                np.testing.assert_allclose(
                    net.stream_weights(v, u, snr).data, weights, rtol=0, atol=1e-12
                )
                np.testing.assert_allclose(net(v, u, snr).data, fused, rtol=0, atol=1e-12)

        assert_matches_oracle()
        net.conv_v.bias.data[:] = [0.7, -1.3, 0.4]
        net.conv_u.bias.data[:] = [-0.2, 0.5, 0.9]
        assert_matches_oracle()
        net.fc.data *= 40.0 / peak_score()
        assert peak_score() == pytest.approx(40.0)
        assert_matches_oracle()

    def test_score_weight_is_bias_free_and_drawn_where_a_linear_drew_it(self):
        # fc takes the rng draw of the former Linear(channels, 1), so every
        # parameter keeps the bytes it had when fc was that layer's weight
        net = decoder.PagNet(3, make_rng(43))
        assert [n for n, _ in net.named_parameters()] == [
            "fc", "conv_v.weight", "conv_v.bias", "conv_u.weight", "conv_u.bias",
            "snr_embed.table", "proj.weight", "proj.bias",
        ]
        rng = make_rng(43)
        layers = [
            Conv2d(3, 3, 3, rng), Conv2d(3, 3, 3, rng),
            Embedding(decoder.SNR_LEVELS, decoder.SNR_EMBED_DIM, rng),
            Linear(decoder.SNR_EMBED_DIM, 3, rng), Linear(3, 1, rng),
        ]
        drawn = [p.data for layer in layers for _, p in layer.named_parameters()]
        fc, *rest = (p.data for _, p in net.named_parameters())
        assert fc.shape == (3, 1) and fc.tobytes() == layers[-1].weight.data.tobytes()
        assert [a.tobytes() for a in rest] == [a.tobytes() for a in drawn[:-2]]

    def test_snr_changes_weights(self):
        net = decoder.PagNet(3, make_rng(17))
        v = Tensor(make_rng(18).standard_normal((1, 3, 4, 4)))
        u = Tensor(make_rng(19).standard_normal((1, 3, 4, 4)))
        low = net.stream_weights(v, u, 0).data
        high = net.stream_weights(v, u, 20).data
        assert np.abs(low - high).max() > 1e-6

    def test_snr_clipped_to_table(self):
        net = decoder.PagNet(3, make_rng(20))
        v = Tensor(make_rng(21).standard_normal((1, 3, 2, 2)))
        u = Tensor(make_rng(22).standard_normal((1, 3, 2, 2)))
        np.testing.assert_array_equal(
            net.stream_weights(v, u, -7).data, net.stream_weights(v, u, 0).data
        )
        np.testing.assert_array_equal(
            net.stream_weights(v, u, 33).data, net.stream_weights(v, u, 20).data
        )

    def test_out_of_range_snr_pins_to_end_levels(self):
        # the documented policy: round to whole dB, then clip to the table
        net = decoder.PagNet(3, make_rng(20))
        looked_up = []
        table = net.snr_embed

        def spy(index):
            looked_up.append(list(index))
            return table(index)

        net.snr_embed = spy
        v = Tensor(make_rng(21).standard_normal((1, 3, 2, 2)))
        u = Tensor(make_rng(22).standard_normal((1, 3, 2, 2)))
        for snr in (-3.0, 25.0, 2.5, 7.6):
            net.stream_weights(v, u, snr)
        assert looked_up == [[0], [decoder.SNR_LEVELS - 1], [2], [8]]
        assert decoder.SNR_LEVELS - 1 == 20

    def test_shape_mismatch_rejected(self):
        net = decoder.PagNet(3, make_rng(23))
        with pytest.raises(DimensionError, match="stream"):
            net(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))), 5)


class TestDecode:
    def test_output_shape_and_range(self):
        dec = tiny_decoder(seed=24)
        x_c = Tensor(make_rng(25).uniform(0, 1, (1, 3, 16, 16)))
        s_hat = Tensor(make_rng(26).standard_normal((1, 2, 4, 4)))
        out = dec(x_c, s_hat, 10)
        assert out.data.shape == (1, 3, 16, 16)
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_semantic_grid_mismatch_rejected(self):
        dec = tiny_decoder(seed=27)
        x_c = Tensor(np.zeros((1, 3, 16, 16)))
        with pytest.raises(DimensionError, match="latent"):
            dec(x_c, Tensor(np.zeros((1, 2, 8, 8))), 10)

    def test_no_parameters_shared_between_scales(self):
        dec = decoder.SemanticDecoder(make_rng(28))
        ids = [set(id(p) for p in net.parameters()) for net in dec.pagnets]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                assert not (ids[i] & ids[j])

    def test_deepest_latent_must_equal_c_s(self):
        # s_hat, c_s = encoder_widths[-1] channels wide, meets the deepest latent
        cfg = pipeline.ModelConfig(encoder_widths=(2, 4), latent_widths=(2, 2, 2), growth=2)
        with pytest.raises(ValueError, match="deepest latent width must equal c_s = 4"):
            pipeline.SemanticModel(cfg)

    def test_pagnet_gradients_match_finite_differences(self):
        dec = tiny_decoder(seed=30)
        x_c = Tensor(make_rng(31).uniform(0, 1, (1, 3, 8, 8)))
        s_hat = Tensor(make_rng(32).standard_normal((1, 2, 2, 2)))
        target = make_rng(33).uniform(0, 1, (1, 3, 8, 8))
        params = [p for net in dec.pagnets for p in net.parameters()]

        def loss():
            out = dec(x_c, s_hat, 7)
            err = out - Tensor(target)
            return (err * err).mean()

        assert gradcheck(loss, params) < 1e-4
