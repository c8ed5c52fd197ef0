"""Shared test utilities: finite-difference gradient checks and
brute-force oracles that the fast implementations are compared against."""

import numpy as np


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


def max_rel_error(analytic, numeric):
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradcheck(fn, tensors, eps=1e-4):
    """Compare backward() gradients of the scalar ``fn()`` against central
    finite differences for every tensor in ``tensors``. ``fn`` must rebuild
    the graph on each call. Returns the worst relative error observed."""
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
            hi = float(fn().data)
            flat[idx] = orig - eps
            lo = float(fn().data)
            flat[idx] = orig
            nflat[idx] = (hi - lo) / (2.0 * eps)
        worst = max(worst, max_rel_error(analytic, numeric))
    return worst


def projection_loss(out, proj):
    """Reduce a tensor to a scalar through a fixed random projection so a
    gradient check exercises the whole Jacobian, not just the row sums."""
    return (out * proj).sum()


def toy_model(seed=0):
    """A two-scale semantic model small enough for finite differences
    and for quick end-to-end training runs on 8x8 images."""
    from parastream.pipeline import ModelConfig, SemanticModel

    cfg = ModelConfig(
        c_s=4,
        encoder_widths=(4, 4),
        latent_widths=(4, 4, 4),
        up_widths=(4, 3),
        growth=2,
        init_seed=seed,
    )
    return SemanticModel(cfg)


def toy_images(n=3, size=8):
    from parastream import data

    return data.make_corpus(count=n, size=size, seed=500)
