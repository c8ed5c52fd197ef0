"""Spans around parastream's public entry points, installed from outside.

Nothing under ``src/`` changes: each entry below is replaced, for the
length of a traced pass, by a wrapper that opens a span, counts the call
and the work it did, and restores the original afterwards. A name that
one module imports from another (``pipeline.transmit``,
``training._send_conventional``) is wrapped where it is looked up.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from parastream import autodiff, codec, decoder, encoder, layers, ldpc, metrics, pipeline, rate, training
from recorder import self_time_by_name


def _conv2d_work(rec, args, out):
    c_out, c_in, k, _ = np.shape(getattr(args[1], "data", args[1]))
    batch, _, h_out, w_out = out.data.shape
    rec.count("autodiff.conv2d.flop", 2 * batch * c_out * h_out * w_out * c_in * k * k)


def _decode_work(rec, args, out):
    _, converged, iters = out
    rec.count("ldpc.frames", int(np.size(converged)))
    rec.count("ldpc.converged", int(np.sum(converged)))
    rec.count("ldpc.iterations", int(np.sum(iters)))


def _compress_work(rec, args, out):
    rec.count("codec.bytes", len(out))


def _allocate_work(rec, args, out):
    rec.count("rate.semantic_dims", int(out.totals().sum()))
    rec.count("rate.clamped_patches", int(out.clamped))


def _modulate_work(rec, args, out):
    rec.count("modem.symbols", int(np.size(out)))


def _channel_work(rec, args, out):
    rec.count("channel.symbols", int(np.size(out[0])))


# (owner, attribute, span name, work counter)
ENTRIES = (
    (autodiff, "conv2d", "autodiff.conv2d", _conv2d_work),
    (autodiff, "conv_transpose2d", "autodiff.conv_transpose2d", None),
    (autodiff, "gdn", "autodiff.gdn", None),
    (autodiff.Tensor, "backward", "autodiff.backward", None),
    (ldpc, "ldpc_encode", "ldpc.encode", None),
    (ldpc, "ldpc_decode_bp", "ldpc.decode", _decode_work),
    (codec, "compress", "codec.compress", _compress_work),
    (codec, "decompress", "codec.decompress", None),
    (metrics, "ms_ssim", "metrics.ms_ssim", None),
    (metrics, "psnr", "metrics.psnr", None),
    (rate.HyperSynthesis, "__call__", "rate.hyper", None),
    (rate, "allocate_rates", "rate.allocate", _allocate_work),
    (rate.RateBanks, "encode", "rate.banks_encode", None),
    (rate.RateBanks, "decode", "rate.banks_decode", None),
    (rate, "pack_rate_indices", "rate.side_pack", None),
    (rate, "unpack_rate_indices", "rate.side_pack", None),
    (encoder.SemanticEncoder, "__call__", "encoder.forward", None),
    (decoder.SemanticDecoder, "__call__", "decoder.forward", None),
    (decoder.PagNet, "__call__", "decoder.pagnet", None),
    (pipeline, "qpsk_modulate", "modem.modulate", _modulate_work),
    (pipeline, "qpsk_soft_demod", "modem.demod", None),
    (pipeline, "transmit", "channel.transmit", _channel_work),
    (pipeline, "transmit_image", "pipeline.transmit_image", None),
    (pipeline, "_send_conventional", "pipeline.send_conventional", None),
    (training, "_send_conventional", "pipeline.send_conventional", None),
    (training, "training_forward", "training.forward", None),
    (training.Adam, "step", "training.adam", None),
)

# counted but not timed: one call per feature patch, too fine to span
COUNTED = ((layers.Linear, "__call__", "layers.linear"),)


def _wrap(rec, name, fn, work):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.count(name + ".calls")
        index = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except Exception:
            rec.count(name + ".errors")
            raise
        finally:
            rec.close(index)
        if work is not None:
            work(rec, args, out)
        return out

    return traced


def _count(rec, name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.count(name + ".calls")
        return fn(*args, **kwargs)

    return counted


@contextlib.contextmanager
def traced(rec):
    """Install every wrapper for the body of the ``with`` block."""
    saved = []
    try:
        for owner, attr, name, work in ENTRIES:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, _wrap(rec, name, vars(owner)[attr], work))
        for owner, attr, name in COUNTED:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, _count(rec, name, vars(owner)[attr]))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(rec, ops: int):
    """Per-layer values of one traced pass over ``ops`` operations.

    Times are self time in ms per operation; counts are totals over the
    pass, so they repeat exactly for a fixed seed. Returns (values,
    bases), where bases names the denominator of every ratio.
    """
    own = self_time_by_name(rec.spans)
    c = rec.counts

    def ms(name):
        return 1e3 * own.get(name, 0.0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        f"{name}.self_ms": ms(name)
        for name in sorted({name for _, _, name, _ in ENTRIES})
    }
    conv_ms = 1e3 * own.get("autodiff.conv2d", 0.0)
    mflop = c["autodiff.conv2d.flop"] / 1e6
    values.update(
        {
            "autodiff.conv2d.calls": c["autodiff.conv2d.calls"],
            "autodiff.conv2d.mflop": mflop,
            "autodiff.conv2d.gflop_per_s": ratio(mflop, conv_ms),
            "autodiff.conv_transpose2d.calls": c["autodiff.conv_transpose2d.calls"],
            "ldpc.frames": c["ldpc.frames"],
            "ldpc.iterations": c["ldpc.iterations"],
            "ldpc.converged_ratio": ratio(c["ldpc.converged"], c["ldpc.frames"]),
            "ldpc.decode.us_per_frame_iter": ratio(
                1e6 * own.get("ldpc.decode", 0.0), c["ldpc.iterations"]
            ),
            "codec.bytes": c["codec.bytes"],
            "codec.decompress.error_ratio": ratio(
                c["codec.decompress.errors"], c["codec.decompress.calls"]
            ),
            "rate.semantic_dims": c["rate.semantic_dims"],
            "rate.clamped_patches": c["rate.clamped_patches"],
            "layers.linear.calls": c["layers.linear.calls"],
            "modem.symbols": c["modem.symbols"],
            "channel.symbols": c["channel.symbols"],
        }
    )
    bases = {
        "*.self_ms": f"self time per operation, {ops} operations",
        "autodiff.conv2d.gflop_per_s": f"{mflop:.3f} MFLOP over {conv_ms:.3f} ms of forward conv2d",
        "ldpc.converged_ratio": f"{c['ldpc.converged']} of {c['ldpc.frames']} frames",
        "ldpc.decode.us_per_frame_iter": f"decode self time over {c['ldpc.iterations']} frame-iterations",
        "codec.decompress.error_ratio": (
            f"{c['codec.decompress.errors']} of {c['codec.decompress.calls']} calls"
        ),
    }
    return values, bases
