"""Command line front end: train, transmit, sweep, codec, fec-bench."""

from __future__ import annotations

import argparse
import sys

from . import codec, data, experiment, metrics, training
from .channel import ChannelConfig
from .codec import CodecError
from .config import ConfigError, default_config_text
from .ldpc import MAX_ITER_DEFAULT, LdpcError
from .pipeline import (
    DEFAULT_TABLE,
    ModelConfig,
    PipelineConfig,
    SemanticModel,
    transmit_image,
)


def _floats(text):
    return tuple(float(p) for p in text.split(","))


def _ints(text):
    return tuple(int(p) for p in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parastream",
        description="Parallel-stream image transmission simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the three-stage schedule and save a model")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--size", type=int, default=16, help="corpus image size")
    p.add_argument("--count", type=int, default=32, help="corpus image count")
    p.add_argument("--corpus-seed", type=int, default=1000)
    p.add_argument("--steps", type=_ints, default=(500, 150, 400),
                   help="steps per stage, e.g. 500,150,400")
    p.add_argument("--lr", type=_floats, default=(1e-3, 1e-3, 3e-4),
                   help="learning rate per stage")
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--lambda1", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snr-set", type=_floats, default=training.TRAIN_SNRS_DB)

    p = sub.add_parser("transmit", help="send one PPM image through both branches")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="reconstruction PPM path")
    p.add_argument("--snr", type=float, required=True, help="channel SNR in dB")
    p.add_argument("--q", type=int, default=50)
    p.add_argument("--model", help="trained checkpoint; fresh weights when omitted")
    p.add_argument("--conventional-only", action="store_true")
    p.add_argument("--kind", choices=("awgn", "rayleigh_block"), default="awgn")
    p.add_argument("--block-len", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ldpc-table", default=DEFAULT_TABLE,
                   help="bundled table name or a path to one")

    p = sub.add_parser("sweep", help="run a configured evaluation sweep")
    p.add_argument("--config", help="experiment .ini path")
    p.add_argument("--template", action="store_true",
                   help="print a commented default config and exit")

    p = sub.add_parser("codec", help="round-trip one image through the codec")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--q", type=int, default=50)
    p.add_argument("--bitstream", help="also write the compressed bytes here")

    p = sub.add_parser("fec-bench", help="measure coded frame error rates")
    p.add_argument("--snr", type=_floats, default=(2.0, 4.0, 6.0))
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=MAX_ITER_DEFAULT)
    p.add_argument("--ldpc-table", default=DEFAULT_TABLE)
    return parser


def cmd_train(args):
    corpus = data.make_corpus(args.count, args.size, args.corpus_seed)
    if len(args.steps) != 3 or len(args.lr) != 3:
        raise ValueError("--steps and --lr need one value per stage")
    model = SemanticModel(ModelConfig(init_seed=args.seed))
    pcfg = PipelineConfig(lambda1=args.lambda1)
    full_history = []
    for stage in (1, 2, 3):
        cfg = training.TrainConfig(
            stage=stage,
            steps=args.steps[stage - 1],
            lr=args.lr[stage - 1],
            batch_size=args.batch,
            snr_set=args.snr_set,
            seed=args.seed,
        )
        model, history = training.train(cfg, corpus, model, pcfg)
        full_history.extend(history)
        print(
            f"stage {stage}: {cfg.steps} steps, "
            f"loss {history[0]:.1f} -> {history[-1]:.1f}"
        )
    training.save_model(args.out, model, full_history)
    print(f"saved {args.out}")
    return 0


def cmd_transmit(args):
    image = data.read_ppm(args.image)
    model = None
    if args.model and not args.conventional_only:
        model, _ = training.load_model(args.model)
    cfg = PipelineConfig(
        q=args.q,
        code=args.ldpc_table,
        channel=ChannelConfig(
            kind=args.kind, snr_db=args.snr, block_len=args.block_len
        ),
        semantic=not args.conventional_only,
    )
    x_hat, frame, report = transmit_image(image, cfg, seed=args.seed, model=model)
    data.write_ppm(args.out, x_hat)
    print(f"psnr_db={report['psnr_db']:.3f} ms_ssim={report['ms_ssim']:.4f}")
    print(
        f"cbr={report['cbr']:.4f} symbols={frame.n} "
        f"corrupted={'yes' if report['corrupted'] else 'no'}"
    )
    return 0


def cmd_sweep(args):
    if args.template:
        print(default_config_text(), end="")
        return 0
    if not args.config:
        raise ConfigError("sweep needs --config (or --template)")
    paths = experiment.run_experiment(args.config)
    for path in paths:
        print(path)
    return 0


def cmd_codec(args):
    image = data.read_ppm(args.image)
    blob = codec.compress(image, args.q)
    restored = codec.decompress(blob)
    data.write_ppm(args.out, restored)
    if args.bitstream:
        with open(args.bitstream, "wb") as fh:
            fh.write(blob)
    bpp = 8.0 * len(blob) / (image.shape[0] * image.shape[1])
    print(
        f"q={args.q} bytes={len(blob)} bpp={bpp:.3f} "
        f"psnr_db={metrics.psnr(image, restored):.3f}"
    )
    return 0


def cmd_fec_bench(args):
    for snr_db in args.snr:
        fer = experiment.fer_monte_carlo(
            snr_db,
            args.frames,
            seed=args.seed,
            code=args.ldpc_table,
            max_iter=args.max_iter,
        )
        print(f"snr_db={snr_db:g} fer={fer:.6g} frames={args.frames}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "transmit": cmd_transmit,
    "sweep": cmd_sweep,
    "codec": cmd_codec,
    "fec-bench": cmd_fec_bench,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, CodecError, LdpcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
