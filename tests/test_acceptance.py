"""Acceptance battery: ten release criteria, one test each.

Every test prints a single ``ACCEPTANCE n <label>: PASS/FAIL`` line
(visible with ``pytest -s``) and pins its tolerances in the constants
below. The desk-scale training criterion reuses the session-scoped
``trained_desk_model`` fixture so the schedule runs once.
"""

import math
import time

import numpy as np

from helpers import gradcheck, projection_loss
from parastream import codec, data, experiment, ldpc, pipeline
from parastream.autodiff import Tensor
from parastream.channel import ChannelConfig, transmit
from parastream.decoder import RRDB, PagNet
from parastream.encoder import Rem
from parastream.layers import GDN, Conv2d, ConvTranspose2d, Embedding, Linear, PReLU
from parastream.pipeline import ModelConfig, PipelineConfig, SemanticModel
from parastream.rate import (
    RATE_SET,
    RHO,
    FactorizedPrior,
    HyperSynthesis,
    RateBanks,
    allocate_rates,
    likelihood,
    rate_term,
)

GRAD_TOL = 1e-4
GRAD_BUDGET_S = 60.0
GRAD_MAX_ELEMENTS = 500

CODEC_ROUND_TRIPS = 200
CODEC_QS = (1, 10, 50, 90, 100)
DCT_ORTHO_TOL = 1e-9

LDPC_ENCODES = 1000
LDPC_FLIPS = 100
FER_PLAN = ((2.0, 400), (4.0, 400), (6.0, 2000))
FER_CEILING = 1e-2
LDPC_BUDGET_S = 300.0

PMF_TOL = 1e-6
LIKELIHOOD_AT_ZERO = 0.382925
LIKELIHOOD_TOL = 1e-5

ALPHA_SAMPLES = 10_000

WEIGHT_SUM_TOL = 1e-9

NOISE_POWER_RTOL = 0.01
RAYLEIGH_GAIN_BAND = (0.99, 1.01)
CHANNEL_SYMBOLS = 1_000_000

TRAIN_BUDGET_S = 900.0
STAGE1_MIN_DROP = 0.30
EVAL_TRIALS = 32
EVAL_CHANNEL_SEED = 7
PSNR_CAP_DB = 99.0

CLIFF_MIN_DROP_DB = 5.0


def _verdict(num, label, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _leaf(rng, shape, scale=1.0, offset=0.0):
    return Tensor(offset + scale * rng.normal(size=shape), requires_grad=True)


def _gradient_battery(rng):
    """(name, fn, tensors) triples covering every layer and composite.

    Each fn rebuilds its graph from the listed leaves so central
    differences stay valid; projections keep the losses full-rank.
    """
    battery = []

    conv = Conv2d(2, 3, 3, rng, stride=2)
    x = _leaf(rng, (1, 2, 5, 5))
    p = rng.normal(size=(1, 3, 3, 3))
    battery.append(
        ("conv2d", lambda: projection_loss(conv(x), p), [*conv.parameters(), x])
    )

    tconv = ConvTranspose2d(2, 3, 4, rng, stride=2, padding=1)
    xt = _leaf(rng, (1, 2, 3, 3))
    pt = rng.normal(size=(1, 3, 6, 6))
    battery.append(
        ("tconv2d", lambda: projection_loss(tconv(xt), pt), [*tconv.parameters(), xt])
    )

    lin = Linear(5, 4, rng)
    xl = _leaf(rng, (3, 5))
    pl = rng.normal(size=(3, 4))
    battery.append(
        ("linear", lambda: projection_loss(lin(xl), pl), [*lin.parameters(), xl])
    )

    emb = Embedding(6, 4, rng)
    pe = rng.normal(size=(3, 4))
    battery.append(
        ("embedding", lambda: projection_loss(emb([0, 2, 5]), pe), list(emb.parameters()))
    )

    prelu = PReLU(3)
    xp = _leaf(rng, (1, 3, 4, 4))
    pp = rng.normal(size=(1, 3, 4, 4))
    battery.append(
        ("prelu", lambda: projection_loss(prelu(xp), pp), [*prelu.parameters(), xp])
    )

    for name, inverse in (("gdn", False), ("igdn", True)):
        gdn = GDN(3, inverse=inverse)
        xg = _leaf(rng, (1, 3, 3, 3), scale=0.5, offset=1.0)
        pg = rng.normal(size=(1, 3, 3, 3))
        battery.append(
            (
                name,
                lambda gdn=gdn, xg=xg, pg=pg: projection_loss(gdn(xg), pg),
                [*gdn.parameters(), xg],
            )
        )

    rem = Rem(2, 3, rng)
    ry = _leaf(rng, (1, 2, 6, 6))
    rr = _leaf(rng, (1, 2, 6, 6))
    py = rng.normal(size=(1, 3, 3, 3))
    pr = rng.normal(size=(1, 3, 3, 3))

    def rem_loss():
        y, r = rem(ry, rr)
        return projection_loss(y, py) + projection_loss(r, pr)

    battery.append(("rem", rem_loss, [*rem.parameters(), ry, rr]))

    rrdb = RRDB(3, 2, rng)
    xr = _leaf(rng, (1, 3, 4, 4))
    prr = rng.normal(size=(1, 3, 4, 4))
    battery.append(
        ("rrdb", lambda: projection_loss(rrdb(xr), prr), [*rrdb.parameters(), xr])
    )

    pag = PagNet(3, rng, embed_dim=4, levels=5)
    v = _leaf(rng, (1, 3, 3, 3))
    u = _leaf(rng, (1, 3, 3, 3))
    pv = rng.normal(size=(1, 3, 3, 3))
    battery.append(
        (
            "pagnet",
            lambda: projection_loss(pag(v, u, 2.4), pv),
            [*pag.parameters(), v, u],
        )
    )

    hyper = HyperSynthesis(2, 2, rng)
    rh = _leaf(rng, (1, 2, 3, 3))
    pm = rng.normal(size=(1, 2, 3, 3))
    ps = rng.normal(size=(1, 2, 3, 3))

    def hyper_loss():
        mu, sigma = hyper(rh)
        return projection_loss(mu, pm) + projection_loss(sigma, ps)

    battery.append(("hyper", hyper_loss, [*hyper.parameters(), rh]))

    prior = FactorizedPrior(2, rng)
    st = _leaf(rng, (1, 2, 2, 2))
    rt = _leaf(rng, (1, 2, 2, 2))
    mu = _leaf(rng, (1, 2, 2, 2), scale=0.3)
    sigma = _leaf(rng, (1, 2, 2, 2), scale=0.2, offset=1.0)
    battery.append(
        (
            "rate-term",
            lambda: rate_term(st, rt, mu, sigma, prior),
            [*prior.parameters(), st, rt, mu, sigma],
        )
    )

    banks = RateBanks(3, rng, rate_set=(4, 8))
    sb = _leaf(rng, (1, 3, 1, 2))
    # patch 0 stays at the smallest rate, patch 1 ceilings into the next one
    probs = np.stack([np.full(3, 0.5), np.full(3, 2.0 ** -10.0)], axis=-1)
    alloc = allocate_rates(probs.reshape(1, 3, 1, 2))
    assert tuple(alloc.alpha_bar.reshape(-1)) == (4, 8)
    pb = rng.normal(size=(1, 3, 1, 2))

    def banks_loss():
        reals = banks.encode(sb, alloc)
        return projection_loss(banks.decode(reals, alloc.alpha_bar), pb)

    battery.append(("rate-banks", banks_loss, [*banks.parameters(), sb]))

    return battery


def test_01_gradient_suite():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    worst_name = ""
    for name, fn, tensors in _gradient_battery(rng):
        assert max(t.data.size for t in tensors) <= GRAD_MAX_ELEMENTS
        err = gradcheck(fn, tensors)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.perf_counter() - start
    ok = worst < GRAD_TOL and elapsed < GRAD_BUDGET_S
    _verdict(
        1,
        "gradient suite",
        ok,
        f"worst rel err {worst:.2e} ({worst_name}), {elapsed:.1f}s",
    )


def test_02_codec_round_trip():
    rng = np.random.default_rng(7)
    for i in range(CODEC_ROUND_TRIPS):
        q = CODEC_QS[i % len(CODEC_QS)]
        shape = (int(rng.integers(1, 33)), int(rng.integers(1, 33)), int(rng.integers(1, 5)))
        x = rng.random(shape)
        y = codec.decompress(codec.compress(x, q))
        assert y.shape == x.shape
        assert np.isfinite(y).all() and y.min() >= 0.0 and y.max() <= 1.0

    fixed = data.blob_image(np.random.default_rng(11), 32)
    sizes = [len(codec.compress(fixed, q)) for q in CODEC_QS]
    monotone = all(a <= b for a, b in zip(sizes, sizes[1:]))

    ortho = max(
        float(np.abs(codec.DCT @ codec.DCT.T - np.eye(8)).max()),
        float(np.abs(codec.DCT.T @ codec.DCT - np.eye(8)).max()),
    )
    ok = monotone and ortho < DCT_ORTHO_TOL
    _verdict(
        2,
        "codec round trip",
        ok,
        f"{CODEC_ROUND_TRIPS} images, sizes {sizes}, DCT err {ortho:.1e}",
    )


def test_03_ldpc_code():
    start = time.perf_counter()
    pcm = pipeline.load_code()
    rng = np.random.default_rng(3)

    info = rng.integers(0, 2, size=(LDPC_ENCODES, pcm.k)).astype(np.uint8)
    codewords = ldpc.ldpc_encode(pcm, info)
    syndrome_ok = not ldpc.syndrome(pcm, codewords).any()

    subset = codewords[:LDPC_FLIPS]
    llr = (1.0 - 2.0 * subset) * 8.0
    llr[np.arange(LDPC_FLIPS), rng.integers(0, pcm.n, LDPC_FLIPS)] *= -1.0
    decoded, converged, _ = ldpc.ldpc_decode_bp(pcm, llr)
    repaired = int((converged & (decoded == subset).all(axis=1)).sum())

    fers = {
        snr: experiment.fer_monte_carlo(snr, frames, seed=int(10 + snr))
        for snr, frames in FER_PLAN
    }
    elapsed = time.perf_counter() - start
    ok = (
        syndrome_ok
        and repaired == LDPC_FLIPS
        and fers[6.0] < FER_CEILING
        and fers[2.0] >= fers[4.0] >= fers[6.0]
        and elapsed < LDPC_BUDGET_S
    )
    _verdict(
        3,
        "ldpc code",
        ok,
        f"flips {repaired}/{LDPC_FLIPS}, FER {fers[2.0]:.3g}/{fers[4.0]:.3g}/"
        f"{fers[6.0]:.3g} at 2/4/6 dB, {elapsed:.1f}s",
    )


def test_04_entropy_model():
    lattice = np.arange(-64, 65, dtype=np.float64)
    worst = 0.0
    points = 0
    for mu in np.linspace(-3.0, 3.0, 12):
        for sigma in np.logspace(np.log10(0.15), np.log10(6.0), 10):
            p = likelihood(
                Tensor(lattice),
                Tensor(np.full_like(lattice, mu)),
                Tensor(np.full_like(lattice, sigma)),
            )
            worst = max(worst, abs(float(p.data.sum()) - 1.0))
            points += 1
    at_zero = float(
        likelihood(Tensor([0.0]), Tensor([0.0]), Tensor([1.0])).data[0]
    )
    ok = (
        points >= 100
        and worst <= PMF_TOL
        and abs(at_zero - LIKELIHOOD_AT_ZERO) <= LIKELIHOOD_TOL
    )
    _verdict(
        4,
        "entropy model",
        ok,
        f"{points} grid points, worst |sum-1| {worst:.2e}, p(0|0,1)={at_zero:.6f}",
    )


def test_05_rate_allocation_and_symbol_budget(monkeypatch):
    rng = np.random.default_rng(19)
    targets = rng.uniform(0.0, 160.0, size=(1, 1, 100, 100))
    alloc = allocate_rates(np.exp2(-targets / RHO))
    rates = alloc.alpha_bar
    in_set = bool(np.isin(rates, RATE_SET).all())
    mask = alloc.alpha <= max(RATE_SET)
    ceiling = bool((rates[mask] >= alloc.alpha[mask]).all())
    clamp_count = alloc.clamped == int((alloc.alpha > max(RATE_SET)).sum())

    sent = []
    original = pipeline.transmit

    def spy(z, cfg, trial=0):
        sent.append(np.asarray(z).shape[-1])
        return original(z, cfg, trial)

    monkeypatch.setattr(pipeline, "transmit", spy)
    model = SemanticModel(ModelConfig())
    images = data.make_corpus(count=2, size=16, seed=77)
    budget_ok = True
    runs = 0
    for kind, block, snr, semantic in (
        ("awgn", 1, 2.0, True),
        ("awgn", 1, 10.0, True),
        ("awgn", 1, 6.0, False),
        ("rayleigh_block", 64, 10.0, True),
    ):
        cfg = PipelineConfig(
            channel=ChannelConfig(kind=kind, snr_db=snr, seed=5, block_len=block),
            semantic=semantic,
        )
        for img in images:
            sent.clear()
            _, frame, report = pipeline.transmit_image(
                img, cfg, seed=3, model=model if semantic else None
            )
            declared = frame.image_symbols + frame.semantic_symbols + frame.side_symbols
            budget_ok &= sum(sent) == frame.image_symbols + frame.semantic_symbols
            budget_ok &= frame.n == declared
            budget_ok &= frame.semantic_symbols == math.ceil(frame.semantic_dims / 2)
            budget_ok &= report["cbr"] == frame.n / frame.k
            runs += 1

    ok = in_set and ceiling and clamp_count and budget_ok
    _verdict(
        5,
        "rate allocation",
        ok,
        f"{targets.size} alphas ceilinged, budget exact on {runs} runs",
    )


def test_06_aggregation_weights():
    rng = np.random.default_rng(23)
    pag = PagNet(6, rng)
    worst = 0.0
    for snr in range(0, 21):
        v = Tensor(rng.normal(size=(2, 6, 5, 5)))
        u = Tensor(rng.normal(size=(2, 6, 5, 5)))
        weights = pag.stream_weights(v, u, float(snr)).data
        worst = max(worst, float(np.abs(weights.sum(axis=1) - 1.0).max()))

    model = SemanticModel(ModelConfig())
    owners = [set(map(id, p.parameters())) for p in model.decoder.pagnets]
    disjoint = all(
        not (owners[i] & owners[j])
        for i in range(len(owners))
        for j in range(i + 1, len(owners))
    )
    ok = worst <= WEIGHT_SUM_TOL and len(owners) >= 2 and disjoint
    _verdict(
        6,
        "aggregation weights",
        ok,
        f"worst |sum-1| {worst:.1e} over 21 SNRs, {len(owners)} disjoint instances",
    )


def test_07_channel_statistics():
    z = np.ones(CHANNEL_SYMBOLS, dtype=np.complex128)

    awgn = ChannelConfig(kind="awgn", snr_db=7.0, seed=3)
    y, real = transmit(z, awgn, trial=0)
    emp = float(np.mean(np.abs(y - real.h * z) ** 2))
    target = 10.0 ** (-0.7)
    noise_ok = abs(emp / target - 1.0) <= NOISE_POWER_RTOL

    fading = ChannelConfig(kind="rayleigh_block", snr_db=10.0, seed=4, block_len=1)
    _, real_f = transmit(z, fading, trial=0)
    gain = float(np.mean(np.abs(real_f.h) ** 2))
    gain_ok = RAYLEIGH_GAIN_BAND[0] <= gain <= RAYLEIGH_GAIN_BAND[1]

    deterministic = True
    for cfg in (awgn, fading):
        ya, _ = transmit(z[:4096], cfg, trial=9)
        yb, _ = transmit(z[:4096], cfg, trial=9)
        deterministic &= ya.tobytes() == yb.tobytes()

    ok = noise_ok and gain_ok and deterministic
    _verdict(
        7,
        "channel statistics",
        ok,
        f"noise power off by {abs(emp / target - 1.0):.2%}, E|h|^2={gain:.4f}, "
        f"replay byte-exact={deterministic}",
    )


def _mean_psnr(images, snr_db, semantic, model):
    values = []
    for trial in range(EVAL_TRIALS):
        cfg = PipelineConfig(
            channel=ChannelConfig(
                kind="awgn", snr_db=snr_db, seed=EVAL_CHANNEL_SEED
            ),
            semantic=semantic,
        )
        _, _, report = pipeline.transmit_image(
            images[trial % len(images)],
            cfg,
            seed=trial,
            model=model if semantic else None,
        )
        values.append(min(report["psnr_db"], PSNR_CAP_DB))
    return float(np.mean(values))


def test_08_desk_training(trained_desk_model, desk_corpus):
    model, histories, wall = trained_desk_model
    stage1 = histories[1]
    drop = 1.0 - float(np.mean(stage1[-5:])) / float(np.mean(stage1[:5]))

    sem10 = _mean_psnr(desk_corpus, 10.0, True, model)
    sem2 = _mean_psnr(desk_corpus, 2.0, True, model)
    conv2 = _mean_psnr(desk_corpus, 2.0, False, None)

    ok = (
        wall <= TRAIN_BUDGET_S
        and drop >= STAGE1_MIN_DROP
        and sem10 > sem2
        and sem2 > conv2
    )
    _verdict(
        8,
        "desk-scale training",
        ok,
        f"wall {wall:.0f}s, stage-1 drop {drop:.0%}, PSNR {sem10:.2f} dB @10 > "
        f"{sem2:.2f} dB @2 > conventional {conv2:.2f} dB @2 ({EVAL_TRIALS} trials)",
    )


def test_09_cliff_effect(desk_corpus):
    fer_good = experiment.fer_monte_carlo(6.0, 400, seed=16)
    assert fer_good < FER_CEILING

    good = _mean_psnr(desk_corpus, 6.0, False, None)
    below = _mean_psnr(desk_corpus, 4.0, False, None)
    drop = good - below
    ok = drop >= CLIFF_MIN_DROP_DB
    _verdict(
        9,
        "cliff effect",
        ok,
        f"conventional-only {good:.2f} dB at 6 dB (FER {fer_good:.3g}) vs "
        f"{below:.2f} dB at 4 dB: drop {drop:.2f} dB",
    )


def test_10_sweep_reproducibility(tmp_path):
    template = (
        "[corpus]\n"
        "count = 4\n"
        "size = 16\n"
        "seed = 1000\n"
        "\n"
        "[pipeline]\n"
        "semantic = false\n"
        "\n"
        "[channel]\n"
        "kind = awgn\n"
        "seed = 3\n"
        "\n"
        "[sweep]\n"
        "snr_db = 4,8\n"
        "q = 10,50\n"
        "trials = 2\n"
        "images = 2\n"
        "out = {out}\n"
    )
    runs = []
    for name in ("a", "b"):
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(template.format(out=tmp_path / name / "sweep"))
        paths = experiment.run_experiment(cfg_path)
        runs.append({p.name: p.read_bytes() for p in paths})
    identical = runs[0] == runs[1]

    again = experiment.run_experiment(tmp_path / "a.ini")
    stable = {p.name: p.read_bytes() for p in again} == runs[0]
    ok = identical and stable
    _verdict(
        10,
        "sweep reproducibility",
        ok,
        f"{len(runs[0])} output files byte-identical across re-runs",
    )
