"""The same bytes at any BLAS thread count."""

import os
import pathlib
import subprocess
import sys

import pytest

import parastream
from parastream import blas

SRC = pathlib.Path(parastream.__file__).resolve().parent.parent

# a short seeded desk schedule, then semantic transmits at 16 and 64 px;
# prints the bytes of every parameter and of each x_hat as hex digests
_RUN = """
import hashlib
from parastream import data, training
from parastream.channel import ChannelConfig
from parastream.pipeline import ModelConfig, PipelineConfig, SemanticModel, transmit_image

model = SemanticModel(ModelConfig())
pcfg = PipelineConfig(channel=ChannelConfig(kind="awgn", snr_db=10.0), lambda1=0.02)
corpus = data.make_corpus(count=8, size=16, seed=1000)
cfg = training.TrainConfig(stage=1, steps=2, lr=1e-3, batch_size=4, seed=0)
model, _ = training.train(cfg, corpus, model, pcfg)
print(hashlib.sha256(b"".join(p.data.tobytes() for p in model.parameters())).hexdigest())
for size in (16, 64):
    x = data.make_corpus(count=1, size=size, seed=7)[0]
    x_hat, _, _ = transmit_image(x, pcfg, seed=0, model=model)
    print(hashlib.sha256(x_hat.tobytes()).hexdigest())
"""


def _digests(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return out.stdout.split()


def test_training_and_transmit_bytes_independent_of_thread_count():
    one, two = _digests(1), _digests(2)
    assert len(one) == 3
    assert one == two


def test_missing_thread_setter_warns_naming_the_blas(monkeypatch):
    monkeypatch.setattr(blas, "_openblas_libraries", lambda: [])
    with pytest.warns(RuntimeWarning, match=f"could not pin {blas.blas_name()}"):
        assert not blas.pin_one_thread()
