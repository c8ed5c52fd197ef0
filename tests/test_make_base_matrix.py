"""scripts/make_base_matrix.py reproduces the shipped shift tables."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

from parastream import ldpc

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLES = ROOT / "src" / "parastream" / "tables"


def load_script():
    spec = importlib.util.spec_from_file_location(
        "make_base_matrix", ROOT / "scripts" / "make_base_matrix.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_table(out, z, *flags):
    """Run the table script for seed 1 and lift z; returns its stdout."""
    run = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "make_base_matrix.py"),
            "--z", str(z), "--seed", "1", "--out", str(out), *flags,
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("z", [64, 384])
def test_seed_one_reproduces_the_shipped_table(tmp_path, z):
    out = tmp_path / f"qc_rate34_z{z}.txt"
    assert "encoder syndrome check: ok" in make_table(out, z)
    assert out.read_bytes() == (TABLES / out.name).read_bytes()


def test_probe_runs_the_coded_link_on_the_rendered_table(tmp_path):
    out = tmp_path / "qc_rate34_z64.txt"
    stdout = make_table(out, 64, "--probe-frames", "20")
    assert "FER probe at Es/N0 = 6 dB over 20 frames: 0\n" in stdout
    assert out.read_bytes() == (TABLES / out.name).read_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("z", [16, 32, 64])
def test_search_gives_an_encodable_table(z, seed):
    # ldpc_encode serves only the dual-diagonal parity part the template
    # fixes: first parity column s0 / 0 / -1 / s0, then the staircase
    base = load_script().search_base(z, seed)
    assert ldpc._detect_dual_diagonal(base) == (int(base[0, 12]), 1)
