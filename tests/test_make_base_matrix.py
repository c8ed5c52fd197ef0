"""scripts/make_base_matrix.py reproduces the shipped shift tables."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLES = ROOT / "src" / "parastream" / "tables"


@pytest.mark.parametrize("z", [64, 384])
def test_seed_one_reproduces_the_shipped_table(tmp_path, z):
    out = tmp_path / f"qc_rate34_z{z}.txt"
    run = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "make_base_matrix.py"),
            "--z", str(z), "--seed", "1", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "encoder syndrome check: ok" in run.stdout
    assert out.read_bytes() == (TABLES / out.name).read_bytes()
