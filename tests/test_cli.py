"""Subcommand behavior through cli.main with temporary artifacts."""

import numpy as np
import pytest

from parastream import cli, data, training

from helpers import toy_images


@pytest.fixture()
def ppm(tmp_path):
    path = tmp_path / "in.ppm"
    data.write_ppm(path, toy_images(1, size=16)[0])
    return path


class TestCodecCommand:
    def test_round_trip_writes_image(self, ppm, tmp_path, capsys):
        out = tmp_path / "out.ppm"
        blob = tmp_path / "stream.bin"
        rc = cli.main([
            "codec", "--image", str(ppm), "--out", str(out),
            "--q", "50", "--bitstream", str(blob),
        ])
        assert rc == 0
        assert out.exists() and blob.stat().st_size > 0
        assert "psnr_db=" in capsys.readouterr().out

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        rc = cli.main([
            "codec", "--image", str(tmp_path / "nope.ppm"),
            "--out", str(tmp_path / "o.ppm"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_image_fails_cleanly(self, ppm, tmp_path, monkeypatch, capsys):
        # a P6 file cannot hold NaN, so the reader hands one over directly
        monkeypatch.setattr(data, "read_ppm", lambda path: np.full((16, 16, 3), np.nan))
        rc = cli.main(["codec", "--image", str(ppm), "--out", str(tmp_path / "o.ppm")])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err


class TestTransmitCommand:
    def test_conventional_only(self, ppm, tmp_path, capsys):
        out = tmp_path / "rx.ppm"
        rc = cli.main([
            "transmit", "--image", str(ppm), "--out", str(out),
            "--snr", "8", "--conventional-only",
        ])
        assert rc == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "corrupted=no" in text

    def test_semantic_with_fresh_model(self, ppm, tmp_path, capsys):
        out = tmp_path / "rx.ppm"
        rc = cli.main([
            "transmit", "--image", str(ppm), "--out", str(out), "--snr", "10",
        ])
        assert rc == 0
        assert "cbr=" in capsys.readouterr().out

    def test_rayleigh_flag(self, ppm, tmp_path):
        rc = cli.main([
            "transmit", "--image", str(ppm), "--out", str(tmp_path / "r.ppm"),
            "--snr", "14", "--kind", "rayleigh_block", "--block-len", "64",
            "--conventional-only",
        ])
        assert rc == 0


class TestSweepCommand:
    def test_template_prints_parseable_config(self, capsys):
        assert cli.main(["sweep", "--template"]) == 0
        from parastream import config

        text = capsys.readouterr().out
        assert config.parse_config(text) == config.ExperimentConfig()

    def test_config_runs_and_lists_outputs(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[corpus]\ncount = 2\nsize = 16\n"
            "[pipeline]\nsemantic = false\n"
            f"[sweep]\nsnr_db = 8\ntrials = 1\nimages = 1\nout = {tmp_path}/s\n",
            encoding="utf-8",
        )
        assert cli.main(["sweep", "--config", str(ini)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert out[0].endswith("s.csv")

    def test_bad_config_reports_line(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[sweep]\nsnr_db = oops\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(ini)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_argument(self, capsys):
        assert cli.main(["sweep"]) == 2
        assert "config" in capsys.readouterr().err


class TestTrainCommand:
    def test_tiny_run_saves_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "model.npz"
        rc = cli.main([
            "train", "--out", str(out), "--size", "16", "--count", "2",
            "--steps", "1,1,1", "--batch", "1", "--snr-set", "10",
        ])
        assert rc == 0
        assert out.exists()
        model, history = training.load_model(out)
        assert model.stage == 3
        assert len(history) == 3
        text = capsys.readouterr().out
        assert text.count("stage") == 3

    def test_step_count_must_cover_stages(self, tmp_path, capsys):
        rc = cli.main([
            "train", "--out", str(tmp_path / "m.npz"), "--steps", "1,1",
        ])
        assert rc == 2
        assert "per stage" in capsys.readouterr().err


class TestFecBenchCommand:
    def test_reports_fer_per_snr(self, capsys):
        rc = cli.main([
            "fec-bench", "--snr", "8", "--frames", "10", "--max-iter", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("snr_db=8 fer=0")
