"""Subcommand behavior through cli.main with temporary artifacts."""

import json

import numpy as np
import pytest

from parastream import cli, data, training
from parastream.pipeline import PipelineConfig, transmit_image

from helpers import toy_images, toy_model


@pytest.fixture()
def ppm(tmp_path):
    path = tmp_path / "in.ppm"
    data.write_ppm(path, toy_images(1, size=16)[0])
    return path


@pytest.fixture()
def generic_table(tmp_path):
    """A full-rank shift table whose parity part is not dual-diagonal."""
    path = tmp_path / "generic.txt"
    path.write_text("Z 4\n2 4\n0 0 1 -1\n2 0 -1 0\n", encoding="ascii")
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
        # without --model the command takes transmit_image's own fresh model
        x_hat, _, _ = transmit_image(data.read_ppm(ppm), PipelineConfig(), seed=0)
        expected = tmp_path / "expected.ppm"
        data.write_ppm(expected, x_hat)
        assert out.read_bytes() == expected.read_bytes()

    def test_rayleigh_flag(self, ppm, tmp_path):
        rc = cli.main([
            "transmit", "--image", str(ppm), "--out", str(tmp_path / "r.ppm"),
            "--snr", "14", "--kind", "rayleigh_block", "--block-len", "64",
            "--conventional-only",
        ])
        assert rc == 0

    def test_bad_checkpoint_fails_cleanly(self, ppm, tmp_path, capsys):
        # each way a checkpoint can be bad is in test_training.py
        bad = tmp_path / "bad.npz"
        np.savez(bad, weights=np.zeros(3))
        out = tmp_path / "rx.ppm"
        rc = cli.main([
            "transmit", "--image", str(ppm), "--out", str(out), "--snr", "10",
            "--model", str(bad),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not a model checkpoint")
        assert not out.exists()

    def test_empty_checkpoint_fails_cleanly(self, ppm, tmp_path, capsys):
        bad = tmp_path / "empty.npz"
        bad.write_bytes(b"")
        out = tmp_path / "rx.ppm"
        rc = cli.main([
            "transmit", "--image", str(ppm), "--out", str(out), "--snr", "10",
            "--model", str(bad),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not a model checkpoint")
        assert not out.exists()

    def test_bad_checkpoint_config_fails_cleanly(self, ppm, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        training.save_model(bad, toy_model())
        with np.load(bad) as blob:
            entries = {name: blob[name] for name in blob.files}
        config = json.loads(str(entries["__config__"]))
        entries["__config__"] = np.array(json.dumps({**config, "growth": 0}))
        np.savez(bad, **entries)
        out = tmp_path / "rx.ppm"
        rc = cli.main([
            "transmit", "--image", str(ppm), "--out", str(out), "--snr", "10",
            "--model", str(bad),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: bad model config: ModelConfig.growth")
        assert not out.exists()

    @pytest.mark.parametrize("snr", [["--snr=-inf"], ["--snr", "-inf"]], ids=["attached", "bare"])
    def test_minus_infinite_snr_fails_at_the_channel(self, ppm, tmp_path, capsys, snr):
        out = tmp_path / "rx.ppm"
        rc = cli.main([
            "transmit", "--image", str(ppm), "--out", str(out), *snr,
            "--conventional-only",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "snr_db must not be -inf" in err and "LLR" not in err
        assert not out.exists()

    def test_table_without_encoder_fails_cleanly(self, ppm, generic_table, tmp_path, capsys):
        out = tmp_path / "rx.ppm"
        rc = cli.main([
            "transmit", "--image", str(ppm), "--out", str(out), "--snr", "8",
            "--conventional-only", "--ldpc-table", str(generic_table),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dual-diagonal" in err
        assert not out.exists()


class TestSweepCommand:
    def test_template_prints_parseable_config(self, capsys):
        assert cli.main(["sweep", "--template"]) == 0
        from parastream import config

        text = capsys.readouterr().out
        assert config.parse_config(text) == config.ExperimentConfig()

    def test_config_runs_and_lists_outputs(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[corpus]\nsize = 16\n"
            "[pipeline]\nsemantic = false\n"
            f"[sweep]\nsnr_db = 8\ntrials = 1\nimages = 1\nout = {tmp_path}/s\n",
            encoding="utf-8",
        )
        assert cli.main(["sweep", "--config", str(ini)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert out[0].endswith("s.csv")

    @pytest.mark.parametrize("count", [1, 2])
    def test_corpus_smaller_than_images_fails_cleanly(self, tmp_path, capsys, count):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, img in enumerate(toy_images(count, size=16)):
            data.write_ppm(corpus / f"img{i}.ppm", img)
        ini = tmp_path / "exp.ini"
        ini.write_text(
            f"[corpus]\nppm_dir = {corpus}\n"
            "[pipeline]\nsemantic = false\n"
            f"[sweep]\nsnr_db = 8\ntrials = 1\nimages = 8\nout = {tmp_path}/s\n",
            encoding="utf-8",
        )
        assert cli.main(["sweep", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "images = 8" in err and f"holds {count}" in err
        assert not list(tmp_path.glob("s*"))

    def test_unbuildable_point_fails_before_any_point_runs(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[sweep]\nsnr_db = 20,-inf\nout = {tmp_path}/s\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(ini)]) == 2
        assert "snr_db must not be -inf" in capsys.readouterr().err
        assert not list(tmp_path.glob("s*"))

    def test_bad_config_reports_line(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[sweep]\nsnr_db = oops\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(ini)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_argument(self, capsys):
        assert cli.main(["sweep"]) == 2
        assert "config" in capsys.readouterr().err


class TestTrainCommand:
    # a list that starts with a minus sign is still the option's value
    @pytest.mark.parametrize("snr_set", ["10", "-2,4"])
    def test_tiny_run_saves_checkpoint(self, tmp_path, capsys, snr_set):
        out = tmp_path / "model.npz"
        rc = cli.main([
            "train", "--out", str(out), "--size", "16", "--count", "2",
            "--steps", "1,1,1", "--batch", "1", "--snr-set", snr_set,
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

    @pytest.mark.parametrize(
        "flags, field",
        [(["--steps", "0,1,1"], "steps"), (["--batch", "0"], "batch_size")],
    )
    def test_counts_below_one_fail_cleanly(self, tmp_path, capsys, flags, field):
        out = tmp_path / "m.npz"
        rc = cli.main([
            "train", "--out", str(out), "--size", "16", "--count", "2",
            "--steps", "1,1,1", *flags,
        ])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--size", "8"], "multiples of 16"),
            (["--size", "0"], "size=0"),
            (["--count", "0"], "dataset is empty"),
        ],
    )
    def test_unusable_corpus_fails_cleanly(self, tmp_path, capsys, flags, message):
        out = tmp_path / "m.npz"
        rc = cli.main([
            "train", "--out", str(out), "--count", "2", "--steps", "1,1,1",
            "--batch", "1", *flags,
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestFecBenchCommand:
    def test_reports_fer_per_snr(self, capsys):
        rc = cli.main([
            "fec-bench", "--snr", "8", "--frames", "10", "--max-iter", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("snr_db=8 fer=0")

    def test_infinite_snr_is_noiseless(self, capsys):
        rc = cli.main(["fec-bench", "--snr", "inf", "--frames", "5"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("snr_db=inf fer=0 ")

    def test_nan_snr_fails_at_the_channel(self, capsys):
        rc = cli.main(["fec-bench", "--snr", "nan", "--frames", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "snr_db must not be NaN" in err and "LLR" not in err

    @pytest.mark.parametrize("snr", ["-inf", "-inf,8", "8,-inf"])
    def test_minus_infinite_snr_fails_at_the_channel(self, capsys, snr):
        rc = cli.main(["fec-bench", "--snr", snr, "--frames", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "snr_db must not be -inf" in err and "expected one argument" not in err

    def test_negative_snr_list_is_a_value(self, capsys):
        rc = cli.main(["fec-bench", "--snr", "-2,-1.5", "--frames", "5", "--max-iter", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["snr_db=-2", "snr_db=-1.5"]

    def test_zero_frames_fails_cleanly(self, capsys):
        rc = cli.main(["fec-bench", "--frames", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_table_without_encoder_fails_cleanly(self, generic_table, capsys):
        rc = cli.main([
            "fec-bench", "--snr", "8", "--frames", "5",
            "--ldpc-table", str(generic_table),
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "dual-diagonal" in captured.err
        assert captured.out == ""
