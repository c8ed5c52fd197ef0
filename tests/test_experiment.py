"""Config grammar, sweep artifacts, and the FER probe."""

import math
import pathlib
import re

import numpy as np
import pytest

from parastream import config, data, experiment, training
from parastream.config import ConfigError, ExperimentConfig

from helpers import toy_model


def sweep_config(**overrides):
    base = dict(
        corpus_size=16,
        semantic=False,
        snr_points=(8.0,),
        trials=1,
        images=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigGrammar:
    def test_empty_text_gives_defaults(self):
        assert config.parse_config("") == ExperimentConfig()

    def test_quality_grid_defaults_to_one_point(self):
        assert config.parse_config("[sweep]\ntrials = 2\n").q_points == (50,)

    def test_template_parses_back_to_defaults(self):
        assert config.parse_config(config.default_config_text()) == ExperimentConfig()

    def test_range_grammar(self):
        cfg = config.parse_config("[sweep]\nsnr_db = 2:12:2\n")
        assert cfg.snr_points == (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)

    def test_comma_list_grammar(self):
        cfg = config.parse_config("[sweep]\nsnr_db = 1,3.5\nq = 10,50\n")
        assert cfg.snr_points == (1.0, 3.5)
        assert cfg.q_points == (10, 50)

    def test_unknown_section_is_line_anchored(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("[pipeline]\nsemantic = true\n\n[nope]\nx = 1\n")
        assert err.value.line == 4
        assert "unknown section" in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "[sweep]\ntrials = 3\nbogus = 1\n",
            # keys of older files: [sweep] images sizes the corpus and
            # [sweep] q is the only quality list
            "[corpus]\nsize = 16\ncount = 4\n",
            "[pipeline]\nsemantic = false\nq = 30\n",
        ],
        ids=["bogus", "corpus-count", "pipeline-q"],
    )
    def test_unknown_key_is_line_anchored(self, text):
        with pytest.raises(ConfigError, match="unknown key") as err:
            config.parse_config(text)
        assert err.value.line == 3

    def test_bad_value_is_line_anchored(self):
        with pytest.raises(ConfigError) as err:
            config.parse_config("[sweep]\nsnr_db = oops\n")
        assert err.value.line == 2
        assert "sweep.snr_db" in str(err.value)

    def test_missing_section_header_is_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            config.parse_config("q = 50\n")

    def test_bad_channel_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            config.parse_config("[channel]\nkind = fancy\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[channel]\nblock_len = 0\n", r"block_len must be an integer >= 1, got 0$"),
            ("[channel]\nseed = -1\n", r"value: seed must be an integer >= 0, got -1$"),
            ("[model]\ninit_seed = -1\n", r"ModelConfig\.init_seed must be an integer >= 0, got -1$"),
        ],
    )
    def test_bad_channel_and_model_values_rejected_at_parse(self, text, match):
        # each used to pass parsing and fail only at the first sweep point
        with pytest.raises(ConfigError, match=match):
            config.parse_config(text)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[corpus]\nseed = -1\n", r"corpus_seed must be an integer >= 0, got -1$"),
            ("[sweep]\nimages = 0\n", r"images must be an integer >= 1, got 0$"),
            ("[sweep]\nimages = -3\n", r"images must be an integer >= 1, got -3$"),
            ("[corpus]\nsize = 7\n", r"corpus_size must be an integer >= 11, got 7$"),
        ],
        ids=["negative-seed", "zero-images", "negative-images", "size-below-window"],
    )
    def test_bad_corpus_values_rejected_at_parse(self, text, match):
        # each used to pass parsing and fail only inside sweep_rows
        with pytest.raises(ConfigError, match=match):
            config.parse_config(text)

    def test_smallest_corpus_values_accepted(self):
        cfg = config.parse_config("[corpus]\nsize = 11\nseed = 0\n[sweep]\nimages = 1\n")
        assert (cfg.images, cfg.corpus_size, cfg.corpus_seed) == (1, 11, 0)

    def test_bad_range_step(self):
        with pytest.raises(ConfigError, match="step"):
            config.parse_config("[sweep]\nsnr_db = 2:12:0\n")

    @pytest.mark.parametrize("points", ["6:2:2", "4:3:1", "4:3.5:1"])
    def test_reversed_range_is_empty(self, points):
        with pytest.raises(ConfigError, match="empty range") as err:
            config.parse_config(f"[pipeline]\nsemantic = true\n\n[sweep]\nsnr_db = {points}\n")
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "line, match",
        [
            ("snr_db = 0:inf:1", "finite"),
            ("snr_db = -inf:4:1", "finite"),
            ("snr_db = 0:4:nan", "finite"),
            ("snr_db = 0:1e400:1", "finite"),
            ("snr_db = nan,4", "NaN"),
            ("snr_db = 0:nan:1", "finite"),
            ("q = inf", "infinite where an integer"),
            ("q = 10,-inf", "infinite where an integer"),
            ("q = nan", "NaN"),
            # a fractional quality point is rejected, not truncated
            ("q = 50.5, 70.9", "not whole where an integer"),
            ("q = 10:20:2.5", "not whole where an integer"),
            # checked before the tuple is built: 10^10 points, or an
            # interval count that overflows to inf
            ("snr_db = 0:1e7:1e-3", "more than 10000 points"),
            ("snr_db = -1e308:1e308:1", "more than 10000 points"),
            ("snr_db = 0:10000:1", "more than 10000 points"),
        ],
    )
    def test_bad_points_are_line_anchored(self, line, match):
        with pytest.raises(ConfigError, match=match) as err:
            config.parse_config(f"[pipeline]\nsemantic = true\n\n[sweep]\n{line}\n")
        assert err.value.line == 5

    def test_range_of_the_ceiling_and_a_listed_inf_snr_accepted(self):
        cfg = config.parse_config("[sweep]\nsnr_db = 1:10000:1\n")
        assert len(cfg.snr_points) == config.MAX_RANGE_POINTS
        cfg = config.parse_config("[sweep]\nsnr_db = 4,inf\n")
        assert cfg.snr_points == (4.0, math.inf)

    @pytest.mark.parametrize("q_points", [(0,), (10, 101)])
    def test_quality_bounds(self, q_points):
        with pytest.raises(ConfigError, match=r"q must be an integer in \[1, 100\]"):
            ExperimentConfig(q_points=q_points)

    def test_positive_counts(self):
        with pytest.raises(ConfigError, match="trials must be an integer >= 1, got 0"):
            ExperimentConfig(trials=0)

    @pytest.mark.parametrize("field", ["snr_points", "q_points"])
    def test_empty_grid_rejected(self, field):
        with pytest.raises(ConfigError, match="at least one SNR point and one quality"):
            ExperimentConfig(**{field: ()})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(trials=2.5), r"trials must be an integer >= 1, got 2\.5$"),
            (dict(images=1.5), r"images must be an integer >= 1, got 1\.5$"),
            (dict(trials=True), r"trials must be an integer >= 1, got True$"),
            (dict(q_points=(50, 10.5)), r"q must be an integer in \[1, 100\], got 10\.5$"),
            (dict(snr_points=(20.0, -math.inf)), r"snr_db must not be -inf$"),
            (dict(snr_points=(math.nan,)), r"snr_db must not be NaN$"),
            ("[sweep]\nsnr_db = 20,-inf\n", r"snr_db must not be -inf$"),
        ],
        ids=["fractional-trials", "fractional-images", "bool-trials", "fractional-q",
             "minus-inf-snr", "nan-snr", "minus-inf-snr-ini"],
    )
    def test_every_point_checked_before_any_transmit(
        self, overrides, match, tmp_path, monkeypatch
    ):
        # each used to build a config that ran some points, or none,
        # before failing elsewhere
        sent = []
        monkeypatch.setattr(experiment, "transmit_image", lambda *a, **k: sent.append(a))
        with pytest.raises(ConfigError, match=match):
            if isinstance(overrides, str):
                ini = tmp_path / "exp.ini"
                ini.write_text(overrides + f"out = {tmp_path}/s\n", encoding="utf-8")
                experiment.run_experiment(ini)
            else:
                experiment.sweep_rows(sweep_config(**overrides))
        assert sent == [] and not list(tmp_path.glob("s*"))

    def test_docs_list_exactly_the_schema_keys(self):
        docs = pathlib.Path(__file__).resolve().parent.parent / "docs" / "config.md"
        listed, section = {}, None
        for line in docs.read_text(encoding="utf-8").splitlines():
            header = re.match(r"#{2,3} (`\[(\w+)\]`)?", line)
            if header:
                section = header.group(2)
                if section:
                    listed[section] = []
            elif section and line.startswith("| ") and not line.startswith("| key "):
                listed[section].append(line.split("|")[1].strip())
        schema = {}
        for section, key in config._SCHEMA:
            schema.setdefault(section, []).append(key)
        assert {s: sorted(keys) for s, keys in listed.items()} == {
            s: sorted(keys) for s, keys in schema.items()
        }

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[sweep]\ntrials = 2\n", encoding="utf-8")
        assert config.load_config(path).trials == 2


class TestSweep:
    def test_row_count_is_points_times_seeds(self):
        cfg = sweep_config(snr_points=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0),
                           q_points=(10,), trials=5, images=1)
        rows = experiment.sweep_rows(cfg)
        assert len(rows) == 30
        seeds = [r.seed for r in rows[:5]]
        assert seeds == [0, 1, 2, 3, 4]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = sweep_config(snr_points=(6.0, 8.0), trials=2)
        first = experiment.rows_to_csv(experiment.sweep_rows(cfg))
        second = experiment.rows_to_csv(experiment.sweep_rows(cfg))
        assert first.encode() == second.encode()
        a = experiment.write_outputs(experiment.sweep_rows(cfg), tmp_path / "a")
        b = experiment.write_outputs(experiment.sweep_rows(cfg), tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_csv_schema(self):
        cfg = sweep_config()
        text = experiment.rows_to_csv(experiment.sweep_rows(cfg))
        lines = text.split("\n")
        assert lines[0] == "snr_db,cbr,psnr_db,ms_ssim,corruption_rate,seed"
        assert lines[1].count(",") == 5
        assert text.endswith("\n")

    def test_mean_cbr_monotone_in_quality(self):
        cfg = sweep_config(q_points=(10, 50, 90))
        rows = experiment.sweep_rows(cfg)
        means = [
            np.mean([r.cbr for r in rows if r.q == q]) for q in (10, 50, 90)
        ]
        assert means[0] <= means[1] <= means[2]

    def test_infinite_psnr_serializes_empty(self):
        # exact reconstruction is the sentinel case: the cell stays blank
        row = experiment.MetricsRow(
            snr_db=10.0, q=50, cbr=0.5, psnr_db=math.inf,
            ms_ssim=1.0, corruption_rate=0.0, seed=0,
        )
        body = experiment.rows_to_csv([row]).split("\n")[1]
        assert body == "10.000000,0.500000,,1.000000,0.000000,0"

    def test_noiseless_channel_is_transparent(self):
        # with sigma^2 = 0 the digital branch decodes exactly, so the
        # only loss left is the codec's own
        cfg = sweep_config(snr_points=(math.inf,), trials=1)
        rows = experiment.sweep_rows(cfg)
        assert rows[0].corruption_rate == 0.0
        assert rows[0].psnr_db > 25.0

    def test_low_snr_reports_corruption(self):
        rows = experiment.sweep_rows(sweep_config(snr_points=(0.0,)))
        assert rows[0].corruption_rate == 1.0
        rows = experiment.sweep_rows(sweep_config(snr_points=(8.0,)))
        assert rows[0].corruption_rate == 0.0

    def test_plot_data_blocks_per_quality(self, tmp_path):
        cfg = sweep_config(q_points=(10, 50), snr_points=(6.0, 8.0))
        paths = experiment.write_outputs(experiment.sweep_rows(cfg), tmp_path / "s")
        assert [p.name for p in paths] == [
            "s.csv", "s_psnr_db.dat", "s_ms_ssim.dat",
            "s_corruption_rate.dat", "s_cbr.dat",
        ]
        text = paths[1].read_text()
        assert "# q = 10" in text and "# q = 50" in text
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 2
        for block in blocks:
            rows = [l for l in block.splitlines() if not l.startswith("#")]
            assert all(len(r.split()) == 2 for r in rows)

    @pytest.mark.parametrize("count", [1, 2])
    def test_corpus_smaller_than_images_rejected(self, count, tmp_path, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("transmitted before the corpus was checked")

        monkeypatch.setattr(experiment, "transmit_image", reached)
        for i, img in enumerate(data.make_corpus(count, 16, 0)):
            data.write_ppm(tmp_path / f"img{i}.ppm", img)
        cfg = sweep_config(ppm_dir=str(tmp_path), images=8)
        with pytest.raises(ValueError, match=rf"images = 8 .* holds {count}$"):
            experiment.sweep_rows(cfg)

    def test_run_experiment_end_to_end(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[corpus]\nsize = 16\n"
            "[pipeline]\nsemantic = false\n"
            f"[sweep]\nsnr_db = 8\ntrials = 1\nimages = 2\nout = {tmp_path}/run\n",
            encoding="utf-8",
        )
        paths = experiment.run_experiment(ini)
        assert paths[0].exists()
        assert paths[0].read_text().startswith("snr_db,")


class TestCorpusLoading:
    def test_ppm_directory(self, tmp_path):
        for i in range(2):
            data.write_ppm(tmp_path / f"img{i}.ppm", data.make_corpus(1, 16, i)[0])
        cfg = sweep_config(ppm_dir=str(tmp_path))
        images = experiment.load_corpus(cfg)
        assert len(images) == 2
        assert images[0].shape == (16, 16, 3)

    def test_empty_ppm_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            experiment.load_corpus(sweep_config(ppm_dir=str(tmp_path)))

    def test_procedural_corpus_dimensions(self):
        images = experiment.load_corpus(sweep_config(images=3, corpus_size=32))
        assert len(images) == 3
        assert images[0].shape == (32, 32, 3)


class TestModelLoading:
    def test_disabled_semantic_needs_no_model(self):
        assert experiment.load_experiment_model(sweep_config(semantic=False)) is None

    def test_fresh_model_is_deterministic(self):
        a = experiment.load_experiment_model(sweep_config(semantic=True))
        b = experiment.load_experiment_model(sweep_config(semantic=True))
        sa, sb = a.state_dict(), b.state_dict()
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)

    def test_checkpoint_round_trip(self, tmp_path):
        model = toy_model(seed=5)
        path = tmp_path / "ckpt.npz"
        training.save_model(path, model)
        cfg = sweep_config(semantic=True, checkpoint=str(path))
        loaded = experiment.load_experiment_model(cfg)
        sa, sb = model.state_dict(), loaded.state_dict()
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)


class TestFerMonteCarlo:
    def test_deterministic(self):
        a = experiment.fer_monte_carlo(4.0, 30, seed=3)
        b = experiment.fer_monte_carlo(4.0, 30, seed=3)
        assert a == b

    def test_deep_in_the_cliff_every_frame_fails(self):
        assert experiment.fer_monte_carlo(0.0, 20, seed=1, max_iter=5) == 1.0

    def test_above_the_cliff_frames_survive(self):
        assert experiment.fer_monte_carlo(8.0, 20, seed=1) == 0.0

    @pytest.mark.parametrize(
        "snr_db, frames, seed, fer",
        [
            (2.0, 60, 12, 1.0),
            # 700 frames span two chunks, so chunk c's trial keying shows
            (4.0, 700, 14, 386 / 700),
        ],
    )
    def test_pinned_values(self, snr_db, frames, seed, fer):
        assert experiment.fer_monte_carlo(snr_db, frames, seed=seed) == fer

    def test_noiseless_channel_never_errs(self):
        assert experiment.fer_monte_carlo(np.inf, 20, seed=1) == 0.0

    def test_nan_snr_rejected_before_decoding(self):
        with pytest.raises(ValueError, match="snr_db must not be NaN"):
            experiment.fer_monte_carlo(np.nan, 5)

    @pytest.mark.parametrize("frames", [0, -3, 2.5, True, "2", None])
    def test_needs_a_frame(self, frames):
        with pytest.raises(ValueError, match="frames must be an integer >= 1, got"):
            experiment.fer_monte_carlo(4.0, frames)
