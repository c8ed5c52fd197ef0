"""scripts/bench_pairs.py judges each end-to-end metric against its bound,
compares the quality figures of each pair and counts each side's source
lines and config fields."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TIGHT, WIDE, HIGH = [10, 10.1, 9.9, 10, 10.2], [5, 10, 15, 8, 12], [40, 41, 39, 40, 40.5]

# name -> (better, parent runs, change runs, relative change of the
# medians, verdict); every bound is 25%
CASES = {
    "steady": ("lower", TIGHT, [10.4, 10.2, 10.3, 10.5, 10.1], "+3.00%", "ok"),
    "slower": ("lower", TIGHT, [13, 12.8, 13.1, 13.2, 12.9], "+30.00%", "worse"),
    # the parent's IQR (4) exceeds 25% of its median (2.5)
    "noisy": ("lower", WIDE, [9, 10.5, 11, 10, 12], "+5.00%", "unresolved"),
    "noisy_all_faster": ("lower", WIDE, [4, 4.5, 4.2, 4.8, 4.1], "-58.00%", "ok"),
    "higher_dropped": ("higher", HIGH, [29, 29.5, 28, 30, 29], "-27.50%", "worse"),
    "higher_rose": ("higher", HIGH, [60, 61, 59, 60, 62], "+50.00%", "ok"),
}


def test_summary_gives_each_metric_its_change_and_verdict():
    bench_pairs = load_script()
    metrics = [{"name": name, "better": case[0], "bound": 0.25} for name, case in CASES.items()]
    pairs = len(next(iter(CASES.values()))[1])
    runs = {
        side: [{name: case[index][i] for name, case in CASES.items()} for i in range(pairs)]
        for side, index in (("parent", 1), ("change", 2))
    }
    table = bench_pairs.summary(metrics, runs).splitlines()[1:]
    rows = {line.split()[0]: line.split() for line in table}
    assert set(rows) == set(CASES)
    for name, (_, _, _, relative, verdict) in CASES.items():
        assert rows[name][-3:] == [relative, verdict, "(25%)"], name


def test_quality_cell_gives_a_moved_loss_its_relative_difference():
    bench_pairs = load_script()
    cell = bench_pairs.quality_cell
    assert cell("digest", "ab12", "ab12") == "quality digest same"
    assert cell("digest", "ab12", "cd34") == "quality digest differs"
    assert cell("train_loss_end", 3320.25, 3320.25) == "quality train_loss_end same"
    # a last-bits reorder and a real move, above and below the parent
    assert cell("train_loss_end", 1024.0, 1024.0 + 2**-40) == (
        "quality train_loss_end differs (+8.88e-16)"
    )
    assert cell("train_loss_end", 200.0, 150.0) == "quality train_loss_end differs (-2.50e-01)"
    # an absent figure on the change side is a difference with no number
    assert cell("train_loss_end", 200.0, None) == "quality train_loss_end differs"


def test_quality_cells_show_how_far_psnr_and_ms_ssim_moved():
    bench_pairs = load_script()
    parent = {
        "psnr_db": 12.1789496, "ms_ssim": 0.5, "cbr": 1.5, "digest": "ab12",
        "train_loss_end": 3320.25,
    }
    change = {**parent, "psnr_db": 12.1789486, "ms_ssim": 0.5 + 2**-40, "digest": "cd34"}
    # each compared figure in QUALITY_KEYS order; cbr is not compared
    assert bench_pairs.quality_cells(parent, change) == {
        "digest": "quality digest differs",
        "train_loss_end": "quality train_loss_end same",
        "psnr_db": "quality psnr_db differs (-8.21e-08)",
        "ms_ssim": "quality ms_ssim differs (+1.82e-12)",
    }
    # a workload that does not train records no loss
    del parent["train_loss_end"]
    assert list(bench_pairs.quality_cells(parent, change)) == ["digest", "psnr_db", "ms_ssim"]


def test_line_counts_cover_src_python_files_only(tmp_path):
    bench_pairs = load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    files = {
        parent / "src" / "a.py": "x = 1\ny = 2\n",
        parent / "src" / "pkg" / "b.py": "z = 3\n",
        parent / "src" / "notes.txt": "not\ncounted\n",
        parent / "tests" / "t.py": "not = 'counted'\n",
        change / "src" / "a.py": "x = 1\n",
        change / "src" / "c.py": "w = 4\n",
        parent / "src" / "same.py": "v = 5\n",
        change / "src" / "same.py": "v = 6\n",
    }
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert bench_pairs.src_lines(parent) == 4
    # a file on one side only counts 0 on the other; an unchanged count is not listed
    assert bench_pairs.line_counts(parent, change).splitlines() == [
        "src/**/*.py lines: parent 4, change 3 (-1)",
        "  a.py 2 -> 1 (-1)",
        "  c.py 0 -> 1 (+1)",
        "  pkg/b.py 1 -> 0 (-1)",
    ]
    assert bench_pairs.line_counts(change, parent).splitlines()[0].endswith("(+1)")


def test_field_counts_cover_config_dataclasses_under_src(tmp_path):
    bench_pairs = load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    header = "from dataclasses import dataclass\nimport dataclasses\n\n"
    files = {
        parent / "src" / "a.py": header
        + "@dataclass(frozen=True)\nclass AConfig:\n    x: int = 1\n    y: int = 2\n\n"
        "    def check(self):\n        z: int = 3\n        return z\n\n"
        # not a dataclass, and a dataclass not named *Config: neither counts
        "class PlainConfig:\n    x: int = 1\n\n"
        "@dataclass\nclass Other:\n    x: int = 1\n",
        parent / "tests" / "t.py": header + "@dataclass\nclass TConfig:\n    x: int = 1\n",
        change / "src" / "a.py": header
        + "@dataclass(frozen=True)\nclass AConfig:\n    x: int = 1\n",
        change / "src" / "pkg" / "b.py": header
        + "@dataclasses.dataclass\nclass BConfig:\n    u: int = 1\n    v: str = ''\n",
    }
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert bench_pairs.config_fields(parent) == {"AConfig": 2}
    # every class is listed; a class on one side only counts 0 on the other
    assert bench_pairs.field_counts(parent, change).splitlines() == [
        "*Config dataclass fields: parent 2, change 3 (+1)",
        "  AConfig 2 -> 1 (-1)",
        "  BConfig 0 -> 2 (+2)",
    ]
    assert bench_pairs.field_counts(change, change).splitlines() == [
        "*Config dataclass fields: parent 3, change 3 (+0)",
        "  AConfig 1 -> 1",
        "  BConfig 2 -> 2",
    ]
