"""Alternating parent/change benchmark pairs for one workload.

    python3 scripts/bench_pairs.py --workload conventional_cliff --pairs 10 --parent HEAD~1

Exports the committed files of ``--parent`` into a temporary directory
with ``git archive``; the change side is this working tree. It then runs
``perfbench/run.py --trace 0`` once per side and pair, each side from
its own checkout, with the side that goes first alternating from pair
to pair. At the end it prints, for every end-to-end metric in
BENCHMARK.json, the median and quartiles of each side, how many pairs
the change won, whether the gap between the medians exceeds the
parent's interquartile range, the signed relative change of the medians,
and a verdict against the metric's relative ``bound`` (see ``verdict``).
Each pair's line also says whether the
change's ``quality.digest`` (read from run.py's record line, the
second-to-last line of its output) equals the parent's, so a refactor
can show identical outputs with the tool that times it. The digest
hashes the report's keys as well as its values, so it shows identity
only while those keys are unchanged. On a workload that trains, the
line also says whether the record's ``quality.train_loss_end`` equals
the parent's: training numerics can stay identical while the digest
moves with the evaluation transmits. The line does the same for
``quality.psnr_db`` and ``quality.ms_ssim``. Where such a figure
differs, the line gives the change's signed difference relative to the
parent, so a change that is not bit-identical shows how far it moved
the floats. Under the summary it prints the ``src/**/*.py`` line count
of each side and their signed difference, then each file whose count
differs between the sides. Last come the fields of each side's
``*Config`` dataclasses under ``src``, in total and per class, so an
options change is measured the way a line change is.
A run that exits non-zero or fails its checks stops the script with
run.py's stderr, the ``errors`` of its record line and its result line.
Standard library only; run it from any directory of the repository.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
# quality figures of run.py's record that each pair line compares
QUALITY_KEYS = ("digest", "train_loss_end", "psnr_db", "ms_ssim")


def export(ref: str, dest: pathlib.Path) -> pathlib.Path:
    """The committed files of ``ref`` under ``dest``."""
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref], stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        # extraction filters arrived in 3.10.12 / 3.11.4; git archive's
        # own output is trusted without one
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {ref} failed")
    return dest


def output_lines(stdout: str):
    """run.py's record line (the second-to-last line of its output) and
    result line (the last), each None where it does not parse as a JSON
    object."""
    lines = ["", ""] + stdout.splitlines()
    parsed = []
    for line in lines[-2:]:
        try:
            value = json.loads(line)
        except ValueError:
            value = None
        parsed.append(value if isinstance(value, dict) else None)
    return parsed


def failure_cause(stderr: str, record, result) -> str:
    """What a failed run says about its failure: its stderr, then the
    operation errors of its record line and its result line, where
    those parsed. run.py writes an operation's failure only into the
    record's ``errors``, not to stderr."""
    cause = [stderr.rstrip()] if stderr.strip() else []
    errors = (record or {}).get("record", {}).get("errors")
    if errors is not None:
        cause.append(f"record errors: {json.dumps(errors)}")
    if result is not None:
        cause.append(f"result: {json.dumps(result)}")
    return "\n".join(cause) or "no output"


def run_once(checkout: pathlib.Path, args, seed: int):
    """End-to-end metric values and the quality figures of one
    ``perfbench/run.py`` run."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(seed), "--trace", "0",
    ]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record, result = output_lines(out.stdout)
    if out.returncode != 0 or not (result and result["correct"] and not result["failed"]):
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {out.returncode}:\n"
                 f"{failure_cause(out.stderr, record, result)}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, record["record"]["quality"]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def verdict(parent, change, lower: bool, bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by
    more than ``bound`` times the parent's median; else ``unresolved``
    when the parent's interquartile range exceeds that same margin,
    unless every change run beats every parent run; else ``ok``."""
    pm, p1, p3 = quartiles(parent)
    cm = statistics.median(change)
    margin = bound * abs(pm)
    if (cm - pm if lower else pm - cm) > margin:
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if p3 - p1 > margin and not beats_all:
        return "unresolved"
    return "ok"


def quality_cell(key: str, parent, change) -> str:
    """Whether one quality figure of the change equals the parent's; a
    number that differs also gets its signed relative difference."""
    if change == parent:
        return f"quality {key} same"
    cell = f"quality {key} differs"
    if isinstance(parent, float) and isinstance(change, float) and parent:
        cell += f" ({(change - parent) / abs(parent):+.2e})"
    return cell


def quality_cells(parent: dict, change: dict) -> dict:
    """The ``quality_cell`` of each of ``QUALITY_KEYS`` that the parent's
    quality figures hold, by key."""
    return {
        key: quality_cell(key, parent[key], change.get(key)) for key in QUALITY_KEYS if key in parent
    }


def summary(metrics, runs) -> str:
    pairs = len(runs["parent"])
    lines = [
        f"{'metric':<16} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
        f" {'change wins':>12}  gap > parent IQR  {'change':>8}  verdict (bound)"
    ]
    for m in metrics:
        name = m["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pm, p1, p3 = quartiles(parent)
        cm, c1, c3 = quartiles(change)
        gain = (pm - cm) if lower else (cm - pm)
        parent_cell = f"{pm:.4g} [{p1:.4g}, {p3:.4g}]"
        change_cell = f"{cm:.4g} [{c1:.4g}, {c3:.4g}]"
        relative = f"{(cm - pm) / abs(pm):+.2%}" if pm else "n/a"
        lines.append(
            f"{name:<16} {parent_cell:>30} {change_cell:>30} {f'{wins}/{pairs}':>12}"
            f"  {'yes' if gain > p3 - p1 else 'no':<16}  {relative:>8}"
            f"  {verdict(parent, change, lower, m['bound'])} ({m['bound']:.0%})"
        )
    return "\n".join(lines)


def src_file_lines(root: pathlib.Path) -> dict:
    """Lines of each ``src/**/*.py`` file under ``root``, as ``wc -l``
    counts them, by its path below ``src``."""
    src = root / "src"
    return {
        path.relative_to(src).as_posix(): path.read_bytes().count(b"\n")
        for path in src.rglob("*.py")
    }


def src_lines(root: pathlib.Path) -> int:
    return sum(src_file_lines(root).values())


def line_counts(parent: pathlib.Path, change: pathlib.Path) -> str:
    """The ``src`` line total of each side, then one line per file whose
    count differs; a file on one side only counts 0 lines on the other."""
    before, after = src_file_lines(parent), src_file_lines(change)
    total_before, total_after = sum(before.values()), sum(after.values())
    lines = [
        f"src/**/*.py lines: parent {total_before}, change {total_after}"
        f" ({total_after - total_before:+d})"
    ]
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, 0), after.get(name, 0)
        if old != new:
            lines.append(f"  {name} {old} -> {new} ({new - old:+d})")
    return "\n".join(lines)


def _decorator_name(node) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def config_fields(root: pathlib.Path) -> dict:
    """Field count of each dataclass named ``*Config`` in the
    ``src/**/*.py`` files under ``root``, by class name. The files are
    parsed with ``ast``, not imported, so any checkout can be read."""
    counts = {}
    for path in (root / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path))):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
            ):
                counts[node.name] = sum(
                    isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    for stmt in node.body
                )
    return counts


def field_counts(parent: pathlib.Path, change: pathlib.Path) -> str:
    """The ``*Config`` field total of each side, then one line per class
    with both sides' counts; a class on one side only counts 0 fields on
    the other."""
    before, after = config_fields(parent), config_fields(change)
    total_before, total_after = sum(before.values()), sum(after.values())
    lines = [
        f"*Config dataclass fields: parent {total_before}, change {total_after}"
        f" ({total_after - total_before:+d})"
    ]
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, 0), after.get(name, 0)
        lines.append(f"  {name} {old} -> {new}" + (f" ({new - old:+d})" if old != new else ""))
    return "\n".join(lines)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds, cycled over the pairs")
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run.py's)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    seeds = [int(s) for s in args.seeds.split(",")]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": export(args.parent, pathlib.Path(tmp) / "parent"), "change": ROOT}
        runs = {"parent": [], "change": []}
        same = {}  # quality key -> pairs on which the change matched the parent
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            quality = {}
            for side in order:
                metrics, quality[side] = run_once(sides[side], args, seed)
                runs[side].append(metrics)
            p50 = [runs[side][-1]["op_cpu_ms_p50"] for side in ("parent", "change")]
            line = (
                f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
                f"op_cpu_ms_p50 {p50[0]:.3f} -> {p50[1]:.3f}"
            )
            parent, change = quality["parent"], quality["change"]
            cells = quality_cells(parent, change)
            for key in cells:
                same[key] = same.get(key, 0) + (parent[key] == change.get(key))
            line += "".join(", " + cell for cell in cells.values())
            print(line, flush=True)
        lines = line_counts(sides["parent"], sides["change"])
        fields = field_counts(sides["parent"], sides["change"])
    matched = ", ".join(f"quality {key} same on {n}/{args.pairs} pairs" for key, n in same.items())
    print(f"\n{args.workload}: {args.pairs} alternating pairs, parent {args.parent}, "
          f"change working tree, seeds {args.seeds}; {matched}")
    print(summary(spec["end_to_end"], runs))
    print(lines)
    print(fields)


if __name__ == "__main__":
    main()
