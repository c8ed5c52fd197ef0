#!/usr/bin/env python3
"""Search a rate-3/4 QC-LDPC base matrix and write its shift table.

The 4 x 16 template fixes a dual-diagonal parity part (first parity
column: paired shift s0 top and bottom plus a zero in row 1; remaining
three columns: a zero-shift staircase) and gives every information
column weight 3, with the absent row cycling so each row carries nine
information blocks. Shifts are drawn from a seeded counter-based
generator and accepted only if they close no length-4 cycle against
every previously placed column. ldpc_encode requires the dual-diagonal
parity part, and that part is invertible by construction, so no rank
check is needed (docs/base_matrices.md). A candidate must then pass
encoder round trips and (optionally) a frame error rate probe before
the table is written.

Usage:
  python3 scripts/make_base_matrix.py --z 64 --seed 1 \
      --out src/parastream/tables/qc_rate34_z64.txt --probe-frames 500
"""

import argparse
import itertools
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from parastream import experiment, ldpc
from parastream.rng import make_rng

ROWS, COLS = 4, 16
INFO_COLS = COLS - ROWS


def closes_four_cycle(columns, candidate, z):
    """True if `candidate` (row -> shift) forms a 4-cycle with any column."""
    for other in columns:
        shared = sorted(set(candidate) & set(other))
        for r1, r2 in itertools.combinations(shared, 2):
            if (candidate[r1] - candidate[r2]) % z == (other[r1] - other[r2]) % z:
                return True
    return False


def search_base(z, seed, attempts=1000, tries_per_column=500):
    rng = make_rng(seed)
    for _ in range(attempts):
        s0 = int(rng.integers(1, z))
        parity_cols = [
            {0: s0, 1: 0, 3: s0},
            {0: 0, 1: 0},
            {1: 0, 2: 0},
            {2: 0, 3: 0},
        ]
        columns = list(parity_cols)
        base = np.full((ROWS, COLS), -1, dtype=np.int64)
        for j, col in enumerate(parity_cols):
            for r, s in col.items():
                base[r, INFO_COLS + j] = s
        ok = True
        for c in range(INFO_COLS):
            absent = c % ROWS
            rows = [r for r in range(ROWS) if r != absent]
            for _ in range(tries_per_column):
                cand = {r: int(rng.integers(0, z)) for r in rows}
                if not closes_four_cycle(columns, cand, z):
                    columns.append(cand)
                    for r, s in cand.items():
                        base[r, c] = s
                    break
            else:
                ok = False
                break
        if ok:
            return base
    raise RuntimeError("no 4-cycle-free assignment found; try another seed")


def probe_fer(table_text, esn0_db, frames, seed):
    """Frame error rate of the rendered table over the coded QPSK/AWGN
    link of experiment.fer_monte_carlo at one SNR point."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_text(table_text, encoding="ascii")
        return experiment.fer_monte_carlo(esn0_db, frames, seed=seed, code=str(path))


def render_table(base, z, seed):
    lines = [
        f"# Rate-3/4 quasi-cyclic LDPC base matrix ({ROWS} x {COLS}), Z={z}.",
        f"# Generated by scripts/make_base_matrix.py --z {z} --seed {seed}",
        "# Entry s >= 0 lifts to the Z x Z identity cyclically shifted by s;",
        "# entry -1 lifts to the zero block. Columns 0-11 carry information",
        "# blocks; columns 12-15 are the dual-diagonal parity part.",
        f"Z {z}",
        f"{ROWS} {COLS}",
    ]
    for row in base:
        lines.append(" ".join(f"{int(s):4d}" for s in row))
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--z", type=int, required=True, help="lifting size")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--probe-frames", type=int, default=0,
                    help="frames for the 6 dB FER probe (0 skips it)")
    args = ap.parse_args()

    base = search_base(args.z, args.seed)
    pcm = ldpc.build_qc_ldpc(base, args.z)
    print(f"built n={pcm.n} k={pcm.k} rate={pcm.rate:.3f}")

    rng = make_rng(args.seed, 2)
    info = rng.integers(0, 2, size=(64, pcm.k)).astype(np.uint8)
    assert not ldpc.syndrome(pcm, ldpc.ldpc_encode(pcm, info)).any()
    print("encoder syndrome check: ok (64 random frames)")

    table = render_table(base, args.z, args.seed)
    if args.probe_frames > 0:
        fer = probe_fer(table, 6.0, args.probe_frames, args.seed)
        print(f"FER probe at Es/N0 = 6 dB over {args.probe_frames} frames: {fer:.4g}")
        if fer >= 1e-2:
            raise SystemExit("probe FER too high; pick a different seed")

    args.out.write_text(table, encoding="ascii")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
