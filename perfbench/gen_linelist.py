"""Write a seeded synthetic line list for the ``linelist-1m`` workload.

The file looks like a real export: ISO dates against the epoch 2020-03-03,
an extra ``region`` column before the two date columns, and a few ``#``
comment lines between data rows. Confirmation days follow the bundled case
curve mirrored around its peak; 5% of cases die after a negative binomial
delay (mean 10.79, dispersion 0.88). Only numpy is imported, so generating
the input costs the program under test nothing.

Usage: python3 gen_linelist.py --seed N --rows N --curve CSV --out PATH
"""

from __future__ import annotations

import argparse
import os

import numpy as np

EPOCH = np.datetime64("2020-03-03", "D")
DEATH_PROB = 0.05
DELAY_MU = 10.79
DELAY_R = 0.88
REGIONS = np.array(["north", "south", "east", "west"])
COMMENTS_EVERY = 250_000


def read_curve(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip() and not line.startswith("#")]
    col = lines[0].strip().split(",").index("cases")
    return np.array([int(line.split(",")[col]) for line in lines[1:]], dtype=np.int64)


def generate(seed: int, rows: int, arm: np.ndarray) -> list[str]:
    """Return the CSV lines (header first) of one synthetic line list."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    curve = np.concatenate([arm, arm[::-1]]).astype(float)
    confirm = np.sort(rng.choice(curve.size, size=rows, p=curve / curve.sum()))
    dies = rng.random(rows) < DEATH_PROB
    lags = rng.negative_binomial(DELAY_R, DELAY_R / (DELAY_R + DELAY_MU), size=rows)
    region = REGIONS[rng.integers(0, REGIONS.size, size=rows)]
    confirm_iso = np.datetime_as_string(EPOCH + confirm, unit="D")
    death_iso = np.where(dies, np.datetime_as_string(EPOCH + confirm + lags, unit="D"), "")

    lines = ["region,confirm_date,death_date", f"# synthetic line list seed={seed} rows={rows}"]
    for start in range(0, rows, COMMENTS_EVERY):
        stop = min(start + COMMENTS_EVERY, rows)
        if start:
            lines.append(f"# rows {start + 1}..{stop}")
        lines.extend(
            f"{g},{c},{d}"
            for g, c, d in zip(
                region[start:stop].tolist(),
                confirm_iso[start:stop].tolist(),
                death_iso[start:stop].tolist(),
            )
        )
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--curve", required=True, help="CSV with a 'cases' column")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    lines = generate(args.seed, args.rows, read_curve(args.curve))
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
