#!/usr/bin/env python3
"""Regenerate the bundled example data.

Writes three files under src/cfrkit/data/:

* example_daily_cases.csv: the rising arm (301 days) of an illustrative
  large epidemic, a two-bump Gaussian mixture with a weekly reporting
  ripple, about 1.6 million cases in total.
* example_linelist.csv: 1000 synthetic case records with ISO dates
  (epoch 2020-03-03) drawn from the early part of that curve, with
  negative binomial confirmation-to-death delays.
* example_daily_rates.csv: `illustrative_daily_rates` over 752 days, as
  many as the default horizon of a study of the mirrored curve, for
  `cfrkit coverage --rates-file`; written with 17 digits, which read back
  exactly.

Deterministic; rerunning reproduces the committed files byte for byte.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cfrkit.simulation import illustrative_daily_rates  # noqa: E402
from cfrkit.survival import NegBinomial  # noqa: E402

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "cfrkit" / "data"
EPOCH = "2020-03-03"
N_RECORDS = 1000
RATE_DAYS = 2 * 301 + 150  # the mirrored arm and the default 150 tail days
SEED = 20200303


def make_arm(n_days: int = 301) -> np.ndarray:
    d = np.arange(n_days, dtype=float)
    early = 250.0 * np.exp(-0.5 * ((d - 75.0) / 40.0) ** 2)
    main = 12800.0 * np.exp(-0.5 * ((d - 230.0) / 54.0) ** 2)
    ripple = 1.0 + 0.12 * np.sin(2.0 * np.pi * d / 7.0)
    arm = np.rint((early + main) * ripple).astype(np.int64)
    arm[0] = max(arm[0], 1)
    return arm


def make_linelist(arm: np.ndarray) -> list[tuple[str, str]]:
    from datetime import date, timedelta

    rng = np.random.default_rng(SEED)
    window = arm[:120].astype(float)
    weights = window / window.sum()
    confirm_days = np.sort(rng.choice(120, size=N_RECORDS, p=weights))
    rates = illustrative_daily_rates(120)
    delay = NegBinomial(mu=10.79, r=0.88)
    dies = rng.random(N_RECORDS) < rates.p[confirm_days]
    lags = delay.sample(N_RECORDS, rng)

    epoch = date.fromisoformat(EPOCH)
    rows = []
    for day, dead, lag in zip(confirm_days.tolist(), dies.tolist(), lags.tolist()):
        confirm = (epoch + timedelta(days=day)).isoformat()
        death = (epoch + timedelta(days=day + int(lag))).isoformat() if dead else ""
        rows.append((confirm, death))
    return rows


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    arm = make_arm()
    with open(DATA_DIR / "example_daily_cases.csv", "w", encoding="utf-8") as f:
        f.write("day,cases\n")
        for day, cases in enumerate(arm.tolist()):
            f.write(f"{day},{cases}\n")
    with open(DATA_DIR / "example_daily_rates.csv", "w", encoding="utf-8") as f:
        f.write("day,p\n")
        for day, p in enumerate(illustrative_daily_rates(RATE_DAYS).p.tolist()):
            f.write(f"{day},{p:.17g}\n")
    rows = make_linelist(arm)
    with open(DATA_DIR / "example_linelist.csv", "w", encoding="utf-8") as f:
        f.write("confirm_date,death_date\n")
        for confirm, death in rows:
            f.write(f"{confirm},{death}\n")
    print(f"wrote {len(arm)} curve days, {RATE_DAYS} daily rates and {len(rows)} line-list records to {DATA_DIR}")


if __name__ == "__main__":
    main()
