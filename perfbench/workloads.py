"""The benchmark's workloads: program-side set-up, one timed pass, output checks.

A pass is the unit that is timed and repeated. Every pass of a run gets the
same inputs, so its outputs must be identical from pass to pass; on the
reference seed and default size they must also match ``reference.json``,
recorded with ``run.py --record-reference`` at the commit that defined the
benchmark. Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
import traceback
from pathlib import Path

import numpy as np

import cfrkit
from cfrkit import cli
from config import CALIBRATION_REF_S, EPOCH, REFERENCE_SEED, SCENARIO, SIZES  # noqa: F401
from gen_linelist import DEATH_PROB, DELAY_MU, DELAY_R

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
ARRAY_TOLERANCE = 1e-12
# Generator truth, for sanity checks of the fitted outputs.
TRUE_CFR = DEATH_PROB
TRUE_DELAY = {"mu": DELAY_MU, "r": DELAY_R}


_CALIBRATION_ARRAY = np.random.default_rng(0).random(200_000)


def calibrate() -> float:
    """Median time of three runs of a fixed interpreter-plus-numpy kernel,
    the yardstick for ``config.CALIBRATION_REF_S``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        np.sort(_CALIBRATION_ARRAY)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class CheckFailed(Exception):
    """An output differs from the reference, the first pass, or an invariant."""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class LinelistWorkload:
    """``cfrkit fit-survival`` then ``cfrkit estimate`` on a generated file,
    both through ``cfrkit.cli.main``. Runs in the directory holding
    ``linelist.csv``; paths stay relative so outputs are byte-reproducible."""

    unit = "rows"
    operations = ("fit-survival", "estimate")

    def __init__(self, name: str, seed: int, size: str) -> None:
        self.name, self.seed, self.size = name, seed, size
        self.work = SIZES[size][name]
        self.outputs = {
            "fit-survival": ("out/fits.csv", "out/fits_cdf.csv"),
            "estimate": ("out/series.csv",),
        }
        self.argv = {
            "fit-survival": ["fit-survival", "linelist.csv", "--epoch", EPOCH, "-o", "out/fits.csv"],
            "estimate": ["estimate", "linelist.csv", "--epoch", EPOCH, "-o", "out/series.csv"],
        }

    def run(self, operation: str):
        return cli.main(self.argv[operation])

    def collect(self, operation: str, raw):
        """Output of one operation, read outside the timed region."""
        if raw != 0:
            raise CheckFailed(f"cfrkit {operation} exited {raw}")
        return {path: Path(path).read_bytes() for path in self.outputs[operation]}

    def fingerprint(self, output) -> dict:
        return {path: digest(data) for path, data in output.items()}

    def output_bytes(self, output) -> int:
        return sum(len(data) for data in output.values())

    def reference_key(self) -> dict:
        return {"seed": self.seed, "rows": self.work}

    def check_reference(self, output, reference: dict) -> None:
        got = self.fingerprint(output)
        if got != reference:
            raise CheckFailed(f"CLI output digests differ from the reference: {got}")

    def check_invariants(self, operation: str, output) -> None:
        if operation == "fit-survival":
            rows = _csv_rows(output["out/fits.csv"])
            nb = next(row for row in rows if row["model"] == "nb")
            for key, truth in TRUE_DELAY.items():
                value = float(nb[key])
                if not abs(value - truth) <= 0.2 * truth:
                    raise CheckFailed(f"NB fit {key}={value} far from generator's {truth}")
            return
        rows = _csv_rows(output["out/series.csv"])
        if not rows:
            raise CheckFailed("estimate wrote no rows")
        for row in rows:
            low, cfr, high = float(row["ci_low"]), float(row["cfr"]), float(row["ci_high"])
            if not low <= cfr <= high:
                raise CheckFailed(f"day {row['t']}: interval [{low}, {high}] misses cfr {cfr}")
        last = rows[-1]
        if int(last["r_t"]) != self.work:
            raise CheckFailed(f"r_t on the last day is {last['r_t']}, expected {self.work} rows")
        tolerance = 0.005 + 5.0 * math.sqrt(TRUE_CFR * (1 - TRUE_CFR) / self.work)
        if not abs(float(last["cfr"]) - TRUE_CFR) <= tolerance:
            raise CheckFailed(f"final-day cfr {last['cfr']} far from generator's {TRUE_CFR}")


def _csv_rows(data: bytes) -> list[dict]:
    lines = [line for line in data.decode("utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


class StudyWorkload:
    """One ``run_study`` call on the acceptance-test step scenario."""

    unit = "replicates"
    operations = ("run_study",)

    def __init__(self, name: str, seed: int, size: str) -> None:
        self.name, self.seed, self.size = name, seed, size
        self.work = SIZES[size][name]
        self.mode = "estimated" if name == "study-estimated" else "known"
        self.eval_days = [SCENARIO["horizon"]] if name == "study-final-day" else None
        self.keep_series = name == "study-final-day"
        s = SCENARIO
        self.scenario = cfrkit.Scenario(
            rising_arm=cfrkit.load_example_arm()[: s["arm_days"]],
            symmetric=True,
            p_spec=cfrkit.StepRates(s["c1"], s["c2"], s["d_star"]),
            delay=cfrkit.NegBinomial(s["mu"], s["r"]),
            horizon=s["horizon"],
            seed=seed,
            replicates=self.work,
        )

    def run(self, operation: str):
        return cfrkit.run_study(
            self.scenario, self.mode, eval_days=self.eval_days, keep_series=self.keep_series
        )

    def collect(self, operation: str, raw):
        return raw

    @staticmethod
    def arrays(result) -> dict[str, np.ndarray]:
        cov = result.coverage
        out = {
            key: np.asarray(getattr(result, key), dtype=float)
            for key in ("days", "r_t", "cfr_true", "mean_cfr", "se_cfr", "mean_cfr_naive",
                        "se_cfr_naive", "mean_cfr_garske", "se_cfr_garske",
                        "mean_cfr_garske_mod", "se_cfr_garske_mod", "mean_cfr_final",
                        "se_cfr_final")
        }
        out["coverage"] = np.asarray(cov.coverage, dtype=float)
        out["coverage_se"] = np.asarray(cov.coverage_se, dtype=float)
        out["mean_ci_length"] = np.asarray(cov.mean_ci_length, dtype=float)
        return out

    def fingerprint(self, output) -> dict:
        """Digest of every StudyResult array, plus the arrays themselves,
        which ``run.py --record-reference`` stores."""
        arrays = self.arrays(output)
        blob = b"".join(key.encode() + arrays[key].tobytes() for key in sorted(arrays))
        return {"sha256": digest(blob), "arrays": {k: v.tolist() for k, v in arrays.items()}}

    def output_bytes(self, output) -> int:
        return sum(a.nbytes for a in self.arrays(output).values())

    def reference_key(self) -> dict:
        return {"seed": self.seed, "replicates": self.work}

    def check_reference(self, output, reference: dict) -> None:
        arrays = self.arrays(output)
        for key, ref in reference["arrays"].items():
            got = arrays.get(key, np.zeros(0))
            ref = np.asarray(ref, dtype=float)
            if got.shape != ref.shape or not np.all(np.abs(got - ref) <= ARRAY_TOLERANCE):
                raise CheckFailed(f"StudyResult.{key} differs from the reference by more than 1e-12")

    def check_invariants(self, operation: str, output) -> None:
        arrays = self.arrays(output)
        for key, values in arrays.items():
            if not np.all(np.isfinite(values)):
                raise CheckFailed(f"StudyResult.{key} has non-finite entries")
        coverage = arrays["coverage"]
        if np.any(coverage < 0.0) or np.any(coverage > 1.0):
            raise CheckFailed("coverage outside [0, 1]")
        if np.any(arrays["mean_ci_length"] < 0.0):
            raise CheckFailed("negative mean interval length")
        truth = arrays["cfr_true"]
        if not np.all((truth >= SCENARIO["c2"] - 1e-12) & (truth <= SCENARIO["c1"] + 1e-12)):
            raise CheckFailed("cfr_true outside the step rates")
        for rep in output.replicates:
            series = rep.series
            if not np.all((series.ci_low <= series.cfr) & (series.cfr <= series.ci_high)):
                raise CheckFailed("a replicate's interval misses its own estimate")
        if self.keep_series and len(output.replicates) != self.work:
            raise CheckFailed("run_study kept the wrong number of replicate series")


def make(name: str, seed: int, size: str):
    if name == "linelist-1m":
        return LinelistWorkload(name, seed, size)
    return StudyWorkload(name, seed, size)


class Runner:
    """Runs passes of one workload and counts failed operations: an
    exception, a nonzero exit or a failed output check."""

    def __init__(self, workload, reference: dict | None) -> None:
        self.workload = workload
        self.reference = reference
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.calibrations: list[float] = []

    def run_pass(self) -> float:
        """Time one pass and check its outputs afterwards. Returns the wall
        time. The calibration kernel runs before the first operation and
        after each one, outside the timed region."""
        elapsed = 0.0
        raws = {}
        if not self.calibrations:
            self.calibrations.append(calibrate())
        for op in self.workload.operations:
            self.attempted += 1
            start = time.perf_counter()
            try:
                raws[op] = self.workload.run(op)
            except Exception:
                self.fail(op, traceback.format_exc(limit=3))
            elapsed += time.perf_counter() - start
            self.calibrations.append(calibrate())
        self.output_bytes = 0
        for op, raw in raws.items():
            try:
                output = self.workload.collect(op, raw)
                self.output_bytes += self.workload.output_bytes(output)
                fingerprint = self.workload.fingerprint(output)
                if op not in self.first:
                    self.first[op] = fingerprint
                elif fingerprint != self.first[op]:
                    raise CheckFailed("output differs from the first pass of this seed")
                if self.reference is not None:
                    self.workload.check_reference(output, self.reference[op])
                self.workload.check_invariants(op, output)
            except Exception as exc:
                self.fail(op, f"{type(exc).__name__}: {exc}")
        return elapsed

    def fail(self, op: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{op}: {message}")
