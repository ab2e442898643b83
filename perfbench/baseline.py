"""Repeat the benchmark over several seeds and summarise it as a trajectory point.

Run from the root of a cfrkit checkout:

    python3 perfbench/baseline.py --runs 10 --out perfbench/BENCH_0.json
    python3 perfbench/baseline.py --runs 10 --against perfbench/BENCH_0.json

For each workload it makes ``--runs`` untraced runs, each with another
seed, and one traced run. Per end-to-end metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``), the sample count and the
spread, which is the interquartile distance as a share of the median, next to
the bound from BENCHMARK.json. With ``--against`` it also reports, per
metric, whether the median got worse than the earlier file's by more than
the bound. The output file records the machine and versions as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Seeds FIRST_SEED, FIRST_SEED + 1, ...; the traced run uses FIRST_SEED.
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of run.py; its JSON line plus the run's wall time."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def machine() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=False,
    ).stdout.split()
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         check=False).stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": versions[0] if versions else "unknown",
        "scipy": versions[1] if len(versions) > 1 else "unknown",
        "git_sha": sha,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the summary here")
    parser.add_argument("--against", help="an earlier summary to compare medians with")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.against).read_text()) if args.against else None

    summary = {"machine": machine(), "run_seconds": spec["run_seconds"],
               "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in names:
        runs = [run_once(workload, FIRST_SEED + i, spec["run_seconds"], 0)
                for i in range(args.runs)]
        traced = run_once(workload, FIRST_SEED, spec["run_seconds"], 1)
        entry = {
            "seeds": [FIRST_SEED + i for i in range(args.runs)],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": FIRST_SEED,
            "run_wall_s": [r["wall_s"] for r in runs],
            "traced_run_wall_s": traced["wall_s"],
        }
        print(f"== {workload}: {entry['failed']} of {entry['attempted']} operations failed; "
              f"run wall median {statistics.median(entry['run_wall_s']):.1f} s, "
              f"traced run {traced['wall_s']:.1f} s")
        for metric, meta in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = meta["unit"]
            entry["end_to_end"][metric] = stats
            verdict = "steady" if stats["spread"] < meta["bound"] / 3 else (
                "within bound" if stats["spread"] <= meta["bound"] else "SPREAD OVER BOUND")
            line = (f"   {metric:18s} median {stats['median']:.6g} {meta['unit']}  "
                    f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n {stats['n']}  "
                    f"spread {stats['spread']:.4f} (bound {meta['bound']}): {verdict}")
            if earlier and workload in earlier["workloads"]:
                before = earlier["workloads"][workload]["end_to_end"][metric]["median"]
                change = (stats["median"] - before) / before
                worse = -change if meta["better"] == "higher" else change
                line += f"; vs earlier {change:+.4f}" + (" WORSE THAN BOUND" if worse > meta["bound"] else "")
            print(line, flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
