"""cfrkit benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a cfrkit checkout:

    python3 perfbench/run.py --workload study-known --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one at a time

Each workload runs in its own fresh interpreter (``worker.py``) with one
caller in a closed loop and BLAS/OpenMP pools pinned to one thread. The
program is imported from the checkout's ``src``; nothing is installed or
built. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
print the same metrics by name and unit for a reader.

``--record-reference`` reruns one pass of every workload on the reference
seed and stores its outputs in ``reference.json``; do that only on a commit whose
outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from config import CALIBRATION_REF_S, REFERENCE_SEED, SIZES, WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Fresh interpreters started only to time set-up; the workload's own
# interpreter adds one more sample.
SETUP_PROBES = {"default": 2, "tiny": 0}

END_TO_END = {
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

COUNT_METRICS = {
    "linelist.rows": "count",
    "linelist.table_bytes": "bytes",
    "survival.cdf.calls": "count",
    "survival.cdf.points": "count",
    "survival.fit_empirical.calls": "count",
    "estimators.days": "count",
    "estimators.f_evals_per_day": "calls/day",
    "simulation.simulate_replicate.calls": "count",
    "cli.output_bytes": "bytes",
    "trace.spans_per_pass": "count",
}

LAYERS = ("linelist", "survival", "estimators", "simulation", "cli")

# Which span's self time each workload is predicted to be dominated by.
PREDICTED_DOMINANT = {
    "linelist-1m": "linelist.parse_csv",
    "study-known": "survival.cdf",
    "study-final-day": "simulation.simulate_replicate",
}


def per_layer_unit(name: str) -> str:
    return COUNT_METRICS.get(name, "s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def checkout_root() -> Path:
    root = Path.cwd()
    for needed in ("src/cfrkit/__init__.py", "src/cfrkit/data/example_daily_cases.csv"):
        if not (root / needed).is_file():
            raise BenchError(f"{needed} not found: run from the root of a cfrkit checkout")
    return root


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], cwd: Path, env: dict, deadline: float, what: str):
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise BenchError(f"no time left for {what}")
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 record: bool = False) -> dict:
    """Run one workload in fresh processes; return the worker's result plus
    the set-up samples and the input-generation time."""
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    root = checkout_root()
    env = child_env(root)
    work = root / ".bench_work" / f"{name}-{size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    py = sys.executable
    common = ["--workload", name, "--seed", str(seed), "--size", size,
              "--src", str(root / "src")]
    try:
        input_gen_s = 0.0
        if name == "linelist-1m":
            t = time.perf_counter()
            run_child([py, str(HERE / "gen_linelist.py"), "--seed", str(seed),
                       "--rows", str(SIZES[size][name]),
                       "--curve", str(root / "src/cfrkit/data/example_daily_cases.csv"),
                       "--out", "linelist.csv"], work, env, deadline, "line-list generator")
            input_gen_s = time.perf_counter() - t
        setup, setup_scaled = [], []
        probes = 0 if (trace or record) else SETUP_PROBES[size]
        for _ in range(probes):
            proc = run_child([py, str(HERE / "worker.py"), *common, "--setup-only"],
                             work, env, deadline, "set-up probe")
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            setup.append(probe["setup_s"])
            setup_scaled.append(probe["setup_scaled_s"])
        argv = [py, str(HERE / "worker.py"), *common, "--seconds", str(seconds),
                "--trace", str(int(trace)), "--result", "result.json"]
        if record:
            argv.append("--record")
        run_child(argv, work, env, deadline, f"workload {name}")
        result = json.loads((work / "result.json").read_text())
    finally:
        for leftover in ("linelist.csv", "out"):
            path = work / leftover
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.exists():
                path.unlink()
    result["setup_samples"] = setup + [result["setup_s"]]
    result["setup_scaled_samples"] = setup_scaled + [result["setup_scaled_s"]]
    result["input_gen_s"] = input_gen_s
    result["wall_s"] = time.monotonic() - started
    return result


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, printed only
    from 20 samples on (below that it would not exceed the median)."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(result: dict) -> dict[str, float]:
    """End-to-end metrics; times scaled to reference machine speed (see
    ``workloads.calibrate``), peak RSS as measured."""
    scale = CALIBRATION_REF_S / statistics.median(result["calibration_s"])
    return {
        "throughput_per_s": result["work_per_pass"] / (statistics.median(result["pass_s"]) * scale),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setup_scaled_samples"]),
    }


def report(name: str, seed: int, trace: bool, result: dict) -> dict:
    """Print the metrics for a reader; return the contract's JSON object."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}  seed={seed}  trace={int(trace)}  wall={result['wall_s']:.1f} s")
    for message in result["failures"]:
        print(f"   FAILED {message}")
    print(f"   failed_frac          {failed / attempted:.4g} frac  ({failed} of {attempted} "
          f"operations; reference {'checked' if result['checked_reference'] else 'not checked'})")
    if not trace:
        metrics = end_to_end(result)
        passes = result["pass_s"]
        unit = result["unit"]
        alias = "rows_per_s" if unit == "rows" else "replicates_per_s"
        wall_median = statistics.median(passes)
        print(f"   throughput_per_s     {metrics['throughput_per_s']:.6g} 1/s  ({alias} at "
              f"reference speed; {result['work_per_pass']} {unit} per pass, median of "
              f"{len(passes)} passes)")
        print(f"   wall throughput      {result['work_per_pass'] / wall_median:.6g} 1/s  "
              f"(pass median {wall_median:.4f} s wall; calibration kernel median "
              f"{statistics.median(result['calibration_s']):.4f} s, reference "
              f"{CALIBRATION_REF_S} s)")
        tail = tail_percentile(passes)
        if tail is not None:
            print(f"   p{tail[0]:.0f} pass time        {tail[1]:.4f} s wall")
        print(f"   peak_rss_mb          {metrics['peak_rss_mb']:.6g} MB")
        print(f"   setup_s              {metrics['setup_s']:.6g} s  (at reference speed; "
              f"median of {len(result['setup_samples'])} fresh interpreters; wall median "
              f"{statistics.median(result['setup_samples']):.4f} s)")
        if result["input_gen_s"]:
            print(f"   input generation     {result['input_gen_s']:.3f} s  (not part of set-up)")
        out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        layers = result["per_layer"]
        for key, value in layers.items():
            print(f"   {key:38s} {value:.6g} {per_layer_unit(key)}")
        print_dominance(name, result)
        out = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
               "failed": failed, "metrics": out}
    return summary


def print_dominance(name: str, result: dict) -> None:
    """Print where a traced pass spent its time and check the prediction of
    which span's self time dominates the workload."""
    pass_s = result["per_layer"]["trace.pass_s"]
    table = sorted(result["self_time"].items(), key=lambda kv: -kv[1])
    traced = sum(v for _, v in table)
    print(f"   self time of a traced pass ({pass_s:.3f} s; outside any span "
          f"{pass_s - traced:.3f} s):")
    for span, value in table[:6]:
        print(f"     {span:36s} {value:9.4f} s  {100 * value / pass_s:5.1f}%")
    layers = {layer: sum(v for k, v in table if k.startswith(layer + ".")) for layer in LAYERS}
    print("   self time by layer: " + ", ".join(
        f"{layer} {100 * v / pass_s:.1f}%" for layer, v in layers.items()))
    dominant = table[0][0] if table else "none"
    predicted = PREDICTED_DOMINANT.get(name)
    if predicted is None:
        print(f"   dominant self time: {dominant} (no prediction for this workload)")
    elif predicted == dominant:
        print(f"   dominant self time: {dominant}; prediction {predicted} confirmed")
    else:
        inclusive = result["per_layer"].get(predicted + ".s", 0.0)
        print(f"   dominant self time: {dominant}; prediction {predicted} CONTRADICTED "
              f"({predicted} self {100 * result['self_time'].get(predicted, 0.0) / pass_s:.1f}%, "
              f"inclusive of its child spans {100 * inclusive / pass_s:.1f}%)")


def record_reference(seconds: float) -> None:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in WORKLOADS:
        result = run_workload(name, REFERENCE_SEED, seconds, False, "default", record=True)
        if result["failed"]:
            raise BenchError(f"{name}: failed while recording: {result['failures']}")
        reference[name] = result["reference"]
        print(f"recorded {name}")
    path.write_text(json.dumps(reference, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="cfrkit benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny inputs for the smoke check")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    try:
        if args.record_reference:
            record_reference(args.seconds)
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = {}
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            summaries[name] = report(name, args.seed, bool(args.trace), result)
            if len(names) > 1:
                print(json.dumps({name: summaries[name]}))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}.{k}": v for n, s in summaries.items()
                        for k, v in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
