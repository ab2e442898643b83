"""One workload in a fresh interpreter: set up, run timed passes, check outputs.

Started by ``run.py`` with the work directory as its current directory and
the checkout's ``src`` on PYTHONPATH. Set-up time runs from the first
statement of this file to the end of program-side preparation (``import
cfrkit`` plus the workload's ``Scenario``); it is also reported scaled by the
calibration kernel timed right after it (see ``workloads.calibrate``). With
``--setup-only`` it prints those times and exits. Otherwise it writes a JSON
result file.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer numbers, and the difference of the two medians is the
tracing overhead. Spans are written to ``spans.jsonl`` at exit.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="default")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", help="where to write the JSON result")
    parser.add_argument("--record", action="store_true", help="one pass; store fingerprints")
    return parser.parse_args()


ARGS = parse_args()
sys.path.insert(0, ARGS.src)
sys.path.insert(1, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402  (imports cfrkit and cfrkit.cli)

WORKLOAD = workloads.make(ARGS.workload, ARGS.seed, ARGS.size)
SETUP_S = time.perf_counter() - T0
SETUP_SCALED_S = SETUP_S * workloads.CALIBRATION_REF_S / workloads.calibrate()

import tracer as tracing  # noqa: E402


def check_source() -> None:
    """Refuse to measure a cfrkit other than the checkout's."""
    src = Path(ARGS.src).resolve()
    loaded = Path(workloads.cfrkit.__file__).resolve()
    if src not in loaded.parents:
        raise SystemExit(f"cfrkit was imported from {loaded}, not from {src}")


def load_reference():
    if ARGS.seed != workloads.REFERENCE_SEED or ARGS.record:
        return None
    if not workloads.REFERENCE_PATH.exists():
        return None
    entry = json.loads(workloads.REFERENCE_PATH.read_text()).get(ARGS.workload)
    if entry is None or entry["key"] != WORKLOAD.reference_key():
        return None
    return entry["outputs"]


def layer_metrics(stats: dict, pass_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span summary."""

    def get(name: str, key: str = "s") -> float:
        return stats.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for k, v in stats.items() if k.startswith(layer + "."))

    days = get("estimators.estimate_series", "count")
    cdf_calls = get("survival.cdf", "calls")
    return {
        "linelist.parse_csv.s": get("linelist.parse_csv"),
        "linelist.aggregate.s": get("linelist.aggregate"),
        "linelist.rows": get("linelist.parse_csv", "count"),
        "linelist.table_bytes": get("linelist.aggregate", "count"),
        "linelist.self_s": layer_self("linelist"),
        "survival.cdf.s": get("survival.cdf"),
        "survival.cdf.calls": cdf_calls,
        "survival.cdf.points": get("survival.cdf", "count"),
        "survival.sample.s": get("survival.sample"),
        "survival.fit_empirical.s": get("survival.fit_empirical"),
        "survival.fit_empirical.calls": get("survival.fit_empirical", "calls"),
        "survival.fit_nb_mle.s": get("survival.fit_nb_mle"),
        "survival.fit_zinb_mle.s": get("survival.fit_zinb_mle"),
        "survival.self_s": layer_self("survival"),
        "estimators.estimate_series.s": get("estimators.estimate_series"),
        "estimators.estimate_series.self_s": get("estimators.estimate_series", "self_s"),
        "estimators.days": days,
        "estimators.p_hat_daily.s": get("estimators.p_hat_daily"),
        "estimators.variance_cfr.s": get("estimators.variance_cfr"),
        "estimators.cfr_proposed.s": get("estimators.cfr_proposed"),
        "estimators.cfr_garske.s": get("estimators.cfr_garske"),
        "estimators.validate_assumptions.s": get("estimators.validate_assumptions"),
        "estimators.f_evals_per_day": cdf_calls / days if days else 0.0,
        "estimators.self_s": layer_self("estimators"),
        "simulation.simulate_replicate.s": get("simulation.simulate_replicate"),
        "simulation.simulate_replicate.calls": get("simulation.simulate_replicate", "calls"),
        "simulation.run_study.self_s": get("simulation.run_study", "self_s"),
        "simulation.self_s": layer_self("simulation"),
        "cli.fit_survival.s": get("cli.fit_survival"),
        "cli.estimate.s": get("cli.estimate"),
        "cli.self_s": layer_self("cli"),
        "cli.output_bytes": output_bytes if WORKLOAD.unit == "rows" else 0,
        "trace.pass_s": pass_s,
    }


def main() -> None:
    check_source()
    if ARGS.setup_only:
        print(json.dumps({"setup_s": SETUP_S, "setup_scaled_s": SETUP_SCALED_S}))
        return
    runner = workloads.Runner(WORKLOAD, load_reference())
    Path("out").mkdir(exist_ok=True)
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[tuple[dict, dict]] = []
    tracer = tracing.Tracer() if ARGS.trace else None
    start = time.perf_counter()
    while True:
        untraced.append(runner.run_pass())
        if tracer is not None:
            tracer.run_id += 1
            tracer.install()
            try:
                pass_s = runner.run_pass()
            finally:
                tracer.uninstall()
            traced.append(pass_s)
            stats = tracing.summarize(tracer.spans, tracer.run_id)
            per_pass.append((stats, layer_metrics(stats, pass_s, runner.output_bytes)))
        if ARGS.record:
            break
        used = time.perf_counter() - start
        step = statistics.median(untraced) + (statistics.median(traced) if traced else 0.0)
        if used + step > ARGS.seconds:
            break

    result = {
        "setup_s": SETUP_S,
        "setup_scaled_s": SETUP_SCALED_S,
        "pass_s": untraced,
        "calibration_s": runner.calibrations,
        "work_per_pass": WORKLOAD.work,
        "unit": WORKLOAD.unit,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "checked_reference": runner.reference is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if ARGS.record:
        result["reference"] = {"key": WORKLOAD.reference_key(), "outputs": runner.first}
    if tracer is not None:
        names = per_pass[0][1].keys()
        layers = {n: statistics.median(m[n] for _, m in per_pass) for n in names}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        layers["trace.spans_per_pass"] = len(tracer.spans) / len(traced)
        result["per_layer"] = layers
        result["self_time"] = self_time_table(per_pass)
        tracer.dump("spans.jsonl")
    Path(ARGS.result).write_text(json.dumps(result))


def self_time_table(per_pass) -> dict[str, float]:
    """Median self time per span name over the traced passes."""
    names = sorted({name for stats, _ in per_pass for name in stats})
    return {
        name: statistics.median(stats.get(name, {}).get("self_s", 0.0) for stats, _ in per_pass)
        for name in names
    }


if __name__ == "__main__":
    main()
