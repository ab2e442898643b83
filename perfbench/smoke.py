"""Fast self-check of the benchmark harness at tiny input sizes.

Run from the root of a cfrkit checkout: ``python3 perfbench/smoke.py``.
It confirms that

* every workload prints every metric named in BENCHMARK.json, with its unit,
  in both the untraced and the traced run, and reports no failure;
* a perturbed output is counted as a failed operation, whether it differs
  from the first pass, from the reference, or breaks an invariant.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run_bench(trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr}")
    per_workload = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            obj = json.loads(line)
            if len(obj) == 1:
                per_workload.update(obj)
    return proc.stdout, per_workload


def check_metrics(spec: dict, problems: list[str]) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        text, results = run_bench(trace)
        if sorted(results) != sorted(w["name"] for w in spec["workloads"]):
            problems.append(f"trace {trace}: workloads {sorted(results)}")
        for workload, result in results.items():
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed")
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} missing or wrong unit: {got}")
                elif not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload}: {metric['name']} is not a number")
            extra = set(result["metrics"]) - {m["name"] for m in spec[section]}
            if extra:
                problems.append(f"{workload}: metrics not in BENCHMARK.json: {sorted(extra)}")
        names = [m["name"] for m in spec[section]] + ["failed_frac"]
        for name in names:
            if name not in text:
                problems.append(f"trace {trace}: {name} not printed for a reader")


def check_perturbations(problems: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gen_linelist
    import workloads

    def expect(label: str, runner, failures: int) -> None:
        if runner.failed != failures:
            problems.append(f"{label}: {runner.failed} failures counted, expected {failures}")

    work = ROOT / ".bench_work" / "smoke"
    (work / "out").mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(work)
    try:
        linelist = workloads.make("linelist-1m", 3, "tiny")
        arm = gen_linelist.read_curve(str(ROOT / "src/cfrkit/data/example_daily_cases.csv"))
        lines = gen_linelist.generate(3, linelist.work, arm)
        Path("linelist.csv").write_text("\n".join(lines) + "\n")

        runner = workloads.Runner(linelist, None)
        runner.run_pass()
        expect("line list, clean pass", runner, 0)
        collect = linelist.collect

        def flipped(op, raw):
            output = collect(op, raw)
            return {path: data.replace(b"cfr", b"CFR", 1) for path, data in output.items()}

        linelist.collect = flipped
        runner.run_pass()
        expect("line list, changed bytes on a later pass", runner, 2)
        linelist.collect = collect

        reference = {op: dict(fp) for op, fp in runner.first.items()}
        reference["estimate"]["out/series.csv"] = "0" * 64
        runner = workloads.Runner(linelist, reference)
        runner.run_pass()
        expect("line list, digest differs from reference", runner, 1)
    finally:
        os.chdir(previous)

    study = workloads.make("study-final-day", 3, "tiny")
    run = study.run
    runner = workloads.Runner(study, None)
    runner.run_pass()
    expect("study, clean pass", runner, 0)

    def shifted(op):
        result = run(op)
        return dataclasses.replace(result, mean_cfr=result.mean_cfr + 1e-9)

    study.run = shifted
    runner.run_pass()
    expect("study, perturbed mean on a later pass", runner, 1)

    reference = {"run_study": json.loads(json.dumps(runner.first["run_study"]))}
    reference["run_study"]["arrays"]["mean_cfr"][0] += 1e-9
    study.run = run
    runner = workloads.Runner(study, reference)
    runner.run_pass()
    expect("study, array differs from reference by 1e-9", runner, 1)

    def bad_coverage(op):
        result = run(op)
        cov = dataclasses.replace(result.coverage, coverage=result.coverage.coverage + 2.0)
        return dataclasses.replace(result, coverage=cov)

    study.run = bad_coverage
    runner = workloads.Runner(study, None)
    runner.run_pass()
    expect("study, coverage outside [0, 1]", runner, 1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_metrics(spec, problems)
    check_perturbations(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
