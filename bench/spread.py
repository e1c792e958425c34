"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/spread.py [--workloads W ...] [--seeds 1-10] [--seconds S]
        [--trace 0 1] [--json FILE]

Runs `bench/run.py` once per workload, trace mode and seed, in sequence
(by default every workload, untraced and traced), and prints the failure
share with the attempted count and, for every metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median.
For a metric with an end-to-end bound in BENCHMARK.json the spread is
checked against a third of the bound.  Every run must report correct
outputs.  Raw results go to --json when given, with each run's raw times
and speed ratios from its result file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment():
    """Machine and software the figures were measured on."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    import numpy
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit or "unknown", "loadavg": list(os.getloadavg())}


def run_once(spec, workload, seed, seconds, trace, bounds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n"
                 f"{done.stderr}")
    result = dict(json.loads(lines[-1]), seed=seed)
    # raw times and speed ratios of the run, from its result file
    detail = json.loads((ROOT / ".bench_out" / workload
                         / f"result-trace{trace}.json").read_text())
    result["detail"] = {k: v for k, v in detail.items()
                        if k.endswith(("_s", "_ratios"))}
    values = {n: m["value"] for n, m in result["metrics"].items()
              if n in bounds}
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} {values}", flush=True)
    return result


def summarize(workload, trace, runs, bounds):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"\n{workload} trace {trace}: {len(runs)} runs, fail_frac "
          f"{failed / attempted:.6g} ({failed} of {attempted} experiments)")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else 0.0
        verdict = ""
        if name in bounds and name != "setup_s":
            verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"  {name:42s} median {med:12.6g} {first['unit']:6s} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:8.4f} {verdict}")
    print(flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1),
                        default=[0, 1])
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    env = environment()
    print(json.dumps(env))
    raw = {}
    ok = True
    for workload in args.workloads:
        for trace in args.trace:
            runs = raw[f"{workload}/trace{trace}"] = [
                run_once(spec, workload, seed, args.seconds, trace, bounds)
                for seed in args.seeds]
            ok &= all(r["correct"] for r in runs)
            summarize(workload, trace, runs, bounds)
    if args.json:
        env["loadavg_after"] = list(os.getloadavg())
        args.json.write_text(json.dumps({"environment": env, "runs": raw},
                                        indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
