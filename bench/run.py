"""Benchmark of the logsense-ks experiments, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  With --trace 0 the workload's experiment is repeated in-process
through `validate_config` and `run_experiment`, untraced, for as long as
another repeat should still end within S seconds (at least once), and the
end-to-end metrics are reported: median wall time, set-up time (median of
fresh-interpreter probes), peak RSS and the share of experiments that
passed.  Wall times are rescaled to a reference CPU speed that `speed.py`
samples during each experiment; the raw times are printed and kept in the
result file.  With --trace 1 the experiment runs twice untraced (the
first a warm-up) and once with every public function of the package
traced, and the per-layer metrics are reported.  Every experiment's outputs
are checked: exit code 0, no abort, every required assertion present and
passed, every output file written, and a sha256 of the outputs (manifest
wall time removed) equal across all repeats of the run.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Outputs, spans and a
detailed result file go to `.bench_out/<workload>/` under the checkout.
"""

import argparse
import copy
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from layers import UNITS, Facts, layer_metrics
from speed import Sampler
from tracing import Tracer, instrument
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up probes after each experiment, so that they sample the same stretch
# of machine speed as the experiments; one discarded warm-up probe first.
PROBES_PER_EXPERIMENT = 2
# Speed samples every 20 ms of an experiment: about 1% of its time, which
# is subtracted from its wall time.
SAMPLE_INTERVAL_S = 0.02

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "pass_frac": "ratio"}

# Times the fresh-interpreter set-up a user of the CLI pays on every run.
SETUP_PROBE = """
import json, sys, time
src, raw = sys.argv[1], json.loads(sys.argv[2])
t0 = time.perf_counter()
sys.path.insert(0, src)
import logsense_ks
from logsense_ks.cli import validate_config
validate_config(raw, out_override="unused")
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed experiment)."""


def load_package():
    init = SRC / "logsense_ks" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import logsense_ks
    if Path(logsense_ks.__file__).resolve() != init.resolve():
        raise BenchError(f"imported {logsense_ks.__file__}, not the checkout")
    return sys.modules["logsense_ks.cli"]


@dataclass
class Experiment:
    """Outcome of one run_experiment call and the checks made on it."""

    wall: float          # seconds, speed samples' own time subtracted
    speed_ratio: float   # Sampler.ratio() over the call
    problems: list
    digest: str | None
    output_bytes: int

    @property
    def wall_ref(self):
        """Wall time at the reference CPU speed."""
        return self.wall / self.speed_ratio


def output_digest(out_dir):
    """sha256 over every output file, with the manifest's wall time removed."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        rel = path.relative_to(out_dir).as_posix()
        if rel == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


def run_experiment(cli, workload, raw, out_dir):
    """One experiment through the CLI's validate/run pair, checked."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = cli.validate_config(copy.deepcopy(raw), out_override=str(out_dir))
    problems = []
    with Sampler(SAMPLE_INTERVAL_S) as speed:
        t0 = time.perf_counter()
        try:
            code, manifest = cli.run_experiment(cfg)
            raised = None
        except Exception as exc:  # a raising experiment is a failed one
            raised = exc
        wall = time.perf_counter() - t0 - speed.busy
    if raised is not None:
        return Experiment(wall, speed.ratio(),
                          [f"raised {type(raised).__name__}: {raised}"],
                          None, 0)
    if code != 0:
        problems.append(f"exit code {code}")
    if "aborted" in manifest:
        problems.append(f"aborted: {manifest['aborted']}")
    passed = {e["name"]: e["passed"] for e in manifest["assertions"]}
    problems += [f"assertion {n} failed" for n, ok in passed.items() if not ok]
    problems += [f"assertion {n} missing" for n in workload.assertions
                 if n not in passed]
    for name in set(manifest["outputs"]) | set(workload.outputs) | {"manifest.json"}:
        if not (out_dir / name).is_file():
            problems.append(f"output {name} missing")
    digest, size = output_digest(out_dir)
    return Experiment(wall, speed.ratio(), problems, digest, size)


def check_digests(experiments):
    first = next((e.digest for e in experiments if e.digest), None)
    for e in experiments:
        if e.digest and e.digest != first:
            e.problems.append("outputs differ from the run's first experiment")


def setup_probe(raw):
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), json.dumps(raw)],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout)


def step_alloc_bytes(states):
    """tracemalloc peak of one step above its input, largest over grids."""
    from logsense_ks.simulator import cfl_dt, step
    worst = 0
    for state in states:
        dt = cfl_dt(state)
        step(state, dt)  # warm numpy's allocation caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(state, dt)
            worst = max(worst, tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    return worst


def measure_end_to_end(cli, workload, raw, seconds, out_dir):
    experiments = []
    setup = []
    start = time.perf_counter()
    while True:
        experiments.append(run_experiment(cli, workload, raw, out_dir))
        if len(experiments) == 1:
            # children of the experiment itself; the probes' come after
            children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            setup_probe(raw)  # warm-up: bytecode compilation, discarded
        setup += [setup_probe(raw) for _ in range(PROBES_PER_EXPERIMENT)]
        longest = max(e.wall for e in experiments)
        # start another only if it should still end within the window
        if time.perf_counter() - start + longest > seconds:
            break
    check_digests(experiments)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(e.wall_ref for e in experiments),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": (own_kb + children_kb) / 1024.0,
        "pass_frac": sum(not e.problems for e in experiments) / len(experiments),
    }
    detail = {"walls_s": [e.wall for e in experiments],
              "wall_speed_ratios": [e.speed_ratio for e in experiments],
              "setup_samples_s": setup}
    print(f"raw wall_s median {statistics.median(detail['walls_s']):.6g}, "
          f"speed ratio median "
          f"{statistics.median(detail['wall_speed_ratios']):.4f}")
    return experiments, metrics, END_TO_END_UNITS, detail


def measure_layers(cli, workload, raw, out_dir):
    # The first experiment of a process pays for cold allocator state (6%
    # on entropy-check-128), so both timed ones follow a checked warm-up.
    warm_up = run_experiment(cli, workload, raw, out_dir)
    untraced = run_experiment(cli, workload, raw, out_dir)
    tracer = Tracer()
    facts = Facts()
    facts.install(tracer)
    with instrument(tracer):
        traced = run_experiment(cli, workload, raw, out_dir)
    experiments = [warm_up, untraced, traced]
    check_digests(experiments)
    table = tracer.table()
    tracer.write(out_dir.parent / "spans.npz", table)
    alloc = step_alloc_bytes(facts.initial_states.values())
    metrics = layer_metrics(table, tracer.names, facts, traced.output_bytes,
                            alloc)
    metrics["trace.overhead_frac"] = traced.wall_ref / untraced.wall_ref - 1.0
    detail = {"untraced_wall_s": untraced.wall, "traced_wall_s": traced.wall,
              "speed_ratios": [untraced.speed_ratio, traced.speed_ratio]}
    return experiments, metrics, UNITS, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_package()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    raw = workload.config(args.seed)
    work_dir = OUT / workload.name
    out_dir = work_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        experiments, metrics, units, detail = measure_layers(
            cli, workload, raw, out_dir)
    else:
        experiments, metrics, units, detail = measure_end_to_end(
            cli, workload, raw, args.seconds, out_dir)

    failed = sum(bool(e.problems) for e in experiments)
    digest = experiments[-1].digest
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"experiments {len(experiments)}  failed {failed}  "
          f"fail_frac {failed / len(experiments):.6g}")
    print(f"outputs sha256 {digest}")
    for e in experiments:
        for problem in e.problems:
            print(f"FAILED: {problem}")
    for name in units:
        print(f"{name:42s} {metrics[name]:>16.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": len(experiments),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    with open(work_dir / f"result-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, workload=workload.name, seed=args.seed,
                       config=raw, outputs_sha256=digest,
                       problems=[p for e in experiments for p in e.problems],
                       **detail), fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
