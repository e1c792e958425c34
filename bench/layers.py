"""Per-layer metrics derived from a span table and the facts hooks recorded.

Every metric is defined for every workload; where a layer does no work on a
workload its times and counts read 0 and so do ratios with a zero base.
"""

import numpy as np

from tracing import CountingList

RESIDUALS = ("diagnostics.entropy_identity_residual",
             "diagnostics.supersolution_residual",
             "diagnostics.v_weak_residual")
ENSEMBLES = ("oracles.log_poincare_ratio", "oracles.mean_poincare_ratio",
             "oracles.mean_poincare_delta_trend")

# name -> unit, in report order
UNITS = {
    "simulator.run_s": "s",
    "simulator.steps": "count",
    "simulator.step_attempts": "count",
    "simulator.accept_ratio": "ratio",
    "simulator.step_us.p50": "us",
    "simulator.step_us.p99": "us",
    "simulator.ns_per_cell_step": "ns",
    "simulator.cfl_dt_calls_per_step": "ratio",
    "simulator.cfl_dt_s": "s",
    "simulator.rejected_s": "s",
    "simulator.snapshot_mb": "MiB",
    "simulator.step_alloc_kb": "KiB",
    "simulator.self_s": "s",
    "grid.ops_s": "s",
    "grid.calls": "count",
    "grid.self_s": "s",
    "diagnostics.collect_s": "s",
    "diagnostics.collect_ms_per_sample": "ms",
    "diagnostics.residual_s": "s",
    "diagnostics.residual_calls": "count",
    "diagnostics.residual_ms_per_phi_sample": "ms",
    "diagnostics.snapshot_passes": "count",
    "diagnostics.checks_s": "s",
    "diagnostics.self_s": "s",
    "oracles.ode_s": "s",
    "oracles.ode_ns_per_case_step": "ns",
    "oracles.synth_s": "s",
    "oracles.synth_ms_per_field": "ms",
    "oracles.ensemble_s": "s",
    "oracles.member_accept_ratio": "ratio",
    "oracles.square_s": "s",
    "oracles.self_s": "s",
    "params.s": "s",
    "params.calls": "count",
    "cli.write_s": "s",
    "cli.output_kb": "KiB",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class Facts:
    """Counts read from arguments and results of traced calls."""

    def __init__(self):
        self.cell_steps = 0        # sum over runs of cells x accepted steps
        self.snapshot_bytes = 0
        self.trajectories = []
        self.initial_states = {}   # grid shape -> first initial state run
        self.collect_samples = 0
        self.residual_samples = 0
        self.ode_case_steps = 0
        self.members = 0
        self.regenerated = 0

    def install(self, tracer):
        tracer.hooks["simulator.run"] = self._on_run
        tracer.hooks["diagnostics.collect"] = self._on_collect
        for name in RESIDUALS:
            tracer.hooks[name] = self._on_residual
        tracer.hooks["oracles.verify_ode_comparison_batch"] = self._on_ode
        tracer.hooks["oracles.log_poincare_ratio"] = self._on_log_ensemble

    def _on_run(self, args, kwargs, traj):
        initial = args[0] if args else kwargs["initial"]
        self.initial_states.setdefault(traj.grid.shape, initial)
        self.cell_steps += int(np.prod(traj.grid.shape)) * len(traj.reports)
        self.snapshot_bytes += sum(a.nbytes for a in traj.u_snapshots)
        self.snapshot_bytes += sum(a.nbytes for a in traj.v_snapshots)
        traj.u_snapshots = CountingList(traj.u_snapshots)
        self.trajectories.append(traj)

    def _on_collect(self, args, kwargs, record):
        self.collect_samples += len(record.times)

    def _on_residual(self, args, kwargs, result):
        traj = next(a for a in list(args) + list(kwargs.values())
                    if hasattr(a, "u_snapshots"))
        self.residual_samples += len(traj.times)

    def _on_ode(self, args, kwargs, reports):
        self.ode_case_steps += sum(r.substeps for r in reports)

    def _on_log_ensemble(self, args, kwargs, report):
        self.members += report.included + report.alternative + report.excluded
        self.regenerated += report.regenerated

    def snapshot_passes(self):
        """Element reads of each trajectory's u snapshots over its length."""
        return sum(t.u_snapshots.reads / len(t.u_snapshots)
                   for t in self.trajectories)


def _ancestor_in(parent, mask):
    """For each span, whether some proper ancestor satisfies mask."""
    flag = np.zeros(len(parent), dtype=bool)
    up = parent.copy()
    while True:
        has = up >= 0
        if not has.any():
            return flag
        flag[has] |= mask[up[has]]
        nxt = np.full_like(up, -1)
        nxt[has] = parent[up[has]]
        up = nxt


def _self_times(parent, dur):
    """Span duration minus its children's (same-thread, disjoint) spans."""
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child],
                             minlength=len(dur))


def layer_metrics(table, names, facts, output_bytes, alloc_bytes):
    t = table
    dur = t["end"] - t["start"]
    parent = t["parent"]
    layer_of = np.array([n.split(".", 1)[0] for n in names])[t["name"]]
    self_t = _self_times(parent, dur)

    def mask(pred):
        return np.array([pred(n) for n in names], dtype=bool)[t["name"]]

    def named(*wanted):
        return mask(lambda n: n in wanted)

    def outer(m):
        """Spans in m with no ancestor in m, so nested time counts once."""
        return m & ~_ancestor_in(parent, m)

    def total(m):
        return float(dur[outer(m)].sum())

    def self_of(layer):
        return float(self_t[layer_of == layer].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    step = named("simulator.step")
    steps = int((step & (t["failed"] == 0)).sum())
    attempts = int(step.sum())
    step_us = dur[step] * 1e6 if attempts else np.zeros(1)
    run_s = total(named("simulator.run"))
    grid_ops = mask(lambda n: n.startswith("grid.")
                    and not n.split(".")[1].startswith(("write_", "read_")))
    collect_s = total(named("diagnostics.collect"))
    residual = outer(named(*RESIDUALS))
    residual_s = float(dur[residual].sum())
    checks = mask(lambda n: n.startswith("diagnostics.")
                  and n.endswith(("_check", "_bound")))
    ode_s = total(named("oracles.verify_ode_comparison_batch"))
    synth = named("oracles.synth_positive_field")
    params = layer_of == "params"
    writers = mask(lambda n: n.rsplit(".", 1)[1].startswith(("write_", "export_"))
                   or n.endswith(".to_csv"))

    return {
        "simulator.run_s": run_s,
        "simulator.steps": steps,
        "simulator.step_attempts": attempts,
        "simulator.accept_ratio": ratio(steps, attempts),
        "simulator.step_us.p50": float(np.percentile(step_us, 50)),
        "simulator.step_us.p99": float(np.percentile(step_us, 99)),
        "simulator.ns_per_cell_step": ratio(run_s * 1e9, facts.cell_steps),
        "simulator.cfl_dt_calls_per_step": ratio(
            int(named("simulator.cfl_dt").sum()), steps),
        "simulator.cfl_dt_s": total(named("simulator.cfl_dt")),
        "simulator.rejected_s": float(dur[step & (t["failed"] == 1)].sum()),
        "simulator.snapshot_mb": facts.snapshot_bytes / 2**20,
        "simulator.step_alloc_kb": alloc_bytes / 2**10,
        "simulator.self_s": self_of("simulator"),
        "grid.ops_s": total(grid_ops),
        "grid.calls": int(grid_ops.sum()),
        "grid.self_s": self_of("grid"),
        "diagnostics.collect_s": collect_s,
        "diagnostics.collect_ms_per_sample": ratio(collect_s * 1e3,
                                                   facts.collect_samples),
        "diagnostics.residual_s": residual_s,
        "diagnostics.residual_calls": int(residual.sum()),
        "diagnostics.residual_ms_per_phi_sample": ratio(
            residual_s * 1e3, facts.residual_samples),
        "diagnostics.snapshot_passes": round(facts.snapshot_passes(), 6),
        "diagnostics.checks_s": total(checks),
        "diagnostics.self_s": self_of("diagnostics"),
        "oracles.ode_s": ode_s,
        "oracles.ode_ns_per_case_step": ratio(ode_s * 1e9, facts.ode_case_steps),
        "oracles.synth_s": total(synth),
        "oracles.synth_ms_per_field": ratio(total(synth) * 1e3, int(synth.sum())),
        "oracles.ensemble_s": total(named(*ENSEMBLES)),
        "oracles.member_accept_ratio": ratio(
            facts.members, facts.members + facts.regenerated),
        "oracles.square_s": total(named("oracles.check_square_completion")),
        "oracles.self_s": self_of("oracles"),
        "params.s": total(params),
        "params.calls": int(params.sum()),
        "cli.write_s": total(writers),
        "cli.output_kb": output_bytes / 2**10,
        "cli.self_s": self_of("cli"),
        "trace.spans": len(dur),
    }
