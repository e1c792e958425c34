"""Benchmark workloads: experiment configs derived from a workload seed.

Each workload is one CLI experiment.  The seed moves the Gaussian centre of
the initial u (solver workloads) or the master seed (oracle workload); the
sizes are fixed so that step counts and memory do not depend on the seed.
The program only ever sees the generated config.
"""

import random

# Model and initial data of the README's simulate example.
_MODEL = {"chi": 2.0, "n": 2, "eps": 0.01, "p": 0.2, "q": 0.35, "r": 1.1}
_U = {"kind": "gaussian", "amplitude": 1.5, "width": 0.12, "baseline": 0.2}
_V = {"kind": "constant", "value": 1.0}

# Centres within this distance of the box centre keep the step counts of the
# centred run and pass every assertion of the solver workloads.
CENTRE_JITTER = 0.12


def _centre(rng):
    return [round(0.5 + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER), 4)
            for _ in range(2)]


def _solver_config(mode, cells, rng, run):
    return {
        "mode": mode,
        "grid": {"cells": [cells, cells], "extents": [1.0, 1.0]},
        "model": dict(_MODEL),
        "initial": {"u": dict(_U, center=_centre(rng)), "v": dict(_V)},
        "run": run,
    }


def simulate_64(rng):
    return _solver_config("simulate", 64, rng,
                          {"T": 0.2, "sample_count": 200, "save_fields": "final"})


def entropy_check_128(rng):
    return _solver_config("entropy-check", 128, rng,
                          {"T": 0.005, "sample_count": 200})


def oracle_32(rng):
    return {
        "mode": "oracle",
        "grid": {"cells": [32, 32], "extents": [1.0, 1.0]},
        "model": {"chi": 2.0, "n": 2},
        "seed": rng.randrange(2**31),
        "oracle": {"square_trials": 1000, "ode_cases": 100,
                   "include_riesz": True, "ensemble": {"count": 200}},
    }


class Workload:
    """A named experiment plus what a correct run of it must produce."""

    def __init__(self, name, make, assertions, outputs):
        self.name = name
        self.make = make
        self.assertions = assertions  # names the manifest must hold, all passed
        self.outputs = outputs        # files the run must write

    def config(self, seed):
        return self.make(random.Random(seed))


_SOLVER_CHECKS = ["mass_conservation", "v_floor_comparison",
                  "trace_positivity", "u_lr_pointwise", "grad_vq",
                  "apriori_bounds", "log_mass"]

WORKLOADS = {
    w.name: w for w in [
        Workload("simulate-64", simulate_64, _SOLVER_CHECKS,
                 ["record.csv", "steps.csv", "summary.json",
                  "fields/u_0200.bin", "fields/v_0200.bin"]),
        Workload("entropy-check-128", entropy_check_128, _SOLVER_CHECKS
                 + [f"entropy_identity_{n}"
                    for n in ("constant", "cosine_rampdown", "bump_bump")]
                 + [f"supersolution_direction_{i}" for i in range(5)]
                 + ["v_weak_residual"],
                 ["residuals.json"]),
        Workload("oracle-32", oracle_32,
                 ["square_completion_roundoff", "power_identity_order",
                  "ode_comparison_bound", "log_poincare_finite",
                  "mean_poincare_finite", "riesz_kernel_bound"],
                 ["oracle_reports.json"]),
    ]
}
