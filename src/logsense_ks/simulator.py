"""Explicit finite-volume integrator for the regularized chemotaxis system.

The system on a zero-flux box is

    u_t = lap u - chi div( (u / v) grad v )
    v_t = lap v - v + u / (1 + eps u)

discretized with cell-centered fields, second-order face fluxes, and forward
Euler in time.  The chemotactic flux is upwinded: the face drift speed is
chi * (face gradient of v) / (face mean of v) and the transported u value is
taken from the donor cell, which keeps the update a positive combination of
cell values whenever the step size respects the CFL bound.  Diffusive fluxes
telescope exactly, so the discrete mass of u is conserved to round-off; the
state update uses compensated (Kahan) accumulation so that tens of thousands
of steps do not erode that invariant.

Each state's right-hand side is evaluated once and held: the CFL bound and
every step attempt from that state read it.  Steps that would produce a
negative u cell or a nonpositive v cell are rejected; the driver retries with
halved dt a bounded number of times before declaring the run failed at that
time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    Field,
    Grid,
    face_div_values,
    face_grad_values,
    face_mean_values,
    integrate_values,
    lap_values,
)
from .params import ModelParams

DEFAULT_SAFETY = 0.4
DEFAULT_V_FLOOR = 1e-12
DEFAULT_MAX_RETRIES = 40
DEFAULT_SAMPLE_COUNT = 200  # sampling interval T / 200


class SimulationError(RuntimeError):
    """Hard failure of a run; carries the failing time."""

    def __init__(self, message, time):
        super().__init__(f"{message} (t = {time})")
        self.time = time


class StepRejected(RuntimeError):
    """A candidate step lost positivity and must be retried with smaller dt."""


class SingularityError(RuntimeError):
    """v dropped below the evaluation floor of the u/v mobility."""


@dataclass
class Tendency:
    """Right-hand side of one state: the upwind face fluxes, du/dt, dv/dt and
    the largest face drift speed chi |grad v| / v_face."""

    fluxes: list
    du: np.ndarray
    dv: np.ndarray
    drift: float


@dataclass
class SimState:
    t: float
    u: Field
    v: Field
    params: ModelParams
    u_comp: np.ndarray | None = None  # Kahan compensation carried between steps
    # held once evaluated, so the fields are never changed in place
    _tendency: Tendency | None = dc_field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.u.values.min() < 0.0:
            raise ValueError("u must be nonnegative")
        if self.v.values.min() <= 0.0:
            raise ValueError("v must be strictly positive")
        if not self.u.grid.same_mesh(self.v.grid):
            raise ValueError("u and v live on different meshes")

    @property
    def grid(self):
        return self.u.grid


@dataclass
class StepReport:
    t: float
    dt_used: float
    cfl_bound: float
    max_u: float
    min_v: float
    positivity_ok: bool
    retries: int = 0


def chemotactic_flux(state, v_floor=DEFAULT_V_FLOOR):
    """Per-axis face fluxes chi * u_donor / v_face * (face gradient of v), with
    u from the upwind cell; boundary faces carry zero flux."""
    return _tendency(state, v_floor).fluxes


def _tendency(state, v_floor):
    """The state's tendency, evaluated on first use and held on the state.

    One pass over the axes forms v's face gradient and face mean, and from
    them the drift speed (boundary faces contribute none) and the flux on
    interior faces; boundary faces carry exactly zero flux.
    """
    u = state.u.values
    v = state.v.values
    if v.min() < v_floor:
        raise SingularityError(
            f"min v = {v.min()} fell below the mobility floor {v_floor}")
    if state._tendency is not None:
        return state._tendency
    grid = state.grid
    chi = state.params.chi
    fluxes = []
    worst = 0.0
    for ax in range(grid.dim):
        g = face_grad_values(v, grid.h, ax)
        v_face = face_mean_values(v, ax)
        worst = max(worst, float(np.abs(g / v_face).max()))
        head = (slice(None),) * ax
        inner = head + (slice(1, grid.shape[ax]),)  # interior faces = upper cells
        lower = head + (slice(0, grid.shape[ax] - 1),)
        g_in = g[inner]
        donor = np.where(g_in > 0.0, u[lower], u[inner])
        flux = np.zeros_like(g)
        flux[inner] = chi * donor / v_face[inner] * g_in
        fluxes.append(flux)
    du = lap_values(u, grid.h)
    du -= face_div_values(fluxes, grid.h, grid.shape)
    dv = lap_values(v, grid.h)
    dv -= v
    dv += _saturated_source(u, state.params.eps)
    state._tendency = Tendency(fluxes, du, dv, chi * worst)
    return state._tendency


def cfl_dt(state, safety=DEFAULT_SAFETY, v_floor=DEFAULT_V_FLOOR):
    """Stable step size: safety * min(h^2/(2 dim), h/(2 max drift), 1)."""
    grid = state.grid
    h_min = min(grid.h)
    bound = min(h_min**2 / (2.0 * grid.dim), 1.0)
    drift = _tendency(state, v_floor).drift
    if drift > 0.0:
        bound = min(bound, h_min / (2.0 * drift))
    return safety * bound


def _saturated_source(u, eps):
    if eps == 0.0:
        return u
    return u / (1.0 + eps * u)


def step(state, dt, v_floor=DEFAULT_V_FLOOR):
    """One forward-Euler step from the state's held tendency; returns
    (new_state, report).

    Raises StepRejected when the candidate update loses positivity
    (u' < 0 anywhere or v' <= 0 anywhere).  The report's cfl_bound is left
    NaN: the caller that chose dt knows the bound and fills it in.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    rhs = _tendency(state, v_floor)
    grid = state.grid
    u = state.u.values
    v = state.v.values

    # compensated update of u: mass conservation must survive ~1e5 steps
    comp = state.u_comp if state.u_comp is not None else np.zeros_like(u)
    y = dt * rhs.du - comp
    u_new = u + y
    comp_new = (u_new - u) - y
    v_new = v + dt * rhs.dv

    if u_new.min() < 0.0 or v_new.min() <= 0.0:
        raise StepRejected(
            f"positivity lost at t = {state.t} with dt = {dt}")

    new_state = SimState(
        t=state.t + dt,
        u=Field(grid, u_new),
        v=Field(grid, v_new, strictly_positive=True),
        params=state.params,
        u_comp=comp_new,
    )
    report = StepReport(
        t=state.t + dt,
        dt_used=dt,
        cfl_bound=float("nan"),
        max_u=float(u_new.max()),
        min_v=float(v_new.min()),
        positivity_ok=True,
    )
    return new_state, report


@dataclass
class Trajectory:
    """Snapshots of a run at the requested sample times."""

    grid: Grid
    params: ModelParams
    times: list = dc_field(default_factory=list)
    u_snapshots: list = dc_field(default_factory=list)
    v_snapshots: list = dc_field(default_factory=list)
    reports: list = dc_field(default_factory=list)

    @property
    def final_time(self):
        return self.times[-1] if self.times else 0.0

    def snapshot(self, k):
        return self.times[k], self.u_snapshots[k], self.v_snapshots[k]

    def initial_mass(self):
        return integrate_values(self.u_snapshots[0], self.grid)

    def mass_series(self):
        return np.array([integrate_values(u, self.grid) for u in self.u_snapshots])

    def write_step_reports_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "step", "t", "dt_used", "cfl_bound", "max_u", "min_v",
                "positivity_ok", "retries",
            ])
            for i, r in enumerate(self.reports):
                writer.writerow([
                    i,
                    format(r.t, ".17g"),
                    format(r.dt_used, ".17g"),
                    format(r.cfl_bound, ".17g"),
                    format(r.max_u, ".17g"),
                    format(r.min_v, ".17g"),
                    int(r.positivity_ok),
                    r.retries,
                ])


def _advance_with_retries(state, dt, stepper, max_retries):
    """Attempt a step, halving dt on positivity rejection."""
    trial = dt
    for attempt in range(max_retries + 1):
        try:
            new_state, report = stepper(state, trial)
            report.retries = attempt
            return new_state, report
        except StepRejected:
            trial *= 0.5
    raise SimulationError(
        f"step rejected {max_retries + 1} times (last dt = {trial})", state.t)


def run(initial, T, sample_times=None, safety=DEFAULT_SAFETY, max_dt=None,
        max_retries=DEFAULT_MAX_RETRIES, v_floor=DEFAULT_V_FLOOR):
    """Advance a state to time T, recording snapshots at the sample times.

    Sample times must be sorted inside [0, T]; they are hit exactly by
    clipping dt.  T = 0 records the initial state only.
    Step failures surface as SimulationError carrying the failing time.
    """
    if T < 0.0:
        raise ValueError(f"T must be nonnegative, got {T}")
    if sample_times is None:
        sample_times = np.linspace(0.0, T, DEFAULT_SAMPLE_COUNT + 1) if T > 0 else [0.0]
    sample_times = [float(s) for s in sample_times]
    if any(s < 0.0 or s > T for s in sample_times):
        raise ValueError("sample times must lie in [0, T]")
    if any(b <= a for a, b in zip(sample_times, sample_times[1:])):
        raise ValueError("sample times must be strictly increasing")
    if not sample_times or sample_times[0] != 0.0:
        sample_times = [0.0] + sample_times
    if sample_times[-1] != T:
        sample_times = sample_times + [float(T)]

    state = initial
    traj = Trajectory(grid=state.grid, params=state.params)

    def record(st):
        traj.times.append(st.t)
        traj.u_snapshots.append(st.u.values.copy())
        traj.v_snapshots.append(st.v.values.copy())

    record(state)
    next_sample = 1

    def stepper(st, dt):
        return step(st, dt, v_floor=v_floor)

    while state.t < T:
        target = sample_times[next_sample]
        gap = target - state.t
        if gap <= 0.0:  # float overshoot from a retried partial step
            state.t = target
        else:
            bound = cfl_dt(state, safety=safety, v_floor=v_floor)
            dt = bound if max_dt is None else min(bound, max_dt)
            clipped = min(dt, gap)
            state, report = _advance_with_retries(state, clipped, stepper,
                                                  max_retries)
            report.cfl_bound = bound
            if report.dt_used == clipped and clipped == gap:
                state.t = target  # land exactly on the requested time
            traj.reports.append(report)
        if state.t == target:
            record(state)
            next_sample += 1
    return traj


# initial data ---------------------------------------------------------------------

def constant_field(grid, value):
    return Field(grid, np.full(grid.shape, float(value)))


def gaussian_bump(grid, amplitude, width, center=None, baseline=0.0):
    """baseline + amplitude * exp(-|x - center|^2 / (2 width^2))."""
    if center is None:
        center = [0.5 * L for L in grid.extents]
    coords = grid.meshgrid()
    rsq = np.zeros(grid.shape)
    for x, c in zip(coords, center):
        rsq += (x - c) ** 2
    return Field(grid, baseline + amplitude * np.exp(-rsq / (2.0 * width**2)))


def cosine_perturbation(grid, baseline, amplitude, cutoff, seed):
    """baseline plus a seeded random zero-flux cosine series, clipped positive.

    Coefficients are uniform in [-amplitude, amplitude] with a 1/(1+|k|^2)
    decay; the result is shifted if needed so its minimum stays at or above
    baseline / 10.
    """
    rng = np.random.default_rng(seed)
    coords = grid.meshgrid()
    g = np.zeros(grid.shape)
    ks = np.ndindex(*(cutoff + 1 for _ in range(grid.dim)))
    for k in ks:
        if all(ki == 0 for ki in k):
            continue
        coeff = rng.uniform(-amplitude, amplitude) / (1.0 + sum(ki**2 for ki in k))
        term = np.ones(grid.shape)
        for ax, ki in enumerate(k):
            if ki:
                term = term * np.cos(ki * np.pi * coords[ax] / grid.extents[ax])
        g += coeff * term
    vals = baseline + g
    floor = baseline / 10.0
    if vals.min() < floor:
        vals += floor - vals.min()
    return Field(grid, vals)


def make_initial_field(grid, spec):
    """Build a field from a JSON-style description.

    Kinds: constant {value}, gaussian {amplitude, width, center?, baseline?},
    cosine {baseline, amplitude, cutoff?, seed?}.
    """
    kind = spec.get("kind")
    if kind == "constant":
        return constant_field(grid, spec["value"])
    if kind == "gaussian":
        return gaussian_bump(
            grid,
            amplitude=spec["amplitude"],
            width=spec["width"],
            center=spec.get("center"),
            baseline=spec.get("baseline", 0.0),
        )
    if kind == "cosine":
        return cosine_perturbation(
            grid,
            baseline=spec["baseline"],
            amplitude=spec["amplitude"],
            cutoff=int(spec.get("cutoff", 3)),
            seed=int(spec.get("seed", 0)),
        )
    raise ValueError(f"unknown initial data kind: {kind!r}")


def initial_state(grid, params, u_spec, v_spec, v_min_floor=1e-6):
    """Assemble a SimState from initial data descriptions; v is floored positive."""
    u0 = make_initial_field(grid, u_spec)
    v0 = make_initial_field(grid, v_spec)
    if u0.values.min() < 0.0:
        raise ValueError("initial u must be nonnegative")
    v_vals = np.maximum(v0.values, v_min_floor)
    return SimState(t=0.0, u=u0, v=Field(grid, v_vals, strictly_positive=True),
                    params=params)
