"""Finite-volume integrator for the regularized chemotaxis system.

The system on a zero-flux box is

    u_t = lap u - chi div( (u / v) grad v )
    v_t = lap v - v + u / (1 + eps u)

discretized with cell-centered fields and second-order face fluxes.  The
chemotactic flux is upwinded: the face drift speed is chi * (face gradient
of v) / (face mean of v) and the transported u value is taken from the donor
cell.  Diffusive and drift fluxes telescope exactly, so the discrete mass of
u is conserved to round-off.

Time stepping is exponential Euler (ETD1) in increment form:

    u' = u + dt phi1(dt L) du,    v' = v + dt phi1(dt (L - 1)) dv,

with phi1(z) = (e^z - 1) / z, du and dv the right-hand sides above and L the
zero-flux Laplacian stencil, which is diagonal in the orthonormal DCT-II
basis (grid.dct_modes).  The diffusion and the -v decay are integrated
exactly, so a step is bounded only by the drift CFL bound, the caller's step
cap and the next sample time, not by h^2.

Each state's right-hand side is evaluated once and held: the CFL bound and
every step attempt from that state read it.  So are its u and v minima and
v's face gradient, which a sample hook reads too (SimState).  Steps that
would produce a negative u cell or a nonpositive v cell are rejected; the
run loop retries with halved dt a bounded number of times before declaring
the run failed at that time.

On grids of OVERLAP_MIN_CELLS cells or more, a run expecting few steps per
sample hands each sample to its hook on one worker thread while the stepper
advances to the next sample.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import inspect
import math
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    Grid,
    _span,
    cosine_series,
    cosine_tables,
    dct_modes,
    dct_values,
    face_div_values,
    face_grad_values,
    face_sum_values,
    lap_values,
)
from .params import ModelParams, saturated_source

DEFAULT_SAFETY = 0.4
DEFAULT_V_FLOOR = 1e-12
DEFAULT_MAX_RETRIES = 40  # dt halvings of a rejected step before the run fails
DEFAULT_SAMPLE_COUNT = 200  # sampling interval T / 200
# steps a run may take; one whose step bound cannot reach T within it fails
MAX_STEPS = 10**7
# what set a step's first trial dt: the CFL bound, the caller's cap on dt, or
# the next sample time
STEP_LIMITS = ("drift", "max_dt", "sample")
# A run hands its sample hook to a worker thread beside the stepper (run)
# on grids of at least OVERLAP_MIN_CELLS cells, when it expects at most
# OVERLAP_MAX_STEPS steps per sample.  In-process on a 2-core x86-64
# machine, an entropy-check run, serial against overlapped (medians of 6):
# 64^2 196 against 314 ms, 96^2 350 against 362 ms, 128^2 585 against
# 479 ms, 192^2 1,382 against 938 ms.  Each step beyond the first per
# sample runs at one OpenBLAS thread and eats into the saving: overlapped
# over serial time (medians of 4), at 1, about 2.4 and about 4.5 steps per
# sample, 0.78, 0.81 and 0.93 for entropy-check's pass at 128^2, 0.79,
# 0.89 and 1.09 for simulate's, and 0.78, 0.92 and 1.05 for entropy-check's
# at 192^2.
OVERLAP_MIN_CELLS = 2**14
OVERLAP_MAX_STEPS = 2


class SimulationError(RuntimeError):
    """Hard failure of a run; carries the failing time."""

    def __init__(self, message, time):
        super().__init__(f"{message} (t = {time})")
        self.time = time


class StepRejected(RuntimeError):
    """A candidate step lost positivity and must be retried with smaller dt."""


class SingularityError(SimulationError):
    """v dropped below the evaluation floor of the u/v mobility."""


@dataclass
class Tendency:
    """Right-hand side of one state: du/dt and dv/dt stacked in one
    (2, *shape) array, and the largest face drift speed chi |grad v| / v_face."""

    rates: np.ndarray
    drift: float


def _held():
    return dc_field(default=None, init=False, repr=False, compare=False)


@dataclass
class SimState:
    """u and v as cell arrays on one grid at time t.  initial_state checks
    the data it is given, and step checks every state it builds.

    What the stepper and a sample hook both read of a state is formed once,
    by its first reader, and held: the fields are never changed in place.
    step hands a new state the u and v minima its checks took.  A state
    handed to a hook on another thread is shared first (share), so that
    neither reader writes a field the other reads.
    """

    t: float
    grid: Grid
    u: np.ndarray
    v: np.ndarray
    params: ModelParams
    _tendency: Tendency | None = _held()
    _u_min: float | None = _held()
    _v_min: float | None = _held()
    # held only until the state's tendency takes it (v_face_grad), or for
    # the state's life once it is shared
    _v_face_grad: list | None = _held()
    _shared: bool = dc_field(default=False, init=False, repr=False,
                             compare=False)

    def u_min(self):
        """min u, taken once."""
        if self._u_min is None:
            self._u_min = float(self.u.min())
        return self._u_min

    def v_min(self):
        """min v, taken once."""
        if self._v_min is None:
            self._v_min = float(self.v.min())
        return self._v_min

    def v_face_grad(self):
        """v's face gradient on the interior faces of each axis.  Formed
        before the state's tendency, it is held for the tendency's drift,
        which takes it and drops it unless the state is shared; formed
        after, it is not held."""
        grad = self._v_face_grad
        if grad is None:
            grad = [face_grad_values(self.v, self.grid.h, ax)
                    for ax in range(self.grid.dim)]
            if self._tendency is None:
                self._v_face_grad = grad
        return grad

    def share(self):
        """Form and hold, on the calling thread, everything a sample hook on
        another thread and the stepper both read of the state: the u and v
        minima and v's face gradient, which is then kept for the state's
        life.  After this, neither reader writes a field of the state."""
        self.u_min()
        self.v_min()
        if self._v_face_grad is None:
            self._v_face_grad = [face_grad_values(self.v, self.grid.h, ax)
                                 for ax in range(self.grid.dim)]
        self._shared = True


@dataclass
class StepReport:
    t: float
    dt_used: float
    cfl_bound: float
    max_u: float
    min_v: float
    retries: int = 0
    set_by: str = ""  # one of STEP_LIMITS


def _tendency(state, v_floor):
    """The state's tendency, evaluated on first use and held on the state.

    One pass over the axes forms v's face sum on the interior faces and,
    unless the state holds it (SimState.v_face_grad), v's face gradient,
    and from them the drift speed and the flux: the face mean's 1/2 is
    folded into 2 chi, which leaves the same bytes.  The boundary
    faces carry zero flux and are not formed.  du and dv are written into
    one stacked array, which step transforms as it is.  Raises
    SingularityError when v's held minimum is below the mobility floor, on
    every call, and SimulationError when the tendency is not finite.
    """
    v_min = state.v_min()
    if v_min < v_floor:
        raise SingularityError(
            f"min v = {v_min} fell below the mobility floor {v_floor}", state.t)
    if state._tendency is not None:
        return state._tendency
    u, v = state.u, state.v
    grid = state.grid
    chi = state.params.chi
    held = state._v_face_grad
    if not state._shared:
        state._v_face_grad = None
    fluxes = []
    worst = 0.0
    for ax in range(grid.dim):
        g = face_grad_values(v, grid.h, ax) if held is None else held[ax]
        v_sum = face_sum_values(v, ax)
        # 2 chi donor / v_sum g, each operator in place on the donor array
        flux = np.where(g > 0.0, u[_span(ax, 0, -1)], u[_span(ax, 1, None)])
        flux *= 2.0 * chi
        flux /= v_sum
        flux *= g
        fluxes.append(flux)
        # then the drift ratio |g / v_sum| overwrites the face sums
        ratio = np.divide(g, v_sum, out=v_sum)
        worst = max(worst, 2.0 * float(np.abs(ratio, out=ratio).max()))
    rates = np.empty((2,) + grid.shape)
    du = lap_values(u, grid.h, out=rates[0])
    du -= face_div_values(fluxes, grid.h, grid.shape)
    dv = lap_values(v, grid.h, out=rates[1])
    dv -= v
    dv += saturated_source(u, state.params.eps)
    drift = chi * worst  # an overflow here would surface as a zero CFL bound
    if not (np.isfinite(drift) and np.isfinite(rates).all()):
        raise SimulationError("the right-hand side is not finite", state.t)
    state._tendency = Tendency(rates, drift)
    return state._tendency


def cfl_dt(state, safety=DEFAULT_SAFETY, v_floor=DEFAULT_V_FLOOR):
    """Step bound of the explicit drift: safety * min(h/(2 max drift), 1).

    The diffusion is integrated exactly, so it sets no bound.
    """
    bound = 1.0
    drift = _tendency(state, v_floor).drift
    if drift > 0.0:
        bound = min(bound, min(state.grid.h) / (2.0 * drift))
    return safety * bound


def _phi1(z):
    """(e^z - 1) / z elementwise, with phi1(0) = 1."""
    return np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)


@functools.lru_cache(maxsize=4)
def _etd_factors(cells, h, dt):
    """phi1(dt L) and phi1(dt (L - 1)) on the DCT modes, stacked; held for
    the few step lengths a run repeats (its step cap, its sample spacing)."""
    _, eig = dct_modes(cells, h)
    factors = _phi1(dt * np.stack([eig, eig - 1.0]))
    factors.flags.writeable = False
    return factors


def dense_transform_bytes(cells):
    """Bytes the stepper's caches hold for one mesh: the per-axis N x N
    matrices and the eigenvalue grid of grid.dct_modes, plus the stacked
    (2, cells) factors of _etd_factors for as many step lengths as it keeps."""
    total = int(np.prod(cells))
    kept = _etd_factors.cache_info().maxsize
    return 8 * (sum(n * n for n in cells) + total + 2 * total * kept)


def step(state, dt, v_floor=DEFAULT_V_FLOOR):
    """One exponential-Euler step from the state's held tendency; returns
    (new_state, report).

    The tendencies du and dv are carried to DCT modes together, scaled by
    phi1(dt L) and phi1(dt (L - 1)) and carried back, so that the diffusion
    and the v decay over dt are exact.  Raises StepRejected when the
    candidate update loses positivity (u' below the transforms' round-off
    level anywhere, or v' <= 0 anywhere) or overflows; u' cells within that
    level of zero are set to zero.
    The report's cfl_bound is left NaN and its set_by empty: the caller that
    chose dt knows why and fills them in.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    rhs = _tendency(state, v_floor)
    grid = state.grid

    mats, _ = dct_modes(grid.cells, grid.h)
    modes = dct_values(rhs.rates, mats)
    modes *= _etd_factors(grid.cells, grid.h, dt)
    du, dv = dct_values(modes, mats, inverse=True)
    # dt du + u and dt dv + v, each in one array of its own: rows of the
    # stacked result, kept as the new state, would hold a two-field block
    # across the next step's transforms and fragment the heap at 128^2
    u_new = np.multiply(du, dt)
    u_new += state.u
    v_new = np.multiply(dv, dt)
    v_new += state.v

    # The dense transforms leave every cell a round-off of either sign of
    # about eps * dt * max|du|, which a cell of u at or near zero reads as a
    # negative value.  Halving dt shrinks it no faster than it shrinks the
    # step, so only a loss beyond that level is a rejection; the rest is
    # zero.  The sum(cells) factor bounds the 2 * dim dense N x N products
    # generously: a unit spike showed 2-12 eps * dt * max|du| at 16^2-128^2.
    low = u_new.min()
    if low < 0.0:
        eps = np.finfo(np.float64).eps
        roundoff = eps * sum(grid.cells) * dt * np.abs(rhs.rates[0]).max()
        if low >= -roundoff:
            np.maximum(u_new, 0.0, out=u_new)
            low = 0.0
    max_u, min_v = float(u_new.max()), float(v_new.min())
    # negated, so that a NaN or an infinity fails it too
    if not (0.0 <= low and max_u < math.inf and 0.0 < min_v
            and v_new.max() < math.inf):
        raise StepRejected(
            f"positivity or finiteness lost at t = {state.t} with dt = {dt}")

    new_state = SimState(t=state.t + dt, grid=grid, u=u_new, v=v_new,
                         params=state.params)
    new_state._u_min, new_state._v_min = float(low), min_v
    report = StepReport(
        t=state.t + dt,
        dt_used=dt,
        cfl_bound=float("nan"),
        max_u=max_u,
        min_v=min_v,
    )
    return new_state, report


@dataclass
class Trajectory:
    """What a run keeps: its sample times, its final sample and the report
    of every accepted step."""

    grid: Grid
    params: ModelParams
    times: list = dc_field(default_factory=list)
    # the final sample as one-element lists, the form bench/layers.py reads
    u_snapshots: list = dc_field(default_factory=list)
    v_snapshots: list = dc_field(default_factory=list)
    reports: list = dc_field(default_factory=list)

    def counters(self):
        """Steps, rejected attempts, the dt range and what set each step's dt."""
        dts = [r.dt_used for r in self.reports]
        set_by = dict.fromkeys(STEP_LIMITS, 0)
        for r in self.reports:
            set_by[r.set_by] += 1
        return {"steps": len(self.reports),
                "rejected": sum(r.retries for r in self.reports),
                "dt_min": min(dts, default=None), "dt_max": max(dts, default=None),
                "set_by": set_by}

    def write_step_reports_csv(self, path):
        # csv.writer's dialect: ',' between fields, '\r\n' after each row
        row = "%d" + ",%.17g" * 5 + ",%d\r\n"
        with open(path, "w", newline="") as fh:
            fh.write("step,t,dt_used,cfl_bound,max_u,min_v,retries\r\n")
            for i, r in enumerate(self.reports):
                fh.write(row % (i, r.t, r.dt_used, r.cfl_bound, r.max_u,
                                r.min_v, r.retries))


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


def _sample_times(T, sample_times):
    """The checked sample times of a run to T, with t = 0 and T added."""
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
    return sample_times


def samples(initial, T, reports, sample_times=None, safety=DEFAULT_SAFETY,
            max_dt=None, v_floor=DEFAULT_V_FLOOR):
    """Advance a state to time T, yielding the state at each sample time and
    appending each accepted step's StepReport to `reports`.

    Sample times must be sorted inside [0, T]; they are hit exactly by
    clipping dt, and t = 0 and T are always samples.  A yielded state is
    never changed.  Step failures surface as SimulationError carrying the
    failing time, and so does a step bound under (T - t) / MAX_STEPS.
    """
    sample_times = _sample_times(T, sample_times)
    state = initial
    yield state
    next_sample = 1
    stepper = functools.partial(step, v_floor=v_floor)
    while state.t < T:
        target = sample_times[next_sample]
        gap = target - state.t
        if gap <= 0.0:  # float overshoot from a retried partial step
            state.t = target
        else:
            bound = cfl_dt(state, safety=safety, v_floor=v_floor)
            # the smallest limit sets dt; a tie goes to the earlier key
            limits = {"sample": gap, "max_dt": math.inf if max_dt is None
                      else max_dt, "drift": bound}
            step_bound = min(limits["max_dt"], bound)
            if T - state.t > MAX_STEPS * step_bound:
                raise SimulationError(
                    f"reaching T = {T} at dt = {step_bound} would take more "
                    f"than the step budget of {MAX_STEPS} steps", state.t)
            set_by = min(limits, key=limits.get)
            clipped = limits[set_by]
            state, report = _advance_with_retries(state, clipped, stepper,
                                                  DEFAULT_MAX_RETRIES)
            report.cfl_bound = bound
            report.set_by = set_by
            if report.dt_used == clipped and clipped == gap:
                state.t = target  # land exactly on the requested time
            reports.append(report)
        if state.t == target:
            yield state
            next_sample += 1


def run(initial, T, sample_times=None, safety=DEFAULT_SAFETY, max_dt=None,
        v_floor=DEFAULT_V_FLOOR, on_sample=None):
    """The Trajectory of `samples`.

    Each sample, t = 0 included, is handed to on_sample(state), when given,
    as the SimState itself: the hook reads its t, u and v and must not
    change the state, and what it forms through the state's held values
    (v_face_grad, v_min, u_min) the stepper reads without forming again.
    Hooks see the samples in order, one at a time.  On a grid of at least
    OVERLAP_MIN_CELLS cells whose smallest sample spacing holds at most
    OVERLAP_MAX_STEPS steps of the initial step bound (the CFL bound, or
    max_dt if smaller), and where numpy's OpenBLAS is found, the hook
    runs on one worker thread, in a copy of the caller's contextvars
    context, while the stepper advances to the next sample: it runs one
    sample behind, and OpenBLAS is held to one thread for the run and
    restored after it.  Elsewhere the hook runs on the calling thread
    between steps.  Either way the outputs are the same bytes, and a
    hook's exception surfaces from run as itself, before any error of a
    later step.
    The trajectory keeps the final sample only.  T = 0 records the initial
    state only.
    """
    traj = Trajectory(grid=initial.grid, params=initial.params)
    sample_times = _sample_times(T, sample_times)
    states = samples(initial, T, traj.reports, sample_times, safety, max_dt,
                     v_floor)
    if on_sample is not None and _overlaps(initial, sample_times, safety,
                                           max_dt, v_floor):
        state = _run_overlapped(states, traj.times, on_sample)
    else:
        for state in states:
            traj.times.append(state.t)
            if on_sample is not None:
                on_sample(state)
    traj.u_snapshots = [state.u]
    traj.v_snapshots = [state.v]
    return traj


def _overlaps(initial, sample_times, safety, max_dt, v_floor):
    """Whether run hands its hook to a worker thread: on a grid of at least
    OVERLAP_MIN_CELLS cells, where numpy's OpenBLAS is found, when the
    smallest sample spacing holds at most OVERLAP_MAX_STEPS steps of the
    initial state's step bound (its CFL bound, or max_dt if smaller).  The
    bound is read once: a run whose drift speeds up later takes more steps
    per sample than it expected."""
    if (math.prod(initial.grid.cells) < OVERLAP_MIN_CELLS
            or _openblas_threads() is None):
        return False
    try:
        bound = cfl_dt(initial, safety=safety, v_floor=v_floor)
    except (SimulationError, ArithmeticError):
        return False  # samples raises it again, after the first hook
    if max_dt is not None:
        bound = min(bound, max_dt)
    spacing = min(np.diff(sample_times), default=math.inf)
    return spacing <= OVERLAP_MAX_STEPS * bound


@functools.cache
def _openblas_threads():
    """The get and set functions of OpenBLAS's thread count in the library
    numpy links, or None where numpy links another BLAS."""
    from numpy._core import _multiarray_umath

    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _run_overlapped(states, times, on_sample):
    """Iterate `states`, appending each sample time to `times` and handing
    the sample to on_sample on one worker thread while the next is stepped
    to, with OpenBLAS held to one thread; returns the last sample.

    One sample is in flight at most: the next is handed over once the
    hook of the one before has returned.  The calling thread shares each
    sample (SimState.share) before handing it over.  A hook's exception is
    raised here as itself, before the error of a step taken meanwhile.
    """
    import queue

    todo, done = queue.SimpleQueue(), queue.SimpleQueue()
    context = contextvars.copy_context()

    def serve():
        while (state := todo.get()) is not None:
            try:
                context.run(on_sample, state)
            except BaseException as exc:
                done.put(exc)
            else:
                done.put(None)

    def collect():
        """Wait for the hook in flight; raise what it raised."""
        exc = done.get()
        if exc is not None:
            raise exc

    get_threads, set_threads = _openblas_threads()
    threads = get_threads()
    worker = threading.Thread(target=serve, name="sample-hook")
    worker.start()
    try:
        set_threads(1)
        in_flight = False
        while True:
            try:
                state = next(states)
            except StopIteration:
                break
            except Exception as exc:
                failed = exc
            else:
                failed = None
            if in_flight:
                in_flight = False
                collect()
            if failed is not None:
                raise failed
            times.append(state.t)
            state.share()
            todo.put(state)
            in_flight = True
        if in_flight:
            collect()
        return state
    finally:
        try:
            todo.put(None)
            worker.join()
        finally:
            set_threads(threads)


# initial data ---------------------------------------------------------------------

def constant_field(grid, value):
    return np.full(grid.shape, float(value))


def gaussian_bump(grid, amplitude, width, center=None, baseline=0.0):
    """baseline + amplitude * exp(-|x - center|^2 / (2 width^2))."""
    if center is None:
        center = [0.5 * L for L in grid.extents]
    if len(center) != grid.dim:
        raise ValueError(f"center needs {grid.dim} coordinates, got {len(center)}")
    coords = grid.meshgrid()
    rsq = np.zeros(grid.shape)
    for x, c in zip(coords, center):
        rsq += (x - c) ** 2
    return baseline + amplitude * np.exp(-rsq / (2.0 * width**2))


def cosine_perturbation(grid, baseline, amplitude, cutoff=3, seed=0):
    """baseline plus a seeded random zero-flux cosine series, clipped positive.

    Coefficients are uniform in [-amplitude, amplitude] with a 1/(1+|k|^2)
    decay; the result is shifted if needed so its minimum stays at or above
    baseline / 10.
    """
    _, denominators = cosine_tables(grid.cells, grid.extents, cutoff)
    coefficients = np.zeros(len(denominators))  # k = 0 comes first, undrawn
    coefficients[1:] = np.random.default_rng(seed).uniform(
        -amplitude, amplitude, size=len(denominators) - 1) / denominators[1:]
    vals = baseline + cosine_series(grid, cutoff, [coefficients])[0]
    floor = baseline / 10.0
    if vals.min() < floor:
        vals += floor - vals.min()
    return vals


INITIAL_KINDS = {
    "constant": constant_field,
    "gaussian": gaussian_bump,
    "cosine": cosine_perturbation,
}


def make_initial_field(grid, spec):
    """Build a cell array from a JSON-style description: `kind` names one of
    INITIAL_KINDS and the other entries are that function's arguments.
    Raises ValueError when the result is not finite.

    Kinds: constant {value}, gaussian {amplitude, width, center?, baseline?},
    cosine {baseline, amplitude, cutoff?, seed?}.
    """
    args = dict(spec)
    kind = args.pop("kind", None)
    if kind not in INITIAL_KINDS:
        raise ValueError(f"unknown initial data kind: {kind!r}")
    build = INITIAL_KINDS[kind]
    try:
        inspect.signature(build).bind(grid, **args)
    except TypeError as exc:
        raise ValueError(f"{kind} initial data: {exc}") from None
    values = build(grid, **args)
    if not np.isfinite(values).all():
        raise ValueError(f"{kind} initial data are not finite")
    return values


def initial_state(params, grid, u0, v0, v_min_floor=1e-6):
    """The SimState at t = 0 of the initial arrays on `grid`; v is floored
    positive.  Raises ValueError unless both arrays have the grid's shape and
    u is nonnegative."""
    for name, a in (("u", u0), ("v", v0)):
        if a.shape != grid.shape:
            raise ValueError(f"{name} has shape {a.shape}, not the grid's "
                             f"{grid.shape}")
    # negated, so that a NaN fails it too
    if not u0.min() >= 0.0:
        raise ValueError("u must be nonnegative")
    return SimState(t=0.0, grid=grid, u=u0, v=np.maximum(v0, v_min_floor),
                    params=params)
