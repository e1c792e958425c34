import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logsense_ks import diagnostics, simulator
from logsense_ks.cli import _residual_test_functions
from logsense_ks.diagnostics import (
    ACC_FIELDS,
    Accumulator,
    CosineSpatial,
    RampDownTemporal,
    builtin_supersolution_family,
)
from logsense_ks.grid import Grid, dct_modes, dct_values, lap_values
from logsense_ks.params import ModelParams
from logsense_ks.simulator import (
    OVERLAP_MIN_CELLS,
    SimState,
    SimulationError,
    STEP_LIMITS,
    SingularityError,
    StepRejected,
    _advance_with_retries,
    cfl_dt,
    constant_field,
    cosine_perturbation,
    gaussian_bump,
    initial_state,
    make_initial_field,
    run,
    samples,
    step,
)


def default_params(**kw):
    base = dict(chi=2.0, n=2, eps=0.01, p=0.2, q=0.35, r=1.1)
    base.update(kw)
    return ModelParams(**base)


def gaussian_state(cells=16, chi=2.0, eps=0.01):
    g = Grid(cells=[cells, cells], extents=[1.0, 1.0])
    params = default_params(chi=chi, eps=eps)
    u0 = gaussian_bump(g, amplitude=1.5, width=0.12, baseline=0.2)
    v0 = constant_field(g, 1.0)
    return SimState(t=0.0, grid=g, u=u0, v=v0, params=params)


def constant_steady_state(cells=12, c=0.7, eps=0.1):
    # u = c, v = c / (1 + eps c) zeroes both right-hand sides exactly
    g = Grid(cells=[cells, cells], extents=[1.0, 1.0])
    params = default_params(eps=eps)
    u = constant_field(g, c)
    v_val = c / (1.0 + eps * c)
    v = np.full(g.shape, v_val)
    return SimState(t=0.0, grid=g, u=u, v=v, params=params)


def test_initial_state_rejects_bad_data():
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    params = default_params()
    ok = np.ones(g.shape)
    for u, v in ((np.ones((8, 4)), ok), (ok, np.ones(8)),
                 (np.full(g.shape, np.nan), ok), (-ok, ok)):
        with pytest.raises(ValueError):
            initial_state(params, g, u, v)


def sample_masses(state, T, **kw):
    """The run and the mass of u at each of its samples."""
    masses = []
    traj = run(state, T, on_sample=lambda s: masses.append(
        float(s.u.sum() * state.grid.cell_volume)), **kw)
    return traj, np.array(masses)


def test_constant_steady_state_is_fixed_point():
    state = constant_steady_state()
    seen = []
    run(state, T=0.1, sample_times=[0.05, 0.1],
        on_sample=lambda s: seen.append((s.u.copy(), s.v.copy())))
    assert len(seen) == 3
    for u, v in seen:
        assert np.array_equal(u, state.u)
        assert np.array_equal(v, state.v)


def test_mass_conservation():
    state = gaussian_state()
    _, masses = sample_masses(state, T=0.2,
                              sample_times=np.linspace(0.01, 0.2, 20))
    m0 = masses[0]
    drift = np.abs(masses - m0).max() / m0
    assert drift <= 1e-12


def test_cfl_dt_flat_v():
    # no chemotactic drift: the diffusion sets no bound, so it is safety * 1
    state = constant_steady_state(cells=16)
    assert cfl_dt(state) == pytest.approx(0.4 * 1.0, rel=1e-14)


def test_run_reports_respect_cfl():
    state = gaussian_state()
    traj = run(state, T=0.05, sample_times=[0.05])
    assert traj.reports, "expected at least one step"
    for r in traj.reports:
        assert r.dt_used <= r.cfl_bound * (1.0 + 1e-12)
        assert r.retries == 0
        assert r.min_v > 0.0


def test_sample_times_hit_exactly():
    state = gaussian_state()
    wanted = [0.013, 0.027, 0.05]
    traj = run(state, T=0.05, sample_times=wanted)
    assert traj.times == [0.0] + wanted


def test_zero_horizon_records_initial_state_only():
    state = gaussian_state()
    traj = run(state, T=0.0)
    assert traj.times == [0.0]
    assert len(traj.u_snapshots) == len(traj.v_snapshots) == 1
    assert np.array_equal(traj.u_snapshots[0], state.u)
    assert np.array_equal(traj.v_snapshots[0], state.v)
    assert traj.reports == []


def test_on_sample_sees_every_sample_and_keeps_the_final_one():
    state = gaussian_state()
    wanted = np.linspace(0.0, 0.05, 11)
    plain = run(state, T=0.05, sample_times=wanted)
    seen = []
    streamed = run(state, T=0.05, sample_times=wanted,
                   on_sample=lambda s: seen.append((s.t, s.u.copy(), s.v.copy())))
    assert [t for t, _, _ in seen] == plain.times == streamed.times
    assert len(seen) == len(wanted)
    assert np.array_equal(seen[0][1], state.u)
    assert np.array_equal(seen[0][2], state.v)
    # with or without a hook, the run keeps the final sample only
    for traj in (plain, streamed):
        assert len(traj.u_snapshots) == len(traj.v_snapshots) == 1
        assert np.array_equal(traj.u_snapshots[0], seen[-1][1])
        assert np.array_equal(traj.v_snapshots[0], seen[-1][2])
    assert [r.dt_used for r in streamed.reports] == [
        r.dt_used for r in plain.reports]


@pytest.mark.parametrize("baseline", [0.2, 0.0])
def test_a_yielded_state_is_never_changed(baseline):
    # held as handed over, without a copy, beside a copy taken then; the
    # zero baseline puts u's far cells at the transforms' round-off, which
    # step zeroes in its own array
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    u0 = gaussian_bump(g, amplitude=1.5, width=0.05, baseline=baseline)
    state = initial_state(default_params(), g, u0, constant_field(g, 1.0))
    held, copies = [], []

    def keep(s):
        held.append((s.u, s.v))
        copies.append((s.u.copy(), s.v.copy()))

    traj = run(state, T=0.01, sample_times=np.linspace(0.0, 0.01, 6),
               max_dt=5e-4, on_sample=keep)
    assert len(held) == 6 and len(traj.reports) == 20
    assert held[0][0] is state.u and held[0][1] is state.v
    for (u, v), (u_then, v_then) in zip(held, copies):
        assert u.tobytes() == u_then.tobytes()
        assert v.tobytes() == v_then.tobytes()


def test_sample_time_validation():
    state = gaussian_state()
    with pytest.raises(ValueError):
        run(state, T=-1.0)
    with pytest.raises(ValueError):
        run(state, T=0.1, sample_times=[0.05, 0.02])
    with pytest.raises(ValueError):
        run(state, T=0.1, sample_times=[0.05, 0.2])


def test_temporal_convergence_first_order():
    # exponential Euler: the diffusion is exact and the drift and source are
    # first order in dt, so at a fixed grid halving the step cap should halve
    # the final-state error
    base_dt = 2.0e-4
    finals = {}
    for frac in (1.0, 0.5, 0.125):
        state = gaussian_state()
        traj = run(state, T=0.02, sample_times=[0.02], max_dt=base_dt * frac)
        finals[frac] = traj.u_snapshots[-1]
    e_coarse = np.abs(finals[1.0] - finals[0.125]).max()
    e_fine = np.abs(finals[0.5] - finals[0.125]).max()
    order = np.log2(e_coarse / e_fine)
    assert order >= 0.9


def test_temporal_self_convergence_at_fixed_grid():
    # successive differences as max_dt halves; steps far above h^2 / 4
    finals = []
    for frac in (1.0, 0.5, 0.25):
        traj = run(gaussian_state(), T=0.1, sample_times=[0.1],
                   max_dt=1.0e-2 * frac)
        finals.append(traj.u_snapshots[-1])
    e_coarse = np.abs(finals[0] - finals[1]).max()
    e_fine = np.abs(finals[1] - finals[2]).max()
    assert np.log2(e_coarse / e_fine) >= 0.9


@pytest.mark.parametrize("cells, extents", [
    ((37,), (1.3,)),
    ((12, 17), (1.0, 2.5)),
    ((6, 9, 11), (1.0, 0.7, 2.0)),
])
def test_dct_modes_reproduce_the_laplacian(cells, extents):
    h = tuple(L / n for L, n in zip(extents, cells))
    mats, eig = dct_modes(cells, h)
    rng = np.random.default_rng(len(cells))
    fields = rng.uniform(-1.0, 1.0, size=(2,) + cells)
    got = dct_values(eig * dct_values(fields, mats), mats, inverse=True)
    for a, lap in zip(fields, got):
        ref = lap_values(a, h)
        assert np.abs(lap - ref).max() <= 1e-13 * np.abs(ref).max()
    back = dct_values(dct_values(fields, mats), mats, inverse=True)
    assert np.abs(back - fields).max() <= 1e-13


def test_step_decays_a_cosine_mode_exactly():
    # constant v: no drift, so one step of any length is the exact decay
    # 1 + a e^{lambda dt} cos(pi x / L) of the discrete Laplacian's mode
    g = Grid(cells=[24, 10], extents=[2.0, 1.0])
    x, _ = g.meshgrid()
    a = 0.3
    state = SimState(t=0.0, grid=g, u=1.0 + a * np.cos(np.pi * x / 2.0),
                     v=np.full(g.shape, 0.8), params=default_params())
    h = g.h[0]
    lam = -(4.0 / h**2) * np.sin(np.pi / (2 * g.cells[0])) ** 2
    for dt in (1e-3, 0.05, 0.4):
        new_state, _ = step(state, dt)
        exact = 1.0 + a * np.exp(lam * dt) * np.cos(np.pi * x / 2.0)
        assert_allclose(new_state.u, exact, rtol=0.0, atol=1e-14)


def test_counters_say_what_set_each_step():
    state = gaussian_state()
    traj = run(state, T=0.05, sample_times=[0.01, 0.05], max_dt=0.015)
    counters = traj.counters()
    assert counters["steps"] == len(traj.reports) == 4
    assert counters["set_by"] == {"drift": 0, "max_dt": 2, "sample": 2}
    assert counters["rejected"] == 0
    assert counters["dt_min"] == min(r.dt_used for r in traj.reports)
    assert counters["dt_max"] == 0.015
    assert all(r.set_by in STEP_LIMITS for r in traj.reports)

    # a sample gap equal to the cap counts as landing on the sample
    traj = run(gaussian_state(), T=0.02, sample_times=[0.01, 0.02], max_dt=0.01)
    assert traj.counters()["set_by"] == {"drift": 0, "max_dt": 0, "sample": 2}

    # one sample at T = 1: the drift bound sets every step but the last
    traj = run(gaussian_state(), T=1.0, sample_times=[1.0])
    assert traj.counters()["set_by"] == {"drift": 3, "max_dt": 0, "sample": 1}
    assert all(r.dt_used == r.cfl_bound for r in traj.reports[:-1])


def spike_in_drift_state():
    # a unit spike on a thin u floor, driven by the drift of v = exp(8 x)
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    x, _ = g.meshgrid()
    u = np.full(g.shape, 1e-3)
    u[8, 8] += 1.0
    return SimState(t=0.0, grid=g, u=u, v=np.exp(8.0 * x),
                    params=default_params())


def test_step_rejects_positivity_loss():
    # exact diffusion keeps u positive; a drift step far past the CFL bound
    # empties the spike's downwind neighbours
    state = spike_in_drift_state()
    bound = cfl_dt(state)
    with pytest.raises(StepRejected):
        step(state, dt=4.0 * bound)
    new_state, report = step(state, dt=bound)
    assert new_state.u.min() >= 0.0
    assert report.dt_used == bound


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_step_rejects_an_overflowing_update():
    # the tendency is finite (max |du| about 1.4e308), the update is not
    g = Grid(cells=[4, 4], extents=[1.0, 1.0])
    state = SimState(t=0.0, grid=g,
                     u=gaussian_bump(g, 1e307, 0.3, baseline=1e306),
                     v=constant_field(g, 1.0), params=default_params())
    with pytest.raises(StepRejected):
        step(state, dt=cfl_dt(state))


def test_step_from_a_zero_background_is_accepted():
    # the transforms' round-off of either sign must not read as a loss of
    # positivity where u is zero: a small step spreads the spike and stays >= 0
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    u = np.zeros(g.shape)
    u[8, 8] = 1.0
    state = SimState(t=0.0, grid=g, u=u, v=np.ones(g.shape),
                     params=default_params())
    for dt in (1e-6, 1e-4):
        new_state, _ = step(state, dt)
        assert new_state.u.min() >= 0.0
        assert new_state.u[8, 8] < 1.0
        assert new_state.u.sum() == pytest.approx(1.0, rel=1e-13)


def test_narrow_bump_on_zero_baseline_runs():
    # corner values of about 1e-41 sit far below the transforms' round-off
    g = Grid(cells=[32, 32], extents=[1.0, 1.0])
    u0 = gaussian_bump(g, amplitude=1.5, width=0.05, baseline=0.0)
    state = initial_state(default_params(), g, u0, constant_field(g, 1.0))
    traj, mass = sample_masses(state, T=0.01)
    assert traj.counters()["rejected"] == 0
    assert traj.times[-1] == 0.01
    assert np.abs(mass - mass[0]).max() <= 1e-12 * mass[0]


def test_step_dt_validation():
    state = gaussian_state()
    with pytest.raises(ValueError):
        step(state, dt=0.0)


def test_singularity_guard():
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    v = np.full(g.shape, 1e-13)  # positive but below the mobility floor
    state = SimState(t=0.0, grid=g, u=constant_field(g, 1.0), v=v,
                     params=default_params())
    with pytest.raises(SingularityError):
        cfl_dt(state)


def test_a_held_tendency_still_enforces_each_callers_floor():
    # the tendency is formed and held under the default floor; v's minimum
    # is held with it, and every later call compares it with its own floor
    state = gaussian_state()
    cfl_dt(state)
    assert state._tendency is not None
    floor = 2.0 * float(state.v.min())
    with pytest.raises(SingularityError):
        step(state, 1e-4, v_floor=floor)
    with pytest.raises(SingularityError):
        cfl_dt(state, v_floor=floor)
    new_state, report = step(state, 1e-4)
    # the new state holds the minima its checks took
    assert new_state.v_min() == report.min_v == new_state.v.min()
    assert new_state.u_min() == new_state.u.min()


def test_retry_exhaustion_raises_simulation_error():
    state = gaussian_state()

    def always_reject(st, dt):
        raise StepRejected("forced")

    with pytest.raises(SimulationError) as err:
        _advance_with_retries(state, 1e-3, always_reject, max_retries=3)
    assert err.value.time == 0.0


def test_retry_halving_recovers():
    state = spike_in_drift_state()
    trial = 4.0 * cfl_dt(state)

    def stepper(st, dt):
        return step(st, dt)

    new_state, report = _advance_with_retries(state, trial, stepper,
                                              max_retries=12)
    assert report.retries > 0
    assert report.dt_used < trial
    assert new_state.u.min() >= 0.0


def test_initial_field_kinds():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    c = make_initial_field(g, {"kind": "constant", "value": 2.0})
    assert np.all(c == 2.0)
    gau = make_initial_field(g, {"kind": "gaussian", "amplitude": 1.0,
                                 "width": 0.1, "baseline": 0.5})
    assert gau.max() <= 1.5 + 1e-12
    assert gau.min() >= 0.5
    cos = make_initial_field(g, {"kind": "cosine", "baseline": 1.0,
                                 "amplitude": 0.3, "cutoff": 2, "seed": 4})
    assert cos.min() > 0.0
    with pytest.raises(ValueError):
        make_initial_field(g, {"kind": "vortex"})


def test_cosine_perturbation_seeding():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    a = cosine_perturbation(g, baseline=1.0, amplitude=0.3, cutoff=3, seed=7)
    b = cosine_perturbation(g, baseline=1.0, amplitude=0.3, cutoff=3, seed=7)
    c = cosine_perturbation(g, baseline=1.0, amplitude=0.3, cutoff=3, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_initial_state_validation_and_flooring():
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    params = default_params()
    with pytest.raises(ValueError):
        initial_state(params, g, constant_field(g, -1.0), constant_field(g, 1.0))
    st = initial_state(params, g, constant_field(g, 1.0), constant_field(g, 0.0))
    assert st.v.min() == pytest.approx(1e-6)


def test_step_reports_csv(tmp_path):
    state = gaussian_state()
    traj = run(state, T=0.01, sample_times=[0.01])
    path = tmp_path / "steps.csv"
    traj.write_step_reports_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["step", "t", "dt_used", "cfl_bound", "max_u", "min_v",
                      "retries"]
    assert len(lines) == len(traj.reports) + 1


# a sample hook beside the stepper --------------------------------------------------

def overlap_state(cells=128):
    """entropy-check-128's initial data on a cells x cells grid; 128^2 is the
    smallest square grid whose hook runs beside the stepper."""
    g = Grid(cells=[cells, cells], extents=[1.0, 1.0])
    u0 = gaussian_bump(g, amplitude=1.5, width=0.12, center=[0.55, 0.45],
                       baseline=0.2)
    return initial_state(default_params(), g, u0, constant_field(g, 1.0))


OVERLAP_T = 0.001
OVERLAP_TIMES = np.linspace(0.0, OVERLAP_T, 11)


@pytest.fixture
def blas_threads():
    """OpenBLAS's get and set thread-count functions, with the count set to
    2 for the test (so that a run holding it to 1 shows) and restored after."""
    funcs = simulator._openblas_threads()
    if funcs is None:
        pytest.skip("numpy links no OpenBLAS")
    get, put = funcs
    before = get()
    put(2)
    try:
        yield get, put
    finally:
        put(before)


def figures(result):
    """Every figure of an Accumulated pass as exact text: the record's
    columns, the accumulated series, the balances, v_weak and u_lr_worst."""
    record = result.record
    arrays = [record.times] + [getattr(record, name)
                               for name in record._columns]
    arrays += [record.accumulated[name] for name in ACC_FIELDS]
    return ([a.tobytes() for a in arrays],
            [repr(dataclasses.asdict(b)) for b in result.balances],
            repr(result.v_weak), result.u_lr_worst.hex())


@pytest.mark.parametrize("v_norms", [False, True],
                         ids=["entropy-check", "v-norms"])
def test_an_overlapped_pass_equals_a_serial_one(v_norms, blas_threads):
    # entropy-check's eight phis and phi_v at 128^2, the hook on a worker
    # thread that switches often, against the same pass fed on this thread;
    # simulate's v norms read v's face gradient, which the step takes too
    state = overlap_state()
    g, params = state.grid, state.params
    phis = [phi for _, phi in _residual_test_functions(g, OVERLAP_T)]
    phis += builtin_supersolution_family(g, OVERLAP_T)
    phi_v = diagnostics.TestFunction(
        CosineSpatial((1, 1), amplitude=0.5, offset=1.0),
        RampDownTemporal(0.9 * OVERLAP_T))
    assert len(phis) == 8 and math.prod(g.cells) == OVERLAP_MIN_CELLS
    overlapped = Accumulator(g, params, phis, phi_v, v_norms=v_norms)
    serial = Accumulator(g, params, phis, phi_v, v_norms=v_norms)
    threads = set()

    def feed(s):
        threads.add(threading.current_thread())
        overlapped.add(s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        traj = run(state, OVERLAP_T, sample_times=OVERLAP_TIMES,
                   on_sample=feed)
    finally:
        sys.setswitchinterval(interval)
    reports = []
    for s in samples(state, OVERLAP_T, reports, OVERLAP_TIMES):
        serial.add(s)
    assert len(threads) == 1 and threading.main_thread() not in threads
    spacing = OVERLAP_T / 10
    assert (figures(overlapped.finish(max_sample_dt=spacing))
            == figures(serial.finish(max_sample_dt=spacing)))
    assert traj.reports == reports
    assert traj.times == list(OVERLAP_TIMES)
    assert traj.u_snapshots[0].tobytes() == s.u.tobytes()
    assert traj.v_snapshots[0].tobytes() == s.v.tobytes()


def test_an_overlapped_hook_sees_the_samples_in_order_one_at_a_time(
        blas_threads):
    # the stepper runs ahead while a slow hook holds a sample, yet hands
    # over the next only after the hook returns; the hook runs in the
    # caller's context, so its numpy error state holds there
    get, _ = blas_threads
    seen, busy, overlapping, seen_state = [], [], [], []

    def hook(s):
        busy.append(s.t)
        overlapping.append(len(busy) > 1)
        seen.append(s.t)
        seen_state.append((np.geterr()["divide"], get()))
        time.sleep(0.005)
        busy.pop()

    with np.errstate(divide="raise"):
        traj = run(overlap_state(), OVERLAP_T, sample_times=OVERLAP_TIMES,
                   on_sample=hook)
    assert seen == traj.times == list(OVERLAP_TIMES)
    assert not any(overlapping)
    assert set(seen_state) == {("raise", 1)}


def test_a_handed_over_state_holds_what_both_threads_read(blas_threads):
    # the minima and v's face gradient are formed before hand-off, and the
    # step's tendency, formed meanwhile, leaves the face gradient held
    held, kept = [], []

    def hook(s):
        grad = s._v_face_grad
        held.append(None not in (grad, s._u_min, s._v_min))
        if s.t < OVERLAP_T:
            deadline = time.monotonic() + 10.0
            while s._tendency is None and time.monotonic() < deadline:
                time.sleep(1e-4)
            kept.append(s._tendency is not None and s._v_face_grad is grad)

    run(overlap_state(), OVERLAP_T, sample_times=OVERLAP_TIMES, on_sample=hook)
    assert held == [True] * len(OVERLAP_TIMES)
    assert kept == [True] * (len(OVERLAP_TIMES) - 1)


class HookFailed(Exception):
    pass


def failing_hook(at, delay=0.0):
    """A hook raising a HookFailed at the sample at index `at`, after
    `delay` seconds; the error is kept as .error."""
    count = iter(range(len(OVERLAP_TIMES)))

    def hook(s):
        if next(count) == at:
            time.sleep(delay)
            hook.error = HookFailed(f"sample {at}")
            raise hook.error
    return hook


def failing_step(monkeypatch, after, exc_type=SimulationError):
    """Make every step from a state at or past time `after` raise."""
    real = simulator.step

    def stepper(state, dt, **kw):
        if state.t >= after:
            raise (exc_type(f"forced at t = {state.t}", state.t)
                   if exc_type is SimulationError else exc_type())
        return real(state, dt, **kw)
    monkeypatch.setattr(simulator, "step", stepper)


@pytest.mark.parametrize("step_fails", [False, True],
                         ids=["steps-on", "next-step-fails"])
@pytest.mark.parametrize("cells", [64, 128], ids=["serial", "overlapped"])
def test_a_hook_error_surfaces_as_itself(cells, step_fails, monkeypatch):
    # serially the hook raises before the next step is taken; overlapped,
    # the next step may fail first, and the hook's error still wins
    hook = failing_hook(3, delay=0.05)
    if step_fails:
        failing_step(monkeypatch, OVERLAP_TIMES[3])
    with pytest.raises(HookFailed) as err:
        run(overlap_state(cells), OVERLAP_T, sample_times=OVERLAP_TIMES,
            on_sample=hook)
    assert err.value is hook.error
    assert err.value.__context__ is None


@pytest.mark.parametrize("outcome", ["returns", "hook-fails", "step-fails",
                                     "interrupted"])
def test_an_overlapped_run_joins_its_worker_and_restores_blas(
        outcome, blas_threads, monkeypatch):
    get, _ = blas_threads
    alive = set(threading.enumerate())
    hook = failing_hook(4 if outcome == "hook-fails" else None)
    raised = {"returns": None, "hook-fails": HookFailed,
              "step-fails": SimulationError,
              "interrupted": KeyboardInterrupt}[outcome]
    if raised in (SimulationError, KeyboardInterrupt):
        failing_step(monkeypatch, OVERLAP_TIMES[5], raised)
    args = (overlap_state(), OVERLAP_T)
    if raised is None:
        run(*args, sample_times=OVERLAP_TIMES, on_sample=hook)
    else:
        with pytest.raises(raised):
            run(*args, sample_times=OVERLAP_TIMES, on_sample=hook)
    assert set(threading.enumerate()) == alive
    assert get() == 2


def steep_v_state():
    """overlap_state with a v bump steep enough that OVERLAP_TIMES' spacing
    (1e-4) holds about three initial CFL bounds (3.3e-5)."""
    state = overlap_state()
    g = state.grid
    v0 = gaussian_bump(g, amplitude=1.0, width=0.05, center=[0.4, 0.6],
                       baseline=0.1)
    return initial_state(state.params, g, state.u, v0)


@pytest.mark.parametrize("make, max_dt, overlapped", [
    (lambda: overlap_state(64), None, False),
    (overlap_state, 5e-5, True),
    (overlap_state, 4e-5, False),
    (steep_v_state, None, False),
], ids=["64x64", "128x128-two-steps-per-sample",
        "128x128-2.5-steps-per-sample", "128x128-steep-v"])
def test_the_hook_runs_beside_the_stepper_only_at_few_steps_per_sample(
        make, max_dt, overlapped, blas_threads):
    # 64^2 is under OVERLAP_MIN_CELLS; at 128^2 the sample spacing (1e-4)
    # over the initial step bound, the cap or the CFL bound, decides
    get, _ = blas_threads
    seen = []
    run(make(), OVERLAP_T, sample_times=OVERLAP_TIMES, max_dt=max_dt,
        on_sample=lambda s: seen.append(
            (threading.current_thread() is threading.main_thread(), get())))
    assert seen == [(False, 1) if overlapped else (True, 2)] * len(
        OVERLAP_TIMES)
    assert get() == 2
