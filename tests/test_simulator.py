import numpy as np
import pytest
from numpy.testing import assert_allclose

from logsense_ks.grid import Grid, dct_modes, dct_values, lap_values
from logsense_ks.params import ModelParams
from logsense_ks.simulator import (
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
    traj = run(state, T, on_sample=lambda t, u, v: masses.append(
        float(u.sum() * state.grid.cell_volume)), **kw)
    return traj, np.array(masses)


def test_constant_steady_state_is_fixed_point():
    state = constant_steady_state()
    seen = []
    run(state, T=0.1, sample_times=[0.05, 0.1],
        on_sample=lambda t, u, v: seen.append((u.copy(), v.copy())))
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
                   on_sample=lambda t, u, v: seen.append((t, u.copy(), v.copy())))
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

    def keep(t, u, v):
        held.append((u, v))
        copies.append((u.copy(), v.copy()))

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
