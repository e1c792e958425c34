import numpy as np
import pytest
from numpy.testing import assert_allclose

from logsense_ks.grid import Field, Grid
from logsense_ks.params import ModelParams
from logsense_ks.simulator import (
    SimState,
    SimulationError,
    SingularityError,
    StepRejected,
    _advance_with_retries,
    cfl_dt,
    chemotactic_flux,
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
    return SimState(t=0.0, u=u0, v=Field(g, v0.values, strictly_positive=True),
                    params=params)


def constant_steady_state(cells=12, c=0.7, eps=0.1):
    # u = c, v = c / (1 + eps c) zeroes both right-hand sides exactly
    g = Grid(cells=[cells, cells], extents=[1.0, 1.0])
    params = default_params(eps=eps)
    u = constant_field(g, c)
    v_val = c / (1.0 + eps * c)
    v = Field(g, np.full(g.shape, v_val), strictly_positive=True)
    return SimState(t=0.0, u=u, v=v, params=params)


def test_state_validation():
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    g2 = Grid(cells=[8, 8], extents=[2.0, 1.0])
    params = default_params()
    ok_u = constant_field(g, 1.0)
    ok_v = Field(g, np.ones(g.shape), strictly_positive=True)
    with pytest.raises(ValueError):
        SimState(t=0.0, u=Field(g, -np.ones(g.shape)), v=ok_v, params=params)
    with pytest.raises(ValueError):
        SimState(t=0.0, u=ok_u, v=Field(g, np.zeros(g.shape)), params=params)
    with pytest.raises(ValueError):
        SimState(t=0.0, u=ok_u, v=Field(g2, np.ones(g2.shape), strictly_positive=True),
                 params=params)


def test_constant_steady_state_is_fixed_point():
    state = constant_steady_state()
    traj = run(state, T=0.1, sample_times=[0.05, 0.1])
    assert np.array_equal(traj.u_snapshots[-1], traj.u_snapshots[0])
    assert np.array_equal(traj.v_snapshots[-1], traj.v_snapshots[0])


def test_mass_conservation():
    state = gaussian_state()
    m0 = None
    traj = run(state, T=0.2, sample_times=np.linspace(0.01, 0.2, 20))
    masses = traj.mass_series()
    m0 = masses[0]
    drift = np.abs(masses - m0).max() / m0
    assert drift <= 1e-12


def test_cfl_dt_flat_v():
    # no chemotactic drift: bound reduces to safety * h^2 / (2 dim)
    state = constant_steady_state(cells=16)
    h = state.grid.h[0]
    expected = 0.4 * min(h * h / 4.0, 1.0)
    assert cfl_dt(state) == pytest.approx(expected, rel=1e-14)


def test_run_reports_respect_cfl():
    state = gaussian_state()
    traj = run(state, T=0.05, sample_times=[0.05])
    assert traj.reports, "expected at least one step"
    for r in traj.reports:
        assert r.dt_used <= r.cfl_bound * (1.0 + 1e-12)
        assert r.retries == 0
        assert r.positivity_ok
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
    assert len(traj.u_snapshots) == 1
    assert np.array_equal(traj.u_snapshots[0], state.u.values)


def test_sample_time_validation():
    state = gaussian_state()
    with pytest.raises(ValueError):
        run(state, T=-1.0)
    with pytest.raises(ValueError):
        run(state, T=0.1, sample_times=[0.05, 0.02])
    with pytest.raises(ValueError):
        run(state, T=0.1, sample_times=[0.05, 0.2])


def test_temporal_convergence_first_order():
    # forward Euler: halving the step cap should halve the final-state error
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


def test_step_rejects_positivity_loss():
    # a one-cell spike under pure diffusion goes negative for dt >> h^2
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    u = np.zeros(g.shape)
    u[8, 8] = 1.0
    state = SimState(t=0.0, u=Field(g, u),
                     v=Field(g, np.ones(g.shape), strictly_positive=True),
                     params=default_params())
    h2 = g.h[0] ** 2
    with pytest.raises(StepRejected):
        step(state, dt=10.0 * h2)
    new_state, report = step(state, dt=0.05 * h2)
    assert new_state.u.values.min() >= 0.0
    assert report.dt_used == 0.05 * h2


def test_step_dt_validation():
    state = gaussian_state()
    with pytest.raises(ValueError):
        step(state, dt=0.0)


def test_singularity_guard():
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    v = np.full(g.shape, 1e-13)  # positive but below the mobility floor
    state = SimState(t=0.0, u=constant_field(g, 1.0),
                     v=Field(g, v, strictly_positive=True),
                     params=default_params())
    with pytest.raises(SingularityError):
        chemotactic_flux(state)
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
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    u = np.zeros(g.shape)
    u[8, 8] = 1.0
    state = SimState(t=0.0, u=Field(g, u),
                     v=Field(g, np.ones(g.shape), strictly_positive=True),
                     params=default_params())
    h2 = g.h[0] ** 2

    def stepper(st, dt):
        return step(st, dt)

    new_state, report = _advance_with_retries(state, 10.0 * h2, stepper,
                                              max_retries=12)
    assert report.retries > 0
    assert report.dt_used < 10.0 * h2
    assert new_state.u.values.min() >= 0.0


def test_initial_field_kinds():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    c = make_initial_field(g, {"kind": "constant", "value": 2.0})
    assert np.all(c.values == 2.0)
    gau = make_initial_field(g, {"kind": "gaussian", "amplitude": 1.0,
                                 "width": 0.1, "baseline": 0.5})
    assert gau.values.max() <= 1.5 + 1e-12
    assert gau.values.min() >= 0.5
    cos = make_initial_field(g, {"kind": "cosine", "baseline": 1.0,
                                 "amplitude": 0.3, "cutoff": 2, "seed": 4})
    assert cos.values.min() > 0.0
    with pytest.raises(ValueError):
        make_initial_field(g, {"kind": "vortex"})


def test_cosine_perturbation_seeding():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    a = cosine_perturbation(g, baseline=1.0, amplitude=0.3, cutoff=3, seed=7)
    b = cosine_perturbation(g, baseline=1.0, amplitude=0.3, cutoff=3, seed=7)
    c = cosine_perturbation(g, baseline=1.0, amplitude=0.3, cutoff=3, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_initial_state_validation_and_flooring():
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    params = default_params()
    with pytest.raises(ValueError):
        initial_state(g, params, {"kind": "constant", "value": -1.0},
                      {"kind": "constant", "value": 1.0})
    st = initial_state(g, params, {"kind": "constant", "value": 1.0},
                       {"kind": "constant", "value": 0.0})
    assert st.v.values.min() == pytest.approx(1e-6)


def test_step_reports_csv(tmp_path):
    state = gaussian_state()
    traj = run(state, T=0.01, sample_times=[0.01])
    path = tmp_path / "steps.csv"
    traj.write_step_reports_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["step", "t", "dt_used", "cfl_bound", "max_u", "min_v",
                      "positivity_ok", "retries"]
    assert len(lines) == len(traj.reports) + 1
