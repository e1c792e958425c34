"""The CSV writers against the forms they replace.

record.csv, steps.csv and exponent_region.csv write each row with one `%`
on a "%.17g,...\\r\\n" template, and the studies' eps_study.csv and
refine_study.csv go through `cli._write_table` with "\\n" line ends.  Each
reference below is the form it replaces: a csv.writer row per line, or a
",".join per line for the study tables, and one format(x, ".17g") per value
(str(level) for refine-study's level).  The files must agree byte for byte,
on columns holding NaN, +-inf, -0.0, the smallest subnormal and the largest
double.
"""

import csv

import numpy as np
import pytest

from logsense_ks.cli import (
    _EPS_COLUMNS,
    _EPS_ROW,
    _REFINE_COLUMNS,
    _REFINE_ROW,
    _write_table,
)
from logsense_ks.diagnostics import (
    ACC_FIELDS,
    RECORD_COLUMNS,
    V_NORM_COLUMNS,
    DiagnosticsRecord,
)
from logsense_ks.grid import Grid
from logsense_ks.params import (
    DEFAULT_N2_CAP,
    ModelParams,
    entropy_coefficients,
    export_exponent_region,
    q_bounds,
)
from logsense_ks.simulator import (
    SimState,
    StepReport,
    Trajectory,
    gaussian_bump,
    run,
)

SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
            1.7976931348623157e308, -1.7976931348623157e308, 1e16, 0.1, 3.0]


def _record_csv_reference(record, path):
    columns = [getattr(record, c) for c in record._columns]
    header = ["time"] + list(record._columns) + [f"acc_{k}" for k in ACC_FIELDS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(record.times)):
            row = [format(record.times[i], ".17g")]
            row += [format(column[i], ".17g") for column in columns]
            row += [format(record.accumulated[k][i], ".17g") for k in ACC_FIELDS]
            writer.writerow(row)


def _steps_csv_reference(trajectory, path):
    floats = ("t", "dt_used", "cfl_bound", "max_u", "min_v")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", *floats, "retries"])
        for i, r in enumerate(trajectory.reports):
            writer.writerow([i, *(format(getattr(r, name), ".17g")
                                  for name in floats), r.retries])


def _exponent_region_reference(chi, n, path, p_count):
    cap = n / (n - 2) if n >= 3 else DEFAULT_N2_CAP
    p_max = min(1.0, 1.0 / chi**2)
    ps = p_max * (np.arange(1, p_count + 1)) / (p_count + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "q_minus", "q_plus", "c1_at_mid", "feasible"])
        for p in ps:
            qm, qp = q_bounds(float(p), chi)
            q_mid = 0.5 * (qm + qp)
            c1 = entropy_coefficients(float(p), q_mid, chi).c1
            feasible = qp > qm and (1.0 - q_mid) / p < cap
            writer.writerow([
                format(float(p), ".17g"),
                format(qm, ".17g"),
                format(qp, ".17g"),
                format(c1, ".17g"),
                int(feasible),
            ])


def _eps_study_csv_reference(ladder, diffs, path):
    with open(path, "w") as fh:
        fh.write("eps_hi,eps_lo,u_l1,v_l1,grad_vq_l1,entropy_density_l1\n")
        for row in zip(ladder, ladder[1:], *diffs):
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")


def _refine_study_csv_reference(rows, path):
    keys = ["level", "h_min", "final_u_l1_error", "identity_constant",
            "identity_cosine", "identity_bump", "power_half", "power_full"]
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(
                format(row[k], ".17g") if isinstance(row[k], float)
                else str(row[k]) for k in keys) + "\n")


def _column(rng, n):
    """n doubles across the whole exponent range, every SPECIALS value
    among them."""
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    a[rng.permutation(n)[:len(SPECIALS)]] = SPECIALS
    return a


def _assert_same_file(tmp_path, write, reference):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got)
    reference(want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("v_norms", [True, False])
def test_record_csv_is_the_csv_writer_form(tmp_path, v_norms):
    rng = np.random.default_rng(28 + v_norms)
    n = 60
    cols = {name: _column(rng, n) for name in RECORD_COLUMNS
            if v_norms or name not in V_NORM_COLUMNS}
    record = DiagnosticsRecord(
        times=_column(rng, n), **cols,
        accumulated={k: _column(rng, n) for k in ACC_FIELDS})
    assert ("v_lr" in record._columns) == v_norms
    _assert_same_file(tmp_path, record.to_csv,
                      lambda path: _record_csv_reference(record, path))


def test_steps_csv_is_the_csv_writer_form(tmp_path):
    # a run's own reports, then reports with retries and a NaN cfl_bound
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    params = ModelParams(chi=2.0, n=2, eps=0.01, p=0.2, q=0.35, r=1.1)
    state = SimState(t=0.0, grid=g, params=params,
                     u=gaussian_bump(g, amplitude=1.5, width=0.12,
                                     baseline=0.2),
                     v=np.ones(g.shape))
    traj = run(state, T=0.01, sample_times=[0.01])
    assert traj.reports
    rng = np.random.default_rng(28)
    values = _column(rng, 5 * 40).reshape(40, 5)
    values[::7, 2] = np.nan
    for k, row in enumerate(values):
        traj.reports.append(StepReport(*row.tolist(), retries=k % 4,
                                       set_by="drift"))
    assert any(r.retries > 0 for r in traj.reports)
    assert any(np.isnan(r.cfl_bound) for r in traj.reports)
    _assert_same_file(tmp_path, traj.write_step_reports_csv,
                      lambda path: _steps_csv_reference(traj, path))


def test_empty_writers_write_their_headers(tmp_path):
    traj = Trajectory(grid=Grid(cells=[4], extents=[1.0]),
                      params=ModelParams(chi=1.0, n=2))
    _assert_same_file(tmp_path, traj.write_step_reports_csv,
                      lambda path: _steps_csv_reference(traj, path))
    empty = np.empty(0)
    record = DiagnosticsRecord(
        times=empty, **{name: empty for name in RECORD_COLUMNS},
        accumulated={k: empty for k in ACC_FIELDS})
    _assert_same_file(tmp_path, record.to_csv,
                      lambda path: _record_csv_reference(record, path))


@pytest.mark.parametrize("chi, n, p_count", [
    (0.5, 2, 50), (1.5, 2, 200), (2.5, 3, 200), (1.0, 4, 37), (6.0, 5, 300),
])
def test_exponent_region_csv_is_the_csv_writer_form(tmp_path, chi, n,
                                                    p_count):
    _assert_same_file(
        tmp_path, lambda path: export_exponent_region(chi, n, path, p_count),
        lambda path: _exponent_region_reference(chi, n, path, p_count))


@pytest.mark.parametrize("rungs", [1, 2, 60])
def test_eps_study_csv_is_the_join_form(tmp_path, rungs):
    # one rung is a header-only table; 60 rungs hold every SPECIALS value
    # in each column
    rng = np.random.default_rng(29 + rungs)
    columns = [_column(rng, 60)[:rungs].tolist() for _ in range(5)]
    ladder, diffs = columns[0], columns[1:]
    _assert_same_file(
        tmp_path, lambda path: _write_table(
            path, _EPS_COLUMNS, _EPS_ROW, zip(ladder, ladder[1:], *diffs)),
        lambda path: _eps_study_csv_reference(ladder, diffs, path))


@pytest.mark.parametrize("as_numpy", [False, True])
def test_refine_study_csv_is_the_join_form(tmp_path, as_numpy):
    # levels past 9 and 99 widen the level column; the residuals come as
    # Python floats or as numpy float64 scalars
    rng = np.random.default_rng(29)
    n = 120
    values = np.stack([_column(rng, n) for _ in _REFINE_COLUMNS[1:]], axis=1)
    rows = [(level, *(row if as_numpy else row.tolist()))
            for level, row in enumerate(values)]
    assert isinstance(rows[0][1], np.float64 if as_numpy else float)
    _assert_same_file(
        tmp_path, lambda path: _write_table(path, _REFINE_COLUMNS,
                                            _REFINE_ROW, rows),
        lambda path: _refine_study_csv_reference(
            [dict(zip(_REFINE_COLUMNS, row)) for row in rows], path))
