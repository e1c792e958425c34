import numpy as np
import pytest
from numpy.testing import assert_allclose

from logsense_ks.grid import (
    Field,
    Grid,
    GridError,
    face_div_values,
    face_grad_values,
    faces_to_cells,
    gradient_cell_magnitude,
    integrate,
    interior_max_abs,
    lap_values,
    read_field_binary,
    write_field_binary,
)


def random_field(grid, seed, low=0.5, high=2.0):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.uniform(low, high, size=grid.shape))


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(cells=[], extents=[])
    with pytest.raises(GridError):
        Grid(cells=[4, 4, 4, 4], extents=[1, 1, 1, 1])
    with pytest.raises(GridError):
        Grid(cells=[16], extents=[-1.0])
    with pytest.raises(GridError):
        Grid(cells=[16, 16], extents=[1.0])
    with pytest.raises(GridError):
        Grid(cells=[2], extents=[1.0])
    with pytest.raises(GridError):
        Grid(cells=[8192, 8192], extents=[1.0, 1.0])


def test_field_positivity_flag():
    g = Grid(cells=[8], extents=[1.0])
    with pytest.raises(GridError):
        Field(g, np.full(8, np.nan))
    Field(g, np.zeros(8))  # finite data is fine; positivity is checked where needed


def test_integrate_constant():
    g = Grid(cells=[10, 20], extents=[2.0, 3.0])
    f = Field(g, np.full(g.shape, 1.5))
    assert integrate(f) == pytest.approx(1.5 * 6.0, rel=1e-14)


def test_laplacian_of_constant_is_zero():
    g = Grid(cells=[12, 12], extents=[1.0, 1.0])
    assert np.abs(lap_values(np.full(g.shape, 3.0), g.h)).max() == 0.0


def test_laplacian_conserves_mass():
    # zero-flux boundaries: the flux form telescopes to zero exactly
    for dim, cells in ((1, [64]), (2, [16, 24]), (3, [8, 10, 6])):
        g = Grid(cells=cells, extents=[1.0] * dim)
        f = random_field(g, seed=dim)
        lap = lap_values(f.values, g.h)
        # cancellation scale is the Laplacian's own L1 mass, not the field's
        total = integrate(Field(g, lap))
        assert abs(total) <= 1e-13 * integrate(Field(g, np.abs(lap)))


def test_laplacian_self_adjoint():
    g = Grid(cells=[14, 18], extents=[1.0, 1.3])
    f = random_field(g, seed=5)
    w = random_field(g, seed=6)
    a = integrate(Field(g, lap_values(f.values, g.h) * w.values))
    b = integrate(Field(g, f.values * lap_values(w.values, g.h)))
    assert_allclose(a, b, rtol=1e-12)


def test_divergence_of_gradient_matches_laplacian():
    g = Grid(cells=[12, 9], extents=[1.0, 2.0])
    f = random_field(g, seed=7)
    fluxes = [face_grad_values(f.values, g.h, ax) for ax in range(g.dim)]
    div = face_div_values(fluxes, g.h, g.shape)
    assert_allclose(div, lap_values(f.values, g.h), rtol=0, atol=1e-12)


def test_laplacian_convergence_order():
    # cos(pi x) cos(2 pi y) has zero normal derivative on the unit box
    errs = []
    for N in (16, 32, 64):
        g = Grid(cells=[N, N], extents=[1.0, 1.0])
        X, Y = g.meshgrid()
        vals = np.cos(np.pi * X) * np.cos(2.0 * np.pi * Y)
        exact = -(np.pi**2 + 4.0 * np.pi**2) * vals
        err = np.abs(lap_values(vals, g.h) - exact).max()
        errs.append(err)
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.9


def test_face_gradient_linear_field():
    g = Grid(cells=[20], extents=[2.0])
    (x,) = g.meshgrid()
    grad = face_grad_values(3.0 * x, g.h, 0)
    # interior faces recover the slope exactly; boundary faces are zero flux
    assert_allclose(grad[1:-1], 3.0, rtol=1e-13)
    assert grad[0] == 0.0 and grad[-1] == 0.0


def test_gradient_cell_magnitude_interior():
    g = Grid(cells=[32, 32], extents=[1.0, 1.0])
    X, Y = g.meshgrid()
    f = Field(g, 2.0 * X + 1.0 * Y)
    mag = gradient_cell_magnitude(f.values, g)
    inner = mag[1:-1, 1:-1]
    assert_allclose(inner, np.sqrt(5.0), rtol=1e-12)


def test_gradient_cell_magnitude_of_a_stack():
    # leading axes are a stack of fields, each reduced as on its own
    for cells in ([17], [9, 6], [4, 5, 6]):
        g = Grid(cells=cells, extents=[1.0] * len(cells))
        stack = np.stack([random_field(g, seed=s).values for s in range(3)])
        mags = gradient_cell_magnitude(stack, g)
        for field, mag in zip(stack, mags):
            assert mag.tobytes() == gradient_cell_magnitude(field, g).tobytes()


def test_faces_to_cells_constant():
    g = Grid(cells=[6, 6], extents=[1.0, 1.0])
    face = np.full((7, 6), 2.0)
    cells = faces_to_cells(face, 0)
    assert cells.shape == g.shape
    assert_allclose(cells, 2.0, rtol=1e-14)


def test_interior_max_abs():
    vals = np.ones((8, 8))
    vals[0, 0] = 50.0   # boundary cell must be ignored
    vals[4, 4] = -7.0
    assert interior_max_abs(vals) == 7.0


def test_binary_roundtrip(tmp_path):
    for cells, extents in (([17], [1.0]), ([9, 6], [1.0, 2.0]),
                           ([4, 5, 6], [1.0, 1.0, 3.0])):
        g = Grid(cells=cells, extents=extents)
        f = random_field(g, seed=sum(cells))
        path = tmp_path / f"f{len(cells)}.bin"
        write_field_binary(f, path)
        rcells, rh, rvals = read_field_binary(path)
        assert tuple(rcells) == g.cells
        assert_allclose(rh, g.h, rtol=0, atol=0)
        assert np.array_equal(rvals, f.values)
