import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logsense_ks import grid as grid_module
from logsense_ks.diagnostics import CosineSpatial

from logsense_ks.grid import (
    Grid,
    GridError,
    cosine_series,
    face_div_values,
    face_grad_values,
    faces_to_cells,
    gradient_cell_magnitude,
    interior_max_abs,
    lap_values,
    read_field_binary,
    write_field_binary,
)
from logsense_ks.simulator import cosine_perturbation


def random_field(grid, seed, low=0.5, high=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=grid.shape)


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


def test_laplacian_of_constant_is_zero():
    g = Grid(cells=[12, 12], extents=[1.0, 1.0])
    assert np.abs(lap_values(np.full(g.shape, 3.0), g.h)).max() == 0.0


def test_laplacian_conserves_mass():
    # zero-flux boundaries: the flux form telescopes to zero exactly
    for dim, cells in ((1, [64]), (2, [16, 24]), (3, [8, 10, 6])):
        g = Grid(cells=cells, extents=[1.0] * dim)
        f = random_field(g, seed=dim)
        lap = lap_values(f, g.h)
        # cancellation scale is the Laplacian's own L1 mass, not the field's
        total = float(lap.sum() * g.cell_volume)
        assert abs(total) <= 1e-13 * float(np.abs(lap).sum() * g.cell_volume)


def test_laplacian_self_adjoint():
    g = Grid(cells=[14, 18], extents=[1.0, 1.3])
    f = random_field(g, seed=5)
    w = random_field(g, seed=6)
    a = float((lap_values(f, g.h) * w).sum() * g.cell_volume)
    b = float((f * lap_values(w, g.h)).sum() * g.cell_volume)
    assert_allclose(a, b, rtol=1e-12)


# one mesh per dimension, with unequal cell counts and extents
MESHES = {
    1: Grid(cells=[17], extents=[1.3]),
    2: Grid(cells=[12, 9], extents=[1.0, 2.0]),
    3: Grid(cells=[6, 5, 7], extents=[1.0, 0.8, 1.5]),
}


@pytest.mark.parametrize("dim", sorted(MESHES))
def test_divergence_of_gradient_matches_laplacian(dim):
    g = MESHES[dim]
    f = random_field(g, seed=7)
    fluxes = [face_grad_values(f, g.h, ax) for ax in range(g.dim)]
    div = face_div_values(fluxes, g.h, g.shape)
    assert_allclose(div, lap_values(f, g.h), rtol=0, atol=1e-12)


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
    # only the 19 interior faces are stored, and they recover the slope
    assert grad.shape == (19,)
    assert_allclose(grad, 3.0, rtol=1e-13)


@pytest.mark.parametrize("cells", [[17], [9, 6], [4, 5, 6]],
                         ids=lambda c: f"{len(c)}d")
def test_face_gradient_is_np_diff_bit_for_bit(cells):
    # the slice subtraction is np.diff's own, without its per-call wrapper;
    # a negative axis indexes h from the last too, past any stack axes
    g = Grid(cells=cells, extents=[0.7 + 0.3 * a for a in range(len(cells))])
    field = random_field(g, seed=3)
    stack = np.stack([random_field(g, seed=s) for s in range(3)])
    for ax in range(g.dim):
        for a, h, axis in ((field, g.h, ax), (field, g.h, ax - g.dim),
                           (stack, g.h, ax - g.dim),
                           (stack, (None,) + g.h, ax + 1)):
            want = np.diff(a, axis=axis) / h[axis]
            got = face_grad_values(a, h, axis)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _padded(faces, axis):
    """Interior faces with the zero boundary faces put back at both ends."""
    pad = [(0, 0)] * faces.ndim
    pad[axis] = (1, 1)
    return np.pad(faces, pad)


@pytest.mark.parametrize("dim", sorted(MESHES))
def test_face_kernels_match_the_full_face_formulas(dim):
    # bit for bit against the formulas on n_a + 1 faces with zero ends
    g = MESHES[dim]
    f = random_field(g, seed=11)
    faces = [face_grad_values(f, g.h, ax) for ax in range(dim)]
    want = np.zeros(g.shape)
    for ax, flux in enumerate(faces):
        assert flux.shape[ax] == g.shape[ax] - 1
        full = _padded(flux, ax)
        n = g.shape[ax]
        lower = full.take(range(n), axis=ax)
        upper = full.take(range(1, n + 1), axis=ax)
        want += (upper - lower) / g.h[ax]
        cells = faces_to_cells(flux, ax)
        assert cells.tobytes() == (0.5 * (lower + upper)).tobytes()
    assert face_div_values(faces, g.h, g.shape).tobytes() == want.tobytes()


def test_gradient_cell_magnitude_interior():
    g = Grid(cells=[32, 32], extents=[1.0, 1.0])
    X, Y = g.meshgrid()
    mag = gradient_cell_magnitude(2.0 * X + 1.0 * Y, g)
    inner = mag[1:-1, 1:-1]
    assert_allclose(inner, np.sqrt(5.0), rtol=1e-12)


def test_gradient_cell_magnitude_of_a_stack():
    # leading axes are a stack of fields, each reduced as on its own
    for cells in ([17], [9, 6], [4, 5, 6]):
        g = Grid(cells=cells, extents=[1.0] * len(cells))
        stack = np.stack([random_field(g, seed=s) for s in range(3)])
        mags = gradient_cell_magnitude(stack, g)
        for field, mag in zip(stack, mags):
            assert mag.tobytes() == gradient_cell_magnitude(field, g).tobytes()


def test_faces_to_cells_constant():
    # a constant on the 5 interior faces; the boundary faces count as zero
    g = Grid(cells=[6, 6], extents=[1.0, 1.0])
    face = np.full((5, 6), 2.0)
    cells = faces_to_cells(face, 0)
    assert cells.shape == g.shape
    assert np.all(cells[1:-1] == 2.0)
    assert np.all(cells[[0, -1]] == 1.0)


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
        write_field_binary(f, g, path)
        rcells, rh, rvals = read_field_binary(path)
        assert tuple(rcells) == g.cells
        assert_allclose(rh, g.h, rtol=0, atol=0)
        assert np.array_equal(rvals, f)


# cosine bases -----------------------------------------------------------------

UNEQUAL_GRIDS = [
    Grid(cells=[37], extents=[1.7]),
    Grid(cells=[12, 9], extents=[1.0, 2.5]),
    Grid(cells=[6, 5, 7], extents=[0.7, 1.3, 2.1]),
]


def _cosine_perturbation_reference(grid, baseline, amplitude, cutoff, seed):
    """cosine_perturbation as a loop over the modes on the dense mesh, one
    draw per mode past k = 0."""
    rng = np.random.default_rng(seed)
    coords = grid.meshgrid()
    g = np.zeros(grid.shape)
    for k in np.ndindex(*(cutoff + 1 for _ in range(grid.dim))):
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
    return vals


def _cosine_spatial_reference(shape, grid):
    """CosineSpatial.values as a product of cosines on the dense mesh."""
    term = np.ones(grid.shape)
    for x, k, L in zip(grid.meshgrid(), shape.wavenumbers, grid.extents):
        if k:
            term = term * np.cos(k * np.pi * x / L)
    return shape.offset + shape.amplitude * term


@pytest.mark.parametrize("grid", UNEQUAL_GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("cutoff", [0, 1, 3, 16])
def test_cosine_perturbation_matches_reference_loop(grid, cutoff):
    # at baseline 0.1 the series dips below baseline / 10 for some seed, and
    # the field is shifted up to it
    shifted = set()
    for seed, (baseline, amplitude) in itertools.product(
            range(3), ((1.0, 0.3), (0.1, 5.0))):
        got = cosine_perturbation(grid, baseline, amplitude, cutoff, seed)
        ref = _cosine_perturbation_reference(grid, baseline, amplitude,
                                             cutoff, seed)
        assert got.tobytes() == ref.tobytes()
        if abs(ref.min() - baseline / 10.0) < 1e-12:
            shifted.add(baseline)
    assert shifted == ({0.1} if cutoff else set())


@pytest.mark.parametrize("grid", UNEQUAL_GRIDS, ids=lambda g: f"{g.dim}d")
def test_cosine_spatial_values_match_reference(grid):
    # every wavenumber tuple over (0, 1, 3, 16), zero axes included
    for k in itertools.product((0, 1, 3, 16), repeat=grid.dim):
        for amplitude, offset in ((0.7, 1.2), (-0.4, 0.3)):
            shape = CosineSpatial(k, amplitude=amplitude, offset=offset)
            got = shape.values(grid)
            assert got.shape == grid.shape
            assert got.tobytes() == _cosine_spatial_reference(shape, grid).tobytes()


def _cosine_series_reference(grid, cutoff, coefficients):
    """Each row's cosine series summed mode by mode on the dense mesh."""
    coords = grid.meshgrid()
    series = np.zeros((len(coefficients),) + grid.shape)
    for m, k in enumerate(np.ndindex(*(cutoff + 1 for _ in range(grid.dim)))):
        term = np.ones(grid.shape)
        for ax, ki in enumerate(k):
            term = term * np.cos(ki * np.pi * coords[ax] / grid.extents[ax])
        for row, c in zip(series, coefficients[:, m]):
            row += c * term
    return series


def _slab_widths(monkeypatch):
    """The cell count of each mode-term slab cosine_series builds from here on."""
    widths = []
    build = grid_module._mode_terms

    def spy(tables, spans):
        terms = build(tables, spans)
        widths.append(terms.shape[1])
        return terms

    monkeypatch.setattr(grid_module, "_mode_terms", spy)
    return widths


@pytest.mark.parametrize("grid", UNEQUAL_GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("slab_cells", [None, 7, 4, 2])
def test_cosine_series_slabs_keep_its_bytes(grid, slab_cells, monkeypatch):
    # slabs capped at 7, 4 and 2 cells' terms split the 9-cell and 35-cell
    # layers and leave a one-cell remainder on the last axis (37 = 9 x 4 + 1,
    # 9 = 2 x 4 + 1, 7 = 2 x 3 + 1), which joins the slab before it
    cutoff = 3
    modes = (cutoff + 1) ** grid.dim
    if slab_cells:
        monkeypatch.setattr(grid_module, "_SERIES_SLAB_FLOATS",
                            slab_cells * modes)
    widths = _slab_widths(monkeypatch)
    coefficients = np.random.default_rng(grid.dim).uniform(-1.0, 1.0,
                                                           (3, modes))
    got = cosine_series(grid, cutoff, coefficients)
    assert got.tobytes() == _cosine_series_reference(
        grid, cutoff, coefficients).tobytes()
    assert sum(widths) == np.prod(grid.cells) and min(widths) >= 2
    if slab_cells:
        assert max(widths) <= slab_cells + 1
        assert grid.dim == 1 or min(widths) < np.prod(grid.cells[1:])


def test_cosine_series_oracle_table_is_one_slab(monkeypatch):
    # the oracle's 32 x 32 fields at cutoff 4: one 25 x 1,024 table per call
    widths = _slab_widths(monkeypatch)
    cosine_series(Grid(cells=[32, 32], extents=[1.0, 1.0]), 4, np.ones((32, 25)))
    assert widths == [1024]
