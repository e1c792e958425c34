"""Uniform cell-centered tensor meshes and the discrete operators built on them.

The mesh covers a box [0, L_1] x ... x [0, L_d] (d = 1, 2, 3) with n_a cells of
width h_a = L_a / n_a along axis a.  A scalar field is an array of the cell
shape, one value per cell center; gradients and fluxes live on cell faces.
Boundary faces always carry zero normal flux (reflecting / mirrored ghost
cells), which makes the divergence telescope exactly: integrating the
divergence of any face flux gives zero up to round-off, and the Neumann
Laplacian is self-adjoint with respect to the midpoint inner product.

A face array for axis a holds only the n_a - 1 interior faces of that axis;
entry i sits between cells i and i + 1.  The kernels that map faces back to
cells, face_div_values and faces_to_cells, count the boundary faces as zero.

Zero-flux fields are also written as cosine series over the modes k in
range(cutoff + 1)^d, in lexicographic order, mode k being
prod_a cos(k_a pi x_a / L_a).  cosine_series contracts rows of mode
coefficients with the table of mode terms in one einsum: without `optimize`,
einsum adds coefficient * term in mode order, a multiply and then an add, as
a loop over the modes would, so a row's series does not depend on the other
rows.  (Over a single cell it sums in another order; every contraction spans
at least two cells.)
"""

from __future__ import annotations

import functools
import itertools
import struct

import numpy as np

DEFAULT_MAX_CELLS = 2**24
MIN_CELLS_PER_AXIS = 4
# mode-term floats per cell cosine_series holds, as many as a 32-row series
_SERIES_TERMS_PER_CELL = 32
# mode-term floats cosine_series holds at once, at most (4 MiB)
_SERIES_SLAB_FLOATS = 2**19


class GridError(ValueError):
    pass


class Grid:
    """Uniform tensor-product mesh of a 1/2/3-dimensional box."""

    __slots__ = ("cells", "extents", "h", "dim", "cell_volume")

    def __init__(self, cells, extents, max_cells=DEFAULT_MAX_CELLS):
        cells = tuple(int(c) for c in cells)
        extents = tuple(float(L) for L in extents)
        if not 1 <= len(cells) <= 3:
            raise GridError(f"dimension must be 1, 2 or 3, got {len(cells)}")
        if len(extents) != len(cells):
            raise GridError("cells and extents must have matching length")
        for c in cells:
            if c < MIN_CELLS_PER_AXIS:
                raise GridError(f"need at least {MIN_CELLS_PER_AXIS} cells per axis, got {c}")
        for L in extents:
            if not np.isfinite(L) or L <= 0.0:
                raise GridError(f"extent must be positive and finite, got {L}")
        total = int(np.prod(cells))
        if total > max_cells:
            raise GridError(f"total cell count {total} exceeds limit {max_cells}")
        self.cells = cells
        self.extents = extents
        self.dim = len(cells)
        self.h = tuple(L / c for L, c in zip(extents, cells))
        self.cell_volume = float(np.prod(self.h))

    @property
    def shape(self):
        return self.cells

    @property
    def volume(self):
        return float(np.prod(self.extents))

    def axis_centers(self, axis):
        """Cell-center coordinates along one axis."""
        return (np.arange(self.cells[axis]) + 0.5) * self.h[axis]

    def axis_faces(self, axis):
        """Face coordinates along one axis (n_a + 1 values, 0 to L_a)."""
        return np.arange(self.cells[axis] + 1) * self.h[axis]

    def meshgrid(self):
        """Dense cell-center coordinate arrays, one per axis."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def __repr__(self):
        return f"Grid(cells={self.cells}, extents={self.extents})"


# low-level kernels on raw arrays ------------------------------------------------

def _span(axis, start, stop):
    """Index of the entries start:stop along `axis`, all entries elsewhere; a
    negative axis counts from the last, past any leading stack axes."""
    if axis < 0:
        return (Ellipsis, slice(start, stop)) + (slice(None),) * (-axis - 1)
    return (slice(None),) * axis + (slice(start, stop),)


def end_slabs(a, axis):
    """Views of the first and the last one-entry-thick layer of `a` along `axis`."""
    return a[_span(axis, 0, 1)], a[_span(axis, -1, None)]


def lap_values(a, h, out=None):
    """Mirrored-ghost (zero-flux) Laplacian stencil on raw cell values;
    `out`, an array of a's shape, takes it in place of a fresh one."""
    if out is None:
        out = np.zeros_like(a)
    else:
        out.fill(0.0)
    for ax, ha in enumerate(h):
        first, last = end_slabs(a, ax)
        padded = np.concatenate([first, a, last], axis=ax)
        n = a.shape[ax]
        out += (padded[_span(ax, 2, n + 2)] - 2.0 * a + padded[_span(ax, 0, n)]) / ha**2
    return out


@functools.lru_cache(maxsize=8)
def dct_modes(cells, h):
    """Orthonormal DCT-II basis of the zero-flux Laplacian on a (cells, h) mesh.

    Returns (matrices, eigenvalues): per axis the N x N matrix
    C[k, j] = s_k cos(pi k (j + 1/2) / N), and the eigenvalue sum
    sum_a -(4 / h_a^2) sin^2(pi k_a / (2 N_a)) over the mode grid, so that
    `lap_values` equals the inverse transform of eigenvalues * forward
    transform.  Built once per mesh; the arrays are read-only.
    """
    mats = []
    eig = np.zeros(cells)
    for ax, (n, ha) in enumerate(zip(cells, h)):
        k = np.arange(n)
        c = np.cos(np.pi * np.outer(k, k + 0.5) / n) * np.sqrt(2.0 / n)
        c[0] = np.sqrt(1.0 / n)
        shape = [1] * len(cells)
        shape[ax] = n
        eig = eig - (4.0 / ha**2) * np.sin(0.5 * np.pi * k / n).reshape(shape) ** 2
        c.flags.writeable = False
        mats.append(c)
    eig.flags.writeable = False
    return tuple(mats), eig


def _along(a, m, axis):
    """`m` applied to every line of `a` along the (negative) `axis`."""
    if axis == -1:
        return a @ m.T
    return np.swapaxes(m @ np.swapaxes(a, axis, -2), axis, -2)


def dct_values(a, mats, inverse=False):
    """Forward (or inverse) transform over the trailing len(mats) axes of `a`;
    any leading axes are a stack of fields transformed together."""
    d = len(mats)
    for ax, m in enumerate(mats):
        a = _along(a, m.T if inverse else m, ax - d)
    return a


def face_grad_values(a, h, axis):
    """Gradient along one axis on the interior faces.  A negative axis counts
    from the last and indexes h the same way."""
    return np.subtract(a[_span(axis, 1, None)], a[_span(axis, 0, -1)]) / h[axis]


def face_div_values(fluxes, h, shape):
    """Cell divergence of per-axis interior face fluxes (no boundary flux)."""
    out = np.zeros(shape, dtype=np.float64)
    for ax, (flux, ha) in enumerate(zip(fluxes, h)):
        out[_span(ax, 1, -1)] += np.diff(flux, axis=ax) / ha
        first, last = end_slabs(out, ax)
        first += flux[_span(ax, 0, 1)] / ha
        last -= flux[_span(ax, -1, None)] / ha
    return out


def face_sum_values(a, axis):
    """Sum of the two cells beside each interior face."""
    return a[_span(axis, 0, -1)] + a[_span(axis, 1, None)]


def face_mean_values(a, axis):
    """Arithmetic mean of the two cells beside each interior face."""
    return 0.5 * face_sum_values(a, axis)


def faces_to_cells(face_array, axis):
    """Average the two bounding faces of each cell along `axis`; a boundary
    face counts as zero."""
    shape = list(face_array.shape)
    shape[axis] += 1
    cells = np.zeros(shape)
    cells[_span(axis, 0, -1)] += face_array
    cells[_span(axis, 1, None)] += face_array
    cells *= 0.5
    return cells


# public field operations --------------------------------------------------------

def gradient_cell_magnitude(values, grid):
    """Cell-centered Euclidean norm of the gradient (face averages per axis).
    Leading axes of `values` beyond the grid's are a stack of fields."""
    return face_cell_magnitude(
        [face_grad_values(values, grid.h, ax - grid.dim)
         for ax in range(grid.dim)], grid)


def face_cell_magnitude(face_arrays, grid):
    """Cell-centered Euclidean norm of per-axis face arrays (face averages);
    leading axes beyond the grid's are a stack."""
    sq = 0.0
    for ax, g in enumerate(face_arrays):
        c = faces_to_cells(g, ax - grid.dim)
        c *= c
        sq += c
    return np.sqrt(sq)


def interior_max_abs(values):
    """Max |value| over cells at least one cell away from the boundary."""
    sl = tuple(slice(1, n - 1) for n in values.shape)
    return float(np.abs(values[sl]).max())


# zero-flux cosine series --------------------------------------------------------

def cosine_modes(dim, cutoff):
    """Each mode k of a cosine series with its 1 + |k|^2, in lexicographic order."""
    for k in itertools.product(range(cutoff + 1), repeat=dim):
        yield k, 1.0 + sum(ki * ki for ki in k)


@functools.lru_cache(maxsize=8)
def cosine_tables(cells, extents, cutoff):
    """Per-axis cosine tables and the 1 + |k|^2 of the modes, in their order.

    Table a is (cutoff + 1, n_a): its row k_a holds cos(k_a pi x_a / L_a) at
    the axis-a cell centres, so row 0 is all ones and a factor taken from it
    is exact.  Built once per (cells, extents, cutoff); read-only.
    """
    grid = Grid(cells, extents, max_cells=np.inf)
    tables = []
    for ax in range(grid.dim):
        x = grid.axis_centers(ax)
        tables.append(np.stack([np.cos(ki * np.pi * x / extents[ax])
                                for ki in range(cutoff + 1)]))
    denominators = np.array([d for _, d in cosine_modes(grid.dim, cutoff)])
    for a in tables + [denominators]:
        a.flags.writeable = False
    return tuple(tables), denominators


def _mode_terms(tables, spans):
    """The (modes, cells) table of mode terms over the cells the per-axis
    slices `spans` select, modes in lexicographic order: a mode's term is
    the product of its cosine rows, multiplied in axis order."""
    dim = len(tables)
    tables = [table[:, span] for table, span in zip(tables, spans)]
    terms = 1.0
    for ax, table in enumerate(tables):
        shape = [1] * (2 * dim)
        shape[ax], shape[dim + ax] = table.shape
        terms = terms * table.reshape(shape)
    return terms.reshape(len(tables[0]) ** dim, -1)


def _slabs(cells, per_slab):
    """Per-axis slices of consecutive C-order slabs of cells, in order, each
    of at most `per_slab` cells (at least 2): whole layers along the first
    axis whose later axes fit, split along that axis.  A one-cell remainder
    along the last axis joins the slab before it."""
    dim = len(cells)
    tails = [int(np.prod(cells[ax + 1:])) for ax in range(dim)]
    ax = next(a for a in range(dim) if tails[a] <= per_slab)
    count = min(cells[ax], per_slab // tails[ax])
    starts = list(range(0, cells[ax], count))
    if tails[ax] == 1 and cells[ax] - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [cells[ax]]
    for prefix in itertools.product(*map(range, cells[:ax])):
        for lo, hi in zip(starts, ends):
            yield ([slice(i, i + 1) for i in prefix] + [slice(lo, hi)]
                   + [slice(None)] * (dim - ax - 1))


def cosine_series(grid, cutoff, coefficients, out=None):
    """The series of each row of mode coefficients, stacked on a leading
    axis; `out`, a (rows, cells) array, takes them in place of a fresh one.

    The table of mode terms holds at most _SERIES_TERMS_PER_CELL floats per
    cell and at most _SERIES_SLAB_FLOATS in all, though at least two cells'
    terms: past that it is built and contracted a slab of consecutive cells
    at a time (see _slabs).  Each cell's series sums its terms in the same
    order whatever slab holds it, as long as the slab spans at least two
    cells.
    """
    tables, _ = cosine_tables(grid.cells, grid.extents, cutoff)
    coefficients = np.asarray(coefficients)
    cells = int(np.prod(grid.cells))
    budget = min(_SERIES_TERMS_PER_CELL * cells, _SERIES_SLAB_FLOATS)
    series = np.empty((len(coefficients), cells)) if out is None else out
    lo = 0
    for spans in _slabs(grid.cells, max(2, budget // coefficients.shape[1])):
        terms = _mode_terms(tables, spans)
        hi = lo + terms.shape[1]
        np.einsum("bk,kn->bn", coefficients, terms, out=series[:, lo:hi])
        lo = hi
    return series.reshape((len(coefficients),) + grid.shape)


# serialization -------------------------------------------------------------------

# Binary layout, all little-endian:
#   uint32   dim
#   uint64 * dim   cell counts (row-major order of the value block)
#   float64 * dim  cell spacings
#   float64 * prod(counts)  cell values, C order


def write_field_binary(values, grid, path):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", grid.dim))
        fh.write(struct.pack(f"<{grid.dim}Q", *grid.cells))
        fh.write(struct.pack(f"<{grid.dim}d", *grid.h))
        fh.write(values.astype("<f8").tobytes(order="C"))


def read_field_binary(path):
    """Read a field dump; returns (cells, spacings, values)."""
    with open(path, "rb") as fh:
        (dim,) = struct.unpack("<I", fh.read(4))
        cells = struct.unpack(f"<{dim}Q", fh.read(8 * dim))
        spacing = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        count = int(np.prod(cells))
        values = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(cells)
    return cells, spacing, values
