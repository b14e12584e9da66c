"""Uniform periodic grids on a p-dimensional period box, and fields sampled on them.

The computational domain is the box [0, T^1) x ... x [0, T^p) with opposite
faces identified, so every node has a full set of periodic neighbours and the
face t^a = T^a is never stored: it is the same set of nodes as t^a = 0.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DIMENSIONS = 4
MIN_RESOLUTION = 4


def check_integer(name: str, value) -> int:
    """``value`` as an int, if it is a Python or numpy integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(value) -> int:
    """``value`` as an int, if it is an integer that numpy's generators take."""
    seed = check_integer("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def check_tolerance(name: str, value) -> None:
    """Reject a tolerance that is not a finite, non-negative number."""
    if not (np.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def check_symmetric(name: str, matrix: np.ndarray) -> None:
    """Reject a square matrix that differs from its transpose beyond rounding."""
    if not np.allclose(matrix, matrix.T, rtol=1e-12, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")


class TorusGrid:
    """Uniform node lattice on a period box with periodic identification.

    Nodes sit at t_k = (k_1 h_1, ..., k_p h_p) with k_a in {0, ..., N_a - 1}
    and spacing h_a = T^a / N_a.  Quadrature against this lattice is the
    periodic trapezoid rule, which here collapses to a single uniform weight
    per node (the cell volume).  Instances are immutable after construction.

    Parameters
    ----------
    periods : sequence of float
        Box edge lengths (T^1, ..., T^p), all positive and finite.
    resolutions : sequence of int
        Nodes per axis (N_1, ..., N_p), all even and at least 4.
    """

    def __init__(self, periods, resolutions):
        periods = tuple(float(T) for T in periods)
        resolutions = tuple(
            check_integer(f"resolution N_{a + 1}", N) for a, N in enumerate(resolutions)
        )
        p = len(periods)
        if p == 0:
            raise ValueError("grid needs at least one time axis, got p=0")
        if p > MAX_DIMENSIONS:
            raise ValueError(
                f"grid supports at most {MAX_DIMENSIONS} time axes, got p={p}"
            )
        if len(resolutions) != p:
            raise ValueError(
                f"got {len(resolutions)} resolutions for {p} periods"
            )
        for a, T in enumerate(periods):
            if not math.isfinite(T) or T <= 0.0:
                raise ValueError(f"period T^{a + 1} must be positive and finite, got {T}")
        for a, N in enumerate(resolutions):
            if N < MIN_RESOLUTION:
                raise ValueError(
                    f"resolution N_{a + 1}={N} is too small, need at least {MIN_RESOLUTION}"
                )
            if N % 2 != 0:
                raise ValueError(
                    f"resolution N_{a + 1}={N} is odd; even counts are required "
                    "so frequency tables pair up"
                )
        self.p = p
        self.periods = periods
        self.resolutions = resolutions
        self.shape = resolutions
        self.spacings = tuple(T / N for T, N in zip(periods, resolutions))
        self.node_count = int(np.prod(resolutions))
        self.cell_weight = float(np.prod(self.spacings))
        self._coords = None

    @property
    def volume(self) -> float:
        """Box volume, identically node_count * cell_weight."""
        return float(np.prod(self.periods))

    def coords(self) -> np.ndarray:
        """Node coordinates as an array of shape ``shape + (p,)`` (cached)."""
        if self._coords is None:
            axes = [self.spacings[a] * np.arange(self.resolutions[a]) for a in range(self.p)]
            mesh = np.meshgrid(*axes, indexing="ij")
            self._coords = np.stack(mesh, axis=-1)
            self._coords.setflags(write=False)
        return self._coords

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node positions along one axis."""
        return self.spacings[axis] * np.arange(self.resolutions[axis])

    def __eq__(self, other):
        return (
            isinstance(other, TorusGrid)
            and self.periods == other.periods
            and self.resolutions == other.resolutions
        )

    def __hash__(self):
        return hash((self.periods, self.resolutions))

    def __repr__(self):
        return f"TorusGrid(periods={self.periods}, resolutions={self.resolutions})"


def build_grid(p: int, periods, resolutions) -> TorusGrid:
    """Validate and construct a TorusGrid with an explicit dimension count."""
    if check_integer("p", p) != len(tuple(periods)):
        raise ValueError(f"p={p} does not match {len(tuple(periods))} periods")
    return TorusGrid(periods, resolutions)


def integrate(grid: TorusGrid, node_values) -> float:
    """Periodic trapezoid quadrature of scalar node samples.

    With uniform spacing and periodic identification the trapezoid rule has a
    single weight, so this is cell_weight * sum(values).  Exact for
    trigonometric polynomials resolved below the per-axis Nyquist frequency.
    """
    values = np.asarray(node_values, dtype=float)
    if values.size != grid.node_count:
        raise ValueError(
            f"expected {grid.node_count} node values, got {values.size}"
        )
    return grid.cell_weight * float(values.sum())


def _box_sum(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Sum of per-node samples over the grid axes, with numpy's sum's bits.

    numpy adds the nodes' rows of a short trailing axis one by one, several
    times slower than einsum adding them in the same order, which gives the
    same bits for any tail of two or more values, broadcast or not.  A tail
    of one value numpy sums pairwise, fast, in an order einsum does not keep.
    """
    values = np.asarray(values)
    if math.prod(values.shape[grid.p:]) < 2:
        return values.sum(axis=tuple(range(grid.p)))
    axes = list(range(values.ndim))
    return np.einsum(values, axes, axes[grid.p:])


def _box_mean(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Mean of per-node samples over the grid axes, as ``.mean`` gives it."""
    return _box_sum(values, grid) / grid.node_count


def _is_frozen(array) -> bool:
    """Whether ``array`` is a read-only ndarray that owns its data.

    Such an array changes only if its owner makes it writeable again, which
    the package never does to an array it froze, so what is computed from it
    can be kept for as long as it is alive.
    """
    return isinstance(array, np.ndarray) and array.flags.owndata and not array.flags.writeable


class Field:
    """Samples of a map from the period box into R^n.

    Values are stored with shape ``grid.shape + (n,)``; the flattened view is
    node-major with the component index fastest, matching the on-disk dump
    layout.

    Parameters
    ----------
    grid : TorusGrid
    values : array_like
        Shape ``grid.shape + (n,)`` or flat of length ``node_count * n``
        (n inferred only when passed explicitly).
    n : int, optional
        Component count; required for flat input, checked otherwise.
    """

    __slots__ = ("grid", "n", "values")

    def __init__(self, grid: TorusGrid, values, n: int | None = None, _check: bool = True):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            if n is None:
                raise ValueError("component count n is required for flat values")
            if values.size != grid.node_count * n:
                raise ValueError(
                    f"flat values have length {values.size}, "
                    f"expected {grid.node_count * n}"
                )
            values = values.reshape(grid.shape + (int(n),))
        else:
            if values.shape[:-1] != grid.shape:
                raise ValueError(
                    f"values shape {values.shape} does not match grid shape {grid.shape}"
                )
            if n is not None and values.shape[-1] != int(n):
                raise ValueError(
                    f"values carry {values.shape[-1]} components, expected {n}"
                )
        if _check and not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        self.grid = grid
        self.n = int(values.shape[-1])
        self.values = values

    @classmethod
    def zeros(cls, grid: TorusGrid, n: int) -> "Field":
        return cls(grid, np.zeros(grid.shape + (int(n),)), _check=False)

    @classmethod
    def constant(cls, grid: TorusGrid, vec) -> "Field":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        values = np.broadcast_to(vec, grid.shape + vec.shape).copy()
        return cls(grid, values)

    @classmethod
    def from_function(cls, grid: TorusGrid, n: int, fn) -> "Field":
        """Sample fn(t) -> R^n at the grid nodes; fn must broadcast over t."""
        values = np.array(fn(grid.coords()), dtype=float)
        if values.shape != grid.shape + (int(n),):
            raise ValueError(
                f"sampled values have shape {values.shape}, "
                f"expected {grid.shape + (int(n),)}"
            )
        return cls(grid, values)

    @property
    def flat(self) -> np.ndarray:
        """Node-major, component-fastest flat view of the values.

        It shares memory with ``values`` (numpy copies only values that are
        not contiguous), so writing to it changes the field.
        """
        return self.values.reshape(-1)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), _check=False)

    def _like(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values, _check=False)

    def _check_compatible(self, other: "Field") -> None:
        if self.grid != other.grid or self.n != other.n:
            raise ValueError("fields live on different grids or component counts")

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return self._like(self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return self._like(self.values - other.values)

    def __mul__(self, scalar) -> "Field":
        return self._like(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return self._like(-self.values)

    def __repr__(self):
        return f"Field(n={self.n}, grid={self.grid!r})"
