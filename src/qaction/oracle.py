"""Grid-diagonalisation oracle for amplitudes, independent of the closed forms.

The Hamiltonian H = -(hbar^2 / 2m) d^2/dx^2 + V(x) is discretised with the
standard 3-point Laplacian and Dirichlet ends, diagonalised by LAPACK's
tridiagonal bisection and inverse iteration (stebz and stein, one route for
every selection of levels; scipy's own dstebz and dstein, bound by
qaction.lapack), and amplitudes are assembled from the truncated spectral sum

    G(b, T; a) = sum_n psi_n(b) psi_n(a) exp(-E_n T / hbar).

Eigenvalues converge with the square of the spacing, so a Richardson pair of
decompositions (refine_energies) upgrades the energies to fourth order when
long times demand it. Off-node endpoints are handled by local cubic
interpolation of the eigenvectors.

Given the smallest query time t_min, spectrum solves only the levels an
amplitude at t >= t_min can see (see VISIBLE_EFOLDS). Bisection runs at
LAPACK's default absolute tolerance, about ulp times the Gershgorin norm of
the operator, so the bits of an energy depend on which levels are selected:
at spacing 2e-3 a different selection moves energies by up to 8e-11.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .lapack import dstebz, dstein
from .model import ActionParams, Domain, potential_value

TRUNCATION_TAIL = 1e-12
# A level more than 53 ln 2 e-folds above the ground level weighs less than
# 2^-53 of it in the spectral sum, below the last bit of the leading term.
VISIBLE_EFOLDS = 53.0 * math.log(2.0)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform spatial grid [x_min, x_max] with n_points nodes."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise ValueError("x_max must exceed x_min")
        if self.n_points < 100:
            raise ValueError("grid needs at least 100 points to resolve bound states")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @classmethod
    def from_spacing(cls, x_min: float, x_max: float, spacing: float) -> "SpatialGrid":
        intervals = (x_max - x_min) / spacing
        if not math.isfinite(intervals):
            raise ValueError(f"node count of [{x_min:g}, {x_max:g}] overflows")
        n = int(round(intervals)) + 1
        return cls(x_min, x_min + (n - 1) * spacing, n)


def default_grid(domain: Domain, spacing: float, extent: float) -> SpatialGrid:
    """Half-line grids start one spacing off the singular origin."""
    if domain is Domain.HALF_LINE:
        return SpatialGrid.from_spacing(spacing, extent, spacing)
    return SpatialGrid.from_spacing(-extent, extent, spacing)


@dataclass(frozen=True)
class TridiagonalOperator:
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid: SpatialGrid
    hbar: float


@dataclass(frozen=True)
class SpectralDecomposition:
    """Lowest eigenpairs; wavefunctions normalised to sum psi^2 dx = 1.

    wavefunctions is None for an energies-only decomposition.
    """

    grid: SpatialGrid
    energies: np.ndarray
    wavefunctions: np.ndarray | None
    hbar: float


def kinetic_coupling(params: ActionParams, spacing: float) -> float:
    """hbar^2 / (2 m h^2), the kinetic term's coupling of neighbouring nodes.

    Raises ValueError where it is not a finite float: a denormal mass or a
    huge hbar overflows it, and the eigensolve would fail on the inf.
    """
    try:
        kin = params.hbar**2 / (2.0 * params.mass * spacing**2)
    except (OverflowError, ZeroDivisionError):
        kin = math.inf
    if not math.isfinite(kin):
        raise ValueError(
            f"kinetic coupling hbar^2 / (2 m h^2) overflows at mass {params.mass:g}, "
            f"hbar {params.hbar:g} and spacing {spacing:g}"
        )
    return kin


def discretize(params: ActionParams, grid: SpatialGrid) -> TridiagonalOperator:
    """Dirichlet 3-point discretisation of the Hamiltonian on the grid."""
    if params.domain is Domain.HALF_LINE and grid.x_min <= 0.0:
        raise ValueError("half-line grids must start at positive x")
    x = grid.nodes()
    v = potential_value(params.potential, x)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential is singular on the grid")
    kin = kinetic_coupling(params, grid.spacing)
    diag = 2.0 * kin + v
    off = np.full(grid.n_points - 1, -kin)
    return TridiagonalOperator(diagonal=diag, off_diagonal=off, grid=grid, hbar=params.hbar)


def spectrum(
    operator: TridiagonalOperator,
    n_states: int,
    vectors: bool = True,
    t_min: float | None = None,
) -> SpectralDecomposition:
    """Lowest eigenpairs of the discretised Hamiltonian.

    Without t_min the lowest n_states are solved. With t_min only the levels
    visible at times >= t_min are: the lowest ones up to and including the
    first level whose weight exp(-(E_n - E_0) t_min / hbar) is below 2^-53,
    at most n_states of them. Keeping that first invisible level bounds the
    truncation tail at t_min by 2^-53 whenever n_states does not bind; when
    it binds, the lowest n_states are solved as without t_min.

    Every selection takes LAPACK's bisection (stebz) for the energies and
    inverse iteration (stein) for the vectors. For a selection by index that
    is scipy's own route (eigh_tridiagonal calls the same function objects),
    and the tests hold the two equal bit for bit. With
    vectors=False only the energies are computed (the same bisection at the
    same selection, so the same bits) and wavefunctions is None.
    """
    if n_states < 1 or n_states > operator.grid.n_points - 2:
        raise ValueError(f"n_states must be in [1, {operator.grid.n_points - 2}]")
    if t_min is not None and not t_min > 0.0:
        raise ValueError("t_min must be positive")
    d, e = operator.diagonal, operator.off_diagonal

    def bisect(*selection):
        # LAPACK range 1: levels in (vl, vu]; range 2: 1-based indices il..iu
        m, w, iblock, isplit, info = dstebz(d, e, *selection, 0.0, "B")
        if info != 0:
            raise np.linalg.LinAlgError(f"stebz failed with info {info}")
        return w[:m], iblock[:m], isplit

    if t_min is None:
        w, iblock, isplit = bisect(2, 0.0, 0.0, 1, n_states)
    else:
        w, iblock, isplit = _visible_levels(
            bisect, n_states, VISIBLE_EFOLDS * operator.hbar / t_min
        )
    if not vectors:
        return SpectralDecomposition(operator.grid, np.sort(w), None, operator.hbar)
    order = np.lexsort((w, iblock))  # stein takes the levels in block order
    w = w[order]
    blocks = np.zeros(len(d), dtype=iblock.dtype)
    blocks[: len(w)] = iblock[order]
    v, info = dstein(d, e, w, blocks, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"stein: {info} eigenvectors failed to converge")
    order = np.argsort(w)
    states = v[:, order]
    states /= math.sqrt(operator.grid.spacing)  # in place: at most two copies of the vectors
    return SpectralDecomposition(operator.grid, w[order], states, operator.hbar)


def _visible_levels(bisect, cap: int, width: float):
    """The levels spectrum keeps at t_min, as (energies, blocks, splits) of bisect.

    width is VISIBLE_EFOLDS hbar / t_min. When the cap binds, the lowest cap
    levels; otherwise one bisection over the levels within width of the
    ground level, plus one for the first level past them.
    """

    def level(index):
        w, iblock, _ = bisect(2, 0.0, 0.0, index + 1, index + 1)
        return w[0], iblock[0]

    ground, _ = level(0)
    top = ground + width
    if level(cap - 1)[0] <= top:
        return bisect(2, 0.0, 0.0, 1, cap)
    # every level in (-inf, top]; stebz clips -inf to its Gershgorin bound
    w, iblock, isplit = bisect(1, -np.inf, top, 0, 0)
    # the cap's own bisection and the count at top can disagree within the
    # bisection tolerance of top
    w, iblock = w[:cap], iblock[:cap]
    if len(w) < cap:
        first_past, block = level(len(w))
        w, iblock = np.append(w, first_past), np.append(iblock, block)
    return w, iblock, isplit


def solve_spectrum(
    params: ActionParams,
    grid: SpatialGrid,
    n_states: int,
    vectors: bool = True,
    t_min: float | None = None,
) -> SpectralDecomposition:
    """Convenience wrapper combining discretize and spectrum."""
    return spectrum(discretize(params, grid), n_states, vectors, t_min)


def refine_energies(
    coarse: SpectralDecomposition, fine: SpectralDecomposition
) -> SpectralDecomposition:
    """Richardson-extrapolate energies from a spacing pair h, h/2.

    Returns the fine decomposition with energies (4 E_fine - E_coarse) / 3,
    accurate to fourth order in the fine spacing. Only the coarse energies
    are read, so the coarse partner can be an energies-only decomposition.
    """
    if not math.isclose(coarse.grid.spacing, 2.0 * fine.grid.spacing, rel_tol=1e-9):
        raise ValueError("refine_energies needs spacings in ratio 2:1")
    n = min(len(coarse.energies), len(fine.energies))
    improved = (4.0 * fine.energies[:n] - coarse.energies[:n]) / 3.0
    states = None if fine.wavefunctions is None else fine.wavefunctions[:, :n]
    return dataclasses.replace(fine, energies=improved, wavefunctions=states)


def _interpolate_states(dec: SpectralDecomposition, points) -> np.ndarray:
    """Cubic 4-point Lagrange interpolation of every eigenvector at each point.

    The level axis follows the axes of points.
    """
    g = dec.grid
    h = g.spacing
    points = np.asarray(points, dtype=float)
    rows = []
    for point in map(float, points.flat):
        if not (g.x_min <= point <= g.x_max):
            raise ValueError(f"point {point} outside the oracle grid [{g.x_min}, {g.x_max}]")
        idx = int(math.floor((point - g.x_min) / h))
        i0 = min(max(idx - 1, 0), g.n_points - 4)
        ts = g.x_min + (i0 + np.arange(4)) * h
        w = np.ones(4)
        for i in range(4):
            for j in range(4):
                if i != j:
                    w[i] *= (point - ts[j]) / (ts[i] - ts[j])
        rows.append(w @ dec.wavefunctions[i0 : i0 + 4, :])
    return np.reshape(rows, points.shape + dec.wavefunctions.shape[1:])


def amplitude(dec: SpectralDecomposition, a, b, time: float):
    """Spectral-sum amplitude G(b, time; a).

    a and b may be arrays, broadcast against each other, at one time; scalar
    endpoints give a float. Each entry is the same pairwise sum over the
    levels whatever the shape of the call, so it keeps its bits.

    Requires the retained states to cover the requested time: the truncation
    tail exp(-(E_last - E_0) * time / hbar) must be below 1e-12.
    """
    if not (time > 0.0):
        raise ValueError("time must be positive")
    if dec.wavefunctions is None:
        raise ValueError("amplitude needs a decomposition with wavefunctions")
    gap = float(dec.energies[-1] - dec.energies[0])
    tail = math.exp(-gap * time / dec.hbar)
    if tail > TRUNCATION_TAIL:
        needed = -math.log(TRUNCATION_TAIL) * dec.hbar / time
        raise ValueError(
            f"spectral truncation tail {tail:.2e} exceeds {TRUNCATION_TAIL:.0e}: "
            f"need E_last - E_0 >= {needed:.1f}, have {gap:.1f}; retain more states"
        )
    psi_a, psi_b = _interpolate_states(dec, a), _interpolate_states(dec, b)
    weights = np.exp(-(dec.energies - dec.energies[0]) * time / dec.hbar)
    scale = math.exp(-float(dec.energies[0]) * time / dec.hbar)
    # the level axis is last and contiguous: each entry is one pairwise sum
    values = scale * np.sum(psi_a * psi_b * weights, axis=-1)
    return float(values) if values.ndim == 0 else values
