"""Grid-diagonalisation oracle for amplitudes, independent of the closed forms.

The Hamiltonian H = -(hbar^2 / 2m) d^2/dx^2 + V(x) is discretised with the
standard 3-point Laplacian and Dirichlet ends into a tridiagonal T, whose
lowest eigenpairs assemble amplitudes from the truncated spectral sum

    G(b, T; a) = sum_n psi_n(b) psi_n(a) exp(-E_n T / hbar).

Eigenvalues converge with the square of the spacing, so a Richardson pair of
decompositions (refine_energies) upgrades the energies to fourth order when
long times demand it. Off-node endpoints are handled by local cubic
interpolation of the eigenvectors.

spectrum takes one route for every selection of levels: LAPACK bisection
(stebz, bound by qaction.lapack) brackets each level to BRACKET |T|, and a
stacked Rayleigh-quotient iteration on gtsv polishes every bracket into an
eigenpair (_polish); levels closer than GROUP brackets are polished as a
group. Against converged bisection the energies are within 0.1 ulp |T|
(7.4e-12 at spacing 2e-3, where LAPACK's default tolerance is 3-5e-11 off).
Given the smallest query time t_min, spectrum solves only the levels an
amplitude at t >= t_min can see (see VISIBLE_EFOLDS). A level's polish
depends on no other level, so a different selection moves an energy only
through its bisection value: by at most 4.3e-14 at spacing 2e-3.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .lapack import dgtsv, dstebz
from .model import ActionParams, Domain, potential_value

TRUNCATION_TAIL = 1e-12
# A level more than 53 ln 2 e-folds above the ground level weighs less than
# 2^-53 of it in the spectral sum, below the last bit of the leading term.
VISIBLE_EFOLDS = 53.0 * math.log(2.0)
_EPS = 2.0**-52
# Bisection brackets each level to BRACKET |T|, |T| the largest Gershgorin
# radius of the operator: 7.5e-3 at spacing 2e-3.
BRACKET = math.sqrt(_EPS)
# Neighbouring levels whose bisection values lie closer than GROUP brackets
# are polished as one group.
GROUP = 8.0
# A level stops once two successive solves leave ||T v - E v||_inf within
# RESIDUAL ulp |T| for its unit vector v and quotient E. One pass is not
# enough: a level still converging can meet the bound once, and its vector
# then lies 1e-9 off orthogonal. The second solve reaches the rounding floor,
# measured at up to 6.9 ulp |T| on the grids of the tests.
RESIDUAL = 32.0
# Solves a level may take before the polish gives up on it.
MAX_SOLVES = 12
# Levels per stacked gtsv call. A polish step's temporaries take about three
# times the stack: traced peaks of the propagator config (6,000 nodes) were
# 4.1 MiB at 8, 3.2 MiB at 4, and 4.3 MiB for the route before (bisection to
# ulp |T| and inverse iteration), with no measured change in time.
BLOCK = 4


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
    it binds, the lowest n_states are solved as without t_min. The rule holds
    on the energies returned.

    Bisection (stebz) brackets each level to BRACKET |T|, and the stacked
    Rayleigh-quotient iteration of _polish turns the brackets into eigenpairs.
    With vectors=False the same iteration runs, so the energies have the
    same bits, but no vector is kept and wavefunctions is None.
    """
    if n_states < 1 or n_states > operator.grid.n_points - 2:
        raise ValueError(f"n_states must be in [1, {operator.grid.n_points - 2}]")
    if t_min is not None and not t_min > 0.0:
        raise ValueError("t_min must be positive")
    d, e = operator.diagonal, operator.off_diagonal
    bracket = BRACKET * _norm(operator)

    def bisect(*selection):
        # LAPACK range 1: levels in (vl, vu]; range 2: 1-based indices il..iu
        m, w, _, _, info = dstebz(d, e, *selection, bracket, "E")
        if info != 0:
            raise np.linalg.LinAlgError(f"stebz failed with info {info}")
        return w[:m]

    if t_min is None:
        w = bisect(2, 0.0, 0.0, 1, n_states)
    else:
        # the polish moves each level, the ground level too, by at most one bracket
        width = VISIBLE_EFOLDS * operator.hbar / t_min + 2.0 * bracket
        w = _visible_levels(bisect, n_states, width)
    energies, states = _polish(operator, w, vectors)
    if t_min is not None:
        efolds = (energies - energies[0]) * t_min / operator.hbar
        keep = int(np.searchsorted(efolds, VISIBLE_EFOLDS, "right")) + 1
        energies = energies[:keep]
        states = None if states is None else states[:, :keep]
    if states is not None:
        states /= math.sqrt(operator.grid.spacing)  # in place: one array of vectors
    return SpectralDecomposition(operator.grid, energies, states, operator.hbar)


def _visible_levels(bisect, cap: int, width: float) -> np.ndarray:
    """Bisection values of the levels spectrum polishes at t_min.

    width is VISIBLE_EFOLDS hbar / t_min plus a margin for the polish. When
    the cap binds, the lowest cap levels; otherwise one bisection over the
    levels within width of the ground level, plus one for the first level
    past them.
    """

    def level(index):
        return bisect(2, 0.0, 0.0, index + 1, index + 1)

    top = level(0)[0] + width
    if level(cap - 1)[0] <= top:
        return bisect(2, 0.0, 0.0, 1, cap)
    # every level in (-inf, top]; stebz clips -inf to its Gershgorin bound
    w = bisect(1, -np.inf, top, 0, 0)[:cap]
    if len(w) < cap:
        w = np.append(w, level(len(w)))
    return w


def _norm(operator: TridiagonalOperator) -> float:
    """|T|, the largest Gershgorin radius of the operator (its infinity norm)."""
    radius = np.abs(operator.diagonal)
    radius[1:] += np.abs(operator.off_diagonal)
    radius[:-1] += np.abs(operator.off_diagonal)
    return float(np.max(radius))


def _polish(operator: TridiagonalOperator, w: np.ndarray, vectors: bool):
    """Eigenpairs from the ascending bisection values w, by Rayleigh-quotient iteration.

    Returns the energies and, with vectors, the unit eigenvectors as the
    columns of an N x k array (else None). Levels run BLOCK at a time in one
    gtsv call, stacked with zero couplings, each from the fixed vectors of
    _starts. A level's shift stays at its bisection value until its Rayleigh
    quotient lies inside its bracket, w +- BRACKET |T|, and then follows the
    quotient. It stops on its own residuals (see RESIDUAL) and leaves the
    stack, so its bits do not depend on its stack-mates; its energy is its
    last quotient. Levels within GROUP brackets of each other share one
    bracket, are orthonormalised and rotated onto their Ritz vectors after
    each solve, and leave the stack together. A level that leaves its
    bracket, or has not stopped after MAX_SOLVES solves, raises LinAlgError.
    """
    d, e = operator.diagonal, operator.off_diagonal
    n, k = len(d), len(w)
    norm = _norm(operator)
    bracket = BRACKET * norm
    # the quotient's weights: d_i + e_{i-1} + e_i
    weights = d.copy()
    weights[1:] += e
    weights[:-1] += e
    tol = RESIDUAL * _EPS * norm
    cuts = np.flatnonzero(np.diff(w) >= GROUP * bracket) + 1
    groups = list(zip(np.r_[0, cuts].tolist(), np.r_[cuts, k].tolist()))
    size, lo, hi = np.ones(k, dtype=int), np.empty(k), np.empty(k)
    for a, b in groups:
        size[a], lo[a:b], hi[a:b] = b - a, w[a:b].min() - bracket, w[a:b].max() + bracket
    shift, entered = w.copy(), np.zeros(k, dtype=bool)
    solves, passes = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    energies = np.empty(k)
    states = np.empty((n, k)) if vectors else None
    live, stack = np.empty(0, dtype=int), np.empty((0, n))
    groups.reverse()
    while groups or len(live):
        while groups and len(live) < BLOCK:
            a, b = groups.pop()
            live = np.append(live, np.arange(a, b))
            stack = np.concatenate((stack, _starts(n, b - a)))
        _shifted_solve(d, e, shift[live], stack)
        _normalise(stack)
        # the first rows of groups; size is 1 on every other row
        teams = [slice(r, r + size[live[r]]) for r in np.flatnonzero(size[live] > 1)]
        for members in teams:
            _rotate_to_ritz_vectors(stack[members], weights, e)
        quotient, residual = _quotients_and_residuals(stack, d, e, weights)
        solves[live] += 1
        inside = (lo[live] <= quotient) & (quotient <= hi[live])
        passed = residual <= tol
        lost = ~inside & (entered[live] | passed)
        if lost.any():
            raise np.linalg.LinAlgError(
                f"level {live[lost][0]} left its bracket in the eigenvector polish"
            )
        entered[live] |= inside
        shift[live] = np.where(entered[live], quotient, shift[live])
        passes[live] = np.where(passed, passes[live] + 1, 0)
        done = passes[live] >= 2
        for members in teams:  # a group leaves whole
            done[members] = done[members].all()
        if np.any(solves[live[~done]] >= MAX_SOLVES):
            raise np.linalg.LinAlgError(
                f"eigenvector polish: a level did not converge in {MAX_SOLVES} solves"
            )
        energies[live[done]] = quotient[done]
        if vectors and done.any():
            out = stack[done]
            peaks = np.take_along_axis(out, np.abs(out).argmax(axis=1)[:, None], axis=1)
            states[:, live[done]] = (out * np.sign(peaks)).T  # largest component positive
        live, stack = live[~done], stack[~done]
    return energies, states


def _starts(n: int, count: int) -> np.ndarray:
    """Start vectors of a group of count levels, one per row.

    A ramp, which has both parities on a symmetric grid (a constant misses
    every odd state), then cosines of rising frequency, which differ from
    it in every pair of a group.
    """
    t = np.arange(n) / n
    out = np.empty((count, n))
    out[0] = 1.0 + t
    for j in range(1, count):
        out[j] = np.cos(j * math.pi * t)
    return out


def _shifted_solve(d, e, shifts, stack):
    """Solve (T - shifts[r]) y_r = stack[r] for every row r, in place in stack.

    One gtsv call takes the rows stacked with zero couplings, so each meets
    only the eliminations of its own solve. A zero pivot raises LinAlgError.
    """
    m, n = stack.shape
    bands = np.empty((2, m, n))
    bands[:, :, :-1] = e
    bands[:, :, -1] = 0.0
    bands = bands.reshape(2, -1)[:, :-1]
    diag = np.subtract(d, shifts[:, None]).reshape(-1)
    info = dgtsv(bands[0], diag, bands[1], stack.reshape(-1), 1, 1, 1, 1)[-1]
    if info != 0:
        raise np.linalg.LinAlgError(f"eigenvector polish: gtsv failed with info {info}")


def _normalise(stack: np.ndarray):
    """Scale every row of stack to unit length, in place."""
    work = np.abs(stack)
    stack /= work.max(axis=1)[:, None]  # the squares cannot overflow
    np.multiply(stack, stack, out=work)
    stack /= np.sqrt(work.sum(axis=1))[:, None]


def _quotients_and_residuals(stack, d, e, weights):
    """Rayleigh quotients q and residuals ||T v - q v||_inf of the unit rows v of stack.

    The quotient is sum_i (d_i + e_{i-1} + e_i) v_i^2 - sum_i e_i (v_i - v_{i+1})^2,
    whose terms do not cancel at the scale of |T| (weights holds the first
    factor). Every row is reduced on its own, so its results do not depend
    on the other rows.
    """
    work = np.multiply(stack, stack)
    work *= weights
    quotients = work.sum(axis=1)
    steps = np.subtract(stack[:, 1:], stack[:, :-1], out=work[:, 1:])
    steps *= steps
    steps *= e
    quotients -= steps.sum(axis=1)
    np.subtract(d, quotients[:, None], out=work)
    work *= stack
    coupled = np.multiply(stack[:, :-1], e)
    work[:, 1:] += coupled
    np.multiply(stack[:, 1:], e, out=coupled)
    work[:, :-1] += coupled
    return quotients, np.abs(work, out=work).max(axis=1)


def _rotate_to_ritz_vectors(group: np.ndarray, weights: np.ndarray, e: np.ndarray):
    """Turn the rows of group into the Ritz vectors of T in their span, in place.

    The rows are orthonormalised by Gram-Schmidt, twice over, the projected
    matrix is formed from the quotient's cancellation-free terms, and the
    Ritz vectors come by ascending Ritz value.
    """
    for i in range(len(group)):
        for _ in range(2):
            group[i] -= (group[:i] @ group[i]) @ group[:i]
        group[i] /= math.sqrt(group[i] @ group[i])
    steps = np.diff(group, axis=1)
    projected = (group * weights) @ group.T - (steps * e) @ steps.T
    group[:] = np.linalg.eigh(projected)[1].T @ group


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


def amplitude(dec: SpectralDecomposition, a, b, time: float, resolution: bool = False):
    """Spectral-sum amplitude G(b, time; a).

    a and b may be arrays, broadcast against each other, at one time; scalar
    endpoints give a float. Each entry is the same pairwise sum over the
    levels whatever the shape of the call, so it keeps its bits.

    With resolution=True the result is the pair (G, S) with
    S = exp(-E_0 time / hbar) sum_n |psi_n(a) psi_n(b) w_n|, the size of the
    terms that G sums, from the same products: where G is a small multiple
    of eps S, its value is rounding noise.

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
    terms = psi_a * psi_b * weights
    values = scale * np.sum(terms, axis=-1)
    values = float(values) if values.ndim == 0 else values
    if not resolution:
        return values
    sizes = scale * np.sum(np.abs(terms, out=terms), axis=-1)
    return values, float(sizes) if sizes.ndim == 0 else sizes
