"""Flow of quantum-action parameters in the inverse temperature.

At each beta the amplitude G = Z~ exp(-Sigma~) must satisfy the Euclidean
evolution equation of the classical model. Writing that condition at a set of
final points x_f^j (fixed initial point) gives one linear equation per point
for the unknown rates (d ln Z~/d beta, d m~/d beta, d v~_k/d beta):

    [-1, dSigma/dm~, dSigma/dv~_k] . rates
        = -dSigma/dbeta - (hbar^2 / 2m) [(dSigma/dx)^2 - d^2Sigma/dx^2] + V(x_f)

with the classical mass and potential on the right. The overdetermined system
is solved in the minimum-norm least-squares sense; when the ansatz contains a
constant term the ln Z~ and v~_0 columns are exactly parallel, a rank-1
degeneracy that is detected and reported, leaving the invariant combination
-d ln Z~/d beta + beta d v~_0/d beta well defined. A classical four-stage
Runge-Kutta step advances the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ActionParams, PotentialSpec, potential_value
from .trajectory import (
    SolverError,
    TimeGrid,
    Trajectory,
    neighbour_offset,
    path_sensitivities,
    solve_paths,
)

DEFAULT_DBETA = 3.75e-3
CONDITION_LIMIT = 1e12
MAX_HALVINGS = 10


@dataclass(frozen=True)
class FlowState:
    """Parameters, normalisation and geometry of the flow at one beta."""

    beta: float
    params: ActionParams
    log_norm: float
    initial_point: float
    final_points: tuple[float, ...]

    def __post_init__(self):
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive")
        pts = tuple(float(v) for v in self.final_points)
        n_unknowns = 2 + len(self.params.potential.coefficients)
        if len(pts) < n_unknowns + 2:
            raise ValueError(
                f"need at least {n_unknowns + 2} final points for {n_unknowns} unknowns"
            )
        object.__setattr__(self, "final_points", pts)

    def exponents(self) -> list[int]:
        return sorted(self.params.potential.coefficients)


@dataclass(frozen=True)
class StepDiagnostics:
    beta: float
    dbeta: float
    residual_norm: float
    condition: float
    rank: int
    deficiency: int


@dataclass
class FlowTrace:
    states: list[FlowState]
    diagnostics: list[StepDiagnostics]


def assemble_system(
    state: FlowState,
    classical: ActionParams,
    grid: TimeGrid,
    cache: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the flow system at every final point.

    The trajectory problems are warm-started from `cache` (keyed by final
    point index and neighbour side), which assemble_system updates in place.
    """
    if classical.hbar != state.params.hbar:
        raise ValueError("classical and quantum actions must share hbar")
    exponents = state.exponents()
    cache = cache if cache is not None else {}
    a_mat = np.empty((len(state.final_points), 2 + len(exponents)))
    hbar = classical.hbar
    paths, neighbours = _solve_stage(state, grid, cache)
    sens = path_sensitivities(state.params, paths, neighbours[0::2], neighbours[1::2])
    a_mat[:, 0] = -1.0
    a_mat[:, 1] = sens.d_mass
    for col, k in enumerate(exponents):
        a_mat[:, 2 + col] = sens.d_coeff[k]
    # a float squared goes through libm pow, which differs in the last bit
    # from the array square (a product) for about 0.1% of inputs; square each
    # point's d_x as a float so the rows keep their bits
    d_x_squared = np.array([float(d_x) ** 2 for d_x in sens.d_x])
    rhs = (
        -sens.d_time
        - hbar**2 / (2.0 * classical.mass) * (d_x_squared - sens.d_xx)
        + potential_value(classical.potential, np.array(state.final_points))
    )
    return a_mat, rhs


def _solve_stage(
    state: FlowState, grid: TimeGrid, cache: dict
) -> tuple[list[Trajectory], list[Trajectory]]:
    """Paths to every final point, then their -/+ offset neighbours, as two batches.

    Leaves `cache` as the point-by-point loop (path, lower, upper for each
    final point in turn) would: on a SolverError, every trajectory that loop
    would have stored before the failure is stored, and nothing after it.
    """
    start = state.initial_point
    points = state.final_points
    paths, error = _solved_prefix(
        state.params,
        [(start, x_f) for x_f in points],
        grid,
        [cache.get((j, 0)) for j in range(len(points))],
    )
    ends, guesses = [], []
    for j, traj in enumerate(paths):
        offset = neighbour_offset(points[j])
        ends += [points[j] - offset, points[j] + offset]
        guesses += [cache.get((j, -1), traj), cache.get((j, 1), traj)]
    neighbours, neighbour_error = _solved_prefix(
        state.params, [(start, end) for end in ends], grid, guesses
    )
    complete = len(neighbours) // 2
    if neighbour_error is not None:
        # the path of the failing point was solved and stored before its neighbours
        paths, error = paths[: complete + 1], neighbour_error
    for j, traj in enumerate(paths):
        cache[(j, 0)] = traj
    for j in range(complete):
        cache[(j, -1)], cache[(j, 1)] = neighbours[2 * j], neighbours[2 * j + 1]
    if error is not None:
        raise error
    return paths, neighbours


def _solved_prefix(params, pairs, grid, guesses):
    """(trajectories solved, SolverError or None) of one solve_paths batch."""
    try:
        return solve_paths(params, pairs, grid, guesses), None
    except SolverError as exc:
        return exc.solved, exc


def solve_rates(
    a_mat: np.ndarray, rhs: np.ndarray, mode: str = "min_norm"
) -> tuple[np.ndarray, StepDiagnostics]:
    """Least-squares rates plus rank/condition diagnostics.

    mode "min_norm" keeps all unknowns and resolves the ln Z~ / v~_0
    degeneracy by minimum norm; "pin_v0" freezes v~_0 instead. The beta and
    dbeta fields of the diagnostics are filled by the caller.
    """
    n_unknowns = a_mat.shape[1]
    if mode == "pin_v0":
        # column order is [ln Z~, mass, v_k ascending]; find the v_0 column
        pinned = None
        for col in range(2, n_unknowns):
            if np.allclose(np.diff(a_mat[:, col]), 0.0, atol=1e-13):
                pinned = col
                break
        if pinned is None:
            raise ValueError("pin_v0 mode needs a constant ansatz column")
        keep = [c for c in range(n_unknowns) if c != pinned]
        sub = a_mat[:, keep]
        sol, residual, rank, svals = np.linalg.lstsq(sub, rhs, rcond=None)
        rates = np.zeros(n_unknowns)
        rates[keep] = sol
    elif mode == "min_norm":
        rates, residual, rank, svals = np.linalg.lstsq(a_mat, rhs, rcond=None)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    fitted = a_mat @ rates
    res_norm = float(np.max(np.abs(fitted - rhs)))
    deficiency = (a_mat.shape[1] if mode == "min_norm" else a_mat.shape[1] - 1) - rank
    if deficiency > 0 and len(svals) > deficiency:
        condition = float(svals[0] / svals[-1 - deficiency])
    elif len(svals) > 0:
        condition = float(svals[0] / svals[-1])
    else:
        condition = math.inf
    diag = StepDiagnostics(
        beta=math.nan,
        dbeta=math.nan,
        residual_norm=res_norm,
        condition=condition,
        rank=int(rank),
        deficiency=int(deficiency),
    )
    return rates, diag


class StepRejected(RuntimeError):
    """Raised when the assembled system is too ill-conditioned to advance."""


def _rates_for(
    state: FlowState,
    classical: ActionParams,
    beta: float,
    vector: np.ndarray,
    grid_policy,
    mode: str,
    cache: dict,
) -> tuple[np.ndarray, StepDiagnostics]:
    trial = FlowState(
        beta=beta,
        params=_params_with(state.params, vector),
        log_norm=float(vector[0]),
        initial_point=state.initial_point,
        final_points=state.final_points,
    )
    a_mat, rhs = assemble_system(trial, classical, grid_policy(beta), cache=cache)
    rates, diag = solve_rates(a_mat, rhs, mode=mode)
    if diag.condition > CONDITION_LIMIT:
        raise StepRejected(
            f"condition {diag.condition:.2e} beyond {CONDITION_LIMIT:.0e} at beta={beta:.4f}"
        )
    return rates, diag


def _params_with(params: ActionParams, vector: np.ndarray) -> ActionParams:
    exponents = sorted(params.potential.coefficients)
    if vector[1] <= 0.0:
        raise StepRejected(f"mass left the positive domain: {vector[1]}")
    return ActionParams(
        mass=float(vector[1]),
        hbar=params.hbar,
        potential=PotentialSpec({k: float(v) for k, v in zip(exponents, vector[2:])}),
        domain=params.domain,
    )


def _vector_of(state: FlowState) -> np.ndarray:
    coeffs = state.params.potential.coefficients
    return np.array(
        [state.log_norm, state.params.mass] + [coeffs[k] for k in state.exponents()]
    )


def step(
    state: FlowState,
    classical: ActionParams,
    dbeta: float,
    grid_policy,
    mode: str = "min_norm",
    cache: dict | None = None,
) -> tuple[FlowState, StepDiagnostics]:
    """One classical Runge-Kutta step of the parameter flow."""
    cache = cache if cache is not None else {}
    u0 = _vector_of(state)
    b0 = state.beta
    k1, diag = _rates_for(state, classical, b0, u0, grid_policy, mode, cache)
    k2, _ = _rates_for(
        state, classical, b0 + 0.5 * dbeta, u0 + 0.5 * dbeta * k1, grid_policy, mode, cache
    )
    k3, _ = _rates_for(
        state, classical, b0 + 0.5 * dbeta, u0 + 0.5 * dbeta * k2, grid_policy, mode, cache
    )
    k4, _ = _rates_for(
        state, classical, b0 + dbeta, u0 + dbeta * k3, grid_policy, mode, cache
    )
    u1 = u0 + dbeta / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    new_state = FlowState(
        beta=b0 + dbeta,
        params=_params_with(state.params, u1),
        log_norm=float(u1[0]),
        initial_point=state.initial_point,
        final_points=state.final_points,
    )
    diag = StepDiagnostics(
        beta=b0,
        dbeta=dbeta,
        residual_norm=diag.residual_norm,
        condition=diag.condition,
        rank=diag.rank,
        deficiency=diag.deficiency,
    )
    return new_state, diag


def default_grid_policy(intervals: int = 500):
    """Fixed interval count for every trajectory in the run.

    A beta-independent count keeps the discretisation error a smooth
    function of beta; per-beta rounding would introduce staircase jumps
    that spoil the fourth-order step error.
    """
    if intervals < 2:
        raise ValueError("need at least 2 intervals")

    def policy(beta: float) -> TimeGrid:
        return TimeGrid(beta, intervals=intervals)

    return policy


def run(
    initial: FlowState,
    classical: ActionParams,
    beta_end: float,
    dbeta: float = DEFAULT_DBETA,
    grid_policy=None,
    mode: str = "min_norm",
    record_stride: int = 1,
) -> FlowTrace:
    """March the flow from initial.beta to beta_end with rejection control.

    Ill-conditioned steps are retried with halved dbeta (up to MAX_HALVINGS);
    the nominal dbeta is restored after each accepted step. States are
    recorded every record_stride accepted steps, always including the first
    and last.
    """
    if beta_end < initial.beta - 1e-12:
        raise ValueError("beta_end must not precede the initial beta")
    if beta_end <= initial.beta + 1e-12:
        return FlowTrace(states=[initial], diagnostics=[])
    if grid_policy is None:
        grid_policy = default_grid_policy()
    cache: dict = {}
    states = [initial]
    diags: list[StepDiagnostics] = []
    state = initial
    accepted = 0
    while state.beta < beta_end - 1e-12:
        step_size = min(dbeta, beta_end - state.beta)
        halvings = 0
        while True:
            try:
                new_state, diag = step(
                    state, classical, step_size, grid_policy, mode=mode, cache=cache
                )
                break
            except (StepRejected, SolverError):
                halvings += 1
                if halvings > MAX_HALVINGS:
                    raise SolverError(
                        f"flow step at beta={state.beta:.4f} rejected "
                        f"{MAX_HALVINGS} times; aborting"
                    )
                step_size *= 0.5
        state = new_state
        accepted += 1
        if accepted % record_stride == 0:
            states.append(state)
            diags.append(diag)
    if states[-1] is not state:
        states.append(state)
        diags.append(diag)
    return FlowTrace(states=states, diagnostics=diags)


def bootstrap_state(
    fit_result, initial_point: float, final_points, log_norm: float | None = None
) -> FlowState:
    """Flow initial data from a fit result at beta = T / hbar."""
    params = fit_result.params
    return FlowState(
        beta=fit_result.time / params.hbar,
        params=params,
        log_norm=fit_result.log_norm if log_norm is None else log_norm,
        initial_point=initial_point,
        final_points=tuple(final_points),
    )


def invariant_combination(beta: float, rates: np.ndarray, exponents: list[int]) -> float:
    """Gauge-invariant mix -d ln Z~/d beta + beta d v~_0/d beta."""
    if 0 not in exponents:
        raise ValueError("combination defined only when the ansatz has a constant term")
    idx = 2 + exponents.index(0)
    return -float(rates[0]) + beta * float(rates[idx])


def write_trace_csv(trace: FlowTrace, path, header_comment: str | None = None):
    """One row per recorded state with the step diagnostics alongside."""
    exponents = trace.states[0].exponents()
    cols = ["beta", "mass"] + [f"v_{k}" for k in exponents] + [
        "log_norm",
        "residual_norm",
        "condition",
        "rank",
        "deficiency",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(cols) + "\n")
        for i, st in enumerate(trace.states):
            coeffs = st.params.potential.coefficients
            if i == 0:
                res, cond, rank, defi = math.nan, math.nan, -1, -1
            else:
                d = trace.diagnostics[i - 1]
                res, cond, rank, defi = d.residual_norm, d.condition, d.rank, d.deficiency
            row = [f"{st.beta:.17g}", f"{st.params.mass:.17g}"]
            row += [f"{coeffs[k]:.17g}" for k in exponents]
            row += [f"{st.log_norm:.17g}", f"{res:.17g}", f"{cond:.17g}", str(rank), str(defi)]
            fh.write(",".join(row) + "\n")
