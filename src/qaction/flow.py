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
Runge-Kutta step advances the parameters. Each stage starts its paths from
the linear extrapolation in beta of the paths the last two stages solved
(PathHistory).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import ActionParams, potential_value, write_csv
from .trajectory import Paths, SolverError, TimeGrid, path_sensitivities, solve_paths

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
        if len(set(pts)) != len(pts):
            raise ValueError("final points must be distinct")
        n_unknowns = 2 + len(self.params.potential.coefficients)
        if len(pts) < n_unknowns + 2:
            raise ValueError(
                f"need at least {n_unknowns + 2} final points for {n_unknowns} unknowns"
            )
        object.__setattr__(self, "final_points", pts)

    def exponents(self) -> list[int]:
        return self.params.potential.exponents()


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
    rejected_steps: int = 0  # step attempts retried at half the step size
    path_solves: int = 0  # paths solved by the stages that succeeded
    newton_iterations: int = 0  # their Newton iterations
    line_search_halvings: int = 0  # their line-search step halvings


class PathHistory:
    """Warm starts of a flow's paths from the stages it has solved, and its solver counts.

    It keeps the Paths of the last two successful stages at distinct betas,
    x_prev at beta_prev and x_last at beta_last. A stage at beta starts from

        x_last + (beta - beta_last) / (beta_last - beta_prev) * (x_last - x_prev),

    index by index, or from x_last itself, which solve_paths only reads, at
    beta_last or while one stage is kept. A failed stage leaves it as it was.
    """

    def __init__(self):
        self.prev: Paths | None = None
        self.last: Paths | None = None
        self.path_solves = 0
        self.newton_iterations = 0
        self.line_search_halvings = 0

    def starts(self, beta: float) -> np.ndarray | None:
        """The start positions of every path at beta, or None before the first stage."""
        if self.last is None:
            return None
        x_last, beta_last = self.last.positions, self.last.grid.duration
        if self.prev is None or beta == beta_last:
            return x_last
        ratio = (beta - beta_last) / (beta_last - self.prev.grid.duration)
        return x_last + ratio * (x_last - self.prev.positions)

    def record(self, paths: Paths) -> None:
        """Keep the paths of a successful stage and count their solves."""
        if self.last is not None and paths.grid.duration != self.last.grid.duration:
            self.prev = self.last
        self.last = paths
        self.path_solves += len(paths)
        self.newton_iterations += int(paths.iterations.sum())
        self.line_search_halvings += int(paths.line_search_halvings.sum())


def assemble_system(
    state: FlowState,
    classical: ActionParams,
    intervals: int,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, Paths]:
    """Rows of the flow system at every final point, and the paths behind them.

    Every path is solved on `intervals` intervals over [0, state.beta], from
    row j of `start` for final point j (see solve_paths).
    """
    if classical.hbar != state.params.hbar:
        raise ValueError("classical and quantum actions must share hbar")
    exponents = state.exponents()
    a_mat = np.empty((len(state.final_points), 2 + len(exponents)))
    hbar = classical.hbar
    x_i = state.initial_point
    grid = TimeGrid(state.beta, intervals=intervals)
    paths = solve_paths(state.params, [(x_i, x_f) for x_f in state.final_points], grid, start)
    sens = path_sensitivities(state.params, paths)
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
    return a_mat, rhs, paths


def solve_rates(a_mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, StepDiagnostics]:
    """Minimum-norm least-squares rates plus rank/condition diagnostics.

    Minimum norm keeps all unknowns and resolves the ln Z~ / v~_0 degeneracy.
    The beta and dbeta fields of the diagnostics are filled by the caller.
    """
    rates, residual, rank, svals = np.linalg.lstsq(a_mat, rhs, rcond=None)
    fitted = a_mat @ rates
    res_norm = float(np.max(np.abs(fitted - rhs)))
    deficiency = a_mat.shape[1] - rank
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


class StepRejected(SolverError):
    """Raised when a flow stage cannot advance.

    Either its assembled system is too ill-conditioned (beyond
    CONDITION_LIMIT), or its mass has left the positive domain.
    """


def _rates_for(
    state: FlowState,
    classical: ActionParams,
    beta: float,
    vector: np.ndarray,
    intervals: int,
    history: PathHistory,
) -> tuple[np.ndarray, StepDiagnostics]:
    """Rates of one stage, solved from the starts of history; a stage that succeeds enters it."""
    trial = _state_at(state, beta, vector)
    a_mat, rhs, paths = assemble_system(trial, classical, intervals, history.starts(beta))
    rates, diag = solve_rates(a_mat, rhs)
    if diag.condition > CONDITION_LIMIT:
        raise StepRejected(
            f"condition {diag.condition:.2e} beyond {CONDITION_LIMIT:.0e} at beta={beta:.4f}"
        )
    history.record(paths)
    return rates, diag


def _vector_of(state: FlowState) -> np.ndarray:
    """[ln Z~, m~, v~_k by ascending k] of state, the flow's unknowns."""
    return np.array([state.log_norm] + state.params.values(state.exponents()))


def _state_at(state: FlowState, beta: float, vector: np.ndarray) -> FlowState:
    """state's points at beta with the unknowns of vector (see _vector_of)."""
    if vector[1] <= 0.0:
        raise StepRejected(f"mass left the positive domain: {vector[1]}")
    params = state.params.with_values(vector[1:], state.exponents())
    return dataclasses.replace(state, beta=beta, params=params, log_norm=float(vector[0]))


def step(
    state: FlowState,
    classical: ActionParams,
    dbeta: float,
    intervals: int,
    history: PathHistory | None = None,
) -> tuple[FlowState, StepDiagnostics]:
    """One classical Runge-Kutta step of the parameter flow.

    Every trajectory is solved on `intervals` intervals at every beta: a
    beta-independent count keeps the discretisation error a smooth function
    of beta, which the fourth-order step error needs. Each stage starts from
    `history` and, when it succeeds, enters it.
    """
    history = history if history is not None else PathHistory()
    u0 = _vector_of(state)
    b0 = state.beta
    k1, diag = _rates_for(state, classical, b0, u0, intervals, history)
    mid = b0 + 0.5 * dbeta
    k2, _ = _rates_for(state, classical, mid, u0 + 0.5 * dbeta * k1, intervals, history)
    k3, _ = _rates_for(state, classical, mid, u0 + 0.5 * dbeta * k2, intervals, history)
    k4, _ = _rates_for(state, classical, b0 + dbeta, u0 + dbeta * k3, intervals, history)
    u1 = u0 + dbeta / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _state_at(state, b0 + dbeta, u1), dataclasses.replace(diag, beta=b0, dbeta=dbeta)


def run(
    initial: FlowState,
    classical: ActionParams,
    beta_end: float,
    dbeta: float = DEFAULT_DBETA,
    *,
    intervals: int,
    record_stride: int,
) -> FlowTrace:
    """March the flow from initial.beta to beta_end with rejection control.

    A step that raises SolverError (StepRejected among them) is retried with
    halved dbeta (up to MAX_HALVINGS), and the trace counts these retries in
    rejected_steps; the nominal dbeta is restored after each accepted step. A
    step that would leave beta unchanged, halved or not, raises SolverError.
    States are recorded every record_stride accepted steps, always including
    the first and last. One PathHistory serves every stage of the run, and
    the trace takes its solver counts.
    """
    if not dbeta > 0.0:
        raise ValueError(f"dbeta must be positive, got {dbeta}")
    if beta_end < initial.beta - 1e-12:
        raise ValueError("beta_end must not precede the initial beta")
    if beta_end <= initial.beta + 1e-12:
        return FlowTrace(states=[initial], diagnostics=[])
    history = PathHistory()
    states = [initial]
    diags: list[StepDiagnostics] = []
    state = initial
    accepted = rejected = 0
    while state.beta < beta_end - 1e-12:
        step_size = min(dbeta, beta_end - state.beta)
        halvings = 0
        while True:
            if state.beta + step_size == state.beta:
                raise SolverError(f"flow step {step_size:g} leaves beta={state.beta:.4f} unchanged")
            try:
                new_state, diag = step(state, classical, step_size, intervals, history)
                break
            except SolverError:
                rejected += 1
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
    return FlowTrace(
        states=states,
        diagnostics=diags,
        rejected_steps=rejected,
        path_solves=history.path_solves,
        newton_iterations=history.newton_iterations,
        line_search_halvings=history.line_search_halvings,
    )


def write_trace_csv(trace: FlowTrace, path, header_comment: str):
    """One row per recorded state with the step diagnostics alongside."""
    exponents = trace.states[0].exponents()
    cols = ["beta", "mass"] + [f"v_{k}" for k in exponents] + [
        "log_norm",
        "residual_norm",
        "condition",
        "rank",
        "deficiency",
    ]
    rows = []
    for i, st in enumerate(trace.states):
        if i == 0:
            res, cond, rank, defi = math.nan, math.nan, -1, -1
        else:
            d = trace.diagnostics[i - 1]
            res, cond, rank, defi = d.residual_norm, d.condition, d.rank, d.deficiency
        rows.append([st.beta] + st.params.values(exponents) + [st.log_norm, res, cond, rank, defi])
    write_csv(path, cols, rows, header_comment)
