"""Optimal transport between finite distributions.

The discrete solver is exact: it hands the transportation LP to the
HiGHS dual simplex (a vertex-following method, deterministic for a
fixed problem), never an entropic approximation. The m x n problem's
equality matrix is built directly in CSC form, two entries per column
(one for the last target symbol, whose redundant constraint is
dropped), so the memory it takes grows as m * n, not as (m + n) * m * n.
Zero-mass symbols are dropped before the solve and reinserted afterwards
so degenerate marginals are fine.

HiGHS is called through scipy's own binding (`scipy.optimize._highspy`)
with the options `linprog(method="highs-ds")` would set, presolve off,
and the result is checked the way `linprog` checks it. `linprog` itself
is not used: its input handling and result packing cost more than the
solve on small problems. A minimum-cost flow on a graph (`_flow_lp`,
the exact simulator's block correction) goes through the same call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as highspy

from .info import CapExceeded, Pmf

OT_SIDE_CAP = 4096

# couplings must reproduce their marginals at least this well
MARGINAL_SLACK = 1e-9

# transport costs within this of each other count as equal
COST_SLACK = 1e-12

# linprog's post-solve tolerance on bounds and residuals, 10 * sqrt(1e-9)
PLAN_TOL = 10.0 * np.sqrt(1e-9)


@dataclass(frozen=True)
class TransportProblem:
    source: Pmf
    target: Pmf
    costs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.costs, dtype=float)
        if arr.shape != (self.source.size, self.target.size):
            raise ValueError("cost matrix shape does not match the marginals")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("costs must be finite and >= 0")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "costs", arr)


@dataclass(frozen=True)
class Coupling:
    """Joint table whose marginals match a transport problem's."""

    table: np.ndarray
    cost: float

    def source_marginal(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def target_marginal(self) -> np.ndarray:
        return self.table.sum(axis=0)

    def conditional_rows(self) -> np.ndarray:
        """Rows P(y | x); zero-mass rows fall back to the target marginal,
        or to the uniform law when the table has no mass."""
        target = self.target_marginal()
        total = target.sum()
        return _rows(self.table,
                     target / total if total > 0 else 1.0 / target.size)


def _rows(joint: np.ndarray, fallback: np.ndarray | float) -> np.ndarray:
    """Conditional rows of a table; massless rows fall back."""
    mass = joint.sum(axis=1, keepdims=True)
    return np.where(mass > 0.0, joint / np.where(mass > 0.0, mass, 1.0),
                    fallback)


# linprog(method="highs-ds")'s options, with presolve off: HiGHS
# presolve calls some feasible problems with symbols lighter than about
# 1e-8 infeasible
_HIGHS_OPTIONS = (
    ("presolve", "off"),
    ("solver", "simplex"),
    ("simplex_strategy",
     int(highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
    ("highs_debug_level", int(highspy.HighsDebugLevel.kHighsDebugLevelNone)),
    ("output_flag", False),
    ("log_to_console", False),
)


def _highs() -> highspy._Highs:
    """A HiGHS instance with _HIGHS_OPTIONS set, one by one: building a
    HighsOptions to pass costs more than a small solve's setup."""
    solver = highspy._Highs()
    for name, value in _HIGHS_OPTIONS:
        solver.setOptionValue(name, value)
    return solver


def _check_plan(x: np.ndarray, matrix: tuple[np.ndarray, ...],
                b_eq: np.ndarray) -> None:
    """Raise RuntimeError unless the LP solution x is >= -PLAN_TOL and
    meets A x = b_eq within PLAN_TOL, A given in CSC form by matrix =
    (start, index, value). Every comparison is written to fail on NaN."""
    start, index, value = matrix
    residual = np.bincount(index, weights=value * np.repeat(x, np.diff(start)),
                           minlength=b_eq.size) - b_eq
    if not (np.all(x >= -PLAN_TOL) and np.all(np.abs(residual) <= PLAN_TOL)):
        raise RuntimeError("transport LP failed: the solution does not "
                           f"meet the constraints within {PLAN_TOL:.2e}")


def _solve_lp(costs: np.ndarray, matrix: tuple[np.ndarray, ...],
              b_eq: np.ndarray) -> np.ndarray:
    """The x >= 0 of least cost costs @ x with A x = b_eq, A given in
    CSC form by matrix = (start, index, value), from the HiGHS dual
    simplex with _HIGHS_OPTIONS, clipped at 0. RuntimeError names the
    HiGHS status unless it is optimal, or says that x failed
    _check_plan, linprog's post-solve check."""
    start, index, value = matrix
    solver = _highs()
    # the array form of passModel, whose last array marks every column
    # continuous: filling a HighsLp copies each array element by element
    solver.passModel(costs.size, b_eq.size, index.size,
                     int(highspy.MatrixFormat.kColwise),
                     int(highspy.ObjSense.kMinimize), 0.0, costs,
                     np.zeros(costs.size), np.full(costs.size, highspy.kHighsInf),
                     b_eq, b_eq, start, index, value,
                     np.zeros(costs.size, dtype=np.int32))
    solver.run()
    status = solver.getModelStatus()
    if status != highspy.HighsModelStatus.kOptimal:
        raise RuntimeError(
            f"transport LP failed: {solver.modelStatusToString(status)}")
    x = np.array(solver.getSolution().col_value)
    _check_plan(x, matrix, b_eq)
    return np.clip(x, 0.0, None)


def _transport_matrix(m: int, n: int) -> tuple[np.ndarray, ...]:
    """CSC (start, index, value) of the m x n transport LP's equality
    matrix: the row sums, then the column sums but the last, which is
    redundant given the rest and is dropped for rank. Column i*n + j
    holds row i and, when j < n - 1, row m + j, so column c starts at
    entry 2c - c // n."""
    rows = np.empty((m, n, 2), dtype=np.int32)
    rows[:, :, 0] = np.arange(m)[:, None]
    rows[:, :, 1] = m + np.arange(n)
    keep = np.ones((m, n, 2), dtype=bool)
    keep[:, n - 1, 1] = False
    starts = np.arange(m * n + 1, dtype=np.int32)
    return 2 * starts - starts // n, rows[keep], np.ones(m * (2 * n - 1))


def _transport_lp(mu: np.ndarray, nu: np.ndarray, costs: np.ndarray) -> np.ndarray:
    m, n = costs.shape
    plan = _solve_lp(costs.ravel(), _transport_matrix(m, n),
                     np.concatenate([mu, nu[:-1]]))
    return plan.reshape(m, n)


def _flow_lp(matrix: tuple[np.ndarray, ...], costs: np.ndarray,
             supply: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """The arc flows of least cost that carry supply to demand on a
    connected graph: at every node, out-flow minus in-flow is supply
    minus demand. matrix is the CSC (start, index, value) of the
    graph's node-arc matrix, +1 at an arc's tail and -1 at its head,
    without its last row, which is redundant given the rest. When the
    arc costs make the graph's shortest paths a metric, the least cost
    is the transport minimum under that metric (the W1 distance of the
    two laws)."""
    return _solve_lp(costs, matrix, (supply - demand)[:-1])


def repair_marginals(table: np.ndarray, row_target: np.ndarray,
                     col_target: np.ndarray) -> np.ndarray:
    """Nudge a near-coupling onto its marginals to machine precision.

    Rows first: each row is rescaled onto row_target (a massless row
    with positive target takes the shape of col_target, a zero-target
    row is zeroed). Then one proportional transfer, the rounding step of
    Altschuler, Weed & Rigollet 2017: every column over its target by
    more than 1e-15 gives up the fraction it overshoots, and the row
    masses so taken go to the columns under their targets by more than
    1e-15 in proportion to their deficits. Row sums are untouched by the
    transfer, so both marginals end exact up to float rounding, and a
    table whose columns already match within 1e-15 comes back as
    rescaled. No BLAS call is made, so the bits follow numpy alone.
    """
    t = np.maximum(np.asarray(table, dtype=float), 0.0)
    sums = t.sum(axis=1)
    t *= (row_target / np.where(sums > 0.0, sums, 1.0))[:, None]
    massless = (sums <= 0.0) & (row_target > 0.0)
    if massless.any():
        t[massless] = row_target[massless, None] * col_target / col_target.sum()
    col = t.sum(axis=0)
    err = col_target - col
    over, short = err < -1e-15, np.where(err > 1e-15, err, 0.0)
    if over.any() and short.any():
        taken = t[:, over] * (-err[over] / col[over])
        t[:, over] -= taken
        t += np.multiply.outer(taken.sum(axis=1), short / short.sum())
    return t


def solve_ot(problem: TransportProblem) -> Coupling:
    """Exact minimum-cost coupling of the two marginals.

    Raises CapExceeded when either side is larger than OT_SIDE_CAP
    (4096). The LP goes straight to the HiGHS dual simplex through
    scipy's binding, with linprog's "highs-ds" options and presolve off,
    because linprog's wrapper cost more than the solve; the plan is the
    one linprog would return, bit for bit. RuntimeError means HiGHS
    found no optimum or its solution failed linprog's post-solve check.
    HiGHS meets the marginals only to its own feasibility
    tolerance (about 1e-7 on large problems), so repair_marginals snaps
    the plan onto them by one proportional transfer; a plan further
    than MARGINAL_SLACK (1e-9) from them after that is a RuntimeError.
    """
    mu = problem.source.probs
    nu = problem.target.probs
    if mu.size > OT_SIDE_CAP or nu.size > OT_SIDE_CAP:
        raise CapExceeded(f"alphabet sides {mu.size}x{nu.size} "
                          f"exceed cap {OT_SIDE_CAP}")
    su = np.flatnonzero(mu > 0.0)
    sv = np.flatnonzero(nu > 0.0)
    plan_s = _transport_lp(mu[su], nu[sv], problem.costs[np.ix_(su, sv)])
    plan = np.zeros_like(problem.costs)
    plan[np.ix_(su, sv)] = repair_marginals(plan_s, mu[su], nu[sv])
    cost = float((plan * problem.costs).sum())
    coupling = Coupling(plan, cost)
    if (np.max(np.abs(coupling.source_marginal() - mu)) > MARGINAL_SLACK
            or np.max(np.abs(coupling.target_marginal() - nu)) > MARGINAL_SLACK):
        raise RuntimeError("transport plan does not reproduce the marginals")
    return coupling


def _residual_weights(plan: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Edge costs of a plan's residual graph, inf where there is no edge.
    Nodes are rows 0..m-1 and columns m..m+n-1: any cell may gain mass
    (row to column, +cost), a cell in use may lose it (column to row,
    -cost)."""
    m, n = costs.shape
    w = np.full((m + n, m + n), np.inf)
    w[:m, m:] = costs
    w[m:, :m] = np.where(plan.T > 0.0, -costs.T, np.inf)
    return w


def _negative_cycle(w: np.ndarray) -> list[int] | None:
    """Nodes of a negative cycle of the graph with edge costs w (inf for
    no edge), listed against the edge direction, or None if there is
    none; Bellman-Ford from a virtual source."""
    size = w.shape[0]
    dist = np.zeros(size)
    pred = np.full(size, -1)
    for _ in range(size):
        cand = dist[:, None] + w
        src = cand.argmin(axis=0)
        best = cand[src, np.arange(size)]
        moved = best < dist - COST_SLACK
        if not moved.any():
            return None
        dist = np.where(moved, best, dist)
        pred = np.where(moved, src, pred)
    # still improving after size rounds: walking back size steps lands
    # on a cycle of the predecessor links, and that cycle is negative
    node = int(np.flatnonzero(moved)[0])
    for _ in range(size):
        node = int(pred[node])
    cycle = [node]
    while pred[cycle[-1]] != node:
        cycle.append(int(pred[cycle[-1]]))
    return cycle


def optimal_face(plan: np.ndarray,
                 costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The face of minimum-cost couplings, read off one coupling.

    plan must reproduce positive marginals and have minimum cost up to
    traces of mass on other cells, as the plans of solve_ot can when a
    symbol is lighter than the HiGHS tolerance. Mass is pushed around
    negative cycles of the residual graph until none is left. A cell is
    then used by some minimum-cost coupling iff it lies on a zero-cost
    cycle; shortest paths come from Floyd-Warshall. Zero reduced cost
    under some dual solution is not enough: the duals of a degenerate
    vertex can price unused cells at zero.

    Returns the cleaned plan and the mask of those cells.
    """
    m = costs.shape[0]
    plan = plan.copy()
    while (cycle := _negative_cycle(_residual_weights(plan, costs))):
        # cycle holds each edge's head before its tail; an edge from row
        # i to column j adds mass to cell (i, j), one from column j to
        # row i takes it away
        steps = list(zip(cycle[1:] + cycle[:1], cycle))
        gain = [(a, b - m) for a, b in steps if a < m]
        lose = [(b, a - m) for a, b in steps if a >= m]
        amounts = [plan[cell] for cell in lose]
        k = int(np.argmin(amounts))
        for cell in gain:
            plan[cell] += amounts[k]
        for cell in lose:
            plan[cell] -= amounts[k]
        plan[lose[k]] = 0.0
    dist = _residual_weights(plan, costs)
    np.fill_diagonal(dist, 0.0)
    for k in range(dist.shape[0]):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return plan, costs + dist[m:, :m].T <= COST_SLACK
