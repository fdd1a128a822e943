"""Finite OT solver, optimal faces and conditional rows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from ocrate import (
    CapExceeded,
    DistortionMatrix,
    Pmf,
    total_variation,
)
from ocrate.transport import (
    PLAN_TOL,
    Coupling,
    TransportProblem,
    _HIGHS_OPTIONS,
    _check_plan,
    _highs,
    _transport_lp,
    _transport_matrix,
    optimal_face,
    repair_marginals,
    solve_ot,
)
from oracles import ot_vertex_enumeration


def _hamming(m):
    return DistortionMatrix.hamming(m).costs


def test_identical_marginals_cost_zero():
    p = Pmf(np.array([0.2, 0.5, 0.3]))
    c = solve_ot(TransportProblem(p, p, _hamming(3)))
    assert c.cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(c.table, np.diag(p.probs), atol=1e-9)


def test_two_point_example():
    c = solve_ot(TransportProblem(Pmf(np.array([0.7, 0.3])),
                                  Pmf(np.array([0.4, 0.6])),
                                  _hamming(2)))
    assert c.cost == pytest.approx(0.3, abs=1e-12)


def test_squared_index_identity():
    p = Pmf(np.ones(3) / 3)
    costs = np.array([[float((i - j) ** 2) for j in range(3)]
                      for i in range(3)])
    c = solve_ot(TransportProblem(p, p, costs))
    assert c.cost == pytest.approx(0.0, abs=1e-12)


def test_marginals_and_cost_consistency():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = Pmf(rng.dirichlet(np.ones(4)))
        psi = Pmf(rng.dirichlet(np.ones(5)))
        costs = rng.uniform(0.0, 2.0, size=(4, 5))
        c = solve_ot(TransportProblem(mu, psi, costs))
        assert np.max(np.abs(c.table.sum(axis=1) - mu.probs)) <= 1e-9
        assert np.max(np.abs(c.table.sum(axis=0) - psi.probs)) <= 1e-9
        assert c.cost == pytest.approx(float(np.sum(c.table * costs)),
                                       abs=1e-12)


def test_matches_vertex_enumeration():
    # single rows and columns and unequal sides go through the same
    # sparse constraint matrix as square problems
    rng = np.random.default_rng(1)
    shapes = [(3, 3)] * 10 + [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2),
                              (2, 5), (3, 4), (4, 3)] * 3
    for trial, (m, n) in enumerate(shapes):
        mu = rng.dirichlet(np.ones(m))
        psi = rng.dirichlet(np.ones(n))
        costs = rng.uniform(0.0, 1.0, size=(m, n))
        got = solve_ot(TransportProblem(Pmf(mu), Pmf(psi), costs)).cost
        want = ot_vertex_enumeration(mu, psi, costs)
        assert got == pytest.approx(want, abs=1e-8), f"trial {trial}"


def test_hamming_cost_equals_total_variation():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        mu = Pmf(rng.dirichlet(np.ones(m)))
        psi = Pmf(rng.dirichlet(np.ones(m)))
        c = solve_ot(TransportProblem(mu, psi, _hamming(m)))
        assert c.cost == pytest.approx(total_variation(mu, psi), abs=1e-9)


def test_never_beaten_by_scaled_feasible_couplings():
    rng = np.random.default_rng(3)
    for _ in range(100):
        mu = Pmf(rng.dirichlet(np.ones(3)))
        psi = Pmf(rng.dirichlet(np.ones(3)))
        costs = rng.uniform(0.0, 1.0, size=(3, 3))
        opt = solve_ot(TransportProblem(mu, psi, costs)).cost
        table = rng.uniform(0.1, 1.0, size=(3, 3))
        for _ in range(500):
            table *= (mu.probs / table.sum(axis=1))[:, None]
            table *= psi.probs / table.sum(axis=0)
        assert opt <= float(np.sum(table * costs)) + 1e-9


def test_metric_power_transport_tv_bounds():
    # mass that stays put is free, so moving only the TV excess bounds
    # the cost by rho_max * TV; squared metrics keep the same argument
    # with their own rho_max and an extra factor of 2 to spare
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = 4
        spots = np.sort(rng.uniform(0.0, 1.0, size=m))
        metric = np.abs(spots[:, None] - spots[None, :])
        mu = Pmf(rng.dirichlet(np.ones(m)))
        psi = Pmf(rng.dirichlet(np.ones(m)))
        tv = total_variation(mu, psi)
        cost1 = solve_ot(TransportProblem(mu, psi, metric)).cost
        assert cost1 <= metric.max() * tv + 1e-9
        cost2 = solve_ot(TransportProblem(mu, psi, metric ** 2)).cost
        assert cost2 <= 2.0 * (metric ** 2).max() * tv + 1e-9


def test_zero_mass_symbols_are_reinserted():
    mu = Pmf(np.array([0.6, 0.0, 0.4]))
    psi = Pmf(np.array([0.0, 1.0]))
    costs = np.arange(6, dtype=float).reshape(3, 2)
    c = solve_ot(TransportProblem(mu, psi, costs))
    assert c.table.shape == (3, 2)
    assert np.all(c.table[1, :] == 0.0)
    assert np.all(c.table[:, 0] == 0.0)
    assert c.cost == pytest.approx(0.6 * costs[0, 1] + 0.4 * costs[2, 1])


def test_side_cap():
    n = 5000
    p = Pmf(np.ones(n) / n)
    with pytest.raises(CapExceeded):
        solve_ot(TransportProblem(p, p, np.zeros((n, n))))


def _linprog_plan(mu, nu, costs):
    """The reference: public linprog on a dense equality matrix."""
    m, n = costs.shape
    a_eq = np.zeros((m + n - 1, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n - 1):
        a_eq[m + j, j::n] = 1.0
    res = linprog(costs.ravel(), A_eq=a_eq,
                  b_eq=np.concatenate([mu, nu[:-1]]), bounds=(0, None),
                  method="highs-ds", options={"presolve": False})
    assert res.status == 0, res.message
    return np.clip(res.x, 0.0, None).reshape(m, n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 30), st.integers(1, 30),
       st.sampled_from([0.3, 1.0, 8.0]), st.integers(0, 3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_lp_plan_equals_linprog_bit_for_bit(m, n, alpha, light, tied, seed):
    """The direct HiGHS call must return linprog's plan exactly; a scipy
    release that changes the private binding fails here first."""
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.full(m, alpha))
    nu = rng.dirichlet(np.full(n, alpha))
    # symbols lighter than the HiGHS feasibility tolerance
    if light & 1 and m > 1:
        mu[rng.integers(m)] = 1e-9
        mu /= mu.sum()
    if light & 2 and n > 1:
        nu[rng.integers(n)] = 1e-9
        nu /= nu.sum()
    if tied:
        costs = rng.integers(0, 3, size=(m, n)).astype(float)
    else:
        costs = rng.uniform(0.0, 2.0, size=(m, n))
    assert np.array_equal(_transport_lp(mu, nu, costs),
                          _linprog_plan(mu, nu, costs))


def test_infeasible_lp_names_the_highs_status():
    with pytest.raises(RuntimeError, match="transport LP failed: Infeasible"):
        _transport_lp(np.array([1.0]), np.array([2.0, 0.5]),
                      np.zeros((1, 2)))


def test_plan_check_rejects_nan_and_residuals():
    mu = np.array([0.5, 0.5])
    nu = np.array([0.4, 0.6])
    matrix = _transport_matrix(2, 2)
    b_eq = np.concatenate([mu, nu[:-1]])

    def check(plan):
        _check_plan(plan.ravel(), matrix, b_eq)

    plan = np.array([[0.4, 0.1], [0.0, 0.5]])
    check(plan)
    nan_plan = plan.copy()
    nan_plan[1, 0] = np.nan
    with pytest.raises(RuntimeError, match="transport LP failed"):
        check(nan_plan)
    # off by 1e-3 on the first row and the first column
    off = plan.copy()
    off[0, 0] += 1e-3
    with pytest.raises(RuntimeError, match="transport LP failed"):
        check(off)
    # marginals met, one entry below -PLAN_TOL
    neg = np.array([[0.4 + 2 * PLAN_TOL, 0.1 - 2 * PLAN_TOL],
                    [-2 * PLAN_TOL, 0.5 + 2 * PLAN_TOL]])
    with pytest.raises(RuntimeError, match="transport LP failed"):
        check(neg)


def test_highs_gets_linprogs_options():
    """The options are set one by one, and HiGHS ignores a value it
    rejects; every one must read back as set."""
    solver = _highs()
    for name, value in _HIGHS_OPTIONS:
        assert solver.getOptionValue(name)[1] == value, name


def _rows_by_loop(table):
    # the reference: one row at a time
    rows = table.copy()
    target = table.sum(axis=0)
    for i, total in enumerate(table.sum(axis=1)):
        if total > 0.0:
            rows[i] /= total
        elif target.sum() > 0:
            rows[i] = target / target.sum()
        else:
            rows[i] = 1.0 / table.shape[1]
    return rows


def test_conditional_rows_match_a_row_loop():
    rng = np.random.default_rng(11)
    for m, n in ((1, 1), (3, 2), (7, 5), (256, 16)):
        table = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        table[rng.random(m) < 0.3] = 0.0
        table[:, rng.random(n) < 0.2] = 0.0
        for t in (table, np.zeros((m, n))):
            rows = Coupling(table=t, cost=0.0).conditional_rows()
            assert rows.dtype == np.float64
            assert np.array_equal(rows, _rows_by_loop(t))
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_optimal_face_clears_traces_and_keeps_only_used_cells():
    # a trace of mass on the off-diagonal of the binary Hamming pair
    # goes back onto the diagonal, the only optimal cells
    noisy = np.array([[0.5 - 1e-9, 1e-9], [1e-9, 0.5 - 1e-9]])
    plan, face = optimal_face(noisy, _hamming(2))
    assert np.array_equal(plan, np.diag([0.5, 0.5]))
    assert np.array_equal(face, np.eye(2, dtype=bool))
    # every zero-cost cell of this pair is used by some optimal plan,
    # though a vertex uses only three of them
    quarter = np.array([0.25, 0.25, 0.5])
    costs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    _, face = optimal_face(np.diag(quarter), costs)
    assert np.array_equal(face, costs == 0.0)


# ---------------------------------------------------------------------------
# marginal repair


def _pmf_with_zeros(gen, size):
    p = gen.dirichlet(np.ones(size)) * (gen.random(size) < 0.7)
    if not p.any():
        p[gen.integers(size)] = 1.0
    return p / p.sum()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.integers(1, 7),
       st.sampled_from([0.0, 1e-12, 1e-6, 0.1, 2.0]), st.integers(0, 2 ** 32 - 1))
def test_repair_marginals_meets_both_marginals(m, n, noise, seed):
    """Near-couplings of pmfs with zeros, from the exact coupling up to
    noise 2 (any nonnegative table once clipped), some rows massless:
    the repair meets both marginals to float rounding, keeps every
    entry nonnegative, and leaves zero-target rows zero."""
    gen = np.random.default_rng(seed)
    rows, cols = _pmf_with_zeros(gen, m), _pmf_with_zeros(gen, n)
    table = np.outer(rows, cols) * (1.0 + noise * gen.standard_normal((m, n)))
    table[gen.random(m) < 0.2] = 0.0
    given_table = table.copy()
    out = repair_marginals(table, rows, cols)
    assert np.array_equal(table, given_table)
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=1) - rows)) <= 2e-15
    assert np.max(np.abs(out.sum(axis=0) - cols)) <= 2e-15
    assert np.all(out[rows == 0.0] == 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
def test_repair_marginals_leaves_a_matching_table_alone(m, n, seed):
    """A table whose row sums are its row targets and whose column sums
    are within 1e-15 of theirs comes back bit for bit."""
    gen = np.random.default_rng(seed)
    table = gen.random((m, n)) * (gen.random((m, n)) < 0.7)
    cols = table.sum(axis=0) + gen.uniform(-5e-16, 5e-16, n)
    out = repair_marginals(table, table.sum(axis=1), np.maximum(cols, 0.0))
    assert np.array_equal(out, table)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_repair_marginals_moves_the_total_variation_off_a_diagonal(size, seed):
    """From diag(induced), min(induced, target) stays on the diagonal
    and the mass moved off it is the total variation: the least-mass
    coupling that region._snap_channel reads its rows from."""
    gen = np.random.default_rng(seed)
    induced, target = _pmf_with_zeros(gen, size), _pmf_with_zeros(gen, size)
    out = repair_marginals(np.diag(induced), induced, target)
    assert np.max(np.abs(np.diag(out) - np.minimum(induced, target))) <= 1e-15
    moved = out.sum() - np.trace(out)
    assert abs(moved - total_variation(induced, target)) <= 2e-15
    assert np.max(np.abs(out.sum(axis=0) - target)) <= 2e-15
