"""Rate-region solvers: closed forms, witnesses, and cross-checks."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocrate import (
    CapExceeded,
    Channel,
    DistortionMatrix,
    DomainError,
    GaussianSpec,
    MarkovTriple,
    Pmf,
    RegionCurve,
    binary_entropy,
    bsc_boundary,
    c0_bsc,
    det_decoder_min_rate,
    empirical_region_min_rate,
    entropy,
    gaussian_boundary,
    gaussian_mmi,
    i0_solver,
    mmi_constrained_output,
    mutual_information,
    total_variation,
    wyner_bsc,
)
from ocrate import region
from ocrate.region import (BISECT_TOL, I0_RESTARTS_CAP, _bisect,
                           _repair_triple, _snap_channel)
from ocrate.transport import TransportProblem, solve_ot
from oracles import (gaussian_rate_mp, grid_mmi_3x3, mmi_dual_lower_bound,
                     ot_vertex_enumeration, random_mmi_instance)

BERN_HALF = Pmf(np.array([0.5, 0.5]))
HAMMING2 = DistortionMatrix.hamming(2)


# ---------------------------------------------------------------------------
# minimum coupling information


def test_mmi_bsc_closed_form():
    value, coupling = mmi_constrained_output(BERN_HALF, BERN_HALF, HAMMING2,
                                             0.25)
    assert value == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-9)
    assert coupling.table == pytest.approx(
        np.array([[0.375, 0.125], [0.125, 0.375]]), abs=1e-7)


def test_mmi_extreme_budgets():
    value, coupling = mmi_constrained_output(BERN_HALF, BERN_HALF, HAMMING2,
                                             0.0)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(coupling.table, np.eye(2) / 2, atol=1e-9)
    value, _ = mmi_constrained_output(BERN_HALF, BERN_HALF, HAMMING2, 0.5)
    assert value == 0.0
    value, _ = mmi_constrained_output(BERN_HALF, BERN_HALF, HAMMING2, 0.9)
    assert value == 0.0


def test_mmi_infeasible_budget():
    mu = Pmf(np.array([1.0, 0.0]))
    psi = Pmf(np.array([0.0, 1.0]))
    value, coupling = mmi_constrained_output(mu, psi, HAMMING2, 0.2)
    assert math.isinf(value)
    assert coupling is None


def test_mmi_witness_is_valid_and_tight():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mu, psi, rho, d, _ = random_mmi_instance(rng)
        value, coupling = mmi_constrained_output(
            Pmf(mu), Pmf(psi), DistortionMatrix(rho), d)
        assert np.max(np.abs(coupling.source_marginal() - mu)) <= 1e-9
        assert np.max(np.abs(coupling.target_marginal() - psi)) <= 1e-9
        assert float(np.sum(coupling.table * rho)) <= d + 1e-9
        from ocrate import JointPmf
        assert value == pytest.approx(
            mutual_information(JointPmf(coupling.table)), abs=1e-9)
        assert value <= mmi_dual_lower_bound(mu, psi, rho, d) + 1e-7


def test_mmi_reaches_dual_bound_near_transport_minimum():
    """Dirichlet(1) marginals leave some symbols nearly massless, and the
    budget sits just above the minimum transport cost."""
    rng = np.random.default_rng(5)
    mu = rng.dirichlet(np.ones(6))
    psi = rng.dirichlet(np.ones(6))
    rho = rng.random((6, 6))
    low = solve_ot(TransportProblem(Pmf(mu), Pmf(psi), rho)).cost
    high = float(mu @ rho @ psi)
    d = low + 1e-3 * (high - low)
    value, coupling = mmi_constrained_output(Pmf(mu), Pmf(psi),
                                             DistortionMatrix(rho), d)
    assert float(np.sum(coupling.table * rho)) <= d + 1e-9
    assert value <= mmi_dual_lower_bound(mu, psi, rho, d) + 1e-6


def test_mmi_at_transport_minimum_spans_the_optimal_face():
    """At d = 0 the zero-cost couplings form a face with more than one
    vertex; the optimum spreads over it, where a vertex has 1.5 bits."""
    quarter = Pmf(np.array([0.25, 0.25, 0.5]))
    rho = DistortionMatrix(np.array([[0.0, 0.0, 1.0],
                                     [0.0, 0.0, 1.0],
                                     [1.0, 1.0, 0.0]]))
    value, coupling = mmi_constrained_output(quarter, quarter, rho, 0.0)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert float(np.sum(coupling.table * rho.costs)) == 0.0


def test_mmi_at_transport_minimum_with_a_nearly_massless_symbol():
    # HiGHS drops a 1e-9 symbol from its vertex, so the transport plan
    # is snapped onto the marginals with mass on non-optimal cells
    rng = np.random.default_rng(1)
    mu = rng.dirichlet(np.ones(4))
    psi = rng.dirichlet(np.ones(4))
    rho = rng.random((4, 4))
    mu[0] = 1e-9
    mu /= mu.sum()
    d = ot_vertex_enumeration(mu, psi, rho)
    value, coupling = mmi_constrained_output(Pmf(mu), Pmf(psi),
                                             DistortionMatrix(rho), d)
    assert np.max(np.abs(coupling.source_marginal() - mu)) <= 1e-9
    assert np.max(np.abs(coupling.target_marginal() - psi)) <= 1e-9
    assert float(np.sum(coupling.table * rho)) <= d + 1e-9
    assert value >= mmi_dual_lower_bound(mu, psi, rho, d) - 1e-9


def test_mmi_budget_at_independent_cost_gives_zero():
    # mu @ rho @ psi rounds one step below the cell-by-cell sum here
    rng = np.random.default_rng(0)
    mu = rng.dirichlet(8.0 * np.ones(3))
    psi = rng.dirichlet(8.0 * np.ones(3))
    rho = DistortionMatrix.hamming(3)
    d = float(mu @ rho.costs @ psi)
    assert d < float(np.sum(np.outer(mu, psi) * rho.costs))
    value, _ = mmi_constrained_output(Pmf(mu), Pmf(psi), rho, d)
    assert value == 0.0


def test_mmi_against_grid_oracle():
    rng = np.random.default_rng(7)
    for trial in range(5):
        mu, psi, rho, d, seeds = random_mmi_instance(rng)
        value, _ = mmi_constrained_output(Pmf(mu), Pmf(psi),
                                          DistortionMatrix(rho), d)
        grid = grid_mmi_3x3(mu, psi, rho, d, seed_points=seeds)
        assert grid is not None
        # the grid only visits feasible points, so it sits above
        assert value <= grid + 1e-9, f"trial {trial}"
        assert abs(value - grid) <= 5e-3, f"trial {trial}"


def test_mmi_nonincreasing_in_budget():
    rng = np.random.default_rng(13)
    mu, psi, rho, _, _ = random_mmi_instance(rng)
    budgets = np.linspace(0.05, 0.9, 12)
    values = []
    for d in budgets:
        v, _ = mmi_constrained_output(Pmf(mu), Pmf(psi),
                                      DistortionMatrix(rho), float(d))
        values.append(v)
    finite = [v for v in values if not math.isinf(v)]
    assert all(b <= a + 1e-7 for a, b in zip(finite, finite[1:]))


def test_mmi_validation():
    with pytest.raises(ValueError):
        mmi_constrained_output(BERN_HALF, BERN_HALF,
                               DistortionMatrix.hamming(3), 0.2)
    with pytest.raises(DomainError):
        mmi_constrained_output(BERN_HALF, BERN_HALF, HAMMING2, -0.1)


# ---------------------------------------------------------------------------
# binary closed forms


def test_wyner_values():
    assert wyner_bsc(0.0) == pytest.approx(1.0, abs=1e-12)
    assert wyner_bsc(0.5) == pytest.approx(0.0, abs=1e-12)
    assert wyner_bsc(0.25) == pytest.approx(0.6095260510734206, abs=1e-12)
    with pytest.raises(DomainError):
        wyner_bsc(0.6)
    with pytest.raises(DomainError):
        wyner_bsc(-0.01)


def test_c0_equals_wyner_at_matching_crossover():
    for d in (0.0, 0.1, 0.25, 0.4, 0.5):
        assert c0_bsc(d) == pytest.approx(wyner_bsc(d), abs=1e-12)


def test_bsc_boundary_quarter():
    h = binary_entropy(0.25)
    curve = bsc_boundary(0.25, [0.0, h / 2, h])
    rates = curve.rates()
    assert rates[0] == pytest.approx([0.0, 0.399124], abs=5e-7)
    assert rates[2] == pytest.approx([h, 1.0 - h], abs=1e-9)
    assert rates[1][0] == pytest.approx(h / 2, abs=1e-12)
    # interior point must satisfy both defining equations
    r_mid = rates[1][1]
    a1 = _inverse_binary_entropy(1.0 - r_mid)
    a2 = (0.25 - a1) / (1.0 - 2.0 * a1)
    assert binary_entropy(a1) - binary_entropy(a2) == pytest.approx(
        h / 2, abs=1e-7)


def _inverse_binary_entropy(target: float) -> float:
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bsc_boundary_small_distortion_anchors():
    curve = bsc_boundary(0.05, [0.0, binary_entropy(0.05)])
    rates = curve.rates()
    # the 4-decimal quotes carry their own rounding error, hence 5e-3;
    # the closed forms pin the exact values
    assert rates[0][1] == pytest.approx(0.8277, abs=5e-3)
    assert rates[1] == pytest.approx([0.2864, 0.7136], abs=5e-3)
    a_star = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * 0.05))
    assert rates[0][1] == pytest.approx(1.0 - binary_entropy(a_star),
                                        abs=1e-9)
    assert rates[1][1] == pytest.approx(1.0 - binary_entropy(0.05), abs=1e-9)


def test_bsc_boundary_plateau_and_monotonicity():
    d = 0.15
    h = binary_entropy(d)
    grid = np.linspace(0.0, h, 9)
    curve = bsc_boundary(d, grid)
    rs = curve.rates()[:, 1]
    assert all(b < a for a, b in zip(rs, rs[1:]))
    # beyond the plateau onset the value pins at 1 - h(d)
    clamped = bsc_boundary(d, [h + 0.1])
    assert clamped.rates()[0][1] == pytest.approx(1.0 - h, abs=1e-12)


def test_bsc_boundary_domain():
    with pytest.raises(DomainError):
        bsc_boundary(0.6, [0.0])
    with pytest.raises(DomainError):
        bsc_boundary(0.25, [-0.1])


def test_bsc_boundary_equals_sandwich():
    for d in (0.1, 0.25, 0.4):
        r0 = bsc_boundary(d, [0.0]).rates()[0][1]
        low, _ = mmi_constrained_output(BERN_HALF, BERN_HALF, HAMMING2, d)
        assert low - 1e-9 <= r0 <= c0_bsc(d) + 1e-9
        assert c0_bsc(d) > r0 + 1e-3


# ---------------------------------------------------------------------------
# gaussian closed forms


def test_gaussian_boundary_unit_variances():
    spec = GaussianSpec(1.0, 1.0, 0.8)
    curve = gaussian_boundary(spec, [0.0, 1.0, math.inf])
    rates = curve.rates()
    assert rates[0][1] == pytest.approx(0.5 * math.log2(1.0 / 0.4), abs=1e-9)
    assert rates[2][1] == pytest.approx(gaussian_mmi(spec), abs=1e-12)
    assert gaussian_mmi(spec) == pytest.approx(0.321928, abs=5e-7)


def test_gaussian_boundary_converges_to_mmi():
    spec = GaussianSpec(1.0, 2.0, 1.3)
    far = gaussian_boundary(spec, [30.0]).rates()[0][1]
    assert far == pytest.approx(gaussian_mmi(spec), abs=1e-6)


def test_gaussian_degenerate_cases():
    spec = GaussianSpec(1.0, 1.0, 2.0)
    curve = gaussian_boundary(spec, [0.0, 0.5])
    assert np.all(curve.rates()[:, 1] == 0.0)
    assert gaussian_mmi(spec) == 0.0
    with pytest.raises(DomainError):
        GaussianSpec(1.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        GaussianSpec(1.0, 3.0, 0.5)
    with pytest.raises(DomainError):
        GaussianSpec(0.0, 1.0, 0.5)


def test_gaussian_perfect_reconstruction_rate_is_infinite():
    # d = (sigma_x - sigma_y)^2 forces a deterministic relation; with
    # correlation coefficient 1 the information diverges
    spec = GaussianSpec(1.0, 2.0, 1.0)
    assert math.isinf(gaussian_mmi(spec))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.02, 0.98),
       st.lists(st.floats(0.0, 6.0), min_size=1, max_size=6))
def test_gaussian_closed_form_matches_the_mpmath_root(sx, sy, share, points):
    """The closed form is within 1e-12 relative of the two-information
    equation solved at 50 digits, with no bisection run. The budget
    stays a share of 2 to 98% of the way from perfect correlation to
    independence: at either end s or 1 - K is itself a difference of
    nearly equal floats, which no formula can recover."""
    gap = (sx - sy) ** 2
    d = gap + share * (sx * sx + sy * sy - gap)
    grid = np.append(_increasing([0.0] + points), math.inf)
    with patch.object(region, "_bisect", side_effect=AssertionError):
        rates = gaussian_boundary(GaussianSpec(sx, sy, d), grid).rates()
    for rc, r in rates:
        want = gaussian_rate_mp(sx, sy, d, rc)
        assert abs(r - want) <= 1e-12 * want, (rc, r, want)


# ---------------------------------------------------------------------------
# whole-grid curves: one elementwise bisection (binary) or one closed
# form (Gaussian) per curve


def _scalar_bisect(f, lo, hi, tol=BISECT_TOL):
    # plain bisection on one bracket, the reference for each element
    if f(lo) > 0.0:
        return lo
    if f(hi) < 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_array_bisect_matches_scalar_bisect_per_element():
    # per element: f(lo) > 0, f(hi) < 0, interior roots, a root at lo,
    # -inf at lo, +inf at hi, both, a root past an infinite hi, and a
    # bracket already narrower than the tolerance
    root = np.array([-0.5, 1.5, 0.3, 1 / 3, 0.0, 0.7, 2.5, 0.5, 5.0, 0.5])
    lo = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.5])
    hi = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 0.5 + 1e-11])
    inf_lo = np.array([0, 0, 0, 0, 0, 1, 0, 1, 0, 0], dtype=bool)
    inf_hi = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 0], dtype=bool)

    def value(x, i=slice(None)):
        at_inf = np.where(inf_hi[i] & (x == hi[i]), np.inf, x - root[i])
        return np.where(inf_lo[i] & (x == lo[i]), -np.inf, at_inf)

    lo_in, hi_in = lo.copy(), hi.copy()
    got = _bisect(value, lo, hi)
    want = [_scalar_bisect(lambda x, i=i: float(value(x, i)), lo[i], hi[i])
            for i in range(root.size)]
    assert np.array_equal(got, want)
    assert got[0] == lo[0] and got[1] == hi[1]
    for i in (2, 3, 4, 5, 6, 7):
        assert abs(got[i] - root[i]) <= BISECT_TOL
    assert hi[8] - got[8] <= BISECT_TOL
    assert got[9] == 0.5 * (lo[9] + hi[9])
    # the brackets passed in are not written to
    assert np.array_equal(lo, lo_in) and np.array_equal(hi, hi_in)


def _increasing(values):
    return np.unique(np.asarray(values, dtype=float))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(1e-4, 0.4999),
       st.lists(st.floats(0.0, 2.0), min_size=1, max_size=25))
def test_bsc_grid_equals_its_points(d, fractions):
    h = binary_entropy(d)
    grid = _increasing([0.0, h, 2.0 * h + 0.1] + [h * f for f in fractions])
    rates = bsc_boundary(d, grid).rates()
    assert np.array_equal(rates[:, 0], grid)
    for rc, r in rates:
        assert bsc_boundary(d, [rc]).rates()[0, 1] == r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.0, 1.2),
       st.lists(st.floats(0.0, 6.0), min_size=1, max_size=25))
def test_gaussian_grid_equals_its_points(sx, sy, share, points):
    gap = (sx - sy) ** 2
    spec = GaussianSpec(sx, sy, gap + share * (sx * sx + sy * sy - gap))
    grid = np.append(_increasing([0.0] + points), math.inf)
    rates = gaussian_boundary(spec, grid).rates()
    assert np.array_equal(rates[:, 0], grid)
    assert rates[-1, 1] == gaussian_mmi(spec)
    for rc, r in rates:
        assert gaussian_boundary(spec, [rc]).rates()[0, 1] == r


@pytest.mark.parametrize("curve", [
    lambda grid: bsc_boundary(0.25, grid),
    lambda grid: gaussian_boundary(GaussianSpec(1.0, 1.5, 0.8), grid),
    # the two Gaussian cases that return before any bisection
    lambda grid: gaussian_boundary(GaussianSpec(1.0, 1.0, 2.0), grid),
    lambda grid: gaussian_boundary(GaussianSpec(1.0, 2.0, 1.0), grid),
])
def test_curve_grid_edge_cases(curve):
    with pytest.raises(ValueError) as empty:
        curve([])
    assert not isinstance(empty.value, DomainError)
    with pytest.raises(ValueError) as reversed_grid:
        curve([0.5, 0.1])
    assert not isinstance(reversed_grid.value, DomainError)
    # a bad rc is a domain error wherever it sits, also in a grid that
    # is not increasing
    for grid in ([math.nan], [0.0, math.nan, 1.0], [-0.1], [0.2, -1e-300],
                 [-math.inf], [0.5, math.nan, 0.1]):
        with pytest.raises(DomainError):
            curve(grid)


# ---------------------------------------------------------------------------
# variation regions


def test_det_decoder_matches_max_formula():
    rng = np.random.default_rng(17)
    mu, psi, rho, d, _ = random_mmi_instance(rng)
    mmi, _ = mmi_constrained_output(Pmf(mu), Pmf(psi), DistortionMatrix(rho),
                                    d)
    h_out = entropy(Pmf(psi))
    for rc in (0.0, 0.2, 0.7, 1.5, math.inf):
        got = det_decoder_min_rate(Pmf(mu), Pmf(psi), DistortionMatrix(rho),
                                   d, rc)
        want = max(mmi, h_out - rc) if not math.isinf(rc) else mmi
        assert got == pytest.approx(want, abs=1e-9)
    with pytest.raises(DomainError):
        det_decoder_min_rate(Pmf(mu), Pmf(psi), DistortionMatrix(rho), d,
                             -0.5)


def test_empirical_rate_ignores_shared_randomness():
    rng = np.random.default_rng(19)
    mu, psi, rho, d, _ = random_mmi_instance(rng)
    mmi, _ = mmi_constrained_output(Pmf(mu), Pmf(psi), DistortionMatrix(rho),
                                    d)
    got = empirical_region_min_rate(Pmf(mu), Pmf(psi), DistortionMatrix(rho),
                                    d)
    assert got == pytest.approx(mmi, abs=1e-12)


# ---------------------------------------------------------------------------
# no-shared-randomness solver


def test_i0_meets_the_binary_closed_form_at_two_restarts():
    for d in (0.05, 0.1, 0.155, 0.2, 0.3, 0.4):
        a_star = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * d))
        for seed in range(6):
            value, _ = i0_solver(BERN_HALF, BERN_HALF, HAMMING2, d,
                                 restarts=2, seed=seed)
            assert value == pytest.approx(1.0 - binary_entropy(a_star),
                                          abs=1e-6), (d, seed)


def test_i0_binary_anchors():
    v0, t0 = i0_solver(BERN_HALF, BERN_HALF, HAMMING2, 0.0, restarts=8)
    assert v0 == pytest.approx(1.0, abs=1e-3)
    assert t0.expected_distortion(HAMMING2) <= 1e-6
    v5, _ = i0_solver(BERN_HALF, BERN_HALF, HAMMING2, 0.5, restarts=8)
    assert v5 == pytest.approx(0.0, abs=1e-3)


def test_i0_quarter_reaches_minmax_boundary():
    # at rc = 0 the region constraints collapse to
    # r >= max(I(X;U), I(Y;U)), so the solver target is the boundary
    # rate at zero shared randomness
    target = bsc_boundary(0.25, [0.0]).rates()[0][1]
    value, triple = i0_solver(BERN_HALF, BERN_HALF, HAMMING2, 0.25,
                              restarts=16)
    assert value <= target + 2e-3
    assert value >= (1.0 - binary_entropy(0.25)) - 1e-9
    assert c0_bsc(0.25) - value > 1e-3
    # witness backs the reported value exactly
    assert triple.expected_distortion(HAMMING2) <= 0.25 + 1e-6
    assert max(triple.information_x(), triple.information_y()) == (
        pytest.approx(value, abs=1e-12))
    assert np.max(np.abs(triple.induced_x().probs - 0.5)) <= 1e-9
    assert np.max(np.abs(triple.induced_y().probs - 0.5)) <= 1e-9


def test_i0_beats_a_local_optimum():
    """A 3x3 instance where a multi-start local method (SLSQP on the
    joint tables) stops at 0.0341127 bits even with 64 restarts; the
    atom LP reaches 0.0339533."""
    rng = np.random.default_rng(2024)
    for _ in range(2):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        mu, psi = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
        rho = rng.random((nx, ny))
    assert (nx, ny) == (3, 3)
    low = solve_ot(TransportProblem(Pmf(mu), Pmf(psi), rho)).cost
    d = low + 0.7 * (float(mu @ rho @ psi) - low)
    value, triple = i0_solver(Pmf(mu), Pmf(psi), DistortionMatrix(rho), d,
                              restarts=8)
    assert value <= 0.03396
    assert triple.expected_distortion(DistortionMatrix(rho)) <= d + 1e-6


def test_i0_with_massless_symbols():
    """A third symbol with no mass on either side leaves the uniform
    binary problem; an atom that puts any mass on it cannot enter the LP,
    so pricing must give it exactly none."""
    mu = Pmf(np.array([0.5, 0.5, 0.0]))
    a_star = 0.5 * (1.0 - math.sqrt(0.5))
    value, triple = i0_solver(mu, mu, DistortionMatrix.hamming(3), 0.25,
                              restarts=8)
    assert value == pytest.approx(1.0 - binary_entropy(a_star), abs=1e-6)
    assert np.all(triple.x_given_u.rows[:, 2] == 0.0)
    assert np.all(triple.y_given_u.rows[:, 2] == 0.0)


def test_i0_symmetric_in_the_two_marginals():
    rng = np.random.default_rng(3)
    mu = Pmf(rng.dirichlet(np.ones(2)))
    psi = Pmf(rng.dirichlet(np.ones(2)))
    v_ab, _ = i0_solver(mu, psi, HAMMING2, 0.2, restarts=16, seed=1)
    v_ba, _ = i0_solver(psi, mu, HAMMING2, 0.2, restarts=16, seed=1)
    assert abs(v_ab - v_ba) <= 2e-3


def test_i0_repair_moves_least_mass():
    """The marginal snap moves as little mass as it can. Transporting
    under rho within one alphabet moved channel rows by up to 0.44 here
    and lifted good triples over the budget (0.753 bits)."""
    mu = Pmf(np.array([0.38, 0.25, 0.37]))
    psi = Pmf(np.array([0.50, 0.30, 0.20]))
    rho = DistortionMatrix(np.array([[0.28, 0.80, 0.87],
                                     [0.30, 0.53, 0.07],
                                     [0.58, 0.24, 0.76]]))
    value, _ = i0_solver(mu, psi, rho, 0.45, restarts=8, seed=0)
    assert value <= 0.137
    s = np.array([0.5, 0.5])
    a = np.array([[0.56, 0.30, 0.14], [0.20, 0.20, 0.60]])
    b = np.array([[0.70, 0.10, 0.20], [0.30, 0.50, 0.20]])
    triple = _repair_triple(s, a, b, Pmf(s @ a), Pmf(s @ b))
    assert np.array_equal(triple.x_given_u.rows, a)
    assert np.array_equal(triple.y_given_u.rows, b)


def test_i0_feasible_at_transport_minimum_with_light_symbols():
    # the raw transport plan sits above the minimum cost here, so an
    # infeasibility test on it calls a budget that mmi meets infeasible
    mu = np.array([8.316956818547049e-08, 9.997675378033781e-01,
                   2.323790270538296e-04])
    psi = np.array([6.7076257470616678e-05, 9.9626437656545819e-01,
                    3.6685471770711168e-03])
    rho = np.array([[0.8112893659456705, 0.928269767623671,
                     0.2729789320618622],
                    [0.8318020084065566, 0.2020735719627883,
                     0.8065176997200992],
                    [0.7541268706737116, 0.38546078918486215,
                     0.626111535026689]])
    d = ot_vertex_enumeration(mu, psi, rho)
    problem = (Pmf(mu), Pmf(psi), DistortionMatrix(rho), d)
    low, _ = mmi_constrained_output(*problem)
    value, _ = i0_solver(*problem, restarts=8)
    assert math.isfinite(value)
    assert value >= low - 1e-9


def test_snap_channel_is_a_least_mass_moved_coupling():
    rng = np.random.default_rng(11)
    for size in (2, 3, 4, 6):
        for _ in range(25):
            induced = rng.dirichlet(np.ones(size))
            target = rng.dirichlet(np.ones(size))
            rows = _snap_channel(induced, target)
            plan = induced[:, None] * rows
            assert np.max(np.abs(plan.sum(axis=1) - induced)) <= 1e-12
            assert np.max(np.abs(plan.sum(axis=0) - target)) <= 1e-12
            cost = float((plan * (1.0 - np.eye(size))).sum())
            assert cost == pytest.approx(total_variation(induced, target),
                                         abs=1e-12)
            if size <= 3:
                # the optimum is unique on at most 3 symbols
                lp = solve_ot(TransportProblem(Pmf(induced), Pmf(target),
                                               1.0 - np.eye(size)))
                assert np.allclose(rows, lp.conditional_rows(), atol=1e-9)


def test_snap_channel_keeps_matching_marginals():
    p = np.array([0.2, 0.5, 0.3])
    assert np.array_equal(_snap_channel(p, p), np.eye(3))
    # differences at the float-noise level move nothing either
    assert np.array_equal(_snap_channel(p, p + [1e-16, -1e-16, 0.0]),
                          np.eye(3))


@st.composite
def _i0_instances(draw):
    def weights(n):
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=n,
                                   max_size=n)), dtype=float)
        return w / w.sum()

    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    mu, psi = weights(nx), weights(ny)
    rho = np.array(draw(st.lists(st.integers(1, 9), min_size=nx * ny,
                                 max_size=nx * ny)),
                   dtype=float).reshape(nx, ny) / 9.0
    low = solve_ot(TransportProblem(Pmf(mu), Pmf(psi), rho)).cost
    high = float(mu @ rho @ psi)
    frac = draw(st.floats(0.0, 1.2))
    return mu, psi, rho, low + frac * (high - low)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_i0_instances())
def test_i0_witness_backs_the_value(instance):
    mu, psi, rho, d = instance
    dist = DistortionMatrix(rho)
    value, triple = i0_solver(Pmf(mu), Pmf(psi), dist, d, restarts=4)
    assert np.max(np.abs(triple.induced_x().probs - mu)) <= 1e-9
    assert np.max(np.abs(triple.induced_y().probs - psi)) <= 1e-9
    cost = triple.expected_distortion(dist)
    assert cost <= d + 1e-6
    assert value == max(triple.information_x(), triple.information_y())
    # data processing: I(X;U) >= I(X;Y) >= min information at that
    # cost; a short dual search still gives a lower bound on the latter
    floor = mmi_dual_lower_bound(mu, psi, rho, cost, sweeps=200, steps=30)
    assert value >= floor - 1e-9


def test_i0_infeasible():
    mu = Pmf(np.array([1.0, 0.0]))
    psi = Pmf(np.array([0.0, 1.0]))
    value, triple = i0_solver(mu, psi, HAMMING2, 0.3, restarts=2)
    assert math.isinf(value)
    assert triple is None


def test_i0_validation():
    with pytest.raises(ValueError):
        i0_solver(BERN_HALF, BERN_HALF, HAMMING2, 0.25, restarts=0)
    with pytest.raises(CapExceeded):
        i0_solver(BERN_HALF, BERN_HALF, HAMMING2, 0.25,
                  restarts=I0_RESTARTS_CAP + 1)
    with pytest.raises(DomainError):
        i0_solver(BERN_HALF, BERN_HALF, HAMMING2, -1.0)


# ---------------------------------------------------------------------------
# curve plumbing


def test_region_curve_validation():
    curve = RegionCurve(0.25, [0.0, 0.5], [0.5, 0.3])
    assert curve.rates().tolist() == [[0.0, 0.5], [0.5, 0.3]]
    assert curve.rc.dtype == curve.r.dtype == np.float64
    with pytest.raises(ValueError):
        curve.r[0] = 1.0
    with pytest.raises(ValueError):
        RegionCurve(0.25, [0.5, 0.0], [0.3, 0.5])
    with pytest.raises(ValueError):
        RegionCurve(0.25, [0.0, 0.5], [0.1, 0.3])
    with pytest.raises(ValueError):
        RegionCurve(0.25, [], [])
    with pytest.raises(ValueError):
        RegionCurve(0.25, [0.0, 0.5], [0.5])
    # inf - inf is nan, so a difference-based check would reject these
    RegionCurve(0.0, [0.0, 1.0, math.inf], [math.inf] * 3)
    RegionCurve(0.5, [0.0, math.inf], [0.7, 0.2])


def test_region_curve_does_not_alias_the_callers_grid():
    grid = np.array([0.0, 0.1, 0.2])
    curve = bsc_boundary(0.25, grid)
    grid[0] = 0.05
    assert curve.rc[0] == 0.0
    assert grid.flags.writeable


def test_markov_triple_cardinality_bound():
    with pytest.raises(ValueError):
        MarkovTriple(Pmf(np.ones(6) / 6),
                     Channel(np.ones((6, 2)) / 2),
                     Channel(np.ones((6, 2)) / 2))


# ---------------------------------------------------------------------------
# convexity of the distortion sweeps


def test_second_differences_nonnegative():
    ds = np.linspace(0.02, 0.48, 50)
    plateau = np.array([1.0 - binary_entropy(float(d)) for d in ds])
    second = plateau[2:] - 2 * plateau[1:-1] + plateau[:-2]
    assert np.min(second) >= -1e-8
    rc = 0.2
    boundary = np.array([bsc_boundary(float(d), [rc]).rates()[0][1]
                         for d in ds])
    second = boundary[2:] - 2 * boundary[1:-1] + boundary[:-2]
    assert np.min(second) >= -1e-8
