"""Achievable rate regions for lossy coding with a fixed output law.

The operating point is a pair (r, rc): r is the coding rate and rc the
rate of shared randomness, both in bits per symbol. A rate pair is
achievable at distortion d iff there is an auxiliary index U coupling
the source law mu to the reproduction law psi through a conditional
independence bottleneck with E[rho(X, Y)] <= d, such that

    r  >= I(X; U)        and        r + rc >= I(Y; U).

This module computes the extreme points of that region:

* mmi_constrained_output: min I(X; Y) over couplings of (mu, psi) with
  distortion at most d; the unlimited-shared-randomness rate floor.
* i0_solver: min max(I(X;U), I(Y;U)); the no-shared-randomness rate,
  as a linear program over the atoms (P(x|u), P(y|u)) of the index,
  grown by column generation.
* c0_bsc / wyner_bsc: closed-form sum-rate floor for the symmetric
  binary pair (the common-information value of a doubly symmetric
  binary source).
* bsc_boundary / gaussian_boundary: the lower boundary r_min(rc) for
  the symmetric binary and scalar Gaussian families, as a RegionCurve
  holding the rc grid and r_min as two arrays; each solves its whole
  rc grid at once, the binary one by one elementwise bisection, the
  Gaussian one in closed form.
* det_decoder_min_rate / empirical_region_min_rate: the two variation
  regions (decoder forced deterministic; constraint weakened to the
  empirical output histogram).

Infeasibility (no coupling meets the distortion budget) is reported as
a +inf value flowing through the data structures, not as an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.optimize._highspy import _core as highspy

from .info import (
    CapExceeded,
    Channel,
    DistortionMatrix,
    DomainError,
    Pmf,
    _h2,
    _relative_entropy_bits,
    _xlog2x,
    binary_entropy,
    entropy,
    mutual_information,
)
from .transport import (COST_SLACK, Coupling, TransportProblem,
                        _highs, _rows, optimal_face,
                        repair_marginals, solve_ot)

INF = float("inf")

# the minimum-information value is certified to this many bits
MMI_GAP_TOL = 1e-7

# a safety cap: at a huge multiplier a scaling can settle very slowly;
# on the test and benchmark instances the slowest took 1490 sweeps
_SCALING_SWEEPS = 100_000

# interval width for bisection on monotone brackets
BISECT_TOL = 1e-10


def _bisect(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise roots of nondecreasing functions by plain bisection.

    lo and hi are float arrays of one shape, and f maps an array of
    points of that shape to the values of each element's function. An
    element returns lo where f(lo) > 0, hi where f(hi) < 0, and
    otherwise the midpoint of a bracket no wider than BISECT_TOL;
    infinities at the endpoints are fine.
    """
    below, above = f(lo) > 0.0, f(hi) < 0.0
    ends = np.where(below, lo, hi)
    active = ~below & ~above & (hi - lo > BISECT_TOL)
    while active.any():
        mid = 0.5 * (lo + hi)
        step_up = f(mid) <= 0.0
        lo = np.where(active & step_up, mid, lo)
        hi = np.where(active & ~step_up, mid, hi)
        active &= hi - lo > BISECT_TOL
    return np.where(below | above, ends, 0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True, eq=False)
class RegionCurve:
    """Lower boundary r_min(rc) of the main inner region at fixed
    distortion: r[i] is the least coding rate at shared-randomness rate
    rc[i].

    rc and r are read-only float64 arrays of one length, at least 1; rc
    strictly increases and r does not increase (up to 1e-9). Entries may
    be +inf: an rc of inf maps to the unlimited-shared-randomness floor,
    and an r of inf marks a budget that only perfect correlation fits.
    """

    distortion: float
    rc: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        rc = np.array(self.rc, dtype=float)
        r = np.array(self.r, dtype=float)
        if rc.ndim != 1 or rc.shape != r.shape:
            raise ValueError("rc and r must be 1-D arrays of one length")
        if rc.size == 0:
            raise ValueError("a region curve needs at least one point")
        if np.any(rc[1:] <= rc[:-1]):
            raise ValueError("rc grid must be strictly increasing")
        # not np.diff: inf - inf is nan, and an all-inf r is a valid curve
        if np.any(r[1:] > r[:-1] + 1e-9):
            raise ValueError("r_min must be nonincreasing along the curve")
        rc.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "rc", rc)
        object.__setattr__(self, "r", r)

    def rates(self) -> np.ndarray:
        """The curve as an (m, 2) array of (rc, r) rows."""
        return np.column_stack((self.rc, self.r))


@dataclass(frozen=True)
class GaussianSpec:
    """Scalar Gaussian pair: X ~ N(0, sigma_x^2), Y ~ N(0, sigma_y^2),
    squared-error distortion budget d."""

    sigma_x: float
    sigma_y: float
    d: float

    def __post_init__(self):
        if not (self.sigma_x > 0.0 and self.sigma_y > 0.0):
            raise DomainError("standard deviations must be positive")
        if not (np.isfinite(self.d) and self.d >= 0.0):
            raise DomainError("distortion budget must be finite and >= 0")
        if (self.sigma_x - self.sigma_y) ** 2 > self.d:
            raise DomainError(
                "no coupling fits the budget: (sigma_x - sigma_y)^2 > d")


@dataclass(frozen=True)
class MarkovTriple:
    """Mixture representation of a coupling: U ~ weights, X and Y drawn
    independently given U. The index alphabet is capped at
    |X| + |Y| + 1, which is enough to realize every boundary point."""

    weights: Pmf
    x_given_u: Channel
    y_given_u: Channel

    def __post_init__(self):
        m = self.weights.size
        if self.x_given_u.input_size != m or self.y_given_u.input_size != m:
            raise ValueError("channel input sizes must match the index law")
        if m > self.x_given_u.output_size + self.y_given_u.output_size + 1:
            raise ValueError("index alphabet exceeds |X| + |Y| + 1")

    def induced_x(self) -> Pmf:
        return self.x_given_u.apply(self.weights)

    def induced_y(self) -> Pmf:
        return self.y_given_u.apply(self.weights)

    def information_x(self) -> float:
        """I(X; U) in bits."""
        return mutual_information(self.x_given_u.joint(self.weights))

    def information_y(self) -> float:
        """I(Y; U) in bits."""
        return mutual_information(self.y_given_u.joint(self.weights))

    def expected_distortion(self, rho: DistortionMatrix) -> float:
        return float(np.einsum("u,ux,xy,uy->", self.weights.probs,
                               self.x_given_u.rows, rho.costs,
                               self.y_given_u.rows))


# ---------------------------------------------------------------------------
# minimum mutual information over distortion-constrained couplings


def _sinkhorn(log_k: np.ndarray, mu: np.ndarray, psi: np.ndarray,
              g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Potentials (f, g) that scale the kernel exp(log_k) onto the
    marginals (mu, psi), starting from the column potentials g.

    The plan exp(log_k + f + g) has exact column sums. Short of the
    optimum each sweep raises the dual <f, mu> + <g, psi>, and the l1
    error of the row sums falls, though not at every sweep. Sweeps stop
    at the first one that improves neither on its best so far, which
    happens once rounding has the last word; CapExceeded is raised if
    that has not happened within _SCALING_SWEEPS sweeps.
    """
    log_mu, log_psi = np.log(mu), np.log(psi)
    f = log_mu - np.logaddexp.reduce(log_k + g, axis=1)
    err, dual = INF, -INF
    for _ in range(_SCALING_SWEEPS):
        g = log_psi - np.logaddexp.reduce(log_k + f[:, None], axis=0)
        f_next = log_mu - np.logaddexp.reduce(log_k + g, axis=1)
        # the row sums of exp(log_k + f + g) are mu * exp(f - f_next)
        new_err = float((mu * np.abs(np.expm1(f - f_next))).sum())
        new_dual = float((f * mu).sum() + (g * psi).sum())
        if new_err >= err and new_dual <= dual:
            return f, g
        err, dual = min(err, new_err), max(dual, new_dual)
        f = f_next
    raise CapExceeded(f"Sinkhorn scaling still moving after "
                      f"{_SCALING_SWEEPS} sweeps (row error {err:.1e})")


def _embed(table_s: np.ndarray, su: np.ndarray, sv: np.ndarray,
           shape: tuple[int, int]) -> np.ndarray:
    full = np.zeros(shape)
    full[np.ix_(su, sv)] = table_s
    return full


def _independent_fit(mu: Pmf, psi: Pmf, rho: DistortionMatrix,
                     d: float) -> float | None:
    """Cost of the independent coupling mu x psi, summed over the joint
    support, if it is at most d up to 4 ulps (a budget computed as the
    product mu rho psi^T can land that far below this sum), else None."""
    su, sv = mu.support(), psi.support()
    cost = float((np.outer(mu.probs[su], psi.probs[sv])
                  * rho.costs[np.ix_(su, sv)]).sum())
    return cost if cost <= d + 4.0 * np.spacing(cost) else None


def _min_cost_coupling(mu: Pmf, psi: Pmf, rho: DistortionMatrix,
                       ) -> tuple[Coupling, np.ndarray]:
    """A minimum-cost coupling of (mu, psi) and the mask, over the joint
    support, of the cells that some minimum-cost coupling uses.

    The solve_ot plan can carry traces of mass on other cells when a
    symbol is lighter than the HiGHS tolerance; transport.optimal_face
    moves them onto the face first.
    """
    su, sv = mu.support(), psi.support()
    rho_s = rho.costs[np.ix_(su, sv)]
    plan = solve_ot(TransportProblem(mu, psi, rho.costs)).table
    plan_s, face = optimal_face(plan[np.ix_(su, sv)], rho_s)
    return (Coupling(_embed(plan_s, su, sv, rho.shape),
                     float((plan_s * rho_s).sum())), face)


def mmi_constrained_output(mu: Pmf, psi: Pmf, rho: DistortionMatrix, d: float,
                           ) -> tuple[float, Coupling | None]:
    """Minimum I(X;Y) in bits over couplings of (mu, psi) with expected
    distortion at most d.

    On the joint support, I(X;Y) of a coupling P is KL(P || mu x psi).
    For a multiplier beta >= 0 on the budget, the coupling that minimizes
    KL(P || mu x psi) + beta <P, rho> is the Sinkhorn scaling of the
    kernel mu x psi exp(-beta rho) onto the marginals. Its cost falls as
    beta grows, so Brent's method on beta (each scaling warm-started
    from the last potentials) brings the cost down to d; the search keeps
    the smallest beta whose plan fits the budget. That plan is snapped
    onto the marginals exactly and its information is the value, so the
    value is always attained by a feasible witness.

    Certificate: for any potentials f, g and beta >= 0 the Lagrangian
    dual <f, mu> + <g, psi> - beta d - sum mu x psi exp(f + g - beta rho)
    + 1 (in nats) lies below the optimum. Evaluated at the final
    potentials it must be within MMI_GAP_TOL bits of the value, or
    RuntimeError is raised. A scaling still moving after _SCALING_SWEEPS
    sweeps raises CapExceeded.

    Edge cases: a budget below the minimum transport cost (one exact
    transport solve) gives (inf, None); a budget the independent
    coupling fits, up to a few ulps, gives exactly 0. At the minimum
    transport cost beta is infinite and only minimum-cost couplings fit:
    the kernel is mu x psi restricted to the cells that some optimal
    plan uses (transport.optimal_face), and the dual above is that of
    the restricted problem.
    """
    if rho.shape != (mu.size, psi.size):
        raise ValueError("distortion matrix shape does not match marginals")
    if math.isnan(d) or d < 0.0:
        raise DomainError("distortion budget must be >= 0")

    base, face = _min_cost_coupling(mu, psi, rho)
    low = base.cost
    if low > d + COST_SLACK:
        return INF, None

    # work on the joint support; massless symbols carry no information
    su, sv = mu.support(), psi.support()
    mu_s, psi_s = mu.probs[su], psi.probs[sv]
    rho_s = rho.costs[np.ix_(su, sv)]
    ref = np.outer(mu_s, psi_s)

    ind_cost = _independent_fit(mu, psi, rho, d)
    if ind_cost is not None:
        # the independent coupling is feasible and has zero information
        return 0.0, Coupling(_embed(ref, su, sv, rho.shape), ind_cost)

    log_ref = np.log(ref)
    if d <= low + COST_SLACK:
        # only minimum-cost couplings fit; on their face the budget binds
        # no further and beta drops out
        beta = 0.0
        log_k = np.where(face, log_ref, -INF)
        f, g = _sinkhorn(log_k, mu_s, psi_s, np.zeros(psi_s.size))
    else:
        best = [INF, None, None]
        g = np.zeros(psi_s.size)

        def excess(b: float) -> float:
            nonlocal g
            log_k = log_ref - b * rho_s
            f, g = _sinkhorn(log_k, mu_s, psi_s, g)
            over = float((np.exp(log_k + f[:, None] + g) * rho_s).sum()) - d
            if over <= 0.0 and b < best[0]:
                best[:] = b, f, g
            return over

        hi = 1.0
        while excess(hi) > 0.0:
            hi *= 2.0
        brentq(excess, 0.5 * hi if hi > 1.0 else 0.0, hi)
        beta, f, g = best
        log_k = log_ref - beta * rho_s

    plan = np.exp(log_k + f[:, None] + g)
    witness = repair_marginals(plan, mu_s, psi_s)
    value = max(_relative_entropy_bits(witness, ref), 0.0)
    dual = ((f * mu_s).sum() + (g * psi_s).sum() - beta * d - plan.sum()
            + 1.0) / math.log(2.0)
    if value - dual > MMI_GAP_TOL:
        raise RuntimeError(f"information {value!r} is not certified: the "
                           f"dual bound is {dual!r}")
    return value, Coupling(_embed(witness, su, sv, rho.shape),
                           float((witness * rho_s).sum()))


# ---------------------------------------------------------------------------
# closed forms for the symmetric binary pair


def wyner_bsc(a0: float) -> float:
    """Common information of a doubly symmetric binary pair whose joint
    flips a uniform bit with probability a0, in bits."""
    if not 0.0 <= a0 <= 0.5:
        raise DomainError("crossover must lie in [0, 1/2]")
    a1 = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * a0))
    return 1.0 + binary_entropy(a0) - 2.0 * binary_entropy(a1)


def c0_bsc(d: float) -> float:
    """Minimum sum rate r + rc at zero shared randomness surplus for the
    uniform binary pair under Hamming distortion d (equals the common
    information of the distortion-d symmetric coupling)."""
    if not 0.0 <= d <= 0.5:
        raise DomainError("distortion must lie in [0, 1/2]")
    return wyner_bsc(d)


def _grid(rc_grid) -> np.ndarray:
    rc = np.asarray(rc_grid, dtype=float)
    if not np.all(rc >= 0.0):
        raise DomainError("rc values must be >= 0")
    return rc


def bsc_boundary(d: float, rc_grid) -> RegionCurve:
    """Boundary r_min(rc) of the symmetric binary inner region at
    Hamming distortion d.

    Valid for 0 < d < 1/2 and rc >= 0; rc at or beyond h(d) sits on the
    plateau r_min = 1 - h(d). The rc grid must be strictly increasing.
    The whole grid is solved at once: one elementwise bisection finds,
    for every rc, the crossovers (a1, a2) of the two-stage symmetric
    coupling with total crossover d and h(a1) - h(a2) = rc.
    """
    if not 0.0 < d < 0.5:
        raise DomainError("distortion must lie strictly inside (0, 1/2)")
    rc = _grid(rc_grid)
    a_star = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * d))

    def imbalance(a1: np.ndarray) -> np.ndarray:
        return _h2(a1) - _h2((d - a1) / (1.0 - 2.0 * a1)) - rc

    a1 = _bisect(imbalance, np.full(rc.shape, a_star), np.full(rc.shape, d))
    a1 = np.where(rc <= 0.0, a_star, np.where(rc >= binary_entropy(d), d, a1))
    return RegionCurve(d, rc, 1.0 - _h2(a1))


# ---------------------------------------------------------------------------
# scalar Gaussian family


def gaussian_mmi(spec: GaussianSpec) -> float:
    """Minimum I(X;Y) in bits over Gaussian couplings meeting the
    squared-error budget; +inf when only perfect correlation fits. It is
    gaussian_boundary's value at rc = inf, bit for bit."""
    return float(gaussian_boundary(spec, [INF]).r[0])


def gaussian_boundary(spec: GaussianSpec, rc_grid) -> RegionCurve:
    """Boundary r_min(rc) for the scalar Gaussian pair, in closed form.

    The grid must be strictly increasing; math.inf is allowed as the
    final entry and maps to the unlimited-shared-randomness floor. With
    s = sigma_x^2 + sigma_y^2 - d, K = (s / (2 sigma_x sigma_y))^2 and
    A = a^2 sigma_x^2 for the index gain a, I(X;U) = -1/2 log2(1 - A)
    and I(Y;U) = -1/2 log2(1 - K / A), so I(Y;U) = I(X;U) + rc is the
    quadratic t A^2 + (1 - t) A - K = 0, t = 2^(-2 rc). Its root is
    A = 2K / ((1 - t) + sqrt((1 - t)^2 + 4 t K)), with 1 - t by expm1
    and the rate by log1p; rc = inf gives t = 0 and A = K. s <= 0 gives
    0 and K >= 1 (only perfect correlation fits) inf at every rc.
    """
    rc = _grid(rc_grid)
    s = spec.sigma_x ** 2 + spec.sigma_y ** 2 - spec.d
    if s <= 0.0:
        return RegionCurve(spec.d, rc, np.zeros(rc.shape))
    k = (s / (2.0 * spec.sigma_x * spec.sigma_y)) ** 2
    if k >= 1.0:
        return RegionCurve(spec.d, rc, np.full(rc.shape, INF))
    u = -np.expm1(-2.0 * math.log(2.0) * rc)
    a = 2.0 * k / (u + np.sqrt(u * u + 4.0 * (1.0 - u) * k))
    return RegionCurve(spec.d, rc, -0.5 / math.log(2.0) * np.log1p(-a))


# ---------------------------------------------------------------------------
# variation regions


def det_decoder_min_rate(mu: Pmf, psi: Pmf, rho: DistortionMatrix, d: float,
                         rc: float) -> float:
    """Minimum coding rate when the decoder must be deterministic:
    max(min-coupling information, H(psi) - rc). Infeasible budgets
    propagate the +inf marker."""
    if math.isnan(rc) or rc < 0.0:
        raise DomainError("rc must be >= 0")
    value, _ = mmi_constrained_output(mu, psi, rho, d)
    if math.isinf(value):
        return INF
    floor = entropy(psi) - rc if not math.isinf(rc) else -INF
    return max(value, floor)


def empirical_region_min_rate(mu: Pmf, psi: Pmf, rho: DistortionMatrix,
                              d: float) -> float:
    """Minimum coding rate when only the empirical output histogram is
    constrained; independent of rc, and equal to the min-coupling
    information."""
    value, _ = mmi_constrained_output(mu, psi, rho, d)
    return value


# ---------------------------------------------------------------------------
# no-shared-randomness solver: min max(I(X;U), I(Y;U))

# a triple is accepted up to this much over the budget, relative to
# max(1, rho_max)
I0_COST_SLACK = 1e-6

# random pricing starts per column-generation round; each start holds
# |X| + |Y| floats and they are drawn afresh every round
I0_RESTARTS_CAP = 4096

# slack on the LP's distortion row: at exactly the minimum transport
# cost HiGHS can stop with model status "Unknown"; far below
# I0_COST_SLACK, which the marginal snap of a witness also spends
_I0_BUDGET_SLACK = 1e-9

# column generation adds at most _I0_NEW_COLUMNS atoms a round, those
# that gain more than _I0_GAIN_TOL bits, and stops when none does or
# after _I0_ROUNDS rounds; each pricing start alternates _I0_SWEEPS times
_I0_GAIN_TOL = 1e-7
_I0_NEW_COLUMNS = 10
_I0_ROUNDS = 500
_I0_SWEEPS = 30


def _repair_triple(s: np.ndarray, a: np.ndarray, b: np.ndarray,
                   mu: Pmf, psi: Pmf) -> MarkovTriple:
    """Compose each conditional with a transport channel so the induced
    marginals hit (mu, psi) exactly; information can only shrink. The
    channels move as little mass as they can (cost 1 - I), so a triple
    that already meets its marginals comes back unchanged."""
    a2, b2 = (np.einsum("uv,vz->uz", rows, _snap_channel(
        Pmf(np.einsum("u,uv->v", s, rows)).probs, target.probs))
        for rows, target in ((a, mu), (b, psi)))
    return MarkovTriple(Pmf(s), Channel(a2), Channel(b2))


def _snap_channel(induced: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Conditional rows of a least-mass-moved coupling of induced onto
    target (cost 1 - I, value the total variation). Started from the
    diagonal plan, repair_marginals moves each symbol's surplus into
    the deficits and keeps min(induced, target) on the diagonal, which
    is an optimum; with at most 3 symbols it is the only one. Float
    noise in marginals that already match moves nothing."""
    return _rows(repair_marginals(np.diag(induced), induced, target), target)


def _anchor_triples(mu: Pmf, psi: Pmf, rho: DistortionMatrix, d: float,
                    base: Coupling) -> list[MarkovTriple]:
    """Deterministic feasible candidates: U = Y and U = X readings of
    the minimum-cost coupling, plus the independent triple if it fits."""
    table = base.table
    anchors = [MarkovTriple(Pmf(table.sum(axis=0)),
                            Channel(_rows(table.T, mu.probs)),
                            Channel(np.eye(psi.size))),
               MarkovTriple(Pmf(table.sum(axis=1)), Channel(np.eye(mu.size)),
                            Channel(_rows(table, psi.probs)))]
    if _independent_fit(mu, psi, rho, d) is not None:
        anchors.append(MarkovTriple(Pmf(np.ones(1)),
                                    Channel(mu.probs[None, :]),
                                    Channel(psi.probs[None, :])))
    return anchors


def _atom_columns(a: np.ndarray, b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """LP columns of the atoms (a[k], b[k]), one per row: a, b but for
    its last symbol, H(a), H(b) and the distortion a rho b^T."""
    return np.column_stack([a, b[:, :-1], -_xlog2x(a).sum(axis=1),
                            -_xlog2x(b).sum(axis=1),
                            (np.einsum("kx,xy->ky", a, rho) * b).sum(axis=1)])


def _softmax2(v: np.ndarray) -> np.ndarray:
    """Rows proportional to 2^v; -inf entries get no mass."""
    v = v - v.max(axis=1, keepdims=True)
    np.exp2(v, out=v)
    v /= v.sum(axis=1, keepdims=True)
    return v


class _AtomLp:
    """The rc = 0 atom LP on one live HiGHS model: min t over t and one
    weight w[k] >= 0 per atom (a[k], b[k]) subject to

        sum w a = mu,  sum w b = psi (its last row is implied),
        t + sum w H(a) >= H(mu),  t + sum w H(b) >= H(psi),
        sum w a rho b^T <= d + _I0_BUDGET_SLACK.

    Columns are only ever added, so the last basis stays primal
    feasible and the primal simplex re-solves warm from it.
    """

    def __init__(self, mu: Pmf, psi: Pmf, d: float):
        self.atoms_a = np.empty((0, mu.size))
        self.atoms_b = np.empty((0, psi.size))
        lower = np.concatenate([mu.probs, psi.probs[:-1],
                                [entropy(mu), entropy(psi), -highspy.kHighsInf]])
        upper = np.concatenate([mu.probs, psi.probs[:-1],
                                [highspy.kHighsInf, highspy.kHighsInf,
                                 d + _I0_BUDGET_SLACK]])
        self.solver = _highs()
        self.solver.setOptionValue("simplex_strategy", int(
            highspy.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal))
        self.solver.addRows(lower.size, lower, upper, 0,
                            np.zeros(lower.size, dtype=np.int32),
                            np.empty(0, dtype=np.int32), np.empty(0))
        # t: cost 1, in the two entropy rows
        self.solver.addCol(1.0, 0.0, highspy.kHighsInf, 2,
                           np.arange(lower.size - 3, lower.size - 1,
                                     dtype=np.int32), np.ones(2))

    def add(self, a: np.ndarray, b: np.ndarray, cols: np.ndarray) -> None:
        """Add the atoms (a[k], b[k]) with their _atom_columns rows."""
        nonzero = cols != 0.0
        counts = nonzero.sum(axis=1)
        k = cols.shape[0]
        self.solver.addCols(
            k, np.zeros(k), np.zeros(k), np.full(k, highspy.kHighsInf),
            int(counts.sum()),
            np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int32),
            np.nonzero(nonzero)[1].astype(np.int32), cols[nonzero])
        self.atoms_a = np.vstack([self.atoms_a, a])
        self.atoms_b = np.vstack([self.atoms_b, b])

    def solve(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Atom weights and row duals of an optimal solve, or None. A
        warm solve that ends anywhere but optimal is retried once from
        scratch."""
        optimal = highspy.HighsModelStatus.kOptimal
        self.solver.run()
        if self.solver.getModelStatus() != optimal:
            self.solver.clearSolver()
            self.solver.run()
            if self.solver.getModelStatus() != optimal:
                return None
        solution = self.solver.getSolution()
        return np.array(solution.col_value[1:]), np.array(solution.row_dual)


def _price(duals: np.ndarray, b: np.ndarray, rho: np.ndarray, mu: Pmf,
           psi: Pmf) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of high gain (column dotted with the row duals), found by
    _I0_SWEEPS alternations from each row of b: for fixed b the gain is
    linear in a plus y_hx H(a), so its maximizer is a base-2 softmax at
    temperature y_hx, and the same holds in b. Massless symbols get a
    potential of -inf: a softmax never puts exactly zero mass on a
    symbol, and an atom with mass on one could never enter the LP."""
    nx = mu.size
    y_a = np.where(mu.probs > 0.0, duals[:nx], -INF)
    y_b = np.where(psi.probs > 0.0,
                   np.append(duals[nx:nx + psi.size - 1], 0.0), -INF)
    # at a temperature of 0 the gain is linear on that side, and the
    # floor makes the softmax pick its best vertex
    t_a, t_b = max(duals[-3], 1e-12), max(duals[-2], 1e-12)
    y_d = duals[-1]
    offset_a, coupling_a = y_a / t_a, rho.T * (y_d / t_a)
    offset_b, coupling_b = y_b / t_b, rho * (y_d / t_b)
    for _ in range(_I0_SWEEPS):
        a = _softmax2(np.einsum("ky,yx->kx", b, coupling_a) + offset_a)
        b = _softmax2(np.einsum("kx,xy->ky", a, coupling_b) + offset_b)
    return a, b


def i0_solver(mu: Pmf, psi: Pmf, rho: DistortionMatrix, d: float,
              restarts: int = 64, seed: int = 0,
              ) -> tuple[float, MarkovTriple | None]:
    """Upper bound on the no-shared-randomness rate
    min max(I(X;U), I(Y;U)) over conditional-independence couplings of
    (mu, psi) with expected distortion at most d.

    Given U = u, X and Y are independent with laws a_u and b_u, so over
    a fixed set of atoms (a_u, b_u) both informations and E[rho] are
    linear in the weights P(u): I(X;U) = H(mu) - sum P(u) H(a_u), and
    likewise for Y. The program is then a linear one (_AtomLp), the
    dual of the concave-envelope view of Nair 2013. Column generation
    grows the atom set: each round prices the basic atoms and `restarts`
    Dirichlet draws of b (seeded once by SeedSequence([seed, 0])) by a
    Blahut-Arimoto-style alternation (_price) and adds the best
    _I0_NEW_COLUMNS atoms that gain more than _I0_GAIN_TOL bits. It
    stops when none does or after _I0_ROUNDS rounds. The starting pool
    is the atoms of the anchors below plus the independent atom
    (mu, psi), which enters even over budget. A basic solution uses at
    most |X| + |Y| + 1 atoms.

    The U = Y and U = X readings of the minimum-cost coupling, and the
    independent triple if it fits, are always evaluated first, so a
    feasible problem always yields a triple; if one of them has 0 bits
    the solver returns at once. The atoms of the last optimal LP are
    snapped onto the marginals exactly by a transport composition (data
    processing: the snap cannot raise either information term) and
    compete with the anchors. A triple is accepted if its exact
    distortion is within I0_COST_SLACK * max(1, rho_max) of d, and the
    reported value is the exact max-information of the best accepted
    triple: a certified upper bound, not a certified optimum (pricing is
    a local search). Returns (inf, None) when no coupling meets the
    budget. ValueError for restarts < 1; CapExceeded above
    I0_RESTARTS_CAP. Every product is one of numpy's own loops, not a
    BLAS call, so the bytes follow neither the BLAS kernel nor its
    thread count.
    """
    if rho.shape != (mu.size, psi.size):
        raise ValueError("distortion matrix shape does not match marginals")
    if math.isnan(d) or d < 0.0:
        raise DomainError("distortion budget must be >= 0")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if restarts > I0_RESTARTS_CAP:
        raise CapExceeded(f"{restarts} restarts exceed the cap of "
                          f"{I0_RESTARTS_CAP}")

    base, _ = _min_cost_coupling(mu, psi, rho)
    if base.cost > d + COST_SLACK:
        return INF, None

    cost_cap = d + I0_COST_SLACK * max(1.0, rho.max_cost)
    best_value, best_triple = INF, None

    def consider(triple: MarkovTriple):
        nonlocal best_value, best_triple
        if triple.expected_distortion(rho) > cost_cap:
            return
        value = max(triple.information_x(), triple.information_y())
        if value < best_value:
            best_value, best_triple = value, triple

    anchors = _anchor_triples(mu, psi, rho, d, base)
    for anchor in anchors:
        consider(anchor)
    if best_value == 0.0:
        return best_value, best_triple

    lp = _AtomLp(mu, psi, d)
    a = np.vstack([t.x_given_u.rows for t in anchors] + [mu.probs])
    b = np.vstack([t.y_given_u.rows for t in anchors] + [psi.probs])
    lp.add(a, b, _atom_columns(a, b, rho.costs))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    basic = None
    for _ in range(_I0_ROUNDS):
        solved = lp.solve()
        if solved is None:
            break
        weights, duals = solved
        used = weights > 0.0
        basic = (weights[used], lp.atoms_a[used], lp.atoms_b[used])
        b = np.vstack([basic[2],
                       rng.dirichlet(np.ones(psi.size), size=restarts)])
        a, b = _price(duals, b, rho.costs, mu, psi)
        cols = _atom_columns(a, b, rho.costs)
        gain = np.einsum("kj,j->k", cols, duals)
        new = np.argsort(-gain, kind="stable")[:_I0_NEW_COLUMNS]
        new = new[gain[new] > _I0_GAIN_TOL]
        if new.size == 0:
            break
        lp.add(a[new], b[new], cols[new])

    if basic is not None:
        weights, a, b = basic
        try:
            consider(_repair_triple(weights / weights.sum(), a, b, mu, psi))
        except ValueError:
            # more atoms than a MarkovTriple holds: t left the basis
            pass
    return best_value, best_triple
