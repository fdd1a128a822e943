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
* i0_solver: min max(I(X;U), I(Y;U)); the no-shared-randomness rate.
* c0_bsc / wyner_bsc: closed-form sum-rate floor for the symmetric
  binary pair (the common-information value of a doubly symmetric
  binary source).
* bsc_boundary / gaussian_boundary: the lower boundary r_min(rc) for
  the symmetric binary and scalar Gaussian families, as a RegionCurve
  holding the rc grid and r_min as two arrays; each solves its whole
  rc grid at once, by one elementwise bisection.
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
from scipy.optimize import brentq, minimize

from .info import (
    CapExceeded,
    Channel,
    DistortionMatrix,
    DomainError,
    JointPmf,
    Pmf,
    _xlog2x,
    binary_entropy,
    entropy,
    mutual_information,
)
from .transport import (COST_SLACK, Coupling, TransportProblem, _rows,
                        optimal_face, repair_marginals, solve_ot)

INF = float("inf")

# the minimum-information value is certified to this many bits
MMI_GAP_TOL = 1e-7

# a safety cap: at a huge multiplier a scaling can settle very slowly;
# on the test and benchmark instances the slowest took 1490 sweeps
_SCALING_SWEEPS = 100_000

# interval width for bisection on monotone brackets
BISECT_TOL = 1e-10


def _bisect(f, lo: np.ndarray, hi: np.ndarray,
            tol: float = BISECT_TOL) -> np.ndarray:
    """Elementwise roots of nondecreasing functions by plain bisection.

    lo and hi are float arrays of one shape, and f maps an array of
    points of that shape to the values of each element's function. An
    element returns lo where f(lo) > 0, hi where f(hi) < 0, and
    otherwise the midpoint of a bracket no wider than tol; infinities
    at the endpoints are fine.
    """
    below, above = f(lo) > 0.0, f(hi) < 0.0
    ends = np.where(below, lo, hi)
    active = ~below & ~above & (hi - lo > tol)
    while active.any():
        mid = 0.5 * (lo + hi)
        step_up = f(mid) <= 0.0
        lo = np.where(active & step_up, mid, lo)
        hi = np.where(active & ~step_up, mid, hi)
        active &= hi - lo > tol
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

    @property
    def index_size(self) -> int:
        return self.weights.size

    def induced_x(self) -> Pmf:
        return self.x_given_u.apply(self.weights)

    def induced_y(self) -> Pmf:
        return self.y_given_u.apply(self.weights)

    def induced_joint(self) -> JointPmf:
        t = np.einsum("u,ux,uy->xy", self.weights.probs,
                      self.x_given_u.rows, self.y_given_u.rows)
        return JointPmf(t)

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


def _information_bits(table: np.ndarray, ref: np.ndarray) -> float:
    mask = table > 0.0
    val = float(np.sum(table[mask] * np.log2(table[mask] / ref[mask])))
    return max(val, 0.0)


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
        new_err = float(mu @ np.abs(np.expm1(f - f_next)))
        new_dual = float(f @ mu + g @ psi)
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
    su = mu.support()
    sv = psi.support()
    mu_s = mu.probs[su]
    psi_s = psi.probs[sv]
    rho_s = rho.costs[np.ix_(su, sv)]
    ref = np.outer(mu_s, psi_s)

    ind_cost = float((ref * rho_s).sum())
    # a budget computed as mu @ rho @ psi can land a few ulps below this
    # sum of the same numbers
    if ind_cost <= d + 4.0 * np.spacing(ind_cost):
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
    value = _information_bits(witness, ref)
    dual = (f @ mu_s + g @ psi_s - beta * d - plan.sum() + 1.0) / math.log(2.0)
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


def _h2(p: np.ndarray) -> np.ndarray:
    # elementwise binary entropy, bit for bit binary_entropy on [0, 1]
    return -(_xlog2x(p) + _xlog2x(1.0 - p))


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
    squared-error budget; +inf when only perfect correlation fits."""
    s = spec.sigma_x ** 2 + spec.sigma_y ** 2 - spec.d
    if s <= 0.0:
        return 0.0
    r = s / (2.0 * spec.sigma_x * spec.sigma_y)
    if r >= 1.0:
        return INF
    return -0.5 * math.log2(1.0 - r * r)


def gaussian_boundary(spec: GaussianSpec, rc_grid) -> RegionCurve:
    """Boundary r_min(rc) for the scalar Gaussian pair.

    The grid must be strictly increasing; math.inf is allowed as the
    final entry and maps to the unlimited-shared-randomness floor. The
    finite entries are solved at once by one elementwise bisection.
    """
    rc = _grid(rc_grid)
    sx2 = spec.sigma_x ** 2
    sy2 = spec.sigma_y ** 2
    s = sx2 + sy2 - spec.d
    if s <= 0.0:
        return RegionCurve(spec.d, rc, np.zeros(rc.shape))
    if s / (2.0 * spec.sigma_x * spec.sigma_y) >= 1.0:
        return RegionCurve(spec.d, rc, np.full(rc.shape, INF))
    finite = np.isfinite(rc)
    budget = np.where(finite, rc, 0.0)

    def info(t: np.ndarray) -> np.ndarray:
        # -1/2 log2(t), +inf where t <= 0
        return -0.5 * np.log2(t, out=np.full(t.shape, -INF), where=t > 0.0)

    def imbalance(a: np.ndarray) -> np.ndarray:
        b = s / (2.0 * a * sx2)
        return info(1.0 - a * a * sx2) - info(1.0 - b * b / sy2) + budget

    a = _bisect(imbalance, np.full(rc.shape, s / (2.0 * sx2 * spec.sigma_y)),
                np.full(rc.shape, 1.0 / spec.sigma_x))
    return RegionCurve(spec.d, rc, np.where(finite, info(1.0 - a * a * sx2),
                                            gaussian_mmi(spec)))


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

# table entries and index atoms lighter than this count as empty in the
# information and distortion terms; it bounds their gradients, which
# keeps the SLSQP subproblems well scaled
_TABLE_FLOOR = 1e-12


def _i0_constraints(mu: np.ndarray, psi: np.ndarray, rho: np.ndarray,
                    d: float, m_u: int) -> list[dict]:
    """SLSQP constraints of min t over z = (jx, jy, t), where
    jx[u, x] = P(u) a(x|u) and jy[u, y] = P(u) b(y|u) are flattened.

    Equalities (linear): jx meets mu, jy meets psi but for its last
    symbol (implied by the rest; SLSQP needs full row rank), and
    jx.sum(1) == jy.sum(1). Inequalities, in nats: t >= I(X;U),
    t >= I(Y;U), and d >= sum_u jx[u] rho jy[u]^T / P(u) with
    P(u) = jx.sum(1).
    """
    nx, ny = mu.size, psi.size
    cut = m_u * nx
    size = cut + m_u * ny + 1

    def split(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return z[:cut].reshape(m_u, nx), z[cut:-1].reshape(m_u, ny)

    a_eq = np.zeros((nx + ny - 1 + m_u, size))
    a_eq[:nx, :cut] = np.tile(np.eye(nx), m_u)
    a_eq[nx:nx + ny - 1, cut:-1] = np.tile(np.eye(ny)[:-1], m_u)
    a_eq[nx + ny - 1:, :cut] = np.kron(np.eye(m_u), np.ones(nx))
    a_eq[nx + ny - 1:, cut:-1] = -np.kron(np.eye(m_u), np.ones(ny))
    b_eq = np.concatenate([mu, psi[:-1], np.zeros(m_u)])

    def log_ratio(j: np.ndarray, marginal: np.ndarray) -> np.ndarray:
        # with the marginal held fixed, sum j log(j / (P_U x marginal))
        # is convex in j, and this is its gradient
        pu = j.sum(axis=1, keepdims=True)
        return np.log(np.maximum(j, _TABLE_FLOOR)
                      / np.maximum(pu * marginal, _TABLE_FLOOR))

    def distortion_parts(z: np.ndarray):
        # per_atom[u] = jx[u] rho jy[u]^T / P(u); the distortion is its sum
        jx, jy = split(z)
        pu = np.maximum(jx.sum(axis=1, keepdims=True), _TABLE_FLOOR)
        rho_jy = jy @ rho.T
        per_atom = (jx * rho_jy).sum(axis=1, keepdims=True) / pu
        return jx, jy, pu, rho_jy, per_atom

    def ineq(z: np.ndarray) -> np.ndarray:
        jx, jy, _, _, per_atom = distortion_parts(z)
        return np.array([z[-1] - float((jx * log_ratio(jx, mu)).sum()),
                         z[-1] - float((jy * log_ratio(jy, psi)).sum()),
                         d - float(per_atom.sum())])

    def ineq_jac(z: np.ndarray) -> np.ndarray:
        jx, jy, pu, rho_jy, per_atom = distortion_parts(z)
        jac = np.zeros((3, size))
        jac[:2, -1] = 1.0
        jac[0, :cut] = -log_ratio(jx, mu).ravel()
        jac[1, cut:-1] = -log_ratio(jy, psi).ravel()
        jac[2, :cut] = -((rho_jy - per_atom) / pu).ravel()
        jac[2, cut:-1] = -((jx @ rho) / pu).ravel()
        return jac

    return [{"type": "eq", "fun": lambda z: a_eq @ z - b_eq,
             "jac": lambda z: a_eq},
            {"type": "ineq", "fun": ineq, "jac": ineq_jac}]


def _repair_triple(s: np.ndarray, a: np.ndarray, b: np.ndarray,
                   mu: Pmf, psi: Pmf) -> MarkovTriple:
    """Compose each conditional with a transport channel so the induced
    marginals hit (mu, psi) exactly; information can only shrink. The
    channels move as little mass as they can (cost 1 - I), so a triple
    that already meets its marginals comes back unchanged."""
    a2 = a @ _snap_channel(Pmf(s @ a).probs, mu.probs)
    b2 = b @ _snap_channel(Pmf(s @ b).probs, psi.probs)
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
    ind_cost = float((np.outer(mu.probs, psi.probs) * rho.costs).sum())
    if ind_cost <= d:
        anchors.append(MarkovTriple(Pmf(np.ones(1)),
                                    Channel(mu.probs[None, :]),
                                    Channel(psi.probs[None, :])))
    return anchors


def i0_solver(mu: Pmf, psi: Pmf, rho: DistortionMatrix, d: float,
              restarts: int = 64, seed: int = 0,
              ) -> tuple[float, MarkovTriple | None]:
    """Upper bound on the no-shared-randomness rate
    min max(I(X;U), I(Y;U)) over conditional-independence couplings of
    (mu, psi) with expected distortion at most d.

    Each restart is one SLSQP run of min t subject to t >= I(X;U),
    t >= I(Y;U) and E[rho] <= d, over the joint tables
    jx[u, x] = P(u) a(x|u) and jy[u, y] = P(u) b(y|u) and t. The
    marginals and the common index law jx.sum(1) == jy.sum(1) are
    linear equalities. With the marginals held, both informations are
    convex in these tables, with gradients log(j / (P_U x marginal));
    only the distortion sum_u jx[u] rho jy[u]^T / P(u) is not convex,
    so the program is nonconvex and the method is a multi-start local
    one. Restart k starts from one Dirichlet draw of (weights, a, b)
    seeded by SeedSequence([seed, k]), and the restarts cycle through
    the index cardinalities 2 .. |X| + |Y| + 1: good optima often live
    on few atoms.

    A solution whose marginals are within 1e-4 of (mu, psi) is snapped
    onto them exactly by a transport composition (data processing: the
    snap cannot raise either information term) and accepted if its
    exact distortion is within I0_COST_SLACK * max(1, rho_max) of d.

    The U = Y and U = X readings of the minimum-cost coupling, and the
    independent triple if it fits, are always evaluated first, so a
    feasible problem always yields a triple; if one of them has 0 bits
    no restart can beat it and the solver returns at once. The reported
    value is the exact max-information of the best accepted triple: a
    certified upper bound, not a certified optimum. Returns (inf, None)
    when no coupling meets the budget.
    """
    if rho.shape != (mu.size, psi.size):
        raise ValueError("distortion matrix shape does not match marginals")
    if math.isnan(d) or d < 0.0:
        raise DomainError("distortion budget must be >= 0")
    if restarts < 1:
        raise ValueError("need at least one restart")

    base, _ = _min_cost_coupling(mu, psi, rho)
    if base.cost > d + COST_SLACK:
        return INF, None

    cost_cap = d + I0_COST_SLACK * max(1.0, rho.max_cost)
    best_value = INF
    best_triple = None

    def consider(triple: MarkovTriple):
        nonlocal best_value, best_triple
        if triple.expected_distortion(rho) > cost_cap:
            return
        value = max(triple.information_x(), triple.information_y())
        if value < best_value:
            best_value = value
            best_triple = triple

    for anchor in _anchor_triples(mu, psi, rho, d, base):
        consider(anchor)
    if best_value == 0.0:
        return best_value, best_triple

    m_max = mu.size + psi.size + 1
    constraints = {m: _i0_constraints(mu.probs, psi.probs, rho.costs, d, m)
                   for m in range(2, m_max + 1)}
    for restart in range(restarts):
        m_u = 2 + restart % (m_max - 1)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=[int(seed), restart]))
        weights = rng.dirichlet(np.ones(m_u))[:, None]
        jx = weights * rng.dirichlet(np.ones(mu.size), size=m_u)
        jy = weights * rng.dirichlet(np.ones(psi.size), size=m_u)
        start = np.concatenate([jx.ravel(), jy.ravel(), [0.0]])
        # t starts at max(I(X;U), I(Y;U)), read off the t >= I rows
        start[-1] = -min(constraints[m_u][1]["fun"](start)[:2])
        grad_t = np.zeros(start.size)
        grad_t[-1] = 1.0
        res = minimize(lambda z: z[-1], start, jac=lambda z: grad_t,
                       method="SLSQP", constraints=constraints[m_u],
                       bounds=[(0.0, 1.0)] * (start.size - 1) + [(0.0, None)],
                       options={"maxiter": 200, "ftol": 1e-12})
        cut = m_u * mu.size
        jx = np.clip(res.x[:cut].reshape(m_u, mu.size), 0.0, None)
        jy = np.clip(res.x[cut:-1].reshape(m_u, psi.size), 0.0, None)
        s = jx.sum(axis=1) / jx.sum()
        a, b = _rows(jx, mu.probs), _rows(jy, psi.probs)
        if np.max(np.abs(np.concatenate(
                [s @ a - mu.probs, s @ b - psi.probs]))) > 1e-4:
            continue
        try:
            consider(_repair_triple(s, a, b, mu, psi))
        except (ValueError, RuntimeError):
            continue

    return best_value, best_triple
