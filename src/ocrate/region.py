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
* bsc_boundary / gaussian_boundary: full (rc, r) trade-off curves for
  the symmetric binary and scalar Gaussian families.
* det_decoder_min_rate / empirical_region_min_rate: the two variation
  regions (decoder forced deterministic; constraint weakened to the
  empirical output histogram).

Infeasibility (no coupling meets the distortion budget) is reported as
a +inf value flowing through the data structures, not as an exception.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from .info import (
    Channel,
    DistortionMatrix,
    DomainError,
    JointPmf,
    Pmf,
    binary_entropy,
    entropy,
    mutual_information,
)
from .transport import (COST_SLACK, Coupling, TransportProblem, optimal_face,
                        repair_marginals, solve_ot)

INF = float("inf")

# the minimum-information value is certified to this many bits
MMI_GAP_TOL = 1e-7

# a safety cap: at a huge multiplier a scaling can settle very slowly;
# on the test and benchmark instances the slowest took 1490 sweeps
_SCALING_SWEEPS = 100_000

# interval width for bisection on monotone brackets
BISECT_TOL = 1e-10

_LOG_FLOOR = 1e-300


class ConstraintViolation(ValueError):
    """A candidate triple fails the marginal or distortion constraints."""


def _bisect(f, lo: float, hi: float, tol: float = BISECT_TOL) -> float:
    """Root of a nondecreasing function by plain bisection.

    Assumes f(lo) <= 0 <= f(hi); infinities at the endpoints are fine.
    """
    flo = f(lo)
    if flo > 0.0:
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


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class RatePoint:
    """One operating point: shared-randomness rate rc, coding rate r."""

    rc: float
    r: float


REGION_TAGS = ("main-inner", "synthesis-inner", "det-decoder", "empirical")


@dataclass(frozen=True)
class RegionCurve:
    """Lower boundary r_min(rc) of a rate region at fixed distortion."""

    distortion: float
    points: tuple[RatePoint, ...]
    region_tag: str

    def __post_init__(self):
        if self.region_tag not in REGION_TAGS:
            raise ValueError(f"unknown region tag {self.region_tag!r}")
        pts = tuple(self.points)
        if not pts:
            raise ValueError("a region curve needs at least one point")
        rcs = [p.rc for p in pts]
        rs = [p.r for p in pts]
        if any(b <= a for a, b in zip(rcs, rcs[1:])):
            raise ValueError("rc grid must be strictly increasing")
        if any(b > a + 1e-9 for a, b in zip(rs, rs[1:])):
            raise ValueError("r_min must be nonincreasing along the curve")
        object.__setattr__(self, "points", pts)

    def rates(self) -> np.ndarray:
        return np.array([[p.rc, p.r] for p in self.points])


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


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    information_x: float
    information_y: float


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
    happens once rounding has the last word; RuntimeError is raised if
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
    raise RuntimeError(f"Sinkhorn scaling still moving after "
                       f"{_SCALING_SWEEPS} sweeps (row error {err:.1e})")


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
    RuntimeError is raised.

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

    # work on the joint support; massless symbols carry no information
    su = mu.support()
    sv = psi.support()
    mu_s = mu.probs[su]
    psi_s = psi.probs[sv]
    rho_s = rho.costs[np.ix_(su, sv)]
    ref = np.outer(mu_s, psi_s)

    base, face = optimal_face(
        solve_ot(TransportProblem(mu, psi, rho.costs)).table[np.ix_(su, sv)],
        rho_s)
    low = float((base * rho_s).sum())
    if low > d + COST_SLACK:
        return INF, None

    def embed(table_s: np.ndarray, cost: float) -> Coupling:
        full = np.zeros(rho.shape)
        full[np.ix_(su, sv)] = table_s
        return Coupling(full, cost)

    ind_cost = float((ref * rho_s).sum())
    # a budget computed as mu @ rho @ psi can land a few ulps below this
    # sum of the same numbers
    if ind_cost <= d + 4.0 * np.spacing(ind_cost):
        # the independent coupling is feasible and has zero information
        return 0.0, embed(ref, ind_cost)

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
    return value, embed(witness, float((witness * rho_s).sum()))


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


def synthesis_inner_min_sum_rate_bsc(d: float) -> float:
    """Sum-rate floor of the coordination/synthesis inner region for the
    uniform binary pair at Hamming distortion d."""
    return c0_bsc(d)


def _bsc_split(d: float, rc: float) -> tuple[float, float]:
    """Crossovers (a1, a2) of the two-stage symmetric binary coupling
    whose rates solve 1 - h(a1) = 1 - h(a2) - rc at total crossover d."""
    a_star = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * d))
    hd = binary_entropy(d)
    if rc <= 0.0:
        return a_star, a_star
    if rc >= hd:
        return d, 0.0

    def imbalance(a1: float) -> float:
        a2 = (d - a1) / (1.0 - 2.0 * a1)
        return binary_entropy(a1) - binary_entropy(a2) - rc

    a1 = _bisect(imbalance, a_star, d)
    a2 = (d - a1) / (1.0 - 2.0 * a1)
    return a1, min(max(a2, 0.0), a_star)


def bsc_boundary(d: float, rc_grid) -> RegionCurve:
    """Boundary r_min(rc) of the symmetric binary inner region at
    Hamming distortion d.

    Valid for 0 < d < 1/2 and rc >= 0; rc at or beyond h(d) sits on the
    plateau r_min = 1 - h(d). The rc grid must be strictly increasing.
    """
    if not 0.0 < d < 0.5:
        raise DomainError("distortion must lie strictly inside (0, 1/2)")
    pts = []
    for rc in np.asarray(rc_grid, dtype=float):
        if math.isnan(rc) or rc < 0.0:
            raise DomainError("rc values must be >= 0")
        a1, _ = _bsc_split(d, min(rc, binary_entropy(d)))
        pts.append(RatePoint(float(rc), 1.0 - binary_entropy(a1)))
    return RegionCurve(d, tuple(pts), "main-inner")


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


def _gaussian_rate(spec: GaussianSpec, rc: float) -> float:
    sx2 = spec.sigma_x ** 2
    sy2 = spec.sigma_y ** 2
    s = sx2 + sy2 - spec.d
    if s <= 0.0:
        return 0.0
    if s / (2.0 * spec.sigma_x * spec.sigma_y) >= 1.0:
        return INF
    if math.isinf(rc):
        return gaussian_mmi(spec)

    def info_x(a: float) -> float:
        t = 1.0 - a * a * sx2
        return INF if t <= 0.0 else -0.5 * math.log2(t)

    def info_y(b: float) -> float:
        t = 1.0 - b * b / sy2
        return INF if t <= 0.0 else -0.5 * math.log2(t)

    a_lo = s / (2.0 * sx2 * spec.sigma_y)
    a_hi = 1.0 / spec.sigma_x

    def imbalance(a: float) -> float:
        b = s / (2.0 * a * sx2)
        return info_x(a) - info_y(b) + rc

    a = _bisect(imbalance, a_lo, a_hi)
    return info_x(a)


def gaussian_boundary(spec: GaussianSpec, rc_grid) -> RegionCurve:
    """Boundary r_min(rc) for the scalar Gaussian pair.

    The grid must be strictly increasing; math.inf is allowed as the
    final entry and maps to the unlimited-shared-randomness floor.
    """
    pts = []
    for rc in np.asarray(rc_grid, dtype=float):
        if math.isnan(rc) or rc < 0.0:
            raise DomainError("rc values must be >= 0")
        pts.append(RatePoint(float(rc), _gaussian_rate(spec, float(rc))))
    return RegionCurve(spec.d, tuple(pts), "main-inner")


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


def _softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


class _MaxInfoProgram:
    """Smooth surrogate of max(I(X;U), I(Y;U)) over logit coordinates,
    with quadratic marginal/distortion penalties and hand gradients.

    Works in nats internally; callers convert to bits at the end.
    """

    def __init__(self, mu: np.ndarray, psi: np.ndarray, rho: np.ndarray,
                 d: float, m_u: int, tau: float = 1e-2):
        self.mu = mu
        self.psi = psi
        self.rho = rho
        self.d = d
        self.m_u = m_u
        self.nx = mu.size
        self.ny = psi.size
        self.tau = tau
        self.sizes = (m_u, m_u * self.nx, m_u * self.ny)

    def unpack(self, theta: np.ndarray):
        i1 = self.sizes[0]
        i2 = i1 + self.sizes[1]
        s = _softmax(theta[:i1])
        a = _softmax(theta[i1:i2].reshape(self.m_u, self.nx))
        b = _softmax(theta[i2:].reshape(self.m_u, self.ny))
        return s, a, b

    @staticmethod
    def _chain(probs: np.ndarray, grad: np.ndarray) -> np.ndarray:
        # softmax backward for one distribution per row
        inner = (grad * probs).sum(axis=-1, keepdims=True)
        return probs * (grad - inner)

    def _parts(self, theta: np.ndarray):
        s, a, b = self.unpack(theta)
        px = s @ a
        py = s @ b
        la = np.log(np.maximum(a, _LOG_FLOOR))
        lb = np.log(np.maximum(b, _LOG_FLOOR))
        lpx = np.log(np.maximum(px, _LOG_FLOOR))
        lpy = np.log(np.maximum(py, _LOG_FLOOR))
        ixu = float(np.einsum("u,ux,ux->", s, a, la - lpx[None, :]))
        iyu = float(np.einsum("u,uy,uy->", s, b, lb - lpy[None, :]))
        rb = b @ self.rho.T            # rb[u, x] = sum_y rho[x, y] b[u, y]
        e_per_u = np.einsum("ux,ux->u", a, rb)
        e = float(s @ e_per_u)
        return s, a, b, px, py, la, lb, lpx, lpy, ixu, iyu, rb, e_per_u, e

    def value_and_grad(self, theta: np.ndarray, lam: float):
        (s, a, b, px, py, la, lb, lpx, lpy,
         ixu, iyu, rb, e_per_u, e) = self._parts(theta)

        z = (ixu - iyu) / self.tau
        w1 = 1.0 / (1.0 + np.exp(-z)) if z < 40 else 1.0
        if z < -40:
            w1 = 0.0
        w2 = 1.0 - w1
        smooth = self.tau * (np.logaddexp(ixu / self.tau, iyu / self.tau))

        gx = px - self.mu
        gy = py - self.psi
        ge = max(e - self.d, 0.0)
        value = smooth + lam * (gx @ gx + gy @ gy + ge * ge)

        # gradients with respect to raw probabilities
        ds = (w1 * np.einsum("ux,ux->u", a, la - lpx[None, :])
              + w2 * np.einsum("uy,uy->u", b, lb - lpy[None, :])
              + lam * (2.0 * (a @ gx) + 2.0 * (b @ gy)
                       + 2.0 * ge * e_per_u))
        da = (w1 * s[:, None] * (la - lpx[None, :])
              + lam * (2.0 * s[:, None] * gx[None, :]
                       + 2.0 * ge * s[:, None] * rb))
        ra = a @ self.rho               # ra[u, y] = sum_x a[u, x] rho[x, y]
        db = (w2 * s[:, None] * (lb - lpy[None, :])
              + lam * (2.0 * s[:, None] * gy[None, :]
                       + 2.0 * ge * s[:, None] * ra))

        grad = np.concatenate([
            self._chain(s, ds),
            self._chain(a, da).ravel(),
            self._chain(b, db).ravel(),
        ])
        return value, grad

    # exact constraint values and jacobians for the polish stage

    def marginal_residual(self, theta: np.ndarray) -> np.ndarray:
        # last component of each block is dropped: the rows of a pmf
        # difference sum to zero, and redundant equality rows make the
        # SLSQP least-squares subproblem singular
        s, a, b = self.unpack(theta)
        return np.concatenate([(s @ a - self.mu)[:-1],
                               (s @ b - self.psi)[:-1]])

    def marginal_jacobian(self, theta: np.ndarray) -> np.ndarray:
        s, a, b = self.unpack(theta)
        n_theta = theta.size
        rows = np.zeros((self.nx + self.ny - 2, n_theta))
        i1 = self.sizes[0]
        i2 = i1 + self.sizes[1]
        for x in range(self.nx - 1):
            gs = a[:, x]
            rows[x, :i1] = self._chain(s, gs)
            ga = np.zeros_like(a)
            ga[:, x] = s
            rows[x, i1:i2] = self._chain(a, ga).ravel()
        for y in range(self.ny - 1):
            gs = b[:, y]
            rows[self.nx - 1 + y, :i1] = self._chain(s, gs)
            gb = np.zeros_like(b)
            gb[:, y] = s
            rows[self.nx - 1 + y, i2:] = self._chain(b, gb).ravel()
        return rows

    def distortion_slack(self, theta: np.ndarray) -> float:
        s, a, b = self.unpack(theta)
        return self.d - float(np.einsum("u,ux,xy,uy->", s, a, self.rho, b))

    def distortion_slack_jacobian(self, theta: np.ndarray) -> np.ndarray:
        s, a, b = self.unpack(theta)
        rb = b @ self.rho.T
        ra = a @ self.rho
        e_per_u = np.einsum("ux,ux->u", a, rb)
        ds = -e_per_u
        da = -s[:, None] * rb
        db = -s[:, None] * ra
        return np.concatenate([
            self._chain(s, ds),
            self._chain(a, da).ravel(),
            self._chain(b, db).ravel(),
        ])


def _repair_triple(s: np.ndarray, a: np.ndarray, b: np.ndarray,
                   mu: Pmf, psi: Pmf, rho: DistortionMatrix) -> MarkovTriple:
    """Compose each conditional with a transport channel so the induced
    marginals hit (mu, psi) exactly; information can only shrink."""

    def side_cost(size: int) -> np.ndarray:
        return rho.costs if rho.costs.shape == (size, size) \
            else 1.0 - np.eye(size)

    def correction(induced: np.ndarray, target: Pmf) -> np.ndarray:
        plan = solve_ot(TransportProblem(Pmf(induced), target,
                                         side_cost(target.size)))
        return plan.conditional_rows()

    a2 = a @ correction(s @ a, mu)
    b2 = b @ correction(s @ b, psi)
    return MarkovTriple(Pmf(s), Channel(a2), Channel(b2))


def _anchor_triples(mu: Pmf, psi: Pmf, rho: DistortionMatrix, d: float,
                    base: Coupling) -> list[MarkovTriple]:
    """Deterministic feasible warm starts: U = Y and U = X readings of
    the minimum-cost coupling, plus the independent triple if it fits."""
    anchors = []
    table = base.table
    py = table.sum(axis=0)
    rows = np.array([table[:, y] / py[y] if py[y] > 0
                     else mu.probs for y in range(psi.size)])
    anchors.append(MarkovTriple(Pmf(py), Channel(rows),
                                Channel(np.eye(psi.size))))
    px = table.sum(axis=1)
    cols = np.array([table[x, :] / px[x] if px[x] > 0
                     else psi.probs for x in range(mu.size)])
    anchors.append(MarkovTriple(Pmf(px), Channel(np.eye(mu.size)),
                                Channel(cols)))
    ind_cost = float((np.outer(mu.probs, psi.probs) * rho.costs).sum())
    if ind_cost <= d:
        anchors.append(MarkovTriple(Pmf(np.ones(1)),
                                    Channel(mu.probs[None, :]),
                                    Channel(psi.probs[None, :])))
    return anchors


def i0_solver(mu: Pmf, psi: Pmf, rho: DistortionMatrix, d: float,
              restarts: int = 64, seed: int = 0,
              dist_tol: float | None = None,
              ) -> tuple[float, MarkovTriple | None]:
    """Upper bound on the no-shared-randomness rate
    min max(I(X;U), I(Y;U)) over conditional-independence couplings of
    (mu, psi) with expected distortion at most d.

    The program is nonconvex, so this is a multi-start local method:
    each restart draws flat-Dirichlet logits for (weights, X-channel,
    Y-channel) at index cardinality |X| + |Y| + 1, runs alternating
    block descent on a smoothed-max objective with quadratic
    marginal-matching penalties, then polishes with an SLSQP pass that
    enforces the marginal equalities and the distortion budget
    directly. A final transport composition snaps the marginals onto
    (mu, psi) exactly (data processing: the snap cannot raise either
    information term) and the triple is accepted if its exact
    distortion is within dist_tol of the budget
    (default 1e-6 * max(1, rho_max)).

    Two deterministic warm starts (U = Y and U = X readings of the
    minimum-cost coupling) are always evaluated as well, so a feasible
    problem always yields a triple. The reported value is the exact
    max-information of the best accepted triple: a certified upper
    bound, not a certified optimum. Returns (inf, None) when no
    coupling meets the budget.
    """
    if rho.shape != (mu.size, psi.size):
        raise ValueError("distortion matrix shape does not match marginals")
    if math.isnan(d) or d < 0.0:
        raise DomainError("distortion budget must be >= 0")
    if restarts < 1:
        raise ValueError("need at least one restart")

    base = solve_ot(TransportProblem(mu, psi, rho.costs))
    if base.cost > d + COST_SLACK:
        return INF, None

    if dist_tol is None:
        dist_tol = 1e-6 * max(1.0, rho.max_cost)

    m_max = mu.size + psi.size + 1
    # good optima often live on few index atoms and the softmax
    # parametrization is slow to empty spare ones, so restarts cycle
    # through every cardinality from 2 up to the bound
    programs = {m: _MaxInfoProgram(mu.probs, psi.probs, rho.costs, d, m)
                for m in range(2, m_max + 1)}

    best_value = INF
    best_triple = None

    def consider(triple: MarkovTriple):
        nonlocal best_value, best_triple
        if triple.expected_distortion(rho) > d + dist_tol:
            return
        value = max(triple.information_x(), triple.information_y())
        if value < best_value:
            best_value = value
            best_triple = triple

    for anchor in _anchor_triples(mu, psi, rho, d, base):
        consider(anchor)

    for restart in range(restarts):
        m_u = 2 + restart % (m_max - 1)
        program = programs[m_u]
        n_theta = sum(program.sizes)
        bounds = [(-40.0, 40.0)] * n_theta
        i1, i2 = program.sizes[0], program.sizes[0] + program.sizes[1]
        blocks = [np.arange(0, i1), np.arange(i1, i2),
                  np.arange(i2, n_theta)]
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=[int(seed), restart]))
        theta = np.concatenate([
            np.log(rng.dirichlet(np.ones(m_u)) + 1e-12),
            np.log(rng.dirichlet(np.ones(mu.size), size=m_u) + 1e-12).ravel(),
            np.log(rng.dirichlet(np.ones(psi.size), size=m_u) + 1e-12).ravel(),
        ])

        for lam in (1e2, 1e4):
            for _ in range(2):
                for idx in blocks:
                    def block_obj(part, idx=idx, lam=lam):
                        full = theta.copy()
                        full[idx] = part
                        v, g = program.value_and_grad(full, lam)
                        return v, g[idx]

                    res = minimize(block_obj, theta[idx], jac=True,
                                   method="L-BFGS-B",
                                   bounds=[(-40.0, 40.0)] * idx.size,
                                   options={"maxiter": 40})
                    theta[idx] = res.x

        with warnings.catch_warnings():
            # the logit box is a soft guard; clipping onto it is fine
            warnings.filterwarnings("ignore", message=".*outside bounds.*",
                                    category=RuntimeWarning)
            res = minimize(
                lambda th: program.value_and_grad(th, 0.0), theta, jac=True,
                method="SLSQP", bounds=bounds,
                constraints=[
                    {"type": "eq", "fun": program.marginal_residual,
                     "jac": program.marginal_jacobian},
                    {"type": "ineq", "fun": program.distortion_slack,
                     "jac": lambda th: program.distortion_slack_jacobian(th)[None, :]},
                ],
                options={"maxiter": 120, "ftol": 1e-12},
            )
        # polish output first, penalty-stage point as fallback; both are
        # cheap to score and SLSQP sometimes reports failure after
        # genuine progress
        for theta_cand in (res.x, theta):
            s, a, b = program.unpack(theta_cand)
            if np.max(np.abs(np.concatenate(
                    [s @ a - mu.probs, s @ b - psi.probs]))) > 1e-4:
                continue
            try:
                consider(_repair_triple(s, a, b, mu, psi, rho))
            except (ValueError, RuntimeError):
                continue

    return best_value, best_triple


# ---------------------------------------------------------------------------
# membership


def region_membership(mu: Pmf, psi: Pmf, rho: DistortionMatrix, d: float,
                      triple: MarkovTriple, point: RatePoint,
                      slack: float = 1e-6) -> MembershipResult:
    """Check whether a rate point is covered by the region certificate
    of a given triple.

    The triple itself is validated first: induced marginals must match
    (mu, psi) within 1e-6 and the distortion budget within 1e-9;
    violations raise ConstraintViolation rather than returning False,
    because a bad certificate says nothing about the point.
    """
    if np.max(np.abs(triple.induced_x().probs - mu.probs)) > 1e-6:
        raise ConstraintViolation("induced source marginal is off")
    if np.max(np.abs(triple.induced_y().probs - psi.probs)) > 1e-6:
        raise ConstraintViolation("induced output marginal is off")
    if triple.expected_distortion(rho) > d + 1e-9:
        raise ConstraintViolation("distortion budget exceeded")
    ix = triple.information_x()
    iy = triple.information_y()
    ok = (point.r >= ix - slack) and (point.r + point.rc >= iy - slack)
    return MembershipResult(bool(ok), ix, iy)
