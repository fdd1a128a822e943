"""Independent brute-force oracles shared by unit and acceptance tests.

Everything here avoids the library's solver paths on purpose: transport
plans come from enumerating basic solutions of the transportation
polytope or from scipy's public interior-point LP,
constrained-information values come from a derivative-free nested grid,
lower bounds on them from weak Lagrangian duality, and the Gaussian
boundary from its two-information equation in mpmath's arbitrary
precision.
"""

import math
from itertools import combinations, product

import mpmath
import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def ot_vertex_enumeration(mu: np.ndarray, psi: np.ndarray,
                          costs: np.ndarray) -> float:
    """Minimum transport cost via exhaustive basis enumeration.

    A vertex of the transportation polytope is supported on at most
    m + n - 1 cells; every such support whose equality system is
    nonsingular yields one candidate basic solution. Entries down to
    -1e-15, round-off of the solve, count as zero. A looser threshold
    admits infeasible bases on laws that differ by about that much and
    returns less than the minimum (at -1e-10, 0.0 for two Hamming laws
    on 2 letters 4.8e-11 apart, whose minimum is 4.8e-11).
    """
    m, n = costs.shape
    cells = [(i, j) for i in range(m) for j in range(n)]
    # marginal equations, dropping the last column sum (rank m + n - 1)
    rows = []
    rhs = []
    for i in range(m):
        rows.append([1.0 if c[0] == i else 0.0 for c in cells])
        rhs.append(mu[i])
    for j in range(n - 1):
        rows.append([1.0 if c[1] == j else 0.0 for c in cells])
        rhs.append(psi[j])
    rows = np.array(rows)
    rhs = np.array(rhs)

    best = np.inf
    for basis in combinations(range(len(cells)), m + n - 1):
        sub = rows[:, basis]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        sol = np.linalg.solve(sub, rhs)
        if np.min(sol) < -1e-15:
            continue
        table = np.zeros((m, n))
        for k, idx in enumerate(basis):
            table[cells[idx]] = max(sol[k], 0.0)
        if abs(table.sum() - 1.0) > 1e-9:
            continue
        best = min(best, float(np.sum(table * costs)))
    return best


def ot_interior_point(mu: np.ndarray, psi: np.ndarray,
                      costs: np.ndarray) -> float:
    """Minimum transport cost from scipy's public linprog with the HiGHS
    interior-point method, on a sparse equality matrix holding every
    row and column sum (one of them redundant)."""
    m, n = costs.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(m), np.ones((1, n))),
                          sparse.kron(np.ones((1, m)), sparse.eye(n))])
    res = linprog(costs.ravel(), A_eq=a_eq.tocsr(),
                  b_eq=np.concatenate([mu, psi]), method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(res.message)
    return float(res.fun)


def grid_mmi_3x3(mu, psi, rho, d, seed_points=(),
                 steps=(0.05, 0.01, 0.002), span=2.5):
    """Nested grid refinement over the 4 free coordinates of a 3x3
    coupling with fixed marginals; derivative-free. Besides the plain
    axis grid, each level adds distortion-face sections: for every
    subgrid over 3 coordinates, the 4th is solved from cost == d, so
    the active constraint surface is sampled exactly. seed_points are
    known-feasible free vectors kept as extra candidates."""
    box_lo = np.zeros(4)
    box_hi = np.array([min(mu[0], psi[0]), min(mu[0], psi[1]),
                       min(mu[1], psi[0]), min(mu[1], psi[1])])
    ref = np.outer(mu, psi).reshape(-1)
    r = rho
    # cost = const + lin . (p11, p12, p21, p22) after eliminating the
    # six dependent cells against the fixed marginals
    lin = np.array([
        r[0, 0] - r[0, 2] - r[2, 0] + r[2, 2],
        r[0, 1] - r[0, 2] - r[2, 1] + r[2, 2],
        r[1, 0] - r[1, 2] - r[2, 0] + r[2, 2],
        r[1, 1] - r[1, 2] - r[2, 1] + r[2, 2],
    ])
    const = (mu[0] * r[0, 2] + mu[1] * r[1, 2] + psi[0] * r[2, 0]
             + psi[1] * r[2, 1] + (psi[2] - mu[0] - mu[1]) * r[2, 2])

    def evaluate(free):
        p11, p12, p21, p22 = free[:, 0], free[:, 1], free[:, 2], free[:, 3]
        p13 = mu[0] - p11 - p12
        p23 = mu[1] - p21 - p22
        p31 = psi[0] - p11 - p21
        p32 = psi[1] - p12 - p22
        p33 = psi[2] - p13 - p23
        cells = np.stack([p11, p12, p13, p21, p22, p23, p31, p32, p33],
                         axis=1)
        ok = np.all(cells >= -1e-12, axis=1)
        cells = np.clip(cells[ok], 0.0, None)
        if cells.shape[0] == 0:
            return None, None
        cells = cells[cells @ rho.reshape(-1) <= d + 1e-12]
        if cells.shape[0] == 0:
            return None, None
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(cells > 0, cells * np.log2(cells / ref), 0.0)
        vals = terms.sum(axis=1)
        k = int(np.argmin(vals))
        return float(vals[k]), cells[k][[0, 1, 3, 4]]

    def face_sections(axes):
        out = []
        for k in range(4):
            if abs(lin[k]) < 1e-12:
                continue
            idx = [i for i in range(4) if i != k]
            grids = np.meshgrid(*[axes[i] for i in idx], indexing="ij")
            sub = np.stack([g.ravel() for g in grids], axis=1)
            solved = (d - const - sub @ lin[idx]) / lin[k]
            keep = ((solved >= box_lo[k] - 1e-12)
                    & (solved <= box_hi[k] + 1e-12))
            pts = np.empty((int(keep.sum()), 4))
            pts[:, idx] = sub[keep]
            pts[:, k] = np.clip(solved[keep], box_lo[k], box_hi[k])
            out.append(pts)
        return out

    seeds = np.array(list(seed_points)).reshape(-1, 4)
    lo, hi = box_lo.copy(), box_hi.copy()
    best_val, best_pt = np.inf, None
    for st in steps:
        axes = [np.arange(lo[i], hi[i] + st / 2, st) for i in range(4)]
        grids = np.meshgrid(*axes, indexing="ij")
        blocks = [np.stack([g.ravel() for g in grids], axis=1)]
        blocks.extend(face_sections(axes))
        if seeds.size:
            blocks.append(seeds)
        val, pt = evaluate(np.vstack(blocks))
        if val is not None and val < best_val:
            best_val, best_pt = val, pt
        if best_pt is None:
            return None
        lo = np.maximum(box_lo, best_pt - span * st)
        hi = np.minimum(box_hi, best_pt + span * st)
    return best_val if np.isfinite(best_val) else None


def random_mmi_instance(rng):
    """One random 3x3 constrained-information instance with a budget
    strictly between the transport minimum and the independent cost,
    plus feasible seed points for the grid."""
    from ocrate import Pmf
    from ocrate.transport import TransportProblem, solve_ot

    mu = rng.dirichlet(np.ones(3))
    psi = rng.dirichlet(np.ones(3))
    rho = rng.uniform(0.0, 1.0, size=(3, 3))
    base = solve_ot(TransportProblem(Pmf(mu), Pmf(psi), rho))
    ind_cost = float(np.outer(mu, psi).ravel() @ rho.ravel())
    beta = rng.uniform(0.2, 0.9)
    d = base.cost + beta * (ind_cost - base.cost)
    alpha = (d - base.cost) / (ind_cost - base.cost)
    feasible = (1 - alpha) * base.table + alpha * np.outer(mu, psi)
    seeds = [base.table[:2, :2].ravel(), feasible[:2, :2].ravel()]
    return mu, psi, rho, d, seeds


def mmi_dual_lower_bound(mu, psi, rho, d, sweeps=5_000, steps=60):
    """Lower bound in bits on min I(X;Y) over couplings of (mu, psi) with
    cost at most d, by weak duality.

    With R = mu (x) psi on the joint support, every beta >= 0 and every
    pair of potentials f, g give
    <f, mu> + <g, psi> - beta d - sum R exp(f + g - beta rho) + 1
    at most the optimum in nats, converged or not. Potentials come from
    log-domain Sinkhorn sweeps on the kernel R exp(-beta rho), and beta
    from doubling then bisection on the kernel plan's cost; the largest
    dual value seen is returned, and 0 if none is positive.
    """
    mu = np.asarray(mu, dtype=float)
    psi = np.asarray(psi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    rows, cols = mu > 0.0, psi > 0.0
    mu, psi, rho = mu[rows], psi[cols], rho[np.ix_(rows, cols)]
    log_mu, log_psi = np.log(mu), np.log(psi)
    best = 0.0
    g = np.zeros(psi.size)

    def logsumexp(a, axis):
        top = a.max(axis=axis, keepdims=True)
        return (top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))
                ).squeeze(axis)

    def plan_cost(beta):
        nonlocal best, g
        log_k = log_mu[:, None] + log_psi[None, :] - beta * rho
        for _ in range(sweeps):
            f = log_mu - logsumexp(log_k + g[None, :], axis=1)
            g = log_psi - logsumexp(log_k + f[:, None], axis=0)
            plan = np.exp(log_k + f[:, None] + g[None, :])
            if np.abs(plan.sum(axis=1) - mu).sum() < 1e-14:
                break
        dual = f @ mu + g @ psi - beta * d - plan.sum() + 1.0
        best = max(best, dual / math.log(2.0))
        return float((plan * rho).sum())

    lo, hi = 0.0, 1.0
    while plan_cost(hi) > d and hi < 2.0 ** 20:
        lo, hi = hi, 2.0 * hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if plan_cost(mid) > d:
            lo = mid
        else:
            hi = mid
    return best


def gaussian_rate_mp(sigma_x: float, sigma_y: float, d: float, rc: float,
                     digits: int = 50) -> float:
    """r_min(rc) of the scalar Gaussian pair, solved at `digits` digits
    from the two-information equation itself, with no closed form.

    With s = sigma_x^2 + sigma_y^2 - d, the index gain a ranges over
    [s / (2 sigma_x^2 sigma_y), 1 / sigma_x] and sets
    I(X;U) = -1/2 log2(1 - a^2 sigma_x^2) and
    I(Y;U) = -1/2 log2(1 - b^2 / sigma_y^2), b = s / (2 a sigma_x^2).
    I(Y;U) - I(X;U) falls from +inf to -inf over the range; bisection
    on a finds where it equals rc, and the rate is I(X;U) there. At
    rc = inf the root is the range's left end. The inputs are taken as
    the exact binary values of the floats."""
    with mpmath.workdps(digits):
        sx, sy, d = mpmath.mpf(sigma_x), mpmath.mpf(sigma_y), mpmath.mpf(d)
        s = sx ** 2 + sy ** 2 - d
        if s <= 0:
            return 0.0
        if s >= 2 * sx * sy:
            return math.inf

        def info(v):
            return -mpmath.log(v, 2) / 2 if v > 0 else mpmath.inf

        def rate_x(a):
            return info(1 - a * a * sx ** 2)

        def gap(a):
            return info(1 - (s / (2 * a * sx ** 2)) ** 2 / sy ** 2) - rate_x(a)

        lo, hi = s / (2 * sx ** 2 * sy), 1 / sx
        if math.isinf(rc):
            return float(rate_x(lo))
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            if gap(mid) > rc:
                lo = mid
            else:
                hi = mid
        return float(rate_x((lo + hi) / 2))


def mixture_law_by_loop(codewords, rows):
    """Law of a block from a uniformly chosen codeword sent through the
    memoryless channel with the given rows: one Kronecker product per
    codeword, first symbol most significant."""
    rows = np.asarray(rows, dtype=float)
    law = 0.0
    for word in np.atleast_2d(codewords):
        block = np.ones(1)
        for symbol in word:
            block = np.kron(block, rows[symbol])
        law = law + block
    return law / len(np.atleast_2d(codewords))


def exact_fields_dense(weights, x_rows, y_rows, rho, codebook, plan=None,
                       metric_power=1.0):
    """The exact simulator's law fields by the dense block formulas.

    The block joint P(X^n, Y^n) is summed by plain loops over the
    codebook: per column k, each codeword's likelihood of every source
    block, normalized over j (equal weights where every codeword gives
    the block zero likelihood), times the source law and the
    codeword's decoder law of every output block. Mean distortions are
    sums of that joint against the dense block cost rho_xy, the mean
    letter cost of every (source, output) pair, and the idealized one
    uses the joint whose letters are iid pairs of the letter joint.
    With the block plan (table, cost), the corrected joint is
    joint @ cond, cond the plan's rows divided by their sums. Blocks
    are indexed first letter most significant."""
    weights, x_rows, y_rows, rho = (np.asarray(v, dtype=float) for v in
                                    (weights, x_rows, y_rows, rho))
    num_j, num_k, n = codebook.shape
    nx, ny = x_rows.shape[1], y_rows.shape[1]
    xb = np.array(list(product(range(nx), repeat=n)))
    yb = np.array(list(product(range(ny), repeat=n)))
    mu_n = np.prod((weights @ x_rows)[xb], axis=1)
    psi_n = np.prod((weights @ y_rows)[yb], axis=1)
    joint = np.zeros((len(xb), len(yb)))
    softcover = np.zeros(len(yb))
    for k in range(num_k):
        likel = np.array([np.prod(x_rows[codebook[j, k, :, None], xb.T],
                                  axis=0) for j in range(num_j)])
        total = likel.sum(axis=0)
        for j in range(num_j):
            enc = np.where(total > 0.0, likel[j] / np.where(
                total > 0.0, total, 1.0), 1.0 / num_j)
            dec = np.prod(y_rows[codebook[j, k, :, None], yb.T], axis=0)
            joint += np.outer(mu_n * enc, dec) / num_k
            softcover += dec / (num_j * num_k)
    rho_xy = rho[xb[:, None, :], yb[None, :, :]].mean(axis=2)
    letters = np.einsum("u,ux,uy->xy", weights, x_rows, y_rows)
    ideal = np.prod(letters[xb[:, None, :], yb[None, :, :]], axis=2)
    out_law = joint.sum(axis=0)
    pre = float((joint * rho_xy).sum())
    fields = {
        "idealized_distortion": float((ideal * rho_xy).sum()),
        "pre_correction_distortion": pre,
        "tv_pre_correction": 0.5 * float(np.abs(out_law - psi_n).sum()),
        "tv_softcover": 0.5 * float(np.abs(softcover - psi_n).sum()),
        "mean_distortion": pre,
        "tv_output_vs_iid": 0.5 * float(np.abs(out_law - psi_n).sum()),
    }
    if plan is None:
        return fields
    table, cost = plan
    mass = table.sum(axis=1, keepdims=True)
    cond = table / np.where(mass > 0.0, mass, 1.0)
    q = max(1.0, metric_power)
    bound = (pre ** (1.0 / q) + cost ** (1.0 / q)) ** q
    fields.update(
        mean_distortion=float(((joint @ cond) * rho_xy).sum()),
        tv_output_vs_iid=0.5 * float(np.abs(out_law @ cond - psi_n).sum()),
        ot_block_cost=cost, distortion_bound=bound,
        distortion_slack=bound - float(np.einsum("xy,xy->", letters, rho)))
    return fields
