"""Independent checkers for the benchmark's outputs.

Nothing here calls ocrate's solvers. Values are checked against closed
forms from the paper, against a weak-duality lower bound computed with
numpy and scipy.special only, or against a plain-loop recomputation.
Every checker returns a list of failure messages; an empty list means
the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

LN2 = math.log(2.0)

# tolerances fixed before any measurement
MARGINAL_TOL = 1e-9
COST_TOL = 1e-9
INFO_TOL = 1e-9
DUAL_GAP_TOL = 1e-6
CLOSED_FORM_TOL = 1e-6
EXACT_TV_TOL = 1e-9
LAW_TOL = 1e-9
SE_LIMIT = 6.0


# ---------------------------------------------------------------------------
# information measures, written out again so the checks share no code with
# the program


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def mutual_info_bits(table: np.ndarray) -> float:
    """I(X;Y) in bits of a joint table."""
    t = np.asarray(table, dtype=float)
    ref = np.outer(t.sum(axis=1), t.sum(axis=0))
    total = 0.0
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            if t[i, j] > 0.0:
                total += t[i, j] * math.log2(t[i, j] / ref[i, j])
    return max(total, 0.0)


def min_transport_cost(mu: np.ndarray, psi: np.ndarray,
                       rho: np.ndarray) -> float:
    """Minimum transport cost, from the transportation LP handed to
    scipy directly (not through ocrate's transport layer)."""
    from scipy.optimize import linprog
    m, n = rho.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    res = linprog(rho.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu, psi]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# minimum coupling information: weak-duality lower bound


def _sinkhorn(log_k: np.ndarray, log_mu: np.ndarray, log_psi: np.ndarray,
              g: np.ndarray, iters: int = 5_000, tol: float = 1e-14):
    f = log_mu - logsumexp(log_k + g[None, :], axis=1)
    for _ in range(iters):
        g = log_psi - logsumexp(log_k + f[:, None], axis=0)
        f = log_mu - logsumexp(log_k + g[None, :], axis=1)
        plan = np.exp(log_k + f[:, None] + g[None, :])
        if np.max(np.abs(plan.sum(axis=0) - np.exp(log_psi))) < tol:
            break
    return f, g


def mmi_dual_lower_bound(mu, psi, rho, d: float) -> float:
    """Lower bound in bits on min I(X;Y) over couplings of (mu, psi) with
    cost at most d.

    For any potentials f, g and any beta >= 0 the Lagrangian dual
    <f, mu> + <g, psi> - beta d - sum R exp(f + g - beta rho) + 1, with
    R = mu (x) psi, is at most the optimum in nats. Sinkhorn scaling of
    the kernel R exp(-beta rho) gives the best potentials for a fixed
    beta, and bisection on beta drives the kernel's cost to d. The bound
    stays valid whatever the convergence, because the dual is evaluated
    exactly at the potentials reached; the best of all evaluated points
    is returned. Returns 0 when the independent coupling fits the budget.
    """
    mu = np.asarray(mu, dtype=float)
    psi = np.asarray(psi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    su = mu > 0.0
    sv = psi > 0.0
    mu, psi, rho = mu[su], psi[sv], rho[np.ix_(su, sv)]
    log_mu, log_psi = np.log(mu), np.log(psi)
    log_r = log_mu[:, None] + log_psi[None, :]
    if float((np.exp(log_r) * rho).sum()) <= d:
        return 0.0

    best = 0.0
    g = np.zeros(psi.size)

    def evaluate(beta: float):
        nonlocal best, g
        log_k = log_r - beta * rho
        f, g = _sinkhorn(log_k, log_mu, log_psi, g)
        plan = np.exp(log_k + f[:, None] + g[None, :])
        dual = float(f @ mu + g @ psi - beta * d - plan.sum() + 1.0)
        best = max(best, dual / LN2)
        return float((plan * rho).sum())

    lo, hi = 0.0, 1.0
    while evaluate(hi) > d:
        if hi >= 2.0 ** 12:
            # d sits at (or within rounding of) the transport minimum,
            # where the dual optimum is beta = inf; keep the best so far
            return best
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if evaluate(mid) > d:
            lo = mid
        else:
            hi = mid
    return best


def check_mmi(case: dict, value: float, witness) -> list[str]:
    """Check one mmi_constrained_output result.

    case holds mu, psi, rho, d and kind, one of interior, at_min,
    at_independent, above_independent or infeasible. witness is the
    coupling table (or None).
    """
    mu, psi, rho, d = case["mu"], case["psi"], case["rho"], case["d"]
    kind = case["kind"]
    tag = case["name"]
    if kind == "infeasible":
        if value != math.inf or witness is not None:
            return [f"{tag}: budget below the transport minimum must give "
                    f"(inf, None), got {value!r}"]
        return []
    if witness is None or not math.isfinite(value):
        return [f"{tag}: feasible budget gave no witness (value {value!r})"]
    out = []
    table = np.asarray(witness, dtype=float)
    if np.min(table) < 0.0:
        out.append(f"{tag}: witness has negative mass")
    if (np.max(np.abs(table.sum(axis=1) - mu)) > MARGINAL_TOL
            or np.max(np.abs(table.sum(axis=0) - psi)) > MARGINAL_TOL):
        out.append(f"{tag}: witness marginals are off by more than "
                   f"{MARGINAL_TOL}")
    cost = float((table * rho).sum())
    if cost > d + COST_TOL:
        out.append(f"{tag}: witness cost {cost!r} exceeds budget {d!r}")
    info = mutual_info_bits(table)
    if abs(info - value) > INFO_TOL:
        out.append(f"{tag}: value {value!r} differs from the witness "
                   f"information {info!r}")
    if kind in ("at_independent", "above_independent"):
        if value != 0.0:
            out.append(f"{tag}: budget at or above the independent cost "
                       f"must give exactly 0, got {value!r}")
        return out
    bound = mmi_dual_lower_bound(mu, psi, rho, d)
    if value < bound - INFO_TOL:
        out.append(f"{tag}: value {value!r} lies below the dual lower "
                   f"bound {bound!r}")
    # at the transport minimum the dual optimum sits at beta = inf, so
    # only the one-sided bound is checked there
    if kind == "interior" and value > bound + DUAL_GAP_TOL:
        out.append(f"{tag}: value {value!r} is more than {DUAL_GAP_TOL} "
                   f"above the dual lower bound {bound!r}")
    return out


# ---------------------------------------------------------------------------
# closed forms for the binary and Gaussian families


def bsc_a_star(d: float) -> float:
    return 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * d))


def bsc_r_at_zero(d: float) -> float:
    """No-shared-randomness rate of the uniform binary pair at Hamming
    distortion d: 1 - h(a*), a* = (1 - sqrt(1 - 2d)) / 2."""
    return 1.0 - h2(bsc_a_star(d))


def bsc_plateau(d: float) -> float:
    """Unlimited-shared-randomness rate of the uniform binary pair."""
    return 1.0 - h2(d)


def wyner_common_information(a0: float) -> float:
    """Common information of a doubly symmetric binary source."""
    a1 = bsc_a_star(a0)
    return 1.0 + h2(a0) - 2.0 * h2(a1)


def gauss_correlation(sx: float, sy: float, d: float) -> float:
    return (sx * sx + sy * sy - d) / (2.0 * sx * sy)


def gauss_r_at_zero(sx: float, sy: float, d: float) -> float:
    """rc = 0 end of the Gaussian boundary: -1/2 log2(1 - c), with c the
    correlation of the cheapest coupling that meets the budget."""
    c = gauss_correlation(sx, sy, d)
    return 0.0 if c <= 0.0 else -0.5 * math.log2(1.0 - c)


def gauss_mmi(sx: float, sy: float, d: float) -> float:
    c = gauss_correlation(sx, sy, d)
    return 0.0 if c <= 0.0 else -0.5 * math.log2(1.0 - c * c)


def _shape_failures(tag: str, rates: np.ndarray, tol: float) -> list[str]:
    out = []
    rc, r = rates[:, 0], rates[:, 1]
    if np.any(np.diff(r) > tol):
        out.append(f"{tag}: r is not nonincreasing in rc")
    # convexity as nondecreasing slopes, which also covers uneven grids
    slopes = np.diff(r) / np.diff(rc)
    if np.any(np.diff(slopes) < -tol / np.min(np.diff(rc))):
        out.append(f"{tag}: r is not convex in rc")
    return out


def check_bsc_curve(tag: str, d: float, rates, tol: float = 1e-8,
                    end_tol: float = CLOSED_FORM_TOL) -> list[str]:
    """rates: rows (rc, r) on a grid from 0 to h(d)."""
    rates = np.asarray(rates, dtype=float)
    out = []
    if rates[0, 0] != 0.0 or abs(rates[0, 1] - bsc_r_at_zero(d)) > end_tol:
        out.append(f"{tag}: rc=0 end {rates[0, 1]!r} differs from "
                   f"1 - h(a*) = {bsc_r_at_zero(d)!r}")
    if rates[-1, 0] < h2(d) - end_tol or abs(
            rates[-1, 1] - bsc_plateau(d)) > end_tol:
        out.append(f"{tag}: rc>=h(d) end {rates[-1, 1]!r} differs from "
                   f"1 - h(d) = {bsc_plateau(d)!r}")
    return out + _shape_failures(tag, rates, tol)


def check_gauss_curve(tag: str, sx: float, sy: float, d: float, rates,
                      tol: float = 1e-8,
                      end_tol: float = CLOSED_FORM_TOL) -> list[str]:
    """rates: rows (rc, r) on a grid from 0, with a last row rc = inf."""
    rates = np.asarray(rates, dtype=float)
    out = []
    if rates[0, 0] != 0.0 or abs(
            rates[0, 1] - gauss_r_at_zero(sx, sy, d)) > end_tol:
        out.append(f"{tag}: rc=0 end {rates[0, 1]!r} differs from the "
                   f"closed form {gauss_r_at_zero(sx, sy, d)!r}")
    if not math.isinf(rates[-1, 0]) or abs(
            rates[-1, 1] - gauss_mmi(sx, sy, d)) > end_tol:
        out.append(f"{tag}: rc=inf row {rates[-1, 1]!r} differs from "
                   f"-1/2 log2(1 - c^2) = {gauss_mmi(sx, sy, d)!r}")
    finite = rates[np.isfinite(rates[:, 0])]
    out += _shape_failures(tag, finite, tol)
    if np.any(finite[:, 1] < rates[-1, 1] - tol):
        out.append(f"{tag}: a finite-rc rate lies below the rc=inf floor")
    return out


# ---------------------------------------------------------------------------
# no-shared-randomness endpoint


def check_i0(case: dict, value: float, weights, x_given_u,
             y_given_u) -> list[str]:
    """Check an i0_solver result: a valid witness triple whose
    max-information equals the value, at least the minimum coupling
    information at the witness's distortion, and on the uniform binary
    Hamming pair within 1e-6 of 1 - h(a*)."""
    mu, psi, rho, d = case["mu"], case["psi"], case["rho"], case["d"]
    tag = case["name"]
    if weights is None:
        return [f"{tag}: feasible budget gave no witness"]
    w = np.asarray(weights, dtype=float)
    a = np.asarray(x_given_u, dtype=float)
    b = np.asarray(y_given_u, dtype=float)
    out = []
    stochastic = (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= MARGINAL_TOL
                  and np.all(a >= 0.0) and np.all(b >= 0.0)
                  and np.max(np.abs(a.sum(axis=1) - 1.0)) <= MARGINAL_TOL
                  and np.max(np.abs(b.sum(axis=1) - 1.0)) <= MARGINAL_TOL)
    if not stochastic:
        out.append(f"{tag}: witness weights or channels are not stochastic")
    if (np.max(np.abs(w @ a - mu)) > MARGINAL_TOL
            or np.max(np.abs(w @ b - psi)) > MARGINAL_TOL):
        out.append(f"{tag}: witness marginals are off by more than "
                   f"{MARGINAL_TOL}")
    joint = np.einsum("u,ux,uy->xy", w, a, b)
    cost = float((joint * rho).sum())
    # the solver accepts triples within 1e-6 * max(1, rho_max) of d
    if cost > d + 1e-6 * max(1.0, float(rho.max())):
        out.append(f"{tag}: witness cost {cost!r} exceeds budget {d!r}")
    info = max(mutual_info_bits(w[:, None] * a),
               mutual_info_bits(w[:, None] * b))
    if abs(info - value) > INFO_TOL:
        out.append(f"{tag}: value {value!r} differs from the witness "
                   f"max-information {info!r}")
    # data processing: I(X;U) >= I(X;Y) >= min coupling information at
    # the witness's own cost
    floor = mmi_dual_lower_bound(mu, psi, rho, max(cost, d))
    if value < floor - INFO_TOL:
        out.append(f"{tag}: value {value!r} lies below the minimum "
                   f"coupling information bound {floor!r}")
    if case.get("binary_uniform"):
        expect = bsc_r_at_zero(d)
        if abs(value - expect) > CLOSED_FORM_TOL:
            out.append(f"{tag}: value {value!r} differs from 1 - h(a*) = "
                       f"{expect!r}")
    return out


# ---------------------------------------------------------------------------
# exact simulator


def _block_product(rows_per_letter: list[np.ndarray]) -> np.ndarray:
    law = np.ones(1)
    for row in rows_per_letter:
        law = np.kron(law, row)
    return law


def _blocks(m: int, n: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [blk + (s,) for blk in out for s in range(m)]
    return out


def plain_pre_correction(a: np.ndarray, b: np.ndarray, mu: np.ndarray,
                         rho: np.ndarray, codebook: np.ndarray):
    """Pre-correction output block law and mean distortion of the
    likelihood-encoder / memoryless-decoder pair, by plain loops over
    (k, source block, j).

    Returns the output law over |Y|^n blocks, indexed lexicographically
    with the first letter most significant, and the mean per-letter
    distortion.
    """
    num_j, num_k, n = codebook.shape
    nx, ny = a.shape[1], b.shape[1]
    x_blocks = _blocks(nx, n)
    y_blocks = _blocks(ny, n)
    block_cost = np.array([[sum(rho[x[i], y[i]] for i in range(n)) / n
                            for y in y_blocks] for x in x_blocks])
    out_law = np.zeros(len(y_blocks))
    distortion = 0.0
    for k in range(num_k):
        dec = [_block_product([b[codebook[j, k, i]] for i in range(n)])
               for j in range(num_j)]
        for xi, x in enumerate(x_blocks):
            p_x = 1.0
            for s in x:
                p_x *= mu[s]
            like = np.array([math.prod(a[codebook[j, k, i], x[i]]
                                       for i in range(n))
                             for j in range(num_j)])
            total = like.sum()
            enc = like / total if total > 0.0 else np.full(num_j, 1.0 / num_j)
            for j in range(num_j):
                weight = p_x * enc[j] / num_k
                out_law += weight * dec[j]
                distortion += weight * float(dec[j] @ block_cost[xi])
    return out_law, distortion


def check_exact_report(case: dict, report: dict, codebook=None) -> list[str]:
    """Check an exact-mode SimReport (as a dict) for a case holding the
    triple (weights, a, b), rho, n, trials. With a codebook given, the
    pre-correction law is also recomputed by plain loops."""
    tag = case["name"]
    w, a, b, rho = case["weights"], case["a"], case["b"], case["rho"]
    n = case["n"]
    out = []
    if report["mode"] != "exact":
        return [f"{tag}: expected exact mode, got {report['mode']!r}"]
    if not report["tv_output_vs_iid"] <= EXACT_TV_TOL:
        out.append(f"{tag}: output TV {report['tv_output_vs_iid']!r} "
                   f"exceeds {EXACT_TV_TOL}")
    if not report["mean_distortion"] <= report["distortion_bound"] + 1e-12:
        out.append(f"{tag}: mean distortion {report['mean_distortion']!r} "
                   f"exceeds its bound {report['distortion_bound']!r}")
    trials = report["trials"]
    if len(trials) != case["trials"] or not all(
            t["triangle_ok"] is True for t in trials):
        out.append(f"{tag}: a trial is missing or fails its triangle check")
    single = float(sum(w[u] * a[u, x] * rho[x, y] * b[u, y]
                       for u in range(w.size) for x in range(a.shape[1])
                       for y in range(b.shape[1])))
    if abs(report["idealized_distortion"] - single) > 1e-9:
        out.append(f"{tag}: idealized distortion "
                   f"{report['idealized_distortion']!r} differs from the "
                   f"single-letter value {single!r}")
    tv_pre = report["tv_pre_correction"]
    ot = report["ot_block_cost"]
    hamming = np.array_equal(rho, 1.0 - np.eye(rho.shape[0]))
    if hamming and not (tv_pre / n - 1e-12 <= ot <= tv_pre + 1e-12):
        out.append(f"{tag}: block OT cost {ot!r} outside "
                   f"[tv_pre/n, tv_pre] = [{tv_pre / n!r}, {tv_pre!r}]")
    if codebook is not None:
        mu = w @ a
        psi = w @ b
        law, distortion = plain_pre_correction(a, b, mu, rho, codebook)
        iid = _block_product([psi] * n)
        tv = 0.5 * float(np.abs(law - iid).sum())
        if abs(tv - tv_pre) > LAW_TOL:
            out.append(f"{tag}: pre-correction TV {tv_pre!r} differs from "
                       f"the plain-loop value {tv!r}")
        if abs(distortion - report["pre_correction_distortion"]) > LAW_TOL:
            out.append(f"{tag}: pre-correction distortion "
                       f"{report['pre_correction_distortion']!r} differs "
                       f"from the plain-loop value {distortion!r}")
    return out


def plain_mixture_law(codewords: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Law of a block from a uniformly chosen codeword sent through a
    memoryless channel, by a loop over codewords."""
    law = 0.0
    for word in codewords:
        law = law + _block_product([channel[s] for s in word])
    return law / len(codewords)


# ---------------------------------------------------------------------------
# Monte-Carlo simulator


def check_mc_report(case: dict, report: dict, decoded: np.ndarray,
                    plan_source: np.ndarray, plan: np.ndarray) -> list[str]:
    """Check a monte-carlo SimReport against what its correction stage
    was given: the decoder outputs of every trial and the pooled-letter
    transport plan.

    The corrected letters are not part of the report, so the pooled
    corrected law is checked through the plan: it has the pooled decoded
    law and psi as marginals, which makes psi the expected corrected
    law, and the realized mean correction move must lie within six
    standard errors of the plan's cost.
    """
    tag = case["name"]
    rho = case["rho"]
    psi = case["weights"] @ case["b"]
    out = []
    trials = report["trials"]
    if len(trials) != case["trials"]:
        out.append(f"{tag}: {len(trials)} trials reported, "
                   f"{case['trials']} run")
    if not all(t["triangle_ok"] is True for t in trials):
        out.append(f"{tag}: a trial fails the triangle inequality")
    # every channel row has full support, so some codeword always has a
    # positive likelihood
    if report["encoder_fallbacks"] != 0 or any(
            t["encoder_fallback"] for t in trials):
        out.append(f"{tag}: encoder fell back to a uniform draw")
    pooled = np.bincount(decoded.ravel(), minlength=psi.size) / decoded.size
    if np.max(np.abs(pooled - plan_source)) > 1e-12:
        out.append(f"{tag}: the correction was not given the pooled "
                   f"decoder-output law")
    if (np.max(np.abs(plan.sum(axis=1) - pooled)) > LAW_TOL
            or np.max(np.abs(plan.sum(axis=0) - psi)) > LAW_TOL):
        out.append(f"{tag}: correction plan marginals are off, so the "
                   f"expected corrected law is not psi")
    rows = plan / np.where(pooled > 0.0, pooled, 1.0)[:, None]
    move_mean = (rows * rho).sum(axis=1)
    move_var = (rows * rho ** 2).sum(axis=1) - move_mean ** 2
    expect = float(pooled @ move_mean)
    se = math.sqrt(max(float(pooled @ move_var), 0.0) / decoded.size)
    realized = float(np.mean([t["correction_move"] for t in trials]))
    if abs(realized - expect) > SE_LIMIT * se + 1e-12:
        out.append(f"{tag}: mean correction move {realized!r} is more than "
                   f"{SE_LIMIT} standard errors from the plan cost "
                   f"{expect!r} (se {se!r})")
    return out
