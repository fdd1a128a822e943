"""Acceptance gate.

Each test exercises one advertised guarantee of the package end to end,
prints a single ACCEPTANCE line with the measured numbers, and fails if
any sub-check misses its stated tolerance or runtime budget. Tolerances
follow the published anchor values: 5e-3 against four-decimal quotes,
1e-6 against closed forms, tighter where the quantity is exact.
"""

import inspect
import json
import math
import subprocess
import sys
import time

import numpy as np

from ocrate import (
    Channel,
    DistortionMatrix,
    GaussianSpec,
    MarkovTriple,
    Pmf,
    SimConfig,
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
    run_simulation,
    soft_covering_exact,
    solve_ot,
    total_variation,
)
from ocrate.transport import TransportProblem

from oracles import grid_mmi_3x3, ot_vertex_enumeration, random_mmi_instance

UNIFORM2 = Pmf(np.array([0.5, 0.5]))
HAMMING2 = DistortionMatrix.hamming(2)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _run_cli(*argv) -> str:
    proc = subprocess.run([sys.executable, "-m", "ocrate.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _csv_columns(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    left = np.array([math.inf if r[0] == "inf" else float(r[0])
                     for r in rows])
    return left, np.array([float(r[1]) for r in rows])


def test_acceptance_1_binary_region_endpoints():
    """Boundary endpoints of the symmetric binary region at three
    distortion levels, via the region-bsc command."""
    anchors = {0.25: (0.3991, 0.1887, 0.8113),
               0.15: (0.5920, 0.3902, 0.6098),
               0.05: (0.8277, 0.7136, 0.2864)}
    checks = []
    details = []
    for d, (r0_q, plat_q, rcmin_q) in anchors.items():
        t0 = time.perf_counter()
        out = _run_cli("region-bsc", "--d", str(d))
        elapsed = time.perf_counter() - t0
        rc, r = _csv_columns(out)
        checks += [
            elapsed < 1.0,
            abs(r[0] - r0_q) <= 5e-3,
            abs(r[-1] - plat_q) <= 5e-3,
            abs(r[-1] - (1.0 - binary_entropy(d))) <= 1e-6,
            abs(rc[-1] - rcmin_q) <= 5e-3,
            abs(rc[-1] - binary_entropy(d)) <= 1e-6,
        ]
        details.append(f"d={d}: r(0)={r[0]:.4f} plateau={r[-1]:.4f} "
                       f"rc_min={rc[-1]:.4f} in {elapsed:.2f}s")
    _report(1, all(checks), "; ".join(details))


def test_acceptance_2_gaussian_region_endpoints():
    """Gaussian boundary at unit variances and budget 0.8: rate 0.661
    with no shared randomness, log2(1.25) with unlimited shared
    randomness, via the region-gauss command."""
    t0 = time.perf_counter()
    out = _run_cli("region-gauss", "--sigma-x", "1.0", "--sigma-y", "1.0",
                   "--d", "0.8", "--points", "9")
    elapsed = time.perf_counter() - t0
    rc, r = _csv_columns(out)
    spec = GaussianSpec(1.0, 1.0, 0.8)
    r0_formula = next(iter(gaussian_boundary(spec, [0.0]).rates()))[1]
    rinf_formula = gaussian_mmi(spec)
    checks = [
        elapsed < 1.0,
        abs(r[0] - 0.65) <= 2e-2,
        abs(r[-1] - 0.32) <= 2e-2,
        abs(r[0] - 0.6610) <= 5e-4,
        abs(r[-1] - 0.3219) <= 5e-4,
        abs(r[0] - r0_formula) <= 1e-6,
        abs(r[-1] - rinf_formula) <= 1e-6,
        math.isinf(rc[-1]),
    ]
    _report(2, all(checks),
            f"r(0)={r[0]:.4f} r(inf)={r[-1]:.4f} in {elapsed:.2f}s")


def test_acceptance_3_no_shared_randomness_anchors():
    """The multi-start solver and the zero-shared-randomness closed
    form: one bit at budget zero, zero bits at budget one half, and a
    strict gap between them at one quarter."""
    t0 = time.perf_counter()
    i0_zero, _ = i0_solver(UNIFORM2, UNIFORM2, HAMMING2, 0.0,
                           restarts=64, seed=0)
    i0_half, _ = i0_solver(UNIFORM2, UNIFORM2, HAMMING2, 0.5,
                           restarts=64, seed=0)
    i0_quarter, _ = i0_solver(UNIFORM2, UNIFORM2, HAMMING2, 0.25,
                              restarts=64, seed=0)
    elapsed = time.perf_counter() - t0
    c0_quarter = c0_bsc(0.25)
    checks = [
        elapsed < 30.0,
        abs(c0_bsc(0.0) - 1.0) <= 1e-9,
        abs(c0_bsc(0.5)) <= 1e-9,
        abs(i0_zero - 1.0) <= 1e-3,
        abs(i0_half) <= 1e-3,
        i0_quarter < c0_quarter - 1e-3,
    ]
    _report(3, all(checks),
            f"i0(0)={i0_zero:.4f} i0(0.5)={i0_half:.4f} "
            f"i0(0.25)={i0_quarter:.4f} < c0(0.25)={c0_quarter:.4f} "
            f"in {elapsed:.1f}s")


def test_acceptance_4_min_information_grid_oracle():
    """Constrained-information solver against an independent nested
    grid search over the coupling polytope, 20 random 3x3 instances."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        mu, psi, rho, d, seeds = random_mmi_instance(rng)
        value, _ = mmi_constrained_output(Pmf(mu), Pmf(psi),
                                          DistortionMatrix(rho), d)
        grid = grid_mmi_3x3(mu, psi, rho, d, seed_points=seeds)
        assert grid is not None
        worst = max(worst, abs(value - grid))
    elapsed = time.perf_counter() - t0
    checks = [elapsed < 60.0, worst <= 5e-3]
    _report(4, all(checks),
            f"20 instances, worst gap {worst:.2e} bits in {elapsed:.1f}s")


def test_acceptance_5_transport_oracle():
    """Exact transport solver against vertex enumeration, and the
    Hamming-cost identity with total variation."""
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst_lp = 0.0
    for _ in range(10):
        mu = rng.dirichlet(np.ones(3))
        psi = rng.dirichlet(np.ones(3))
        costs = rng.uniform(0.0, 1.0, size=(3, 3))
        plan = solve_ot(TransportProblem(Pmf(mu), Pmf(psi), costs))
        worst_lp = max(worst_lp,
                       abs(plan.cost - ot_vertex_enumeration(mu, psi, costs)))
    worst_tv = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 5))
        mu = rng.dirichlet(np.ones(size))
        psi = rng.dirichlet(np.ones(size))
        plan = solve_ot(TransportProblem(Pmf(mu), Pmf(psi),
                                         DistortionMatrix.hamming(size).costs))
        worst_tv = max(worst_tv, abs(plan.cost - total_variation(mu, psi)))
    elapsed = time.perf_counter() - t0
    checks = [elapsed < 10.0, worst_lp <= 1e-8, worst_tv <= 1e-12]
    _report(5, all(checks),
            f"vertex gap {worst_lp:.2e}, tv gap {worst_tv:.2e} "
            f"in {elapsed:.1f}s")


def test_acceptance_6_soft_covering_trend():
    """Mean output-law total variation strictly decreasing in block
    length above the mutual information, and identically zero for a
    channel that ignores its input."""
    t0 = time.perf_counter()
    tvs = [soft_covering_exact(UNIFORM2, Channel.bsc(0.1), n, 1.5,
                               seed=0, num_codebooks=32)
           for n in (2, 4, 6)]
    flat = Channel(np.array([[0.9, 0.1], [0.9, 0.1]]))
    tv_flat = max(soft_covering_exact(UNIFORM2, flat, n, 1.0,
                                      seed=0, num_codebooks=4)
                  for n in (1, 3))
    elapsed = time.perf_counter() - t0
    checks = [elapsed < 60.0, tvs[0] > tvs[1] > tvs[2], tv_flat <= 1e-12]
    _report(6, all(checks),
            f"tv(n=2,4,6)=({tvs[0]:.4f}, {tvs[1]:.4f}, {tvs[2]:.4f}), "
            f"zero-information channel {tv_flat:.1e}, in {elapsed:.1f}s")


def test_acceptance_7_end_to_end_exact_run():
    """Exact simulation with correction at block length six: output law
    equals the iid target to machine precision, the mean distortion
    stays within the transport-cost slack of the single-letter value,
    and every trial obeys the per-block triangle inequality."""
    triple = MarkovTriple(UNIFORM2, Channel.bsc(0.25), Channel.identity(2))
    cfg = SimConfig(triple=triple, rho=HAMMING2, n=6, r=0.6, rc=0.6,
                    trials=32, seed=0, mode="exact")
    t0 = time.perf_counter()
    rep = run_simulation(cfg)
    elapsed = time.perf_counter() - t0
    budget = rep.single_letter_distortion + rep.distortion_slack
    checks = [
        elapsed < 120.0,
        rep.tv_output_vs_iid <= 1e-12,
        rep.mean_distortion <= budget + 1e-12,
        rep.trials["triangle_ok"].all(),
    ]
    _report(7, all(checks),
            f"tv={rep.tv_output_vs_iid:.1e}, mean={rep.mean_distortion:.4f} "
            f"<= {budget:.4f}, {rep.trials['k'].size} trials in {elapsed:.1f}s")


def test_acceptance_8_variation_regions():
    """Deterministic-decoder rate equals the max of the coupling
    information and the entropy shortfall on a shared-randomness grid;
    the empirical-histogram rate takes no shared-randomness input."""
    instances = [
        (UNIFORM2, UNIFORM2, HAMMING2, 0.25),
        (Pmf(np.array([0.5, 0.3, 0.2])), Pmf(np.array([0.2, 0.5, 0.3])),
         DistortionMatrix.hamming(3), 0.35),
    ]
    worst = 0.0
    for mu, psi, rho, d in instances:
        mmi, _ = mmi_constrained_output(mu, psi, rho, d)
        for rc in list(np.linspace(0.0, 2.0, 9)) + [math.inf]:
            got = det_decoder_min_rate(mu, psi, rho, d, rc)
            floor = entropy(psi) - rc if not math.isinf(rc) else -math.inf
            worst = max(worst, abs(got - max(mmi, floor)))
    mu, psi, rho, d = instances[0]
    rc_free = empirical_region_min_rate(mu, psi, rho, d)
    mmi0, _ = mmi_constrained_output(mu, psi, rho, d)
    checks = [
        worst <= 1e-9,
        "rc" not in inspect.signature(empirical_region_min_rate).parameters,
        rc_free == mmi0,
    ]
    _report(8, all(checks),
            f"decoder-rate identity gap {worst:.1e}, "
            f"histogram rate {rc_free:.4f} with no rc parameter")


def test_acceptance_9_boundary_convexity():
    """Second differences of the unlimited-shared-randomness rate and
    of the fixed-shared-randomness boundary over a 50-point distortion
    grid stay above -1e-8."""
    ds = np.linspace(0.01, 0.49, 50)
    plateau = np.array([1.0 - binary_entropy(d) for d in ds])
    worst = float(np.diff(plateau, 2).min())
    for rc in (0.0, 0.25):
        r = np.array([next(iter(bsc_boundary(d, [rc]).rates()))[1]
                      for d in ds])
        worst = min(worst, float(np.diff(r, 2).min()))
    ok = worst >= -1e-8
    _report(9, ok, f"minimum second difference {worst:.2e}")
