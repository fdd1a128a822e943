"""The benchmark's checkers accept correct outputs and reject perturbed ones.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import copy
import math

import numpy as np
import pytest

import checks
import ocrate
import workloads

SHIFT = 1e-4


@pytest.fixture(scope="module")
def mmi_case():
    rng = np.random.default_rng(7)
    mu, psi, rho, low, high = workloads._coupling_case(rng, 3, False)
    case = dict(name="t", kind="interior", mu=mu, psi=psi, rho=rho,
                d=low + 0.5 * (high - low))
    value, coupling = ocrate.mmi_constrained_output(
        ocrate.Pmf(mu), ocrate.Pmf(psi), ocrate.DistortionMatrix(rho),
        case["d"])
    return case, value, coupling.table


def test_dual_bound_meets_binary_closed_form():
    u = np.array([0.5, 0.5])
    for d in (0.1, 0.25, 0.4):
        bound = checks.mmi_dual_lower_bound(u, u, 1.0 - np.eye(2), d)
        assert bound <= checks.bsc_plateau(d) + 1e-12
        assert checks.bsc_plateau(d) - bound < 1e-9


def test_mmi_accepts_solver_output(mmi_case):
    case, value, table = mmi_case
    assert checks.check_mmi(case, value, table) == []


@pytest.mark.parametrize("delta", [SHIFT, -SHIFT])
def test_mmi_rejects_shifted_value(mmi_case, delta):
    case, value, table = mmi_case
    assert checks.check_mmi(case, value + delta, table)


def test_mmi_rejects_moved_marginal(mmi_case):
    case, value, table = mmi_case
    moved = table.copy()
    moved[0, 0] += 1e-6
    moved[1, 0] -= 1e-6
    assert checks.check_mmi(case, value, moved)


def test_mmi_rejects_wrong_edge_values(mmi_case):
    case, _, table = mmi_case
    above = dict(case, kind="above_independent", d=10.0)
    independent = np.outer(case["mu"], case["psi"])
    assert checks.check_mmi(above, 0.0, independent) == []
    assert checks.check_mmi(above, SHIFT, independent)
    below = dict(case, kind="infeasible", d=0.0)
    assert checks.check_mmi(below, math.inf, None) == []
    assert checks.check_mmi(below, 1.0, table)


def _perturb_rates(rates, row, delta):
    out = np.array(rates, dtype=float)
    out[row, 1] += delta
    return out


def test_bsc_curve_checks():
    d = 0.2
    rates = ocrate.bsc_boundary(d, np.linspace(0, checks.h2(d), 101)).rates()
    assert checks.check_bsc_curve("t", d, rates) == []
    for row in (0, 50, -1):
        assert checks.check_bsc_curve("t", d, _perturb_rates(rates, row,
                                                             SHIFT))


def test_gauss_curve_checks():
    sx, sy, d = 1.2, 0.9, 0.7
    spec = ocrate.GaussianSpec(sx, sy, d)
    grid = np.append(np.linspace(0, 4, 101), math.inf)
    rates = ocrate.gaussian_boundary(spec, grid).rates()
    assert checks.check_gauss_curve("t", sx, sy, d, rates) == []
    for row in (0, 50, -1):
        assert checks.check_gauss_curve(
            "t", sx, sy, d, _perturb_rates(rates, row, SHIFT))


def test_i0_checks():
    u = np.array([0.5, 0.5])
    case = dict(name="t", binary_uniform=True, mu=u, psi=u,
                rho=1.0 - np.eye(2), d=0.2)
    value, triple = ocrate.i0_solver(ocrate.Pmf(u), ocrate.Pmf(u),
                                     ocrate.DistortionMatrix(case["rho"]),
                                     case["d"], restarts=8, seed=0)
    w, a, b = (triple.weights.probs, triple.x_given_u.rows,
               triple.y_given_u.rows)
    assert checks.check_i0(case, value, w, a, b) == []
    assert checks.check_i0(case, value + SHIFT, w, a, b)
    moved = w.copy()
    moved[0] += 1e-6
    moved[1] -= 1e-6
    assert checks.check_i0(case, value, moved, a, b)


@pytest.fixture(scope="module")
def exact_case():
    rng = np.random.default_rng(3)
    case = workloads._sim_case("t", workloads._triple(rng, 2), 4, 0.6, 0.6,
                               16, 5, "exact")
    cfg = workloads._sim_config(ocrate, case)
    report = ocrate.run_simulation(cfg).to_dict()
    codebook = ocrate.generate_codebook(cfg.triple, cfg.n, cfg.r, cfg.rc,
                                        cfg.seed)
    return case, report, codebook


def test_exact_accepts_simulator_output(exact_case):
    case, report, codebook = exact_case
    assert checks.check_exact_report(case, report, codebook) == []


@pytest.mark.parametrize("field", ["tv_pre_correction",
                                   "pre_correction_distortion",
                                   "idealized_distortion",
                                   "tv_output_vs_iid"])
def test_exact_rejects_shifted_field(exact_case, field):
    case, report, codebook = exact_case
    bad = dict(report, **{field: report[field] + SHIFT})
    assert checks.check_exact_report(case, bad, codebook)


def test_exact_rejects_failed_triangle(exact_case):
    case, report, codebook = exact_case
    bad = copy.deepcopy(report)
    bad["trials"][3]["triangle_ok"] = False
    assert checks.check_exact_report(case, bad, codebook)


def test_plain_pre_correction_sees_a_moved_codeword(exact_case):
    case, report, codebook = exact_case
    moved = codebook.copy()
    moved[0, 0, 0] = 1 - moved[0, 0, 0]
    assert checks.check_exact_report(case, report, moved)


def test_mixture_law_loop():
    rng = np.random.default_rng(1)
    words = rng.choice(2, size=(5, 4))
    channel = np.array([[0.8, 0.2], [0.3, 0.7]])
    law = ocrate.mixture_output_law(words, ocrate.Channel(channel))
    assert np.max(np.abs(law - checks.plain_mixture_law(words,
                                                        channel))) < 1e-15
    words[0, 0] = 1 - words[0, 0]
    assert np.max(np.abs(law - checks.plain_mixture_law(words,
                                                        channel))) > SHIFT


@pytest.fixture(scope="module")
def mc_case():
    rng = np.random.default_rng(4)
    case = workloads._sim_case("t", workloads._triple(rng, 2), 16, 0.3, 0.1,
                               300, 2, "monte-carlo")
    cfg = workloads._sim_config(ocrate, case)
    report, decoded, plans = workloads.mc_capture(ocrate, cfg)
    return case, report, decoded, plans[0]


def test_mc_accepts_simulator_output(mc_case):
    case, report, decoded, plan = mc_case
    assert checks.check_mc_report(case, report, decoded, *plan) == []
    op = workloads._mc_op(ocrate, case)
    assert op.check(op.run()) == []


def test_mc_rejects_shifted_moves(mc_case):
    case, report, decoded, plan = mc_case
    bad = copy.deepcopy(report)
    for trial in bad["trials"]:
        trial["correction_move"] += 0.05
    assert checks.check_mc_report(case, bad, decoded, *plan)


def test_mc_rejects_moved_plan_marginal(mc_case):
    case, report, decoded, (source, table) = mc_case
    moved = table.copy()
    moved[0, 0] += 1e-6
    moved[0, 1] -= 1e-6
    moved[1, 1] += 1e-6
    moved[1, 0] -= 1e-6
    assert checks.check_mc_report(case, report, decoded, source, moved) == []
    moved[0, 0] += 1e-6
    moved[1, 0] -= 1e-6
    assert checks.check_mc_report(case, report, decoded, source, moved)


def test_mc_rejects_fallbacks(mc_case):
    case, report, decoded, plan = mc_case
    bad = dict(report, encoder_fallbacks=1)
    assert checks.check_mc_report(case, bad, decoded, *plan)


def test_cli_closed_form_check():
    good = (0, b'{"status": "ok", "value_bits": %r, "witness": null}'
            % checks.wyner_common_information(0.25), {})
    assert workloads.check_cli("c0", [], good, ocrate) == []
    shifted = (0, b'{"status": "ok", "value_bits": %r, "witness": null}'
               % (checks.wyner_common_information(0.25) + SHIFT), {})
    assert workloads.check_cli("c0", [], shifted, ocrate)
    assert workloads.check_cli("c0", [], (1, b"", {}), ocrate)
