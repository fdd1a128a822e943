"""Inputs and operations of the four workloads.

Each workload is a fixed list of operations built from the workload
seed. An operation runs one public call into ocrate and returns its
output; its check looks at that output with the independent checkers in
checks.py. Inputs are drawn from the seed, so the same seed gives the
same operations; the few inputs that do not depend on it say why where
they are built.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"

# workload tags keep the seed streams of different workloads apart
_TAGS = {"regions": 1, "sim-exact": 2, "sim-mc": 3}

# Dirichlet(8) marginals keep every symbol's mass well away from zero;
# the conditional-gradient MMI solver needs thousands of oracle calls
# when a symbol is nearly massless, which the README records
MARGINAL_CONCENTRATION = 8.0
CHANNEL_CONCENTRATION = 4.0
I0_RESTARTS = 8
I0_SEED = 0
I0_BINARY_BUDGETS = (0.15, 0.3)
# curves are the most numerous operations, so the median operation
# latency of the regions workload is a boundary trace
BSC_CURVES = 12
GAUSS_CURVES = 4
CURVE_POINTS = 201


@dataclass
class Op:
    """One operation: run() is timed, check(output) is not; check returns
    a list of failure messages."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def fingerprint(obj) -> str:
    """Stable digest of an output, used to require identical outputs in
    every round of a run."""
    h = hashlib.sha256()

    def feed(x):
        if x is None or isinstance(x, (bool, int, str)):
            h.update(repr(x).encode())
        elif isinstance(x, float):
            h.update(x.hex().encode())
        elif isinstance(x, bytes):
            h.update(x)
        elif isinstance(x, np.ndarray):
            h.update(str((x.dtype, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for key in sorted(x):
                feed(key)
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        elif hasattr(x, "to_dict"):
            feed(x.to_dict())
        else:
            raise TypeError(f"no digest for {type(x).__name__}")

    feed(obj)
    return h.hexdigest()


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _TAGS[workload]]))


def _dirichlet(rng, size: int, conc: float, rows: int | None = None):
    return rng.dirichlet(conc * np.ones(size), size=rows)


# ---------------------------------------------------------------------------
# regions


def _mmi_op(ocrate, case: dict) -> Op:
    mu, psi = ocrate.Pmf(case["mu"]), ocrate.Pmf(case["psi"])
    rho = ocrate.DistortionMatrix(case["rho"])

    def run():
        value, coupling = ocrate.region.mmi_constrained_output(
            mu, psi, rho, case["d"])
        return value, None if coupling is None else coupling.table

    return Op(case["name"], run, lambda out: checks.check_mmi(case, *out))


def _i0_op(ocrate, case: dict, seed: int) -> Op:
    mu, psi = ocrate.Pmf(case["mu"]), ocrate.Pmf(case["psi"])
    rho = ocrate.DistortionMatrix(case["rho"])

    def run():
        value, triple = ocrate.region.i0_solver(
            mu, psi, rho, case["d"], restarts=I0_RESTARTS, seed=seed)
        if triple is None:
            return value, None, None, None
        return (value, triple.weights.probs, triple.x_given_u.rows,
                triple.y_given_u.rows)

    return Op(case["name"], run, lambda out: checks.check_i0(case, *out))


def _coupling_case(rng, size: int, hamming: bool):
    mu = _dirichlet(rng, size, MARGINAL_CONCENTRATION)
    psi = _dirichlet(rng, size, MARGINAL_CONCENTRATION)
    rho = 1.0 - np.eye(size) if hamming else rng.random((size, size))
    low = checks.min_transport_cost(mu, psi, rho)
    high = float(mu @ rho @ psi)
    return mu, psi, rho, low, high


def regions_ops(ocrate, seed: int) -> list[Op]:
    rng = _rng("regions", seed)
    ops = []
    for size in range(2, 7):
        for cost in ("hamming", "uniform"):
            mu, psi, rho, low, high = _coupling_case(rng, size,
                                                     cost == "hamming")
            ops.append(_mmi_op(ocrate, dict(
                name=f"mmi-{size}-{cost}", kind="interior", mu=mu, psi=psi,
                rho=rho, d=low + 0.5 * (high - low))))

    # edge budgets on one ternary Hamming instance; a budget exactly at
    # the independent cost is left out, because which side of the
    # program's own float sum it lands on depends on rounding
    mu, psi, rho, low, high = _coupling_case(rng, 3, True)
    for kind, d in (("at_min", low), ("above_independent", high + 0.1),
                    ("infeasible", 0.5 * low)):
        ops.append(_mmi_op(ocrate, dict(
            name=f"mmi-edge-{kind}", kind=kind, mu=mu, psi=psi, rho=rho,
            d=d)))

    # i0 runs on inputs that do not depend on the seed: with 8 restarts
    # its time moves by 25-35% with the restart seed alone
    uniform = np.array([0.5, 0.5])
    for d in I0_BINARY_BUDGETS:
        ops.append(_i0_op(ocrate, dict(
            name=f"i0-binary-{d}", binary_uniform=True, mu=uniform,
            psi=uniform, rho=1.0 - np.eye(2), d=d), I0_SEED))
    mu, psi, rho, low, high = _coupling_case(
        np.random.default_rng(I0_SEED), 3, True)
    ops.append(_i0_op(ocrate, dict(
        name="i0-ternary", mu=mu, psi=psi, rho=rho,
        d=low + 0.5 * (high - low)), I0_SEED))

    # one d in each of BSC_CURVES equal parts of (0.05, 0.45): curve time
    # moves by about 10% with d, and op_p50_s is one of these curves, so
    # every seed gets the same spread of d
    curves = []
    strata = np.arange(BSC_CURVES) + rng.random(BSC_CURVES)
    for d in 0.05 + 0.4 * strata / BSC_CURVES:
        d = float(d)
        grid = np.linspace(0.0, checks.h2(d), CURVE_POINTS)
        curves.append(Op(
            f"bsc-curve-{d:.4f}",
            lambda d=d, grid=grid: ocrate.region.bsc_boundary(d, grid).rates(),
            lambda out, d=d: checks.check_bsc_curve(f"bsc-{d:.4f}", d, out)))
    for _ in range(GAUSS_CURVES):
        sx, sy = (float(v) for v in rng.uniform(0.7, 1.5, size=2))
        gap = (sx - sy) ** 2
        d = gap + float(rng.uniform(0.2, 0.8)) * (sx * sx + sy * sy - gap)
        spec = ocrate.GaussianSpec(sx, sy, d)
        grid = np.append(np.linspace(0.0, 4.0, CURVE_POINTS), math.inf)
        curves.append(Op(
            f"gauss-curve-{sx:.3f}-{sy:.3f}",
            lambda spec=spec, grid=grid:
                ocrate.region.gaussian_boundary(spec, grid).rates(),
            lambda out, sx=sx, sy=sy, d=d: checks.check_gauss_curve(
                f"gauss-{sx:.3f}-{sy:.3f}", sx, sy, d, out)))
    # one curve after each solver call: the curves set op_p50_s, and
    # spread over the whole round their samples see the host's speed
    # over the whole run, not over one burst of 0.4 s per round
    return interleave(ops, curves)


def interleave(first: list, second: list) -> list:
    """first[0], second[0], first[1], second[1], ...; the rest of the
    longer list at the end."""
    merged = []
    for i in range(max(len(first), len(second))):
        merged += first[i:i + 1] + second[i:i + 1]
    return merged


# ---------------------------------------------------------------------------
# simulator


def _triple(rng, size: int):
    weights = _dirichlet(rng, size, MARGINAL_CONCENTRATION)
    a = _dirichlet(rng, size, CHANNEL_CONCENTRATION, rows=size)
    b = _dirichlet(rng, size, CHANNEL_CONCENTRATION, rows=size)
    return weights, a, b


def _sim_case(name, triple, n, r, rc, trials, seed, mode) -> dict:
    weights, a, b = triple
    return dict(name=name, weights=weights, a=a, b=b,
                rho=1.0 - np.eye(a.shape[1]), n=n, r=r, rc=rc,
                trials=trials, seed=seed, mode=mode)


def _sim_config(ocrate, case: dict):
    triple = ocrate.MarkovTriple(ocrate.Pmf(case["weights"]),
                                 ocrate.Channel(case["a"]),
                                 ocrate.Channel(case["b"]))
    return ocrate.SimConfig(
        triple=triple, rho=ocrate.DistortionMatrix(case["rho"]), n=case["n"],
        r=case["r"], rc=case["rc"], trials=case["trials"], seed=case["seed"],
        correction=True, mode=case["mode"])


# the plain-loop recomputation walks (k, source block, j); above this
# many steps it would cost more than the whole round
PLAIN_LOOP_STEPS = 20_000


def _exact_op(ocrate, case: dict) -> Op:
    cfg = _sim_config(ocrate, case)

    def run():
        return ocrate.codesim.run_simulation(cfg).to_dict()

    def check(report):
        codebook = None
        nx = case["a"].shape[1]
        if (report["num_k"] * nx ** case["n"] * report["num_j"]
                <= PLAIN_LOOP_STEPS):
            codebook = ocrate.generate_codebook(
                cfg.triple, cfg.n, cfg.r, cfg.rc, cfg.seed)
        return checks.check_exact_report(case, report, codebook)

    return Op(case["name"], run, check)


def _demo_triple():
    """The triple of demos/configs/simulate.json."""
    cfg = _read_config("simulate.json")
    return (np.array(cfg["weights"], dtype=float),
            np.array(cfg["x_given_u"], dtype=float),
            np.array(cfg["y_given_u"], dtype=float))


def sim_exact_ops(ocrate, seed: int) -> list[Op]:
    rng = _rng("sim-exact", seed)
    binary, ternary = _triple(rng, 2), _triple(rng, 3)
    ops = []
    # seed-drawn triples stay at |Y|^n <= 27: from 32 output blocks up,
    # solve_ot rejects the block-correction plan on some seeds (see
    # CHANGES.md), and a failure that comes and goes with the seed
    # cannot be part of the benchmark
    for n, r, rc in ((3, 0.6, 0.6), (4, 0.6, 0.6), (4, 0.5, 0.3)):
        ops.append(_exact_op(ocrate, _sim_case(
            f"exact-binary-n{n}-r{r}-rc{rc}", binary, n, r, rc, 64, seed,
            "exact")))
    for n, r, rc in ((2, 0.6, 0.6), (3, 0.6, 0.6), (3, 0.5, 0.3)):
        ops.append(_exact_op(ocrate, _sim_case(
            f"exact-ternary-n{n}-r{r}-rc{rc}", ternary, n, r, rc, 64, seed,
            "exact")))
    # the large cases run on the demo triple with fixed config seeds, so
    # each one passes or fails the same way in every run; n=8 with seed 1
    # fails every time on that fault and is counted in `failed`
    demo = _demo_triple()
    for n, r, rc, sim_seed in ((6, 0.6, 0.6, 0), (7, 0.5, 0.5, 0),
                               (8, 0.6, 0.6, 1)):
        ops.append(_exact_op(ocrate, _sim_case(
            f"exact-demo-n{n}-r{r}-rc{rc}-seed{sim_seed}", demo, n, r, rc,
            64, sim_seed, "exact")))

    p_v = _dirichlet(rng, 2, MARGINAL_CONCENTRATION)
    w = _dirichlet(rng, 2, CHANNEL_CONCENTRATION, rows=2)
    for n in (4, 8, 12):
        ops.append(Op(
            f"softcover-n{n}",
            lambda n=n: ocrate.codesim.soft_covering_exact(
                ocrate.Pmf(p_v), ocrate.Channel(w), n, 0.8, seed,
                num_codebooks=4),
            lambda tv, n=n: [] if 0.0 <= tv <= 1.0 else
            [f"softcover-n{n}: mean TV {tv!r} outside [0, 1]"]))
    words = rng.choice(2, size=(24, 8), p=p_v)
    ops.append(Op(
        "mixture-law-n8",
        lambda: ocrate.codesim.mixture_output_law(words, ocrate.Channel(w)),
        lambda law: [] if np.max(np.abs(
            law - checks.plain_mixture_law(words, w))) <= 1e-12 else
        ["mixture-law-n8: law differs from the plain-loop recomputation"]))
    return ops


def mc_capture(ocrate, cfg):
    """Run a simulation with the decoder outputs and the correction's
    transport problems captured; the report itself does not carry them.
    Returns (report dict, decoded blocks, [(source law, plan table)])."""
    codesim = ocrate.codesim
    decoded, plans = [], []
    decode, solve_ot = codesim.decode, codesim.solve_ot

    def decode_capture(*args, **kwargs):
        block = decode(*args, **kwargs)
        decoded.append(np.array(block))
        return block

    def solve_ot_capture(problem, *args, **kwargs):
        plan = solve_ot(problem, *args, **kwargs)
        plans.append((problem.source.probs.copy(), plan.table.copy()))
        return plan

    codesim.decode, codesim.solve_ot = decode_capture, solve_ot_capture
    try:
        report = codesim.run_simulation(cfg).to_dict()
    finally:
        codesim.decode, codesim.solve_ot = decode, solve_ot
    return report, np.stack(decoded), plans


def _mc_op(ocrate, case: dict) -> Op:
    cfg = _sim_config(ocrate, case)

    def run():
        return ocrate.codesim.run_simulation(cfg).to_dict()

    def check(report):
        again, decoded, plans = mc_capture(ocrate, cfg)
        if fingerprint(again) != fingerprint(report):
            return [f"{case['name']}: a rerun with the same seed differs"]
        if len(plans) != 1:
            return [f"{case['name']}: expected one correction plan, "
                    f"saw {len(plans)}"]
        return checks.check_mc_report(case, report, decoded, *plans[0])

    return Op(case["name"], run, check)


def sim_mc_ops(ocrate, seed: int) -> list[Op]:
    rng = _rng("sim-mc", seed)
    binary, ternary = _triple(rng, 2), _triple(rng, 3)
    ops = []
    for n, r, rc, trials in ((16, 0.3, 0.1, 2000), (24, 0.3, 0.1, 2000),
                             (32, 0.3, 0.1, 1000), (40, 0.3, 0.1, 500),
                             (48, 0.2, 0.1, 1000)):
        ops.append(_mc_op(ocrate, _sim_case(
            f"mc-binary-n{n}-r{r}-rc{rc}", binary, n, r, rc, trials, seed,
            "monte-carlo")))
    for n, r, rc, trials in ((16, 0.4, 0.2, 2000), (24, 0.3, 0.1, 1000)):
        ops.append(_mc_op(ocrate, _sim_case(
            f"mc-ternary-n{n}-r{r}-rc{rc}", ternary, n, r, rc, trials, seed,
            "monte-carlo")))
    return ops


# ---------------------------------------------------------------------------
# command line


def child_env() -> dict:
    """Environment of every process the benchmark starts: one BLAS
    thread, the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


CONFIGS = ROOT / "demos" / "configs"


def cli_commands(seed: int, out_dir: Path) -> list[tuple[str, list[str]]]:
    """Every CLI command on its demos/configs input. The seeded commands
    take the workload seed; i0 runs 8 of its config's 64 restarts so one
    command does not take half the round."""
    d = "0.25"
    return [
        ("region-bsc", ["region-bsc", "--config",
                        str(CONFIGS / "region_bsc.json")]),
        ("region-gauss", ["region-gauss", "--config",
                          str(CONFIGS / "region_gauss.json")]),
        ("mmi", ["mmi", "--config", str(CONFIGS / "mmi.json")]),
        ("i0", ["i0", "--config", str(CONFIGS / "i0.json"),
                "--restarts", str(I0_RESTARTS), "--seed", str(seed)]),
        ("c0", ["c0", "--d", d]),
        ("wyner", ["wyner", "--a0", d]),
        ("synthesis-bsc", ["synthesis-bsc", "--d", d]),
        ("det-decoder", ["det-decoder", "--config",
                         str(CONFIGS / "det_decoder.json")]),
        ("empirical", ["empirical", "--config",
                       str(CONFIGS / "empirical.json")]),
        ("simulate", ["simulate", "--config", str(CONFIGS / "simulate.json"),
                      "--seed", str(seed), "--out",
                      str(out_dir / "simulate.json")]),
        ("softcover", ["softcover", "--config",
                       str(CONFIGS / "softcover.json"), "--seed", str(seed)]),
    ]


def _read_config(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _csv_rates(text: str) -> np.ndarray:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return np.array([[float(cell) for cell in row] for row in rows])


# CSV cells carry 6 significant digits
CSV_TOL = 5e-6


def check_cli(name: str, args: list[str], out: tuple, ocrate) -> list[str]:
    """Check one command's (exit code, stdout, extra files) against
    closed forms and the independent checkers."""
    code, stdout, files = out
    tag = f"cli {name}"
    if code != 0:
        return [f"{tag}: exit code {code}"]
    text = stdout.decode()
    if name == "region-bsc":
        d = _read_config("region_bsc.json")["d"]
        rates = _csv_rates(text)
        return checks.check_bsc_curve(tag, d, rates, tol=1e-5,
                                      end_tol=CSV_TOL)
    if name == "region-gauss":
        cfg = _read_config("region_gauss.json")
        rates = _csv_rates(text)
        return checks.check_gauss_curve(tag, cfg["sigma_x"], cfg["sigma_y"],
                                        cfg["d"], rates, tol=1e-5,
                                        end_tol=CSV_TOL)
    if name == "softcover":
        cfg = _read_config("softcover.json")
        rates = _csv_rates(text)
        if (list(rates[:, 0]) != [float(n) for n in cfg["n_values"]]
                or np.any(rates[:, 1] < 0.0) or np.any(rates[:, 1] > 1.0)):
            return [f"{tag}: rows do not match n_values or TV leaves [0, 1]"]
        return []
    if name == "simulate":
        cfg = _read_config("simulate.json")
        report = json.loads(files["simulate.json"])
        case = dict(name=tag, weights=np.array(cfg["weights"]),
                    a=np.array(cfg["x_given_u"]), b=np.array(cfg["y_given_u"]),
                    rho=np.array(cfg["rho"]), n=cfg["n"], r=cfg["r"],
                    rc=cfg["rc"], trials=cfg["trials"],
                    seed=int(args[args.index("--seed") + 1]), mode="exact")
        codebook = ocrate.generate_codebook(
            _sim_config(ocrate, case).triple, case["n"], case["r"],
            case["rc"], case["seed"])
        return checks.check_exact_report(case, report, codebook)
    payload = json.loads(text)
    value = payload["value_bits"]
    if name in ("c0", "synthesis-bsc", "wyner"):
        expect = checks.wyner_common_information(0.25)
    elif name == "det-decoder":
        cfg = _read_config("det_decoder.json")
        psi = np.array(cfg["psi"])
        entropy = -float(np.sum(psi * np.log2(psi)))
        expect = max(checks.bsc_plateau(cfg["d"]), entropy - cfg["rc"])
    elif name == "empirical":
        expect = checks.bsc_plateau(_read_config("empirical.json")["d"])
    elif name == "mmi":
        cfg = _read_config("mmi.json")
        case = dict(name=tag, kind="interior", mu=np.array(cfg["mu"]),
                    psi=np.array(cfg["psi"]), rho=np.array(cfg["rho"]),
                    d=cfg["d"])
        failures = checks.check_mmi(case, value, payload["witness"])
        expect = checks.bsc_plateau(cfg["d"])
        if abs(value - expect) > checks.CLOSED_FORM_TOL:
            failures.append(f"{tag}: {value!r} differs from 1 - h(d)")
        return failures
    elif name == "i0":
        cfg = _read_config("i0.json")
        case = dict(name=tag, binary_uniform=True, mu=np.array(cfg["mu"]),
                    psi=np.array(cfg["psi"]), rho=np.array(cfg["rho"]),
                    d=cfg["d"])
        w = payload["witness"]
        return checks.check_i0(case, value, w["weights"], w["x_given_u"],
                               w["y_given_u"])
    else:
        return [f"{tag}: no check for this command"]
    if payload["status"] != "ok" or abs(value - expect) > checks.CLOSED_FORM_TOL:
        return [f"{tag}: value {value!r} differs from the closed form "
                f"{expect!r}"]
    return []


def run_cli(argv: list[str], out_dir: Path, env: dict,
            runner: list[str] | None = None) -> tuple:
    """Run one command in a fresh interpreter; return (exit code, stdout,
    {file name: bytes} for the files it wrote into out_dir)."""
    for stale in out_dir.iterdir():
        stale.unlink()
    prefix = runner or [sys.executable, "-m", "ocrate"]
    proc = subprocess.run(prefix + argv, env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return proc.returncode, proc.stdout, files


def cli_ops(ocrate, seed: int, runner: list[str] | None = None,
            env: dict | None = None) -> list[Op]:
    out_dir = RESULTS / "cli-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = env or child_env()
    ops = []
    for name, argv in cli_commands(seed, out_dir):
        ops.append(Op(
            f"cli-{name}",
            lambda argv=argv: run_cli(argv, out_dir, env, runner),
            lambda out, name=name, argv=argv: check_cli(name, argv, out,
                                                        ocrate)))
    return ops


BUILDERS = {"regions": regions_ops, "sim-exact": sim_exact_ops,
            "sim-mc": sim_mc_ops, "cli": cli_ops}


def warm_up(ocrate, workload: str) -> None:
    """One small call per layer the workload reaches, so lazy imports,
    first-call costs and the OS file cache are settled before timing."""
    if workload == "cli":
        run_cli(["c0", "--d", "0.25"], RESULTS / "cli-out", child_env())
        return
    uniform = ocrate.Pmf([0.5, 0.5])
    hamming = ocrate.DistortionMatrix.hamming(2)
    if workload == "regions":
        ocrate.region.mmi_constrained_output(uniform, uniform, hamming, 0.2)
        ocrate.region.i0_solver(uniform, uniform, hamming, 0.2, restarts=1)
        ocrate.region.bsc_boundary(0.2, [0.0, 0.1])
        return
    triple = ocrate.MarkovTriple(uniform, ocrate.Channel.bsc(0.2),
                                 ocrate.Channel.bsc(0.1))
    mode = "exact" if workload == "sim-exact" else "monte-carlo"
    ocrate.run_simulation(ocrate.SimConfig(
        triple=triple, rho=hamming, n=3, r=0.5, rc=0.5, trials=8, seed=0,
        mode=mode))
    if workload == "sim-exact":
        ocrate.soft_covering_exact(uniform, ocrate.Channel.bsc(0.2), 3, 0.5, 0)
