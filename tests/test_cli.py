"""End-to-end command line tests through subprocess: CSV and JSON
contracts, exit codes, determinism of written artifacts."""

import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ocrate import binary_entropy, c0_bsc
from ocrate.cli import MAX_POINTS
from ocrate.region import I0_RESTARTS_CAP

HAMMING_ROWS = [[0.0, 1.0], [1.0, 0.0]]
BSC25_ROWS = [[0.75, 0.25], [0.25, 0.75]]
IDENTITY_ROWS = [[1.0, 0.0], [0.0, 1.0]]
PINNED = Path(__file__).parent / "pinned"
DEMO_CONFIGS = Path(__file__).parents[1] / "demos" / "configs"


def run_cli(*argv, env=None):
    return subprocess.run([sys.executable, "-m", "ocrate.cli", *argv],
                          capture_output=True, text=True, env=env)


def parse_csv(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_usage_paths_exit_with_validation_code():
    proc = run_cli()
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()
    proc = run_cli("region-bsc", "--bogus")
    assert proc.returncode == 1
    proc = run_cli("no-such-command")
    assert proc.returncode == 1


def test_region_bsc_anchors_and_shape():
    """Default grid: 41 rows from rc = 0 up to the entropy of the
    distortion, rate 0.3991 at the left end and the one-bit complement
    of the entropy on the plateau."""
    proc = run_cli("region-bsc", "--d", "0.25")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["rc", "r_min"]
    assert len(rows) == 41
    rc = np.array([float(r[0]) for r in rows])
    r_min = np.array([float(r[1]) for r in rows])
    assert rc[0] == 0.0
    assert abs(rc[-1] - binary_entropy(0.25)) <= 1e-5
    assert abs(r_min[0] - 0.3991) <= 5e-3
    assert abs(r_min[-1] - (1.0 - binary_entropy(0.25))) <= 1e-5
    assert np.all(np.diff(r_min) <= 1e-12)


def test_region_bsc_cells_use_six_significant_digits():
    proc = run_cli("region-bsc", "--d", "0.15", "--points", "7")
    header, rows = parse_csv(proc.stdout)
    for row in rows:
        for cell in row:
            assert cell == f"{float(cell):.6g}"


def test_region_bsc_domain_exit():
    assert run_cli("region-bsc", "--d", "0.6").returncode == 2
    assert run_cli("region-bsc", "--d", "0").returncode == 2
    assert run_cli("region-bsc", "--d", "0.2", "--points", "1").returncode == 1
    assert run_cli("region-bsc").returncode == 1


def test_region_gauss_curve_and_infinite_tail():
    proc = run_cli("region-gauss", "--sigma-x", "1.0", "--sigma-y", "1.0",
                   "--d", "0.8", "--points", "9")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["rc", "r_min"]
    assert len(rows) == 10
    assert abs(float(rows[0][1]) - 0.6610) <= 2e-2
    assert rows[-1][0] == "inf"
    assert abs(float(rows[-1][1]) - math.log2(1.25)) <= 1e-5
    r_min = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(r_min, r_min[1:]))


def test_region_gauss_loose_budget_costs_nothing():
    # distortion budget at the sum of the variances: independence is
    # already close enough, so every row is zero, not -0 or nan
    proc = run_cli("region-gauss", "--sigma-x", "1.0", "--sigma-y", "1.0",
                   "--d", "2.0", "--points", "5")
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert [r[1] for r in rows] == ["0"] * 6
    assert rows[-1][0] == "inf"


def test_region_gauss_perfect_correlation_rows_are_infinite():
    # d = (sigma_x - sigma_y)^2: only the deterministic coupling fits
    proc = run_cli("region-gauss", "--sigma-x", "1.0", "--sigma-y", "2.0",
                   "--d", "1.0", "--points", "5")
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert [r[1] for r in rows] == ["inf"] * 6
    assert rows[-1][0] == "inf"


def test_region_gauss_rejects_an_infinite_rc_max(tmp_path):
    gauss = ("region-gauss", "--sigma-x", "1", "--sigma-y", "1", "--d", "0.5")
    for argv in ((*gauss, "--rc-max", "inf"), (*gauss, "--rc-max", "nan"),
                 (*gauss, "--config", write_config(tmp_path,
                                                   {"rc_max": 1e400}))):
        proc = run_cli(*argv)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert proc.stderr == ("ocrate: invalid input: rc_max must be "
                               "positive and finite\n")
        assert proc.stdout == ""


def _assert_json_round_trip(text):
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
    return payload


def test_wyner_json_contract():
    proc = run_cli("wyner", "--a0", "0.25")
    assert proc.returncode == 0
    payload = _assert_json_round_trip(proc.stdout)
    assert payload["status"] == "ok"
    assert payload["witness"] is None
    assert abs(payload["value_bits"] - 0.6095260510734206) <= 1e-9


def test_c0_matches_library():
    proc = run_cli("c0", "--d", "0.25")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["value_bits"] - c0_bsc(0.25)) <= 1e-12


def test_mmi_json_and_witness(tmp_path):
    cfg = write_config(tmp_path, {"mu": [0.5, 0.5], "psi": [0.5, 0.5],
                                  "rho": HAMMING_ROWS, "d": 0.25})
    proc = run_cli("mmi", "--config", cfg)
    assert proc.returncode == 0
    payload = _assert_json_round_trip(proc.stdout)
    assert payload["status"] == "ok"
    assert abs(payload["value_bits"] - (1.0 - binary_entropy(0.25))) <= 1e-6
    table = np.array(payload["witness"])
    assert table.shape == (2, 2)
    assert abs(table.sum() - 1.0) <= 1e-9


def test_mmi_infeasible_payload(tmp_path):
    # marginals 0.8 apart in total variation cannot meet a 0.2 budget;
    # the payload reports it, the exit code stays 0
    cfg = write_config(tmp_path, {"mu": [0.9, 0.1], "psi": [0.1, 0.9],
                                  "rho": HAMMING_ROWS, "d": 0.2})
    proc = run_cli("mmi", "--config", cfg)
    assert proc.returncode == 0
    payload = _assert_json_round_trip(proc.stdout)
    assert payload == {"status": "infeasible", "value_bits": "inf",
                       "witness": None}


def test_mmi_config_validation(tmp_path):
    missing = write_config(tmp_path, {"mu": [0.5, 0.5]}, "missing.json")
    assert run_cli("mmi", "--config", missing).returncode == 1
    extra = write_config(tmp_path, {"mu": [0.5, 0.5], "psi": [0.5, 0.5],
                                    "rho": HAMMING_ROWS, "d": 0.25,
                                    "bogus": 1}, "extra.json")
    proc = run_cli("mmi", "--config", extra)
    assert proc.returncode == 1
    assert "bogus" in proc.stderr
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli("mmi", "--config", str(broken)).returncode == 1
    assert run_cli("mmi").returncode == 1


def test_mmi_with_symbols_lighter_than_the_lp_tolerance(tmp_path):
    # HiGHS presolve called this transport problem infeasible, and the
    # RuntimeError ended the command in a traceback
    cfg = write_config(tmp_path, {
        "mu": [0.9999998991202488, 3.114955993789507e-08,
               6.973019128130105e-08],
        "psi": [4.129578451052156e-25, 0.9999999999993511,
                6.48925357893404e-13],
        "rho": [[0.965, 0.023, 0.526], [0.906, 0.03, 0.609],
                [0.642, 0.98, 0.858]],
        "d": 0.9})
    proc = run_cli("mmi", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_mmi_sinkhorn_sweep_cap_exits_with_cap_code(tmp_path):
    # just above the transport minimum the optimal plan has two cells of
    # size about 9e-6 and the scaling would need millions of sweeps; the
    # sweep cap must end the command as a resource cap, not a traceback
    ninth = 1.0 / 9.0
    cfg = write_config(tmp_path, {"mu": [0.5, 0.5], "psi": [0.5, 0.5],
                                  "rho": [[ninth, ninth], [ninth, 2 * ninth]],
                                  "d": ninth + 1e-6})
    proc = run_cli("mmi", "--config", cfg)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("ocrate: resource cap: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_i0_reaches_known_value(tmp_path):
    cfg = write_config(tmp_path, {"mu": [0.5, 0.5], "psi": [0.5, 0.5],
                                  "rho": HAMMING_ROWS, "d": 0.25,
                                  "restarts": 8, "seed": 0})
    proc = run_cli("i0", "--config", cfg)
    assert proc.returncode == 0
    payload = _assert_json_round_trip(proc.stdout)
    assert payload["status"] == "ok"
    assert abs(payload["value_bits"] - 0.3991) <= 5e-3
    witness = payload["witness"]
    assert set(witness) == {"weights", "x_given_u", "y_given_u"}
    assert abs(sum(witness["weights"]) - 1.0) <= 1e-9


def _limit_address_space():
    # a solver that allocated its starts before the cap check would end
    # in a MemoryError here instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_i0_restarts_past_the_cap_exit_with_cap_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ocrate.cli", "i0", "--config",
         str(DEMO_CONFIGS / "i0.json"), "--restarts", "1000000000"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (f"ocrate: resource cap: 1000000000 restarts "
                           f"exceed the cap of {I0_RESTARTS_CAP}\n")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_det_decoder_with_infinite_shared_rate(tmp_path):
    base = {"mu": [0.5, 0.5], "psi": [0.5, 0.5], "rho": HAMMING_ROWS,
            "d": 0.25}
    unlimited = write_config(tmp_path, dict(base, rc="inf"), "inf.json")
    proc = run_cli("det-decoder", "--config", unlimited)
    assert proc.returncode == 0
    at_inf = json.loads(proc.stdout)["value_bits"]
    assert abs(at_inf - (1.0 - binary_entropy(0.25))) <= 1e-6
    starved = write_config(tmp_path, dict(base, rc=0.0), "zero.json")
    at_zero = json.loads(run_cli("det-decoder", "--config",
                                 starved).stdout)["value_bits"]
    assert at_zero >= at_inf - 1e-12


def test_empirical_and_synthesis_smoke(tmp_path):
    cfg = write_config(tmp_path, {"mu": [0.5, 0.5], "psi": [0.5, 0.5],
                                  "rho": HAMMING_ROWS, "d": 0.25})
    payload = json.loads(run_cli("empirical", "--config", cfg).stdout)
    assert payload["status"] == "ok" and payload["value_bits"] >= 0.0
    payload = json.loads(run_cli("synthesis-bsc", "--d", "0.25").stdout)
    assert payload["status"] == "ok" and payload["value_bits"] >= 0.0


def test_softcover_csv(tmp_path):
    cfg = write_config(tmp_path, {"weights": [0.5, 0.5],
                                  "channel": [[0.9, 0.1], [0.1, 0.9]],
                                  "r": 1.5, "n_values": [1, 2],
                                  "codebooks": 2})
    proc = run_cli("softcover", "--config", cfg)
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["n", "mean_tv"]
    assert [int(r[0]) for r in rows] == [1, 2]
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)
    short = write_config(tmp_path, {"weights": [0.5, 0.5],
                                    "channel": [[0.9, 0.1], [0.1, 0.9]],
                                    "n_values": [1]}, "short.json")
    assert run_cli("softcover", "--config", short).returncode == 1
    # 2^(n r) codewords past every cap; json writes math.inf as Infinity
    for r in (1e6, math.inf):
        huge = write_config(tmp_path, {"weights": [0.5, 0.5],
                                       "channel": [[0.9, 0.1], [0.1, 0.9]],
                                       "r": r, "n_values": [1]}, "huge.json")
        proc = run_cli("softcover", "--config", huge)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr


def test_grid_points_past_the_cap_exit_with_cap_code(tmp_path):
    over = str(MAX_POINTS + 1)
    gauss = ("region-gauss", "--sigma-x", "1", "--sigma-y", "1", "--d", "0.5")
    for argv in (("region-bsc", "--d", "0.25", "--points", over),
                 ("region-bsc", "--d", "0.25", "--points", "10" + "0" * 12),
                 (*gauss, "--points", over),
                 (*gauss, "--config",
                  write_config(tmp_path, {"points": MAX_POINTS + 1}))):
        proc = run_cli(*argv)
        assert proc.returncode == 3, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("seed", [0, 7])
def test_softcover_demo_bytes_are_pinned(seed):
    config = DEMO_CONFIGS / "softcover.json"
    proc = run_cli("softcover", "--config", str(config), "--seed", str(seed))
    assert proc.returncode == 0
    pinned = PINNED / f"softcover_demo_seed{seed}.csv"
    assert proc.stdout.encode() == pinned.read_bytes()


def test_flags_override_the_config(tmp_path):
    """A flag wins over the config field of the same name, and the
    config field over the default: --points and --d of region-bsc, and
    the integer seed of softcover read from the config."""
    config = write_config(tmp_path, {"d": 0.2, "points": 9})
    proc = run_cli("region-bsc", "--config", config)
    assert proc.returncode == 0 and len(parse_csv(proc.stdout)[1]) == 9
    proc = run_cli("region-bsc", "--config", config, "--points", "5",
                   "--d", "0.25")
    assert proc.returncode == 0
    assert proc.stdout == run_cli("region-bsc", "--d", "0.25",
                                  "--points", "5").stdout
    raw = json.loads((DEMO_CONFIGS / "softcover.json").read_text())
    raw["seed"] = 7
    proc = run_cli("softcover", "--config", write_config(tmp_path, raw))
    assert proc.stdout.encode() == (
        PINNED / "softcover_demo_seed7.csv").read_bytes()


def test_simulate_demo_trials_csv_is_pinned(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("simulate", "--config", str(DEMO_CONFIGS / "simulate.json"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    pinned = PINNED / "simulate_demo_cli.trials.csv"
    assert out.with_suffix(".trials.csv").read_bytes() == pinned.read_bytes()


@pytest.fixture
def sim_config(tmp_path):
    payload = {"weights": [0.5, 0.5], "x_given_u": BSC25_ROWS,
               "y_given_u": IDENTITY_ROWS, "rho": HAMMING_ROWS,
               "n": 3, "r": 0.8, "rc": 0.5, "trials": 4, "seed": 0,
               "mode": "exact"}
    return payload, tmp_path


def test_simulate_writes_report_and_trials(sim_config):
    payload, tmp_path = sim_config
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    proc = run_cli("simulate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report_text = out.read_text()
    report = _assert_json_round_trip(report_text)
    assert report["mode"] == "exact"
    assert report["tv_output_vs_iid"] <= 1e-12
    trials_path = tmp_path / "report.trials.csv"
    header, rows = parse_csv(trials_path.read_text())
    assert header == ["trial", "k", "j", "encoder_fallback", "distortion",
                      "correction_move", "corrected_distortion",
                      "triangle_ok"]
    assert len(rows) == 4
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
    assert all(r[7] == "1" for r in rows)

    # byte-identical artifacts on a rerun with the same seed
    out2 = tmp_path / "again.json"
    assert run_cli("simulate", "--config", cfg,
                   "--out", str(out2)).returncode == 0
    assert out2.read_text() == report_text
    assert (tmp_path / "again.trials.csv").read_text() == \
        trials_path.read_text()


_MC_THREADS = {"weights": [0.6, 0.4], "y_given_u": BSC25_ROWS,
               "rho": HAMMING_ROWS, "n": 32, "r": 0.35, "rc": 0.1,
               "trials": 200, "seed": 3, "mode": "monte-carlo"}


# (OPENBLAS_NUM_THREADS, OPENBLAS_CORETYPE): the CPU's own kernel on one
# and two threads, then three forced kernels, with and without FMA
_BLAS_SETTINGS = [("1", None), ("2", None), ("1", "Haswell"),
                  ("1", "Sandybridge"), ("1", "Nehalem")]


def _blas_env(threads, kernel):
    """The environment with that OpenBLAS thread count and kernel (None:
    the CPU's own)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    return env


@pytest.mark.parametrize("payload", [
    pytest.param(dict(_MC_THREADS, x_given_u=BSC25_ROWS), id="x_given_u0"),
    pytest.param(dict(_MC_THREADS, x_given_u=[[1.0, 0.0], [0.2, 0.8]]),
                 id="x_given_u1"),
    pytest.param(dict(json.loads((DEMO_CONFIGS / "simulate.json").read_text()),
                      n=6), id="exact_n6"),
    pytest.param(dict(json.loads((DEMO_CONFIGS / "simulate.json").read_text()),
                      n=8, seed=1), id="exact_n8"),
])
def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path, payload):
    """The Monte-Carlo scores are BLAS products over batches of trials
    that share k, on an X-channel with full support (x_given_u0) and on
    one with a zero entry (x_given_u1; the second product, which marks
    zero likelihoods, runs only there); both are large enough for
    OpenBLAS to split them over two threads. The exact runs at n = 6 and
    n = 8 contract their laws over 64 and 256 output blocks without a
    BLAS product. The written artifacts must not change with the thread
    count or with the BLAS kernel."""
    cfg = write_config(tmp_path, payload)
    written = []
    for threads, kernel in _BLAS_SETTINGS:
        out = tmp_path / f"threads{threads}{kernel}.json"
        proc = run_cli("simulate", "--config", cfg, "--out", str(out),
                       env=_blas_env(threads, kernel))
        assert proc.returncode == 0, proc.stderr
        written.append((out.read_text(),
                        out.with_suffix(".trials.csv").read_text()))
    assert json.loads(written[0][0])["mode"] == payload["mode"]
    for setting, got in zip(_BLAS_SETTINGS, written):
        assert got == written[0], setting


# runs each command given as a JSON list of argv lists through
# ocrate.cli.main in one interpreter; prints [[exit code, stdout], ...]
_MAIN_LOOP = """
import contextlib, io, json, sys
from ocrate.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
print(json.dumps(results))
"""


def test_every_command_is_blas_thread_independent(tmp_path):
    """Every command on its demos/configs input writes the same bytes
    under one and two OpenBLAS threads and, on x86-64, under one thread
    of the Prescott kernel, which needs only SSE3: one interpreter per
    setting runs them all."""
    def config(name):
        return ["--config", str(DEMO_CONFIGS / name)]

    settings = [("1", None), ("2", None)]
    if platform.machine().lower() in ("x86_64", "amd64"):
        settings.append(("1", "Prescott"))
    written = []
    for threads, kernel in settings:
        out = tmp_path / f"threads{threads}{kernel}" / "simulate.json"
        out.parent.mkdir()
        commands = [["region-bsc", *config("region_bsc.json")],
                    ["region-gauss", *config("region_gauss.json")],
                    ["mmi", *config("mmi.json")],
                    ["i0", *config("i0.json")],
                    ["c0", "--d", "0.25"], ["wyner", "--a0", "0.25"],
                    ["synthesis-bsc", "--d", "0.25"],
                    ["det-decoder", *config("det_decoder.json")],
                    ["empirical", *config("empirical.json")],
                    ["simulate", *config("simulate.json"), "--out", str(out)],
                    ["softcover", *config("softcover.json")]]
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN_LOOP, json.dumps(commands)],
            capture_output=True, text=True, env=_blas_env(threads, kernel))
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert [code for code, _ in results] == [0] * len(commands)
        written.append((results, out.read_text(),
                        out.with_suffix(".trials.csv").read_text()))
    for setting, got in zip(settings[1:], written[1:]):
        for one, other, argv in zip(written[0][0], got[0], commands):
            assert one == other, (setting, argv)
        assert got[1:] == written[0][1:], setting


def test_simulate_requires_out(sim_config):
    payload, tmp_path = sim_config
    cfg = write_config(tmp_path, payload)
    assert run_cli("simulate", "--config", cfg).returncode == 1


def test_simulate_rejects_unknown_field(sim_config):
    payload, tmp_path = sim_config
    cfg = write_config(tmp_path, dict(payload, knob=1))
    out = tmp_path / "r.json"
    proc = run_cli("simulate", "--config", cfg, "--out", str(out))
    assert proc.returncode == 1
    assert "knob" in proc.stderr


def test_simulate_cap_exit(sim_config):
    payload, tmp_path = sim_config
    out = tmp_path / "r.json"
    # n=24 passes no cap; binary n=11 passes every cap but the 2^20
    # cells of the correction plan; 2^24 + 1 one-letter trials pass
    # every cap but the one on trial cells; 2^(3e6) codewords do not
    # fit a float, in either index
    for changes in ({"n": 24, "r": 0.25}, {"n": 11, "r": 0.5, "rc": 0.3},
                    {"n": 1, "trials": 2 ** 24 + 1}, {"r": 1e6},
                    {"rc": 1e6}):
        cfg = write_config(tmp_path, dict(payload, **changes))
        proc = run_cli("simulate", "--config", cfg, "--out", str(out))
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("x_given_u, y_given_u, rho", [
    ([[1.0], [1.0]], IDENTITY_ROWS, [[0.0, 1.0]]),
    (IDENTITY_ROWS, [[1.0], [1.0]], [[0.0], [1.0]]),
])
def test_simulate_forced_exact_with_one_letter_exits_with_cap_code(
        sim_config, x_given_u, y_given_u, rho):
    # 2^23 blocks on one side: the block tables would take 1.5 GB each
    payload, tmp_path = sim_config
    cfg = write_config(tmp_path, dict(
        payload, x_given_u=x_given_u, y_given_u=y_given_u, rho=rho, n=23,
        r=0.0, rc=0.0, correction=False))
    proc = run_cli("simulate", "--config", cfg, "--out",
                   str(tmp_path / "r.json"))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("power", ["NaN", "Infinity", "1e400"])
def test_simulate_rejects_non_finite_metric_power(sim_config, power):
    payload, tmp_path = sim_config
    # json.dumps cannot write 1e400, so the number goes in as text
    text = json.dumps(dict(payload, metric_power=0.0)).replace(
        '"metric_power": 0.0', f'"metric_power": {power}')
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    proc = run_cli("simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 1, proc.stderr
    assert "metric power" in proc.stderr


def test_unwritable_out_path_is_validation(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    proc = run_cli("region-bsc", "--d", "0.25", "--out", str(target))
    assert proc.returncode == 1


def test_out_flag_writes_stdout_content(tmp_path):
    target = tmp_path / "curve.csv"
    proc = run_cli("region-bsc", "--d", "0.25", "--points", "5",
                   "--out", str(target))
    assert proc.returncode == 0 and proc.stdout == ""
    direct = run_cli("region-bsc", "--d", "0.25", "--points", "5")
    assert target.read_text() == direct.stdout
