"""Command line front end.

Curve commands emit CSV (header row, 6 significant digits), scalar
solvers emit a JSON object {status, value_bits, witness}, and the
simulator writes a JSON report plus a per-trial CSV. Infinite rates are
encoded as the string token "inf" in both formats. Exit codes: 0
success, 1 validation, 2 infeasible domain, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .codesim import TRIAL_COLUMNS, SimConfig, run_simulation, soft_covering_exact
from .info import CapExceeded, Channel, DistortionMatrix, DomainError, Pmf, binary_entropy
from .region import (
    I0_RESTARTS_CAP,
    GaussianSpec,
    MarkovTriple,
    bsc_boundary,
    c0_bsc,
    det_decoder_min_rate,
    empirical_region_min_rate,
    gaussian_boundary,
    i0_solver,
    mmi_constrained_output,
    wyner_bsc,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DOMAIN = 2
EXIT_CAP = 3

DEFAULT_POINTS = 41
MAX_POINTS = 10 ** 6
DEFAULT_RC_MAX = 4.0


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags, which collides with
    the infeasible-domain code; remap parse failures to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


# ---------------------------------------------------------------------------
# shared plumbing


def _fmt(value) -> str:
    """One CSV cell: 6 significant digits, 'inf' token, bools as 0/1."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isinf(value):
        return "inf"
    return f"{value:.6g}"


def _csv_text(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_config(path: str | None, allowed: set[str],
                 required: set[str]) -> dict:
    if path is None:
        if required:
            raise ValueError("this command needs --config")
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(unknown)}")
    missing = sorted(required - set(raw))
    if missing:
        raise ValueError(f"missing config fields: {', '.join(missing)}")
    return raw


def _number(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number")
    return float(value)


def _rate(field: str, value) -> float:
    """A rate field also accepts the token 'inf'."""
    if value == "inf":
        return math.inf
    return _number(field, value)


def _integer(field: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer")
    return value


def _pmf(field: str, value) -> Pmf:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{field} must be a flat probability list")
    return Pmf(arr)


def _matrix(field: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{field} must be a matrix given as a list of rows")
    return arr


def _setting(args, config: dict, field: str, parse, default=None):
    """Flag value if given, else the config value read by parse
    (_number or _integer), else default."""
    flag = getattr(args, field, None)
    if flag is not None:
        return flag
    if field in config:
        return parse(field, config[field])
    return default


def _coupling_problem(cfg: dict):
    mu = _pmf("mu", cfg["mu"])
    psi = _pmf("psi", cfg["psi"])
    rho = DistortionMatrix(_matrix("rho", cfg["rho"]))
    d = _number("d", cfg["d"])
    return mu, psi, rho, d


def _result_payload(value: float, witness) -> dict:
    if math.isinf(value):
        return {"status": "infeasible", "value_bits": "inf", "witness": None}
    return {"status": "ok", "value_bits": value, "witness": witness}


def _grid_points(args, config: dict) -> int:
    points = _setting(args, config, "points", _integer, DEFAULT_POINTS)
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if points > MAX_POINTS:
        raise CapExceeded(f"{points} grid points exceed the cap of "
                          f"{MAX_POINTS}")
    return points


# ---------------------------------------------------------------------------
# curve commands


def _cmd_region_bsc(args) -> int:
    cfg = _load_config(args.config, {"d", "points"}, set())
    d = _setting(args, cfg, "d", _number)
    if d is None:
        raise ValueError("region-bsc needs --d or a config with d")
    if not 0.0 < d < 0.5:
        raise DomainError("distortion must lie strictly inside (0, 1/2)")
    points = _grid_points(args, cfg)
    curve = bsc_boundary(d, np.linspace(0.0, binary_entropy(d), points))
    _emit(_csv_text("rc,r_min", curve.rates()), args.out)
    return EXIT_OK


def _cmd_region_gauss(args) -> int:
    cfg = _load_config(args.config,
                       {"sigma_x", "sigma_y", "d", "rc_max", "points"}, set())
    sigma_x = _setting(args, cfg, "sigma_x", _number)
    sigma_y = _setting(args, cfg, "sigma_y", _number)
    d = _setting(args, cfg, "d", _number)
    if sigma_x is None or sigma_y is None or d is None:
        raise ValueError("region-gauss needs sigma_x, sigma_y and d")
    rc_max = _setting(args, cfg, "rc_max", _number, DEFAULT_RC_MAX)
    if not 0.0 < rc_max < math.inf:
        raise ValueError("rc_max must be positive and finite")
    points = _grid_points(args, cfg)
    spec = GaussianSpec(sigma_x, sigma_y, d)
    curve = gaussian_boundary(
        spec, np.append(np.linspace(0.0, rc_max, points), math.inf))
    _emit(_csv_text("rc,r_min", curve.rates()), args.out)
    return EXIT_OK


def _cmd_softcover(args) -> int:
    cfg = _load_config(args.config,
                       {"weights", "channel", "r", "n_values", "codebooks",
                        "seed"},
                       {"weights", "channel", "r", "n_values"})
    p_v = _pmf("weights", cfg["weights"])
    channel = Channel(_matrix("channel", cfg["channel"]))
    r = _number("r", cfg["r"])
    n_values = cfg["n_values"]
    if not isinstance(n_values, list) or not n_values:
        raise ValueError("n_values must be a non-empty list")
    n_values = [_integer("n_values entry", n) for n in n_values]
    codebooks = _integer("codebooks", cfg.get("codebooks", 32))
    seed = _setting(args, cfg, "seed", _integer, 0)
    rows = [(n, soft_covering_exact(p_v, channel, n, r, seed,
                                    num_codebooks=codebooks))
            for n in n_values]
    _emit(_csv_text("n,mean_tv", rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scalar solver commands


def _cmd_mmi(args) -> int:
    cfg = _load_config(args.config, {"mu", "psi", "rho", "d"},
                       {"mu", "psi", "rho", "d"})
    value, coupling = mmi_constrained_output(*_coupling_problem(cfg))
    witness = None if coupling is None else coupling.table.tolist()
    _emit(_json_text(_result_payload(value, witness)), args.out)
    return EXIT_OK


def _cmd_closed_form(field: str, formula, args) -> int:
    """A closed form of the one scalar field: wyner (a0), c0 (d)."""
    cfg = _load_config(args.config, {field}, set())
    value = _setting(args, cfg, field, _number)
    if value is None:
        raise ValueError(f"{args.command} needs --{field} or a config "
                         f"with {field}")
    _emit(_json_text(_result_payload(formula(value), None)), args.out)
    return EXIT_OK


def _cmd_i0(args) -> int:
    cfg = _load_config(args.config,
                       {"mu", "psi", "rho", "d", "restarts", "seed"},
                       {"mu", "psi", "rho", "d"})
    mu, psi, rho, d = _coupling_problem(cfg)
    restarts = _setting(args, cfg, "restarts", _integer, 64)
    seed = _setting(args, cfg, "seed", _integer, 0)
    value, triple = i0_solver(mu, psi, rho, d, restarts=restarts, seed=seed)
    witness = None
    if triple is not None:
        witness = {
            "weights": triple.weights.probs.tolist(),
            "x_given_u": triple.x_given_u.rows.tolist(),
            "y_given_u": triple.y_given_u.rows.tolist(),
        }
    _emit(_json_text(_result_payload(value, witness)), args.out)
    return EXIT_OK


def _cmd_det_decoder(args) -> int:
    cfg = _load_config(args.config, {"mu", "psi", "rho", "d", "rc"},
                       {"mu", "psi", "rho", "d", "rc"})
    mu, psi, rho, d = _coupling_problem(cfg)
    rc = _rate("rc", cfg["rc"])
    value = det_decoder_min_rate(mu, psi, rho, d, rc)
    _emit(_json_text(_result_payload(value, None)), args.out)
    return EXIT_OK


def _cmd_empirical(args) -> int:
    cfg = _load_config(args.config, {"mu", "psi", "rho", "d"},
                       {"mu", "psi", "rho", "d"})
    value = empirical_region_min_rate(*_coupling_problem(cfg))
    _emit(_json_text(_result_payload(value, None)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulator commands


def _cmd_simulate(args) -> int:
    if args.out is None:
        raise ValueError("simulate writes two files and needs --out")
    cfg = _load_config(args.config,
                       {"weights", "x_given_u", "y_given_u", "rho", "n", "r",
                        "rc", "trials", "seed", "correction", "mode",
                        "metric_power"},
                       {"weights", "x_given_u", "y_given_u", "rho", "n", "r",
                        "rc", "trials"})
    triple = MarkovTriple(_pmf("weights", cfg["weights"]),
                          Channel(_matrix("x_given_u", cfg["x_given_u"])),
                          Channel(_matrix("y_given_u", cfg["y_given_u"])))
    correction = cfg.get("correction", True)
    if not isinstance(correction, bool):
        raise ValueError("correction must be a boolean")
    mode = cfg.get("mode", "auto")
    if not isinstance(mode, str):
        raise ValueError("mode must be a string")
    sim = SimConfig(
        triple=triple,
        rho=DistortionMatrix(_matrix("rho", cfg["rho"])),
        n=_integer("n", cfg["n"]),
        r=_number("r", cfg["r"]),
        rc=_number("rc", cfg["rc"]),
        trials=_integer("trials", cfg["trials"]),
        seed=_setting(args, cfg, "seed", _integer, 0),
        correction=correction,
        mode=mode,
        metric_power=_number("metric_power", cfg.get("metric_power", 1.0)),
    )
    report = run_simulation(sim)
    _emit(_json_text(report.to_dict()), args.out)
    _emit(_csv_text(",".join(TRIAL_COLUMNS), report.trial_rows()),
          str(Path(args.out).with_suffix(".trials.csv")))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="ocrate",
                     description="Rate regions and random-code simulation "
                                 "for output-constrained lossy coding.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    def add(name, handler, help_text, flags=()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--config", help="JSON parameter file")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
        return p

    fl_d = ("--d", {"type": float, "help": "distortion budget"})
    fl_points = ("--points", {"type": int,
                              "help": f"grid size (default {DEFAULT_POINTS})"})
    fl_seed = ("--seed", {"type": int, "help": "master seed override"})

    add("region-bsc", _cmd_region_bsc,
        "CSV boundary r_min(rc) for the symmetric binary source",
        [fl_d, fl_points])
    add("region-gauss", _cmd_region_gauss,
        "CSV boundary r_min(rc) for Gaussian marginals, final row rc=inf",
        [("--sigma-x", {"type": float, "dest": "sigma_x"}),
         ("--sigma-y", {"type": float, "dest": "sigma_y"}),
         fl_d,
         ("--rc-max", {"type": float, "dest": "rc_max",
                       "help": f"top of the rc grid (default {DEFAULT_RC_MAX})"}),
         fl_points])
    add("mmi", _cmd_mmi,
        "JSON minimum coupling information at a distortion budget")
    add("wyner", partial(_cmd_closed_form, "a0", wyner_bsc),
        "JSON common-information rate of a doubly symmetric binary pair",
        [("--a0", {"type": float, "help": "crossover in [0, 1/2]"})])
    add("c0", partial(_cmd_closed_form, "d", c0_bsc),
        "JSON zero-shared-randomness rate for the binary symmetric pair",
        [fl_d])
    add("i0", _cmd_i0,
        "JSON no-shared-randomness rate: an atom LP grown by column "
        "generation, an upper bound",
        [("--restarts", {"type": int,
                         "help": "random pricing starts per column-generation "
                                 f"round (default 64, at most "
                                 f"{I0_RESTARTS_CAP})"}),
         fl_seed])
    add("det-decoder", _cmd_det_decoder,
        "JSON minimum rate under a deterministic decoder")
    add("empirical", _cmd_empirical,
        "JSON minimum rate under the empirical-histogram constraint")
    # the synthesis sum-rate floor of the binary symmetric pair is c0
    add("synthesis-bsc", partial(_cmd_closed_form, "d", c0_bsc),
        "JSON minimum synthesis sum rate for the binary symmetric pair",
        [fl_d])
    add("simulate", _cmd_simulate,
        "run the random-code simulator; JSON report plus per-trial CSV",
        [fl_seed])
    add("softcover", _cmd_softcover,
        "CSV mean output-law total variation against block length",
        [fl_seed])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.handler(args)
    except CapExceeded as exc:
        print(f"ocrate: resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except DomainError as exc:
        print(f"ocrate: infeasible domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        print(f"ocrate: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
