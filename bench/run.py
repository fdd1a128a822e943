"""Benchmark entry point for ocrate.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts the workload in fresh interpreters (bench/worker.py), one at a
time: the first SETUP_PROBES - 1 only time their set-up, the last one
also measures. Prints one summary line per metric and, as the last line
of standard output, a JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A record of the run, with the versions and thread
settings it ran under, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BUILDERS, RESULTS, ROOT, child_env

SETUP_PROBES = 3
# the whole run, builds aside, must end well inside 180 s
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}


def _parse():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


class RunFailed(RuntimeError):
    pass


def _start_worker(args, log: Path, setup_only: bool, deadline: float,
                  out: Path):
    """Start one worker and return (process, set-up seconds): the time
    from spawn to its "ready" line."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "wb") as err:
        start = time.perf_counter()
        # a session of its own, so that a stop also reaches the commands
        # a cli worker has started
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(deadline - time.monotonic(), 0.0))
    line = proc.stdout.readline() if ready else b""
    setup = time.perf_counter() - start
    if line.strip() != b"ready":
        _stop(proc)
        raise RunFailed(f"worker did not get ready; see {log}:\n"
                        + log.read_text()[-2000:])
    return proc, setup


def _stop(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()


def _finish(proc, deadline: float, log: Path) -> None:
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RunFailed(f"worker overran the deadline; see {log}")
    proc.stdout.close()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}; see {log}:\n"
                        + log.read_text()[-2000:])


def _environment(args) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    args = _parse()
    if not (ROOT / "src" / "ocrate" / "__init__.py").is_file():
        print(f"bench: no ocrate sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = RESULTS / f"{stem}.worker.json"
    out.unlink(missing_ok=True)

    setups = []
    try:
        for probe in range(SETUP_PROBES):
            last = probe == SETUP_PROBES - 1
            log = RESULTS / f"{stem}.worker{probe}.log"
            proc, setup = _start_worker(args, log, not last, deadline, out)
            setups.append(setup)
            _finish(proc, deadline, log)
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    worker = json.loads(out.read_text())
    out.unlink()

    figures = {"setup_s": statistics.median(setups),
               "wall_s": worker["wall_s"], "op_p50_s": worker["op_p50_s"],
               "peak_rss_mb": worker["peak_rss_mb"]}
    if args.trace:
        import tracing
        metrics = {k: {"value": worker["layers"][k], "unit": unit}
                   for k, unit in tracing.LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": figures[k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    failures = worker["check_failures"]
    record = {"environment": _environment(args),
              "setup_samples_s": setups,
              "rounds": worker["rounds"],
              "ops_per_round": worker["ops_per_round"],
              "op_samples": worker["op_samples"],
              "end_to_end": figures,
              "attempted": worker["attempted"],
              "failed": worker["failed"],
              "check_failures": failures}
    if args.trace:
        record["layers"] = worker["layers"]
        record["traced_rounds"] = worker["traced_rounds"]
        (RESULTS / f"{stem}.spans.json").write_text(
            json.dumps(worker["spans"]))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload} seed {args.seed}: "
          f"{worker['attempted']} operations attempted, "
          f"{worker['failed']} failed, {worker['rounds']} untraced rounds "
          f"of {worker['ops_per_round']}")
    print(f"  setup_s      {figures['setup_s']:.4f} s  "
          f"(median of {len(setups)} fresh interpreters)")
    print(f"  wall_s       {figures['wall_s']:.4f} s  "
          f"(median of {worker['rounds']} rounds)")
    print(f"  op_p50_s     {figures['op_p50_s']:.6f} s  "
          f"(median over {worker['ops_per_round']} operations of their "
          f"means; {worker['op_samples']} samples)")
    print(f"  peak_rss_mb  {figures['peak_rss_mb']:.1f} MB")
    if args.trace:
        for key, entry in metrics.items():
            print(f"  {key:28s} {entry['value']:.6g} {entry['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures,
                      "attempted": worker["attempted"],
                      "failed": worker["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
