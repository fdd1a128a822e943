"""One workload in one fresh interpreter; started by run.py.

Imports ocrate, builds the workload's operations from the seed, warms
up, then prints "ready" so the parent can time set-up. A set-up probe
exits there. Otherwise the worker runs whole rounds of the operations
for about --seconds of measured time, checks the outputs outside the
timed spans, and writes its figures as JSON to --out.

With --trace 1 untraced and traced rounds alternate: end-to-end figures
come from the untraced ones, per-layer figures from the traced ones.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

CLI_PROBES = 3


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def _cli_startup_s(env) -> float:
    """Median wall time of a fresh interpreter importing ocrate.cli."""
    times = []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ocrate.cli"], env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cli_import_scipy_s(env) -> float:
    """Cumulative import time of scipy.optimize under `-X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import ocrate.cli"], env=env, check=True,
                          stderr=subprocess.PIPE, timeout=60)
    for line in proc.stderr.decode().splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)$",
                         line.strip())
        if match and match.group(2) == "scipy.optimize":
            return int(match.group(1)) / 1e6
    raise RuntimeError("scipy.optimize does not appear in -X importtime")


class Raised:
    """Output of an operation that raised; such an operation counts as
    failed and its output is not checked."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def to_dict(self):
        return {"raised": self.kind, "message": self.message}


def _attempt(op):
    # the boundary that must keep running: one operation failing must
    # not stop the round, so that every round attempts every operation
    try:
        return op.run()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return Raised(exc)


def main() -> int:
    args = _parse()
    if args.trace:
        tracing.install_scipy_wrappers()
    import ocrate
    import workloads

    traced_cli = args.workload == "cli" and args.trace
    ops = workloads.BUILDERS[args.workload](ocrate, args.seed)
    if traced_cli:
        spans_dir = workloads.RESULTS / "cli-spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        traced_ops = workloads.cli_ops(
            ocrate, args.seed,
            runner=[sys.executable, str(Path(__file__).with_name(
                "cli_child.py"))],
            env=dict(workloads.child_env(), BENCH_SPANS_DIR=str(spans_dir)))
    workloads.warm_up(ocrate, args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    untraced_walls, traced_walls = [], []
    latencies = [[] for _ in ops]
    layer_rounds = []
    failures = []
    failed = 0
    reference = None
    measured = 0.0
    round_index = 0
    all_spans = []
    while True:
        traced = bool(args.trace) and round_index % 2 == 1
        round_ops = traced_ops if traced and traced_cli else ops
        if traced and traced_cli:
            for stale in spans_dir.iterdir():
                stale.unlink()
        tracer = tracing.Tracer()
        outputs = []
        if traced and not traced_cli:
            with tracing.ModuleWrappers(), tracer:
                start = time.perf_counter()
                for op in round_ops:
                    outputs.append(_attempt(op))
                wall = time.perf_counter() - start
        else:
            start = time.perf_counter()
            for op, samples in zip(round_ops, latencies):
                t0 = time.perf_counter()
                outputs.append(_attempt(op))
                if not traced:
                    samples.append(time.perf_counter() - t0)
            wall = time.perf_counter() - start
        measured += wall

        # everything below is outside the timed spans
        if traced:
            spans = tracer.spans
            if traced_cli:
                spans = []
                for path in sorted(spans_dir.iterdir()):
                    spans += tracing.spans_from_json(
                        json.loads(path.read_text()), offset=len(spans))
            figures = tracing.layer_metrics(spans)
            if traced_cli:
                env = workloads.child_env()
                figures["cli.startup_s"] = _cli_startup_s(env)
                figures["cli.import_scipy_s"] = _cli_import_scipy_s(env)
            layer_rounds.append(figures)
            traced_walls.append(wall)
            all_spans.append(tracing.spans_to_json(spans))
        else:
            untraced_walls.append(wall)
        failed += sum(isinstance(o, Raised) for o in outputs)
        digests = [workloads.fingerprint(o) for o in outputs]
        if reference is None:
            reference = digests
            for op, out in zip(round_ops, outputs):
                if not isinstance(out, Raised):
                    failures += op.check(out)
        elif digests != reference:
            failures += [f"{op.name}: output of round {round_index} differs "
                         f"from round 0" for op, a, b in
                         zip(round_ops, digests, reference) if a != b]
        round_index += 1
        if not untraced_walls or (args.trace and not traced_walls):
            continue
        # stop at the whole round that brings the measured time nearest
        # to --seconds, rather than always past it
        next_round = statistics.median(untraced_walls + traced_walls)
        if measured + next_round / 2 >= args.seconds:
            break

    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if args.workload == "cli"
                               else resource.RUSAGE_SELF)
    result = {
        "attempted": len(ops) * round_index,
        "failed": failed,
        "check_failures": failures,
        "rounds": len(untraced_walls),
        "ops_per_round": len(ops),
        "wall_s": statistics.median(untraced_walls),
        # one figure per operation, its mean over the rounds: a single
        # sample of a short operation lands in a fast or a slow spell of
        # the host, and a median over such samples jumps between the two
        "op_p50_s": statistics.median(statistics.fmean(v)
                                      for v in latencies),
        "op_samples": sum(map(len, latencies)),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if args.trace:
        layers = {}
        for key in layer_rounds[0]:
            values = [r[key] for r in layer_rounds]
            layers[key] = (max(values) if key.endswith("_max")
                           else statistics.median(values))
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - result["wall_s"])
        result["layers"] = layers
        result["traced_rounds"] = len(traced_walls)
        result["spans"] = all_spans
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
