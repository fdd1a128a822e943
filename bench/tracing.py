"""Span recording around calls into ocrate's layers, from outside.

The wrappers around scipy.optimize.linprog and minimize go in before
ocrate is imported, so they are seen however ocrate reaches scipy; they
record only while a Tracer is active. The other wrappers replace public
functions in the modules that call them for the length of one traced
round, so untraced rounds run the program untouched.

Spans are kept in memory as (name, start, end, parent, attrs) and turned
into per-layer metrics by layer_metrics().
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

_ACTIVE: list["Tracer"] = []


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while it is the active tracer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        self._stack.pop()

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.remove(self)
        return False


def _wrap(name: str, fn, attrs=None):
    """A wrapper that records a span under the active tracer, if any.

    attrs(args, kwargs, result) adds attributes to the span; name may be
    a callable of the same arguments returning the span name.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _ACTIVE:
            return fn(*args, **kwargs)
        tracer = _ACTIVE[-1]
        label = name(args, kwargs) if callable(name) else name
        index = tracer.open(label)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(index, attrs(args, kwargs, result) if attrs else None)

    wrapper.__wrapped_by_bench__ = True
    return wrapper


def _matrix_mb(matrix) -> float:
    if matrix is None:
        return 0.0
    if hasattr(matrix, "nbytes"):
        return matrix.nbytes / 2 ** 20
    # scipy sparse matrices and arrays
    return sum(getattr(matrix, part).nbytes
               for part in ("data", "indices", "indptr")
               if hasattr(matrix, part)) / 2 ** 20


def install_scipy_wrappers() -> None:
    """Wrap scipy.optimize.linprog and minimize; call before importing
    ocrate."""
    import scipy.optimize as opt
    if getattr(opt.linprog, "__wrapped_by_bench__", False):
        return
    opt.linprog = _wrap(
        "lp", opt.linprog,
        lambda a, k, r: {"a_eq_mb": _matrix_mb(
            k.get("A_eq", a[3] if len(a) > 3 else None))})
    opt.minimize = _wrap(
        lambda a, k: "minimize:" + str(k.get("method", "default")),
        opt.minimize)


def _codebook_attrs(args, kwargs, result):
    return {"mb": 0.0 if result is None else result.nbytes / 2 ** 20}


def _simulation_name(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return "mc" if cfg.mode == "monte-carlo" else "exact"


# (module, attribute, span name, attrs): public functions as bound in the
# modules that call them. binary_entropy is left out: bisection loops call
# it thousands of times per curve and its wrapper would cost more than the
# function.
_TARGETS = [
    ("ocrate.region", "mmi_constrained_output", "mmi", None),
    ("ocrate.region", "i0_solver", "i0", None),
    ("ocrate.region", "bsc_boundary", "curve", None),
    ("ocrate.region", "gaussian_boundary", "curve", None),
    ("ocrate.region", "solve_ot", "solve_ot", None),
    ("ocrate.region", "mutual_information", "info", None),
    ("ocrate.region", "entropy", "info", None),
    ("ocrate.codesim", "run_simulation", _simulation_name, None),
    ("ocrate.codesim", "soft_covering_exact", "softcover", None),
    ("ocrate.codesim", "mixture_output_law", "mixture_law", None),
    ("ocrate.codesim", "generate_codebook", "codebook", _codebook_attrs),
    ("ocrate.codesim", "likelihood_encode", "encode", None),
    ("ocrate.codesim", "decode", "decode", None),
    ("ocrate.codesim", "solve_ot", "solve_ot", None),
    ("ocrate.codesim", "all_blocks", "info", None),
    ("ocrate.codesim", "product_extension", "info", None),
    ("ocrate.codesim", "total_variation", "info", None),
    ("ocrate.cli", "mmi_constrained_output", "mmi", None),
    ("ocrate.cli", "i0_solver", "i0", None),
    ("ocrate.cli", "bsc_boundary", "curve", None),
    ("ocrate.cli", "gaussian_boundary", "curve", None),
    ("ocrate.cli", "run_simulation", _simulation_name, None),
    ("ocrate.cli", "soft_covering_exact", "softcover", None),
]


class ModuleWrappers:
    """Context manager that swaps the module-level public functions for
    span-recording wrappers and restores the originals on exit."""

    def __init__(self):
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, attrs in _TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrap(name, original, attrs))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics


LAYER_METRICS = {
    "region.mmi.calls": "count", "region.mmi.s": "s",
    "region.mmi.self_s": "s", "region.mmi.oracle_calls": "count",
    "region.mmi.oracle_s": "s",
    "region.i0.calls": "count", "region.i0.s": "s",
    "region.i0.penalty_calls": "count", "region.i0.penalty_s": "s",
    "region.i0.polish_calls": "count", "region.i0.polish_s": "s",
    "region.i0.repair_s": "s",
    "region.curves.s": "s",
    "transport.solve_ot.calls": "count", "transport.solve_ot.s": "s",
    "transport.lp.calls": "count", "transport.lp.s": "s",
    "transport.lp.a_eq_mb_max": "MB",
    "codesim.exact.calls": "count", "codesim.exact.s": "s",
    "codesim.exact.tensor_s": "s", "codesim.exact.ot_s": "s",
    "codesim.softcover.s": "s", "codesim.mixture_law.s": "s",
    "codesim.mc.calls": "count", "codesim.mc.s": "s",
    "codesim.mc.self_s": "s", "codesim.mc.encode_calls": "count",
    "codesim.mc.encode_s": "s", "codesim.mc.decode_s": "s",
    "codesim.codebook.s": "s", "codesim.codebook_mb_max": "MB",
    "info.calls": "count", "info.s": "s",
    "cli.startup_s": "s", "cli.import_scipy_s": "s", "cli.command_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer sums over one traced round; 0 for layers not reached.
    The cli.* entries are 0 here; the cli workload and the caller fill
    them and trace.overhead_s in."""
    dur = [s.end - s.start for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s.parent >= 0:
            child_time[s.parent] += d

    def under(index: int, name: str) -> bool:
        parent = spans[index].parent
        while parent >= 0:
            if spans[parent].name == name:
                return True
            parent = spans[parent].parent
        return False

    def parent_is(index: int, name: str) -> bool:
        parent = spans[index].parent
        return parent >= 0 and spans[parent].name == name

    def pick(name, where=None):
        return [i for i, s in enumerate(spans)
                if s.name == name and (where is None or where(i))]

    def total(indices):
        return float(sum(dur[i] for i in indices))

    def self_total(indices):
        return float(sum(dur[i] - child_time[i] for i in indices))

    mmi = pick("mmi")
    oracle = pick("lp", lambda i: parent_is(i, "mmi"))
    i0 = pick("i0")
    penalty = pick("minimize:L-BFGS-B", lambda i: under(i, "i0"))
    polish = pick("minimize:SLSQP", lambda i: under(i, "i0"))
    ot = pick("solve_ot")
    transport_lp = pick("lp", lambda i: parent_is(i, "solve_ot"))
    exact = pick("exact")
    mc = pick("mc")
    encode = pick("encode", lambda i: under(i, "mc"))
    codebooks = pick("codebook")
    info = pick("info")
    out = {
        "region.mmi.calls": len(mmi),
        "region.mmi.s": total(mmi),
        "region.mmi.self_s": self_total(mmi),
        "region.mmi.oracle_calls": len(oracle),
        "region.mmi.oracle_s": total(oracle),
        "region.i0.calls": len(i0),
        "region.i0.s": total(i0),
        "region.i0.penalty_calls": len(penalty),
        "region.i0.penalty_s": total(penalty),
        "region.i0.polish_calls": len(polish),
        "region.i0.polish_s": total(polish),
        "region.i0.repair_s": total(pick("solve_ot",
                                         lambda i: under(i, "i0"))),
        "region.curves.s": total(pick("curve")),
        "transport.solve_ot.calls": len(ot),
        "transport.solve_ot.s": total(ot),
        "transport.lp.calls": len(transport_lp),
        "transport.lp.s": total(transport_lp),
        "transport.lp.a_eq_mb_max": max(
            [spans[i].attrs.get("a_eq_mb", 0.0) for i in pick("lp")],
            default=0.0),
        "codesim.exact.calls": len(exact),
        "codesim.exact.s": total(exact),
        "codesim.exact.tensor_s": self_total(exact),
        "codesim.exact.ot_s": total(pick("solve_ot",
                                         lambda i: under(i, "exact"))),
        "codesim.softcover.s": total(pick("softcover")),
        "codesim.mixture_law.s": total(pick("mixture_law")),
        "codesim.mc.calls": len(mc),
        "codesim.mc.s": total(mc),
        "codesim.mc.self_s": self_total(mc),
        "codesim.mc.encode_calls": len(encode),
        "codesim.mc.encode_s": total(encode),
        "codesim.mc.decode_s": total(pick("decode",
                                          lambda i: under(i, "mc"))),
        "codesim.codebook.s": total(codebooks),
        "codesim.codebook_mb_max": max(
            [spans[i].attrs.get("mb", 0.0) for i in codebooks], default=0.0),
        "info.calls": len(info),
        "info.s": total(info),
        "cli.startup_s": 0.0,
        "cli.import_scipy_s": 0.0,
        "cli.command_s": total(pick("cli.main")),
    }
    return {k: float(v) for k, v in out.items()}


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [{"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "attrs": s.attrs} for s in spans]


def spans_from_json(rows: list[dict], offset: int = 0) -> list[Span]:
    """Spans from spans_to_json(), with parent indices shifted by offset
    so that span lists of several processes can be concatenated."""
    return [Span(r["name"], r["start"], r["end"],
                 r["parent"] + offset if r["parent"] >= 0 else -1, r["attrs"])
            for r in rows]
