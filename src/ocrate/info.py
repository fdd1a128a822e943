"""Finite-alphabet distributions and information measures.

All information quantities are in bits (log base 2) and 0*log(0) is 0.
Containers are immutable wrappers around numpy arrays, validated at
construction; the measures themselves are plain functions. Multi-symbol
blocks are indexed lexicographically with the first symbol most
significant, and every module that enumerates blocks uses the helpers
here so the encoding never drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

LN2 = float(np.log(2.0))

# constructors renormalize when |sum - 1| <= this, reject otherwise
NORMALIZATION_SLACK = 1e-9
# entries this far below zero are rejected rather than clipped
NEGATIVE_SLACK = 1e-12

DEFAULT_BLOCK_CAP = 10_000_000


class DomainError(ValueError):
    """A numeric argument lies outside the operation's domain."""


class CapExceeded(RuntimeError):
    """A resource cap (alphabet, block count, codebook size) was hit."""


def _clean_pmf_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(arr < -NEGATIVE_SLACK):
        raise ValueError(f"{name} has negative entries")
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZATION_SLACK:
        raise ValueError(f"{name} sums to {total!r}, not 1")
    return arr / total


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on {0, ..., m-1}."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _clean_pmf_array(self.probs, "pmf")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0.0)


@dataclass(frozen=True)
class Channel:
    """Row-stochastic matrix; row i is the output law given input i."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("channel must be a nonempty 2-D array")
        cleaned = np.vstack([_clean_pmf_array(r, "channel row") for r in arr])
        cleaned.setflags(write=False)
        object.__setattr__(self, "rows", cleaned)

    @property
    def input_size(self) -> int:
        return int(self.rows.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.rows.shape[1])

    @cached_property
    def log_rows(self) -> np.ndarray:
        """Natural log of the rows, -inf where an entry is zero;
        computed on first use, read-only."""
        with np.errstate(divide="ignore"):
            out = np.where(self.rows > 0.0,
                           np.log(np.maximum(self.rows, 1e-300)), -np.inf)
        out.setflags(write=False)
        return out

    def apply(self, p: Pmf) -> Pmf:
        """Pushforward of the input law through the channel."""
        if p.size != self.input_size:
            raise ValueError("input pmf does not match channel input size")
        # numpy's loops: a BLAS product's last bits follow the kernel
        return Pmf(np.einsum("u,uy->y", p.probs, self.rows))

    def joint(self, p: Pmf) -> "JointPmf":
        """Joint (input, output) law for a given input marginal."""
        if p.size != self.input_size:
            raise ValueError("input pmf does not match channel input size")
        return JointPmf(p.probs[:, None] * self.rows)

    @classmethod
    def bsc(cls, crossover: float) -> "Channel":
        """Binary symmetric channel with the given crossover probability."""
        if not 0.0 <= crossover <= 1.0:
            raise DomainError("crossover must lie in [0, 1]")
        a = float(crossover)
        return cls(np.array([[1.0 - a, a], [a, 1.0 - a]]))

    @classmethod
    def identity(cls, m: int) -> "Channel":
        return cls(np.eye(m))


@dataclass(frozen=True)
class JointPmf:
    """Joint law on a product alphabet, stored as an |X| x |Y| table."""

    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("joint table must be a nonempty 2-D array")
        arr = _clean_pmf_array(arr.ravel(), "joint table").reshape(arr.shape)
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.table.shape[0]), int(self.table.shape[1]))


@dataclass(frozen=True)
class DistortionMatrix:
    """Per-letter distortion cost, rows indexed by x and columns by y."""

    costs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.costs, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("distortion matrix must be a nonempty 2-D array")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("distortion entries must be finite and >= 0")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "costs", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.costs.shape[0]), int(self.costs.shape[1]))

    @property
    def max_cost(self) -> float:
        return float(self.costs.max())

    @property
    def is_square(self) -> bool:
        return self.costs.shape[0] == self.costs.shape[1]

    @classmethod
    def hamming(cls, m: int) -> "DistortionMatrix":
        return cls(1.0 - np.eye(m))


def _xlog2x(arr: np.ndarray) -> np.ndarray:
    # 0 * log 0 = 0 by continuity
    out = np.zeros_like(arr)
    mask = arr > 0.0
    out[mask] = arr[mask] * np.log2(arr[mask])
    return out


def _h2(p: np.ndarray) -> np.ndarray:
    # elementwise binary entropy in bits; starting from 0.0 keeps the
    # zeros at p = 0 and p = 1 positive
    return 0.0 - _xlog2x(p) - _xlog2x(1.0 - p)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) source in bits."""
    if not -NEGATIVE_SLACK <= p <= 1.0 + NEGATIVE_SLACK:
        raise DomainError(f"binary_entropy argument {p!r} outside [0, 1]")
    return float(_h2(np.array([min(max(float(p), 0.0), 1.0)]))[0])


def entropy(p: Pmf | np.ndarray) -> float:
    """Shannon entropy in bits."""
    arr = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    return float(-_xlog2x(arr).sum())


def mutual_information(joint: JointPmf) -> float:
    """I(X;Y) in bits for a joint table."""
    t = joint.table
    px = t.sum(axis=1)
    py = t.sum(axis=0)
    ref = np.outer(px, py)
    mask = t > 0.0
    val = float(np.sum(t[mask] * np.log2(t[mask] / ref[mask])))
    # cancellation noise is ~1e-16 per term and either sign; snap it so
    # product joints report an exact zero
    return 0.0 if val < 1e-12 else val


def total_variation(p: Pmf | np.ndarray, q: Pmf | np.ndarray) -> float:
    """Total variation distance, (1/2) sum |p - q|."""
    pa = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    qa = q.probs if isinstance(q, Pmf) else np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError("distributions have different shapes")
    return float(0.5 * np.abs(pa - qa).sum())


def product_extension(p: Pmf, n: int) -> Pmf:
    """IID n-fold product law over blocks, lexicographic block index.

    The first symbol of the block is the most significant digit of the
    index, matching the row order of all_blocks below.
    """
    if n < 1:
        raise DomainError("block length must be >= 1")
    if p.size ** n > DEFAULT_BLOCK_CAP:
        raise CapExceeded(f"{p.size}^{n} block alphabet exceeds cap "
                          f"{DEFAULT_BLOCK_CAP}")
    out = p.probs
    for _ in range(n - 1):
        out = np.kron(out, p.probs)
    return Pmf(out)


def all_blocks(m: int, n: int) -> np.ndarray:
    """All length-n blocks over {0..m-1}, one per row; row k is the block
    whose base-m digits, first symbol most significant, spell k."""
    if m ** n > DEFAULT_BLOCK_CAP:
        raise CapExceeded(f"{m}^{n} block alphabet exceeds cap "
                          f"{DEFAULT_BLOCK_CAP}")
    grids = np.meshgrid(*([np.arange(m)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)
