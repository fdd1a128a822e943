"""Desk-scale simulator of the two-index random-codebook construction.

The construction under study draws a codebook of ceil(2^{n r}) by
ceil(2^{n rc}) length-n index words iid from the auxiliary law, indexed
by a compressed message j and a shared-randomness word k. The encoder
observes the source block and k and picks j with probability
proportional to the likelihood of the source block under the j-th
codeword's X-channel; the decoder emits a block through the Y-channel
of the selected codeword, memorylessly. An optional correction stage
couples the realized output-block law to the iid target law by exact
optimal transport and relabels the output through that coupling, which
makes the output law match the target exactly at a distortion surcharge
bounded by the coupling cost.

Two modes:

* exact: every block law is enumerated (caps: |X|^n and |Y|^n at most
  1e7 blocks, at most 2^24 codewords, at most 1e7 cells per
  enumeration tensor, and with correction at most 2^20 cells in the
  |Y|^n x |Y|^n correction plan, so binary n <= 10 and ternary
  n <= 6). Output-law total variation, the idealized mixture law and
  all mean distortions are computed exactly, the distortions from the
  n per-position laws P(X_i, Y^n): no |X|^n x |Y|^n joint is built and
  no BLAS product runs. The correction relabels each trial's output
  block through its row of the exact block plan: for a metric letter
  cost a minimum-cost flow on the arcs that change one letter of a
  block (_block_plan), otherwise the full block transport problem.
* monte-carlo: beyond the caps. Per-trial sampling only; the output
  total variation is the biased plug-in estimate from the empirical
  block histogram and is flagged as such, and the correction stage
  couples the pooled single-letter empirical law instead of the block
  law (also flagged, via mode) and relabels letter by letter.

Both modes draw their trials in two passes over one random stream. The
first draws four arrays, in this order: the source uniforms (trials x
n), k (one per trial), the encoder uniforms (one per trial) and the
decoder uniforms (trials x n); none of these depends on the encoder's
scores. The second scores the trials in batches that share k and picks
each j from its stored uniform; a trial whose block has zero likelihood
under every codeword of its column takes its j from the same uniform
with equal weights, which is the exact encoder's law on such a block.
One decode call then emits every block. A batch's scores are one matrix
product per j-slice of its codebook column: the slice's one-hot times
the batch's table of per-letter log-likelihoods. Both modes keep
per-trial arrays of trials x n letters, capped at 2^24 cells.

Every symbol draw (codebook and source letters, j, decoded letters and
both corrections' relabelling) inverts a normalized CDF (_cdf: the
cumulative sums divided by their last entry) at a uniform u by one
left-closed rule: the symbol is the count of the CDF's first m - 1
entries at most u, which is rng.choice's searchsorted(side="right").
A symbol of zero mass has an empty step [cdf[s - 1], cdf[s]) and is
never drawn.

Everything is deterministic given the config seed: independent numpy
SeedSequence streams (seed, tag) drive the codebook draw, the trial
loop, and the correction sampling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .info import (
    DEFAULT_BLOCK_CAP,
    CapExceeded,
    Channel,
    DistortionMatrix,
    Pmf,
    all_blocks,
    product_extension,
    total_variation,
)
from .region import MarkovTriple
from .transport import (COST_SLACK, Coupling, TransportProblem, _flow_lp,
                        repair_marginals, solve_ot)

CODEBOOK_CAP = 2 ** 24
WORD_CELL_CAP = 2 ** 27     # letters of the index words drawn at once
WORK_CAP = 10 ** 7          # cells per enumeration tensor in exact mode
PLAN_CAP = 2 ** 20          # cells of the block-correction plan
TRIAL_CAP = 2 ** 24         # trials x n cells of the per-trial arrays
_CHUNK_WORK = 2_000_000
_CODEBOOK_SLICE = 2 ** 18   # cells of a codebook or one-hot slice
_SCORE_CELLS = 2 ** 17      # cells of a batch's scores and of its table

_STREAM_CODEBOOK = 0
_STREAM_TRIALS = 1
_STREAM_CORRECTION = 2


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        entropy=[int(seed), int(tag)]))


def _cdf(p: np.ndarray) -> np.ndarray:
    """The normalized CDFs along the last axis: the cumulative sums of
    each row divided by their last entry, which for a 1-D p is the CDF
    that rng.choice(p.size, p=p) searches."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _draw(cdfs: np.ndarray, rows, u: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """Write to out, and return, the symbols that the uniforms u draw
    from the normalized CDF rows of cdfs (see _cdf) that rows names,
    entry by entry: the count of the row's first m - 1 entries at most
    u. As u < 1 = the row's last entry, that is rng.choice's
    searchsorted(side="right"), and one pass per symbol is faster than
    the binary search on a few symbols. A single CDF passes cdfs[None]
    and rows 0, and each pass compares with one scalar."""
    out[...] = 0
    for c in range(cdfs.shape[1] - 1):
        out += u >= cdfs[:, c].take(rows)
    return out


def _ceil_codes(rate_times_n: float) -> int:
    # ceil(2^{n r}) with a guard against float noise just above integers;
    # no cap admits 2^1000 words, and the float power overflows at 2^1024
    if rate_times_n > 1000.0:
        raise CapExceeded(f"2^{rate_times_n:g} codewords exceed every cap")
    return int(math.ceil(2.0 ** rate_times_n - 1e-9))


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run.

    metric_power is the exponent p such that the per-letter distortion
    is the p-th power of a metric; it only feeds the triangle-bound
    exponent q = max(1, p), must be finite and positive, and defaults to
    1 (Hamming-like costs).
    """

    triple: MarkovTriple
    rho: DistortionMatrix
    n: int
    r: float
    rc: float
    trials: int
    seed: int
    correction: bool = True
    mode: str = "auto"
    metric_power: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block length must be >= 1")
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if not (np.isfinite(self.r) and self.r >= 0.0):
            raise ValueError("coding rate must be finite and >= 0")
        if not (np.isfinite(self.rc) and self.rc >= 0.0):
            raise ValueError("shared-randomness rate must be finite and >= 0")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in a u64")
        if self.mode not in ("auto", "exact", "monte-carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (np.isfinite(self.metric_power) and self.metric_power > 0.0):
            raise ValueError("metric power must be finite and positive")
        nx = self.triple.x_given_u.output_size
        ny = self.triple.y_given_u.output_size
        if self.rho.shape != (nx, ny):
            raise ValueError("distortion matrix does not match the triple")
        if self.correction and not self.rho.is_square:
            raise ValueError("the correction stage needs a square distortion")


TRIAL_COLUMNS = ("trial", "k", "j", "encoder_fallback", "distortion",
                 "correction_move", "corrected_distortion", "triangle_ok")


@dataclass
class SimReport:
    """Outcome of one run; exact-law fields are None in monte-carlo
    mode, and tv_output_is_plugin flags the biased estimate.

    trials holds one array per trial column, indexed by trial: k, j,
    encoder_fallback and distortion, and correction_move,
    corrected_distortion and triangle_ok only when the correction ran."""

    mode: str
    n: int
    num_j: int
    num_k: int
    single_letter_distortion: float
    mean_distortion: float
    tv_output_vs_iid: float
    tv_output_is_plugin: bool
    encoder_fallbacks: int
    idealized_distortion: float | None = None
    pre_correction_distortion: float | None = None
    trial_mean_distortion: float | None = None
    tv_pre_correction: float | None = None
    tv_softcover: float | None = None
    ot_block_cost: float | None = None
    distortion_bound: float | None = None
    distortion_slack: float | None = None
    trials: dict[str, np.ndarray] = field(default_factory=dict)

    def trial_rows(self) -> zip:
        """One tuple of Python scalars per trial in the order of
        TRIAL_COLUMNS: the trial index, then each column, None where a
        correction column is absent."""
        size = self.trials["k"].size
        cells = (self.trials[name].tolist() if name in self.trials
                 else repeat(None, size) for name in TRIAL_COLUMNS[1:])
        return zip(range(size), *cells)

    def to_dict(self) -> dict:
        out = dict(vars(self))
        out["trials"] = [dict(zip(TRIAL_COLUMNS, row))
                         for row in self.trial_rows()]
        return out


def generate_codebook(triple: MarkovTriple, n: int, r: float, rc: float,
                      seed: int) -> np.ndarray:
    """Draw the (ceil(2^{n r}), ceil(2^{n rc}), n) index-word array iid
    from the triple's index law. Deterministic given the seed. The
    dtype is the smallest signed integer that holds every index
    (int8 up to 128 letters), so arithmetic on the entries can
    overflow: index with them, or widen them first."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    num_j = _ceil_codes(n * r)
    num_k = _ceil_codes(n * rc)
    if num_j * num_k > CODEBOOK_CAP:
        raise CapExceeded(f"codebook of {num_j}x{num_k} words exceeds cap "
                          f"{CODEBOOK_CAP}")
    if num_j * num_k * n > WORD_CELL_CAP:
        raise CapExceeded("codebook array too large to materialize")
    return _draw_words(triple.weights.probs, (num_j, num_k, n),
                       _stream(seed, _STREAM_CODEBOOK))


def _draw_words(weights: np.ndarray, shape: tuple[int, ...],
                rng: np.random.Generator) -> np.ndarray:
    """An array of the given shape of letters drawn iid from weights,
    as rng.choice(weights.size, size=shape, p=weights) draws them, but
    in slices along the first axis so the uniforms never take as much
    memory as the array. The dtype is the smallest signed integer that
    holds every letter."""
    cdf = _cdf(weights)[None]
    words = np.empty(shape, dtype=np.min_scalar_type(-weights.size))
    step = max(1, _CODEBOOK_SLICE // math.prod(shape[1:]))
    for lo in range(0, shape[0], step):
        part = words[lo:lo + step]
        _draw(cdf, 0, rng.random(part.shape), part)
    return words


def _one_hot(words: np.ndarray, size: int) -> np.ndarray:
    """(m, size * n) indicator of m index words over a size-letter
    alphabet: 1.0 at c * n + i where letter i of the word is c."""
    m, n = words.shape
    hot = np.empty((m, size, n))
    np.equal(words[:, None, :], np.arange(size, dtype=words.dtype)[:, None],
             out=hot)
    return hot.reshape(m, size * n)


def _scores(log_rows: np.ndarray, x_blocks: np.ndarray,
            words: np.ndarray) -> np.ndarray:
    """(B, num_j) log-likelihood of each of B source blocks under each
    of num_j index words (one codebook column).

    The sums are products: the one-hot of a j-slice of the words (at
    most _CODEBOOK_SLICE cells) times the (|U| n, B) table whose row
    c * n + i holds log_rows[c, x_blocks[:, i]]. -inf entries go into
    the table as 0, and a second product with the table of where they
    are gives -inf to every word with a zero-likelihood letter.
    """
    size = log_rows.shape[0]
    num_j, n = words.shape
    cols = x_blocks.T
    zero = np.isneginf(log_rows)
    table = np.where(zero, 0.0, log_rows)[:, cols].reshape(size * n, -1)
    zeros = zero.astype(float)[:, cols].reshape(size * n, -1) \
        if zero.any() else None
    out = np.empty((len(x_blocks), num_j))
    step = max(1, _CODEBOOK_SLICE // (size * n))
    for lo in range(0, num_j, step):
        hot = _one_hot(words[lo:lo + step], size)
        part = hot @ table
        if zeros is not None:
            part[hot @ zeros > 0.0] = -np.inf
        out[:, lo:lo + step] = part.T
    return out


def _pick(scores: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the index drawn with probability proportional to
    exp(scores) from the uniform u by the rule of _draw, over all num_j
    entries at once. A row with no finite score is drawn with equal
    weights from its uniform, as rng.choice(num_j, p=np.full(num_j,
    1 / num_j)) draws it; the second array flags those rows."""
    top = scores.max(axis=1, keepdims=True)
    fallback = np.isneginf(top[:, 0])
    top[fallback] = 0.0
    w = np.exp(scores - top)
    w[fallback] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    return (_cdf(w) <= u[:, None]).sum(axis=1), fallback


def likelihood_encode(codebook: np.ndarray, x_given_u: Channel,
                      x_block: np.ndarray, k: int,
                      rng: np.random.Generator) -> tuple[int, bool]:
    """Pick a message index j with probability proportional to the
    likelihood of x_block under codeword (j, k)'s X-channel, from one
    rng.random() uniform.

    Scores are sums of the channel's cached log table
    (Channel.log_rows), with max subtraction. When every codeword in
    column k has zero likelihood the same uniform picks j with equal
    weights, and the second return value flags it. Indices are 0-based.
    """
    if not 0 <= k < codebook.shape[1]:
        raise ValueError("shared-randomness index out of range")
    nx = x_given_u.output_size
    x_block = np.asarray(x_block)
    # a negative symbol would wrap around in the table lookup
    if x_block.min() < 0 or x_block.max() >= nx:
        raise ValueError("source symbol out of range")
    scores = _scores(x_given_u.log_rows, x_block[None], codebook[:, k])
    j, fallback = _pick(scores, np.array([rng.random()]))
    return int(j[0]), bool(fallback[0])


def decode(codebook: np.ndarray, j: np.ndarray, k: np.ndarray,
           y_given_u: Channel, uniforms: np.ndarray) -> np.ndarray:
    """Emit blocks through the Y-channel of codewords (j[t], k[t]), one
    independent draw per position: the symbol that uniforms[t, i] draws
    from the channel row of the codeword's letter by the left-closed
    rule of _draw, as rng.choice draws it. j and k are indices or index
    arrays of one shape, and uniforms has the shape of codebook[j, k]."""
    words = codebook[j, k]
    return _draw(_cdf(y_given_u.rows), words, uniforms,
                 np.empty(words.shape, dtype=np.intp))


def mixture_output_law(codewords: np.ndarray, channel: Channel) -> np.ndarray:
    """Exact law of a block emitted by first picking one of the given
    codewords uniformly, then passing it through the channel
    memorylessly. Blocks are indexed lexicographically, first symbol
    most significant.

    The law is folded over shared codeword prefixes. The codewords are
    sorted, duplicates become counts, and from the last position to the
    first each distinct prefix p keeps the tensor
    T_p = sum_v W[v] (x) T_{p.v} over its extensions, so a prefix
    shared by many codewords is multiplied out once. Distinct prefixes
    never outnumber the codewords, so the work never exceeds one
    Kronecker product per codeword. The tensor of position p holds one
    row of |Y|^(n-p) cells per distinct length-(p+1) prefix, so the
    distinct words are folded in the longest runs whose prefixes fit at
    every position, and no tensor has more than max(_CHUNK_WORK, |Y|^n)
    cells."""
    codewords = np.atleast_2d(codewords)
    m, n = codewords.shape
    ny = channel.output_size
    num_blocks = ny ** n
    if num_blocks > DEFAULT_BLOCK_CAP:
        raise CapExceeded(f"{ny}^{n} output blocks exceed cap "
                          f"{DEFAULT_BLOCK_CAP}")
    words = codewords[np.lexsort(codewords.T[::-1])]
    # first position where each word differs from the one before it:
    # -1 for the first word, n for a repeat, which the counts absorb
    differs = words[1:] != words[:-1]
    first_diff = np.concatenate(([-1], np.where(
        differs.any(axis=1), differs.argmax(axis=1), n)))
    distinct = np.flatnonzero(first_diff < n)
    counts = np.diff(np.append(distinct, m)).astype(float)
    words, first_diff = words[distinct], first_diff[distinct]
    law = np.zeros(num_blocks)
    cells = max(_CHUNK_WORK, num_blocks)
    # per position p, the words that begin a length-(p+1) prefix and how
    # many such prefixes one tensor holds
    limits = [(np.flatnonzero(first_diff <= p), cells // ny ** (n - p))
              for p in range(n)]
    lo = 0
    while lo < words.shape[0]:
        hi = words.shape[0]
        for begins, most in limits:
            # the chunk's first word begins a prefix at every position
            stop = begins.searchsorted(lo, side="right") + most - 1
            if stop < begins.size:
                hi = min(hi, int(begins[stop]))
        # heads[g] is the first word of the g-th distinct prefix of the
        # current length; a chunk's first word heads every prefix
        heads = np.arange(lo, hi)
        fold = counts[heads, None]
        starts = first_diff[heads]
        starts[0] = -1
        for p in range(n - 1, -1, -1):
            rows = channel.rows[words[heads, p]]          # (g, ny)
            fold = (rows[:, :, None] * fold[:, None, :]
                    ).reshape(heads.size, -1)
            keep = np.flatnonzero(starts < p)
            fold = np.add.reduceat(fold, keep, axis=0)
            heads, starts = heads[keep], starts[keep]
        law += fold[0]
        lo = hi
    return law / m


def soft_covering_exact(p_v: Pmf, w_given_v: Channel, n: int, r: float,
                        seed: int, num_codebooks: int = 1) -> float:
    """Mean total variation between the mixture output of a fresh rate-r
    codebook and the iid output law, averaged over seeded codebooks.

    The mixture law is enumerated exactly; only the codebooks are
    random. This is the quantity whose expected decay certifies that
    rates above the mutual information wash out the codebook identity.
    Every cap is checked before anything is drawn or enumerated.
    """
    if num_codebooks < 1:
        raise ValueError("need at least one codebook")
    ny = w_given_v.output_size
    if ny ** n > DEFAULT_BLOCK_CAP:
        raise CapExceeded(f"{ny}^{n} output blocks exceed cap "
                          f"{DEFAULT_BLOCK_CAP}")
    m = _ceil_codes(n * r)
    if m > CODEBOOK_CAP:
        raise CapExceeded(f"codebook of {m} words exceeds cap {CODEBOOK_CAP}")
    if m * n > WORD_CELL_CAP:
        raise CapExceeded(f"codebook of {m} words of {n} letters exceeds "
                          f"the cap of {WORD_CELL_CAP} letters")
    iid = product_extension(w_given_v.apply(p_v), n).probs
    tvs = [total_variation(mixture_output_law(
        _draw_words(p_v.probs, (m, n), _stream(seed, c)), w_given_v), iid)
        for c in range(num_codebooks)]
    return float(np.mean(tvs))


def _block_cost(rho: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Mean per-letter cost between every pair of enumerated blocks."""
    size, n = blocks.shape
    out = np.zeros((size, size))
    for i in range(n):
        out += rho[blocks[:, i, None], blocks[:, i]]
    return out / n


def _is_metric(costs: np.ndarray) -> bool:
    """Whether a square cost matrix is a metric within COST_SLACK: zero
    diagonal, symmetric, and c[i, k] <= c[i, j] + c[j, k] for every
    middle letter j (one |Y| x |Y| comparison per j)."""
    return bool(np.all(np.abs(np.diag(costs)) <= COST_SLACK)
                and np.all(np.abs(costs - costs.T) <= COST_SLACK)
                and all(np.all(costs <= costs[:, j, None] + costs[j]
                               + COST_SLACK)
                        for j in range(costs.shape[0])))


class _Graph(NamedTuple):
    """The arcs that change one letter of a block; see
    _letter_change_graph."""

    matrix: tuple[np.ndarray, np.ndarray, np.ndarray]
    tails: np.ndarray
    heads: np.ndarray
    old: np.ndarray
    new: np.ndarray


@functools.lru_cache(maxsize=8)
def _letter_change_graph(size: int, n: int) -> _Graph:
    """The graph on the size^n blocks, indexed as in all_blocks, whose
    arcs change one letter: from each block, one arc per position and
    other letter. matrix is the CSC (start, index, value) of its node-arc
    matrix without the last row, the form transport._flow_lp takes;
    per arc, tails and heads are its blocks, old the letter it replaces
    and new the one it writes. The arrays are read-only, since the
    cache hands the same ones to every caller."""
    blocks = all_blocks(size, n)
    nodes = blocks.shape[0]
    old = np.repeat(blocks, size - 1, axis=1).ravel()
    new = (old + np.tile(np.arange(1, size), nodes * n)) % size
    place = np.repeat(size ** np.arange(n - 1, -1, -1), size - 1)
    tails = np.repeat(np.arange(nodes), n * (size - 1))
    heads = tails + (new - old) * np.tile(place, nodes)
    # one column per arc: +1 in the tail's row, -1 in the head's; the
    # last row is dropped
    rows = np.stack([tails, heads], axis=1)
    keep = rows < nodes - 1
    start = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    matrix = (start.astype(np.int32), rows[keep].astype(np.int32),
              np.broadcast_to([1.0, -1.0], rows.shape)[keep])
    for arr in (*matrix, tails, heads, old, new):
        arr.setflags(write=False)
    return _Graph(matrix, tails, heads, old, new)


def _flow_plan(supply: np.ndarray, demand: np.ndarray, rho: np.ndarray,
               n: int) -> np.ndarray:
    """Minimum-cost coupling of two laws on the blocks of length n,
    under the mean letter cost with rho a metric, as a table.

    The block cost is then the shortest-path metric of the graph of
    _letter_change_graph, whose arcs cost rho[old, new] / n, so a
    minimum-cost flow on its n |Y|^n (|Y| - 1) arcs (transport._flow_lp)
    has the transport minimum's cost. The positive arcs of the simplex's
    basic solution form a forest. Each source's mass is pushed along
    them in Kahn's topological order, every arc whose tail has received
    all its mass at once: a node keeps the share demand / (demand +
    out-flow) of what reaches it and passes the rest on in proportion
    to its out-flows. Every route runs on optimal arcs, so the table
    costs the flow's cost. It is snapped onto the marginals with
    repair_marginals. RuntimeError if the positive arcs hold a cycle."""
    graph = _letter_change_graph(rho.shape[0], n)
    flow = _flow_lp(graph.matrix, rho[graph.old, graph.new] / n, supply,
                    demand)
    used = np.flatnonzero(flow)
    tails, heads, flow = graph.tails[used], graph.heads[used], flow[used]
    size = supply.size
    through = demand + np.bincount(tails, flow, minlength=size)
    split = flow / through[tails]
    sources = np.flatnonzero(supply)
    # carry[v, s]: the mass of source s that reaches node v
    carry = np.zeros((size, sources.size))
    carry[sources, np.arange(sources.size)] = supply[sources]
    waiting = np.bincount(heads, minlength=size)
    pending = np.ones(flow.size, dtype=bool)
    while (arcs := np.flatnonzero(pending & (waiting[tails] == 0))).size:
        pending[arcs] = False
        np.add.at(carry, heads[arcs], carry[tails[arcs]] * split[arcs, None])
        np.subtract.at(waiting, heads[arcs], 1)
    if pending.any():
        raise RuntimeError("block correction: the flow's positive arcs "
                           "hold a cycle")
    sinks = np.flatnonzero(demand)
    kept = carry[sinks].T * (demand[sinks] / through[sinks])
    table = np.zeros((size, size))
    table[np.ix_(sources, sinks)] = repair_marginals(kept, supply[sources],
                                                     demand[sinks])
    return table


def _block_plan(p: np.ndarray, q: np.ndarray, rho: np.ndarray,
                n: int) -> Coupling:
    """Minimum-cost coupling of the laws p and q on the blocks of length
    n, under the mean letter cost of rho.

    For a metric rho (_is_metric) some optimal plan keeps min(p, q) in
    place and moves only the surplus (p - q)+ onto the deficit
    (q - p)+ (Kantorovich-Rubinstein duality); that part is _flow_plan's.
    Each side is divided by its own sum as a share of its law's mass,
    sum(p - keep) / sum(p), never by 1 - sum(min(p, q)): on near-equal
    laws that difference loses its digits to cancellation. The plan is
    scaled back by the surplus share and the kept diagonal added; with
    p == q nothing moves and the plan is the diagonal. Any other rho
    gets solve_ot's plan of the whole block problem."""
    costs = _block_cost(rho, all_blocks(rho.shape[0], n))
    if not _is_metric(rho):
        return solve_ot(TransportProblem(Pmf(p), Pmf(q), costs))
    keep = np.minimum(p, q)
    moved, short = p - keep, q - keep
    share = moved.sum() / p.sum()
    short_share = short.sum() / q.sum()
    table = np.diag(keep)
    if share > 0.0 and short_share > 0.0:
        table += share * _flow_plan(moved / share, short / short_share,
                                    rho, n)
    return Coupling(table, float((table * costs).sum()))


def _choose_mode(cfg: SimConfig, num_j: int, num_k: int) -> str:
    nx = cfg.triple.x_given_u.output_size
    ny = cfg.triple.y_given_u.output_size
    codes, n = num_j * num_k, cfg.n
    # codes >= 1, so the first two also bound the word count; the last
    # three (block tables, per-position laws) bind only on one letter
    fits = ((nx ** n) * codes <= WORK_CAP
            and (ny ** n) * codes <= WORK_CAP
            and (nx ** n) * (ny ** n) <= WORK_CAP
            and (not cfg.correction or ny ** (2 * n) <= PLAN_CAP)
            and n * nx * ny ** n <= WORK_CAP
            and n * nx ** n <= WORK_CAP
            and n * ny ** n <= WORK_CAP)
    if cfg.mode == "exact" and not fits:
        raise CapExceeded("exact mode was forced but the run exceeds the caps")
    if cfg.mode == "monte-carlo":
        return "monte-carlo"
    return "exact" if fits else "monte-carlo"


def run_simulation(cfg: SimConfig) -> SimReport:
    """Simulate one codebook draw of the construction at the config's
    rates and block length; see the module docstring for the two modes
    and the report contract. Bit-identical output for equal configs."""
    if cfg.trials * cfg.n > TRIAL_CAP:
        raise CapExceeded(f"{cfg.trials} trials of {cfg.n} letters exceed "
                          f"the cap of {TRIAL_CAP} cells")
    num_j = _ceil_codes(cfg.n * cfg.r)
    num_k = _ceil_codes(cfg.n * cfg.rc)
    mode = _choose_mode(cfg, num_j, num_k)
    exact = mode == "exact"
    codebook = generate_codebook(cfg.triple, cfg.n, cfg.r, cfg.rc, cfg.seed)
    single = cfg.triple.expected_distortion(cfg.rho)
    psi = cfg.triple.induced_y().probs
    fields, cond = (_exact_laws(cfg, codebook, num_j, num_k, single)
                    if exact else ({}, None))
    xs, ks, js, fbs, ys = _trial_loop(cfg, codebook, num_j, num_k)

    final = ys
    if cfg.correction:
        if not exact:
            # single-letter surrogate: couple the pooled empirical letter
            # law to the target letters and relabel letter by letter
            emp = np.bincount(ys.ravel(), minlength=psi.size) / ys.size
            cond = solve_ot(TransportProblem(Pmf(emp), Pmf(psi),
                                             cfg.rho.costs)).conditional_rows()
        # the exact plan relabels whole blocks by their index, first
        # letter most significant as in all_blocks
        blocks = (psi.size,) * cfg.n
        labels = np.ravel_multi_index(ys.T, blocks) if exact else ys
        u = _stream(cfg.seed, _STREAM_CORRECTION).random(labels.shape)
        final = _draw(_cdf(cond), labels, u,
                      np.empty(labels.shape, dtype=np.intp))
        if exact:
            final = np.stack(np.unravel_index(final, blocks), axis=1)
    columns, trial_mean = _trial_columns(cfg, xs, ks, js, fbs, ys, final)

    if not exact:
        # biased plug-in total variation against the iid block law
        seen, counts = np.unique(final, axis=0, return_counts=True)
        emp_mass = counts / counts.sum()
        iid_mass = np.prod(psi[seen], axis=1)
        fields = {"mean_distortion": trial_mean, "tv_output_vs_iid": float(
            1.0 - np.minimum(emp_mass, iid_mass).sum())}
    return SimReport(
        mode=mode, n=cfg.n, num_j=num_j, num_k=num_k,
        single_letter_distortion=float(single),
        tv_output_is_plugin=not exact,
        encoder_fallbacks=int(fbs.sum()),
        trial_mean_distortion=trial_mean,
        trials=columns,
        **fields,
    )


def _exact_laws(cfg: SimConfig, codebook: np.ndarray, num_j: int,
                num_k: int, single: float
                ) -> tuple[dict[str, float], np.ndarray | None]:
    """The exact-mode SimReport fields of the codebook's enumerated
    block laws and, with the correction, the conditional rows of its
    block plan, indexed by output block as in all_blocks (None
    without the correction).

    The distortion is a mean of letter costs, so the fields need the
    block joint only through the laws L_i[c, y] = P(X_i = c, Y^n = y):
    the output law is sum_c L_0[c], and a mean distortion is
    (1/n) sum_i sum L_i[c, y] rho[c, y_i], y relabelled through the
    plan's rows after the correction. idealized_distortion (the source
    riding the codeword, not swapped in by the encoder) is the
    single-letter value by the product structure."""
    a = cfg.triple.x_given_u.rows
    b = cfg.triple.y_given_u.rows
    nx, ny, n = a.shape[1], b.shape[1], cfg.n
    xb = all_blocks(nx, n)
    yb = all_blocks(ny, n)
    mu_n = product_extension(cfg.triple.induced_x(), n).probs
    psi_n = product_extension(cfg.triple.induced_y(), n).probs

    # unnormalized likelihood of each source block under each codeword
    likel = np.ones((xb.shape[0], num_j, num_k))
    for i in range(n):
        likel *= a[codebook[:, :, i], :][:, :, xb[:, i]].transpose(2, 0, 1)
    denom = likel.sum(axis=1, keepdims=True)
    enc = np.where(denom > 0.0, likel / np.maximum(denom, 1e-300),
                   1.0 / num_j)

    # memoryless decoder law of each output block given each codeword
    dec = np.ones((num_j, num_k, yb.shape[0]))
    for i in range(n):
        dec *= b[codebook[:, :, i], :][:, :, yb[:, i]]

    # laws[i, c, y] = P(X_i = c, Y^n = y): the encoder law times the
    # source law, summed over the other source positions and contracted
    # with the decoder over (j, k). A two-operand einsum runs numpy's
    # own loops: a BLAS product would make the last bits follow the
    # BLAS kernel and thread count
    enc *= mu_n[:, None, None]
    enc = enc.reshape((nx,) * n + (num_j, num_k))
    laws = np.stack([np.einsum("cjk,jky->cy", enc.sum(axis=tuple(
        p for p in range(n) if p != i)), dec) for i in range(n)]) / num_k
    # letter[i, c, y] = rho[c, y_i]
    letter = np.moveaxis(cfg.rho.costs[:, yb.T], 1, 0)
    out_law = laws[0].sum(axis=0)
    pre_d = float(np.einsum("icy,icy->", laws, letter)) / n
    tv_pre = total_variation(out_law, psi_n)
    fields = {
        "idealized_distortion": float(single),
        "pre_correction_distortion": pre_d,
        "tv_pre_correction": tv_pre,
        "tv_softcover": total_variation(dec.mean(axis=(0, 1)), psi_n),
        "mean_distortion": pre_d,
        "tv_output_vs_iid": tv_pre,
    }
    if not cfg.correction:
        return fields, None
    plan = _block_plan(out_law, psi_n, cfg.rho.costs, n)
    cond = plan.conditional_rows()
    # the same laws with the output block relabelled through the plan
    laws = np.einsum("icy,yz->icz", laws, cond)
    q = max(1.0, cfg.metric_power)
    bound = float((pre_d ** (1.0 / q) + plan.cost ** (1.0 / q)) ** q)
    fields.update(
        mean_distortion=float(np.einsum("icy,icy->", laws, letter)) / n,
        tv_output_vs_iid=total_variation(laws[0].sum(axis=0), psi_n),
        ot_block_cost=plan.cost,
        distortion_bound=bound,
        distortion_slack=bound - single,
    )
    return fields, cond


def _trial_loop(cfg: SimConfig, codebook: np.ndarray, num_j: int,
                num_k: int) -> tuple[np.ndarray, ...]:
    """The trials of both modes: source blocks, k, j, fallback flags
    and decoded blocks, one row or entry per trial. Pass 1 draws the
    four arrays of the trial stream, pass 2 scores, picks and decodes
    from them (see the module docstring)."""
    n = cfg.n
    rng = _stream(cfg.seed, _STREAM_TRIALS)
    cdf = _cdf(cfg.triple.induced_x().probs)[None]
    log_rows = cfg.triple.x_given_u.log_rows

    # pass 1: the trial stream
    trials = cfg.trials
    x_u = rng.random((trials, n))
    ks = rng.integers(num_k, size=trials)
    enc_u = rng.random(trials)
    dec_u = rng.random((trials, n))

    # pass 2: score every trial in batches that share k
    xs = _draw(cdf, 0, x_u, np.empty((trials, n), dtype=np.intp))
    js = np.empty(trials, dtype=np.intp)
    fbs = np.empty(trials, dtype=bool)
    order = np.argsort(ks, kind="stable")
    batch = max(1, _SCORE_CELLS // max(num_j, log_rows.shape[0] * n))
    for group in np.split(order, np.flatnonzero(np.diff(ks[order])) + 1):
        words = codebook[:, ks[group[0]]]
        for lo in range(0, group.size, batch):
            sel = group[lo:lo + batch]
            js[sel], fbs[sel] = _pick(_scores(log_rows, xs[sel], words),
                                      enc_u[sel])
    ys = decode(codebook, js, ks, cfg.triple.y_given_u, dec_u)
    return xs, ks, js, fbs, ys


def _trial_columns(cfg: SimConfig, xs: np.ndarray, ks: np.ndarray,
                   js: np.ndarray, fbs: np.ndarray, ys: np.ndarray,
                   final: np.ndarray | None
                   ) -> tuple[dict[str, np.ndarray], float]:
    """The SimReport.trials columns of the trials that _trial_loop drew
    and their mean distortion, after the correction when it is on;
    final holds the relabelled blocks and is read only then. With the
    correction triangle_ok checks the per-block triangle inequality
    corrected^(1/q) <= distortion^(1/q) + move^(1/q) at
    q = max(1, metric_power)."""
    rho = cfg.rho.costs
    d_pre = rho[xs, ys].mean(axis=1)
    columns = {"k": ks, "j": js, "encoder_fallback": fbs, "distortion": d_pre}
    if cfg.correction:
        q = max(1.0, cfg.metric_power)
        moves = rho[ys, final].mean(axis=1)
        d_post = rho[xs, final].mean(axis=1)
        ok = d_post ** (1.0 / q) <= (d_pre ** (1.0 / q) + moves ** (1.0 / q)
                                     + 1e-9)
        columns.update(correction_move=moves, corrected_distortion=d_post,
                       triangle_ok=ok)
    return columns, float(columns.get("corrected_distortion", d_pre).mean())
