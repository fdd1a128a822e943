"""Tests of the random-codebook simulator: codebook draws, the
likelihood encoder, the memoryless decoder, exact output-law accounting,
the correction stage, and the soft-covering trend."""

import json
import math
import tracemalloc
from contextlib import ExitStack
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ocrate import (
    CapExceeded,
    Channel,
    DistortionMatrix,
    MarkovTriple,
    Pmf,
    SimConfig,
    decode,
    generate_codebook,
    likelihood_encode,
    mixture_output_law,
    run_simulation,
    soft_covering_exact,
)
from ocrate import codesim
from ocrate.codesim import _cdf, _choose_mode, _draw
from ocrate.transport import TransportProblem, solve_ot
from oracles import (exact_fields_dense, mixture_law_by_loop,
                     ot_interior_point, ot_vertex_enumeration)

PINNED = Path(__file__).parent / "pinned"
DEMO_CONFIG = Path(__file__).parents[1] / "demos" / "configs" / "simulate.json"

UNIFORM2 = Pmf(np.array([0.5, 0.5]))
HAMMING2 = DistortionMatrix.hamming(2)


def _quarter_triple() -> MarkovTriple:
    # index = reconstruction reading of the crossover-0.25 doubly
    # symmetric joint: uniform index, identity on the output side
    return MarkovTriple(UNIFORM2, Channel.bsc(0.25), Channel.identity(2))


def test_codebook_shape_and_determinism():
    triple = _quarter_triple()
    book = generate_codebook(triple, n=4, r=1.0, rc=0.5, seed=11)
    assert book.shape == (16, 4, 4)
    assert book.dtype.kind == "i"
    assert set(np.unique(book)) <= {0, 1}
    again = generate_codebook(triple, n=4, r=1.0, rc=0.5, seed=11)
    np.testing.assert_array_equal(book, again)
    other = generate_codebook(triple, n=4, r=1.0, rc=0.5, seed=12)
    assert not np.array_equal(book, other)


def test_codebook_letter_frequencies():
    """Draws follow the index law: a 0.3/0.7 weighting shows up in the
    letter frequencies of a large book within four standard errors."""
    triple = MarkovTriple(Pmf(np.array([0.3, 0.7])),
                          Channel.bsc(0.25), Channel.identity(2))
    book = generate_codebook(triple, n=8, r=1.25, rc=0.0, seed=5)
    assert book.shape == (1024, 1, 8)
    freq = float(np.mean(book == 0))
    sigma = math.sqrt(0.3 * 0.7 / book.size)
    assert abs(freq - 0.3) <= 4.0 * sigma


def test_codebook_caps():
    triple = _quarter_triple()
    with pytest.raises(CapExceeded):
        generate_codebook(triple, n=4, r=7.0, rc=0.0, seed=0)
    # within the word-count cap but too many cells to materialize
    with pytest.raises(CapExceeded):
        generate_codebook(triple, n=16, r=1.5, rc=0.0, seed=0)


def test_likelihood_encode_matches_posterior():
    """Two length-1 codewords with likelihoods 0.75 and 0.25 for the
    observed block are drawn in a 3:1 ratio."""
    book = np.array([[[0]], [[1]]])
    chan = Channel.bsc(0.25)
    rng = np.random.default_rng(17)
    draws = 100_000
    hits = sum(likelihood_encode(book, chan, np.array([0]), 0, rng)[0] == 0
               for _ in range(draws))
    sigma = math.sqrt(0.75 * 0.25 / draws)
    assert abs(hits / draws - 0.75) <= 4.0 * sigma


def test_likelihood_encode_fallback_and_bounds():
    ident = Channel.identity(2)
    book = np.zeros((4, 2, 3), dtype=np.int64)
    rng = np.random.default_rng(0)
    j, fell_back = likelihood_encode(book, ident, np.array([0, 1, 0]), 0, rng)
    assert fell_back and 0 <= j < 4
    j, fell_back = likelihood_encode(book, ident, np.array([0, 0, 0]), 1, rng)
    assert not fell_back and 0 <= j < 4
    with pytest.raises(ValueError):
        likelihood_encode(book, ident, np.array([0, 0, 0]), 2, rng)
    # symbol 2 is outside a binary channel's table
    with pytest.raises(ValueError):
        likelihood_encode(book, ident, np.array([0, 2, 0]), 0, rng)


def test_zero_rate_encoder_is_constant():
    # one message word, so every block maps to j = 0 without fallback
    book = np.array([[[0, 1, 0]]])
    chan = Channel.bsc(0.25)
    rng = np.random.default_rng(3)
    for block in ([0, 0, 0], [1, 1, 1], [0, 1, 1]):
        j, fell_back = likelihood_encode(book, chan, np.array(block), 0, rng)
        assert j == 0 and not fell_back


def test_decode_identity_constant_and_noisy():
    book = np.array([[[0, 1, 1, 0]]])
    rng = np.random.default_rng(9)
    np.testing.assert_array_equal(
        decode(book, 0, 0, Channel.identity(2), rng.random(4)), [0, 1, 1, 0])
    always_one = Channel(np.array([[0.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_array_equal(
        decode(book, 0, 0, always_one, rng.random(4)), [1, 1, 1, 1])

    n = 10_000
    long_book = np.zeros((1, 1, n), dtype=np.int64)
    flips = float(np.mean(decode(long_book, 0, 0, Channel.bsc(0.1),
                                 rng.random(n))))
    sigma = math.sqrt(0.1 * 0.9 / n)
    assert abs(flips - 0.1) <= 4.0 * sigma


def _zero_rich_channel(gen, rows, cols) -> Channel:
    # integer weights 0-3 with one forced positive entry per row leave
    # zeros in most channels
    weights = gen.integers(0, 4, size=(rows, cols)).astype(float)
    weights[np.arange(rows), gen.integers(cols, size=rows)] += 1.0
    return Channel(weights / weights.sum(axis=1, keepdims=True))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6),
       st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_batched_decode_matches_row_inversion(nu, ny, num_k, n, seed):
    """Each decoded symbol is the inverse of its codeword letter's
    normalized row CDF at the trial's uniform, one row at a time, as in
    a per-block decoder: the count of the row's first |Y| - 1 CDF
    entries at most the uniform."""
    gen = np.random.default_rng(seed)
    chan = _zero_rich_channel(gen, nu, ny)
    cdfs = np.cumsum(chan.rows, axis=1)
    cdfs /= cdfs[:, -1:]
    book = gen.integers(nu, size=(5, num_k, n))
    trials = 30
    js, ks = gen.integers(5, size=trials), gen.integers(num_k, size=trials)
    # uniforms on the CDF steps themselves hit the comparison's edge
    uniforms = gen.random((trials, n))
    uniforms[:, 0] = cdfs[book[js, ks, 0], gen.integers(ny)]
    got = decode(book, js, ks, chan, uniforms)
    assert got.shape == (trials, n)
    for t in range(trials):
        for i in range(n):
            cdf = cdfs[book[js[t], ks[t], i]]
            assert got[t, i] == int((cdf[:-1] <= uniforms[t, i]).sum())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.integers(1, 30), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1))
@example(64, 30, 1, 0).via("rows as wide as a binary n = 6 block plan")
def test_correction_relabel_matches_comparison_tensor(size, trials, n, seed):
    """Both correction stages relabel through the decoder's row
    sampler: the Monte-Carlo one letter by letter, the exact one on
    block indices with |Y|^n-wide plan rows. That is the count over the
    whole (trials, n, size - 1) comparison tensor of the normalized CDF
    entries at most the uniform."""
    gen = np.random.default_rng(seed)
    rows = _zero_rich_channel(gen, size, size).rows
    cdfs = rows.cumsum(1)
    cdfs /= cdfs[:, -1:]
    ys = gen.integers(size, size=(trials, n))
    u = gen.random((trials, n))
    # uniforms on the CDF steps themselves, the last one included, and
    # the largest uniform below 1
    u[:, 0] = cdfs[ys[:, 0], gen.integers(size, size=trials)]
    u[:, -1] = np.nextafter(1.0, 0.0)
    want = (u[..., None] >= cdfs[ys][..., :-1]).sum(-1)
    np.testing.assert_array_equal(
        _draw(_cdf(rows), ys, u, np.empty(ys.shape, dtype=np.intp)), want)


def _constant_correction_uniforms(u):
    """A patch of codesim._stream under which every correction uniform
    is u and the other streams are the seeded ones."""
    stream = codesim._stream

    def patched(seed, tag):
        if tag != codesim._STREAM_CORRECTION:
            return stream(seed, tag)
        return SimpleNamespace(random=lambda size: np.full(size, u))

    return patch.object(codesim, "_stream", patched)


@pytest.mark.parametrize("row, u", [
    ([0.0, 1.0], 0.0),
    # the cumulative sum ends at 0.9999999999999999, the largest uniform
    ([0.1] * 10 + [0.0], np.nextafter(1.0, 0.0)),
])
def test_no_draw_lands_on_a_zero_mass_symbol(row, u):
    """The decoder and both correction stages never emit a symbol of
    zero mass, at the smallest uniform and at the largest: the decoder
    on the given channel row, and the corrections on every row of their
    plans with every relabelling uniform set to u."""
    chan = Channel(np.array([row]))
    [got] = decode(np.zeros((1, 1, 1), np.int8), 0, 0, chan, np.array([u]))
    assert chan.rows[0, got] > 0.0
    gen = np.random.default_rng(3)
    triple = MarkovTriple(Pmf(np.array([0.3, 0.3, 0.4])),
                          Channel(gen.dirichlet(np.ones(3), 3)),
                          Channel(np.array([[0.0, 0.4, 0.6], [0.7, 0.3, 0.0],
                                            [0.5, 0.0, 0.5]])))
    for mode, plans in (("exact", "_block_plan"), ("monte-carlo",
                                                    "solve_ot")):
        cfg = SimConfig(triple=triple, rho=DistortionMatrix.hamming(3), n=3,
                        r=0.5, rc=0.3, trials=400, seed=1, mode=mode)
        seen, blocks = [], []
        plan, columns = getattr(codesim, plans), codesim._trial_columns

        def plan_spy(*args):
            out = plan(*args)
            seen.append(out.conditional_rows())
            return out

        def columns_spy(cfg, xs, ks, js, fbs, ys, final):
            blocks.append((ys, final))
            return columns(cfg, xs, ks, js, fbs, ys, final)

        with _constant_correction_uniforms(u), \
                patch.object(codesim, plans, plan_spy), \
                patch.object(codesim, "_trial_columns", columns_spy):
            assert run_simulation(cfg).mode == mode
        [cond], [(ys, final)] = seen, blocks
        if mode == "exact":
            ys, final = (np.ravel_multi_index(b.T, (3,) * cfg.n)
                         for b in (ys, final))
        assert np.all(cond[ys, final] > 0.0)


def test_mixture_output_law_hand_values():
    chan = Channel.bsc(0.25)
    law = mixture_output_law(np.array([[0], [1]]), chan)
    np.testing.assert_allclose(law, [0.5, 0.5], atol=1e-15)

    # single codeword through the identity channel: a point mass on the
    # block, indexed with the first symbol most significant
    law = mixture_output_law(np.array([[0, 1]]), Channel.identity(2))
    np.testing.assert_allclose(law, [0.0, 1.0, 0.0, 0.0], atol=0)

    # two codewords, length 2: average of the two product rows
    cw = np.array([[0, 0], [1, 0]])
    rows = chan.rows
    want = 0.5 * (np.kron(rows[0], rows[0]) + np.kron(rows[1], rows[0]))
    np.testing.assert_allclose(mixture_output_law(cw, chan), want, atol=1e-15)

    with pytest.raises(CapExceeded):
        # 2^24 output blocks, past the cap before any allocation
        mixture_output_law(np.zeros((1, 24), dtype=np.int64), chan)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6),
       st.integers(1, 40), st.integers(0, 3),
       st.sampled_from([1, 7, 64, None]), st.integers(0, 2 ** 32 - 1))
@example(2, 2, 1, 1, 0, None, 0).via("n = 1, m = 1")
def test_mixture_output_law_matches_a_product_per_codeword(
        nv, ny, n, m, repeats, chunk_work, seed):
    """The prefix fold equals the plain sum of one Kronecker product per
    codeword, with repeated codewords, channels with zero entries, |V|
    and |Y| apart, and codebooks folded in several chunks."""
    gen = np.random.default_rng(seed)
    chan = _zero_rich_channel(gen, nv, ny)
    words = gen.integers(nv, size=(m, n))
    words = np.concatenate([words, words[gen.integers(m, size=repeats)]])
    gen.shuffle(words)
    if chunk_work is None:
        law = mixture_output_law(words, chan)
    else:
        with patch.object(codesim, "_CHUNK_WORK", chunk_work):
            law = mixture_output_law(words, chan)
    assert law.shape == (ny ** n,)
    assert np.max(np.abs(law - mixture_law_by_loop(words, chan.rows))) <= 1e-15
    assert abs(law.sum() - 1.0) <= 1e-12


class _RowReads:
    """A channel that counts the reads of its rows: mixture_output_law
    reads them once per position of each chunk it folds."""

    def __init__(self, chan: Channel):
        self.chan, self.reads = chan, 0
        self.output_size = chan.output_size

    @property
    def rows(self) -> np.ndarray:
        self.reads += 1
        return self.chan.rows


def test_mixture_output_law_chunks_by_the_cells_of_each_position():
    """Chunks are cut by the cells each position's tensor holds, not by
    word count. 3000 binary words of length 16 fold in one chunk (by
    word count they took 98 chunks of at most 30 words). With a cap of
    2^14 cells (128 KiB), 2000 words over a 4-letter index alphabet
    fold with a peak below 2 MiB, where one chunk of all of them holds
    2000 x 2^8 cells at position 6 and peaks near 11 MiB."""
    gen = np.random.default_rng(0)
    chan = Channel(gen.dirichlet(np.ones(2), 4))
    counted = _RowReads(chan)
    words = gen.integers(2, size=(3000, 16))
    mixture_output_law(words, counted)
    assert counted.reads == 16
    words = gen.integers(4, size=(2000, 14))
    with patch.object(codesim, "_CHUNK_WORK", 2 ** 14):
        tracemalloc.start()
        try:
            law = mixture_output_law(words, chan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert abs(law.sum() - 1.0) <= 1e-12


def test_soft_covering_edge_cases():
    ident = Channel.identity(2)
    # zero rate, one codeword: the mixture is a point mass, and its
    # distance to the uniform pair is exactly one half
    assert soft_covering_exact(UNIFORM2, ident, 1, 0.0, seed=0) == 0.5
    # a channel that ignores its input is covered at any rate
    flat = Channel(np.array([[0.3, 0.7], [0.3, 0.7]]))
    assert soft_covering_exact(UNIFORM2, flat, 3, 0.0, seed=0) <= 1e-12
    with pytest.raises(ValueError):
        soft_covering_exact(UNIFORM2, ident, 2, 1.0, seed=0, num_codebooks=0)
    with pytest.raises(CapExceeded):
        soft_covering_exact(UNIFORM2, ident, 1, 25.0, seed=0)


def test_soft_covering_checks_its_caps_before_it_draws():
    """At r = 1, n = 23 the 2^23 words pass the word cap but their
    193M letters do not: CapExceeded comes before any word, uniform or
    output law is allocated; the words and their uniforms alone would
    take about 3 GB. Past the block cap that cap is named first."""
    chan = Channel.bsc(0.1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="letters"):
            soft_covering_exact(UNIFORM2, chan, 23, 1.0, seed=0)
        with pytest.raises(CapExceeded, match="output blocks"):
            soft_covering_exact(UNIFORM2, chan, 24, 1.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.2, 0.0, 0.5, 0.3],
                                     [1e-9, 1.0 - 2e-9, 1e-9]])
def test_soft_covering_words_are_numpy_choice_draws(weights):
    """The j-sliced sampler draws the words rng.choice drew before it,
    slice boundaries included, on 5 seeds."""
    p = np.array(weights)
    for seed in range(5):
        for shape in ((1000, 7), (codesim._CODEBOOK_SLICE // 5 + 3, 5)):
            np.testing.assert_array_equal(
                codesim._draw_words(p, shape, codesim._stream(seed, 0)),
                codesim._stream(seed, 0).choice(p.size, size=shape, p=p))


def test_soft_covering_trend():
    """Above the mutual information the codebook identity washes out:
    the averaged total variation drops along n = 2, 4, 6."""
    tvs = [soft_covering_exact(UNIFORM2, Channel.bsc(0.1), n, 1.5,
                               seed=3, num_codebooks=8)
           for n in (2, 4, 6)]
    np.testing.assert_allclose(tvs, [0.16250, 0.12265, 0.07498], atol=5e-4)
    assert tvs[0] > tvs[1] > tvs[2]


def test_exact_run_invariants():
    """Exact mode at coding rate 0.6 and shared-randomness rate 0.6 on
    the crossover-0.25 pair: the corrected output law is the iid target
    to machine precision, the idealized distortion is the single-letter
    value exactly, the distortion bound holds, and every trial obeys the
    per-block triangle inequality."""
    triple = _quarter_triple()
    pre_tvs = []
    soft_tvs = []
    for n in (2, 4, 6):
        cfg = SimConfig(triple=triple, rho=HAMMING2, n=n, r=0.6, rc=0.6,
                        trials=3, seed=0, mode="exact")
        rep = run_simulation(cfg)
        assert rep.mode == "exact" and not rep.tv_output_is_plugin
        assert rep.num_j == math.ceil(2.0 ** (0.6 * n) - 1e-9)
        assert rep.num_k == rep.num_j
        assert rep.tv_output_vs_iid <= 1e-12
        assert abs(rep.single_letter_distortion - 0.25) <= 1e-15
        assert rep.idealized_distortion == rep.single_letter_distortion
        assert rep.mean_distortion <= rep.distortion_bound + 1e-12
        want = (rep.pre_correction_distortion + rep.ot_block_cost)
        assert abs(rep.distortion_bound - want) <= 1e-12
        assert abs(rep.distortion_slack
                   - (rep.distortion_bound - 0.25)) <= 1e-12
        assert rep.trials["k"].size == 3
        assert rep.trials["triangle_ok"].all()
        assert rep.encoder_fallbacks == rep.trials["encoder_fallback"].sum()
        pre_tvs.append(rep.tv_pre_correction)
        soft_tvs.append(rep.tv_softcover)
    assert pre_tvs[0] > pre_tvs[1] > pre_tvs[2]
    assert soft_tvs[0] > soft_tvs[1] > soft_tvs[2]
    assert pre_tvs[2] <= 0.5


def test_exact_block_correction_at_n8():
    # HiGHS missed the marginals of this run's full 256-block problem by
    # more than 1e-9, and the transport layer must snap a plan onto them
    # instead of failing; the plan of the flow on the letter-change
    # graph now meets them to 1e-17
    cfg = SimConfig(triple=_quarter_triple(), rho=HAMMING2, n=8, r=0.6,
                    rc=0.6, trials=4, seed=1, mode="exact")
    rep = run_simulation(cfg)
    assert rep.mode == "exact"
    assert rep.tv_output_vs_iid <= 1e-9
    assert rep.trials["triangle_ok"].all()


def test_n8_block_cost_is_the_transport_minimum():
    """The n = 8 demo's block correction (the pinned
    simulate_demo_n8_seed1 run) costs what an interior-point solve of
    the whole 256 x 256 problem costs. Eleven of its output blocks have
    mass below 1e-7, and the full simplex plan of solve_ot sat 1.45e-8
    above this minimum; the plan is now a minimum-cost flow on the
    2048 arcs that change one letter."""
    seen = []
    plan = codesim._block_plan

    def spy(p, q, rho, n):
        seen.append((p, q, rho, n))
        return plan(p, q, rho, n)

    with patch.object(codesim, "_block_plan", spy):
        rep = run_simulation(_demo_config(n=8, seed=1, trials=4))
    [(p, q, rho, n)] = seen
    assert codesim._is_metric(rho) and n == 8
    blocks = codesim.all_blocks(2, n)
    costs = codesim._block_cost(rho, blocks)
    assert (p < 1e-7).sum() == 11
    assert abs(rep.ot_block_cost - ot_interior_point(p, q, costs)) <= 1e-12


def _letter_costs(family: str, size: int,
                  gen: np.random.Generator) -> np.ndarray:
    i = np.arange(size, dtype=float)
    if family == "hamming":
        return 1.0 - np.eye(size)
    if family == "absolute":
        return np.abs(i[:, None] - i)
    if family == "points":
        pts = gen.normal(size=(size, 2))
        return np.sqrt(((pts[:, None] - pts) ** 2).sum(axis=2))
    if family == "squared":
        return (i[:, None] - i) ** 2
    if family == "pseudo":
        # Hamming with letters 0 and 1 merged
        merged = np.maximum(i, 1)
        return (merged[:, None] != merged).astype(float)
    return gen.uniform(0.0, 1.0, (size, size))      # "uniform"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["hamming", "absolute", "points", "squared",
                        "uniform"]),
       st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2),
                        (2, 4), (4, 2), (2, 5), (3, 3), (2, 6), (4, 3),
                        (2, 7), (2, 8), (3, 5), (4, 4)]),
       st.sampled_from([0.0, 1e-9, 0.05, 1.0]), st.integers(0, 2 ** 32 - 1))
@example("hamming", (2, 6), 1e-9, 3).via(
    "near-equal laws: 1 - sum(min(p, q)) loses its digits")
@example("hamming", (2, 2), 0.0, 0).via("p == q: nothing moves")
@example("squared", (3, 1), 0.0, 0).via("p == q, cost no metric")
@example("pseudo", (3, 3), 0.05, 1).via(
    "a pseudo-metric: the arcs between letters 0 and 1 cost 0")
def test_block_plan_is_a_minimum_cost_coupling(family, shape, closeness,
                                               seed):
    """The exact correction's block plan, on the mean per-letter cost of
    |Y|^n <= 256 blocks between a law p and q = (1 - t) p + t r: it
    meets both marginals, costs the vertex-enumeration minimum on at
    most 4 blocks a side and never more than the full solve_ot plan.
    For a metric letter cost it is a minimum-cost flow on the arcs that
    change one letter, it keeps min(p, q) in place, and it is the
    diagonal at cost 0 when p == q; for any other cost it is the full
    solve_ot plan bit for bit. The laws are Dirichlet(1) draws: on laws
    with symbols lighter than the HiGHS tolerance solve_ot's own plans
    can sit above the minimum, which this test leaves out."""
    size, n = shape
    gen = np.random.default_rng(seed)
    rho = _letter_costs(family, size, gen)
    metric = codesim._is_metric(rho)
    # (i - j)^2 on two letters is |i - j|
    assert metric == (family in ("hamming", "absolute", "points", "pseudo")
                      or family == "squared" and size == 2)
    blocks = codesim.all_blocks(size, n)
    costs = codesim._block_cost(rho, blocks)
    p = gen.dirichlet(np.ones(len(blocks)))
    r = gen.dirichlet(np.ones(len(blocks)))
    q = (1.0 - closeness) * p + closeness * r
    got = codesim._block_plan(p, q, rho, n)
    full = solve_ot(TransportProblem(Pmf(p), Pmf(q), costs))
    np.testing.assert_allclose(got.table.sum(axis=1), p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.table.sum(axis=0), q, rtol=0, atol=1e-12)
    assert got.cost == float((got.table * costs).sum())
    assert got.cost <= full.cost + 1e-12
    if len(blocks) <= 4:
        # without a metric the plan is solve_ot's, and where the laws
        # differ by less than the HiGHS tolerance (1e-7) that plan can
        # sit about 1e-9 above the minimum: HiGHS sees p == q, and
        # repairing the marginals spreads the difference over
        # non-optimal cells
        want = ot_vertex_enumeration(p, q, costs)
        near = not metric and closeness == 1e-9
        assert abs(got.cost - want) <= (1e-8 if near else 1e-12)
    if not metric:
        assert got.table.tobytes() == full.table.tobytes()
    elif closeness == 0.0:
        assert got.cost == 0.0
        np.testing.assert_array_equal(got.table, np.diag(p))
    else:
        assert np.all(np.diag(got.table) >= np.minimum(p, q))


def test_flow_plan_rejects_a_cyclic_flow():
    """The positive arcs of a basic flow form a forest; a flow that runs
    both ways between two blocks has no topological order and must raise
    instead of returning a plan."""
    supply, demand = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    with patch.object(codesim, "_flow_lp",
                      lambda matrix, costs, *laws: np.ones(costs.size)), \
            pytest.raises(RuntimeError, match="cycle"):
        codesim._flow_plan(supply, demand, HAMMING2.costs, 1)


def test_exact_run_determinism():
    triple = _quarter_triple()
    cfg = SimConfig(triple=triple, rho=HAMMING2, n=4, r=0.6, rc=0.6,
                    trials=5, seed=42, mode="exact")
    first = json.dumps(run_simulation(cfg).to_dict(), sort_keys=True)
    second = json.dumps(run_simulation(cfg).to_dict(), sort_keys=True)
    assert first == second


def _demo_config(**changes) -> SimConfig:
    """The run of demos/configs/simulate.json, with fields replaced."""
    raw = json.loads(DEMO_CONFIG.read_text())
    raw.update(changes)
    triple = MarkovTriple(Pmf(np.array(raw.pop("weights"))),
                          Channel(np.array(raw.pop("x_given_u"))),
                          Channel(np.array(raw.pop("y_given_u"))))
    return SimConfig(triple=triple, rho=DistortionMatrix(
        np.array(raw.pop("rho"))), **raw)


def _fallback_config() -> SimConfig:
    """A Monte-Carlo run on channels with zero entries, where most
    source blocks have zero likelihood under every codeword of their
    column and the encoder falls back to an equal-weight draw (288 of
    the 300 trials; its pinned report has the other 12 with -inf scores
    among finite ones)."""
    triple = MarkovTriple(
        Pmf(np.array([0.3, 0.3, 0.4])),
        Channel(np.array([[.9, .1, 0], [0, .5, .5], [.2, 0, .8]])),
        Channel(np.array([[.7, .3, 0], [.1, .8, .1], [0, .2, .8]])))
    return SimConfig(triple=triple, rho=DistortionMatrix.hamming(3), n=12,
                     r=0.15, rc=0.1, trials=300, seed=3, mode="monte-carlo")


def _assert_pinned(report: dict, name: str):
    # the same seed must give the same report bytes from one version of
    # the code to the next, not only from one run to the next; no field
    # passes through a BLAS product, so every byte is pinned
    assert json.dumps(report, sort_keys=True) == \
        (PINNED / f"{name}.json").read_text()


@pytest.mark.parametrize("name, changes", [
    ("simulate_demo_config", {}),
    ("simulate_demo_n8_seed1", {"n": 8, "seed": 1, "trials": 4}),
    ("simulate_demo_uncorrected", {"correction": False}),
])
def test_exact_report_bytes_are_pinned(name, changes):
    _assert_pinned(run_simulation(_demo_config(**changes)).to_dict(), name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 4), st.sampled_from([0.0, 0.4, 1.0]),
       st.sampled_from([0.0, 0.3, 0.8]), st.booleans(),
       st.sampled_from(["hamming", "absolute", "squared", "uniform"]),
       st.sampled_from([1.0, 2.0]), st.integers(0, 2 ** 32 - 1))
@example(2, 2, 2, 4, 1.0, 0.8, True, "hamming", 1.0, 0).via(
    "metric cost: the plan is a flow on the letter-change graph")
@example(3, 3, 3, 3, 0.4, 0.3, True, "uniform", 2.0, 1).via(
    "no metric: the plan is solve_ot's on the whole block problem")
@example(2, 3, 2, 3, 0.4, 0.3, False, "absolute", 1.0, 2).via(
    "|X| != |Y| without the correction")
def test_exact_fields_match_the_dense_joint(nu, nx, ny, n, r, rc,
                                            correction, family, power,
                                            seed):
    """Every exact-mode law field, read off the per-position laws
    P(X_i, Y^n), is within 1e-12 of the dense reference: the block joint
    summed by loops over the codebook, the dense block cost and, with the
    correction, joint @ cond on the plan that the run solved. The trial
    columns depend on the laws only through that plan: with the
    reference's fields in place of the run's they are equal."""
    gen = np.random.default_rng(seed)
    if correction:
        ny = nx
    triple = MarkovTriple(Pmf(gen.dirichlet(np.ones(nu))),
                          _zero_rich_channel(gen, nu, nx),
                          _zero_rich_channel(gen, nu, ny))
    rho = _letter_costs(family, max(nx, ny), gen)[:nx, :ny]
    cfg = SimConfig(triple=triple, rho=DistortionMatrix(rho), n=n, r=r,
                    rc=rc, trials=20, seed=seed, correction=correction,
                    mode="exact", metric_power=power)
    plans = []
    block_plan = codesim._block_plan

    def spy(*args):
        plans.append(block_plan(*args))
        return plans[-1]

    with patch.object(codesim, "_block_plan", spy):
        rep = run_simulation(cfg)
    assert rep.mode == "exact" and len(plans) == correction
    plan = plans[0] if correction else None
    codebook = generate_codebook(triple, n, r, rc, seed)
    want = exact_fields_dense(triple.weights.probs, triple.x_given_u.rows,
                              triple.y_given_u.rows, rho, codebook,
                              (plan.table, plan.cost) if correction
                              else None, power)
    for key, value in want.items():
        assert abs(getattr(rep, key) - value) <= 1e-12, key
    cond = plan.conditional_rows() if correction else None
    with patch.object(codesim, "_exact_laws", lambda *args: (want, cond)):
        again = run_simulation(cfg)
    assert again.trials.keys() == rep.trials.keys()
    for name, column in rep.trials.items():
        assert again.trials[name].tobytes() == column.tobytes(), name


@pytest.mark.parametrize("n", [4, 6])
def test_exact_trials_follow_the_exact_laws(n):
    """Exact-mode trials are draws from the enumerated laws of their
    codebook: their mean distortion before and after the correction
    lies within 4 standard errors of the exact means."""
    rep = run_simulation(_demo_config(n=n, trials=20000))
    assert rep.mode == "exact"
    pre = rep.trials["distortion"]
    post = rep.trials["corrected_distortion"]
    assert rep.trial_mean_distortion == post.mean()
    for draws, exact in ((pre, rep.pre_correction_distortion),
                         (post, rep.mean_distortion)):
        error = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) <= 4.0 * error


def test_report_holds_trials_as_columns():
    """At n = 1, 10^5 exact trials with the correction, the report holds
    at most 64 bytes a trial and the run peaks at most 160 bytes a
    trial, so the 2^24 one-letter trials that TRIAL_CAP admits stay
    within about 1 GiB of report."""
    trials = 10 ** 5
    cfg = _demo_config(n=1, trials=trials)
    tracemalloc.start()
    try:
        rep = run_simulation(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.mode == "exact"
    assert held <= 64 * trials
    assert peak <= 160 * trials
    assert rep.trials["triangle_ok"].size == trials


def test_exact_laws_hold_no_block_joint():
    """Binary n = 11 and 12 without the correction have 4.2M and 16.8M
    block pairs, a 32 and a 128 MiB dense joint; with 3 and 13 codewords
    the encoder and decoder tensors have 6144 and 53248 cells each. Auto
    runs both exact, as forcing exact does, and the per-position laws
    keep the run's peak below an eighth of one such joint."""
    for n, r, codes in ((11, 0.1, 3), (12, 0.3, 13)):
        cfg = _demo_config(n=n, r=r, rc=0.0, trials=10, correction=False,
                           mode="auto")
        tracemalloc.start()
        try:
            rep = run_simulation(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.mode == "exact" and rep.num_j * rep.num_k == codes
        joint_bytes = 2 ** n * 2 ** n * 8
        assert peak <= joint_bytes / 8
        forced = SimConfig(**dict(vars(cfg), mode="exact"))
        assert run_simulation(forced).to_dict() == rep.to_dict()


def _triangle_ok(corrected, distortion, move, exponent):
    return corrected ** exponent <= (distortion ** exponent
                                     + move ** exponent + 1e-9)


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
@pytest.mark.parametrize("power", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_trial_records_follow_the_per_trial_formulas(mode, power):
    """Each trial's distortions, correction move and triangle check are
    the per-trial scalar formulas on its source, output and relabelled
    blocks, with the check's exponent 1/q at q = max(1, p). The cost is
    no metric (0 -> 2 costs 1, 0 -> 1 -> 2 costs 0.02), so the check
    fails on some trials, and at p = 0.5 an exponent of 1/p would flip
    some of them."""
    gen = np.random.default_rng(7)
    triple = MarkovTriple(Pmf(np.array([0.3, 0.3, 0.4])),
                          Channel(gen.dirichlet(np.ones(3), 3)),
                          Channel(gen.dirichlet(np.ones(3), 3)))
    rho = np.array([[0.0, 0.01, 1.0], [0.01, 0.0, 0.01], [1.0, 0.01, 0.0]])
    cfg = SimConfig(triple=triple, rho=DistortionMatrix(rho), n=3, r=0.5,
                    rc=0.3, trials=300, seed=2, mode=mode,
                    metric_power=power)
    blocks = []
    columns = codesim._trial_columns

    def spy(cfg, xs, ks, js, fbs, ys, final):
        blocks.append((xs, ys, final))
        return columns(cfg, xs, ks, js, fbs, ys, final)

    with patch.object(codesim, "_trial_columns", spy):
        rep = run_simulation(cfg)
    assert rep.mode == mode
    [(xs, ys, final)] = blocks
    q = max(1.0, power)
    flips = 0
    trials = [rep.trials[name].tolist() for name in (
        "distortion", "correction_move", "corrected_distortion",
        "triangle_ok")]
    for d, move, post, ok, x, y, f in zip(*trials, xs, ys, final,
                                          strict=True):
        assert d == sum(rho[x, y].tolist()) / cfg.n
        assert move == sum(rho[y, f].tolist()) / cfg.n
        assert post == sum(rho[x, f].tolist()) / cfg.n
        assert ok is _triangle_ok(post, d, move, 1.0 / q)
        flips += ok is not _triangle_ok(post, d, move, 1.0 / power)
    assert not rep.trials["triangle_ok"].all()
    assert (flips > 0) == (power < 1.0)


@pytest.mark.parametrize("name, make_config", [
    ("simulate_mc_binary_n24",lambda: _demo_config(
        y_given_u=[[0.9, 0.1], [0.2, 0.8]], n=24, r=0.3, rc=0.1,
        trials=200, mode="monte-carlo")),
    ("simulate_mc_fallback_n12", _fallback_config),
])
def test_monte_carlo_report_bytes_are_pinned(name, make_config):
    _assert_pinned(run_simulation(make_config()).to_dict(), name)


@pytest.mark.parametrize("mode, helpers", [
    ("exact", ("decode", "_trial_loop", "_trial_columns", "_block_plan")),
    ("monte-carlo", ("decode", "solve_ot", "_trial_loop", "_trial_columns")),
])
def test_run_calls_each_patchable_helper_once(mode, helpers):
    """The benchmark captures a Monte-Carlo run's decoded blocks and
    correction plan by patching codesim.decode and codesim.solve_ot,
    and tests patch _trial_loop, _trial_columns and _block_plan: a
    run reaches each through its module global, once."""
    cfg = _demo_config(n=3, trials=20, mode=mode)
    with ExitStack() as stack:
        spies = [stack.enter_context(patch.object(
            codesim, name, wraps=getattr(codesim, name))) for name in helpers]
        assert run_simulation(cfg).mode == mode
    assert [spy.call_count for spy in spies] == [1] * len(helpers)


def test_exact_mode_at_the_plan_cap():
    # 2^10 output blocks make a plan of exactly 2^20 cells; this run once
    # asked for a 2.2 GiB dense constraint matrix and died
    cfg = _demo_config(n=10, r=0.5, rc=0.3, seed=0)
    rep = run_simulation(cfg)
    assert rep.mode == "exact"
    assert rep.tv_output_vs_iid <= 1e-9
    assert rep.trials["triangle_ok"].all()
    # one more letter passes every other cap but not the plan's
    with pytest.raises(CapExceeded, match="caps"):
        run_simulation(_demo_config(n=11, r=0.5, rc=0.3, seed=0))
    auto = _demo_config(n=11, r=0.5, rc=0.3, seed=0, mode="auto", trials=2)
    assert run_simulation(auto).mode == "monte-carlo"
    # without the correction stage there is no plan to cap
    plain = _demo_config(n=11, r=0.5, rc=0.3, seed=0, correction=False)
    assert _choose_mode(plain, 46, 10) == "exact"


@pytest.mark.parametrize("nx, ny", [(1, 2), (2, 1)])
def test_one_letter_alphabets_leave_exact_mode_at_the_block_tables(nx, ny):
    """With one letter on a side, 2^23 blocks on the other fit the
    likelihood and decoder tensors of one codeword, but the block tables
    and the per-position law and letter-cost tensors (n |X| |Y|^n
    cells, 1.5 GB each) do not."""
    triple = MarkovTriple(UNIFORM2, Channel(np.full((2, nx), 1.0 / nx)),
                          Channel(np.full((2, ny), 1.0 / ny)))
    cfg = SimConfig(triple=triple, rho=DistortionMatrix(np.ones((nx, ny))),
                    n=23, r=0.0, rc=0.0, trials=4, seed=0, correction=False)
    assert _choose_mode(cfg, 1, 1) == "monte-carlo"
    with pytest.raises(CapExceeded, match="caps"):
        _choose_mode(SimConfig(**dict(vars(cfg), mode="exact")), 1, 1)
    # at n = 19 the tensors have 19 * 2^19 < 10^7 cells
    assert _choose_mode(SimConfig(**dict(vars(cfg), n=19)), 1, 1) == "exact"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, 1e-12, 0.1, 0.5, 1.0, 3.0, 7.25]),
                min_size=1, max_size=12).filter(lambda w: sum(w) > 0.0),
       st.integers(0, 2 ** 32 - 1))
def test_letters_match_numpy_choice(weights, seed):
    """The letter draws of the codebook and the Monte-Carlo source
    blocks, size n at once, are rng.choice's from the same uniforms."""
    p = np.array(weights) / sum(weights)
    cdf = _cdf(p)[None]
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (1, 7):
        np.testing.assert_array_equal(
            _draw(cdf, 0, fast.random(n), np.empty(n, dtype=np.intp)),
            slow.choice(p.size, size=n, p=p))
    # both used the same uniforms
    assert fast.random() == slow.random()
    # uniforms on the CDF steps themselves hit the comparison's edge
    edges = np.append(cdf[cdf < 1.0], 0.0)
    np.testing.assert_array_equal(
        _draw(cdf, 0, edges, np.empty(edges.size, dtype=np.int8)),
        cdf[0].searchsorted(edges, side="right"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, 1e-12, 0.1, 0.5, 1.0, 3.0]),
                min_size=1, max_size=4).filter(lambda w: sum(w) > 0.0),
       st.integers(1, 9), st.integers(1, 4), st.integers(1, 5),
       st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
def test_codebook_slices_match_numpy_choice(weights, num_j, num_k, n,
                                            slice_cells, seed):
    """The codebook drawn in j-slices of at most slice_cells cells (at
    least one word row) is rng.choice over the whole array, bit for
    bit."""
    p = np.array(weights) / sum(weights)
    triple = MarkovTriple(Pmf(p), Channel.identity(p.size),
                          Channel.identity(p.size))
    r, rc = math.log2(num_j) / n, math.log2(num_k) / n
    with patch.object(codesim, "_CODEBOOK_SLICE", slice_cells):
        book = generate_codebook(triple, n, r, rc, seed)
    assert book.shape == (num_j, num_k, n)
    slow = codesim._stream(seed, codesim._STREAM_CODEBOOK)
    np.testing.assert_array_equal(
        book, slow.choice(p.size, size=book.shape, p=p))


@pytest.mark.parametrize("nu, nx, ny, n, r, rc, dtype", [
    # a letter times n passes 127 (int8) and then 32767 (int16): index
    # arithmetic on the entries themselves would wrap
    (3, 2, 2, 100, 0.05, 0.02, np.int8),
    (141, 100, 40, 240, 0.02, 0.01, np.int16),
])
def test_wide_index_alphabet(nu, nx, ny, n, r, rc, dtype):
    """The codebook takes the smallest signed dtype that holds the index
    alphabet, with the values of one rng.choice, and a Monte-Carlo run
    on it picks every j of a per-trial loop of the plain encoder."""
    gen = np.random.default_rng(nu)
    p = gen.dirichlet(np.ones(nu))
    triple = MarkovTriple(Pmf(p), Channel(gen.dirichlet(np.ones(nx), nu)),
                          Channel(gen.dirichlet(np.ones(ny), nu)))
    book = generate_codebook(triple, n, r, rc, seed=5)
    assert book.dtype == dtype
    slow = codesim._stream(5, codesim._STREAM_CODEBOOK)
    np.testing.assert_array_equal(
        book, slow.choice(nu, size=book.shape, p=triple.weights.probs))
    cfg = SimConfig(triple=triple, rho=DistortionMatrix(gen.random((nx, ny))),
                    n=n, r=r, rc=rc, trials=20, seed=5, correction=False,
                    mode="monte-carlo")
    rep = run_simulation(cfg)
    assert (rep.num_j, rep.num_k) == book.shape[:2]
    with patch.object(codesim, "_trial_loop", _per_trial_loop):
        assert run_simulation(cfg).to_dict() == rep.to_dict()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 30),
       st.integers(1, 9), st.integers(1, 12), st.integers(1, 64),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 5e-324]))
# a subnormal likelihood is positive: its word's score stays finite
@example(nu=3, nx=3, num_j=7, n=9, trials=5, slice_cells=20, seed=0,
         tiny=5e-324)
# about 2000 zero-likelihood letters a word (seed 3 leaves a zero in
# the one channel row) still read -inf
@example(nu=1, nx=2, num_j=2, n=4000, trials=2, slice_cells=64, seed=3,
         tiny=0.0)
def test_scores_match_per_codeword_loop(nu, nx, num_j, n, trials,
                                        slice_cells, seed, tiny):
    """_scores, built in one-hot j-slices of at most slice_cells cells
    (at least one word), is -inf exactly where a letter of the word has
    zero likelihood, and otherwise the sum of the letters' logs, each
    clamped at log(1e-300) as in Channel.log_rows, to round-off. A
    positive tiny takes the place of the channel's zeros."""
    gen = np.random.default_rng(seed)
    chan = _zero_rich_channel(gen, nu, nx)
    if tiny:
        chan = Channel(np.where(chan.rows > 0.0, chan.rows, tiny))
    words = gen.integers(nu, size=(num_j, n)).astype(
        np.min_scalar_type(-nu))
    blocks = gen.integers(nx, size=(trials, n))
    with patch.object(codesim, "_CODEBOOK_SLICE", slice_cells):
        got = codesim._scores(chan.log_rows, blocks, words)
    assert got.shape == (trials, num_j)
    for b in range(trials):
        for j in range(num_j):
            probs = [float(chan.rows[words[j, i], blocks[b, i]])
                     for i in range(n)]
            if min(probs) == 0.0:
                assert got[b, j] == -np.inf
            else:
                want = math.fsum(math.log(max(q, 1e-300)) for q in probs)
                assert abs(got[b, j] - want) <= 1e-12 * abs(want)


def _reference_encode(codebook, x_given_u, x_block, k, u):
    """The likelihood encoder by its plain formula: the log table built
    from the rows on every call, a 2-D fancy index, and the normalized
    CDF inverted at the uniform u with searchsorted(side="right"), as
    rng.choice inverts it; equal weights when every likelihood is
    zero."""
    num_j = codebook.shape[0]
    probs = x_given_u.rows[codebook[:, k, :], x_block[None, :]]
    with np.errstate(divide="ignore"):
        scores = np.where(probs > 0.0, np.log(np.maximum(probs, 1e-300)),
                          -np.inf).sum(axis=1)
    top = scores.max()
    fell_back = not np.isfinite(top)
    if fell_back:
        w = np.full(num_j, 1.0 / num_j)
    else:
        w = np.exp(scores - top)
        w /= w.sum()
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right")), fell_back


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 40),
       st.integers(1, 3), st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
def test_likelihood_encode_matches_reference(nu, nx, num_j, num_k, n, seed):
    gen = np.random.default_rng(seed)
    # zeros in most channels, so -inf scores and fallbacks both occur
    chan = _zero_rich_channel(gen, nu, nx)
    book = gen.integers(nu, size=(num_j, num_k, n))
    for _ in range(4):
        k = int(gen.integers(num_k))
        block = gen.integers(nx, size=n)
        state = int(gen.integers(2 ** 32))
        fast = np.random.default_rng(state)
        slow = np.random.default_rng(state)
        assert likelihood_encode(book, chan, block, k, fast) == \
            _reference_encode(book, chan, block, k, slow.random())
        assert fast.random() == slow.random()


def _per_trial_loop(cfg, codebook, num_j, num_k):
    """The trial loop one trial at a time by the plain formulas, from the
    four arrays of the trial stream: source uniforms, k, encoder
    uniforms and decoder uniforms."""
    rng = codesim._stream(cfg.seed, codesim._STREAM_TRIALS)
    x_u = rng.random((cfg.trials, cfg.n))
    ks = rng.integers(num_k, size=cfg.trials)
    enc_u = rng.random(cfg.trials)
    dec_u = rng.random((cfg.trials, cfg.n))
    cdf = _cdf(cfg.triple.induced_x().probs)
    y_cdfs = _cdf(cfg.triple.y_given_u.rows)
    rows = []
    for t in range(cfg.trials):
        x = cdf.searchsorted(x_u[t], side="right")
        k = int(ks[t])
        j, fell_back = _reference_encode(codebook, cfg.triple.x_given_u, x,
                                         k, enc_u[t])
        y = np.array([y_cdfs[c].searchsorted(u, side="right")
                      for c, u in zip(codebook[j, k], dec_u[t])])
        rows.append((x, k, j, fell_back, y))
    xs, ks, js, fbs, ys = map(np.array, zip(*rows))
    return xs, ks, js, fbs, ys


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 14),
       st.sampled_from([0.0, 0.2, 0.5]), st.sampled_from([0.0, 0.1, 0.3]),
       st.integers(1, 120), st.booleans(), st.sampled_from([1, 40, 2 ** 17]),
       st.integers(0, 2 ** 32 - 1))
def test_monte_carlo_loop_matches_per_trial_loop(nu, nx, n, r, rc, trials,
                                                  correction, score_cells,
                                                  seed):
    """The two-pass trial loop gives every report field of the
    per-trial loop exactly, fallbacks included, at batch sizes from one
    trial up."""
    gen = np.random.default_rng(seed)
    weights = gen.random(nu) + 0.05
    triple = MarkovTriple(Pmf(weights / weights.sum()),
                          _zero_rich_channel(gen, nu, nx),
                          _zero_rich_channel(gen, nu, nx))
    cfg = SimConfig(triple=triple, rho=DistortionMatrix(gen.random((nx, nx))),
                    n=n, r=r, rc=rc, trials=trials, seed=seed,
                    correction=correction, mode="monte-carlo")
    with patch.object(codesim, "_SCORE_CELLS", score_cells):
        got = run_simulation(cfg).to_dict()
    with patch.object(codesim, "_trial_loop", _per_trial_loop):
        want = run_simulation(cfg).to_dict()
    assert got == want


def test_monte_carlo_loop_matches_with_fallbacks_and_small_batches():
    """One fixed instance with every case the loop treats apart: some
    trials fall back, several k columns, one trial per scoring batch."""
    triple = MarkovTriple(
        Pmf(np.array([0.5, 0.5])),
        Channel(np.array([[1.0, 0.0], [0.5, 0.5]])), Channel.bsc(0.2))
    cfg = SimConfig(triple=triple, rho=HAMMING2, n=8, r=0.5, rc=0.3,
                    trials=120, seed=4, mode="monte-carlo")
    with patch.object(codesim, "_SCORE_CELLS", 40):
        rep = run_simulation(cfg)
    assert rep.num_k > 1 and 0 < rep.encoder_fallbacks < cfg.trials
    # 40 cells hold 40 // (16 * 8) -> one trial per batch
    assert rep.num_j * cfg.n > 40
    with patch.object(codesim, "_trial_loop", _per_trial_loop):
        assert run_simulation(cfg).to_dict() == rep.to_dict()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 14),
       st.sampled_from([0.2, 0.5]), st.sampled_from([0.0, 0.3]),
       st.integers(1, 120), st.booleans(), st.sampled_from([1, 7, 64]),
       st.sampled_from([1, 40]), st.integers(0, 2 ** 32 - 1))
def test_sliced_scoring_picks_the_unsliced_j(nu, nx, n, r, rc, trials, zeros,
                                             slice_cells, score_cells, seed):
    """The trial loop with one-hot j-slices of a few cells and small
    batches returns what it returns with one slice per column and one
    batch per column, on channels with and without zero entries."""
    gen = np.random.default_rng(seed)
    weights = gen.random(nu) + 0.05
    x_rows = (_zero_rich_channel(gen, nu, nx).rows if zeros
              else gen.dirichlet(np.ones(nx), nu))
    triple = MarkovTriple(Pmf(weights / weights.sum()), Channel(x_rows),
                          _zero_rich_channel(gen, nu, nx))
    cfg = SimConfig(triple=triple, rho=DistortionMatrix(gen.random((nx, nx))),
                    n=n, r=r, rc=rc, trials=trials, seed=seed,
                    mode="monte-carlo")
    book = generate_codebook(triple, n, r, rc, seed)
    num_j, num_k = book.shape[:2]
    with patch.object(codesim, "_CODEBOOK_SLICE", slice_cells), \
            patch.object(codesim, "_SCORE_CELLS", score_cells):
        got = codesim._trial_loop(cfg, book, num_j, num_k)
    with patch.object(codesim, "_CODEBOOK_SLICE", 2 ** 62), \
            patch.object(codesim, "_SCORE_CELLS", 2 ** 62):
        want = codesim._trial_loop(cfg, book, num_j, num_k)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_dense_codebook_covers_output():
    # coding rate well above the index entropy at tiny block length:
    # the pre-correction law already sits close to the target
    triple = _quarter_triple()
    cfg = SimConfig(triple=triple, rho=HAMMING2, n=2, r=2.0, rc=0.5,
                    trials=2, seed=1, mode="exact")
    rep = run_simulation(cfg)
    assert rep.tv_pre_correction <= 0.15


def test_correction_disabled_skips_bound_fields():
    triple = _quarter_triple()
    cfg = SimConfig(triple=triple, rho=HAMMING2, n=3, r=0.8, rc=0.4,
                    trials=4, seed=2, correction=False, mode="exact")
    rep = run_simulation(cfg)
    assert rep.ot_block_cost is None and rep.distortion_bound is None
    assert rep.mean_distortion == rep.pre_correction_distortion
    assert set(rep.trials) == {"k", "j", "encoder_fallback", "distortion"}
    rows = rep.to_dict()["trials"]
    assert len(rows) == 4
    assert all(row[name] is None for row in rows for name in (
        "correction_move", "corrected_distortion", "triangle_ok"))


def test_nonsquare_distortion_rules():
    wide = MarkovTriple(UNIFORM2, Channel.bsc(0.25),
                        Channel(np.array([[0.8, 0.1, 0.1],
                                          [0.1, 0.1, 0.8]])))
    rho = DistortionMatrix(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        SimConfig(triple=wide, rho=rho, n=2, r=0.5, rc=0.0, trials=2, seed=0)
    cfg = SimConfig(triple=wide, rho=rho, n=2, r=0.5, rc=0.0, trials=2,
                    seed=0, correction=False)
    rep = run_simulation(cfg)
    assert rep.mode == "exact"
    assert 0.0 <= rep.mean_distortion <= 1.0


def test_config_validation():
    triple = _quarter_triple()
    with pytest.raises(ValueError):
        SimConfig(triple=triple, rho=HAMMING2, n=0, r=0.5, rc=0.0,
                  trials=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(triple=triple, rho=HAMMING2, n=2, r=0.5, rc=0.0,
                  trials=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(triple=triple, rho=HAMMING2, n=2, r=-0.1, rc=0.0,
                  trials=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(triple=triple, rho=HAMMING2, n=2, r=0.5, rc=math.inf,
                  trials=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(triple=triple, rho=HAMMING2, n=2, r=0.5, rc=0.0,
                  trials=1, seed=0, mode="both")
    for power in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SimConfig(triple=triple, rho=HAMMING2, n=2, r=0.5, rc=0.0,
                      trials=1, seed=0, metric_power=power)
    with pytest.raises(ValueError):
        SimConfig(triple=triple, rho=DistortionMatrix.hamming(3), n=2,
                  r=0.5, rc=0.0, trials=1, seed=0)


def test_mode_selection_and_caps():
    triple = _quarter_triple()
    big = SimConfig(triple=triple, rho=HAMMING2, n=24, r=0.25, rc=0.0,
                    trials=2, seed=0, mode="exact")
    with pytest.raises(CapExceeded):
        run_simulation(big)
    # block laws fit but the enumeration tensor would not
    wide = SimConfig(triple=triple, rho=HAMMING2, n=10, r=1.0, rc=0.5,
                     trials=2, seed=0)
    assert run_simulation(wide).mode == "monte-carlo"


def test_trial_cells_are_capped_before_any_work():
    cfg = SimConfig(triple=_quarter_triple(), rho=HAMMING2, n=1, r=0.5,
                    rc=0.0, trials=codesim.TRIAL_CAP + 1, seed=0)
    with patch.object(codesim, "generate_codebook") as draw:
        with pytest.raises(CapExceeded, match="trials"):
            run_simulation(cfg)
    draw.assert_not_called()


def test_monte_carlo_smoke_and_determinism():
    triple = _quarter_triple()
    cfg = SimConfig(triple=triple, rho=HAMMING2, n=24, r=0.25, rc=0.0,
                    trials=6, seed=0)
    rep = run_simulation(cfg)
    assert rep.mode == "monte-carlo" and rep.tv_output_is_plugin
    assert rep.idealized_distortion is None
    assert rep.trials["k"].size == 6
    assert rep.trials["triangle_ok"].all()
    assert 0.0 <= rep.mean_distortion <= 1.0
    assert rep.encoder_fallbacks == rep.trials["encoder_fallback"].sum()
    again = run_simulation(cfg)
    assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(
        again.to_dict(), sort_keys=True)


def test_forced_monte_carlo_on_small_instance():
    # small enough for exact mode, so the two modes should agree on the
    # single-letter reference while the sampled mean stays in range
    triple = _quarter_triple()
    cfg = SimConfig(triple=triple, rho=HAMMING2, n=3, r=0.7, rc=0.3,
                    trials=40, seed=8, mode="monte-carlo")
    rep = run_simulation(cfg)
    assert rep.mode == "monte-carlo"
    assert abs(rep.single_letter_distortion - 0.25) <= 1e-15
    assert 0.0 <= rep.mean_distortion <= 1.0
