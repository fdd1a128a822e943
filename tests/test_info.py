"""Information-measure primitives: frozen values and invariants."""

from dataclasses import fields

import numpy as np
import pytest

from ocrate import (
    CapExceeded,
    Channel,
    DistortionMatrix,
    JointPmf,
    Pmf,
    all_blocks,
    binary_entropy,
    entropy,
    mutual_information,
    product_extension,
    total_variation,
)

# independently derived: -0.25*log2(0.25) - 0.75*log2(0.75)
H_QUARTER = 0.8112781244591328


def test_binary_entropy_frozen_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)
    assert binary_entropy(0.25) == binary_entropy(0.75)


def test_entropy_matches_binary_and_uniform():
    assert entropy(Pmf(np.array([0.25, 0.75]))) == pytest.approx(
        H_QUARTER, abs=1e-15)
    assert entropy(Pmf(np.ones(8) / 8)) == pytest.approx(3.0, abs=1e-12)
    assert entropy(Pmf(np.array([1.0, 0.0, 0.0]))) == 0.0


def test_pmf_normalization_window():
    # drift within 1e-9 is renormalized, larger drift is rejected
    p = Pmf(np.array([0.5, 0.5 + 5e-10]))
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        Pmf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Pmf(np.array([1.1, -0.1]))
    # a -1e-13 entry is noise, clipped to zero
    q = Pmf(np.array([1.0, -1e-13]))
    assert q.probs[1] == 0.0


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    bsc = Channel.bsc(0.1)
    assert bsc.rows[0, 1] == pytest.approx(0.1)
    out = bsc.apply(Pmf(np.array([1.0, 0.0])))
    assert out.probs == pytest.approx([0.9, 0.1])


def test_joint_pmf_validation():
    """A joint table is checked like a pmf over its cells: non-finite,
    negative and unnormalized tables are rejected with messages that
    name the joint table, drift within 1e-9 is renormalized, and the
    table keeps its shape and is read-only."""
    for table, message in (
            ([[0.5, np.nan], [0.25, 0.25]], "joint table has non-finite"),
            ([[0.6, -0.1], [0.25, 0.25]], "joint table has negative"),
            ([[0.5, 0.5], [0.25, 0.25]], r"joint table sums to 1\.5, not 1")):
        with pytest.raises(ValueError, match=message):
            JointPmf(np.array(table))
    with pytest.raises(ValueError, match="nonempty 2-D"):
        JointPmf(np.array([0.5, 0.5]))
    joint = JointPmf(np.array([[0.5, 0.25], [0.25, 5e-10]]))
    assert joint.shape == (2, 2)
    assert joint.table.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        joint.table[0, 0] = 0.0


def test_channel_cached_tables():
    chan = Channel(np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]]))
    logs = chan.log_rows
    np.testing.assert_array_equal(
        logs, [[np.log(0.5), np.log(0.5), -np.inf],
               [-np.inf, np.log(0.25), np.log(0.75)]])
    # computed once, then the same read-only object, like rows
    assert chan.log_rows is logs
    for table in (chan.rows, logs):
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    # the tables are not fields: equality, repr and validation see rows only
    assert [f.name for f in fields(Channel)] == ["rows"]
    assert chan == chan
    read, fresh = Channel(np.array([[1.0]])), Channel(np.array([[1.0]]))
    assert read.log_rows.tolist() == [[0.0]]
    assert read == fresh
    assert repr(Channel(np.eye(2))) == repr(Channel(np.eye(2)).rows).join(
        ["Channel(rows=", ")"])
    with pytest.raises(ValueError):
        Channel(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        Channel(np.array([[1.5, -0.5]]))


def test_mutual_information_hand_values():
    joint = JointPmf(np.array([[0.375, 0.125], [0.125, 0.375]]))
    assert mutual_information(joint) == pytest.approx(
        1.0 - H_QUARTER, abs=1e-12)
    indep = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]))
    assert mutual_information(indep) == 0.0


def test_mutual_information_nonnegative_on_random_joints():
    rng = np.random.default_rng(0)
    for _ in range(50):
        table = rng.dirichlet(np.ones(12)).reshape(3, 4)
        assert mutual_information(JointPmf(table)) >= 0.0


def test_total_variation_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = Pmf(rng.dirichlet(np.ones(5)))
        q = Pmf(rng.dirichlet(np.ones(5)))
        r = Pmf(rng.dirichlet(np.ones(5)))
        tv_pq = total_variation(p, q)
        assert 0.0 <= tv_pq <= 1.0
        assert tv_pq == pytest.approx(total_variation(q, p), abs=1e-15)
        assert tv_pq <= total_variation(p, r) + total_variation(r, q) + 1e-12
    assert total_variation(Pmf(np.array([1.0, 0.0])),
                           Pmf(np.array([0.0, 1.0]))) == 1.0


def test_total_variation_data_processing():
    # pushing both laws through one channel cannot grow the distance
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = Pmf(rng.dirichlet(np.ones(4)))
        q = Pmf(rng.dirichlet(np.ones(4)))
        ch = Channel(rng.dirichlet(np.ones(3), size=4))
        assert total_variation(ch.apply(p), ch.apply(q)) <= total_variation(
            p, q) + 1e-12


def test_product_extension_recovers_marginals():
    p = Pmf(np.array([0.2, 0.3, 0.5]))
    ext = product_extension(p, 3)
    assert ext.size == 27
    blocks = all_blocks(3, 3)
    for pos in range(3):
        for sym in range(3):
            mass = ext.probs[blocks[:, pos] == sym].sum()
            assert mass == pytest.approx(p.probs[sym], abs=1e-12)
    # first symbol is the most significant digit
    assert ext.probs[0] == pytest.approx(0.2 ** 3)
    assert ext.probs[26] == pytest.approx(0.5 ** 3)


def test_all_blocks_order():
    blocks = all_blocks(3, 4)
    assert blocks.shape == (81, 4)
    # row k spells k in base 3, first symbol most significant
    assert np.array_equal(blocks @ [27, 9, 3, 1], np.arange(81))
    assert np.array_equal(blocks[80], [2, 2, 2, 2])
    with pytest.raises(CapExceeded):
        all_blocks(10, 10)


def test_distortion_matrix():
    ham = DistortionMatrix.hamming(3)
    assert ham.costs.shape == (3, 3)
    assert ham.max_cost == 1.0
    assert ham.is_square
    with pytest.raises(ValueError):
        DistortionMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
