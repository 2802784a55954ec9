import json
import re
import struct
import zlib

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge import nn
from kbforge.nn import (
    Adam,
    BiLSTM,
    CheckpointError,
    GCNLayer,
    GradientError,
    Parameter,
    Tensor,
    load_checkpoint,
    no_grad,
    restore_parameters,
    save_checkpoint,
)
from kbforge.nn import autograd as ag
from kbforge.nn.checkpoint import MAGIC

from gradcheck import gradcheck

F64 = np.float64


def t64(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=F64)


# -- elementary op gradients ---------------------------------------------------

ELEMENTARY = [
    ("add_broadcast", lambda r: (lambda x, y: ag.tsum(ag.add(x, y)),
                                 [(3, 4), (3, 1)])),
    ("sub", lambda r: (lambda x, y: ag.tsum(ag.sub(x, y)), [(2, 5), (2, 5)])),
    ("mul_broadcast", lambda r: (lambda x, y: ag.tsum(ag.mul(x, y)),
                                 [(4, 3), (1, 3)])),
    ("matmul", lambda r: (lambda x, y: ag.tsum(ag.matmul(x, y)),
                          [(3, 4), (4, 2)])),
    ("scale", lambda r: (lambda x: ag.tsum(ag.scale(x, -1.7)), [(3, 3)])),
    ("sum_axis", lambda r: (lambda x: ag.tsum(ag.mul(ag.tsum(x, axis=1, keepdims=True),
                                                     ag.tsum(x, axis=1, keepdims=True))),
                            [(3, 4)])),
    ("mean", lambda r: (lambda x: ag.mean(ag.mul(x, x)), [(4, 4)])),
    ("sigmoid", lambda r: (lambda x: ag.tsum(ag.sigmoid(x)), [(3, 4)])),
    ("tanh", lambda r: (lambda x: ag.tsum(ag.tanh(x)), [(3, 4)])),
    ("softmax", lambda r: (lambda x: ag.tsum(ag.mul(ag.softmax(x, axis=1),
                                                    ag.softmax(x, axis=1))),
                           [(3, 5)])),
]


@pytest.mark.parametrize("name,case", ELEMENTARY, ids=[n for n, _ in ELEMENTARY])
def test_elementary_op_gradients(name, case):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        fn, shapes = case(rng)
        leaves = [t64(rng, s) for s in shapes]
        assert gradcheck(lambda: fn(*leaves), leaves) < 1e-4


def float32_run(run, arrays, weight):
    """grads_of on fresh float32 leaves made from ``arrays``, flattened."""
    out, grads = grads_of(run, [Tensor(a, requires_grad=True) for a in arrays], weight)
    return [out, *grads]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_affine_equals_matmul_then_add_bit_for_bit(data):
    rows, cols, n = (data.draw(st.integers(1, 9)) for _ in range(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arrays = [rng.standard_normal(shape).astype(np.float32)
              for shape in ((rows, cols), (cols, n), (rows, 1))]
    weight = rng.standard_normal((rows, n)).astype(np.float32)
    fused = float32_run(ag.affine, arrays, weight)
    reference = float32_run(lambda w, x, b: ag.add(ag.matmul(w, x), b), arrays, weight)
    for got, want in zip(fused, reference):
        assert got.dtype == np.float32 and np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_conv1d_bias_equals_a_separate_add_bit_for_bit(data):
    d_in, d_out, k = (data.draw(st.integers(1, 5)) for _ in range(3))
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arrays = [rng.standard_normal(shape).astype(np.float32)
              for shape in ((d_in, sum(lengths)), (d_out, d_in, k), (d_out, 1))]
    weight = rng.standard_normal((d_out, sum(lengths))).astype(np.float32)
    fused = float32_run(lambda x, w, b: ag.conv1d(x, w, b, lengths), arrays, weight)
    reference = float32_run(lambda x, w, b: ag.add(ag.conv1d(x, w, lengths=lengths), b),
                            arrays, weight)
    for got, want in zip(fused, reference):
        assert got.dtype == np.float32 and np.array_equal(got, want)


def test_relu_gradient_away_from_kink():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((3, 4))
        data[np.abs(data) < 0.1] = 0.5  # keep clear of the nondifferentiable point
        x = Tensor(data, requires_grad=True, dtype=F64)
        assert gradcheck(lambda: ag.tsum(ag.relu(x)), [x]) < 1e-4


def test_take_gradient_scatter_adds():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        emb = t64(rng, (6, 6))
        idx = np.array([0, 2, 2, 5])
        for axis in (0, 1):
            assert gradcheck(lambda: ag.tsum(ag.mul(ag.take(emb, idx, axis),
                                                    ag.take(emb, idx, axis))),
                             [emb]) < 1e-4


def test_embed_columns_stacks_rows_and_scatter_adds():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b = t64(rng, (6, 3)), t64(rng, (4, 2))
        ia, ib = np.array([0, 2, 2, 5, 1]), np.array([3, 3, 0, 1, 3])
        out = ag.embed_columns([a, b], [ia, ib])
        assert np.array_equal(out.data, np.concatenate([a.data[ia], b.data[ib]], axis=1).T)
        assert gradcheck(lambda: ag.tsum(ag.mul(ag.embed_columns([a, b], [ia, ib]),
                                                ag.embed_columns([a, b], [ia, ib]))),
                         [a, b]) < 1e-4


def test_concat_gradient():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b = t64(rng, (2, 3)), t64(rng, (2, 2))
        assert gradcheck(lambda: ag.tsum(ag.mul(ag.concat([a, b], axis=1),
                                                ag.concat([a, b], axis=1))),
                         [a, b]) < 1e-4


# -- conv and pooling ----------------------------------------------------------

def test_conv1d_hand_example():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    w = Tensor(np.array([[[1.0, 0.0, 0.0]]]))
    out = ag.conv1d(x, w)
    assert np.allclose(out.data, [[0.0, 1.0, 2.0]])


def test_conv1d_gradient():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x, w, b = t64(rng, (3, 7)), t64(rng, (2, 3, 3)), t64(rng, (2, 1))
        assert gradcheck(lambda: ag.tsum(ag.mul(ag.conv1d(x, w, b),
                                                ag.conv1d(x, w, b))),
                         [x, w, b]) < 1e-4


def test_conv1d_channel_mismatch():
    x = Tensor(np.zeros((3, 5)))
    w = Tensor(np.zeros((2, 4, 3)))
    with pytest.raises(ValueError):
        ag.conv1d(x, w)


def test_conv1d_rejects_empty_input():
    x = Tensor(np.zeros((1, 0)))
    w = Tensor(np.zeros((1, 1, 5)))
    with pytest.raises(ValueError):
        ag.conv1d(x, w)


def test_max_pool_range_inclusive():
    x = Tensor(np.array([[1.0, 5.0, 2.0], [3.0, 0.0, 4.0]]))
    out = ag.max_pool_range(x, 0, 1)
    assert np.allclose(out.data, [[5.0], [3.0]])


def test_max_pool_empty_segment_is_zeros():
    x = Tensor(np.ones((2, 3)), requires_grad=True, dtype=F64)
    out = ag.max_pool_range(x, 0, -1)
    assert np.allclose(out.data, 0.0)
    loss = ag.tsum(out)
    loss.backward()
    assert x.grad is None or np.allclose(x.grad, 0.0)


def test_max_pool_gradient_routes_to_argmax():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = t64(rng, (3, 6))
        assert gradcheck(lambda: ag.tsum(ag.mul(ag.max_pool_range(x, 1, 4),
                                                ag.max_pool_range(x, 1, 4))),
                         [x]) < 1e-4


def test_pcnn_segment_path_gradient():
    # conv -> three piecewise pools -> tanh -> concat, the relation encoder's
    # surface path
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x, w, b = t64(rng, (3, 8)), t64(rng, (2, 3, 3)), t64(rng, (2, 1))

        def loss():
            c = ag.conv1d(x, w, b)
            segs = [ag.max_pool_range(c, 0, 1), ag.max_pool_range(c, 2, 4),
                    ag.max_pool_range(c, 5, 7)]
            pooled = ag.tanh(ag.concat(segs, axis=0))
            return ag.tsum(ag.mul(pooled, pooled))

        assert gradcheck(loss, [x, w, b]) < 1e-4


# -- recurrent and graph layers --------------------------------------------------

def test_bilstm_shapes_and_final_states():
    rng = np.random.default_rng(0)
    net = BiLSTM(3, 2, rng, "t", dtype=F64)
    x = t64(rng, (3, 5))
    out = net(x)
    assert out.shape == (4, 5)
    # one tape node, x listed once per direction, forward first
    assert out._parents == (x, *net.fwd, x, *net.bwd)
    final = net.final_states()
    assert final.shape == (4, 1)
    assert np.allclose(final.data[:2, 0], out.data[:2, -1])
    assert np.allclose(final.data[2:, 0], out.data[2:, 0])


def test_bilstm_final_states_of_a_batch_equal_each_sequence_alone():
    rng = np.random.default_rng(4)
    net = BiLSTM(3, 2, rng, "t", dtype=F64)
    seqs = [rng.standard_normal((3, n)) for n in (4, 1, 6)]
    net(Tensor(np.concatenate(seqs, axis=1), dtype=F64), lengths=[4, 1, 6])
    batched = net.final_states()
    assert batched.shape == (4, 3)
    for b, x in enumerate(seqs):
        net(Tensor(x, dtype=F64))
        np.testing.assert_allclose(batched.data[:, b:b + 1], net.final_states().data,
                                   rtol=0, atol=1e-12)


def test_bilstm_batched_final_states_gradient():
    rng = np.random.default_rng(5)
    net = BiLSTM(3, 2, rng, "t", dtype=F64)
    x = t64(rng, (3, 5))
    w = Tensor(rng.standard_normal((4, 2)), dtype=F64)

    def loss():
        net(x, lengths=[3, 2])
        return ag.tsum(ag.mul(net.final_states(), w))

    assert gradcheck(loss, [x, *net.parameters()]) < 1e-4


def test_bilstm_direction_symmetry_with_tied_cells():
    # with identical forward/backward cells, running on the reversed input
    # swaps the roles of the two directions exactly
    rng = np.random.default_rng(1)
    net = BiLSTM(3, 2, rng, "t", dtype=F64)
    for bwd, fwd in zip(net.bwd, net.fwd):  # (wx, wh, b) of each direction
        bwd.data = fwd.data.copy()
    x = rng.standard_normal((3, 6))
    out = net(Tensor(x, dtype=F64)).data
    out_rev = net(Tensor(x[:, ::-1].copy(), dtype=F64)).data
    assert np.allclose(out_rev[:2], out[2:, ::-1], atol=1e-12)
    assert np.allclose(out_rev[2:], out[:2, ::-1], atol=1e-12)


def test_bilstm_gradient():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = BiLSTM(3, 2, rng, "t", dtype=F64)
        x = t64(rng, (3, 4))

        def loss():
            out = net(x)
            return ag.add(ag.tsum(ag.mul(out, out)),
                          ag.tsum(net.final_states()))

        assert gradcheck(loss, [x] + net.parameters()) < 1e-4


def stepwise_lstm(x, wx, wh, b, reverse=False):
    """Reference LSTM direction composed step by step from tape primitives:
    the per-token cell that bilstm_sequence replaces."""
    hd = wh.shape[1]
    n = x.shape[1]
    h = c = Tensor(np.zeros((hd, 1)), dtype=F64)
    states = [None] * n
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        xt = ag.take(x, [t], axis=1)
        gates = ag.add(ag.add(ag.matmul(wx, xt), ag.matmul(wh, h)), b)
        i, f, g, o = (ag.take(gates, np.arange(k * hd, (k + 1) * hd)) for k in range(4))
        c = ag.add(ag.mul(ag.sigmoid(f), c), ag.mul(ag.sigmoid(i), ag.tanh(g)))
        h = states[t] = ag.mul(ag.sigmoid(o), ag.tanh(c))
    return ag.concat(states, axis=1)


def stepwise_bilstm(x, fwd, bwd, lengths=None):
    """Reference for bilstm_sequence: each sequence's columns through two
    single-direction stepwise_lstm runs, forward rows over backward rows."""
    lengths = [x.shape[1]] if lengths is None else lengths
    firsts = np.cumsum(lengths) - lengths
    parts = []
    for f, n in zip(firsts, lengths):
        xs = ag.take(x, np.arange(f, f + n), axis=1)
        parts.append(ag.concat([stepwise_lstm(xs, *fwd), stepwise_lstm(xs, *bwd, reverse=True)],
                               axis=0))
    return ag.concat(parts, axis=1)


def lstm_leaves(rng, d_in, hd, n):
    """[x, *fwd, *bwd]: a (d_in, n) input and both directions' (wx, wh, b)."""
    return [t64(rng, (d_in, n))] + [t64(rng, shape) for _ in range(2)
                                    for shape in ((4 * hd, d_in), (4 * hd, hd), (4 * hd, 1))]


def bilstm(x, *weights, lengths=None):
    """bilstm_sequence over lstm_leaves' flat list."""
    return ag.bilstm_sequence(x, weights[:3], weights[3:], lengths)


def direction_weight(rng, reverse, hd, n):
    """(2*hd, n) loss weights on one direction's rows, zero on the other's."""
    weight = np.zeros((2 * hd, n))
    weight[slice(hd, None) if reverse else slice(None, hd)] = rng.standard_normal((hd, n))
    return weight


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_matches_stepwise_cell(reverse):
    # one direction's rows weigh in the loss; the other's gradients are zero
    rng = np.random.default_rng(3)
    for n in range(1, 13):
        leaves = lstm_leaves(rng, 3, 2, n)
        weight = direction_weight(rng, reverse, 2, n)
        results = []
        for run in (bilstm, lambda x, *w: stepwise_bilstm(x, w[:3], w[3:])):
            out, grads = grads_of(run, leaves, weight)
            results.append([out] + grads)
        assert results[0][0].shape == (4, n)
        for fused, reference in zip(*results):
            np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_lstm_sequence_gradient(reverse, n):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        leaves = lstm_leaves(rng, 3, 2, n)
        weight = direction_weight(rng, reverse, 2, n)

        def loss():
            out = bilstm(*leaves)
            return ag.tsum(ag.mul(ag.mul(out, out), weight))

        assert gradcheck(loss, leaves) < 1e-4


def test_lstm_sequence_rejects_mismatched_shapes():
    rng = np.random.default_rng(0)
    x, *weights = lstm_leaves(rng, 3, 2, 4)
    for k in range(6):
        bad = list(weights)
        bad[k] = t64(rng, (4, 1))
        with pytest.raises(ValueError):
            bilstm(x, *bad)


# -- several sequences side by side ------------------------------------------------

def split_columns(t, lengths):
    """The per-sequence column blocks of a (d, n) tensor, as fresh leaves."""
    firsts = np.cumsum(lengths) - lengths
    return [Tensor(t.data[:, f:f + n].copy(), requires_grad=True, dtype=F64)
            for f, n in zip(firsts, lengths)]


def grads_of(run, leaves, weight):
    for leaf in leaves:
        leaf.grad = None
    out = run(*leaves)
    ag.tsum(ag.mul(out, weight)).backward()
    return out.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_batch_equals_each_sequence_alone(reverse):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        lengths = [int(k) for k in rng.integers(1, 9, size=int(rng.integers(1, 6)))]
        leaves = lstm_leaves(rng, 3, 2, sum(lengths))
        weight = direction_weight(rng, reverse, 2, sum(lengths))
        out, grads = grads_of(lambda *t: bilstm(*t, lengths=lengths), leaves, weight)
        firsts = np.cumsum(lengths) - lengths
        weight_grads = [np.zeros_like(g) for g in grads[1:]]
        for f, n, x in zip(firsts, lengths, split_columns(leaves[0], lengths)):
            one, one_grads = grads_of(bilstm, [x, *leaves[1:]], weight[:, f:f + n])
            np.testing.assert_allclose(out[:, f:f + n], one, rtol=0, atol=1e-12)
            np.testing.assert_allclose(grads[0][:, f:f + n], one_grads[0], rtol=0, atol=1e-12)
            for total, g in zip(weight_grads, one_grads[1:]):
                total += g
        for got, want in zip(grads[1:], weight_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_gradient_unequal_lengths(reverse):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        lengths = [3, 1, 5, 2]
        leaves = lstm_leaves(rng, 3, 2, sum(lengths))
        weight = direction_weight(rng, reverse, 2, sum(lengths))

        def loss():
            out = bilstm(*leaves, lengths=lengths)
            return ag.tsum(ag.mul(ag.mul(out, out), weight))

        assert gradcheck(loss, leaves) < 1e-4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bilstm_sequence_equals_two_stepwise_directions(data):
    hd, d_in = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    leaves = lstm_leaves(rng, d_in, hd, sum(lengths))
    weight = rng.standard_normal((2 * hd, sum(lengths)))
    fused = grads_of(lambda *t: bilstm(*t, lengths=lengths), leaves, weight)
    reference = grads_of(lambda x, *w: stepwise_bilstm(x, w[:3], w[3:], lengths),
                         leaves, weight)
    for got, want in zip([fused[0], *fused[1]], [reference[0], *reference[1]]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bilstm_sequence_under_no_grad_returns_the_recording_calls_output(data):
    # the no-grad call keeps one step's gates, cells and tanh(c); a single
    # sequence without lengths runs its backward direction over a reversed
    # view, so it is drawn on its own
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    hd, d_in = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    single = data.draw(st.booleans())
    lengths = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=1 if single else 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    leaves = [Tensor(leaf.data.astype(dtype), requires_grad=True)
              for leaf in lstm_leaves(rng, d_in, hd, sum(lengths))]
    run = lambda: bilstm(*leaves, lengths=None if single else lengths)
    recorded = run()
    with no_grad():
        forward_only = run()
    assert recorded.requires_grad and not forward_only.requires_grad
    assert forward_only.dtype == dtype and np.array_equal(forward_only.data, recorded.data)


def test_no_grad_bilstm_peak_holds_one_steps_gates():
    # 100 sentences of 12 tokens: keeping every step's gates, cells and
    # tanh(c) for a backward that never runs peaked at 1.53 MiB
    rng = np.random.default_rng(0)
    net = BiLSTM(72, 12, rng, "t")
    x = Tensor(rng.standard_normal((72, 1200)).astype(np.float32))
    with no_grad():
        peak = traced_peak(lambda: net(x, [12] * 100))
    assert peak <= 2**20


def test_sequence_ops_reject_lengths_that_do_not_split_the_columns():
    rng = np.random.default_rng(0)
    x, *weights = lstm_leaves(rng, 3, 2, 5)
    for lengths in ([2, 2], [2, 4], [5, 0], []):
        with pytest.raises(ValueError):
            bilstm(x, *weights, lengths=lengths)
        with pytest.raises(ValueError):
            ag.conv1d(x, t64(rng, (2, 3, 3)), lengths=lengths)
        with pytest.raises(ValueError):
            ag.softmax(x, axis=1, lengths=lengths)
        with pytest.raises(ValueError):
            ag.segment_sum(x, lengths)
        with pytest.raises(ValueError):
            ag.matmul_blocks(x, np.zeros((max(len(lengths), 1), 5, 5)), lengths)


def test_conv1d_batch_equals_each_sequence_alone():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        lengths = [int(k) for k in rng.integers(1, 7, size=int(rng.integers(1, 5)))]
        x, w, b = t64(rng, (3, sum(lengths))), t64(rng, (2, 3, 3)), t64(rng, (2, 1))
        weight = rng.standard_normal((2, sum(lengths)))
        out, grads = grads_of(lambda *t: ag.conv1d(*t, lengths=lengths), [x, w, b], weight)
        firsts = np.cumsum(lengths) - lengths
        for f, n, part in zip(firsts, lengths, split_columns(x, lengths)):
            one, one_grads = grads_of(ag.conv1d, [part, w, b], weight[:, f:f + n])
            np.testing.assert_allclose(out[:, f:f + n], one, rtol=0, atol=1e-12)
            np.testing.assert_allclose(grads[0][:, f:f + n], one_grads[0], rtol=0, atol=1e-12)

        def loss():
            c = ag.conv1d(x, w, b, lengths=lengths)
            return ag.tsum(ag.mul(ag.mul(c, c), weight))

        assert gradcheck(loss, [x, w, b]) < 1e-4


def test_softmax_per_segment():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        lengths = [4, 1, 3]
        x = t64(rng, (3, 8))
        out = ag.softmax(x, axis=1, lengths=lengths).data
        firsts = np.cumsum(lengths) - lengths
        for f, n in zip(firsts, lengths):
            np.testing.assert_allclose(
                out[:, f:f + n], ag.softmax(Tensor(x.data[:, f:f + n]), axis=1).data,
                rtol=0, atol=1e-15)
        weight = rng.standard_normal((3, 8))
        assert gradcheck(lambda: ag.tsum(ag.mul(ag.softmax(x, axis=1, lengths=lengths),
                                                weight)), [x]) < 1e-4


def test_segment_sum_per_segment():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        lengths = [4, 1, 3]
        x = t64(rng, (3, 8))
        out = ag.segment_sum(x, lengths).data
        firsts = np.cumsum(lengths) - lengths
        for c, (f, n) in enumerate(zip(firsts, lengths)):
            np.testing.assert_allclose(out[:, c], x.data[:, f:f + n].sum(axis=1),
                                       rtol=0, atol=1e-15)
        weight = rng.standard_normal((3, 3))
        assert gradcheck(lambda: ag.tsum(ag.mul(ag.segment_sum(x, lengths), weight)),
                         [x]) < 1e-4


def test_matmul_blocks_equals_block_diagonal_product():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        lengths = [int(k) for k in rng.integers(1, 7, size=int(rng.integers(1, 5)))]
        n, m = sum(lengths), max(lengths) + int(rng.integers(0, 2))
        blocks = rng.standard_normal((len(lengths), m, m))
        dense = np.zeros((n, n))
        for f, k, block in zip(np.cumsum(lengths) - lengths, lengths, blocks):
            dense[f:f + k, f:f + k] = block[:k, :k]
        x = t64(rng, (3, n))
        np.testing.assert_allclose(ag.matmul_blocks(x, blocks, lengths).data, x.data @ dense,
                                   rtol=0, atol=1e-12)
        weight = rng.standard_normal((3, n))
        assert gradcheck(lambda: ag.tsum(ag.mul(ag.matmul_blocks(x, blocks, lengths),
                                                weight)), [x]) < 1e-4


def test_max_pool_segments_matches_ranges_and_routes_gradient():
    # overlapping ranges, an empty one, and ranges ending at either edge
    starts = [[0, 2, 5], [1, 3, 0], [4, 6, 2]]
    ends = [[7, 4, 4], [1, 6, 7], [4, 7, 2]]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = t64(rng, (3, 8))
        out = ag.max_pool_segments(x, starts, ends)
        assert out.shape == (9, 3)
        for i in range(3):
            for c in range(3):
                want = ag.max_pool_range(x, starts[i][c], ends[i][c]).data[:, 0]
                assert np.array_equal(out.data[3 * i:3 * i + 3, c], want)
        assert np.all(out.data[:3, 2] == 0.0)        # the empty range [5, 4]
        weight = rng.standard_normal((9, 3))
        assert gradcheck(lambda: ag.tsum(ag.mul(ag.max_pool_segments(x, starts, ends),
                                                weight)), [x]) < 1e-4


def test_max_pool_segments_rejects_ranges_outside_the_input():
    x = t64(np.random.default_rng(0), (2, 4))
    for start, end in ((-1, 2), (1, 4)):
        with pytest.raises(ValueError):
            ag.max_pool_segments(x, [[0, start]], [[1, end]])


def test_bilstm_tape_size_independent_of_length():
    def tape_nodes(out):
        seen, stack = {id(out)}, [out]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return len(seen)

    rng = np.random.default_rng(0)
    net = BiLSTM(3, 2, rng, "t", dtype=F64)
    sizes = []
    for n in (3, 30):
        out = net(t64(rng, (3, n)))
        sizes.append((tape_nodes(out), tape_nodes(net.final_states())))
    assert sizes[0] == sizes[1]


def test_gcn_layer_gradient():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        layer = GCNLayer(3, rng, "g", dtype=F64)
        h = t64(rng, (3, 5))
        raw = np.abs(rng.standard_normal((5, 5))) + np.eye(5)
        a_hat = ((raw + raw.T) / 2).astype(F64)

        def loss():
            out = layer(h, a_hat)
            return ag.tsum(ag.mul(out, out))

        assert gradcheck(loss, [h] + layer.parameters()) < 1e-4


def test_gcn_layer_graphs_side_by_side_equal_each_graph_alone():
    rng = np.random.default_rng(0)
    layer = GCNLayer(3, rng, "g", dtype=F64)
    lengths = [2, 5, 3]
    blocks = np.zeros((3, 5, 5))
    for block, n in zip(blocks, lengths):
        raw = np.abs(rng.standard_normal((n, n))) + np.eye(n)
        block[:n, :n] = (raw + raw.T) / 2
    h = t64(rng, (3, sum(lengths)))
    out = layer(h, blocks, lengths).data
    for f, n, block in zip(np.cumsum(lengths) - lengths, lengths, blocks):
        one = layer(Tensor(h.data[:, f:f + n]), block[:n, :n]).data
        np.testing.assert_allclose(out[:, f:f + n], one, rtol=0, atol=1e-12)


def test_gcn_rejects_mismatched_adjacency():
    rng = np.random.default_rng(0)
    layer = GCNLayer(3, rng, "g", dtype=F64)
    with pytest.raises(ValueError):
        layer(Tensor(np.zeros((3, 5))), np.eye(4))


# -- autograd mechanics ----------------------------------------------------------

def test_no_grad_blocks_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        y = ag.tsum(ag.mul(x, x))
    assert not y.requires_grad
    x2 = Tensor(np.ones((2, 2)), requires_grad=True)
    y2 = ag.tsum(ag.mul(x2, x2))
    assert y2.requires_grad


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ag.mul(x, x)
    with pytest.raises(ValueError):
        y.backward()


def test_grad_accumulates_across_backward_calls():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    for _ in range(2):
        ag.tsum(ag.mul(x, x)).backward()
    assert np.allclose(x.grad, 4.0)


def test_deep_graph_backward_is_iterative():
    # long chains must not hit the recursion limit
    x = Tensor(np.ones((2, 1)), requires_grad=True, dtype=F64)
    y = x
    for _ in range(5000):
        y = ag.add(y, x)
    ag.tsum(y).backward()
    assert np.allclose(x.grad, 5001.0)


# -- optimizer --------------------------------------------------------------------

def test_adam_minimizes_quadratic_bowl():
    p = Parameter(np.array([[1.0]], dtype=np.float64), "x")
    opt = Adam([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        loss = ag.tsum(ag.mul(p, p))
        loss.backward()
        opt.step()
    assert abs(p.data[0, 0]) < 1e-3


def test_adam_rejects_duplicate_names():
    a = Parameter(np.zeros((1, 1)), "same")
    b = Parameter(np.zeros((1, 1)), "same")
    with pytest.raises(ValueError):
        Adam([a, b])


def test_adam_raises_on_nonfinite_gradient():
    p = Parameter(np.array([[1.0]]), "x")
    opt = Adam([p])
    p.grad = np.array([[np.nan]])
    with pytest.raises(GradientError):
        opt.step()


def test_adam_treats_missing_grad_as_zero():
    p = Parameter(np.array([[1.0]]), "x")
    opt = Adam([p], lr=0.1)
    p.grad = None
    opt.step()
    assert p.data[0, 0] == pytest.approx(1.0)


class ReferenceAdam:
    """Adam updating one parameter at a time: what the flat-buffer
    optimizer must reproduce bit for bit."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.eps = list(params), lr, eps
        self.beta1, self.beta2, self.t = beta1, beta2, 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1, bias2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


ADAM_SHAPES = ((3, 4), (5,), (2, 3, 2), (1, 1), (7, 1), (4, 6))


def twin_params(rng, dtypes):
    arrays = [rng.standard_normal(s).astype(d) for s, d in zip(ADAM_SHAPES, dtypes)]
    return ([Parameter(a.copy(), f"p{i}") for i, a in enumerate(arrays)],
            [Parameter(a.copy(), f"p{i}") for i, a in enumerate(arrays)])


@pytest.mark.parametrize("dtypes", [(np.float32,) * 6,
                                    (np.float32, F64, np.float32, F64, F64, np.float32)])
def test_fused_adam_is_bit_identical_to_per_parameter_adam(dtypes):
    rng = np.random.default_rng(3)
    fused_params, ref_params = twin_params(rng, dtypes)
    fused, ref = Adam(fused_params, lr=0.01), ReferenceAdam(ref_params, lr=0.01)
    for step in range(50):
        if step == 20:
            # rebinds every p.data to a new array, as loading a checkpoint does
            tensors = {p.name: rng.standard_normal(p.data.shape) for p in ref_params}
            restore_parameters(fused_params, tensors, "drawn")
            restore_parameters(ref_params, tensors, "drawn")
        for i, (a, b) in enumerate(zip(fused_params, ref_params)):
            if (step + i) % 4 == 0:
                a.grad = b.grad = None
            else:
                g = rng.standard_normal(a.data.shape) * 10.0 ** rng.integers(-6, 3)
                g[rng.random(g.shape) < 0.1] = -0.0
                a.grad, b.grad = g.astype(a.data.dtype), g.astype(b.data.dtype)
        fused.step()
        ref.step()
        for a, b in zip(fused_params, ref_params):
            assert a.data.dtype == b.data.dtype and a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes(), (step, a.name)


def test_fused_adam_names_the_first_nonfinite_parameter_and_changes_nothing():
    rng = np.random.default_rng(4)
    params, _ = twin_params(rng, (np.float32,) * 6)
    opt = Adam(params)
    for p in params:
        p.grad = np.ones_like(p.data)
    opt.step()
    before = [p.data.copy() for p in params]
    params[1].grad[0] = np.nan
    params[3].grad[0, 0] = np.inf
    with pytest.raises(GradientError, match="p1"):
        opt.step()
    assert opt.t == 1
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))


def test_first_gradient_is_a_fresh_array_laid_out_like_the_data():
    x = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
    g = np.array([[-0.0, 1.0], [2.0, -3.0]], dtype=np.float32)
    x._accumulate(g)
    assert x.grad is not g and x.grad.dtype == np.float32
    assert np.signbit(x.grad).tolist() == [[False, False], [False, True]]
    g[0, 1] = 5.0
    x._accumulate(g)
    assert x.grad.tolist() == [[0.0, 6.0], [4.0, -6.0]]
    # broadcasting and casting still go through a zero-filled buffer
    y = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
    y._accumulate(np.ones((1, 3)))
    assert y.grad.dtype == np.float32 and y.grad.tolist() == [[1.0] * 3] * 2
    # a transposed gradient lands in a buffer with the data's layout
    z = Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
    z._accumulate(np.arange(6, dtype=np.float32).reshape(2, 3).T)
    assert z.grad.flags.c_contiguous
    assert z.grad.tolist() == [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]


# -- checkpointing ----------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = [Parameter(rng.standard_normal((3, 2)).astype(np.float32), "b.w"),
              Parameter(rng.standard_normal((4, 1)).astype(np.float64), "a.v")]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta={"epoch": 3})
    meta, tensors = load_checkpoint(path)
    assert meta == {"epoch": 3}
    assert set(tensors) == {"a.v", "b.w"}
    assert tensors["b.w"].dtype == np.float32
    assert np.array_equal(tensors["a.v"], params[1].data)

    fresh = [Parameter(np.zeros((3, 2), dtype=np.float32), "b.w"),
             Parameter(np.zeros((4, 1)), "a.v")]
    restore_parameters(fresh, tensors, path)
    assert np.array_equal(fresh[0].data, params[0].data)


def test_checkpoint_deterministic_bytes(tmp_path):
    params = [Parameter(np.arange(6, dtype=np.float32).reshape(2, 3), "w")]
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, meta={"k": 1})
    save_checkpoint(p2, params, meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, [Parameter(np.zeros((1, 1), dtype=np.float32), "w")])
    with open(path, "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_version_1(tmp_path):
    header = json.dumps({"meta": {}, "tensors": [
        {"dtype": "float32", "name": "w", "shape": [1]}]}, sort_keys=True).encode()
    path = tmp_path / "old.ckpt"
    path.write_bytes(b"KBFC\x01" + struct.pack("<Q", len(header)) + header
                     + np.zeros(1, dtype="<f4").tobytes())
    with pytest.raises(CheckpointError, match="unsupported version"):
        load_checkpoint(path)


def sealed(body: bytes) -> bytes:
    """A file whose CRC trailer matches ``body``, however malformed."""
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("header,payload", [
    (b"{not json", b""),
    (b"\xff\xfe", b""),
    (b'{"meta": {}}', b""),
    (b'{"meta": {}, "tensors": [{"dtype": "int8", "name": "w", "shape": [1]}]}', b"\0"),
    (b'{"meta": {}, "tensors": [{"dtype": "float32", "name": "w", "shape": [2]}]}',
     b"\0" * 4),
    (b'{"meta": {}, "tensors": [{"dtype": "float32", "name": "w", "shape": [-1]}]}',
     b"\0" * 4),
    (b'{"meta": {}, "tensors": [{"dtype": "float32", "name": "w", "shape": "ab"}]}', b""),
    (b'{"meta": {}, "tensors": ["w"]}', b""),
])
def test_checkpoint_malformed_body_with_valid_crc(tmp_path, header, payload):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(sealed(MAGIC + struct.pack("<Q", len(header)) + header + payload))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def ckpt_blob(tmp_path_factory):
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("ckpt") / "two.ckpt"
    save_checkpoint(path, [Parameter(rng.standard_normal((3, 2)).astype(np.float32), "b.w"),
                           Parameter(rng.standard_normal((4, 1)), "a.v")],
                    meta={"trained": True})
    return path.read_bytes(), path.parent


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_truncation_raises_checkpoint_error(ckpt_blob, data):
    blob, folder = ckpt_blob
    cut = data.draw(st.integers(0, len(blob) - 1))
    path = folder / "truncated.ckpt"
    path.write_bytes(blob[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_bit_flip_raises_checkpoint_error(ckpt_blob, data):
    blob, folder = ckpt_blob
    bit = data.draw(st.integers(0, 8 * len(blob) - 1))
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    path = folder / "flipped.ckpt"
    path.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_restore_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, [Parameter(np.zeros((2, 2), dtype=np.float32), "w")])
    _, tensors = load_checkpoint(path)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: shape mismatch"):
        restore_parameters([Parameter(np.zeros((3, 3), dtype=np.float32), "w")],
                           tensors, path)


def test_restore_rejects_tensor_no_parameter_names(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, [Parameter(np.zeros((2, 2), dtype=np.float32), "w"),
                           Parameter(np.ones((1, 1), dtype=np.float32), "stale.b")])
    _, tensors = load_checkpoint(path)
    target = Parameter(np.full((2, 2), 5.0, dtype=np.float32), "w")
    with pytest.raises(CheckpointError, match="'stale.b'"):
        restore_parameters([target], tensors, path)
    assert np.all(target.data == 5.0)
