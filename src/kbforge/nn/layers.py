"""Layer modules built on the autograd tape: an affine layer, a two-layer
scorer, a bidirectional LSTM and a graph-convolution layer.

Every module exposes parameters() for the optimizer and checkpointing, and
takes an explicit np.random.Generator so construction is seed-deterministic.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Parameter


def glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype=None):
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    arr = rng.uniform(-bound, bound, size=shape)
    return arr.astype(dtype or ag.DEFAULT_DTYPE)


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng, name: str, dtype=None):
        self.w = Parameter(glorot(rng, (out_dim, in_dim), in_dim, out_dim, dtype), f"{name}.w")
        self.b = Parameter(np.zeros((out_dim, 1), dtype=dtype or ag.DEFAULT_DTYPE), f"{name}.b")

    def __call__(self, x):
        return ag.add(ag.matmul(self.w, x), self.b)

    def parameters(self):
        return [self.w, self.b]


class TwoLayerScorer:
    """sigmoid(W2 · relu(W1 x + b1) + b2); shared shape for the context
    linker scorer, the selective gate, and the relation prediction head."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int, rng, name: str, dtype=None):
        self.l1 = Linear(in_dim, hidden_dim, rng, f"{name}.l1", dtype)
        self.l2 = Linear(hidden_dim, out_dim, rng, f"{name}.l2", dtype)

    def __call__(self, x):
        return ag.sigmoid(self.l2(ag.relu(self.l1(x))))

    def parameters(self):
        return self.l1.parameters() + self.l2.parameters()


def _lstm_weights(in_dim: int, hidden_dim: int, rng, name: str, dtype=None):
    """(wx, wh, b) of one LSTM direction, as ag.lstm_sequence takes them.
    Gate blocks are ordered input, forget, candidate, output."""
    wx = Parameter(glorot(rng, (4 * hidden_dim, in_dim), in_dim, hidden_dim, dtype), f"{name}.wx")
    wh = Parameter(glorot(rng, (4 * hidden_dim, hidden_dim), hidden_dim, hidden_dim, dtype), f"{name}.wh")
    bias = np.zeros((4 * hidden_dim, 1), dtype=dtype or ag.DEFAULT_DTYPE)
    bias[hidden_dim:2 * hidden_dim] = 1.0  # forget gate open at start
    return wx, wh, Parameter(bias, f"{name}.b")


class BiLSTM:
    """Runs both directions over the columns of a (d_in, n) tensor, which
    hold one sequence or, with ``lengths``, several side by side. Output is
    (2*hidden, n); final_states() of the last run gives, for each of its B
    sequences, the last forward over the first backward hidden state as a
    (2*hidden, B) tensor."""

    def __init__(self, in_dim: int, hidden_dim: int, rng, name: str, dtype=None):
        self.fwd = _lstm_weights(in_dim, hidden_dim, rng, f"{name}.fwd", dtype)
        self.bwd = _lstm_weights(in_dim, hidden_dim, rng, f"{name}.bwd", dtype)

    def __call__(self, x, lengths=None):
        self._last = (ag.lstm_sequence(x, *self.fwd, lengths=lengths),
                      ag.lstm_sequence(x, *self.bwd, reverse=True, lengths=lengths))
        self._lengths = np.asarray([x.shape[1]] if lengths is None else lengths)
        return ag.concat(self._last, axis=0)

    def final_states(self):
        f_states, b_states = self._last
        ends = self._lengths.cumsum()
        return ag.concat([ag.take(f_states, ends - 1, axis=1),
                          ag.take(b_states, ends - self._lengths, axis=1)], axis=0)

    def parameters(self):
        return [*self.fwd, *self.bwd]


class GCNLayer:
    """h_i = relu(sum_j A_hat[i,j] * W h_j + b) over node columns; A_hat is
    expected symmetric (normalized adjacency with self-loops). A_hat is
    one graph's (n, n) adjacency or, for graphs side by side whose node
    counts ``lengths`` gives, the (B, m, m) stack of their adjacencies
    (see ag.matmul_blocks)."""

    def __init__(self, dim: int, rng, name: str, dtype=None):
        self.lin = Linear(dim, dim, rng, name, dtype)

    def __call__(self, h, a_hat, lengths=None):
        blocks = a_hat[None] if a_hat.ndim == 2 else a_hat
        mixed = ag.matmul_blocks(ag.matmul(self.lin.w, h), blocks, lengths)
        return ag.relu(ag.add(mixed, self.lin.b))

    def parameters(self):
        return self.lin.parameters()
