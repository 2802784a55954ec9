"""Tape-based reverse-mode autodiff over numpy arrays.

Float32 is the training dtype; build tensors as float64 when checking
gradients against finite differences. Ops record parents and a closure that
maps the output gradient to parent gradients; backward() replays the tape in
reverse topological order.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32

_grad_enabled = True


class no_grad:
    """Context manager that suppresses tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def grad_enabled() -> bool:
    return _grad_enabled


def _as_array(data, dtype=None) -> np.ndarray:
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    if isinstance(data, (np.ndarray, np.generic)) and data.dtype in (np.float32,
                                                                     np.float64):
        return np.asarray(data)
    return np.asarray(data, dtype=DEFAULT_DTYPE)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def item(self) -> float:
        return self.data.item()

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        # iterative topological order; deep tapes overflow recursion otherwise
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if parent.requires_grad and g is not None:
                    parent._accumulate(g)


class Parameter(Tensor):
    __slots__ = ("name",)

    def __init__(self, data, name: str, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to the shape the operand had before numpy
    broadcasting expanded it."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# The sequence ops (conv1d, bilstm_sequence, matmul_blocks, segment_sum and
# softmax) take the columns of a (d, n) input as one or more sequences laid
# side by side: ``lengths`` (default: one sequence of all n columns) gives
# each sequence's column count, in column order.

def _lengths(lengths, n: int) -> np.ndarray:
    """The lengths as an integer array, checked to be positive and to
    cover n."""
    sizes = np.array([n] if lengths is None else lengths, dtype=np.int64).reshape(-1)
    if not len(sizes) or sizes.min() < 1 or sizes.sum() != n:
        raise ValueError(f"sequence lengths {sizes.tolist()} do not split {n} columns")
    return sizes


# -- arithmetic -------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T if a.requires_grad else None,
                            a.data.T @ g if b.requires_grad else None))


def affine(w, x, b) -> Tensor:
    """w @ x + b in one node; b broadcasts over the columns."""
    w, x, b = _wrap(w), _wrap(x), _wrap(b)
    return _node(w.data @ x.data + b.data, (w, x, b),
                 lambda g: (g @ x.data.T if w.requires_grad else None,
                            w.data.T @ g if x.requires_grad else None,
                            _unbroadcast(g, b.shape)))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 lambda g: tuple(np.split(g, splits, axis=axis)))


def tsum(a) -> Tensor:
    a = _wrap(a)
    return _node(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def mean(a) -> Tensor:
    # times 1/size, not divided by size: the EL loss's bits depend on that rounding
    a = _wrap(a)
    c = 1.0 / a.data.size
    return _node(a.data.sum() * c, (a,), lambda g: (np.broadcast_to(g * c, a.shape).copy(),))


# -- nonlinearities ----------------------------------------------------------

def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def softmax(a, lengths=None) -> Tensor:
    """Softmax along axis 1. With ``lengths`` that axis is cut into
    consecutive segments of those lengths, each normalised on its own."""
    a = _wrap(a)
    lengths = _lengths(lengths, a.shape[1])
    starts = lengths.cumsum() - lengths

    def per_segment(ufunc, v):
        return np.repeat(ufunc.reduceat(v, starts, axis=1), lengths, axis=1)

    e = np.exp(a.data - per_segment(np.maximum, a.data))
    out = e / per_segment(np.add, e)

    def back(g):
        return ((g - per_segment(np.add, g * out)) * out,)

    return _node(out, (a,), back)


# -- structured ops ----------------------------------------------------------

def conv1d(x, w, b=None, lengths=None) -> Tensor:
    """Same-length 1-D convolution. x is (d_in, n), w is (d_out, d_in, k),
    optional bias (d_out, 1), added in the same node; output (d_out, n).
    Each sequence is zero padded on its own, so no window reaches across a
    sequence boundary."""
    x, w = _wrap(x), _wrap(w)
    b = None if b is None else _wrap(b)
    d_in, n = x.shape
    d_out, d_in_w, k = w.shape
    if d_in_w != d_in:
        raise ValueError(f"conv1d channel mismatch: {d_in_w} vs {d_in}")
    # every sequence gets (k - 1) // 2 zero columns before it and k // 2
    # after it: where[c] is the padded position of input column c, and
    # taps[j, c] the padded column that tap j of output column c reads
    lengths = _lengths(lengths, n)
    pad_l = (k - 1) // 2
    where = np.arange(n) + pad_l + (k - 1) * np.repeat(np.arange(len(lengths)), lengths)
    taps = where - pad_l + np.arange(k)[:, None]
    xp = np.zeros((d_in, n + (k - 1) * len(lengths)), dtype=x.data.dtype)
    xp[:, where] = x.data
    cols = xp[:, taps].reshape(d_in * k, n)
    w2 = w.data.reshape(d_out, d_in * k)
    out = w2 @ cols if b is None else w2 @ cols + b.data

    def back(g):
        gw = (g @ cols.T).reshape(d_out, d_in, k)
        gcols = (w2.T @ g).reshape(d_in, k, n)
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[:, taps[j]] += gcols[:, j, :]
        grads = (gxp[:, where], gw)
        return grads if b is None else grads + (_unbroadcast(g, b.shape),)

    return _node(out, (x, w) if b is None else (x, w, b), back)


def matmul_blocks(x, blocks, lengths=None) -> Tensor:
    """Multiplies each sequence's columns of a (d, n) input by its own
    square matrix. blocks is a constant (B, m, m) array, m at least the
    longest sequence; the columns of sequence b times
    blocks[b, :lengths[b], :lengths[b]] are its output columns. This is the
    product with a block-diagonal (n, n) matrix, in memory and work that
    grow linearly with B rather than with n squared."""
    x = _wrap(x)
    d, n = x.shape
    lengths = _lengths(lengths, n)
    count, m = len(lengths), blocks.shape[-1]
    if blocks.shape != (count, m, m) or lengths.max() > m:
        raise ValueError(f"blocks {blocks.shape} do not fit sequence lengths "
                         f"{lengths.tolist()}")
    owner = np.repeat(np.arange(count), lengths)
    slot = np.arange(n) + owner * m - (lengths.cumsum() - lengths)[owner]

    def padded(cols):
        """(B, d, m): sequence b's columns, zero past its length."""
        out = np.zeros((cols.shape[0], count * m), dtype=cols.dtype)
        out[:, slot] = cols
        return out.reshape(-1, count, m).transpose(1, 0, 2)

    def unpadded(stack):
        return stack.transpose(1, 0, 2).reshape(-1, count * m)[:, slot]

    return _node(unpadded(padded(x.data) @ blocks), (x,),
                 lambda g: (unpadded(padded(g) @ blocks.transpose(0, 2, 1)),))


def segment_sum(a, lengths=None) -> Tensor:
    """Sums of each sequence's columns of a (d, n) tensor: (d, B)."""
    a = _wrap(a)
    lengths = _lengths(lengths, a.shape[1])
    return _node(np.add.reduceat(a.data, lengths.cumsum() - lengths, axis=1), (a,),
                 lambda g: (np.repeat(g, lengths, axis=1),))


def max_pool_segments(a, starts, ends) -> Tensor:
    """Column-wise maxima of a (d, n) tensor over inclusive column ranges.
    starts and ends are (r, m) integer arrays; the result is (r*d, m), and
    its row block i, column c is the max over columns starts[i, c] ..
    ends[i, c]. Ranges may overlap. An empty range (start > end) pools to
    zeros and passes no gradient."""
    a = _wrap(a)
    d, n = a.shape
    starts, ends = np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)
    r, m = starts.shape
    empty = starts > ends
    bad = ~empty & ((starts < 0) | (ends >= n))
    if bad.any():
        i, c = np.argwhere(bad)[0]
        raise ValueError(f"pool range [{starts[i, c]},{ends[i, c]}] outside 0..{n - 1}")
    cols = starts[..., None] + np.arange(max(int((ends - starts).max()) + 1, 1))
    past = cols > ends[..., None]
    window = a.data[:, np.where(past, 0, cols)]            # (d, r, m, widest range)
    window[:, past] = -np.inf
    out = window.max(axis=-1)
    out[:, empty] = 0.0

    def back(g):
        keep = ~empty
        src = (starts + window.argmax(axis=-1))[:, keep]   # column of each max
        full = np.zeros_like(a.data)
        np.add.at(full, (np.arange(d)[:, None], src),
                  g.reshape(r, d, m).transpose(1, 0, 2)[:, keep])
        return (full,)

    return _node(out.transpose(1, 0, 2).reshape(r * d, m), (a,), back)


def max_pool_range(a, start: int, end: int) -> Tensor:
    """Column-wise max over the inclusive column range [start, end] of a
    (d, n) tensor; result is (d, 1). An empty range pools to zeros and
    passes no gradient."""
    return max_pool_segments(a, [[start]], [[end]])


def _schedule(sizes: np.ndarray, reverse: bool):
    """How sequences of these lengths, side by side, step together: the
    number of steps, cols[t, s], the column that sequence s reads at step
    t (0, unused, once it has ended), step_of[c], the flat (t, s) index of
    the step that reads column c, and running[t, s], whether sequence s
    still runs at step t. A single sequence's cols and step_of are one
    slice in step order, and running is True."""
    if len(sizes) == 1:
        order = slice(None, None, -1 if reverse else 1)
        return int(sizes[0]), order, order, True
    firsts = sizes.cumsum() - sizes
    steps = np.arange(sizes.max())[:, None]
    running = steps < sizes
    cols = (firsts + (sizes - 1 - steps if reverse else steps)) * running
    step_of = np.empty(sizes.sum(), dtype=np.int64)
    step_of[cols[running]] = np.flatnonzero(running)
    return len(steps), cols, step_of, running


def bilstm_sequence(x, fwd, bwd, lengths=None) -> Tensor:
    """Both directions of a bidirectional LSTM over each sequence in the
    columns of a (d_in, n) input, recorded as one tape node that lists x
    once per direction, forward first. fwd and bwd are each direction's
    (wx, wh, b): wx is (4h, d_in), wh is (4h, h), b is (4h, 1), gate blocks
    in the order input, forget, candidate, output; every state starts at
    zero. Output is (2h, n): column c holds the forward over the backward
    hidden state after the step that read column c; the backward direction
    reads each sequence from its own last column to its first.

    Both directions of all B sequences step together, one stacked
    (2, 4h, h) @ (2, h, B) product per step. A sequence that has ended
    runs on until the longest one ends; those extra steps are never read
    and pass no gradient. Each direction projects the inputs of every step
    in one matmul; the backward is hand-written backpropagation through
    time that collects the gate pre-activation gradients step by step and
    then forms each direction's weight, bias and input gradients as
    whole-matrix products."""
    x = _wrap(x)
    params = [tuple(_wrap(t) for t in ws) for ws in (fwd, bwd)]
    d_in, n = x.shape
    hd = params[0][1].shape[1]
    shapes = [t.shape for ws in params for t in ws]
    if shapes != [(4 * hd, d_in), (4 * hd, hd), (4 * hd, 1)] * 2:
        raise ValueError(f"bilstm_sequence shapes x{x.shape} {shapes} do not fit")
    sizes = _lengths(lengths, n)
    B = len(sizes)
    plans = [_schedule(sizes, reverse) for reverse in (False, True)]
    T = plans[0][0]
    dt = np.result_type(params[0][0].data, x.data)   # the dtype of wx @ x
    # per step t, row block d of every (T, 2, rows, B) array is direction d
    zx = np.empty((T, 2, 4 * hd, B), dtype=dt)
    for d, ((wx, _, _), (_, cols, _, _)) in enumerate(zip(params, plans)):
        zx[:, d] = (wx.data @ x.data)[:, cols].reshape(4 * hd, T, B).swapaxes(0, 1)
    wh = np.stack([wh.data for _, wh, _ in params])
    bias = np.stack([b.data for _, _, b in params])
    parents = (x, *params[0], x, *params[1])
    # only the backward reads past steps' gates, cells and tanh(c): a call
    # whose node _node will not record keeps one step's, overwritten in place
    kept = T if _grad_enabled and any(p.requires_grad for p in parents) else 1
    acts = np.empty((kept, 2, 4 * hd, B), dtype=dt)   # sigmoid i, f, o and tanh g
    cells = np.empty((kept, 2, hd, B), dtype=dt)
    tanh_c = np.empty((kept, 2, hd, B), dtype=dt)
    hs = np.empty((T, 2, hd, B), dtype=dt)
    # every step writes into these buffers and views, made once per call;
    # each ufunc takes its out positionally, which costs less than out=
    z = np.empty((2, 4 * hd, B), dtype=dt)   # gate pre-activations
    z_g = z[:, 2 * hd:3 * hd]
    ig = np.empty((2, hd, B), dtype=dt)      # input gate times candidate
    slots = [(a, a[:, :hd], a[:, hd:2 * hd], a[:, 2 * hd:3 * hd], a[:, 3 * hd:], c, tc)
             for a, c, tc in zip(acts, cells, tanh_c)]
    h = c = np.zeros((2, hd, B), dtype=dt)
    for t in range(T):
        a, gate_i, gate_f, gate_g, gate_o, c_t, tc = slots[t % kept]
        np.add(np.add(zx[t], np.matmul(wh, h, z), z), bias, z)   # (zx[t] + wh @ h) + bias
        np.divide(1.0, np.add(1.0, np.exp(np.negative(z, a), a), a), a)
        np.tanh(z_g, gate_g)
        np.multiply(gate_f, c, c_t)                 # f * c + i * g
        np.add(c_t, np.multiply(gate_i, gate_g, ig), c_t)
        np.tanh(c_t, tc)
        c, h = c_t, np.multiply(gate_o, tc, hs[t])

    def by_column(per_step, d):
        """(n, rows) array whose row c is direction d's (T, 2, rows, B)
        per-step value of the step that read column c."""
        rows = per_step[:, d].swapaxes(1, 2).reshape(-1, per_step.shape[2])[plans[d][2]]
        # a single reverse sequence gives a reversed view; in it the weight
        # and bias sums would add the rows in another order and round apart
        return np.ascontiguousarray(rows)

    def shifted(states):
        """Row t holds the state step t started from."""
        prev = np.zeros_like(states)
        prev[1:] = states[:-1]
        return prev

    def back(g):
        # elementwise products associate as the chain rule through the
        # per-step cell would, so only the batched matrix products round
        # differently from a step-by-step tape
        gs = np.empty((T, 2, hd, B), dtype=g.dtype)
        for d, (_, cols, _, running) in enumerate(plans):
            gs[:, d] = ((g[d * hd:(d + 1) * hd, cols] * running)
                        .reshape(hd, T, B).swapaxes(0, 1))
        gate_i, gate_f = acts[:, :, :hd], acts[:, :, hd:2 * hd]
        gate_g, gate_o = acts[:, :, 2 * hd:3 * hd], acts[:, :, 3 * hd:]
        c_prev = shifted(cells)
        one_m_i, one_m_f, one_m_o = 1.0 - gate_i, 1.0 - gate_f, 1.0 - gate_o
        one_m_g2 = 1.0 - gate_g * gate_g
        one_m_tc2 = 1.0 - tanh_c * tanh_c
        wh_t = wh.swapaxes(1, 2)
        dz = np.empty_like(acts)
        dh_next = np.zeros((2, hd, B), dtype=dt)
        dc_next = np.zeros((2, hd, B), dtype=dt)
        for t in reversed(range(T)):
            dh = gs[t] + dh_next
            dc = dh * gate_o[t] * one_m_tc2[t] + dc_next
            z = dz[t]
            z[:, :hd] = dc * gate_g[t] * gate_i[t] * one_m_i[t]
            z[:, hd:2 * hd] = dc * c_prev[t] * gate_f[t] * one_m_f[t]
            z[:, 2 * hd:3 * hd] = dc * gate_i[t] * one_m_g2[t]
            z[:, 3 * hd:] = dh * tanh_c[t] * gate_o[t] * one_m_o[t]
            dc_next = dc * gate_f[t]
            dh_next = wh_t @ z
        h_prev = shifted(hs)
        grads = []
        for d, (wx, _, b) in enumerate(params):
            dz_d = by_column(dz, d)
            grads += [(dz_d @ wx.data).T if x.requires_grad else None,
                      dz_d.T @ x.data.T,
                      dz_d.T @ by_column(h_prev, d),
                      dz_d.sum(axis=0).reshape(b.shape)]
        return grads

    out = np.concatenate([by_column(hs, d).T for d in (0, 1)], axis=0)
    return _node(out, parents, back)


def take(a, indices, axis: int | None = 0) -> Tensor:
    """Slices of ``a`` at ``indices`` along ``axis``, or with axis=None the
    elements that the tuple of index arrays ``indices``, one per axis,
    picks. Backward scatter-adds, so repeated indices accumulate."""
    a = _wrap(a)
    if axis is None:
        where = tuple(np.asarray(i, dtype=np.int64) for i in indices)
    else:
        where = (slice(None),) * axis + (np.asarray(indices, dtype=np.int64),)

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, where, g)
        return (full,)

    return _node(a.data[where], (a,), back)


def embed_columns(tables, indices) -> Tensor:
    """Looks up one row of each (vocab_i, d_i) table per column: column c
    of the (sum of d_i, n) result stacks row indices[i][c] of every table
    i. Backward scatter-adds, so repeated indices accumulate."""
    tables = [_wrap(t) for t in tables]
    idx = [np.asarray(i, dtype=np.int64) for i in indices]
    splits = np.cumsum([t.shape[1] for t in tables])[:-1]

    def back(g):
        grads = []
        for t, i, part in zip(tables, idx, np.split(g, splits, axis=0)):
            full = np.zeros_like(t.data)
            np.add.at(full, i, part.T)
            grads.append(full)
        return tuple(grads)

    return _node(np.concatenate([t.data[i] for t, i in zip(tables, idx)], axis=1).T,
                 tables, back)
