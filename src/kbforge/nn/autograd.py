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

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, seed=None) -> None:
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            seed = np.ones_like(self.data)
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
        self._accumulate(np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if parent.requires_grad and g is not None:
                    parent._accumulate(g)

    # operator sugar; keeps call sites readable
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


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


def scale(a, c: float) -> Tensor:
    a = _wrap(a)
    return _node(a.data * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(a, axes=None) -> Tensor:
    a = _wrap(a)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)
    return _node(np.transpose(a.data, axes), (a,),
                 lambda g: (np.transpose(g, inverse),))


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old = a.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 lambda g: tuple(np.split(g, splits, axis=axis)))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = _wrap(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def back(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _node(a.data[idx].copy(), (a,), back)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)

    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    count = a.data.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


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


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _node(out, (a,), back)


# -- structured ops ----------------------------------------------------------

def conv1d(x, w, b=None) -> Tensor:
    """Same-length 1-D convolution. x is (d_in, n), w is (d_out, d_in, k),
    optional bias (d_out, 1); output (d_out, n) with zero padding."""
    x, w = _wrap(x), _wrap(w)
    d_in, n = x.shape
    d_out, d_in_w, k = w.shape
    if d_in_w != d_in:
        raise ValueError(f"conv1d channel mismatch: {d_in_w} vs {d_in}")
    if n < 1 or k > n + 2 * (k // 2):
        raise ValueError(f"window {k} cannot cover padded length-{n} input")
    pad_l = (k - 1) // 2
    pad_r = k // 2
    xp = np.zeros((d_in, n + pad_l + pad_r), dtype=x.data.dtype)
    xp[:, pad_l:pad_l + n] = x.data
    cols3 = np.empty((d_in, k, n), dtype=x.data.dtype)
    for j in range(k):
        cols3[:, j, :] = xp[:, j:j + n]
    cols = cols3.reshape(d_in * k, n)
    w2 = w.data.reshape(d_out, d_in * k)
    out = w2 @ cols

    def back(g):
        gw = (g @ cols.T).reshape(d_out, d_in, k)
        gcols = (w2.T @ g).reshape(d_in, k, n)
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[:, j:j + n] += gcols[:, j, :]
        return (gxp[:, pad_l:pad_l + n], gw)

    conv = _node(out, (x, w), back)
    if b is None:
        return conv
    return add(conv, b)


def max_pool_range(a, start: int, end: int) -> Tensor:
    """Column-wise max over the inclusive column range [start, end] of a
    (d, n) tensor; result is (d, 1). An empty range pools to zeros and
    passes no gradient."""
    a = _wrap(a)
    d, n = a.shape
    if start > end:
        return Tensor(np.zeros((d, 1), dtype=a.data.dtype))
    if start < 0 or end >= n:
        raise ValueError(f"pool range [{start},{end}] outside 0..{n - 1}")
    window = a.data[:, start:end + 1]
    arg = window.argmax(axis=1)
    out = window[np.arange(d), arg].reshape(d, 1)

    def back(g):
        full = np.zeros_like(a.data)
        full[np.arange(d), start + arg] = g[:, 0]
        return (full,)

    return _node(out, (a,), back)


def lstm_sequence(x, wx, wh, b, reverse: bool = False) -> Tensor:
    """One LSTM direction over the columns of a (d_in, n) input, recorded
    as a single tape node. wx is (4h, d_in), wh is (4h, h), b is (4h, 1),
    gate blocks in the order input, forget, candidate, output; the state
    starts at zero. Output is (h, n): column t is the hidden state after
    step t, and with reverse=True the steps run from the last column to
    the first.

    The input projection of every step is one matmul; the backward is
    hand-written backpropagation through time that collects the gate
    pre-activation gradients column by column and then forms the weight,
    bias and input gradients as whole-matrix products."""
    x, wx, wh, b = (_wrap(t) for t in (x, wx, wh, b))
    d_in, n = x.shape
    hd = wh.shape[1]
    if wx.shape != (4 * hd, d_in) or wh.shape != (4 * hd, hd) or b.shape != (4 * hd, 1):
        raise ValueError(f"lstm_sequence shapes x{x.shape} wx{wx.shape} "
                         f"wh{wh.shape} b{b.shape} do not fit")
    steps = range(n - 1, -1, -1) if reverse else range(n)
    zx = (wx.data @ x.data).T                 # (n, 4h): row t feeds step t
    bias = b.data[:, 0]
    dt = zx.dtype
    acts = np.empty((n, 4 * hd), dtype=dt)    # sigmoid i, f, o and tanh g
    cells = np.empty((n, hd), dtype=dt)
    tanh_c = np.empty((n, hd), dtype=dt)
    hs = np.empty((n, hd), dtype=dt)
    h = np.zeros(hd, dtype=dt)
    c = np.zeros(hd, dtype=dt)
    for t in steps:
        z = zx[t] + wh.data @ h + bias
        a = acts[t]
        a[:] = 1.0 / (1.0 + np.exp(-z))
        a[2 * hd:3 * hd] = np.tanh(z[2 * hd:3 * hd])
        c = a[hd:2 * hd] * c + a[:hd] * a[2 * hd:3 * hd]
        cells[t] = c
        tanh_c[t] = np.tanh(c)
        h = hs[t] = a[3 * hd:] * tanh_c[t]

    def shifted(states):
        """Row t holds the state step t started from."""
        prev = np.zeros_like(states)
        if reverse:
            prev[:-1] = states[1:]
        else:
            prev[1:] = states[:-1]
        return prev

    def back(g):
        # elementwise products associate as the chain rule through the
        # per-step cell would, so only the batched matrix products round
        # differently from a step-by-step tape
        gate_i, gate_f = acts[:, :hd], acts[:, hd:2 * hd]
        gate_g, gate_o = acts[:, 2 * hd:3 * hd], acts[:, 3 * hd:]
        c_prev = shifted(cells)
        one_m_i, one_m_f, one_m_o = 1.0 - gate_i, 1.0 - gate_f, 1.0 - gate_o
        one_m_g2 = 1.0 - gate_g * gate_g
        one_m_tc2 = 1.0 - tanh_c * tanh_c
        g_rows = g.T
        dz = np.empty((n, 4 * hd), dtype=dt)
        dh_next = np.zeros(hd, dtype=dt)
        dc_next = np.zeros(hd, dtype=dt)
        for t in reversed(steps):
            dh = g_rows[t] + dh_next
            dc = dh * gate_o[t] * one_m_tc2[t] + dc_next
            z = dz[t]
            z[:hd] = dc * gate_g[t] * gate_i[t] * one_m_i[t]
            z[hd:2 * hd] = dc * c_prev[t] * gate_f[t] * one_m_f[t]
            z[2 * hd:3 * hd] = dc * gate_i[t] * one_m_g2[t]
            z[3 * hd:] = dh * tanh_c[t] * gate_o[t] * one_m_o[t]
            dc_next = dc * gate_f[t]
            dh_next = wh.data.T @ z
        return ((dz @ wx.data).T if x.requires_grad else None,
                dz.T @ x.data.T,
                dz.T @ shifted(hs),
                dz.sum(axis=0).reshape(b.shape))

    return _node(hs.T, (x, wx, wh, b), back)


def gather_rows(emb, indices) -> Tensor:
    """Row lookup into a (vocab, d) matrix; backward scatter-adds, so
    repeated indices accumulate."""
    emb = _wrap(emb)
    idx = np.asarray(indices, dtype=np.int64)

    def back(g):
        full = np.zeros_like(emb.data)
        np.add.at(full, idx, g)
        return (full,)

    return _node(emb.data[idx], (emb,), back)
