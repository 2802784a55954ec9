"""Adam with fail-fast NaN detection.

The parameters of each dtype are packed into one contiguous buffer, and each
``p.data`` is a reshaped view into it, so a step is a handful of vectorised
operations over the whole buffer instead of a dozen per parameter. Each
element goes through the same float operations in the same order as in a
per-parameter loop, so the result is bit-identical to one, and a fixed
parameter list gives bit-identical runs.
"""

from __future__ import annotations

import numpy as np

from .autograd import Parameter

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator floor


class GradientError(Exception):
    """Non-finite gradient reached the optimizer."""


class _FlatGroup:
    """The parameters of one dtype, their gradients and both Adam moments,
    each in one flat buffer; ``tmp`` is scratch space for a step."""

    def __init__(self, params: list[Parameter]):
        self.params = params
        ends = np.cumsum([p.data.size for p in params]).tolist()
        self.slices = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
        size, dtype = ends[-1], params[0].data.dtype
        self.data = np.empty(size, dtype)
        self.grad = np.empty(size, dtype)
        self.m = np.zeros(size, dtype)
        self.v = np.zeros(size, dtype)
        self.tmp = np.empty(size, dtype)
        self.views: list[np.ndarray] = [None] * len(params)
        for i in range(len(params)):
            self.alias(i)

    def alias(self, i: int) -> None:
        """Copy parameter i's current array into the buffer and rebind its
        data to the buffer's view."""
        p = self.params[i]
        view = self.data[self.slices[i]].reshape(p.data.shape)
        view[...] = p.data
        p.data = view
        self.views[i] = view

    def gather(self) -> None:
        """Copy every gradient into the flat buffer (a missing one is zero),
        re-aliasing parameters whose data was rebound since the last step."""
        for i, (p, view, sl) in enumerate(zip(self.params, self.views, self.slices)):
            if p.data is not view:
                self.alias(i)
            if p.grad is None:
                self.grad[sl] = 0
            else:
                self.grad[sl] = p.grad.reshape(-1)

    def update(self, lr, b1, b2, bias1, bias2, eps) -> None:
        # per element, exactly what the unfused update computes:
        #   m = m*b1 + (1-b1)*g;  v = v*b2 + ((1-b2)*g)*g
        #   data -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)
        m, v, g, tmp = self.m, self.v, self.grad, self.tmp
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, bias1, out=g)          # the gradients are no longer needed
        g *= lr
        g /= tmp
        self.data -= g


class Adam:
    def __init__(self, params, lr: float = 1e-3):
        self.params: list[Parameter] = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in optimizer")
        self.lr = lr
        self.t = 0
        by_dtype: dict[np.dtype, list[Parameter]] = {}
        for p in self.params:
            by_dtype.setdefault(p.data.dtype, []).append(p)
        self._groups = [_FlatGroup(ps) for ps in by_dtype.values()]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update of every parameter. A non-finite gradient raises
        GradientError naming the first such parameter, before anything
        changes."""
        for group in self._groups:
            group.gather()
        if not all(np.isfinite(group.grad).all() for group in self._groups):
            bad = next(p for p in self.params
                       if p.grad is not None and not np.isfinite(p.grad).all())
            raise GradientError(f"non-finite gradient for {bad.name}")
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        for group in self._groups:
            group.update(self.lr, BETA1, BETA2, bias1, bias2, EPS)


def fit(params, lr: float, epochs: int, size: int, batch: int, rng, loss_of) -> list[float]:
    """Adam on ``params`` for ``epochs`` passes over ``size`` items, each in
    one ``rng.permutation(size)``: one step per ``batch`` consecutive ids on
    ``loss_of(ids)``, which returns (the loss, or None for no step; the
    per-item losses). Returns each epoch's mean per-item loss."""
    opt = Adam(params, lr=lr)
    epoch_losses = []
    for _ in range(epochs):
        losses = []
        order = rng.permutation(size)
        for lo in range(0, size, batch):
            loss, item_losses = loss_of(order[lo:lo + batch])
            losses.extend(item_losses)
            if loss is not None:
                opt.zero_grad()
                loss.backward()
                opt.step()
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses
