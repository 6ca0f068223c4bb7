"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just the ops the forecaster needs: batched matmul, axis permutation,
reshape, broadcast-aware arithmetic, sigmoid, last-axis softmax, the
per-row scale of a factored layer norm, prototype attention's bucket
contexts, row gather, last-axis concat, and full-mean reduction. Every
op accepts arbitrary leading batch dimensions.

`bucket_contexts` is the scores, the softmax over the segments and the
contexts in one op. Its scores are laid out (..., rows, k), so the
softmax reduces each prototype's column over the rows in one buffer,
and its backward forms only the queries' gradient in closed form: the
segments it reads are constants.

A 2-D matmul operand shared across batch axes (a weight) gets its
gradient from one contraction over the batch and row axes, a single
GEMM, never from a per-batch product that is summed afterwards. Forward
values never depend on whether gradients are recorded.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

_GRAD_ENABLED = True
RMS_EPS = 1e-8  # rms_rows' variance floor, the layer norm's epsilon


class no_grad:
    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        """Accumulate gradients into every tensor reachable from this one,
        seeding this tensor's gradient with ones."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _accum(t: Tensor, g: np.ndarray):
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _swap_last(x: np.ndarray) -> np.ndarray:
    # a transposed 2-D view sends numpy's batched matmul down a path ~1.5-2.5x
    # slower than a contiguous copy; batched views cost nothing extra
    t = np.swapaxes(x, -1, -2)
    return np.ascontiguousarray(t) if x.ndim == 2 else t


def _wire(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _wire(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _wire(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _wire(out, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * s)

    return _wire(out, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data)

    def bw(g):
        lead = tuple(range(g.ndim - 2))
        if a.requires_grad:
            if a.data.ndim == 2 and lead:
                # contract g (..., n, m) with b (..., k, m) over batch and m
                last = (g.ndim - 1,)
                ga = np.tensordot(g, b.data, axes=(lead + last, lead + last))
            else:
                ga = _unbroadcast(g @ _swap_last(b.data), a.data.shape)
            _accum(a, ga)
        if b.requires_grad:
            if b.data.ndim == 2 and lead:
                # rows of every batch entry stack into one (rows, k) operand
                gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(_swap_last(a.data) @ g, b.data.shape)
            _accum(b, gb)

    return _wire(out, (a, b), bw)


def transpose_last(a: Tensor) -> Tensor:
    out = Tensor(np.swapaxes(a.data, -1, -2))

    def bw(g):
        if a.requires_grad:
            _accum(a, np.swapaxes(g, -1, -2))

    return _wire(out, (a,), bw)


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))

    def bw(g):
        if a.requires_grad:
            _accum(a, np.transpose(g, inv))

    return _wire(out, (a,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        if a.requires_grad:
            _accum(a, g.reshape(a.data.shape))

    return _wire(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # exp(-|x|) never overflows; e / (1 + e) replaces 1 / (1 + e) where
    # x < 0. Three buffers, bit-identical to np.where over both quotients
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    y = np.divide(1.0, denom)
    np.divide(e, denom, out=y, where=x < 0)
    out = Tensor(y)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * y * (1.0 - y))

    return _wire(out, (a,), bw)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bw(g):
        if a.requires_grad:
            _accum(a, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _wire(out, (a,), bw)


def rms_rows(u: Tensor, gram: Tensor) -> Tensor:
    """Scale each row of u (..., w) by r = 1/sqrt(max(u G u^T, 0) + RMS_EPS), G = gram.

    With G = Wc Wc^T / d for a row-centred (w, d) map Wc, u G u^T is the
    variance of the d-wide row u Wc, so (r u) Wc is that row layer-normed,
    computed without building it. The clamp keeps a quadratic form that
    rounds below zero (a row near Wc's left null space) finite.
    """
    w = u.data.shape[-1]
    if gram.data.shape != (w, w):
        raise ShapeError(f"gram must be ({w}, {w}) to match u's last axis, got {gram.data.shape}")
    ud, g_mat = u.data, gram.data
    q = np.einsum("...i,...i->...", ud @ g_mat, ud)[..., None]
    active = q > 0
    np.maximum(q, 0.0, out=q)
    q += RMS_EPS
    r = np.sqrt(q, out=q)
    np.divide(1.0, r, out=r)
    out = Tensor(ud * r)

    def bw(g):
        # out = r u with dr/du = -r^3 u (G + G^T) / 2 and dr/dG = -r^3 u^T u / 2,
        # both zero where the clamp held; c u carries both
        c = np.einsum("...i,...i->...", g, ud)[..., None]
        c *= r * r * r
        c *= np.where(active, -0.5, 0.0)
        cu = ud * c
        if gram.requires_grad:
            _accum(gram, cu.reshape(-1, w).T @ ud.reshape(-1, w))
        if u.requires_grad:
            gu = cu @ (g_mat + g_mat.T)
            gu += g * r
            _accum(u, gu)

    return _wire(out, (u, gram), bw)


def bucket_contexts(q_raw: Tensor, raw: np.ndarray, scale: float) -> Tensor:
    """Prototype attention's k contexts A^T raw, (..., k, w), in one op.

    A = softmax over the rows axis of S = raw (scale q_raw)^T, for q_raw
    (k, w) and raw (..., rows, w): each prototype's column of scores is
    normalized over the segments. S is built as one batched product in
    (..., rows, k) layout, then max-shifted, exponentiated and divided
    in place. raw is a constant: it is read where it lies (the entity
    branch passes a transposed view) and gets no gradient, and only
    q_raw is a parent of the result.
    """
    if q_raw.data.ndim != 2 or raw.ndim < 2 or raw.shape[-1] != q_raw.data.shape[1]:
        raise ShapeError(
            f"need q_raw (k, w) and raw (..., rows, w), got {q_raw.data.shape} and {raw.shape}"
        )
    a = raw @ (q_raw.data * scale).T  # (..., rows, k)
    a -= a.max(axis=-2, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-2, keepdims=True)
    out = Tensor(np.swapaxes(a, -1, -2) @ raw)

    def bw(g):
        # dS = A (dA - sum_rows(dA A)) with dA = raw g^T, then dq = scale dS^T raw
        # summed over every batch and row axis, one contraction
        ds = raw @ np.swapaxes(g, -1, -2)  # (..., rows, k)
        ds -= (ds * a).sum(axis=-2, keepdims=True)
        ds *= a
        axes = tuple(range(raw.ndim - 1))
        _accum(q_raw, scale * np.tensordot(ds, raw, axes=(axes, axes)))

    return _wire(out, (q_raw,), bw)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """out[..., i, :] = a[..., idx[..., i], :] with integer idx in [0, k).

    a is (..., k, d) and idx is (..., rows) with the same leading axes.
    """
    idx = np.asarray(idx, dtype=np.int64)
    lead, (k, d) = a.data.shape[:-2], a.data.shape[-2:]
    if idx.shape[:-1] != lead:
        raise ShapeError(f"index leading shape {idx.shape[:-1]} does not match {lead}")
    # a bad index would read another batch entry's rows, not raise
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ShapeError(f"row index out of range [0, {k})")
    # row idx of batch entry j is row j * k + idx of the flattened (-1, d) view
    offsets = (np.arange(int(np.prod(lead))) * k).reshape(lead + (1,))
    out = Tensor(a.data.reshape(-1, d)[(idx + offsets).ravel()].reshape(idx.shape + (d,)))

    def bw(g):
        if a.requires_grad:
            one_hot = (idx[..., None, :] == np.arange(k)[:, None]).astype(np.float64)
            _accum(a, one_hot @ g)

    return _wire(out, (a,), bw)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"leading shapes {a.data.shape[:-1]} and {b.data.shape[:-1]} differ")
    out = Tensor(np.concatenate([a.data, b.data], axis=-1))
    na = a.data.shape[-1]

    def bw(g):
        if a.requires_grad:
            _accum(a, g[..., :na])
        if b.requires_grad:
            _accum(b, g[..., na:])

    return _wire(out, (a, b), bw)


def mean_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())

    def bw(g):
        if a.requires_grad:
            _accum(a, np.full_like(a.data, float(g) / a.data.size))

    return _wire(out, (a,), bw)
