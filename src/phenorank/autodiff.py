"""Minimal dense-tensor substrate with reverse-mode differentiation.

Tensors wrap float64 numpy arrays. Operations executed while a Tape is
active append a record (output, parents, vjp); Tape.backward replays the
records in reverse, which is a valid topological order because records are
appended at creation time. `Tape.backward(root, wrt)` differentiates with
respect to the leaves it is given: `wrt` maps names to Tensors, and the
result maps the same names, in `wrt` order, to gradients (a leaf that
`root` does not depend on gets no key). Gradients live only inside one
backward call, in a dict keyed by `id(tensor)` (unique while the records
hold every tensor they name); tensors carry no gradient, so a backward
pass never writes to shared parameters.
Reductions delegate to numpy's sequential kernels, and every scatter-add
goes through `_scatter_add`, so forward evaluation is bit-deterministic for
a fixed operand order. `_scatter_add` is one `np.bincount` over the
flattened `row * C + col` index: bincount adds its weights one by one in
input order, so each output cell sums its rows in row order, starting from
+0.0, as one sequential loop over the rows would.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "tensor",
    "add", "sub", "mul", "div", "matmul", "scale", "shift",
    "concat", "reshape", "tile_rows", "gather_rows",
    "abs_", "relu", "leaky_relu", "elu", "sigmoid", "clamp",
    "segment_softmax", "segment_sum",
    "row_l2_norm", "sum_", "mean_", "log1p_sum_exp",
    "grad_check",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of primitive ops; backward visits each record once."""

    def __init__(self):
        self.records = []  # (out, parents, vjp) in creation order

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, root: Tensor, wrt: dict) -> dict:
        """Gradients of scalar `root` w.r.t. the Tensors of `wrt`, by its
        keys in its order; a Tensor that `root` does not reach gets no key."""
        if root.data.ndim != 0 and root.data.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
        grad_of = {id(root): np.ones_like(root.data)}
        for out, parents, vjp in reversed(self.records):
            g_out = grad_of.pop(id(out), None)
            if g_out is None:
                continue
            for p, g in zip(parents, vjp(g_out)):
                if g is None:
                    continue
                prev = grad_of.get(id(p))
                grad_of[id(p)] = g if prev is None else prev + g
        return {k: grad_of[id(t)] for k, t in wrt.items() if id(t) in grad_of}


def _record(out: Tensor, parents, vjp):
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.records.append((out, tuple(parents), vjp))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum `g` down to `shape` along axes that were broadcast."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _scatter_add(values: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Rows of `values` summed into `n` output rows by `index`, in row order."""
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=n)
    c = math.prod(values.shape[1:])
    flat = (index[:, None] * c + np.arange(c)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1),
                       minlength=n * c).reshape((n,) + values.shape[1:])


def _segment_max(values: np.ndarray, seg: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment max of the rows of `values`; `counts[k]` rows fall in
    segment k, and every segment holds at least one."""
    # max is exact in any order; the stable sort keeps each segment's rows
    # in input order, so reduceat meets them as a sequential max would
    order = np.argsort(seg, kind="stable")
    return np.maximum.reduceat(values[order], np.cumsum(counts) - counts, axis=0)


def _check_finite(arr: np.ndarray, op: str):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values produced by {op}")


# ---------------------------------------------------------------- arithmetic

def add(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} vs {b.shape}")
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    try:
        out = Tensor(a.data - b.data)
    except ValueError:
        raise ShapeError(f"sub: incompatible shapes {a.shape} vs {b.shape}")
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} vs {b.shape}")
    return _record(out, (a, b),
                   lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    out = Tensor(a.data / b.data)
    _check_finite(out.data, "div")
    return _record(out, (a, b),
                   lambda g: (_unbroadcast(g / b.data, a.shape),
                              _unbroadcast(-g * a.data / (b.data ** 2), b.shape)))


def scale(a, c: float) -> Tensor:
    a = tensor(a)
    return _record(Tensor(a.data * c), (a,), lambda g: (g * c,))


def shift(a, c: float) -> Tensor:
    a = tensor(a)
    return _record(Tensor(a.data + c), (a,), lambda g: (g,))


def matmul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)
    return _record(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


# ------------------------------------------------------------- restructuring

def concat(parts, axis: int = 0) -> Tensor:
    parts = [tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(parts)))

    return _record(out, parts, vjp)


def reshape(a, shape) -> Tensor:
    a = tensor(a)
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def tile_rows(v, n: int) -> Tensor:
    """Stack 1-D vector `v` into an (n, d) matrix."""
    v = tensor(v)
    if v.data.ndim != 1:
        raise ShapeError(f"tile_rows expects 1-D input, got {v.shape}")
    out = Tensor(np.tile(v.data, (n, 1)))
    return _record(out, (v,), lambda g: (g.sum(axis=0),))


def gather_rows(a, idx) -> Tensor:
    a = tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[idx])

    return _record(out, (a,), lambda g: (_scatter_add(g, idx, a.data.shape[0]),))


# ------------------------------------------------------------- nonlinearities

def abs_(a) -> Tensor:
    a = tensor(a)
    out = Tensor(np.abs(a.data))
    return _record(out, (a,), lambda g: (g * np.sign(a.data),))


def relu(a) -> Tensor:
    a = tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g: (g * (a.data > 0),))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = tensor(a)
    # 1.0 where a > 0, else slope; x * 1.0 and x * slope are exact, so this
    # equals np.where(a > 0, a, slope * a) bit for bit
    factor = np.array([slope, 1.0]).take((a.data > 0).view(np.uint8))
    return _record(Tensor(a.data * factor), (a,), lambda g: (g * factor,))


def elu(a) -> Tensor:
    a = tensor(a)
    ex = np.exp(np.minimum(a.data, 0.0))     # exactly 1.0 where a > 0
    out = Tensor(np.maximum(a.data, 0.0) + (ex - 1.0))
    return _record(out, (a,), lambda g: (g * ex,))


def sigmoid(a) -> Tensor:
    a = tensor(a)
    s = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                 np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    out = Tensor(s)
    return _record(out, (a,), lambda g: (g * s * (1.0 - s),))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = tensor(a)
    out = Tensor(np.clip(a.data, lo, hi))
    inside = (a.data > lo) & (a.data < hi)
    return _record(out, (a,), lambda g: (g * inside,))


# ---------------------------------------------------------------- reductions

def segment_softmax(a, segments, n_segments: int) -> Tensor:
    """Row-segmented softmax (max-subtracted), per column for 2-D input.

    `segments` maps each row of `a` to a group; the softmax normalizes
    within each group. Every segment in [0, n_segments) must be
    populated; an empty segment means attention reached a node with no
    incident arcs, which is a bug upstream.
    """
    a = tensor(a)
    seg = np.asarray(segments, dtype=np.int64)
    if a.data.ndim not in (1, 2) or seg.shape != a.data.shape[:1]:
        raise ShapeError(f"segment_softmax: values {a.shape} vs segments {seg.shape}")
    counts = np.bincount(seg, minlength=n_segments)
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"segment_softmax: empty segment {empty}")
    seg_max = _segment_max(a.data, seg, counts)
    ex = np.exp(a.data - seg_max[seg])
    s = ex / _scatter_add(ex, seg, n_segments)[seg]
    out = Tensor(s)
    return _record(out, (a,),
                   lambda g: (s * (g - _scatter_add(g * s, seg, n_segments)[seg]),))


def _segment_matrix_check(a: Tensor, seg: np.ndarray):
    if a.data.ndim not in (1, 2) or seg.shape[0] != a.data.shape[0]:
        raise ShapeError(f"segment op: values {a.shape} vs segments {seg.shape}")


def segment_sum(a, segments, n_segments: int) -> Tensor:
    a = tensor(a)
    seg = np.asarray(segments, dtype=np.int64)
    _segment_matrix_check(a, seg)
    out = Tensor(_scatter_add(a.data, seg, n_segments))
    return _record(out, (a,), lambda g: (g[seg],))


def sum_(a, axis: int | None = None) -> Tensor:
    """Sum of all entries, or along one `axis` (which is dropped)."""
    a = tensor(a)
    if axis is None:
        out = Tensor(a.data.sum())
        return _record(out, (a,), lambda g: (np.full_like(a.data, float(g)),))
    out = Tensor(a.data.sum(axis=axis))
    n = a.data.shape[axis]
    return _record(out, (a,),
                   lambda g: (np.repeat(np.expand_dims(g, axis), n, axis=axis),))


def mean_(a) -> Tensor:
    a = tensor(a)
    n = a.data.size
    out = Tensor(a.data.mean())
    return _record(out, (a,), lambda g: (np.full_like(a.data, float(g) / n),))


def row_l2_norm(a) -> Tensor:
    """Per-row Euclidean norm of a 2-D tensor."""
    a = tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"row_l2_norm expects 2-D input, got {a.shape}")
    nrm = np.sqrt(np.sum(a.data ** 2, axis=1))
    out = Tensor(nrm)

    def vjp(g):
        safe = np.where(nrm > 0, nrm, 1.0)
        return (g[:, None] * a.data / safe[:, None],)

    return _record(out, (a,), vjp)


def log1p_sum_exp(a) -> Tensor:
    """Stable scalar log(1 + sum_i exp(a_i)); empty input yields 0."""
    a = tensor(a)
    if a.data.size == 0:
        return _record(Tensor(0.0), (a,), lambda g: (np.zeros_like(a.data),))
    m = max(0.0, float(a.data.max()))
    val = m + np.log(np.exp(-m) + np.sum(np.exp(a.data - m)))
    out = Tensor(val)
    return _record(out, (a,), lambda g: (float(g) * np.exp(a.data - val),))


# --------------------------------------------------------------- grad check

def grad_check(f, params: dict, h: float = 1e-5, n_samples: int = 20,
               rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` is a deterministic scalar function of `params` (name -> Tensor),
    which are the leaves differentiated. Coordinates are sampled per
    tensor; the relative error denominator is max(1, |numeric|).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    rng = rng or np.random.default_rng(0)
    with Tape() as tape:
        loss = f(params)
    grads = tape.backward(loss, params)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        coords = rng.choice(n, size=min(n_samples, n), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            up = f(params).item()
            flat[c] = orig - h
            down = f(params).item()
            flat[c] = orig
            numeric = (up - down) / (2 * h)
            if not np.isfinite(numeric):
                raise FloatingPointError(f"non-finite finite-difference at {name}[{c}]")
            analytic = grads.get(name)
            aval = 0.0 if analytic is None else analytic.reshape(-1)[c]
            err = abs(aval - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
