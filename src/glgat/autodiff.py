"""Dense float64 tensors with reverse-mode automatic differentiation.

A small, eager engine: each operation computes its result immediately. A
recorded result's ``DiffTensor`` holds its value and a ``_Node``, the
graph record: the inputs' nodes, the op name and a backward rule that
closes over the arrays and shapes it reads, never over a tensor. The
graph therefore keeps only what the rules save, and any other value,
such as an input only a sum or a concatenation read, is freed as soon
as the caller drops its tensor. ``DiffTensor.backward`` materializes the
recorded graph as a ``Tape`` of nodes (topological order, inputs before
consumers) and replays it in reverse, visiting every node exactly once.
The sweep consumes the graph: each interior node drops its rule, its
inputs and the arrays the rule saved as soon as the rule has run, so the
backward's gradients reuse the memory of the forward's record. A consumed
node refuses a second backward and any new operation that would record
it.

All arrays are row-major float64. Every arithmetic operation checks that its
output is finite and raises ``NonFiniteError`` instead of letting NaN or Inf
propagate, so a finite graph stays finite until something genuinely
overflows. Operations that only rearrange their input skip the scan, as do
GELU and the masked softmax, whose outputs are bounded by construction.
Inside ``no_grad()`` nothing is recorded and nothing is scanned; the caller
checks the result it keeps.

``attend`` takes attention, pairwise term included, from the query, key
and value rows to the merged heads in one node, over blocks of at most
``_BLOCK_BYTES`` of scores that stay in cache through the elementwise
passes. It never holds whole raw scores: a recorded call keeps the two
score-shaped arrays its backward reads, and a call inside ``no_grad()``
keeps none.

The only module state is one per-thread object, ``_recording``. It holds
the switch of ``no_grad()`` and the results held by ``reuse_scope()``,
both restored when their block exits, and the weak record
(``_weak_record``) of the read-only weights last scanned, which later
calls with the same weights skip the scan for. A graph belongs to
whichever thread built it, and independent graphs over shared read-only
leaves may run concurrently.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
import weakref

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class NonFiniteError(ArithmeticError):
    """An operation produced (or was given) NaN or infinite values."""


class DegenerateRowError(ValueError):
    """A weighted softmax row has no positive weight to normalize over."""


class ConsumedGraphError(RuntimeError):
    """A graph was used again after ``backward()`` consumed it."""


def _consumed(g):
    """The backward rule left on an interior node once the sweep has run it."""
    raise ConsumedGraphError("backward() already consumed this graph")


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# per thread: off (no_grad), reused (reuse_scope) and scanned (attend)
_recording = threading.local()


@contextlib.contextmanager
def _thread_setting(name: str, value):
    """Give this thread's ``name`` the value ``value`` for the block."""
    previous = getattr(_recording, name, None)
    setattr(_recording, name, value)
    try:
        yield
    finally:
        setattr(_recording, name, previous)


def no_grad():
    """Evaluate without building a graph, for values no gradient is taken of.

    Results inside the block are plain constants: no parents, no backward
    rules, no per-operation finiteness scan. Values are bit for bit those of
    a recorded evaluation; a caller that keeps one checks it with
    ``require_finite``. Leaves built inside the block are not scanned
    either.
    """
    return _thread_setting("off", True)


def recording() -> bool:
    """Whether operations on this thread record a graph: false inside
    ``no_grad()``."""
    return not getattr(_recording, "off", False)


def reuse_scope():
    """Let ``reuse`` hand back earlier results for the length of the block.

    Meant for evaluations that repeat one input with one tensor changed,
    such as the perturbed calls of a gradient check. Each ``params`` object
    keeps only its last call and result; all of them are dropped when the
    block exits.
    """
    return _thread_setting("reused", {})


def reuse(fn, params, *args) -> DiffTensor:
    """``fn(params, *args)``, or the result that call gave last time.

    Inside ``reuse_scope()`` and ``no_grad()`` together, the earlier result
    for ``params``, a dict of tensors, is returned when ``fn`` is the same
    function and every tensor in ``params`` and every array or tensor in
    ``args`` holds the same shape, dtype and bytes as when it was computed;
    other arguments must compare equal. Identity does not count, so an
    in-place write or a swapped-in array forces a recompute. ``fn`` must
    depend on nothing but its arguments; ``params`` is kept alive while its
    result is held. Anywhere else this is ``fn(params, *args)``.
    """
    held = getattr(_recording, "reused", None)
    if held is None or not getattr(_recording, "off", False):
        return fn(params, *args)
    key = [fn]
    for a in (*params.values(), *args):
        a = a.data if isinstance(a, DiffTensor) else a
        key.append((a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a)
    last = held.get(id(params))
    if last is not None and last[1] == key:
        return last[2]
    out = fn(params, *args)
    held[id(params)] = (params, key, out)
    return out


def require_finite(data: np.ndarray, what: str) -> None:
    """Raise ``NonFiniteError`` naming ``what`` if ``data`` holds NaN or Inf."""
    # the ufunc reduce skips the Python-level dispatch of ndarray.all
    if not np.logical_and.reduce(np.isfinite(data), axis=None):
        raise NonFiniteError(f"{what}: result contains NaN or Inf")


class _Node:
    """A recorded tensor's place in the graph, without its value.

    ``parents`` are the nodes of the inputs a gradient reaches, ``rule``
    maps the output gradient to ``(parent, gradient)`` pairs, and ``op``
    names the operation. A leaf has no rule and keeps in ``leaf`` a weak
    reference to the tensor that receives the gradient, so a dropped
    parameter is freed at once, not left in a cycle for the collector.
    """

    __slots__ = ("parents", "rule", "op", "leaf")

    def __init__(self, parents: tuple, rule, op: str, leaf: weakref.ref | None = None):
        self.parents = parents
        self.rule = rule
        self.op = op
        self.leaf = leaf


class DiffTensor:
    """N-dimensional float64 array participating in a reverse-mode graph.

    Leaves are built directly (``constant`` / ``parameter``); recorded
    results are built by the operations below. A tensor that gradients
    reach has a ``_Node`` in the graph; a constant has none. ``grad`` is
    populated on leaves with ``requires_grad=True`` by ``backward()`` and
    accumulates across graphs until ``zero_grad()``.
    """

    def __init__(self, values, requires_grad: bool = False):
        data = np.ascontiguousarray(values, dtype=np.float64)
        if not getattr(_recording, "off", False):
            require_finite(data, "tensor")
        self.data = data
        self.grad: np.ndarray | None = None
        self._node = _Node((), None, "leaf", weakref.ref(self)) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this node into all reachable leaves.

        Without ``seed`` the node must be a scalar and is seeded with 1.
        The call consumes the graph: every interior node it passes frees
        its record, so a second ``backward()`` through the graph, or a new
        operation on one of its interior nodes, raises
        ``ConsumedGraphError``. Leaf gradients add to what earlier graphs
        left there.
        """
        if not self.requires_grad:
            return
        if seed is None:
            if self.size != 1:
                raise ShapeError("backward() without a seed requires a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != self.data.shape:
                raise ShapeError("seed gradient shape must match tensor shape")
        Tape(self).run_backward(self, seed)

    # Operator sugar; all dispatch to the module-level operations.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return scale(self, -1.0)

    def __getitem__(self, idx):
        return slice_tensor(self, idx)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        op = "constant" if self._node is None else self._node.op
        return f"DiffTensor(shape={self.data.shape}, op={op!r}{flag})"


class Tape:
    """Topologically ordered nodes of the operations reachable from a root.

    Only gradient-relevant nodes are recorded (constants have none). The
    order guarantees every operation's inputs precede it, so the reverse
    sweep in ``run_backward`` visits each node exactly once with its output
    gradient fully accumulated, after every consumer of the node has been
    released.
    """

    def __init__(self, root: DiffTensor):
        nodes: list[_Node] = []
        start = root._node
        visited = {id(start)}
        stack = [] if start is None else [(start, iter(start.parents))]
        while stack:
            node, parents = stack[-1]
            child = next(parents, None)
            if child is None:
                nodes.append(node)
                stack.pop()
            elif id(child) not in visited:
                visited.add(id(child))
                stack.append((child, iter(child.parents)))
        self.nodes = nodes

    def run_backward(self, root: DiffTensor, seed: np.ndarray) -> None:
        """Sweep the nodes in reverse, releasing each interior node after
        its rule has run; the tape is empty afterwards."""
        grads: dict[int, np.ndarray] = {id(root._node): seed}
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            g = grads.pop(id(node), None)
            rule = node.rule
            if rule is None:
                t = node.leaf()
                if g is not None and t is not None:
                    t.grad = np.array(g) if t.grad is None else t.grad + g
                continue
            # the node's record dies with ``rule``, which the next pass rebinds
            node.rule, node.parents = _consumed, ()
            if g is None:
                continue
            for parent, pg in rule(g):
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def constant(values) -> DiffTensor:
    """Leaf tensor excluded from gradient computation; a ``DiffTensor`` is
    returned as it is."""
    return values if isinstance(values, DiffTensor) else DiffTensor(values)


def parameter(values) -> DiffTensor:
    """Leaf tensor that receives gradients."""
    return DiffTensor(values, requires_grad=True)


def _make(data, parents, backward, op: str, check_finite: bool = True) -> DiffTensor:
    """A tensor of ``data``, recorded as ``op`` with rule ``backward`` over
    ``parents``, the inputs' nodes (``None`` for an input no gradient
    reaches), unless no input has a node or recording is off."""
    out = DiffTensor.__new__(DiffTensor)
    out.data = data = np.ascontiguousarray(data, dtype=np.float64)
    out.grad = out._node = None
    if not getattr(_recording, "off", False):
        if check_finite:
            require_finite(data, op)
        live = tuple([p for p in parents if p is not None])
        for p in live:
            if p.rule is _consumed:
                raise ConsumedGraphError(f"{op}: an input is part of a graph backward() consumed")
        if live:
            out._node = _Node(live, backward, op)
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the shape of its source operand."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


@functools.lru_cache(maxsize=1024)  # a forward repeats a few dozen shape pairs
def _check_broadcast(a_shape, b_shape, op: str) -> None:
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a_shape} and {b_shape} do not broadcast") from None


def add(a, b) -> DiffTensor:
    """Elementwise sum with numpy broadcasting."""
    return _add(a, b, "add")


def sub(a, b) -> DiffTensor:
    """Elementwise difference, ``add`` of ``-b``: the same rule, with the
    gradient to ``b`` negated."""
    return _add(a, b, "sub")


def _add(a, b, op: str) -> DiffTensor:
    a, b = constant(a), constant(b)
    _check_broadcast(a.shape, b.shape, op)
    negate = op == "sub"
    a_node, b_node, a_shape, b_shape = a._node, b._node, a.shape, b.shape

    def backward(g):
        out = []
        if a_node is not None:
            out.append((a_node, _sum_to_shape(g, a_shape)))
        if b_node is not None:
            out.append((b_node, _sum_to_shape(-g if negate else g, b_shape)))
        return out

    data = a.data - b.data if negate else a.data + b.data
    return _make(data, (a_node, b_node), backward, op)


def mul(a, b) -> DiffTensor:
    """Elementwise product with numpy broadcasting."""
    a, b = constant(a), constant(b)
    _check_broadcast(a.shape, b.shape, "mul")
    a_node, b_node, a_shape, b_shape = a._node, b._node, a.shape, b.shape
    # each operand is saved only for the other's gradient
    a_data = None if b_node is None else a.data
    b_data = None if a_node is None else b.data

    def backward(g):
        out = []
        if a_node is not None:
            out.append((a_node, _sum_to_shape(g * b_data, a_shape)))
        if b_node is not None:
            out.append((b_node, _sum_to_shape(g * a_data, b_shape)))
        return out

    return _make(a.data * b.data, (a_node, b_node), backward, "mul")


def scale(a, c: float) -> DiffTensor:
    """``a`` times the constant ``c``, as ``mul``."""
    return mul(a, float(c))


def matmul(a, b) -> DiffTensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    a, b = constant(a), constant(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul: operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    _check_broadcast(a.shape[:-2], b.shape[:-2], "matmul")
    a_node, b_node, a_shape, b_shape = a._node, b._node, a.shape, b.shape
    a_data = None if b_node is None else a.data
    b_data = None if a_node is None else b.data

    def backward(g):
        out = []
        if a_node is not None:
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            out.append((a_node, _sum_to_shape(ga, a_shape)))
        if b_node is not None:
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
            out.append((b_node, _sum_to_shape(gb, b_shape)))
        return out

    return _make(np.matmul(a.data, b.data), (a_node, b_node), backward, "matmul")


def affine(x, w, b) -> DiffTensor:
    """Affine map over the last axis: x @ w^T + b for ``w`` of shape (H, K).

    One node with the arithmetic of ``matmul(x, transpose_last(w)) + b``:
    the same contiguous w^T copy in the product and the same gradient
    expressions, so results match the three-node form bit for bit.
    """
    x, w, b = constant(x), constant(w), constant(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"affine: input {x.shape} incompatible with weights {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"affine: bias shape {b.shape}, expected ({w.shape[0]},)")
    wt = np.ascontiguousarray(w.data.T)
    data = np.matmul(x.data, wt)
    data += b.data
    x_node, w_node, b_node = x._node, w._node, b._node
    x_shape, wt_shape, b_shape = x.shape, wt.shape, b.shape
    x_data = None if w_node is None else x.data  # for the weight's gradient
    wt_kept = None if x_node is None else wt  # for the input's

    def backward(g):
        out = []
        if x_node is not None:
            out.append((x_node, _sum_to_shape(np.matmul(g, wt_kept.T), x_shape)))
        if w_node is not None:
            gwt = _sum_to_shape(np.matmul(np.swapaxes(x_data, -1, -2), g), wt_shape)
            out.append((w_node, gwt.T))
        if b_node is not None:
            out.append((b_node, _sum_to_shape(g, b_shape)))
        return out

    return _make(data, (x_node, w_node, b_node), backward, "affine")


def permute(a, axes) -> DiffTensor:
    """Reorder the axes of ``a`` as ``np.transpose(a, axes)`` does."""
    a = constant(a)
    axes = tuple(axes)
    try:
        data = a.data.transpose(axes)
    except ValueError as exc:  # numpy's AxisError is a ValueError too
        raise ShapeError(f"permute: {exc}") from None
    inverse = [0] * a.ndim
    for position, axis in enumerate(axes):
        inverse[axis % a.ndim] = position
    inverse = tuple(inverse)

    a_node = a._node

    def backward(g):
        return [(a_node, np.transpose(g, inverse))]

    return _make(data, (a_node,), backward, "permute", check_finite=False)


def transpose_last(a) -> DiffTensor:
    """Swap the last two axes."""
    a = constant(a)
    if a.ndim < 2:
        raise ShapeError("transpose_last: operand must have at least 2 dimensions")
    return swap_axes(a, -1, -2)


def swap_axes(a, axis1: int, axis2: int) -> DiffTensor:
    a = constant(a)
    axes = list(range(a.ndim))
    axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
    return permute(a, axes)


def reshape(a, shape) -> DiffTensor:
    """Row-major reshape; total element count is preserved."""
    a = constant(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot reshape {a.shape} into {shape}")

    a_node, a_shape = a._node, a.shape

    def backward(g):
        return [(a_node, g.reshape(a_shape))]

    return _make(a.data.reshape(shape), (a_node,), backward, "reshape", check_finite=False)


def broadcast_to(a, shape) -> DiffTensor:
    a = constant(a)
    shape = tuple(int(s) for s in shape)
    _check_broadcast(a.shape, shape, "broadcast_to")

    a_node, a_shape = a._node, a.shape

    def backward(g):
        return [(a_node, _sum_to_shape(g, a_shape))]

    return _make(
        np.broadcast_to(a.data, shape), (a_node,), backward, "broadcast_to", check_finite=False
    )


def slice_tensor(a, idx) -> DiffTensor:
    """Basic indexing (ints, slices, Ellipsis); gradient scatters back."""
    a = constant(a)
    try:
        view = a.data[idx]
    except IndexError as exc:
        raise ShapeError(f"slice: invalid index for shape {a.shape}: {exc}") from None

    a_node, a_shape = a._node, a.shape

    def backward(g):
        full = np.zeros(a_shape)
        full[idx] += g
        return [(a_node, full)]

    return _make(view, (a_node,), backward, "slice", check_finite=False)


def concat(tensors, axis: int = -1) -> DiffTensor:
    """Concatenate along ``axis``; all other dimensions must match."""
    ts = [constant(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: need at least one tensor")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from None
    ax = axis if axis >= 0 else data.ndim + axis
    widths = [t.shape[ax] for t in ts]
    nodes = [t._node for t in ts]

    def backward(g):
        out = []
        offset = 0
        index = [slice(None)] * g.ndim
        for node, w in zip(nodes, widths):
            if node is not None:
                index[ax] = slice(offset, offset + w)
                out.append((node, g[tuple(index)]))
            offset += w
        return out

    return _make(data, nodes, backward, "concat", check_finite=False)


def reduce_sum(a, axis=None, keepdims: bool = False) -> DiffTensor:
    a = constant(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    a_node, a_shape = a._node, a.shape

    def backward(g):
        if axis is None:
            full = np.broadcast_to(g.reshape((1,) * len(a_shape)), a_shape)
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g_exp = g if keepdims else np.expand_dims(g, axes)
            full = np.broadcast_to(g_exp, a_shape)
        return [(a_node, np.ascontiguousarray(full))]

    return _make(data, (a_node,), backward, "reduce_sum")


def _gelu_cdf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), computed in place in that operand order."""
    cdf = np.divide(x, _SQRT2, out=out)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """cdf + x * pdf with pdf = exp(-0.5 * x * x) / sqrt(2 pi), in place in
    that operand order; GELU's derivative, which gradients multiply."""
    d = np.multiply(x, -0.5, out=out)
    d *= x
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= x
    d += cdf
    return d


def gelu(x) -> DiffTensor:
    """Exact Gaussian-error-linear unit, x * Phi(x) with the erf form.

    Uses the exact Gaussian CDF rather than the tanh approximation, so the
    analytic derivative Phi(x) + x * phi(x) matches finite differences to
    full float64 precision.
    """
    x = constant(x)
    x_node, x_data = x._node, x.data
    cdf = _gelu_cdf(x_data)

    def backward(g):
        d = _gelu_slope(x_data, cdf)
        d *= g
        return [(x_node, d)]

    # |gelu(x)| <= |x|, so finite inputs give finite outputs
    return _make(x_data * cdf, (x_node,), backward, "gelu", check_finite=False)


def huber(x) -> DiffTensor:
    """Elementwise smooth-L1 kernel: 0.5 x^2 inside |x| < 1, |x| - 0.5 beyond."""
    x = constant(x)
    x_node, x_data = x._node, x.data
    a = np.abs(x_data)
    data = np.where(a < 1.0, 0.5 * x_data * x_data, a - 0.5)

    def backward(g):
        return [(x_node, g * np.clip(x_data, -1.0, 1.0))]

    return _make(data, (x_node,), backward, "huber")


# A weighted row sum at least this large has its largest live term at or
# above 1e-280 for rows shorter than 1e30, so every term that can change
# the sum in double precision is a normal number.
_FAINT_ROW_SUM = 1e-250


@functools.lru_cache(maxsize=1024)
def _check_fits(w_shape: tuple[int, ...], shape: tuple[int, ...], op: str) -> None:
    """Raise ``ShapeError`` unless ``w_shape`` ends in the score rows of
    ``shape`` and broadcasts to it."""
    if len(shape) < 2 or len(w_shape) < 2:
        raise ShapeError(f"{op}: scores and weights must have >= 2 dimensions")
    if w_shape[-2:] != shape[-2:]:
        raise ShapeError(f"{op}: weights rows {w_shape[-2:]} do not match score rows {shape[-2:]}")
    try:
        if np.broadcast_shapes(w_shape, shape) != shape:
            raise ValueError
    except ValueError:
        raise ShapeError(
            f"{op}: weights shape {w_shape} does not broadcast to scores shape {shape}"
        ) from None


def _owner(a: np.ndarray) -> np.ndarray | None:
    """The array that owns ``a``'s memory when ``a`` and every array it is a
    view of refuse writes, else None."""
    while not a.flags.writeable:
        if a.base is None:
            return a
        if not isinstance(a.base, np.ndarray):
            return None
        a = a.base
    return None


def _weak_record(a: np.ndarray) -> tuple | None:
    """A weak record of ``a`` if its bytes cannot change, else None.

    They cannot while ``a`` and every array it views are read-only and the
    last of them owns its memory, and nobody makes that owner writable
    again. The record is a weak reference to that owner, its id and
    ``a``'s layout; ``_same_owner`` compares two.
    """
    owner = _owner(a)
    if owner is None:
        return None
    layout = (a.dtype.str, a.shape, a.strides, a.__array_interface__["data"][0])
    return (weakref.ref(owner), id(owner)) + layout


def _same_owner(r: tuple | None, s: tuple | None) -> bool:
    """Whether the weak records ``r`` and ``s`` are one live owner's memory
    in one layout; a record whose owner has died matches none."""
    if r is None or s is None or r[1:] != s[1:]:
        return False
    owner = r[0]()
    return owner is not None and owner is s[0]()


def frozen(a) -> np.ndarray:
    """``a`` as a float64 array whose bytes cannot change: ``a`` itself if
    it already is one (see ``_weak_record``), else a read-only copy.
    ``attend`` scans such weights once."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and _owner(a) is not None:
        return a
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _scan_weights(weights: np.ndarray, op: str) -> None:
    """Raise unless every weight lies in [0, 1] and every row has positive weight."""
    if not (np.all(weights >= 0.0) and np.all(weights <= 1.0)):  # NaN fails too
        raise ValueError(f"{op}: weights must lie in [0, 1]")
    row_sums = weights.reshape(-1, weights.shape[-1]).sum(axis=-1)
    if np.any(row_sums <= 0.0):
        bad = int(np.argmax(row_sums <= 0.0))
        raise DegenerateRowError(f"{op}: weight row {bad} sums to zero")


def _check_weights(weights, shape: tuple[int, ...], op: str) -> np.ndarray:
    """Validate a weight array against scores of ``shape``; the weights as
    float64. Weights that match this thread's last scanned read-only
    weights (by ``_weak_record``) skip the scan."""
    weights = np.asarray(weights, dtype=np.float64)
    _check_fits(weights.shape, shape, op)
    record = _weak_record(weights)
    if not _same_owner(record, getattr(_recording, "scanned", None)):
        _scan_weights(weights, op)
        if record is not None:
            _recording.scanned = record
    return weights


def _softmax_rows(
    scores: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The forward of ``masked_softmax`` on checked arrays, into ``out`` or a
    fresh array; ``out`` must not overlap ``scores``."""
    top = scores.max(axis=-1, keepdims=True)
    weighted = np.subtract(scores, top, out=out)
    np.exp(weighted, out=weighted)
    weighted *= weights
    total = weighted.sum(axis=-1, keepdims=True)
    faint = total < _FAINT_ROW_SUM
    if faint.any():
        live_top = np.max(scores, axis=-1, keepdims=True, where=weights > 0.0, initial=-np.inf)
        np.subtract(scores, np.where(faint, live_top, top), out=weighted)
        # zero-weight scores above the live maximum must not overflow exp
        np.minimum(weighted, 0.0, out=weighted)
        np.exp(weighted, out=weighted)
        weighted *= weights
        total = weighted.sum(axis=-1, keepdims=True)
    weighted /= total
    return weighted


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out * (g - sum(g * out)) over the last axis, in place."""
    d = g * out
    inner = d.sum(axis=-1, keepdims=True)
    np.subtract(g, inner, out=d)
    d *= out
    return d


def masked_softmax(scores, weights: np.ndarray) -> DiffTensor:
    """Row-normalized exp(scores) * weights over the last axis.

    ``weights`` is a constant array with entries in [0, 1]; its last two
    axes must match the score rows and any leading axes broadcast against
    the scores. Every weight row must carry positive total weight; entries
    that are exactly 0 force the corresponding outputs to exactly 0. The
    per-row maximum of the scores is subtracted before exponentiation,
    which leaves the result unchanged mathematically but keeps the
    exponentials bounded. A row whose weighted sum then falls below
    ``_FAINT_ROW_SUM`` (a zero-weight score so far above the live ones
    that their exponentials underflow) is shifted by the maximum of its
    positive-weight scores instead, the live-entry normalizer of Milakov &
    Gimelshein (arXiv:1805.02867).
    """
    scores = constant(scores)
    weights = _check_weights(weights, scores.shape, "masked_softmax")
    out_data = _softmax_rows(scores.data, weights)
    scores_node = scores._node

    def backward(g):
        return [(scores_node, _softmax_grad(g, out_data))]

    # every output lies in [0, 1]: no live row sums to less than its largest term
    return _make(out_data, (scores_node,), backward, "masked_softmax", check_finite=False)


# Score bytes per block of ``attend`` (three (N, N) slices at N=207); bounds
# the scores alive at once without a graph and keeps each elementwise pass
# over a block in cache.
_BLOCK_BYTES = 1 << 20


def _score_blocks(lead: tuple[int, ...], slice_bytes: int, block_bytes: int | None = None):
    """Split the leading axes of a score tensor into blocks of whole slices.

    Each block is a run of consecutive slices in row-major order: a range
    on one axis and every index of the axes after it, holding at most
    ``block_bytes`` (by default ``_BLOCK_BYTES``) of scores, or one slice
    when a slice is larger. Returns the leading shape of the largest block
    and, per block, its basic index into ``lead`` and its index into a
    buffer of that shape.
    """
    per_block = max(1, (_BLOCK_BYTES if block_bytes is None else block_bytes) // slice_bytes)
    cut, inner = len(lead), 1
    while cut > 0 and inner * lead[cut - 1] <= per_block:
        cut -= 1
        inner *= lead[cut]
    if cut == 0:
        return lead, [((), ())]
    axis, run = cut - 1, per_block // inner
    blocks = [
        (outer + (slice(r0, min(r0 + run, lead[axis])),), (slice(0, min(run, lead[axis] - r0)),))
        for outer in np.ndindex(*lead[:axis])
        for r0 in range(0, lead[axis], run)
    ]
    return (run,) + lead[cut:], blocks


@functools.lru_cache(maxsize=1024)
def _score_shape(q_shape, k_shape, v_shape, heads, table_shape) -> tuple[int, ...]:
    """The (..., *heads, N, M) score shape of ``attend`` for these operand and table shapes."""
    if min(len(q_shape), len(k_shape), len(v_shape)) < 2:
        raise ShapeError("attend: operands must have at least 2 dimensions")
    if not q_shape[:-2] == k_shape[:-2] == v_shape[:-2]:
        raise ShapeError(f"attend: leading axes of {q_shape}, {k_shape}, {v_shape} differ")
    split, n, (m, width) = math.prod(heads), q_shape[-2], k_shape[-2:]
    if table_shape is not None and (not heads or table_shape[:-1] != (n, m) or n != m):
        raise ShapeError(f"attend: table {table_shape} does not fit {n} rows in heads {heads}")
    pairwise = 0 if table_shape is None else heads[0] * table_shape[-1]
    chained = m == v_shape[-2] and q_shape[-1] == width + pairwise
    if min(heads, default=1) < 1 or width % split or v_shape[-1] % split or not chained:
        raise ShapeError(f"attend: {q_shape}, {k_shape}, {v_shape} do not chain in heads {heads}")
    return q_shape[:-2] + heads + (n, m)


@functools.lru_cache(maxsize=64)
def _head_axes(ndim: int, n_heads: int, keys: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that takes split rows (*lead, N, *heads, H), ``ndim``
    axes in all, to the head layout (*lead, *heads, N, H), or to (*lead,
    *heads, H, N) with ``keys``, and its inverse."""
    d = ndim - n_heads - 2  # the axis of N
    tail = (d + n_heads + 1, d) if keys else (d, d + n_heads + 1)
    axes = (*range(d), *range(d + 1, d + n_heads + 1), *tail)
    return axes, tuple(sorted(range(ndim), key=axes.__getitem__))


def _head_view(a: np.ndarray, heads: tuple[int, ...], keys: bool = False) -> np.ndarray:
    """(..., N, prod(heads) * H) rows as a view in the head layout of ``_head_axes``."""
    split = a.reshape(a.shape[:-1] + heads + (-1,))
    return split.transpose(_head_axes(split.ndim, len(heads), keys)[0])


def _rows(a: np.ndarray, heads: tuple[int, ...], keys: bool = False) -> np.ndarray:
    """``_head_view`` undone: a view where the two layouts agree, a copy otherwise."""
    split = a.transpose(_head_axes(a.ndim, len(heads), keys)[1])
    return split.reshape(split.shape[: a.ndim - len(heads) - 1] + (-1,))


def _attend_blocks(qs, ks, vs, ws, bs, shape, out, slope=None, coef=None, block_bytes=None):
    """The forward of ``attend`` over (..., N, M) scores of ``shape`` into
    ``out``, in blocks of ``_score_blocks(..., block_bytes)``; ``qs``,
    ``ks`` and ``vs`` have its leading axes, and ``ws`` and ``bs`` broadcast
    to it. A recorded call passes ``slope`` and ``coef`` arrays of ``shape``
    to be filled as well."""
    lead = shape[:-2]
    block_lead, blocks = _score_blocks(lead, 8 * shape[-2] * shape[-1], block_bytes)
    block_shape = block_lead + shape[-2:]
    scores, cdf = np.empty(block_shape), np.empty(block_shape)  # reused per block
    recording = coef is not None
    if not recording:  # the coefficients overwrite the raw scores
        coef = scores
    if len(blocks) > 1:  # views over the full leading axes: one index selects a block
        ws = np.broadcast_to(ws, lead + ws.shape[-2:])
        bs = None if bs is None else np.broadcast_to(bs, shape)
    for index, local in blocks:
        s = np.matmul(qs[index], ks[index], out=scores[local])
        if bs is not None:
            s += bs[index]
        c = _gelu_cdf(s, out=cdf[local])
        if recording:
            _gelu_slope(s, c, out=slope[index])
        gelu_out = np.multiply(s, c, out=c)
        a = _softmax_rows(gelu_out, ws[index], out=coef[index if recording else local])
        np.matmul(a, vs[index], out=out[index])


# The least score bytes per unit (see ``attend``) from which a call goes
# unit by unit. A group's attention output then does not depend on the call
# that holds it, as the model's group cache needs: at N=207 a pairwise
# product over twelve groups rounds some entries unlike the product over
# one. Smaller units (14 KiB of scores in N=15 floors) run faster in one call.
_UNIT_FLOOR_BYTES = 64 << 10


def attend(q, k, v, weights: np.ndarray, table=None, heads: tuple[int, ...] = ()) -> DiffTensor:
    """``masked_softmax(gelu(q @ k^T + q_pe . table), weights) @ v`` per head, as one node.

    ``q`` (..., N, H_q), ``k`` (..., M, H') and ``v`` (..., M, H_v) are rows,
    such as affine outputs, with the same leading axes. The head axes of
    shape ``heads`` split the channels of ``k``, ``v`` and the first H' of
    ``q`` in row-major order. The rest of ``q``, given a constant pairwise
    ``table`` (N, N, H_PE) with N = M, is the pairwise queries q_pe: one
    H_PE block per index of the first head axis, shared by the other head
    axes, scoring the pair (i, j) against ``table[i, j]`` with the bank
    product of ``pairwise_scores``. ``weights`` ends in (N, M), broadcasts
    to the (..., *heads, N, M) scores and follows ``masked_softmax``'s rules.
    Returns (..., N, H_v), the heads merged back. The products read one
    contiguous head-layout copy of each operand, forward and backward, as
    ``np.matmul`` over strided views can round otherwise. The scores are
    computed block by block over the flattened leading axes (see
    ``_score_blocks``), so under ``no_grad()`` no whole score tensor is
    made: a call holds two blocks of at most ``_BLOCK_BYTES`` each besides
    its inputs, their copies, the pairwise term and its output. A recorded
    call also fills the two whole arrays its backward pass reads, the GELU
    slope and the coefficients. Values and gradients are bit for bit those
    of the composed pairwise term (``slice``, ``reshape``, ``permute``,
    ``pairwise_scores``), head split (``reshape``, ``permute``), ``matmul``,
    ``add``, ``gelu``, ``masked_softmax``, ``matmul`` and merge.

    A unit is every score slice of one index of the operands' leading axes
    that the weights do not span: in a GLGAT floor, all the matrices and
    heads of one window's time group. A call whose units hold at least
    ``_UNIT_FLOOR_BYTES`` of scores goes unit by unit, recorded or not,
    forming each unit's pairwise term alone and scoring it one (N, M)
    slice at a time, so a unit's output is the same bytes in any call that
    holds the unit's rows with the same weights and table, and the
    composed reference is ``pairwise_scores`` applied unit by unit;
    smaller calls form the term in one product and go block by block.
    """
    q, k, v = constant(q), constant(k), constant(v)
    table = None if table is None else np.ascontiguousarray(table, dtype=np.float64)
    shape = _score_shape(q.shape, k.shape, v.shape, heads, getattr(table, "shape", None))
    lead = shape[:-2]
    weights = _check_weights(weights, shape, "attend")

    width = k.shape[-1]
    q_heads = np.ascontiguousarray(_head_view(q.data[..., :width], heads))
    k_heads = np.ascontiguousarray(_head_view(k.data, heads, keys=True))
    v_heads = np.ascontiguousarray(_head_view(v.data, heads))
    out = np.empty(lead + (shape[-2], v_heads.shape[-1]))
    units = lead[: min(q.ndim - 2, len(shape) - weights.ndim)]  # the pairwise term spans these too
    unit_shape = shape[len(units) :]
    recording = not getattr(_recording, "off", False)
    slope, coef = (np.empty(shape), np.empty(shape)) if recording else (None, None)
    q_pe = mats = pe_heads = pe_shape = None
    if table is not None:  # (..., heads[0], 1, ..., N, N): one term per first head index
        pe_heads = heads[:1] + (1,) * (len(heads) - 1)
        q_pe = _head_view(q.data[..., width:], pe_heads)
        mats = table.transpose(0, 2, 1)
        pe_shape = q_pe.shape[:-1] + (shape[-1],)

    if 8 * math.prod(unit_shape) < _UNIT_FLOOR_BYTES:
        bias = None if table is None else _rowwise(np.ascontiguousarray(q_pe), mats)
        _attend_blocks(q_heads, k_heads, v_heads, weights, bias, shape, out, slope, coef)
    else:
        for u in np.ndindex(*units):
            bias = None if table is None else _rowwise(np.ascontiguousarray(q_pe[u]), mats)
            operands = q_heads[u], k_heads[u], v_heads[u]
            unit = (None, None) if slope is None else (slope[u], coef[u])
            # one (N, M) slice per block: it measured faster here than blocks of a MiB
            _attend_blocks(*operands, weights, bias, unit_shape, out[u], *unit, block_bytes=0)

    q_node, k_node, v_node = q._node, k._node, v._node

    def backward(g):
        g = _head_view(g, heads)
        grads = []
        if v_node is not None:
            gv = np.matmul(np.swapaxes(coef, -1, -2), g)
            grads.append((v_node, _rows(gv, heads)))
        g = _softmax_grad(np.matmul(g, np.swapaxes(v_heads, -1, -2)), coef)
        g *= slope
        if q_node is not None:
            gq = _rows(np.matmul(g, np.swapaxes(k_heads, -1, -2)), heads)
            if table is not None:
                g_pe = _rowwise(_sum_to_shape(g, pe_shape), table)
                gq = np.concatenate([gq, _rows(g_pe, pe_heads)], axis=-1)
                gq += 0.0  # -0.0 to 0.0, as the composed slices' zero-filled gradients summed
            grads.append((q_node, gq))
        if k_node is not None:
            gk = np.matmul(np.swapaxes(q_heads, -1, -2), g)
            grads.append((k_node, _rows(gk, heads, keys=True)))
        return grads

    # parents in the order the composed graph reaches them, so the tape
    # accumulates shared gradients in the same order
    return _make(_rows(out, heads), (q_node, k_node, v_node), backward, "attend")


def _rowwise(a: np.ndarray, mats: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out[..., i, :] = a[..., i, :] @ mats[i] for (..., N, D) ``a`` and
    (N, D, H) ``mats``: one matmul batched over the row axis, which keeps the
    bank product on BLAS, written straight into the (..., N, H) layout of
    ``out``, a contiguous array or a fresh one."""
    n, _, h = mats.shape
    out = np.empty(a.shape[:-1] + (h,)) if out is None else out
    rows = a.reshape(-1, n, a.shape[-1]).transpose(1, 0, 2)  # (n, b, d)
    np.matmul(rows, mats, out=out.reshape(-1, n, h).transpose(1, 0, 2))
    return out


def bank_apply(bank, x) -> DiffTensor:
    """Per-row matrix bank product: out[..., n, :] = bank[n] @ x[..., n, :].

    ``bank`` has shape (N, H, D) and ``x`` has shape (..., N, D); the result
    is (..., N, H). Semantically identical to N independent (H, D) matrices,
    one owned by each row.
    """
    bank = constant(bank)
    if bank.ndim != 3:
        raise ShapeError("bank_apply: bank must have shape (N, H, D)")
    return _bank_product(bank.data, x, "bank_apply", bank._node)


def pairwise_scores(q, table: np.ndarray) -> DiffTensor:
    """Row-query dot products against a constant pairwise table.

    out[..., i, j] = q[..., i, :] . table[i, j, :] for ``q`` of shape
    (..., N, H) and ``table`` of shape (N, N, H): the bank product with
    ``table`` as a constant bank, row i applying its own (N, H) matrix.
    The table is taken as it is, without ``constant``'s finiteness scan.
    ``attend`` computes this term itself; this op is its reference.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.ndim != 3 or table.shape[0] != table.shape[1]:
        raise ShapeError("pairwise_scores: table must have shape (N, N, H)")
    return _bank_product(table, q, "pairwise_scores")


def _bank_product(bank: np.ndarray, x, op: str, bank_node: _Node | None = None) -> DiffTensor:
    """``bank_apply`` with a checked (N, H, D) bank array, whose node is
    ``bank_node`` (none for a constant bank), recorded as ``op``."""
    x = constant(x)
    n, h, d = bank.shape
    if x.ndim < 2 or x.shape[-2:] != (n, d):
        raise ShapeError(f"{op}: input shape {x.shape} incompatible with {bank.shape}")
    x_node = x._node
    # for the bank's gradient, (n, b, d); the bank itself for the input's
    xf_kept = None if bank_node is None else x.data.reshape(-1, n, d).transpose(1, 0, 2)
    bank_kept = None if x_node is None else bank

    def backward(g):
        out = []
        if bank_node is not None:
            gb = np.matmul(g.reshape(-1, n, h).transpose(1, 2, 0), xf_kept)  # (n, h, d)
            out.append((bank_node, np.ascontiguousarray(gb)))
        if x_node is not None:
            out.append((x_node, _rowwise(g, bank_kept)))
        return out

    return _make(_rowwise(x.data, bank.transpose(0, 2, 1)), (bank_node, x_node), backward, op)
