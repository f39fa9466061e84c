"""Graph attention layers.

Two variants share one vocabulary: ``gat_forward`` is the plain masked
single-matrix attention; ``glgat_forward`` extends it with a stack of
weighting matrices, per-matrix heads, a pairwise-encoding score term, and
a query path that mixes one shared ("global") projection with a per-vertex
("local") projection bank before compression.

Both accept inputs with arbitrary leading batch axes, (..., N, K); all
graph-level objects (adjacency, pairwise table, encodings) are fixed per
layer. A layer's parameters are a plain ``{name: DiffTensor}`` dict whose
names and shapes ``gat_shapes`` and ``glgat_shapes`` declare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass(frozen=True)
class LayerDims:
    """Width bookkeeping for the multi-adjacency layer.

    ``h`` is the per-head channel count, ``h_adj`` the number of weighting
    matrices, ``h_head`` the heads per matrix, and ``h_pe`` the pairwise
    encoding width (0 disables the geometry score term). The attention
    output width is h * h_adj * h_head and the query projection adds
    h_adj * h_pe channels for the encoding queries.
    """

    h: int
    h_adj: int
    h_head: int
    h_pe: int

    def __post_init__(self):
        if min(self.h, self.h_adj, self.h_head) < 1 or self.h_pe < 0:
            raise ValueError(f"invalid layer dims {self}")

    @property
    def h_prime(self) -> int:
        return self.h * self.h_adj * self.h_head

    @property
    def h_q(self) -> int:
        return self.h_prime + self.h_adj * self.h_pe


def gat_shapes(k_in: int, k_out: int, h: int, h_e: int) -> dict[str, tuple[int, ...]]:
    """The parameters of a ``gat_forward`` layer, name to shape, in the order
    ``init_gat_layer`` draws them: H-channel queries and keys over the input
    and its H_E-channel encoding, values over the input, and a K'-channel
    output map."""
    f = k_in + h_e
    return dict(
        w_q=(h, f), b_q=(h,), w_k=(h, f), b_k=(h,),
        w_v=(h, k_in), b_v=(h,), w_ff=(k_out, h), b_ff=(k_out,),
    )


def glgat_shapes(
    dims: LayerDims, n: int, k_in: int, k_out: int, h_e: int
) -> dict[str, tuple[int, ...]]:
    """The parameters of a ``glgat_forward`` layer over ``n`` vertices, name
    to shape, in the order ``init_glgat_layer`` draws them: the global query
    projection, the local bank (vertex i's (H_Q, K + H_E) matrix in row i),
    the query compression, then keys, values and the output map."""
    f = k_in + h_e
    hp, hq = dims.h_prime, dims.h_q
    return dict(
        w_q_global=(hq, f), b_q_global=(hq,), w_q_local=(n, hq, f), b_q_local=(n, hq),
        w_q_compress=(hq, 2 * hq), b_q_compress=(hq,), w_k=(hp, f), b_k=(hp,),
        w_v=(hp, k_in), b_v=(hp,), w_ff=(k_out, hp), b_ff=(k_out,),
    )


def _glorot(shapes: dict[str, tuple[int, ...]], seed: int) -> dict[str, ad.DiffTensor]:
    """Glorot-uniform ``w_*`` weights over their last two axes and zero
    ``b_*`` biases, drawn in the order of ``shapes``."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in shapes.items():
        if name.startswith("b_"):
            out[name] = ad.parameter(np.zeros(shape))
        else:
            limit = math.sqrt(6.0 / (shape[-1] + shape[-2]))
            out[name] = ad.parameter(rng.uniform(-limit, limit, size=shape))
    return out


def init_gat_layer(
    k_in: int, k_out: int, h: int, h_e: int, seed: int
) -> dict[str, ad.DiffTensor]:
    """Glorot-uniform weights, zero biases, deterministic under seed."""
    if min(k_in, k_out, h) < 1 or h_e < 0:
        raise ValueError("invalid layer sizes")
    return _glorot(gat_shapes(k_in, k_out, h, h_e), seed)


def init_glgat_layer(
    dims: LayerDims, n: int, k_in: int, k_out: int, h_e: int, seed: int
) -> dict[str, ad.DiffTensor]:
    """Glorot-uniform weights with the local query bank damped by 1/2.

    The damping keeps the shared global path dominant early in training;
    each vertex's bank row still gets independent draws.
    """
    if n < 1 or min(k_in, k_out) < 1 or h_e < 0:
        raise ValueError("invalid layer sizes")
    params = _glorot(glgat_shapes(dims, n, k_in, k_out, h_e), seed)
    params["w_q_local"].data *= 0.5
    return params


def _with_encoding(x: ad.DiffTensor, enc: ad.DiffTensor | None) -> ad.DiffTensor:
    if enc is None or enc.shape[-1] == 0:
        return x
    if x.ndim > 2:
        enc = ad.broadcast_to(enc, x.shape[:-2] + enc.shape)
    return ad.concat([x, enc], axis=-1)


def gat_forward(
    params: dict[str, ad.DiffTensor],
    x_in: ad.DiffTensor,
    enc: ad.DiffTensor | None,
    adj: np.ndarray,
) -> ad.DiffTensor:
    """Masked single-matrix attention over (..., N, K) inputs.

    Queries and keys see the input concatenated with the vertex encoding;
    values see the input alone. Scores pass through GELU and a weighted
    softmax where ``adj`` entries in [0, 1] scale each neighbor's share
    (a 0/1 matrix reproduces hard masking). Output is an affine map of the
    attention-mixed values, shape (..., N, K').
    """
    xe = _with_encoding(x_in, enc)
    q = ad.affine(xe, params["w_q"], params["b_q"])
    k = ad.affine(xe, params["w_k"], params["b_k"])
    v = ad.affine(x_in, params["w_v"], params["b_v"])
    return ad.affine(ad.attend(q, k, v, adj), params["w_ff"], params["b_ff"])


def glgat_forward(
    params: dict[str, ad.DiffTensor],
    dims: LayerDims,
    x_in: ad.DiffTensor,
    enc: ad.DiffTensor | None,
    adjs: np.ndarray,
    pe: np.ndarray | None,
) -> ad.DiffTensor:
    """Multi-adjacency global-local attention over (..., N, K) inputs.

    Computation per vertex i: a shared projection and vertex i's own row of
    the local bank each map x_i (+ encoding) to query space; their
    concatenation is compressed back to H_Q channels by shared weights. The
    first H' query channels dot against keys per (matrix n, head m); the
    remaining H_adj*H_PE channels dot against the static pairwise encoding
    of the pair (i, j), one H_PE block per matrix. GELU'd scores are
    softmax-normalized with A_n[i, j] as multiplicative weight, mix the
    values, and the flattened heads pass through the output affine map.
    ``dims`` says how the parameters' H' channels split into heads.
    Returns (..., N, K').
    """
    n = x_in.shape[-2]
    if adjs.shape != (dims.h_adj, n, n):
        raise ad.ShapeError(
            f"expected {dims.h_adj} adjacency matrices of size {n}, got {adjs.shape}"
        )
    if params["w_q_local"].shape[0] != n:
        raise ad.ShapeError(
            f"layer is bound to {params['w_q_local'].shape[0]} vertices, input has {n}"
        )

    xe = _with_encoding(x_in, enc)
    q_global = ad.affine(xe, params["w_q_global"], params["b_q_global"])
    q_local = ad.bank_apply(params["w_q_local"], xe) + params["b_q_local"]
    q = ad.affine(
        ad.concat([q_global, q_local], axis=-1), params["w_q_compress"], params["b_q_compress"]
    )

    k = ad.affine(xe, params["w_k"], params["b_k"])
    v = ad.affine(x_in, params["w_v"], params["b_v"])

    # q's first H' channels split like k and v, H_head heads per matrix; its
    # H_adj * H_PE pairwise channels score against pe, one block per matrix
    weights = adjs.reshape(dims.h_adj, 1, n, n)
    hidden = ad.attend(q, k, v, weights, pe, heads=(dims.h_adj, dims.h_head))  # (..., N, H')
    return ad.affine(hidden, params["w_ff"], params["b_ff"])
