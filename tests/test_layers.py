"""Attention layers vs scalar-loop oracles, plus structural invariants."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from glgat import autodiff as ad
from glgat.encoding import init_vertex_encoding
from glgat.gradcheck import check_gradients
from glgat.layers import (
    LayerDims,
    gat_forward,
    glgat_forward,
    init_gat_layer,
    init_glgat_layer,
)

from oracles import gat_attention_scalar, glgat_forward_scalar, with_coefficients

DIMS = LayerDims(h=4, h_adj=2, h_head=2, h_pe=10)


def random_instance(rng, n=6, k_in=3, k_out=5, h_e=8, dims=DIMS, seed=0):
    params = init_glgat_layer(dims, n, k_in, k_out, h_e, seed=seed)
    x = ad.constant(rng.standard_normal((n, k_in)))
    enc = ad.constant(init_vertex_encoding(n, h_e, seed=seed + 1)) if h_e else None
    adjs = random_adjacency(rng, n, dims.h_adj)
    pe = random_pe(rng, n, dims.h_pe) if dims.h_pe else None
    return params, x, enc, adjs, pe


def random_adjacency(rng, n, h_adj):
    mats = []
    for _ in range(h_adj):
        m = rng.uniform(0.0, 1.0, (n, n))
        m[rng.uniform(size=(n, n)) < 0.35] = 0.0
        np.fill_diagonal(m, 1.0)
        mats.append(m)
    return np.stack(mats)


def random_pe(rng, n, h_pe):
    return rng.uniform(0.0, 1.0, (n, n, h_pe))


def to_arrays(params):
    return {k: t.data for k, t in params.items()}


# ------------------------------------------------------------- baseline


def test_gat_single_vertex_is_affine_of_value_path():
    params = init_gat_layer(k_in=3, k_out=2, h=4, h_e=0, seed=1)
    x = np.array([[0.3, -1.2, 0.8]])
    out, coef = with_coefficients(gat_forward, params, ad.constant(x), None, np.ones((1, 1)))
    assert coef.data.item() == 1.0
    w_ff, b_ff, w_v, b_v = (params[key].data for key in ("w_ff", "b_ff", "w_v", "b_v"))
    expected = w_ff @ (w_v @ x[0] + b_v) + b_ff
    np.testing.assert_allclose(out.data[0], expected, atol=1e-14)


def test_gat_zero_keys_give_uniform_coefficients():
    params = init_gat_layer(k_in=3, k_out=2, h=4, h_e=0, seed=2)
    params["w_k"].data[:] = 0.0
    params["b_k"].data[:] = 0.0
    x = ad.constant(np.random.default_rng(0).standard_normal((5, 3)))
    _, coef = with_coefficients(gat_forward, params, x, None, np.ones((5, 5)))
    np.testing.assert_allclose(coef.data, np.full((5, 5), 0.2), atol=1e-15)


def test_gat_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for trial in range(5):
        params = init_gat_layer(k_in=3, k_out=4, h=6, h_e=8, seed=10 + trial)
        n = 5
        x = rng.standard_normal((n, 3))
        enc = init_vertex_encoding(n, 8, seed=trial)
        adj = (rng.uniform(size=(n, n)) > 0.4).astype(float)
        np.fill_diagonal(adj, 1.0)
        out, coef = with_coefficients(
            gat_forward, params, ad.constant(x), ad.constant(enc), adj
        )
        ref_out, ref_coef = gat_attention_scalar(
            x, enc, adj,
            params["w_q"].data, params["b_q"].data,
            params["w_k"].data, params["b_k"].data,
            params["w_v"].data, params["b_v"].data,
            params["w_ff"].data, params["b_ff"].data,
        )
        np.testing.assert_allclose(coef.data, ref_coef, atol=1e-12, rtol=0)
        np.testing.assert_allclose(out.data, ref_out, atol=1e-12, rtol=0)


def test_gat_fractional_weights_scale_shares():
    params = init_gat_layer(k_in=2, k_out=2, h=3, h_e=0, seed=4)
    adj = np.array([[1.0, 0.5], [0.0, 1.0]])
    x = ad.constant(np.random.default_rng(1).standard_normal((2, 2)))
    _, coef = with_coefficients(gat_forward, params, x, None, adj)
    assert coef.data[1, 0] == 0.0 and coef.data[1, 1] == 1.0
    np.testing.assert_allclose(coef.data.sum(axis=1), 1.0, atol=1e-12)


def test_gat_degenerate_row_raises():
    params = init_gat_layer(k_in=2, k_out=2, h=3, h_e=0, seed=5)
    adj = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ad.DegenerateRowError):
        gat_forward(params, ad.constant(np.zeros((2, 2))), None, adj)


# ---------------------------------------------------------- dimensions


def test_dims_arithmetic():
    dims = LayerDims(h=8, h_adj=2, h_head=4, h_pe=10)
    assert dims.h_prime == 64
    assert dims.h_q == 84
    params = init_glgat_layer(dims, n=3, k_in=5, k_out=7, h_e=8, seed=0)
    f = 5 + 8
    assert params["w_q_global"].shape == (84, f)
    assert params["w_q_local"].shape == (3, 84, f)
    assert params["b_q_local"].shape == (3, 84)
    assert params["w_q_compress"].shape == (84, 168)
    assert params["w_k"].shape == (64, f)
    assert params["w_v"].shape == (64, 5)
    assert params["w_ff"].shape == (7, 64)
    assert params["b_ff"].shape == (7,)


def test_dims_validation():
    with pytest.raises(ValueError):
        LayerDims(h=0, h_adj=1, h_head=1, h_pe=10)
    with pytest.raises(ValueError):
        LayerDims(h=4, h_adj=1, h_head=1, h_pe=-1)
    LayerDims(h=4, h_adj=1, h_head=1, h_pe=0)  # pe-free is allowed


def test_parameter_count_closed_form():
    n, k_in, k_out, h_e = 207, 16, 16, 8
    dims = LayerDims(h=8, h_adj=2, h_head=4, h_pe=10)
    params = init_glgat_layer(dims, n, k_in, k_out, h_e, seed=0)
    f = k_in + h_e
    hp, hq = 64, 84
    expected = (
        hq * f + hq  # global query
        + n * hq * f + n * hq  # local bank
        + hq * (2 * hq) + hq  # compression
        + hp * f + hp  # keys
        + hp * k_in + hp  # values
        + k_out * hp + k_out  # output map
    )
    assert sum(t.size for t in params.values()) == expected


def test_init_deterministic():
    a = init_glgat_layer(DIMS, n=4, k_in=3, k_out=3, h_e=8, seed=9)
    b = init_glgat_layer(DIMS, n=4, k_in=3, k_out=3, h_e=8, seed=9)
    for k in a:
        assert a[k].data.tobytes() == b[k].data.tobytes()
    c = init_glgat_layer(DIMS, n=4, k_in=3, k_out=3, h_e=8, seed=10)
    assert a["w_q_global"].data.tobytes() != c["w_q_global"].data.tobytes()


# ------------------------------------------------------------ multi-adj


def test_glgat_matches_scalar_oracle():
    rng = np.random.default_rng(20)
    params, x, enc, adjs, pe = random_instance(rng)
    out, coef = with_coefficients(glgat_forward, params, DIMS, x, enc, adjs, pe)
    ref_out, ref_scores, ref_coef = glgat_forward_scalar(
        x.data, enc.data, adjs, pe, to_arrays(params), (4, 2, 2, 10)
    )
    # package layout is (h_adj, h_head, row, col); oracle is [i, n, m, j]
    got_coef = np.transpose(coef.data, (2, 0, 1, 3))
    np.testing.assert_allclose(got_coef, ref_coef, atol=1e-12, rtol=0)
    np.testing.assert_allclose(out.data, ref_out, atol=1e-12, rtol=0)


def test_glgat_matches_oracle_without_vertex_encoding():
    rng = np.random.default_rng(21)
    params, x, _, adjs, pe = random_instance(rng, h_e=0, seed=4)
    out, coef = with_coefficients(glgat_forward, params, DIMS, x, None, adjs, pe)
    ref_out, _, ref_coef = glgat_forward_scalar(
        x.data, None, adjs, pe, to_arrays(params), (4, 2, 2, 10)
    )
    np.testing.assert_allclose(np.transpose(coef.data, (2, 0, 1, 3)), ref_coef, atol=1e-12)
    np.testing.assert_allclose(out.data, ref_out, atol=1e-12)


def test_glgat_pe_free_dims():
    rng = np.random.default_rng(22)
    dims = LayerDims(h=4, h_adj=2, h_head=2, h_pe=0)
    params, x, enc, adjs, _ = random_instance(rng, dims=dims, seed=6)
    out, coef = with_coefficients(glgat_forward, params, dims, x, enc, adjs, None)
    ref_out, _, ref_coef = glgat_forward_scalar(
        x.data, enc.data, adjs, None, to_arrays(params), (4, 2, 2, 0)
    )
    np.testing.assert_allclose(np.transpose(coef.data, (2, 0, 1, 3)), ref_coef, atol=1e-12)
    np.testing.assert_allclose(out.data, ref_out, atol=1e-12)


def test_glgat_rows_sum_to_one_and_respect_zeros():
    rng = np.random.default_rng(23)
    for trial in range(10):
        params, x, enc, adjs, pe = random_instance(rng, seed=30 + trial)
        _, coef = with_coefficients(glgat_forward, params, DIMS, x, enc, adjs, pe)
        np.testing.assert_allclose(coef.data.sum(axis=-1), 1.0, atol=1e-12, rtol=0)
        for a in range(2):
            zero_at = adjs[a] == 0.0
            assert np.all(coef.data[a, :, zero_at] == 0.0)


def test_glgat_single_vertex_ignores_local_bank():
    rng = np.random.default_rng(24)
    params, x, enc, _, pe = random_instance(rng, n=1, seed=8)
    adjs = np.ones((2, 1, 1))
    out1, coef = with_coefficients(glgat_forward, params, DIMS, x, enc, adjs, pe[:1, :1])
    assert np.all(coef.data == 1.0)
    params["w_q_local"].data[:] = rng.standard_normal(params["w_q_local"].shape)
    out2 = glgat_forward(params, DIMS, x, enc, adjs, pe[:1, :1])
    assert out1.data.tobytes() == out2.data.tobytes()


def test_glgat_reduces_to_gat():
    rng = np.random.default_rng(25)
    for trial in range(5):
        h, k_in, k_out, h_e, n = 6, 3, 4, 8, 5
        gat = init_gat_layer(k_in, k_out, h, h_e, seed=40 + trial)
        dims = LayerDims(h=h, h_adj=1, h_head=1, h_pe=10)
        big = init_glgat_layer(dims, n, k_in, k_out, h_e, seed=90 + trial)
        wire_reduction(big, gat, dims)

        x = rng.standard_normal((n, k_in))
        enc = init_vertex_encoding(n, h_e, seed=trial)
        adj = (rng.uniform(size=(n, n)) > 0.4).astype(float)
        np.fill_diagonal(adj, 1.0)
        pe = random_pe(rng, n, 10)

        a = gat_forward(gat, ad.constant(x), ad.constant(enc), adj)
        b = glgat_forward(big, dims, ad.constant(x), ad.constant(enc), adj[None], pe)
        np.testing.assert_allclose(b.data, a.data, atol=1e-12, rtol=0)


def wire_reduction(big: dict, gat: dict, dims: LayerDims):
    """Configure the multi-adjacency layer to compute exactly the baseline.

    One matrix, one head; the compression passes the global query through
    untouched and drops the local one; the encoding-query rows are zeroed so
    the pairwise term vanishes.
    """
    hq = dims.h_q
    big["w_q_global"].data[:] = 0.0
    big["w_q_global"].data[: dims.h, :] = gat["w_q"].data
    big["b_q_global"].data[:] = 0.0
    big["b_q_global"].data[: dims.h] = gat["b_q"].data
    big["w_q_compress"].data[:] = np.concatenate([np.eye(hq), np.zeros((hq, hq))], axis=1)
    big["b_q_compress"].data[:] = 0.0
    big["w_k"].data[:] = gat["w_k"].data
    big["b_k"].data[:] = gat["b_k"].data
    big["w_v"].data[:] = gat["w_v"].data
    big["b_v"].data[:] = gat["b_v"].data
    big["w_ff"].data[:] = gat["w_ff"].data
    big["b_ff"].data[:] = gat["b_ff"].data


def test_glgat_permutation_consistency():
    rng = np.random.default_rng(26)
    n = 8
    params, x, enc, adjs, pe = random_instance(rng, n=n, seed=50)
    out = glgat_forward(params, DIMS, x, enc, adjs, pe)

    perm = rng.permutation(n)
    params_p = init_glgat_layer(DIMS, n, 3, 5, 8, seed=50)
    for key, t in params_p.items():
        t.data[:] = params[key].data
    params_p["w_q_local"].data[:] = params["w_q_local"].data[perm]
    params_p["b_q_local"].data[:] = params["b_q_local"].data[perm]
    out_p = glgat_forward(
        params_p,
        DIMS,
        ad.constant(x.data[perm]),
        ad.constant(enc.data[perm]),
        adjs[:, perm][:, :, perm],
        pe[perm][:, perm],
    )
    np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-10, rtol=0)


def test_local_bank_perturbation_only_touches_own_row():
    rng = np.random.default_rng(27)
    params, x, enc, adjs, pe = random_instance(rng, seed=60)
    _, coef_before = with_coefficients(glgat_forward, params, DIMS, x, enc, adjs, pe)
    target = 2
    params["w_q_local"].data[target] += rng.standard_normal(params["w_q_local"].shape[1:])
    params["b_q_local"].data[target] += 0.3
    _, coef_after = with_coefficients(glgat_forward, params, DIMS, x, enc, adjs, pe)
    for i in range(6):
        same = coef_before.data[:, :, i, :].tobytes() == coef_after.data[:, :, i, :].tobytes()
        assert same == (i != target)


def test_glgat_batched_input_matches_per_sample(monkeypatch):
    # several score blocks per call; the batch is the row count of the
    # bank_apply and pairwise_scores products, which round differently
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 3 * 8 * 6 * 6)
    rng = np.random.default_rng(28)
    params, _, enc, adjs, pe = random_instance(rng, seed=70)
    xs = rng.standard_normal((3, 7, 6, 3))  # two leading batch axes
    for mode in (contextlib.nullcontext, ad.no_grad):
        with mode():
            batched = glgat_forward(params, DIMS, ad.constant(xs), enc, adjs, pe)
            for a in range(3):
                for b in range(7):
                    single = glgat_forward(params, DIMS, ad.constant(xs[a, b]), enc, adjs, pe)
                    np.testing.assert_allclose(batched.data[a, b], single.data, atol=1e-12, rtol=0)


def test_gat_batched_input_matches_per_sample(monkeypatch):
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * 8 * 4 * 4)  # three score blocks
    rng = np.random.default_rng(29)
    params = init_gat_layer(k_in=3, k_out=4, h=5, h_e=0, seed=80)
    adj = random_adjacency(rng, 4, 1)[0]
    xs = rng.standard_normal((6, 4, 3))
    for mode in (contextlib.nullcontext, ad.no_grad):
        with mode():
            batched = gat_forward(params, ad.constant(xs), None, adj)
            for s in range(6):
                single = gat_forward(params, ad.constant(xs[s]), None, adj)
                assert single.data.tobytes() == batched.data[s].tobytes()


def test_no_grad_glgat_peaks_below_one_score_tensor():
    # tracemalloc sees numpy's buffers; the blocked attention holds a few
    # blocks of scores, never a whole (12, H_adj, H_head, N, N) tensor
    dims = LayerDims(h=2, h_adj=2, h_head=4, h_pe=10)
    n = 96
    rng = np.random.default_rng(31)
    params, _, enc, adjs, pe = random_instance(rng, n=n, k_in=3, k_out=4, h_e=4, dims=dims, seed=5)
    x = ad.constant(rng.standard_normal((12, n, 3)))
    score_bytes = 8 * 12 * dims.h_adj * dims.h_head * n * n
    tracemalloc.start()
    try:
        with ad.no_grad():
            glgat_forward(params, dims, x, enc, adjs, pe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < score_bytes, f"peak {peak} bytes, one score tensor {score_bytes}"


def test_glgat_shape_validation():
    rng = np.random.default_rng(30)
    params, x, enc, adjs, pe = random_instance(rng, seed=90)
    with pytest.raises(ad.ShapeError):
        glgat_forward(params, DIMS, x, enc, adjs[:1], pe)  # wrong matrix count
    with pytest.raises(ad.ShapeError):
        glgat_forward(params, DIMS, x, enc, adjs, pe[:, :, :4])  # wrong pe width
    with pytest.raises(ad.ShapeError):
        glgat_forward(params, DIMS, ad.constant(x.data[:4]), enc, adjs, pe)  # wrong N
    # tables of the input's N, but a local bank built for 6 vertices
    small = (ad.constant(x.data[:4]), ad.constant(enc.data[:4]), adjs[:, :4, :4], pe[:4, :4])
    with pytest.raises(ad.ShapeError, match="bound to 6 vertices, input has 4"):
        glgat_forward(params, DIMS, *small)


# ------------------------------------------------------------ gradients


def test_glgat_parameter_gradients():
    rng = np.random.default_rng(32)
    params, x, _, adjs, pe = random_instance(rng, seed=99)
    enc = ad.parameter(init_vertex_encoding(6, 8, seed=100))
    sel = rng.standard_normal((6, 5))

    def loss():
        out = glgat_forward(params, DIMS, x, enc, adjs, pe)
        return ad.reduce_sum(out * ad.constant(sel))

    tensors = dict(params)
    tensors["enc"] = enc
    report = check_gradients(
        loss, tensors, h=1e-5, rel_tol=1e-4, abs_tol=1e-6, small=1e-3,
        max_entries_per_tensor=25, rng=rng,
    )
    assert report.passed, report.summary()


def test_gat_parameter_gradients():
    rng = np.random.default_rng(33)
    params = init_gat_layer(k_in=3, k_out=4, h=5, h_e=6, seed=101)
    x = ad.constant(rng.standard_normal((5, 3)))
    enc = ad.parameter(init_vertex_encoding(5, 6, seed=102))
    adj = np.ones((5, 5))
    sel = rng.standard_normal((5, 4))

    def loss():
        return ad.reduce_sum(gat_forward(params, x, enc, adj) * ad.constant(sel))

    tensors = dict(params)
    tensors["enc"] = enc
    report = check_gradients(
        loss, tensors, h=1e-5, rel_tol=1e-4, abs_tol=1e-6, small=1e-3,
        max_entries_per_tensor=30, rng=rng,
    )
    assert report.passed, report.summary()
