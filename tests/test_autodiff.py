"""Tensor engine tests: values against hand-computed or independently
derived oracles, gradients against central differences."""

import ast
import contextlib
import importlib.util
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from glgat import autodiff as ad
from glgat.gradcheck import check_gradients
from oracles import masked_softmax_scalar

H = 1e-5
REL = 1e-6
ABS = 1e-4


def fd_check(fn, tensors, **kw):
    report = check_gradients(fn, tensors, h=H, rel_tol=REL, abs_tol=ABS, **kw)
    assert report.passed, report.summary() + "".join(
        f"\n  {f.tensor}{f.index}: analytic={f.analytic:.6e} numeric={f.numeric:.6e}"
        for f in report.failures[:5]
    )


def rand_param(rng, *shape):
    return ad.parameter(rng.standard_normal(shape))


# ---------------------------------------------------------------- values


def test_add_values():
    out = ad.add(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_matmul_values():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    b = ad.constant([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_operator_sugar_matches_functions():
    rng = np.random.default_rng(0)
    x = ad.parameter(rng.standard_normal((3, 4)))
    y = ad.parameter(rng.standard_normal((3, 4)))
    assert np.array_equal((x + y).data, ad.add(x, y).data)
    assert np.array_equal((x - y).data, ad.sub(x, y).data)
    assert np.array_equal((x * y).data, ad.mul(x, y).data)
    assert np.array_equal((-x).data, -x.data)
    assert np.array_equal((2.0 * x).data, ad.mul(2.0, x).data)


def test_gelu_values_against_normal_cdf():
    # independent oracle: x * norm.cdf(x) via scipy.stats, not our erf form
    xs = np.array([-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0])
    expected = xs * norm.cdf(xs)
    got = ad.gelu(ad.constant(xs)).data
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
    assert got[3] == 0.0


def test_reduce_sum_axes():
    x = ad.constant(np.arange(24.0).reshape(2, 3, 4))
    assert ad.reduce_sum(x).item() == 276.0
    assert ad.reduce_sum(x, axis=1).shape == (2, 4)
    assert ad.reduce_sum(x, axis=(0, 2), keepdims=True).shape == (1, 3, 1)
    np.testing.assert_array_equal(
        ad.reduce_sum(x, axis=-1).data, x.data.sum(axis=-1)
    )


def test_concat_and_slice_round_trip():
    rng = np.random.default_rng(1)
    a = ad.constant(rng.standard_normal((2, 3)))
    b = ad.constant(rng.standard_normal((2, 5)))
    cat = ad.concat([a, b], axis=-1)
    assert cat.shape == (2, 8)
    assert np.array_equal(cat[:, :3].data, a.data)
    assert np.array_equal(cat[:, 3:].data, b.data)


def test_bank_apply_matches_per_row_matmul():
    rng = np.random.default_rng(2)
    bank = rng.standard_normal((4, 5, 3))
    x = rng.standard_normal((7, 4, 3))
    out = ad.bank_apply(ad.constant(bank), ad.constant(x)).data
    for s in range(7):
        for n in range(4):
            np.testing.assert_allclose(out[s, n], bank[n] @ x[s, n], atol=1e-14)


def test_pairwise_scores_matches_loop():
    rng = np.random.default_rng(3)
    table = rng.standard_normal((5, 5, 6))
    q = rng.standard_normal((5, 6))
    out = ad.pairwise_scores(ad.constant(q), table).data
    for i in range(5):
        for j in range(5):
            assert abs(out[i, j] - q[i] @ table[i, j]) < 1e-14


# ------------------------------------------------------- masked softmax


def naive_weighted_softmax(scores, weights):
    """Scalar-loop oracle, no max shift: exp(e)w / sum_k exp(e)w."""
    out = np.zeros_like(scores)
    lead = scores.shape[:-2]
    n, m = scores.shape[-2:]
    for pre in np.ndindex(*lead) if lead else [()]:
        for i in range(n):
            denom = 0.0
            for k in range(m):
                denom += np.exp(scores[pre + (i, k)]) * weights[i, k]
            for j in range(m):
                out[pre + (i, j)] = np.exp(scores[pre + (i, j)]) * weights[i, j] / denom
    return out


def test_masked_softmax_matches_naive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        scores = rng.standard_normal((3, 6, 6)) * 3.0
        weights = rng.uniform(0.0, 1.0, (6, 6))
        weights[rng.uniform(size=(6, 6)) < 0.3] = 0.0
        np.fill_diagonal(weights, 1.0)
        got = ad.masked_softmax(ad.constant(scores), weights).data
        np.testing.assert_allclose(got, naive_weighted_softmax(scores, weights), atol=1e-12)


def test_masked_softmax_rows_sum_to_one_and_respect_zeros():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((4, 5, 5)) * 50.0  # large: exercises max shift
    weights = rng.uniform(0.0, 1.0, (5, 5))
    weights[0, 1:] = 0.0  # row with only the diagonal surviving
    np.fill_diagonal(weights, 1.0)
    out = ad.masked_softmax(ad.constant(scores), weights).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(out[:, 0, 1:] == 0.0)
    assert np.all(out[:, 0, 0] == 1.0)


def test_masked_softmax_ignores_a_zero_weight_score_far_above_the_row():
    rng = np.random.default_rng(8)
    scores = rng.standard_normal((2, 4, 6))
    weights = rng.uniform(0.1, 1.0, (4, 6))
    weights[:, 1] = 0.0
    # exp(-1000) underflows a shift by the full row max; exp(-730) is subnormal
    scores[..., 1] = scores.max() + np.array([1000.0, 730.0])[:, None]
    out = ad.masked_softmax(ad.constant(scores), weights).data
    assert np.all(np.isfinite(out))
    for pre in np.ndindex(*out.shape[:-1]):
        expected = masked_softmax_scalar(scores[pre], weights[pre[1:]])
        np.testing.assert_allclose(out[pre], expected, rtol=1e-13, atol=0.0)
    assert np.all(out[..., 1] == 0.0)


def test_masked_softmax_rejects_degenerate_row():
    weights = np.ones((3, 3))
    weights[1] = 0.0
    with pytest.raises(ad.DegenerateRowError, match="row 1"):
        ad.masked_softmax(ad.constant(np.zeros((3, 3))), weights)


def test_masked_softmax_rejects_out_of_range_weights():
    with pytest.raises(ValueError):
        ad.masked_softmax(ad.constant(np.zeros((2, 2))), np.full((2, 2), 1.5))


def test_masked_softmax_rejects_nan_weights():
    weights = np.ones((2, 2))
    weights[0, 1] = np.nan
    with pytest.raises(ValueError):
        ad.masked_softmax(ad.constant(np.zeros((2, 2))), weights)


def _grads_after_backward(out, tensors, seed):
    for t in tensors:
        t.zero_grad()
    out.backward(seed)
    return [t.grad.tobytes() for t in tensors]


def test_affine_matches_matmul_transpose_add_bit_for_bit():
    rng = np.random.default_rng(4)
    x = rand_param(rng, 2, 3, 4, 5)
    w = rand_param(rng, 6, 5)
    b = rand_param(rng, 6)
    seed = rng.standard_normal((2, 3, 4, 6))
    fused = ad.affine(x, w, b)
    composed = ad.matmul(x, ad.transpose_last(w)) + b
    assert fused.data.tobytes() == composed.data.tobytes()
    assert _grads_after_backward(fused, (x, w, b), seed) == _grads_after_backward(
        composed, (x, w, b), seed
    )
    with pytest.raises(ad.ShapeError):
        ad.affine(x, w, rand_param(rng, 5))


BROADCAST_PAIRS = [((3, 4), (3, 4)), ((2, 3, 4), (4,)), ((3, 1), (2, 1, 5)), ((1,), (2, 3))]


@pytest.mark.parametrize("a_shape,b_shape", BROADCAST_PAIRS)
def test_sub_matches_add_of_the_negation_bit_for_bit(a_shape, b_shape):
    rng = np.random.default_rng(6)
    a, b = rand_param(rng, *a_shape), rand_param(rng, *b_shape)
    out, ref = ad.sub(a, b), ad.add(a, -b)
    assert out.data.tobytes() == ref.data.tobytes()
    seed = rng.standard_normal(out.shape)
    assert _grads_after_backward(out, (a, b), seed) == _grads_after_backward(ref, (a, b), seed)


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4)])
def test_scale_matches_mul_by_a_constant_bit_for_bit(shape):
    rng = np.random.default_rng(7)
    a = rand_param(rng, *shape)
    out, ref = ad.scale(a, -2.5), ad.mul(a, ad.constant(np.full(shape, -2.5)))
    assert out.data.tobytes() == ref.data.tobytes()
    seed = rng.standard_normal(shape)
    assert _grads_after_backward(out, (a,), seed) == _grads_after_backward(ref, (a,), seed)


@pytest.mark.parametrize("n,lead", [(6, ()), (6, (2, 3)), (15, ()), (15, (4, 2))])
def test_pairwise_scores_is_the_bank_product_bit_for_bit(n, lead):
    rng = np.random.default_rng(8)
    table = rng.standard_normal((n, n, 10))
    q = rand_param(rng, *lead, n, 10)
    out, ref = ad.pairwise_scores(q, table), ad.bank_apply(ad.constant(table), q)
    assert out.data.tobytes() == ref.data.tobytes()
    seed = rng.standard_normal(out.shape)
    assert _grads_after_backward(out, (q,), seed) == _grads_after_backward(ref, (q,), seed)


def _as_rows(a: np.ndarray, n_heads: int, keys: bool = False) -> np.ndarray:
    """A head-layout array, (..., *heads, N, H) or with ``keys`` (..., *heads,
    H, N), as the (..., N, prod(heads) * H) rows that attend() takes."""
    if keys:
        a = np.swapaxes(a, -1, -2)
    d = a.ndim - n_heads - 2
    rows = np.moveaxis(a, -2, d)  # (..., N, *heads, H)
    return rows.reshape(rows.shape[: d + 1] + (-1,))


def _split_heads(t, heads, keys=False):
    """(..., N, prod(heads) * H) rows in the contiguous head layout, through
    the reshape and permute nodes a floor recorded before attend() took
    rows."""
    d, n = t.ndim - 2, len(heads)
    r = ad.reshape(t, t.shape[:-1] + heads + (t.shape[-1] // math.prod(heads),))
    tail = (d + n + 1, d) if keys else (d, d + n + 1)
    return ad.permute(r, (*range(d), *range(d + 1, d + n + 1), *tail))


def _composed_attend(q, k, v, weights, table=None, heads=()):
    """attend() as separate ops: the pairwise term as a floor composed it
    (slice, reshape, permute, pairwise_scores), the head split (a slice of a
    wider query, reshape, permute), matmul, add, gelu, masked_softmax,
    matmul, and the merge (permute, reshape)."""
    bias = None
    if table is not None:
        pe_heads = heads[:1] + (1,) * (len(heads) - 1)
        bias = ad.pairwise_scores(_split_heads(q[..., k.shape[-1] :], pe_heads), table)
    if q.shape[-1] > k.shape[-1]:
        q = q[..., : k.shape[-1]]
    scores = ad.matmul(_split_heads(q, heads), _split_heads(k, heads, keys=True))
    if bias is not None:
        scores = scores + bias
    out = ad.matmul(ad.masked_softmax(ad.gelu(scores), weights), _split_heads(v, heads))
    d, n = out.ndim - len(heads) - 2, len(heads)
    merged = ad.permute(out, (*range(d), d + n, *range(d, d + n), d + n + 1))
    return ad.reshape(merged, merged.shape[: d + 1] + (v.shape[-1],))


def _floor_operands(rng, batch=3, h_adj=2, h_head=4, n=6, h=3, h_v=5, h_pe=4):
    """attend() operands laid out as in a GLGAT floor: (batch, N, channels)
    rows of H_adj * H_head heads of ``h`` query and key channels and ``h_v``
    value channels, the query followed by H_adj blocks of ``h_pe`` pairwise
    channels, weights shared by the batch and the heads, the (N, N, h_pe)
    pairwise table (``None`` for ``h_pe=0``), and the heads."""
    lead = (batch, h_adj, h_head)
    q = _as_rows(rng.standard_normal((*lead, n, h)), 2)
    k = ad.parameter(_as_rows(rng.standard_normal((*lead, h, n)), 2, keys=True))
    v = ad.parameter(_as_rows(rng.standard_normal((*lead, n, h_v)), 2))
    q_pe = rng.standard_normal((batch, n, h_adj * h_pe))
    table = rng.standard_normal((n, n, h_pe)) if h_pe else None
    weights = rng.uniform(0.0, 1.0, (h_adj, 1, n, n))
    weights[rng.uniform(size=weights.shape) < 0.3] = 0.0
    weights[..., 0] = 1.0
    q = ad.parameter(np.concatenate([q, q_pe], axis=-1))
    return q, k, v, weights, table, (h_adj, h_head)


def _assert_attend_matches_composed(rng, q, k, v, weights, table=None, heads=()):
    tensors = (q, k, v)
    fused = ad.attend(q, k, v, weights, table, heads)
    composed = _composed_attend(q, k, v, weights, table, heads)
    assert fused.data.tobytes() == composed.data.tobytes()
    seed = rng.standard_normal(fused.shape)
    assert _grads_after_backward(fused, tensors, seed) == _grads_after_backward(
        composed, tensors, seed
    )
    with ad.no_grad():
        plain = ad.attend(q, k, v, weights, table, heads)
    assert plain.data.tobytes() == composed.data.tobytes()


def test_attend_matches_composed_ops_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(5)
    with_table = _floor_operands(rng)
    q, k, v, weights, _, heads = _floor_operands(rng, h_pe=0)
    plain = (q, k, v, weights[0, 0], None, heads)  # the single-matrix layer: no table
    slice_bytes = 8 * 6 * 6
    # runs of 3 and 1 slices on the head axis: 12 blocks; then one block
    assert len(ad._score_blocks((3, 2, 4), slice_bytes)[1]) == 1
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 3 * slice_bytes)
    assert len(ad._score_blocks((3, 2, 4), slice_bytes)[1]) == 12
    _assert_attend_matches_composed(rng, *with_table)
    _assert_attend_matches_composed(rng, *plain)
    monkeypatch.undo()
    _assert_attend_matches_composed(rng, *with_table)
    _assert_attend_matches_composed(rng, *plain)


def test_attend_faint_row_in_one_block_matches_composed_ops(monkeypatch):
    # the F1 fallback runs for the one block that holds the faint row: three
    # heads per matrix make each block one window's one matrix
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 3 * 8 * 6 * 6)
    rng = np.random.default_rng(9)
    q, k, v, weights, table, heads = _floor_operands(rng, h_head=3)
    assert len(ad._score_blocks((3, 2, 3), 8 * 6 * 6)[1]) == 6
    weights[1, 0, 2, 4] = 0.0
    q.data[:, 2, 18:] = 0.0  # row 2 has no pairwise term but window 1's for matrix 1
    q.data[1, 2, 22:] = 1.0
    table[2, 4] = 300.0  # 1200 on that zero-weight score, far above the live ones
    _assert_attend_matches_composed(rng, q, k, v, weights, table, heads)
    assert np.all(np.isfinite(ad.attend(q, k, v, weights, table, heads).data))


def test_attend_batched_matches_per_window_bit_for_bit(monkeypatch):
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 3 * 8 * 6 * 6)
    rng = np.random.default_rng(11)
    *operands, heads = _floor_operands(rng)
    q, k, v, weights, table = (t if isinstance(t, np.ndarray) else t.data for t in operands)
    for mode in (contextlib.nullcontext, ad.no_grad):
        with mode():
            batched = ad.attend(q, k, v, weights, table, heads).data
            for b in range(3):
                single = ad.attend(q[b], k[b], v[b], weights, table, heads).data
                assert single.tobytes() == batched[b].tobytes()


def test_attend_products_read_contiguous_head_copies():
    """``np.matmul`` over a strided head view of the keys can round
    differently from a contiguous copy: with numpy 2.4.6 and OpenBLAS
    0.3.31 at h=2, it does for N from 196 up whenever N mod 8 is 4 to 7,
    and N=207 is one of those. The fused call still gives the bits of the
    composed ops on contiguous head layouts, values and gradients, recorded
    and under no_grad()."""
    rng = np.random.default_rng(14)
    operands = _floor_operands(rng, batch=1, h_adj=2, h_head=2, n=207, h=2, h_v=2)
    _assert_attend_matches_composed(rng, *operands)


def test_attend_reads_the_pairwise_queries_after_the_first_channels():
    """A GLGAT query carries its pairwise channels after the attention
    ones. Without a table attend() refuses them; with an all-zero table it
    gives the bytes of the attention channels alone, and the pairwise
    channels the zero gradient of the composed slices' zero fill, with no
    negative zeros."""
    rng = np.random.default_rng(13)
    q, k, v, weights, table, heads = _floor_operands(rng)
    with pytest.raises(ad.ShapeError, match="chain"):
        ad.attend(q, k, v, weights, None, heads)
    zero = np.zeros_like(table)
    out = ad.attend(q, k, v, weights, zero, heads)
    narrow = ad.attend(ad.constant(q.data[..., :24]), k, v, weights, None, heads)
    assert out.data.tobytes() == narrow.data.tobytes()
    _assert_attend_matches_composed(rng, q, k, v, weights, zero, heads)
    assert np.signbit(q.grad[..., 24:]).sum() == 0 and not q.grad[..., 24:].any()


@pytest.mark.parametrize("mode", [contextlib.nullcontext, ad.no_grad], ids=["recorded", "no_grad"])
def test_attend_rejects_a_table_that_does_not_fit(mode):
    """The table must have the query's N on both axes, H_PE channels for
    each of the query's H_adj pairwise blocks, and head axes to share."""
    rng = np.random.default_rng(15)
    q, k, v, weights, table, heads = _floor_operands(rng)
    with mode():
        with pytest.raises(ad.ShapeError, match="does not fit"):
            ad.attend(q, k, v, weights, table[:5, :5], heads)  # N = 5 for 6 rows
        with pytest.raises(ad.ShapeError, match="does not fit"):
            ad.attend(q, k, v, weights, table[:, :5], heads)
        with pytest.raises(ad.ShapeError, match="does not fit"):
            ad.attend(q, k, v, weights, table[..., 0], heads)  # no channel axis
        with pytest.raises(ad.ShapeError, match="chain"):
            ad.attend(q, k, v, weights, table[..., :3], heads)  # 2 * 3 for 8 channels
        with pytest.raises(ad.ShapeError, match="chain"):
            ad.attend(q, k, v, weights, np.concatenate([table, table], -1), heads)
        # a single-matrix layer's rows and one pairwise block: no head axis to share it
        gat = (q.data[..., :8], k.data[..., :4], v.data, weights[0, 0], table)
        with pytest.raises(ad.ShapeError, match="does not fit"):
            ad.attend(*gat, heads=())
        ad.attend(*gat, heads=(1,))  # one head: the block is that head's


def test_attend_reports_a_non_finite_table():
    """A NaN in the table reaches every score of its row: a recorded call
    raises NonFiniteError, and so does ``predict``, which scans the
    forecasts of its unrecorded calls."""
    from glgat.model import GlgatModel, model_forward
    from glgat.training import predict
    from test_model import pipeline

    rng = np.random.default_rng(16)
    q, k, v, weights, table, heads = _floor_operands(rng)
    table[3, 1, 2] = np.nan
    with pytest.raises(ad.NonFiniteError, match="attend"):
        ad.attend(q, k, v, weights, table, heads)
    with ad.no_grad():
        assert np.isnan(ad.attend(q, k, v, weights, table, heads).data[:, 3]).all()
    _, _, _, splits, model = pipeline()
    pe = model.pe.copy()
    pe[2, 0, 1] = np.nan
    model = GlgatModel(model.config, model.stats, model.adj, pe, model.params)
    with pytest.raises(ad.NonFiniteError, match="attend"):
        model_forward(model, splits.train[:2].inputs())
    with pytest.raises(ad.NonFiniteError, match="predict"):
        predict(model, splits.test[:2])


@pytest.mark.parametrize("mode", [contextlib.nullcontext, ad.no_grad], ids=["recorded", "no_grad"])
def test_attend_rejects_bad_weights(mode):
    rng = np.random.default_rng(12)
    q, k_t, v = rand_param(rng, 2, 4, 3), rand_param(rng, 2, 3, 4), rand_param(rng, 2, 4, 2)
    k = ad.parameter(np.swapaxes(k_t.data, -1, -2))
    nan = np.ones((4, 4))
    nan[2, 3] = np.nan
    zero_row = np.ones((4, 4))
    zero_row[1] = 0.0
    with mode():
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            ad.attend(q, k, v, np.full((4, 4), 1.5))
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            ad.attend(q, k, v, nan)
        with pytest.raises(ad.DegenerateRowError, match="row 1"):
            ad.attend(q, k, v, zero_row)
        with pytest.raises(ad.ShapeError):
            ad.attend(q, k, v, np.ones((4, 4)), np.zeros((4, 3, 1)), heads=(1,))
        with pytest.raises(ad.ShapeError, match="chain"):
            ad.attend(q, k_t, v, np.ones((4, 4)))  # keys in the transposed layout
        with pytest.raises(ad.ShapeError, match="chain"):
            ad.attend(v, k, v, np.ones((4, 4)))  # 2 query channels for 3 key channels
        with pytest.raises(ad.ShapeError, match="chain"):
            ad.attend(q, k, v, np.ones((4, 4)), heads=(2,))  # 3 key channels in 2 heads
        with pytest.raises(ad.ShapeError, match="differ"):
            ad.attend(q, k, v[0], np.ones((4, 4)))


def test_permute_matches_numpy_transpose():
    rng = np.random.default_rng(6)
    x = ad.constant(rng.standard_normal((2, 3, 4, 5)))
    axes = (2, 0, 3, 1)
    y = ad.permute(x, axes)
    assert np.array_equal(y.data, np.transpose(x.data, axes))
    assert y.data.flags.c_contiguous
    with pytest.raises(ad.ShapeError):
        ad.permute(x, (0, 0, 1, 2))


def test_non_finite_leaf_is_caught_by_the_next_arithmetic_op():
    # rearranging ops skip the scan; the first op that computes reports it
    x = ad.parameter(np.ones((2, 3)))
    x.data[0, 1] = np.nan
    y = ad.swap_axes(ad.reshape(x, (3, 2)), 0, 1)
    with pytest.raises(ad.NonFiniteError, match="mul"):
        ad.mul(y, 2.0)


def test_no_grad_records_nothing_and_matches_recorded_values():
    rng = np.random.default_rng(7)
    x = rand_param(rng, 3, 4)
    w = rand_param(rng, 2, 4)
    b = rand_param(rng, 2)
    recorded = ad.reduce_sum(ad.gelu(ad.affine(x, w, b)))
    with ad.no_grad():
        plain = ad.reduce_sum(ad.gelu(ad.affine(x, w, b)))
        with ad.no_grad():
            pass
        after_nested = ad.add(x, x)
    assert plain.data.tobytes() == recorded.data.tobytes()
    assert not plain.requires_grad and plain._node is None
    assert not after_nested.requires_grad
    assert ad.add(x, x).requires_grad  # recording resumes after the block


def test_no_grad_skips_the_scan_and_require_finite_reports():
    big = ad.constant(np.full(3, 1e308))
    with np.errstate(over="ignore"), ad.no_grad():
        out = ad.add(big, big)
    with pytest.raises(ad.NonFiniteError, match="kept"):
        ad.require_finite(out.data, "kept")


def test_check_gradients_rejects_a_non_finite_perturbed_value():
    x = ad.parameter(np.array([1.0]))
    calls = []

    def fn():  # finite for the analytic pass, overflowing afterwards
        calls.append(None)
        factor = 1.0 if len(calls) == 1 else 1e308
        return ad.reduce_sum(ad.scale(x * x, factor) * ad.constant([10.0]))

    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="gradcheck"):
        check_gradients(fn, {"x": x})


@pytest.mark.parametrize("entries", [0, -1])
def test_check_gradients_rejects_fewer_than_one_entry_per_tensor(entries):
    x = ad.parameter(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="max_entries_per_tensor must be at least 1"):
        check_gradients(
            lambda: ad.reduce_sum(x * x), {"x": x},
            max_entries_per_tensor=entries, rng=np.random.default_rng(0),
        )


REFUSED_CHECKS = {
    "a tensor without gradients": (
        lambda x: ({"x": x, "c": ad.constant([1.0])}, lambda: ad.reduce_sum(x * x), {}),
        "'c' must require gradients",
    ),
    "a non-scalar fn": (lambda x: ({"x": x}, lambda: x * x, {}), "fn must return a scalar"),
    "sampling without an rng": (
        lambda x: ({"x": x}, lambda: ad.reduce_sum(x * x), {"max_entries_per_tensor": 1}),
        "sampling requires an rng",
    ),
}


@pytest.mark.parametrize("case, message", REFUSED_CHECKS.values(), ids=REFUSED_CHECKS.keys())
def test_check_gradients_refuses_what_it_cannot_check(case, message):
    tensors, fn, kw = case(ad.parameter(np.array([1.0, 2.0])))
    with pytest.raises(ValueError, match=message):
        check_gradients(fn, tensors, **kw)


# ------------------------------------------------------------ gradients


def test_grad_add_sub_mul_broadcast():
    rng = np.random.default_rng(10)
    a = rand_param(rng, 3, 4)
    b = rand_param(rng, 4)
    c = rand_param(rng, 3, 1)
    fd_check(lambda: ad.reduce_sum(ad.mul(ad.add(a, b), ad.sub(a, c))), {"a": a, "b": b, "c": c})


def test_grad_scale_and_neg():
    rng = np.random.default_rng(11)
    x = rand_param(rng, 5)
    fd_check(lambda: ad.reduce_sum(ad.scale(x, -2.5) * x), {"x": x})


def test_grad_matmul_batched():
    rng = np.random.default_rng(12)
    a = rand_param(rng, 2, 3, 4)
    b = rand_param(rng, 4, 5)  # broadcasts over the leading batch axis
    fd_check(lambda: ad.reduce_sum(ad.matmul(a, b)), {"a": a, "b": b})


def test_grad_matmul_weighted_output():
    rng = np.random.default_rng(13)
    a = rand_param(rng, 3, 3)
    b = rand_param(rng, 3, 2)
    w = ad.constant(rng.standard_normal((3, 2)))
    fd_check(lambda: ad.reduce_sum(ad.matmul(a, b) * w), {"a": a, "b": b})


def test_grad_transpose_swap_reshape():
    rng = np.random.default_rng(14)
    x = rand_param(rng, 2, 3, 4)

    def loss():
        y = ad.transpose_last(x)
        z = ad.swap_axes(y, 0, 1)
        return ad.reduce_sum(ad.mul(ad.reshape(z, (24,)), ad.reshape(z, (24,))))

    fd_check(loss, {"x": x})


def test_grad_slice_scatter():
    rng = np.random.default_rng(15)
    x = rand_param(rng, 4, 6)

    def loss():
        a = x[1:3, ::2]
        b = x[0]
        return ad.reduce_sum(a * a) + ad.reduce_sum(b * b)

    fd_check(loss, {"x": x})


def test_grad_concat():
    rng = np.random.default_rng(16)
    a = rand_param(rng, 2, 3)
    b = rand_param(rng, 2, 4)
    w = ad.constant(rng.standard_normal((2, 7)))
    fd_check(lambda: ad.reduce_sum(ad.concat([a, b], axis=-1) * w), {"a": a, "b": b})


def test_grad_reduce_sum_keepdims():
    rng = np.random.default_rng(17)
    x = rand_param(rng, 3, 4)
    fd_check(
        lambda: ad.reduce_sum(x * ad.reduce_sum(x, axis=1, keepdims=True)),
        {"x": x},
    )


def test_grad_broadcast_to():
    rng = np.random.default_rng(18)
    x = rand_param(rng, 1, 4)
    w = ad.constant(np.random.default_rng(0).standard_normal((3, 4)))
    fd_check(lambda: ad.reduce_sum(ad.broadcast_to(x, (3, 4)) * w), {"x": x})


def test_grad_gelu():
    rng = np.random.default_rng(19)
    x = rand_param(rng, 40)
    fd_check(lambda: ad.reduce_sum(ad.gelu(x)), {"x": x})


def test_grad_masked_softmax():
    rng = np.random.default_rng(20)
    scores = rand_param(rng, 2, 5, 5)
    weights = rng.uniform(0.2, 1.0, (5, 5))
    weights[rng.uniform(size=(5, 5)) < 0.25] = 0.0
    np.fill_diagonal(weights, 1.0)
    sel = ad.constant(rng.standard_normal((2, 5, 5)))
    fd_check(
        lambda: ad.reduce_sum(ad.masked_softmax(scores, weights) * sel),
        {"scores": scores},
    )


def test_grad_affine():
    rng = np.random.default_rng(23)
    x = rand_param(rng, 3, 4, 5)
    w = rand_param(rng, 2, 5)
    b = rand_param(rng, 2)
    sel = ad.constant(rng.standard_normal((3, 4, 2)))
    fd_check(lambda: ad.reduce_sum(ad.affine(x, w, b) * sel), {"x": x, "w": w, "b": b})


def test_grad_permute():
    rng = np.random.default_rng(24)
    x = rand_param(rng, 2, 3, 4)
    sel = ad.constant(rng.standard_normal((4, 2, 3)))
    fd_check(lambda: ad.reduce_sum(ad.permute(x, (2, 0, 1)) * sel), {"x": x})


def test_grad_attend(monkeypatch):
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 3 * 8 * 5 * 5)  # two blocks
    rng = np.random.default_rng(25)
    q = _as_rows(rng.standard_normal((2, 3, 5, 3)), 1)
    k = ad.parameter(_as_rows(rng.standard_normal((2, 3, 3, 5)), 1, keys=True))
    v = ad.parameter(_as_rows(rng.standard_normal((2, 3, 5, 4)), 1))
    q = ad.parameter(np.concatenate([q, rng.standard_normal((2, 5, 3 * 2))], axis=-1))
    table = rng.standard_normal((5, 5, 2))  # one 2-channel pairwise block per head
    weights = rng.uniform(0.2, 1.0, (5, 5))
    weights[rng.uniform(size=(5, 5)) < 0.25] = 0.0
    np.fill_diagonal(weights, 1.0)
    sel = ad.constant(_as_rows(rng.standard_normal((2, 3, 5, 4)), 1))
    fd_check(
        lambda: ad.reduce_sum(ad.attend(q, k, v, weights, table, heads=(3,)) * sel),
        {"q": q, "k": k, "v": v},
    )


def test_grad_bank_apply():
    rng = np.random.default_rng(21)
    bank = rand_param(rng, 3, 4, 2)
    x = rand_param(rng, 5, 3, 2)
    fd_check(lambda: ad.reduce_sum(ad.gelu(ad.bank_apply(bank, x))), {"bank": bank, "x": x})


def test_grad_pairwise_scores():
    rng = np.random.default_rng(22)
    q = rand_param(rng, 4, 3)
    table = rng.standard_normal((4, 4, 3))
    fd_check(lambda: ad.reduce_sum(ad.gelu(ad.pairwise_scores(q, table))), {"q": q})


def test_grad_shared_node_accumulates():
    # y = x*x + x  =>  dy/dx = 2x + 1, checked exactly
    x = ad.parameter([1.5, -2.0, 0.25])
    y = ad.reduce_sum(x * x + x)
    y.backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0, atol=1e-15)


def test_grad_accumulates_across_backward_calls():
    x = ad.parameter([2.0])
    ad.reduce_sum(x * x).backward()
    first = x.grad.copy()
    ad.reduce_sum(x * x).backward()
    np.testing.assert_array_equal(x.grad, 2.0 * first)
    x.zero_grad()
    assert x.grad is None


def test_backward_seed():
    x = ad.parameter(np.ones((2, 2)))
    y = 3.0 * x
    y.backward(seed=np.full((2, 2), 2.0))
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 6.0))
    with pytest.raises(ad.ShapeError):
        (3.0 * x).backward(seed=np.ones(3))
    with pytest.raises(ad.ShapeError):
        (3.0 * x).backward()  # non-scalar needs a seed


# --------------------------------------------------------- determinism


def build_mixed_graph(x, w):
    h = ad.gelu(ad.matmul(x, w))
    s = ad.masked_softmax(ad.matmul(h, ad.transpose_last(h)), np.ones((4, 4)))
    return ad.reduce_sum(ad.matmul(s, h) * h)


def test_backward_replay_is_bit_identical():
    rng = np.random.default_rng(30)
    xv = rng.standard_normal((4, 3))
    wv = rng.standard_normal((3, 3))

    grads = []
    for _ in range(3):
        x = ad.parameter(xv.copy())
        w = ad.parameter(wv.copy())
        build_mixed_graph(x, w).backward()
        grads.append((x.grad.tobytes(), w.grad.tobytes()))
    assert grads[0] == grads[1] == grads[2]


def test_tape_visits_each_node_once():
    x = ad.parameter([1.0, 2.0])
    y = x * x
    z = y + y  # diamond: y reachable twice
    out = ad.reduce_sum(z * y)
    tape = ad.Tape(out)
    ids = [id(n) for n in tape.nodes]
    assert len(ids) == len(set(ids))
    # inputs precede consumers
    pos = {i: k for k, i in enumerate(ids)}
    for node in tape.nodes:
        for p in node.parents:
            assert pos[id(p)] < pos[id(node)]


def test_constants_pruned_from_tape():
    x = ad.parameter([1.0])
    c = ad.constant([5.0])
    out = ad.reduce_sum(x * c + c)
    tape = ad.Tape(out)
    assert c._node is None and all(n.leaf is None or n.leaf() is not c for n in tape.nodes)
    out.backward()
    np.testing.assert_array_equal(x.grad, [5.0])
    assert c.grad is None


def test_backward_consumes_its_graph():
    x = ad.parameter([1.0, 2.0])
    y = x * x
    loss = ad.reduce_sum(y)
    other = ad.reduce_sum(y * 3.0)  # recorded before the backward, shares y
    loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    with pytest.raises(ad.ConsumedGraphError):
        loss.backward()
    with pytest.raises(ad.ConsumedGraphError):
        y + 1.0  # a new op on an interior node of the consumed graph
    with pytest.raises(ad.ConsumedGraphError):
        other.backward()  # reaches y, which must not pass for a leaf
    assert y.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    ad.reduce_sum(x * x).backward()  # leaves stay live; gradients accumulate
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])


def test_recorded_attend_holds_two_score_tensors():
    """What a recorded call keeps for its backward pass: the GELU slope and
    the coefficients, not the raw scores, their CDF or the pairwise term.
    Given a floor's rows, it also keeps one head-layout copy of each
    operand."""
    rng = np.random.default_rng(44)
    q, k, v, weights, table, heads = _floor_operands(rng, batch=4, h_adj=2, h_head=2, n=48)
    score_bytes = 8 * 4 * 2 * 2 * 48 * 48  # one whole (4, 2, 2, 48, 48) tensor
    copies = q.data.nbytes + k.data.nbytes + v.data.nbytes
    attention = q[..., : k.shape[-1]]
    split = [_split_heads(t, heads) for t in (attention, k, v)]  # every head a leading row
    for operands, extra in (((*split, None), 0), ((q, k, v, table, heads), copies)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.attend(*operands[:3], weights, *operands[3:])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 2 * score_bytes + out.data.nbytes + extra + 64 * 1024
        del out


def test_a_value_no_rule_reads_dies_with_its_tensor():
    """An ``affine`` output that only a ``concat`` reads is freed once the
    caller drops it: the graph keeps nodes, and ``concat`` saves no value."""
    rng = np.random.default_rng(45)
    values = [rng.standard_normal(shape) for shape in ((3, 4), (2, 4), (2,), (3, 5), (3, 7))]

    def step(drop: bool):
        x, w, b, other = (ad.parameter(v) for v in values[:4])
        h = ad.affine(x, w, b)
        alive = weakref.ref(h.data)
        loss = ad.reduce_sum(ad.concat([h, other]) * ad.constant(values[4]))
        if drop:
            del h
        freed = alive() is None
        loss.backward()
        return freed, [t.grad.tobytes() for t in (x, w, b, other)]

    freed, grads = step(drop=True)
    assert freed
    assert grads == step(drop=False)[1]


def _recorded_acceptance_loss():
    """A recorded loss at the acceptance config (N=15, batch 32, ``full``),
    and the bytes that its graph holds and that its forward peaked at,
    above what was allocated before."""
    from glgat.model import model_forward
    from glgat.training import batch_smooth_l1, stack_inputs, stack_targets
    from test_model import pipeline

    _, _, _, splits, model = pipeline(n=15, t=600, seed=0, h_deep=4, h_pe=10)
    batch = splits.train[:32]
    inputs, (targets, masks) = stack_inputs(batch), stack_targets(batch)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = batch_smooth_l1(model_forward(model, inputs), targets, masks)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return loss, held, peak


def test_recorded_acceptance_loss_keeps_only_what_backward_reads():
    """A recorded loss at the acceptance config (N=15, batch 32) holds the
    arrays its rules save: about 24 MiB, against 47 MiB when every value of
    the forward stayed alive with the graph."""
    loss, held, _ = _recorded_acceptance_loss()
    assert loss.requires_grad
    assert held <= 27 << 20, f"recorded loss holds {held / 2**20:.1f} MiB"


def test_recorded_acceptance_forward_peaks_at_most_4_mib_above_what_it_holds():
    """``attend`` makes the pairwise queries' copy and the pairwise term
    itself and drops them when it returns. Built outside it as graph nodes,
    they stayed alive next to the floor's rows and ``attend``'s head copies:
    the forward peaked 4.4 MiB above the 24.2 MiB its graph holds, against
    3.5 MiB with the term inside."""
    _, held, peak = _recorded_acceptance_loss()
    over = (peak - held) / 2**20
    assert over <= 4.0, f"peak {peak / 2**20:.2f} MiB, {over:.2f} MiB above what is held"


# ---------------------------------------------------------- attend's units


def _group_sequence(rng, groups, n=48):
    """attend() operands of a GLGAT floor for ``groups`` consecutive time
    groups: (group, N, channels) rows of heads (H_adj=2, H_head=2), the
    query followed by two blocks of 4 pairwise channels, weights shared by
    the groups and heads, the (N, N, 4) pairwise table, and the heads. The
    weights and the table are read-only, as a model's are. A unit, every
    slice of one group, holds 4 * 48 * 48 * 8 bytes (72 KiB) of scores."""
    q = _as_rows(rng.standard_normal((groups, 2, 2, n, 3)), 2)
    k = _as_rows(rng.standard_normal((groups, 2, 2, 3, n)), 2, keys=True)
    v = _as_rows(rng.standard_normal((groups, 2, 2, n, 5)), 2)
    q = np.concatenate([q, rng.standard_normal((groups, n, 2 * 4))], axis=-1)
    table = rng.standard_normal((n, n, 4))
    weights = rng.uniform(0.0, 1.0, (2, 1, n, n))
    weights[rng.uniform(size=weights.shape) < 0.3] = 0.0
    weights[..., 0] = 1.0
    assert 8 * 4 * n * n >= ad._UNIT_FLOOR_BYTES
    return q, k, v, _read_only(weights), _read_only(table), (2, 2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _window(operands, start, width):
    q, k, v, weights, table, heads = operands
    span = slice(start, start + width)
    return q[span], k[span], v[span], weights, table, heads


def _unrecorded(*operands):
    with ad.no_grad():
        return ad.attend(*operands).data


@pytest.fixture
def computed_units(monkeypatch):
    """A list that gains an entry for every unit attend's unit loop computes."""
    units = []
    blocks = ad._attend_blocks

    def counting(*args, **kwargs):
        units.append(None)
        return blocks(*args, **kwargs)

    monkeypatch.setattr(ad, "_attend_blocks", counting)
    return units


def test_a_weak_record_whose_owner_died_matches_no_record():
    owner = ad.frozen(np.arange(16.0).reshape(4, 4))  # a read-only copy
    record = ad._weak_record(owner)
    assert ad._same_owner(record, ad._weak_record(owner.reshape(4, 4)))  # a view, one layout
    assert not ad._same_owner(record, ad._weak_record(owner.T))
    assert ad._weak_record(np.arange(16.0)) is None  # writable
    del owner
    other = ad.frozen(np.arange(16.0).reshape(4, 4))
    # the worst case: another live owner with the dead one's id and layout
    forged = (weakref.ref(other),) + record[1:]
    assert not ad._same_owner(record, record)
    assert not ad._same_owner(record, forged) and not ad._same_owner(forged, record)
    assert not ad._same_owner(record, ad._weak_record(other))


def test_attend_goes_unit_by_unit_without_a_bias(computed_units):
    """A GAT floor passes no table, so no bias; from N=91 one (N, N) unit
    reaches the unit floor, and a unit gives its bytes in any call."""
    rng = np.random.default_rng(63)
    n = 96
    q, k_t, v = (rng.standard_normal(s) for s in ((3, n, 4), (3, 4, n), (3, n, 5)))
    k = np.swapaxes(k_t, -1, -2)
    weights = (rng.uniform(size=(n, n)) > 0.3).astype(float)
    np.fill_diagonal(weights, 1.0)
    weights = _read_only(weights)
    assert 8 * n * n >= ad._UNIT_FLOOR_BYTES > 8 * 90 * 90
    first = _unrecorded(q, k, v, weights)
    assert len(computed_units) == 3
    assert first.tobytes() == ad.attend(q, k, v, weights).data.tobytes()
    assert first[1:].tobytes() == _unrecorded(q[1:], k[1:], v[1:], weights).tobytes()


def test_attend_units_are_the_operands_leading_axes(computed_units):
    """Weights shared by every head leave the head axes to the units too,
    but the pairwise term spans only the operands' leading axes, so a unit
    is one group with all its heads: from N=91 one (N, N) slice alone would
    reach the unit floor."""
    rng = np.random.default_rng(66)
    q, k, v, weights, table, heads = _group_sequence(rng, groups=2, n=96)
    weights = weights[0, 0]
    out = _unrecorded(q, k, v, weights, table, heads)
    assert len(computed_units) == 2
    assert out.tobytes() == ad.attend(q, k, v, weights, table, heads).data.tobytes()


@pytest.mark.parametrize("mode", [contextlib.nullcontext, ad.no_grad], ids=["recorded", "no_grad"])
def test_attend_units_give_their_bytes_in_any_call_above_the_unit_floor(mode):
    """From the unit floor the pairwise term is one product per unit, so
    three groups give the bytes of the same groups inside a twelve-group
    call, recorded and under no_grad() alike. At N=207 a product over all
    twelve groups (24 rows per vertex) rounds about 1.5% of the entries of
    a 2-row unit's product differently here, and 1.9% at H_PE=10."""
    rng = np.random.default_rng(67)
    operands = _group_sequence(rng, groups=12, n=207)
    q, k, v, weights, table, heads = operands
    q_pe = np.ascontiguousarray(q[..., 12:].reshape(12, 207, 2, 4).transpose(0, 2, 1, 3))
    whole = ad._rowwise(q_pe, table.transpose(0, 2, 1))
    alone = ad._rowwise(q_pe[5], table.transpose(0, 2, 1))
    assert alone.tobytes() != whole[5].tobytes()  # a size where one product per call differs
    with mode():
        all_groups = ad.attend(*operands).data
        three = ad.attend(*_window(operands, 5, 3)).data
    assert three.tobytes() == all_groups[5:8].tobytes()
    assert all_groups.tobytes() == _unrecorded(*operands).tobytes()  # no_grad() equals recorded


def test_attend_scans_read_only_weights_once(monkeypatch):
    """Read-only weights, and their read-only views, are range-scanned on
    their first call; writable weights, or a read-only view of them, on
    every call, so a write that breaks them is still refused."""
    scans = []
    scan = ad._scan_weights
    monkeypatch.setattr(ad, "_scan_weights", lambda w, op: scans.append(op) or scan(w, op))
    rng = np.random.default_rng(69)
    q, k, v, weights, table, heads = _floor_operands(rng)
    writable = weights.copy()
    weights.flags.writeable = False
    for mode in (contextlib.nullcontext, ad.no_grad, contextlib.nullcontext):
        with mode():
            ad.attend(q, k, v, weights, table, heads)
            ad.attend(q, k, v, weights.reshape(weights.shape), table, heads)  # a new view each call
            ad.attend(q, k, v, writable, table, heads)
            ad.attend(q, k, v, np.broadcast_to(writable, writable.shape), table, heads)
    assert len(scans) == 1 + 3 * 2
    writable[0, 0, 2, 3] = 1.5
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        ad.attend(q, k, v, writable, table, heads)
    assert ad.frozen(weights) is weights
    assert not ad.frozen(writable).flags.writeable and writable.flags.writeable


# -------------------------------------------------------------- errors


def test_shape_errors():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeError):
        ad.add(a, b)
    with pytest.raises(ad.ShapeError):
        ad.matmul(a, b)
    with pytest.raises(ad.ShapeError):
        ad.reshape(a, (7,))
    with pytest.raises(ad.ShapeError):
        ad.concat([a, b], axis=0)
    with pytest.raises(ad.ShapeError):
        ad.transpose_last(ad.constant(np.zeros(3)))
    with pytest.raises(ad.ShapeError):
        ad.bank_apply(ad.constant(np.zeros((2, 3))), a)
    with pytest.raises(ad.ShapeError):
        ad.pairwise_scores(a, np.zeros((2, 2, 4)))


def test_every_benchmarked_op_is_a_callable_autodiff_attribute():
    # perfbench/worker.py wraps each name in OPS with getattr in traced runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    ops = next(
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["OPS"]
    )
    assert ops
    assert [op for op in ops if not callable(getattr(ad, op, None))] == []


@pytest.fixture
def bench_worker(monkeypatch):
    """perfbench/worker.py, loaded as a module."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # for its pace and tracer imports
    spec = importlib.util.spec_from_file_location("perfbench_worker", bench / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, worker)  # its dataclasses look it up
    spec.loader.exec_module(worker)
    return worker


def test_benchmark_tracer_installs_on_the_current_source_and_uninstalls(bench_worker):
    # perfbench/worker.py's install() wraps attributes of glgat modules by name;
    # a renamed or deleted one raises AttributeError and breaks traced runs
    worker = bench_worker
    owners = (worker.gad, worker.gad.DiffTensor, worker.gmodel, worker.gtrain,
              worker.gdata, worker.ggrad)
    before = [dict(vars(o)) for o in owners]
    tracer = worker.Tracer()
    try:
        worker.install(tracer, [])
        wrapped = [
            (name, value, old[name])
            for o, old in zip(owners, before)
            for name, value in vars(o).items()
            if value is not old.get(name)
        ]
    finally:
        tracer.uninstall()
    assert len(wrapped) >= len(worker.OPS)
    assert all(value.__wrapped__ is original for _, value, original in wrapped)
    assert [dict(vars(o)) for o in owners] == before


def test_benchmark_tracer_books_one_span_per_floor_of_a_forward(bench_worker):
    # install() names a span per floor (layers.layer1 ... layers.layer6); the
    # call-time lookup of glgat_forward it relies on is guarded by the
    # count_floors tests in test_model.py
    worker = bench_worker
    gdata, gmodel = worker.gdata, worker.gmodel
    graph, series, _ = gdata.generate_synthetic(n=6, t=240, seed=1)
    splits = gdata.split_and_window(series, p=gmodel.N_GROUPS, q=gmodel.N_GROUPS)
    config = gmodel.StackConfig(n=6, group_width=2, h_head=1, h_temporal=1, h_deep=2, h_e=2)
    train_series = series.slice(0, splits.split_sizes[0])
    model = gmodel.prepare_model(config, graph, train_series, splits.stats, seed=0)
    tracer = worker.Tracer()
    try:
        worker.install(tracer, [])
        gmodel.model_forward(model, splits.train[0].input)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    floors = {name: calls for name, (calls, _, _) in totals.items() if name.startswith("layers.")}
    names = ("layer1", "layer2", "layer4", "layer5", "layer6")
    assert floors == {f"layers.{name}": 1 for name in names}


def test_non_finite_construction_rejected():
    with pytest.raises(ad.NonFiniteError):
        ad.constant([1.0, np.nan])
    with pytest.raises(ad.NonFiniteError):
        ad.parameter([np.inf])


def test_non_finite_result_rejected():
    big = ad.constant(np.full(3, 1e308))
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
        ad.add(big, big)  # overflows to inf


def test_overflowing_softmax_stays_finite():
    # max-shift keeps exp() in range even for huge scores
    scores = ad.constant(np.array([[1e4, 1e4 - 3.0]]))
    out = ad.masked_softmax(scores, np.ones((1, 2)))
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)
