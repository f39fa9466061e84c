"""Independent reference implementations used to validate the package,
and the few helpers that only tests call.

The references are written as plain scalar loops, deliberately avoiding the
vectorized routines (searchsorted, einsum, masked softmax) that the package
itself uses, so agreement between the two routes is meaningful.
"""

import csv
import math
import warnings
from datetime import datetime, timezone

import numpy as np

from glgat import autodiff as ad
from glgat.data import DataError, fit_norm_stats, input_channels, split_sizes
from glgat.encoding import DEFAULT_SMOOTHING, N_DIRECTION_CLASSES, direction_class


def scan_events(values, observed, divider):
    """Scalar scan for divider crossings; returns (up_list, down_list)."""
    up, down = [], []
    for t in range(1, len(values)):
        if not (observed[t - 1] and observed[t]):
            continue
        if values[t - 1] < divider and values[t] >= divider:
            up.append(t)
        if values[t - 1] > divider and values[t] <= divider:
            down.append(t)
    return up, down


def event_adjacency_brute(events, t_p, t_q):
    """O(N^2 * events^2) group-membership count, no sorting tricks.

    ``events`` is a list of per-vertex event-time lists. For each event t of
    vertex i, vertex j joins the group when some event of j lies inside
    [t - t_p, t + t_q]; the score is the fraction of i's events whose group
    contains j, clamped to [0, 1], with the diagonal forced to 1.
    """
    n = len(events)
    a = np.zeros((n, n))
    for i in range(n):
        ev_i = list(events[i])
        if not ev_i:
            continue
        for j in range(n):
            hits = 0
            for t in ev_i:
                in_group = False
                for s in events[j]:
                    if t - t_p <= s <= t + t_q:
                        in_group = True
                        break
                if in_group:
                    hits += 1
            a[i, j] = hits / len(ev_i)
    for i in range(n):
        for j in range(n):
            a[i, j] = min(1.0, max(0.0, a[i, j]))
        a[i, i] = 1.0
    return a


def encode_direction(xi, yi, xj, yj, smoothing=DEFAULT_SMOOTHING):
    """Label-smoothed one-hot over the 8 sectors of the bearing i -> j;
    coincident points get 1/8: one direction row of the pairwise table."""
    out = np.full(N_DIRECTION_CLASSES, smoothing / (N_DIRECTION_CLASSES - 1))
    if xi == xj and yi == yj:
        out[:] = 1.0 / N_DIRECTION_CLASSES
        return out
    out[direction_class(xi, yi, xj, yj)] = 1.0 - smoothing
    return out


def denormalize(stats, data):
    """The inverse of ``NormStats.normalize``."""
    return data * stats.std + stats.mean


def smooth_l1(pred, target, mask):
    """Masked mean of the smooth-L1 kernel of one window, a ``DiffTensor``
    whose gradient flows to ``pred`` only: the per-sample term of
    ``batch_smooth_l1``.

    ``target`` and ``mask`` are plain arrays shaped like ``pred``. An empty
    mask yields loss 0 with a warning.
    """
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if target.shape != pred.shape or mask.shape != pred.shape:
        raise ad.ShapeError("smooth_l1: pred, target and mask shapes must match")
    count = int(mask.sum())
    if count == 0:
        warnings.warn("smooth_l1: no observed elements, loss is 0", stacklevel=2)
        weights = np.zeros(pred.shape)
    else:
        weights = mask / count
    return ad.reduce_sum(ad.huber(pred - ad.constant(target)) * ad.constant(weights))


def ha_table(train, feature=0):
    """The historical-average baseline: (slots_per_day, N) mean observed
    reading per time-of-day slot.

    Slots follow the series' own sampling step. Empty slots fall back to
    the sensor's overall observed mean (0 if the sensor is never observed).
    """
    step = int(train.timestamps[1] - train.timestamps[0])
    if 86400 % step != 0:
        raise DataError(f"sampling step {step}s does not divide one day")
    n_slots = 86400 // step
    slots = (train.timestamps % 86400) // step
    data = train.data[:, :, feature]
    mask = train.mask[:, :, feature]

    n = train.n_vertices
    sums = np.zeros((n_slots, n))
    counts = np.zeros((n_slots, n))
    np.add.at(sums, slots, data * mask)
    np.add.at(counts, slots, mask.astype(np.float64))

    sensor_total = (data * mask).sum(axis=0)
    sensor_count = mask.sum(axis=0)
    fallback = np.divide(
        sensor_total,
        sensor_count,
        out=np.zeros_like(sensor_total),
        where=sensor_count > 0,
    )
    table = np.where(counts > 0, sums / np.maximum(counts, 1), fallback[None, :])
    return table


def historical_average(train, query_times, feature=0):
    """The baseline forecast per (query timestamp, sensor), (*query_times.shape, N)."""
    table = ha_table(train, feature)
    step = int(train.timestamps[1] - train.timestamps[0])
    slots = (np.asarray(query_times, dtype=np.int64) % 86400) // step
    return table[slots]


def ha_predictions(train, samples):
    """Historical-average forecasts of windows, shaped like model output (S, N, Q)."""
    times = samples.times[samples.target_steps()]  # (S, Q)
    return historical_average(train, times).transpose(0, 2, 1)


def windows_reference(series, p, q, ratios=(0.7, 0.1, 0.2), stats=None):
    """Every window of each split as (input, target, target_mask,
    target_times), cut from whole-split channel buffers: the reference for
    the windows that ``split_and_window`` assembles on access."""
    n_train, n_val, _ = split_sizes(series.n_steps, ratios)
    if stats is None:
        stats = fit_norm_stats(series.data[:n_train], series.mask[:n_train])
    tod = series.time_of_day()
    parts = []
    for a, b in [(0, n_train), (n_train, n_train + n_val), (n_train + n_val, series.n_steps)]:
        data, mask, times = series.data[a:b], series.mask[a:b], series.timestamps[a:b]
        length, n, k = data.shape
        channels = np.empty((length, n, input_channels(k)))
        features = channels[:, :, :k]
        stats.normalize(data, out=features)
        features[~mask] = 0.0
        channels[:, :, k] = tod[a:b, None]
        channels[:, :, k + 1 :] = mask
        parts.append(
            [
                (
                    channels[w : w + p],
                    data[w + p : w + p + q],
                    mask[w + p : w + p + q],
                    times[w + p : w + p + q],
                )
                for w in range(length - (p + q) + 1)
            ]
        )
    return parts


def load_series_rows_scalar(series_file):
    """(timestamps, data, mask) of a readings CSV, parsed row by row and
    cell by cell through ``csv.reader``: the reference for the block parser
    of ``load_series``, with the same ``DataError`` messages."""
    with open(series_file, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise DataError("series file needs a header row and at least one data row")
    n = len(rows[0]) - 1
    timestamps = np.empty(len(rows) - 1, dtype=np.int64)
    data = np.zeros((len(rows) - 1, n, 1))
    mask = np.zeros((len(rows) - 1, n, 1), dtype=bool)
    for t, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise DataError(f"line {t}: expected {n + 1} columns, found {len(row)}")
        try:
            stamp = datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"line {t}: unparseable timestamp {row[0]!r}") from None
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        timestamps[t - 2] = int(stamp.timestamp())
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell == "":
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DataError(f"line {t}: unparseable reading {cell!r}") from None
            if v == 0.0:
                continue
            data[t - 2, j, 0] = v
            mask[t - 2, j, 0] = True
    return timestamps, data, mask


def masked_softmax_scalar(scores, weights):
    """One row of exp(s) * w / sum(exp(s) * w), computed in log space:
    log(w_j) + s_j minus the log-sum-exp over the positive-weight entries.
    Zero-weight entries give exactly 0."""
    logs = [math.log(w) + s for s, w in zip(scores, weights) if w > 0.0]
    top = max(logs)
    log_total = top + math.log(sum(math.exp(v - top) for v in logs))
    return [
        math.exp(math.log(w) + s - log_total) if w > 0.0 else 0.0
        for s, w in zip(scores, weights)
    ]


def gelu_scalar(v):
    return v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))


def _affine_scalar(w, b, vec):
    return [sum(w[r][c] * vec[c] for c in range(len(vec))) + b[r] for r in range(len(b))]


def gat_attention_scalar(x, enc, adj, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o):
    """Single graph-attention layer, one scalar-arithmetic step at a time.

    Queries and keys see the input concatenated with each vertex's encoding;
    values see the raw input. Scores pass through the exact GELU, then the
    exp-times-weight normalization over each row of ``adj`` (entries in
    [0, 1]). Returns (output, coefficients).
    """
    n = x.shape[0]
    h = w_q.shape[0]
    xe = [list(x[i]) + list(enc[i]) for i in range(n)]

    q = [_affine_scalar(w_q, b_q, xe[i]) for i in range(n)]
    k = [_affine_scalar(w_k, b_k, xe[i]) for i in range(n)]
    v = [_affine_scalar(w_v, b_v, list(x[i])) for i in range(n)]

    mixed = np.zeros((n, h))
    coef = np.zeros((n, n))
    for i in range(n):
        scores = []
        for j in range(n):
            dot = sum(q[i][c] * k[j][c] for c in range(h))
            scores.append(gelu_scalar(dot))
        denom = 0.0
        for j in range(n):
            denom += math.exp(scores[j]) * adj[i][j]
        for j in range(n):
            coef[i, j] = math.exp(scores[j]) * adj[i][j] / denom
            for c in range(h):
                mixed[i, c] += coef[i, j] * v[j][c]
    final = np.zeros((n, w_o.shape[0]))
    for i in range(n):
        final[i] = _affine_scalar(w_o, b_o, list(mixed[i]))
    return final, coef


def glgat_forward_scalar(x, enc, adj_stack, pe, p, dims):
    """Full scalar-loop evaluation of the multi-adjacency attention layer.

    ``p`` maps parameter names (w_q_global, b_q_global, w_q_local,
    b_q_local, w_q_compress, b_q_compress, w_k, b_k, w_v, b_v, w_ff, b_ff)
    to plain arrays; ``dims`` is (h, h_adj, h_head, h_pe). Channel packing
    is done with explicit index arithmetic: attention channel (n, m, c)
    lives at (n*h_head + m)*h + c and encoding-query block n occupies
    h_prime + n*h_pe onward. Returns (output, scores, coefficients) with
    scores and coefficients indexed [i, n, m, j].
    """
    h, h_adj, h_head, h_pe = dims
    h_prime = h * h_adj * h_head
    n = x.shape[0]
    xe = [list(x[i]) + (list(enc[i]) if enc is not None else []) for i in range(n)]

    q = []
    for i in range(n):
        qg = _affine_scalar(p["w_q_global"], p["b_q_global"], xe[i])
        ql = _affine_scalar(p["w_q_local"][i], p["b_q_local"][i], xe[i])
        q.append(_affine_scalar(p["w_q_compress"], p["b_q_compress"], qg + ql))
    k = [_affine_scalar(p["w_k"], p["b_k"], xe[i]) for i in range(n)]
    v = [_affine_scalar(p["w_v"], p["b_v"], list(x[i])) for i in range(n)]

    def at(nn, m, c):
        return (nn * h_head + m) * h + c

    scores = np.zeros((n, h_adj, h_head, n))
    coef = np.zeros((n, h_adj, h_head, n))
    hidden = np.zeros((n, h_prime))
    for i in range(n):
        for a in range(h_adj):
            for m in range(h_head):
                for j in range(n):
                    dot = sum(q[i][at(a, m, c)] * k[j][at(a, m, c)] for c in range(h))
                    for c in range(h_pe):
                        dot += q[i][h_prime + a * h_pe + c] * pe[i][j][c]
                    scores[i, a, m, j] = gelu_scalar(dot)
                denom = sum(
                    math.exp(scores[i, a, m, j]) * adj_stack[a][i][j] for j in range(n)
                )
                for j in range(n):
                    coef[i, a, m, j] = (
                        math.exp(scores[i, a, m, j]) * adj_stack[a][i][j] / denom
                    )
                for c in range(h):
                    hidden[i, at(a, m, c)] = sum(
                        coef[i, a, m, j] * v[j][at(a, m, c)] for j in range(n)
                    )
    out = np.zeros((n, len(p["b_ff"])))
    for i in range(n):
        out[i] = _affine_scalar(p["w_ff"], p["b_ff"], list(hidden[i]))
    return out, scores, coef


def with_coefficients(forward, *args):
    """``forward(*args)`` for a layer function that calls ``ad.attend``
    once, and the attention coefficients of that call.

    The call's own ``q``, ``k``, ``weights``, ``table`` and ``heads`` are
    kept, and ``attend`` runs on them again with per-head identity values
    in row layout: every head's M value channels are the (M, M) identity,
    so each head's coefficients times I are its coefficients exactly,
    computed by the same blocks as the layer's output. Returns (output,
    coefficients); the coefficients have the call's score shape,
    (..., N_row, N_col) for ``gat_forward`` and (..., H_adj, H_head, N_row,
    N_col) for ``glgat_forward``.
    """
    attend = ad.attend
    calls = []

    def kept(q, k, v, weights, table=None, heads=()):
        calls.append((q, k, weights, table, heads))
        return attend(q, k, v, weights, table, heads)

    ad.attend = kept
    try:
        out = forward(*args)
    finally:
        ad.attend = attend
    ((q, k, weights, table, heads),) = calls
    m, split = k.shape[-2], math.prod(heads)
    identity = np.broadcast_to(np.tile(np.eye(m), split), k.shape[:-1] + (split * m,))
    rows = attend(q, k, identity, weights, table, heads).data  # (..., N_row, heads * N_col)
    d, n_heads = rows.ndim - 2, len(heads)
    coef = rows.reshape(rows.shape[:-1] + heads + (m,))  # (..., N_row, *heads, N_col)
    heads_first = (*range(d), *range(d + 1, d + 1 + n_heads), d, d + 1 + n_heads)
    return out, ad.constant(coef.transpose(heads_first))


def metrics_scalar(y_true, y_pred, mask, mape_floor=1.0):
    """MAE / RMSE / MAPE over mask-true entries, one element at a time."""
    abs_sum = 0.0
    sq_sum = 0.0
    count = 0
    ape_sum = 0.0
    ape_count = 0
    flat_t = np.asarray(y_true).ravel()
    flat_p = np.asarray(y_pred).ravel()
    flat_m = np.asarray(mask).ravel()
    for t, p, m in zip(flat_t, flat_p, flat_m):
        if not m:
            continue
        diff = p - t
        abs_sum += abs(diff)
        sq_sum += diff * diff
        count += 1
        if abs(t) >= mape_floor:
            ape_sum += abs(diff) / abs(t)
            ape_count += 1
    mae = abs_sum / count if count else math.nan
    rmse = math.sqrt(sq_sum / count) if count else math.nan
    mape = 100.0 * ape_sum / ape_count if ape_count else math.nan
    return mae, rmse, mape


def historical_average_scalar(train_data, train_mask, tod_slots, n_slots):
    """Per (vertex, time-of-day slot) mean of observed training readings.

    Empty slots fall back to the vertex's overall observed training mean.
    Returns an (n_slots, N) table.
    """
    t, n = train_data.shape
    table = np.zeros((n_slots, n))
    for v in range(n):
        total, cnt = 0.0, 0
        for s in range(t):
            if train_mask[s, v]:
                total += train_data[s, v]
                cnt += 1
        fallback = total / cnt if cnt else 0.0
        for slot in range(n_slots):
            acc, k = 0.0, 0
            for s in range(t):
                if train_mask[s, v] and tod_slots[s] == slot:
                    acc += train_data[s, v]
                    k += 1
            table[slot, v] = acc / k if k else fallback
    return table


def smooth_l1_scalar(diff):
    d = abs(diff)
    return 0.5 * d * d if d < 1.0 else d - 0.5
