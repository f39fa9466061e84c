"""End-to-end acceptance gate: numbered properties at pinned tolerances.

Each test computes its verdict, records a one-line summary for the
terminal report, then asserts. The planted-structure dataset and the
models trained on it are session fixtures shared between the
learning-signal and ablation-ordering criteria; everything else is
self-contained and fast.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from glgat import autodiff as ad
from glgat import cli
from glgat import data as gdata
from glgat import model as gmodel
from glgat import training as gtrain
from glgat.adjacency import build_event_adjacency, detect_events
from glgat.encoding import build_pairwise_encoding, direction_class
from glgat.gradcheck import check_gradients
from glgat.layers import (
    LayerDims,
    gat_forward,
    glgat_forward,
    init_gat_layer,
    init_glgat_layer,
)

from conftest import record_criterion
from oracles import (
    event_adjacency_brute,
    ha_predictions,
    metrics_scalar,
    smooth_l1,
    with_coefficients,
)
from test_layers import random_instance, random_pe, wire_reduction


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ------------------------------------------------------------ criterion 1


@pytest.mark.slow
def test_criterion_1_gradient_integrity():
    """Every parameter entry of a small full-variant stack passes a central
    finite-difference check of the smooth-L1 training loss."""
    t0 = time.perf_counter()
    graph, series, _ = gdata.generate_synthetic(n=6, t=240, seed=5)
    splits = gdata.split_and_window(series, p=12, q=12)
    cfg = gmodel.StackConfig(
        n=6, variant="full", group_width=2, h_adj=2, h_head=2,
        h_temporal=2, h_deep=2, h_pe=10, h_e=2,
    )
    model = gmodel.prepare_model(
        cfg, graph, series.slice(0, splits.split_sizes[0]), splits.stats, seed=3
    )
    x = gtrain.stack_inputs(splits.train[:1])
    target, mask = gtrain.stack_targets(splits.train[:1])

    def loss():
        return smooth_l1(gmodel.model_forward(model, x), target, mask)

    report = check_gradients(
        loss, model.named_params(), h=1e-5, rel_tol=1e-4, abs_tol=1e-6, small=1e-3
    )
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 300.0
    record_criterion(
        1, "gradient integrity", _verdict(ok),
        f"{report.checked} entries, {len(report.failures)} failures, "
        f"max abs err {report.max_abs_err:.1e}, {elapsed:.0f}s",
    )
    assert report.passed, report.summary()
    assert elapsed < 300.0


# ------------------------------------------------------------ criterion 2


def test_criterion_2_attention_rows_normalized_and_masked():
    rng = np.random.default_rng(202)
    failures = []
    worst = 0.0
    for trial in range(100):
        dims = LayerDims(
            h=int(rng.integers(1, 4)),
            h_adj=int(rng.integers(1, 4)),
            h_head=int(rng.integers(1, 4)),
            h_pe=int(rng.choice([0, 4, 10])),
        )
        n = int(rng.integers(2, 8))
        params, x, enc, adjs, pe = random_instance(
            rng, n=n, k_in=int(rng.integers(1, 4)), k_out=3,
            h_e=int(rng.integers(0, 5)), dims=dims, seed=int(rng.integers(10_000)),
        )
        _, coef = with_coefficients(glgat_forward, params, dims, x, enc, adjs, pe)
        dev = float(np.abs(coef.data.sum(axis=-1) - 1.0).max())
        worst = max(worst, dev)
        if dev > 1e-12:
            failures.append(f"trial {trial}: row sum off by {dev:.2e}")
        zero = np.broadcast_to((adjs == 0.0)[:, None], coef.shape)
        if not np.all(coef.data[zero] == 0.0):
            failures.append(f"trial {trial}: nonzero coefficient on masked pair")
    record_criterion(
        2, "attention normalization", _verdict(not failures),
        f"100 forwards, worst row-sum deviation {worst:.1e}",
    )
    assert not failures, failures[:5]


# ------------------------------------------------------------ criterion 3


def test_criterion_3_reduction_to_single_matrix_attention():
    rng = np.random.default_rng(303)
    failures = []
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 8))
        h = int(rng.integers(2, 7))
        k_in = int(rng.integers(1, 4))
        k_out = int(rng.integers(1, 5))
        h_e = int(rng.integers(0, 9))
        gat = init_gat_layer(k_in, k_out, h, h_e, seed=400 + trial)
        dims = LayerDims(h=h, h_adj=1, h_head=1, h_pe=10)
        big = init_glgat_layer(dims, n, k_in, k_out, h_e, seed=900 + trial)
        wire_reduction(big, gat, dims)

        x = ad.constant(rng.standard_normal((n, k_in)))
        enc = ad.constant(rng.uniform(-0.05, 0.05, (n, h_e))) if h_e else None
        adj = (rng.uniform(size=(n, n)) > 0.4).astype(float)
        np.fill_diagonal(adj, 1.0)
        pe = random_pe(rng, n, 10)

        a = gat_forward(gat, x, enc, adj)
        b = glgat_forward(big, dims, x, enc, adj[None], pe)
        err = float(np.abs(b.data - a.data).max())
        worst = max(worst, err)
        if err > 1e-12:
            failures.append(f"trial {trial}: deviation {err:.2e}")
    record_criterion(
        3, "reduction to single-matrix attention", _verdict(not failures),
        f"20 instances, worst abs deviation {worst:.1e}",
    )
    assert not failures, failures


# ------------------------------------------------------------ criterion 4


def test_criterion_4_event_adjacency_matches_brute_force():
    rng = np.random.default_rng(404)
    failures = []
    for trial in range(50):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(20, 501))
        t_p = int(rng.integers(0, 9))
        t_q = int(rng.integers(0, 3))
        mask = rng.uniform(size=(t, n, 1)) > 0.1
        values = rng.uniform(0.0, 90.0, size=(t, n, 1)) * mask
        series = gdata.TrafficSeries(
            data=values, mask=mask, timestamps=np.arange(t) * 300
        )
        log = detect_events(series)
        a_up, a_down = build_event_adjacency(log, t_p=t_p, t_q=t_q)
        if not np.array_equal(a_up, event_adjacency_brute(log.up_events, t_p, t_q)):
            failures.append(f"trial {trial}: up matrix differs")
        if not np.array_equal(a_down, event_adjacency_brute(log.down_events, t_p, t_q)):
            failures.append(f"trial {trial}: down matrix differs")
    record_criterion(
        4, "event adjacency vs brute force", _verdict(not failures),
        "50 random instances, exact equality",
    )
    assert not failures, failures


# ------------------------------------------------------------ criterion 5


def test_criterion_5_pairwise_encoding_properties():
    rng = np.random.default_rng(505)
    failures = []

    checked = 0
    while checked < 1000:
        xi, yi, xj, yj = rng.uniform(-50.0, 50.0, size=4)
        if xi == xj and yi == yj:
            continue
        theta = math.atan2(yj - yi, xj - xi)
        r = (theta + math.pi / 8.0) % (math.pi / 4.0)
        if min(r, math.pi / 4.0 - r) < 1e-9:  # skip sector boundaries
            continue
        c_ij = direction_class(xi, yi, xj, yj)
        c_ji = direction_class(xj, yj, xi, yi)
        if (c_ij + 4) % 8 != c_ji:
            failures.append(f"pair {checked}: classes {c_ij} vs {c_ji}")
        checked += 1

    # integer coordinates keep the translated differences bit-exact
    coords = rng.integers(-500, 500, size=(24, 2)).astype(float)
    graph = SimpleNamespace(coordinates=coords, n_vertices=24)
    pe = build_pairwise_encoding(graph)
    if float(np.abs(pe[:, :, :8].sum(axis=-1) - 1.0).max()) > 1e-12:
        failures.append("direction block sums deviate from 1")
    for ch in (8, 9):
        if not np.array_equal(pe[:, :, ch], pe[:, :, ch].T):
            failures.append(f"distance channel {ch} is asymmetric")
    shifted = SimpleNamespace(
        coordinates=coords + np.array([12345.0, -6789.0]), n_vertices=24
    )
    if build_pairwise_encoding(shifted).tobytes() != pe.tobytes():
        failures.append("translation changed the tensor")

    record_criterion(
        5, "pairwise encoding properties", _verdict(not failures),
        "1000 antipodal pairs; block sums; symmetry; translation",
    )
    assert not failures, failures


# ------------------------------------------------------------ criterion 6


def test_criterion_6_permutation_consistency():
    rng = np.random.default_rng(606)
    n = 8
    dims = LayerDims(h=4, h_adj=2, h_head=2, h_pe=10)
    params, x, enc, adjs, pe = random_instance(
        rng, n=n, k_in=3, k_out=5, h_e=8, dims=dims, seed=61
    )
    base = glgat_forward(params, dims, x, enc, adjs, pe).data
    failures = []
    worst = 0.0
    for trial in range(10):
        perm = rng.permutation(n)
        permuted = init_glgat_layer(dims, n, 3, 5, 8, seed=61)
        for key, t in permuted.items():
            t.data[:] = params[key].data
        permuted["w_q_local"].data[:] = params["w_q_local"].data[perm]
        permuted["b_q_local"].data[:] = params["b_q_local"].data[perm]
        out = glgat_forward(
            permuted,
            dims,
            ad.constant(x.data[perm]),
            ad.constant(enc.data[perm]),
            adjs[:, perm][:, :, perm],
            pe[perm][:, perm],
        )
        err = float(np.abs(out.data - base[perm]).max())
        worst = max(worst, err)
        if err > 1e-10:
            failures.append(f"permutation {trial}: deviation {err:.2e}")
    record_criterion(
        6, "permutation consistency", _verdict(not failures),
        f"10 permutations, worst abs deviation {worst:.1e}",
    )
    assert not failures, failures


# ------------------------------------------------------------ criterion 7


def test_criterion_7_width_contract_and_lossless_reshapes():
    rng = np.random.default_rng(707)
    failures = []
    for trial in range(10):
        h = int(rng.integers(1, 7))
        h_adj = int(rng.integers(1, 5))
        h_head = int(rng.integers(1, 5))
        h_pe = int(rng.integers(0, 13))
        n = int(rng.integers(2, 7))
        k_in = int(rng.integers(1, 4))
        k_out = int(rng.integers(1, 5))
        h_e = int(rng.integers(0, 4))

        dims = LayerDims(h=h, h_adj=h_adj, h_head=h_head, h_pe=h_pe)
        if dims.h_prime != h * h_adj * h_head:
            failures.append(f"trial {trial}: attention width")
        if dims.h_q != dims.h_prime + h_adj * h_pe:
            failures.append(f"trial {trial}: query width")

        params = init_glgat_layer(dims, n, k_in, k_out, h_e, seed=700 + trial)
        expected = {
            "w_q_global": (dims.h_q, k_in + h_e),
            "w_q_local": (n, dims.h_q, k_in + h_e),
            "w_q_compress": (dims.h_q, 2 * dims.h_q),
            "w_k": (dims.h_prime, k_in + h_e),
            "w_v": (dims.h_prime, k_in),
            "w_ff": (k_out, dims.h_prime),
        }
        for key, want in expected.items():
            if params[key].shape != want:
                failures.append(f"trial {trial}: {key} shape")

        flat = rng.standard_normal((n, dims.h_prime))
        heads = flat.reshape(n, h_adj, h_head, h).transpose(1, 2, 0, 3)
        back = heads.transpose(2, 0, 1, 3).reshape(n, dims.h_prime)
        if back.tobytes() != flat.tobytes():
            failures.append(f"trial {trial}: head split not lossless")

        q = rng.standard_normal((n, dims.h_q))
        pe_part = q[:, dims.h_prime :].reshape(n, h_adj, h_pe)
        rebuilt = np.concatenate(
            [q[:, : dims.h_prime], pe_part.reshape(n, h_adj * h_pe)], axis=1
        )
        if rebuilt.tobytes() != q.tobytes():
            failures.append(f"trial {trial}: query split not lossless")
    record_criterion(
        7, "width contract and reshape round-trips", _verdict(not failures),
        "10 random dimension tuples",
    )
    assert not failures, failures


# -------------------------------------------------------- criteria 8 and 9


ACCEPT_SEEDS = (0, 1, 2, 3, 4)


def _accept_config(variant: str) -> gmodel.StackConfig:
    return gmodel.StackConfig(
        n=15, variant=variant, group_width=4, h_head=2, h_temporal=2,
        h_deep=4, h_pe=10, h_e=4,
    )


@pytest.fixture(scope="session")
def planted():
    """N=15, T=2000 synthetic dataset plus its historical-average score."""
    t0 = time.perf_counter()
    graph, series, _ = gdata.generate_synthetic(n=15, t=2000, seed=42)
    splits = gdata.split_and_window(series, p=12, q=12)
    train_series = series.slice(0, splits.split_sizes[0])
    preds = ha_predictions(train_series, splits.val)
    targets, masks = gtrain.stack_targets(splits.val)
    ha_mae = gtrain.evaluate(preds, targets, masks).mean_mae
    return SimpleNamespace(
        graph=graph, splits=splits, train_series=train_series,
        ha_mae=ha_mae, prep_seconds=time.perf_counter() - t0,
    )


def _train_planted(planted, variant: str, seed: int) -> float:
    model = gmodel.prepare_model(
        _accept_config(variant), planted.graph, planted.train_series,
        planted.splits.stats, seed=seed,
    )
    result = gtrain.train(
        model, planted.splits.train[::2], planted.splits.val,
        gtrain.TrainConfig(lr=5e-3, batch_size=32, max_epochs=40, patience=10, seed=seed),
    )
    return result.val_report.mean_mae


@pytest.fixture(scope="session")
def full_variant_maes(planted):
    t0 = time.perf_counter()
    maes = [_train_planted(planted, "full", s) for s in ACCEPT_SEEDS]
    return maes, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_8_learning_signal_beats_historical_average(planted, full_variant_maes):
    maes, train_seconds = full_variant_maes
    elapsed = planted.prep_seconds + train_seconds
    margins = [1.0 - mae / planted.ha_mae for mae in maes]
    wins = sum(m >= 0.20 for m in margins)
    ok = wins >= 4 and elapsed < 900.0
    note = (
        f"HA {planted.ha_mae:.3f}; margins "
        + ", ".join(f"{100.0 * m:.1f}%" for m in margins)
        + f"; {wins}/5 seeds at >=20%; {elapsed:.0f}s"
    )
    record_criterion(8, "learning signal vs historical average", _verdict(ok), note)
    assert wins >= 4, note
    assert elapsed < 900.0, note


@pytest.mark.slow
def test_criterion_9_ablation_ordering(planted, full_variant_maes):
    """Soft criterion: the ordering is reported; a violation is a logged
    finding, not a test failure."""
    means = {"full": float(np.mean(full_variant_maes[0]))}
    for variant in ("ablation2", "ablation3"):
        means[variant] = float(
            np.mean([_train_planted(planted, variant, s) for s in ACCEPT_SEEDS])
        )
    ordered = means["full"] <= means["ablation2"] <= means["ablation3"]
    note = (
        f"mean val MAE full {means['full']:.3f}, "
        f"ablation2 {means['ablation2']:.3f}, ablation3 {means['ablation3']:.3f}"
    )
    if not ordered:
        note += "; ordering violated -- reported as a finding, not a failure"
    record_criterion(9, "ablation ordering (soft)", "PASS" if ordered else "FINDING", note)


# ----------------------------------------------------------- criterion 10


def test_criterion_10_metrics_match_scalar_oracle():
    rng = np.random.default_rng(1010)
    failures = []
    for trial in range(100):
        s = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        targets = rng.uniform(-3.0, 3.0, size=(s, n, 12))
        preds = targets + rng.normal(scale=1.5, size=(s, n, 12))
        mask = rng.uniform(size=(s, n, 12)) > 0.3
        if trial % 10 == 0:
            mask[:, :, 2] = False  # empty 15-minute horizon
        report = gtrain.evaluate(preds, targets, mask)
        for horizon, metrics in report.horizons.items():
            col = horizon - 1
            oracle = metrics_scalar(
                targets[:, :, col], preds[:, :, col], mask[:, :, col]
            )
            got = (metrics.mae, metrics.rmse, metrics.mape)
            for name, a, b in zip(("mae", "rmse", "mape"), got, oracle):
                same = (math.isnan(a) and math.isnan(b)) or (
                    abs(a - b) <= 1e-12 + 1e-12 * abs(b)
                )
                if not same:
                    failures.append(f"trial {trial} h{horizon} {name}: {a!r} vs {b!r}")
    record_criterion(
        10, "metrics vs scalar oracle", _verdict(not failures),
        "100 random arrays, tolerance 1e-12",
    )
    assert not failures, failures[:5]


# ----------------------------------------------------------- criterion 11


def test_criterion_11_seeded_training_is_byte_identical(tmp_path):
    data_dir = tmp_path / "data"
    assert cli.main(
        ["synth-data", "--n", "6", "--t", "300", "--seed", "11", "--out", str(data_dir)]
    ) == 0
    checkpoints = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = cli.main([
            "train", "--series", str(data_dir / "series.csv"),
            "--locations", str(data_dir / "locations.csv"),
            "--edges", str(data_dir / "edges.csv"),
            "--out", str(out), "--seed", "7", "--epochs", "2",
            "--group-width", "4", "--h-head", "2", "--h-temporal", "2",
            "--h-deep", "6", "--h-e", "4",
        ])
        assert rc == 0
        checkpoints.append((out / "checkpoint.bin").read_bytes())
    ok = checkpoints[0] == checkpoints[1]
    record_criterion(
        11, "seeded training determinism", _verdict(ok),
        "two train runs, byte-identical checkpoints",
    )
    assert ok
