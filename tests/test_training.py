"""Loss, optimizer, metrics, baseline, and the training loop."""

import csv
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from glgat import autodiff as ad
from glgat import data as gdata
from glgat import model as gmodel
from glgat import training as gtrain
from glgat.gradcheck import check_gradients
from oracles import (
    ha_predictions,
    ha_table,
    historical_average,
    historical_average_scalar,
    metrics_scalar,
    smooth_l1,
    smooth_l1_scalar,
)

DAY = 86400
STEP = 300
SLOTS = DAY // STEP
TS0 = 19000 * DAY  # midnight-aligned epoch


def tiny_config(n=5, **kw):
    base = dict(group_width=4, h_head=2, h_temporal=2, h_deep=6, h_e=2, h_pe=0)
    base.update(kw)
    return gmodel.StackConfig(n=n, **base)


@pytest.fixture(scope="module")
def setup():
    graph, series, _ = gdata.generate_synthetic(n=5, t=260, seed=12)
    splits = gdata.split_and_window(series, p=12, q=12)
    train_series = series.slice(0, splits.split_sizes[0])
    return graph, series, splits, train_series


def fresh_model(setup, seed=2, **kw):
    graph, _, splits, train_series = setup
    cfg = tiny_config(**kw)
    return gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=seed)


def observed_series(t, n, values, ts0=TS0, step=STEP):
    data = np.asarray(values, dtype=np.float64).reshape(t, n, 1)
    mask = np.ones_like(data, dtype=bool)
    ts = ts0 + step * np.arange(t, dtype=np.int64)
    return gdata.TrafficSeries(data=data, mask=mask, timestamps=ts)


# ------------------------------------------------------------------ loss


def test_smooth_l1_known_values():
    pred = ad.parameter([0.0, 2.0, -2.0, 0.5])
    target = np.zeros(4)
    mask = np.ones(4, dtype=bool)
    loss = smooth_l1(pred, target, mask)
    expect = np.mean([smooth_l1_scalar(d) for d in (0.0, 2.0, -2.0, 0.5)])
    assert loss.item() == pytest.approx(expect, abs=1e-15)

    zero = smooth_l1(ad.parameter([3.0]), np.array([3.0]), np.array([True]))
    assert zero.item() == 0.0
    single = smooth_l1(ad.parameter([2.0]), np.array([0.0]), np.array([True]))
    assert single.item() == pytest.approx(1.5, abs=1e-15)


def test_smooth_l1_gradient_both_branches():
    # entries straddle the quadratic / linear crossover at |d| = 1
    pred = ad.parameter([-3.0, -0.5, 0.5, 3.0])
    target = np.zeros(4)
    mask = np.ones(4, dtype=bool)
    report = check_gradients(
        lambda: smooth_l1(pred, target, mask), {"pred": pred}
    )
    assert report.passed, report.summary()
    smooth_l1(pred, target, mask).backward()
    assert np.allclose(pred.grad, [-0.25, -0.125, 0.125, 0.25], atol=1e-15)


def test_smooth_l1_respects_mask():
    pred = ad.parameter([1.0, 100.0])
    mask = np.array([True, False])
    loss = smooth_l1(pred, np.zeros(2), mask)
    assert loss.item() == pytest.approx(0.5, abs=1e-15)
    loss.backward()
    assert pred.grad[1] == 0.0


def test_smooth_l1_empty_mask_warns():
    pred = ad.parameter([1.0, 2.0])
    with pytest.warns(UserWarning):
        loss = smooth_l1(pred, np.zeros(2), np.zeros(2, dtype=bool))
    assert loss.item() == 0.0


def test_smooth_l1_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        smooth_l1(ad.parameter([1.0]), np.zeros(2), np.ones(2, dtype=bool))


def test_batch_loss_is_mean_of_per_sample_means():
    rng = np.random.default_rng(5)
    pred = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 4))
    mask = rng.uniform(size=(3, 4)) < 0.7
    mask[0] = [True, False, False, False]  # uneven per-sample counts
    batched = gtrain.batch_smooth_l1(ad.parameter(pred), target, mask).item()
    per_sample = [
        smooth_l1(ad.parameter(pred[i]), target[i], mask[i]).item()
        for i in range(3)
    ]
    assert batched == pytest.approx(np.mean(per_sample), abs=1e-14)


def test_batch_gradient_is_average_of_sample_gradients(setup):
    """Per-sample masked means keep batch grads exactly linear in samples."""
    _, _, splits, _ = setup
    model = fresh_model(setup)
    samples = splits.train[:3]
    x = gtrain.stack_inputs(samples)
    y, msk = gtrain.stack_targets(samples)

    model.zero_grad()
    gtrain.batch_smooth_l1(gmodel.model_forward(model, x), y, msk).backward()
    batched = {k: t.grad.copy() for k, t in model.named_params().items()}

    model.zero_grad()
    for i in range(3):
        smooth_l1(gmodel.model_forward(model, x[i]), y[i], msk[i]).backward()
    for k, t in model.named_params().items():
        assert np.allclose(t.grad / 3.0, batched[k], rtol=0, atol=1e-10), k


# ------------------------------------------------------------------ Adam


def test_adam_no_gradient_no_movement():
    w = ad.parameter([1.0, -2.0])
    before = w.data.copy()
    gtrain.adam_step({"w": w}, gtrain.AdamState(lr=0.1))
    assert np.array_equal(w.data, before)


def test_adam_first_step_is_signed_lr():
    w = ad.parameter([2.0, -1.0])
    loss = ad.reduce_sum(w * ad.constant([1.0, -1.0]))
    loss.backward()
    gtrain.adam_step({"w": w}, gtrain.AdamState(lr=0.01))
    assert np.allclose(w.data, [1.99, -0.99], atol=1e-9)


def test_adam_minimizes_quadratic_bowl():
    w = ad.parameter([1.0, -2.0, 3.0])
    state = gtrain.AdamState(lr=0.01)
    for _ in range(1500):
        w.zero_grad()
        ad.reduce_sum(w * w).backward()
        gtrain.adam_step({"w": w}, state)
    assert np.all(np.abs(w.data) < 0.05)


def test_adam_rejects_non_finite_gradient():
    w = ad.parameter([1.0])
    w.grad = np.array([np.inf])
    with pytest.raises(ad.NonFiniteError, match="w"):
        gtrain.adam_step({"w": w}, gtrain.AdamState())


def test_adam_global_norm_clip_scales_moments():
    # grads (3, 4) have norm 5; threshold 2.5 halves both
    a, b = ad.parameter([0.0]), ad.parameter([0.0])
    a.grad, b.grad = np.array([3.0]), np.array([4.0])
    state = gtrain.AdamState(lr=0.01)
    gtrain.adam_step({"a": a, "b": b}, state, clip_norm=2.5)
    assert np.allclose(state.m["a"], [0.1 * 1.5], atol=1e-15)
    assert np.allclose(state.m["b"], [0.1 * 2.0], atol=1e-15)
    a.grad, b.grad = np.array([3.0]), np.array([4.0])
    state2 = gtrain.AdamState(lr=0.01)
    gtrain.adam_step({"a": a, "b": b}, state2, clip_norm=10.0)
    assert np.allclose(state2.m["a"], [0.1 * 3.0], atol=1e-15)


# --------------------------------------------------------------- metrics


def test_evaluate_perfect_predictions():
    rng = np.random.default_rng(0)
    y = rng.uniform(10, 80, (4, 3, 12))
    rep = gtrain.evaluate(y, y, np.ones_like(y, dtype=bool))
    for h in gtrain.HORIZONS:
        m = rep.horizons[h]
        assert m.mae == 0.0 and m.rmse == 0.0 and m.mape == 0.0


def test_evaluate_hand_case():
    targets = np.zeros((1, 2, 12))
    preds = np.zeros((1, 2, 12))
    masks = np.ones((1, 2, 12), dtype=bool)
    targets[0, :, 2] = [1.0, 2.0]
    preds[0, :, 2] = [2.0, 4.0]
    rep = gtrain.evaluate(preds, targets, masks)
    m = rep.horizons[3]
    assert m.mae == pytest.approx(1.5, abs=1e-15)
    assert m.rmse == pytest.approx(math.sqrt(2.5), abs=1e-15)
    assert m.mape == pytest.approx(100.0, abs=1e-12)
    assert m.n_observed == 2 and m.n_masked_out == 0
    # other horizons: zero error, all truths below the percentage floor
    assert rep.horizons[6].mae == 0.0
    assert math.isnan(rep.horizons[6].mape)


def test_evaluate_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    for trial in range(10):
        y = rng.uniform(0, 20, (3, 4, 12))
        p = y + rng.normal(0, 5, y.shape)
        m = rng.uniform(size=y.shape) < 0.8
        rep = gtrain.evaluate(p, y, m)
        for h in gtrain.HORIZONS:
            mae, rmse, mape = metrics_scalar(
                y[:, :, h - 1], p[:, :, h - 1], m[:, :, h - 1]
            )
            got = rep.horizons[h]
            assert got.mae == pytest.approx(mae, rel=1e-12)
            assert got.rmse == pytest.approx(rmse, rel=1e-12)
            assert got.mape == pytest.approx(mape, rel=1e-12)


def test_evaluate_ignores_masked_entries():
    rng = np.random.default_rng(3)
    y = rng.uniform(5, 50, (2, 3, 12))
    p = y + rng.normal(size=y.shape)
    m = rng.uniform(size=y.shape) < 0.6
    rep1 = gtrain.evaluate(p, y, m)
    p2 = p.copy()
    p2[~m] = 1e6  # garbage where the mask hides the truth
    rep2 = gtrain.evaluate(p2, y, m)
    assert rep1 == rep2


def test_evaluate_empty_horizon_is_nan():
    y = np.ones((2, 3, 12))
    m = np.ones_like(y, dtype=bool)
    m[:, :, 5] = False
    rep = gtrain.evaluate(y, y, m)
    assert math.isnan(rep.horizons[6].mae)
    assert rep.horizons[6].n_observed == 0
    assert rep.horizons[6].n_masked_out == 6


def test_mape_floor_excludes_near_zero_truth():
    y = np.zeros((1, 2, 12))
    p = np.zeros((1, 2, 12))
    y[0, :, 2] = [0.5, 2.0]
    p[0, :, 2] = [1.5, 3.0]
    rep = gtrain.evaluate(p, y, np.ones_like(y, dtype=bool))
    assert rep.horizons[3].mae == pytest.approx(1.0, abs=1e-15)
    assert rep.horizons[3].mape == pytest.approx(50.0, abs=1e-12)


def test_evaluate_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        gtrain.evaluate(np.zeros((1, 2, 12)), np.zeros((1, 2, 12)), np.zeros((1, 2, 11)))


# -------------------------------------------------------------- baseline


def test_ha_constant_series():
    series = observed_series(2 * SLOTS, 2, np.full((2 * SLOTS, 2), 60.0))
    table = ha_table(series)
    assert table.shape == (SLOTS, 2)
    assert np.all(table == 60.0)


def test_ha_slot_means_over_days():
    # day 1 reads slot/10, day 2 reads slot/10 + 2 -> mean slot/10 + 1
    slots = np.arange(SLOTS) / 10.0
    values = np.concatenate([slots, slots + 2.0])
    series = observed_series(2 * SLOTS, 1, values.reshape(-1, 1))
    table = ha_table(series)
    assert np.allclose(table[:, 0], slots + 1.0, atol=1e-12)
    query = TS0 + np.array([0, 17 * STEP, 100 * STEP], dtype=np.int64)
    pred = historical_average(series, query)
    assert np.allclose(pred[:, 0], [1.0, 2.7, 11.0], atol=1e-12)


def test_ha_empty_slot_falls_back_to_sensor_mean():
    values = np.full((SLOTS, 2), 40.0)
    series = observed_series(SLOTS, 2, values)
    series.mask[SLOTS // 2 :, 1] = False
    series.data[SLOTS // 2 :, 1] = 0.0
    series.data[: SLOTS // 2, 1] = 30.0
    table = ha_table(series)
    assert np.all(table[SLOTS // 2 :, 1] == 30.0)  # fallback
    assert np.all(table[: SLOTS // 2, 1] == 30.0)
    assert np.all(table[:, 0] == 40.0)


def test_ha_never_observed_sensor_is_zero():
    series = observed_series(SLOTS, 1, np.full((SLOTS, 1), 50.0))
    series.mask[:] = False
    series.data[:] = 0.0
    assert np.all(ha_table(series) == 0.0)


def test_ha_reproduces_noiseless_daily_pattern():
    t = 3 * SLOTS
    ts = TS0 + STEP * np.arange(t)
    tod = (ts % DAY) / DAY
    wave = 50.0 + 10.0 * np.sin(2 * np.pi * tod)
    series = observed_series(t, 1, wave.reshape(-1, 1))
    query = TS0 + 7 * DAY + STEP * np.arange(0, SLOTS, 13, dtype=np.int64)
    pred = historical_average(series, query)[:, 0]
    truth = 50.0 + 10.0 * np.sin(2 * np.pi * ((query % DAY) / DAY))
    assert np.allclose(pred, truth, atol=1e-10)


def test_ha_depends_only_on_query_time(setup):
    _, _, splits, train_series = setup
    samples = splits.train[:6]
    preds = ha_predictions(train_series, samples)
    assert preds.shape == (6, 5, 12)
    for i, s in enumerate(samples):
        direct = historical_average(train_series, s.target_times).T
        assert np.array_equal(preds[i], direct)
    # overlapping target times across samples agree position for position
    assert samples[0].target_times[1] == samples[1].target_times[0]
    assert np.array_equal(preds[0][:, 1], preds[1][:, 0])


def test_ha_matches_scalar_oracle():
    rng = np.random.default_rng(31)
    t, n = 100, 4
    raw = rng.uniform(10, 70, (t, n, 2))
    mask = rng.uniform(size=(t, n, 2)) < 0.7
    series = gdata.TrafficSeries(
        data=raw * mask,
        mask=mask,
        timestamps=TS0 + STEP * np.arange(t, dtype=np.int64),
    )
    slots = (series.timestamps % DAY) // STEP
    expect = historical_average_scalar(
        series.data[:, :, 0], series.mask[:, :, 0], slots, SLOTS
    )
    assert np.allclose(ha_table(series), expect, atol=1e-12)


def test_ha_rejects_step_not_dividing_day():
    series = observed_series(10, 1, np.full((10, 1), 5.0), step=7)
    with pytest.raises(gdata.DataError):
        ha_table(series)


# --------------------------------------------------------- training loop


def test_lr_zero_keeps_parameters(setup):
    _, _, splits, _ = setup
    model = fresh_model(setup)
    before = {k: t.data.copy() for k, t in model.named_params().items()}
    res = gtrain.train(
        model,
        splits.train[:20],
        splits.val,
        gtrain.TrainConfig(lr=0.0, batch_size=8, max_epochs=2, patience=5, seed=0),
    )
    for k, t in model.named_params().items():
        assert np.array_equal(t.data, before[k]), k
    assert res.epochs_run == 2


def test_early_stopping_on_flat_validation(setup):
    _, _, splits, _ = setup
    model = fresh_model(setup)
    res = gtrain.train(
        model,
        splits.train[:20],
        splits.val,
        gtrain.TrainConfig(lr=0.0, batch_size=8, max_epochs=50, patience=3, seed=0),
    )
    assert res.best_epoch == 1
    assert res.epochs_run == 4  # 1 improving epoch + 3 stale
    assert res.stopped_early
    assert len(res.log_rows) == 4


def test_loss_improves_within_five_epochs(setup):
    _, _, splits, _ = setup
    model = fresh_model(setup)
    res = gtrain.train(
        model,
        splits.train[:40],
        [],
        gtrain.TrainConfig(lr=1e-3, batch_size=16, max_epochs=5, patience=10, seed=1),
    )
    losses = [r["train_loss"] for r in res.log_rows]
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("blank", ["span", "60min"])
def test_train_refuses_validation_without_an_observed_target(setup, blank):
    """Validation windows that observe no target at some horizon would rank
    a NaN metric every epoch and leave the initial parameters behind as the
    best ones. ``train`` raises before its first epoch instead, naming the
    split and the horizon, as ``evaluate`` reports NaN for that horizon."""
    graph, series, splits, train_series = setup
    n_train, n_val, _ = splits.split_sizes
    mask = series.mask.copy()
    if blank == "span":
        mask[n_train : n_train + n_val] = False
    else:  # the 60 min targets of every validation window, not the 15 or 30 min ones
        mask[n_train + 23 : n_train + n_val] = False
    masked = gdata.TrafficSeries(np.where(mask, series.data, 0.0), mask, series.timestamps)
    val = gdata.split_and_window(masked, p=12, q=12).val
    assert len(val) == 3
    horizon = 15 if blank == "span" else 60
    report = gtrain.evaluate(np.zeros((3, 5, 12)), *gtrain.stack_targets(val))
    assert [h * 5 for h, m in report.horizons.items() if math.isnan(m.mae)][0] == horizon
    model = fresh_model(setup)
    before = {k: t.data.copy() for k, t in model.named_params().items()}
    config = gtrain.TrainConfig(lr=5e-3, batch_size=8, max_epochs=3, patience=3, seed=0)
    with pytest.raises(gdata.DataError, match=f"validation split .* {horizon} min horizon"):
        gtrain.train(model, splits.train[:16], val, config)
    assert all(np.array_equal(t.data, before[k]) for k, t in model.named_params().items())


@pytest.mark.parametrize("with_val", [True, False], ids=["with_val", "without_val"])
def test_train_refuses_a_training_split_without_an_observed_target(setup, with_val):
    """Training windows that observe no target give every batch a loss of 0
    and train on nothing. ``train`` raises before its first epoch instead,
    naming the training split, with or without validation windows; one
    observed target is enough to train on."""
    graph, series, splits, train_series = setup
    n_train = splits.split_sizes[0]
    mask = series.mask.copy()
    mask[12:n_train] = False  # every training target; the first inputs stay observed
    masked = gdata.TrafficSeries(np.where(mask, series.data, 0.0), mask, series.timestamps)
    blank = gdata.split_and_window(masked, p=12, q=12)
    assert not gtrain.stack_targets(blank.train)[1].any() and len(blank.val) > 0
    model = fresh_model(setup)
    before = {k: t.data.copy() for k, t in model.named_params().items()}
    config = gtrain.TrainConfig(lr=5e-3, batch_size=8, max_epochs=3, patience=3, seed=0)
    with pytest.raises(gdata.DataError, match="training split observes no target"):
        gtrain.train(model, blank.train, blank.val if with_val else [], config)
    assert all(np.array_equal(t.data, before[k]) for k, t in model.named_params().items())
    mask[n_train - 1, 3] = True  # the last window's 60 min target at one sensor
    masked = gdata.TrafficSeries(np.where(mask, series.data, 0.0), mask, series.timestamps)
    assert not gtrain.observes_no_target(gdata.split_and_window(masked, p=12, q=12).train)


def test_best_snapshot_restored(setup):
    _, _, splits, _ = setup
    model = fresh_model(setup)
    res = gtrain.train(
        model,
        splits.train[:40],
        splits.val,
        gtrain.TrainConfig(lr=5e-3, batch_size=16, max_epochs=8, patience=8, seed=1),
    )
    x_val = gtrain.stack_inputs(splits.val)
    y_val, m_val = gtrain.stack_targets(splits.val)
    rep = gtrain.evaluate(gtrain.predict(model, x_val), y_val, m_val)
    assert rep.mean_mae == pytest.approx(res.best_val_mae, rel=1e-12)
    assert res.val_report is not None
    assert rep.mean_mae <= min(
        np.mean([r["val_mae_15min"], r["val_mae_30min"], r["val_mae_60min"]])
        for r in res.log_rows
    ) + 1e-12


def test_predict_matches_a_recorded_forward_bit_for_bit(setup):
    _, _, splits, _ = setup
    model = fresh_model(setup)
    x = gtrain.stack_inputs(splits.val[:6])
    recorded = gmodel.model_forward(model, x).data
    assert gtrain.predict(model, x).tobytes() == recorded.tobytes()


@pytest.mark.parametrize("count", [63, 64, 65])
def test_predict_over_windows_matches_their_stacked_inputs(setup, count):
    """Windows are predicted in 64-window chunks whose inputs are gathered
    per chunk; the forecasts are those of the stacked inputs, bit for bit."""
    _, _, splits, _ = setup
    model = fresh_model(setup)
    windows = splits.train[::2][:count]
    assert len(windows) == count
    stacked = gtrain.predict(model, gtrain.stack_inputs(windows))
    assert gtrain.predict(model, windows).tobytes() == stacked.tobytes()


def test_predict_does_not_depend_on_what_was_predicted_before(monkeypatch):
    """At N=64 each time group of floors 1-2 holds 128 KiB of scores, so
    attend's memo serves the groups that consecutive windows share. Single
    windows in order, and a chunked predict after them, give the bytes of
    the same calls made with the memo emptied first."""
    graph, series, _ = gdata.generate_synthetic(n=64, t=480, seed=13)
    splits = gdata.split_and_window(series, p=12, q=12)
    cfg = gmodel.StackConfig(
        n=64, group_width=4, h_head=2, h_temporal=2, h_deep=4, h_pe=10, h_e=4
    )
    assert 8 * cfg.h_adj * cfg.h_head * 64 * 64 >= ad._MEMO_MIN_UNIT_BYTES
    train_series = series.slice(0, splits.split_sizes[0])
    model = gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=0)
    windows = splits.test[:70]
    assert len(windows) == 70
    computed = []
    blocks = ad._attend_blocks

    def counting(*args, **kwargs):
        computed.append(None)
        return blocks(*args, **kwargs)

    monkeypatch.setattr(ad, "_attend_blocks", counting)

    def fresh(inputs, batch_size):
        ad._slice_memo().clear()
        return gtrain.predict(model, inputs, batch_size=batch_size)

    ad._slice_memo().clear()
    singles = [gtrain.predict(model, windows[k : k + 1], batch_size=1) for k in range(20)]
    chunked = gtrain.predict(model, windows, batch_size=64)
    with_memo = len(computed)
    for k, single in enumerate(singles):
        assert single.tobytes() == fresh(windows[k : k + 1], 1).tobytes()
    assert chunked.tobytes() == fresh(windows, 64).tobytes()
    assert with_memo < len(computed) - with_memo  # the memo was used


def test_predict_rejects_non_finite_forecasts(setup):
    _, _, splits, _ = setup
    model = fresh_model(setup)
    model.head_b.data[0] = np.inf
    with pytest.raises(ad.NonFiniteError, match="predict"):
        gtrain.predict(model, gtrain.stack_inputs(splits.val[:2]))


def test_restored_model_without_validation_has_the_best_logged_loss(setup):
    """Without validation windows the kept snapshot is ranked by its own
    loss over the training windows, so restoring it gives that loss."""
    _, _, splits, _ = setup
    model = fresh_model(setup)
    samples = splits.train[:20]
    res = gtrain.train(
        model,
        samples,
        [],
        gtrain.TrainConfig(lr=2e-2, batch_size=8, max_epochs=12, patience=3, seed=0),
    )
    assert res.best_epoch < res.epochs_run  # later epochs were rolled back
    best = min(r["stop_metric"] for r in res.log_rows)
    assert res.log_rows[res.best_epoch - 1]["stop_metric"] == best
    x = gtrain.stack_inputs(samples)
    y, msk = gtrain.stack_targets(samples)
    assert gtrain.batch_smooth_l1(gmodel.model_forward(model, x), y, msk).item() == best


def test_overfits_two_windows(setup):
    """Enough optimization signal to memorize a two-window training set."""
    _, _, splits, _ = setup
    model = fresh_model(setup)
    samples = splits.train[:2]
    gtrain.train(
        model,
        samples,
        [],
        gtrain.TrainConfig(lr=1e-2, batch_size=2, max_epochs=800, patience=800, seed=0),
    )
    x = gtrain.stack_inputs(samples)
    y, msk = gtrain.stack_targets(samples)
    final = gtrain.batch_smooth_l1(gmodel.model_forward(model, x), y, msk).item()
    assert final < 1e-3


def test_training_is_deterministic(setup):
    _, _, splits, _ = setup

    def run():
        model = fresh_model(setup)
        res = gtrain.train(
            model,
            splits.train[:30],
            splits.val,
            gtrain.TrainConfig(lr=1e-3, batch_size=16, max_epochs=3, patience=5, seed=4),
        )
        return model, res

    m1, r1 = run()
    m2, r2 = run()
    for (k, a), b in zip(m1.named_params().items(), m2.named_params().values()):
        assert np.array_equal(a.data, b.data), k
    for ra, rb in zip(r1.log_rows, r2.log_rows):
        for col in gtrain.LOG_COLUMNS:
            if col != "wall_time_s":  # the one wall-clock column
                assert ra[col] == rb[col], col


def test_vertex_encoding_receives_gradient(setup):
    model = fresh_model(setup)
    _, _, splits, _ = setup
    before = model.enc.data.copy()
    gtrain.train(
        model,
        splits.train[:10],
        [],
        gtrain.TrainConfig(lr=1e-3, batch_size=8, max_epochs=1, patience=5, seed=0),
    )
    assert not np.array_equal(model.enc.data, before)


def test_divergence_reports_epoch(setup):
    _, _, splits, _ = setup
    model = fresh_model(setup)
    model.head_w.data[...] = np.nan
    with pytest.raises(gtrain.TrainingDiverged, match="epoch 1"):
        gtrain.train(
            model,
            splits.train[:4],
            [],
            gtrain.TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, patience=5, seed=0),
        )


@pytest.fixture(scope="module")
def small_shape():
    """The benchmark's train-small model shape: N=15, the acceptance widths."""
    graph, series, _ = gdata.generate_synthetic(n=15, t=400, seed=7)
    splits = gdata.split_and_window(series, p=12, q=12)
    cfg = gmodel.StackConfig(
        n=15, group_width=4, h_head=2, h_temporal=2, h_deep=4, h_pe=10, h_e=4
    )
    train_series = series.slice(0, splits.split_sizes[0])
    return lambda: gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=0), splits


def _traced_peak(fn) -> int:
    """The peak growth of traced memory while ``fn()`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_backward_frees_the_recorded_graph(small_shape):
    build, splits = small_shape
    model = build()
    x = gtrain.stack_inputs(splits.train[:32])
    y, m = gtrain.stack_targets(splits.train[:32])
    gtrain.batch_smooth_l1(gmodel.model_forward(model, x), y, m).backward()  # fills caches
    model.zero_grad()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = gtrain.batch_smooth_l1(gmodel.model_forward(model, x), y, m)
        recorded = tracemalloc.get_traced_memory()[0] - base
        loss.backward()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    grads = sum(t.grad.nbytes for t in model.named_params().values())
    assert recorded > 20 * grads  # a batch-32 graph holds tens of MB
    assert held <= grads + 256 * 1024  # while ``loss`` is still bound


def test_train_holds_one_step_graph_at_a_time(small_shape):
    build, splits = small_shape
    config = gtrain.TrainConfig(lr=1e-3, batch_size=32, max_epochs=1, patience=1)
    val = splits.val[:2]
    one_step = _traced_peak(lambda: gtrain.train(build(), splits.train[:32], val, config))
    three_steps = _traced_peak(lambda: gtrain.train(build(), splits.train[:96], val, config))
    assert three_steps < 1.3 * one_step


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
@pytest.mark.parametrize("keep", [False, True])
def test_freed_step_memory_stays_in_the_heap(keep):
    """A fresh process that allocates and frees 16 MiB of arrays per step
    faults every step's pages in again under glibc's default thresholds,
    and none once ``keep_freed_heap`` (which ``train`` calls) has run."""
    script = textwrap.dedent(
        """
        import resource, sys
        import numpy as np
        from glgat.training import keep_freed_heap
        if sys.argv[1] == "1":
            keep_freed_heap()
        def step():
            arrays = [np.ones(1 << 18) for _ in range(8)]  # 8 arrays of 2 MiB
            del arrays
        for _ in range(3):
            step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            step()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    src = str(Path(gtrain.__file__).resolve().parents[1])
    # glibc's defaults, whatever the environment asks of its allocator
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", script, str(int(keep))],
        env=env, capture_output=True, text=True, check=True,
    )
    faults = int(out.stdout.split()[-1])
    if keep:
        assert faults < 100
    else:
        assert faults > 1000  # the default heuristic this guards against


def test_train_copies_one_batch_of_windows_at_a_time():
    """Each batch and prediction chunk assembles its inputs from the split's
    raw copy. At this shape (16 features, so 33 input channels) the stacked
    training inputs would be several times one step's graph."""
    graph, series, _ = gdata.generate_synthetic(n=4, t=1200, seed=5)
    wide = gdata.TrafficSeries(
        data=np.repeat(series.data, 16, axis=2),
        mask=np.repeat(series.mask, 16, axis=2),
        timestamps=series.timestamps,
    )
    splits = gdata.split_and_window(wide, p=12, q=12, ratios=(0.5, 0.4, 0.1))
    cfg = gmodel.StackConfig(
        n=4, k_in=gdata.input_channels(16), group_width=2, h_head=1, h_temporal=1,
        h_deep=1, h_pe=0, h_e=0,
    )
    train_series = wide.slice(0, splits.split_sizes[0])
    model = gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=0)
    config = gtrain.TrainConfig(lr=1e-3, batch_size=8, max_epochs=1, patience=1)
    x = gtrain.stack_inputs(splits.train[:8])
    y, m = gtrain.stack_targets(splits.train[:8])
    step = _traced_peak(lambda: gtrain.batch_smooth_l1(gmodel.model_forward(model, x), y, m))
    stacked = gtrain.stack_inputs(splits.train).nbytes
    assert stacked > 4 * step

    peak = _traced_peak(lambda: gtrain.train(model, splits.train, splits.val[:8], config))
    assert peak < stacked / 2

    # validation predicts in 64-window chunks: more validation windows add
    # their forecasts and targets to the peak, never their inputs
    one_chunk = _traced_peak(lambda: gtrain.train(model, splits.train[:8], splits.val[:64], config))
    whole = _traced_peak(lambda: gtrain.train(model, splits.train[:8], splits.val, config))
    added = gtrain.stack_inputs(splits.val[64:]).nbytes
    assert len(splits.val) > 6 * 64 and whole - one_chunk < added


def test_predict_holds_one_copy_of_its_forecasts_plus_a_chunk():
    """Each chunk's forecasts go straight into the result, so a whole-split
    predict never holds the chunks and their concatenation at once."""
    graph, series, _ = gdata.generate_synthetic(n=4, t=6000, seed=5)
    splits = gdata.split_and_window(series, p=12, q=12)
    cfg = gmodel.StackConfig(
        n=4, group_width=2, h_head=1, h_temporal=1, h_deep=1, h_pe=0, h_e=0
    )
    train_series = series.slice(0, splits.split_sizes[0])
    model = gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=0)
    inputs = splits.train
    gtrain.predict(model, inputs, batch_size=16)  # warm-up
    chunk = _traced_peak(lambda: gtrain.predict(model, inputs[:16], batch_size=16))
    peak = _traced_peak(lambda: gtrain.predict(model, inputs, batch_size=16))
    forecasts = len(inputs) * cfg.n * cfg.q * 8
    assert forecasts > 4 * chunk
    # the finiteness check's mask over the forecasts takes a byte per value
    assert peak < forecasts + forecasts // 8 + 2 * chunk
    with pytest.raises(ValueError):
        gtrain.predict(model, [])


def test_log_csv_round_trip(tmp_path, setup):
    _, _, splits, _ = setup
    model = fresh_model(setup)
    res = gtrain.train(
        model,
        splits.train[:10],
        splits.val,
        gtrain.TrainConfig(lr=1e-3, batch_size=8, max_epochs=3, patience=5, seed=0),
    )
    path = tmp_path / "log.csv"
    gtrain.write_log(res.log_rows, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == res.epochs_run
    assert tuple(rows[0].keys()) == gtrain.LOG_COLUMNS
    assert [int(r["epoch"]) for r in rows] == list(range(1, res.epochs_run + 1))
    assert float(rows[0]["train_loss"]) == pytest.approx(res.log_rows[0]["train_loss"])


def test_train_config_validation(setup):
    for lr in (-1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            gtrain.TrainConfig(lr=lr)
    for clip_norm in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gtrain.TrainConfig(clip_norm=clip_norm)
    assert gtrain.TrainConfig(clip_norm=5.0).clip_norm == 5.0
    with pytest.raises(ValueError):
        gtrain.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        gtrain.TrainConfig(patience=0)
    with pytest.raises(gdata.DataError):
        gtrain.train(fresh_model(setup), [], [], gtrain.TrainConfig())
