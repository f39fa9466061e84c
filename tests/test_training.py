"""Loss, optimizer, metrics, baseline, and the training loop."""

import csv
import math

import numpy as np
import pytest

from glgat import autodiff as ad
from glgat import data as gdata
from glgat import model as gmodel
from glgat import training as gtrain
from glgat.gradcheck import check_gradients
from oracles import historical_average_scalar, metrics_scalar, smooth_l1_scalar

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
    loss = gtrain.smooth_l1(pred, target, mask)
    expect = np.mean([smooth_l1_scalar(d) for d in (0.0, 2.0, -2.0, 0.5)])
    assert loss.item() == pytest.approx(expect, abs=1e-15)

    zero = gtrain.smooth_l1(ad.parameter([3.0]), np.array([3.0]), np.array([True]))
    assert zero.item() == 0.0
    single = gtrain.smooth_l1(ad.parameter([2.0]), np.array([0.0]), np.array([True]))
    assert single.item() == pytest.approx(1.5, abs=1e-15)


def test_smooth_l1_gradient_both_branches():
    # entries straddle the quadratic / linear crossover at |d| = 1
    pred = ad.parameter([-3.0, -0.5, 0.5, 3.0])
    target = np.zeros(4)
    mask = np.ones(4, dtype=bool)
    report = check_gradients(
        lambda: gtrain.smooth_l1(pred, target, mask), {"pred": pred}
    )
    assert report.passed, report.summary()
    gtrain.smooth_l1(pred, target, mask).backward()
    assert np.allclose(pred.grad, [-0.25, -0.125, 0.125, 0.25], atol=1e-15)


def test_smooth_l1_respects_mask():
    pred = ad.parameter([1.0, 100.0])
    mask = np.array([True, False])
    loss = gtrain.smooth_l1(pred, np.zeros(2), mask)
    assert loss.item() == pytest.approx(0.5, abs=1e-15)
    loss.backward()
    assert pred.grad[1] == 0.0


def test_smooth_l1_empty_mask_warns():
    pred = ad.parameter([1.0, 2.0])
    with pytest.warns(UserWarning):
        loss = gtrain.smooth_l1(pred, np.zeros(2), np.zeros(2, dtype=bool))
    assert loss.item() == 0.0


def test_smooth_l1_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        gtrain.smooth_l1(ad.parameter([1.0]), np.zeros(2), np.ones(2, dtype=bool))


def test_batch_loss_is_mean_of_per_sample_means():
    rng = np.random.default_rng(5)
    pred = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 4))
    mask = rng.uniform(size=(3, 4)) < 0.7
    mask[0] = [True, False, False, False]  # uneven per-sample counts
    batched = gtrain.batch_smooth_l1(ad.parameter(pred), target, mask).item()
    per_sample = [
        gtrain.smooth_l1(ad.parameter(pred[i]), target[i], mask[i]).item()
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
        gtrain.smooth_l1(gmodel.model_forward(model, x[i]), y[i], msk[i]).backward()
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
    table = gtrain.ha_table(series)
    assert table.shape == (SLOTS, 2)
    assert np.all(table == 60.0)


def test_ha_slot_means_over_days():
    # day 1 reads slot/10, day 2 reads slot/10 + 2 -> mean slot/10 + 1
    slots = np.arange(SLOTS) / 10.0
    values = np.concatenate([slots, slots + 2.0])
    series = observed_series(2 * SLOTS, 1, values.reshape(-1, 1))
    table = gtrain.ha_table(series)
    assert np.allclose(table[:, 0], slots + 1.0, atol=1e-12)
    query = TS0 + np.array([0, 17 * STEP, 100 * STEP], dtype=np.int64)
    pred = gtrain.historical_average(series, query)
    assert np.allclose(pred[:, 0], [1.0, 2.7, 11.0], atol=1e-12)


def test_ha_empty_slot_falls_back_to_sensor_mean():
    values = np.full((SLOTS, 2), 40.0)
    series = observed_series(SLOTS, 2, values)
    series.mask[SLOTS // 2 :, 1] = False
    series.data[SLOTS // 2 :, 1] = 0.0
    series.data[: SLOTS // 2, 1] = 30.0
    table = gtrain.ha_table(series)
    assert np.all(table[SLOTS // 2 :, 1] == 30.0)  # fallback
    assert np.all(table[: SLOTS // 2, 1] == 30.0)
    assert np.all(table[:, 0] == 40.0)


def test_ha_never_observed_sensor_is_zero():
    series = observed_series(SLOTS, 1, np.full((SLOTS, 1), 50.0))
    series.mask[:] = False
    series.data[:] = 0.0
    assert np.all(gtrain.ha_table(series) == 0.0)


def test_ha_reproduces_noiseless_daily_pattern():
    t = 3 * SLOTS
    ts = TS0 + STEP * np.arange(t)
    tod = (ts % DAY) / DAY
    wave = 50.0 + 10.0 * np.sin(2 * np.pi * tod)
    series = observed_series(t, 1, wave.reshape(-1, 1))
    query = TS0 + 7 * DAY + STEP * np.arange(0, SLOTS, 13, dtype=np.int64)
    pred = gtrain.historical_average(series, query)[:, 0]
    truth = 50.0 + 10.0 * np.sin(2 * np.pi * ((query % DAY) / DAY))
    assert np.allclose(pred, truth, atol=1e-10)


def test_ha_depends_only_on_query_time(setup):
    _, _, splits, train_series = setup
    samples = splits.train[:6]
    preds = gtrain.ha_predictions(train_series, samples)
    assert preds.shape == (6, 5, 12)
    for i, s in enumerate(samples):
        direct = gtrain.historical_average(train_series, s.target_times).T
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
    assert np.allclose(gtrain.ha_table(series), expect, atol=1e-12)


def test_ha_rejects_step_not_dividing_day():
    series = observed_series(10, 1, np.full((10, 1), 5.0), step=7)
    with pytest.raises(gdata.DataError):
        gtrain.ha_table(series)


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


def test_predict_rejects_non_finite_forecasts(setup):
    _, _, splits, _ = setup
    model = fresh_model(setup)
    model.head_b.data[0] = np.inf
    with pytest.raises(ad.NonFiniteError, match="predict"):
        gtrain.predict(model, gtrain.stack_inputs(splits.val[:2]))


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
