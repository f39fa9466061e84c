"""Training loop, loss, optimizer, metrics, and the historical-average baseline.

Everything runs single-threaded and is deterministic under the run seed:
batch order comes from a seeded generator, parameter updates iterate in a
fixed order, and checkpoints contain no timestamps. The only wall-clock
values live in clearly marked log columns.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import DataError, TrafficSeries, WindowedSample
from .model import GlgatModel, model_forward

HORIZONS = (3, 6, 12)  # steps of 5 minutes: 15, 30, 60 min
MAPE_FLOOR = 1.0  # |truth| below this is excluded from the percentage error
LOG_COLUMNS = (
    "epoch",
    "train_loss",
    "val_mae_15min",
    "val_mae_30min",
    "val_mae_60min",
    "wall_time_s",
)


class TrainingDiverged(ArithmeticError):
    """Loss or gradients left the finite range during training."""


# ---------------------------------------------------------------- loss


def smooth_l1(pred: ad.DiffTensor, target, mask) -> ad.DiffTensor:
    """Masked mean of the smooth-L1 kernel; gradient flows to pred only.

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


def batch_smooth_l1(pred: ad.DiffTensor, target, mask) -> ad.DiffTensor:
    """Mean over axis 0 of per-sample masked smooth-L1 means.

    Weighting each sample by its own observed count keeps the batch
    gradient exactly the average of per-sample gradients, whatever the
    per-sample missingness.
    """
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if target.shape != pred.shape or mask.shape != pred.shape:
        raise ad.ShapeError("batch_smooth_l1: pred, target and mask shapes must match")
    b = pred.shape[0]
    counts = mask.reshape(b, -1).sum(axis=1)
    if np.any(counts == 0):
        warnings.warn("batch_smooth_l1: sample with no observed elements", stacklevel=2)
    safe = np.maximum(counts, 1)
    weights = mask / safe.reshape((b,) + (1,) * (mask.ndim - 1)) / b
    return ad.reduce_sum(ad.huber(pred - ad.constant(target)) * ad.constant(weights))


# --------------------------------------------------------------- optimizer


@dataclass
class AdamState:
    """Bias-corrected Adam moments for a named parameter set."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, ad.DiffTensor],
    state: AdamState,
    clip_norm: float | None = None,
) -> None:
    """One in-place update from the gradients stored on the parameters.

    Missing gradients count as zero. Non-finite gradients abort with the
    offending tensor's name. ``clip_norm`` rescales the global gradient
    norm when it exceeds the threshold.
    """
    names = sorted(params)
    grads = {}
    for name in names:
        t = params[name]
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            raise ad.NonFiniteError(f"adam_step: non-finite gradient in {name!r}")
        grads[name] = g

    if clip_norm is not None:
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if total > clip_norm:
            factor = clip_norm / total
            grads = {k: g * factor for k, g in grads.items()}

    state.step += 1
    t = state.step
    correction1 = 1.0 - state.beta1**t
    correction2 = 1.0 - state.beta2**t
    for name in names:
        p = params[name]
        g = grads[name]
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        # in place, in the operand order of
        # m += (1 - beta1) * (g - m); v += (1 - beta2) * (g * g - v);
        # p -= lr * m_hat / (sqrt(v_hat) + eps)
        d = g - m
        d *= 1.0 - state.beta1
        m += d
        d = g * g
        d -= v
        d *= 1.0 - state.beta2
        v += d
        step = m / correction1
        step *= state.lr
        d = v / correction2
        np.sqrt(d, out=d)
        d += state.eps
        step /= d
        p.data -= step


# ----------------------------------------------------------------- metrics


@dataclass(frozen=True)
class HorizonMetrics:
    mae: float
    rmse: float
    mape: float  # percentage
    n_observed: int
    n_masked_out: int


@dataclass(frozen=True)
class EvalReport:
    horizons: dict[int, HorizonMetrics]

    def table(self, label: str = "") -> str:
        lines = []
        if label:
            lines.append(label)
        lines.append(f"{'horizon':>8} {'MAE':>10} {'RMSE':>10} {'MAPE %':>10}")
        for h, m in sorted(self.horizons.items()):
            lines.append(f"{h * 5:>5} min {m.mae:>10.4f} {m.rmse:>10.4f} {m.mape:>10.4f}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            f"{h * 5}min": {
                "mae": m.mae,
                "rmse": m.rmse,
                "mape": m.mape,
                "n_observed": m.n_observed,
                "n_masked_out": m.n_masked_out,
            }
            for h, m in self.horizons.items()
        }

    @property
    def mean_mae(self) -> float:
        return float(np.mean([m.mae for m in self.horizons.values()]))


def evaluate(preds: np.ndarray, targets: np.ndarray, masks: np.ndarray) -> EvalReport:
    """MAE / RMSE / MAPE per horizon over mask-true elements.

    All three arrays are (samples, N, Q). The metric at horizon h uses
    column h-1. MAPE excludes elements whose true value is below
    ``MAPE_FLOOR`` in magnitude; a horizon with no valid elements reports
    NaN.
    """
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    if preds.shape != targets.shape or preds.shape != masks.shape:
        raise ad.ShapeError("evaluate: preds, targets, masks must share a shape")
    out = {}
    for h in HORIZONS:
        y = targets[:, :, h - 1]
        yhat = preds[:, :, h - 1]
        m = masks[:, :, h - 1]
        n_obs = int(m.sum())
        n_hidden = int(m.size - n_obs)
        if n_obs == 0:
            out[h] = HorizonMetrics(math.nan, math.nan, math.nan, 0, n_hidden)
            continue
        diff = yhat[m] - y[m]
        mae = float(np.abs(diff).mean())
        rmse = float(np.sqrt((diff**2).mean()))
        big = np.abs(y[m]) >= MAPE_FLOOR
        if big.any():
            mape = float(100.0 * (np.abs(diff[big]) / np.abs(y[m][big])).mean())
        else:
            mape = math.nan
        out[h] = HorizonMetrics(mae, rmse, mape, n_obs, n_hidden)
    return EvalReport(horizons=out)


# --------------------------------------------------------------- baseline


def ha_table(train: TrafficSeries, feature: int = 0) -> np.ndarray:
    """(slots_per_day, N) mean observed reading per time-of-day slot.

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


def historical_average(
    train: TrafficSeries, query_times: np.ndarray, feature: int = 0
) -> np.ndarray:
    """Baseline forecast per (query timestamp, sensor); (len(q), N)."""
    table = ha_table(train, feature)
    step = int(train.timestamps[1] - train.timestamps[0])
    slots = (np.asarray(query_times, dtype=np.int64) % 86400) // step
    return table[slots]


def ha_predictions(train: TrafficSeries, samples: list[WindowedSample]) -> np.ndarray:
    """Baseline forecasts shaped like model output, (S, N, Q)."""
    table = ha_table(train)
    step = int(train.timestamps[1] - train.timestamps[0])
    out = np.empty((len(samples), train.n_vertices, samples[0].target.shape[0]))
    for i, s in enumerate(samples):
        slots = (s.target_times % 86400) // step
        out[i] = table[slots].T
    return out


# ---------------------------------------------------------------- training


def stack_inputs(samples: list[WindowedSample]) -> np.ndarray:
    return np.stack([s.input for s in samples])


def stack_targets(samples: list[WindowedSample], feature: int = 0):
    """Targets and masks rearranged to model layout (S, N, Q)."""
    targets = np.stack([s.target[:, :, feature].T for s in samples])
    masks = np.stack([s.target_mask[:, :, feature].T for s in samples])
    return targets, masks


def predict(model: GlgatModel, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Raw-scale forecasts (S, N, Q) computed in evaluation-sized chunks."""
    with ad.no_grad():
        chunks = [
            model_forward(model, inputs[i : i + batch_size]).data
            for i in range(0, len(inputs), batch_size)
        ]
    preds = np.concatenate(chunks, axis=0)
    ad.require_finite(preds, "predict")
    return preds


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    clip_norm: float | None = None  # off by default; 5.0 is the guard value

    def __post_init__(self):
        # a clip_norm <= 0 would turn the Adam step into gradient ascent
        bad_clip = self.clip_norm is not None and not 0.0 < self.clip_norm < math.inf
        if (
            not 0.0 <= self.lr < math.inf
            or bad_clip
            or min(self.batch_size, self.max_epochs, self.patience) < 1
        ):
            raise ValueError(f"invalid training configuration {self}")


@dataclass
class TrainResult:
    best_epoch: int
    best_val_mae: float
    epochs_run: int
    stopped_early: bool
    log_rows: list[dict]
    val_report: EvalReport | None


def write_log(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def train(
    model: GlgatModel,
    train_samples: list[WindowedSample],
    val_samples: list[WindowedSample],
    config: TrainConfig,
) -> TrainResult:
    """Mini-batch Adam with early stopping on validation MAE.

    The model ends up holding the best-validation parameters (the final
    epochs are rolled back if they did not improve). When there are no
    validation windows, the training loss drives stopping instead.
    """
    if not train_samples:
        raise DataError("training requires at least one window")
    x_train = stack_inputs(train_samples)
    y_train, m_train = stack_targets(train_samples)
    have_val = bool(val_samples)
    if have_val:
        x_val = stack_inputs(val_samples)
        y_val, m_val = stack_targets(val_samples)

    params = model.named_params()
    state = AdamState(lr=config.lr)
    rng = np.random.default_rng(config.seed)
    n = len(train_samples)

    best_metric = math.inf
    best_epoch = 0
    best_snapshot = {k: t.data.copy() for k, t in params.items()}
    best_report: EvalReport | None = None
    rows: list[dict] = []
    stale = 0
    epoch = 0

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            try:
                preds = model_forward(model, x_train[idx])
                loss = batch_smooth_l1(preds, y_train[idx], m_train[idx])
                model.zero_grad()
                loss.backward()
            except ad.NonFiniteError as exc:
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}: {exc}; "
                    f"last finite checkpoint is epoch {best_epoch}"
                ) from exc
            adam_step(params, state, clip_norm=config.clip_norm)
            losses.append(loss.item())
        train_loss = float(np.mean(losses))

        report = None
        if have_val:
            report = evaluate(predict(model, x_val), y_val, m_val)
            metric = report.mean_mae
        else:
            metric = train_loss
        rows.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_mae_15min": report.horizons[3].mae if report else math.nan,
                "val_mae_30min": report.horizons[6].mae if report else math.nan,
                "val_mae_60min": report.horizons[12].mae if report else math.nan,
                "wall_time_s": time.perf_counter() - t0,
            }
        )

        if metric < best_metric:
            best_metric = metric
            best_epoch = epoch
            best_snapshot = {k: t.data.copy() for k, t in params.items()}
            best_report = report
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    for k, t in params.items():
        t.data[:] = best_snapshot[k]
    return TrainResult(
        best_epoch=best_epoch,
        best_val_mae=best_metric if have_val else math.nan,
        epochs_run=epoch,
        stopped_early=epoch < config.max_epochs,
        log_rows=rows,
        val_report=best_report,
    )
