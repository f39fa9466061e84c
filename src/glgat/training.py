"""Training loop, loss, optimizer and metrics.

Everything runs single-threaded and is deterministic under the run seed:
batch order comes from a seeded generator, parameter updates iterate in a
fixed order, and checkpoints contain no timestamps. The only wall-clock
values live in clearly marked log columns.
"""

from __future__ import annotations

import csv
import ctypes
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import DataError, Windows
from .model import N_GROUPS, GlgatModel, model_forward

HORIZONS = (3, 6, 12)  # steps of 5 minutes: 15, 30, 60 min
MAPE_FLOOR = 1.0  # |truth| below this is excluded from the percentage error
LOG_COLUMNS = (
    "epoch",
    "train_loss",
    "val_mae_15min",
    "val_mae_30min",
    "val_mae_60min",
    "stop_metric",
    "wall_time_s",
)


def keep_freed_heap() -> None:
    """Keep freed memory in the heap from one training step to the next.

    A step frees its whole record in backward and allocates it again in the
    next forward. glibc's malloc gives a free heap top back to the OS past a
    trim threshold that it raises only as large mmapped blocks come and go,
    so how much each step trims and faults in again depends on the heap's
    history: 80,000-140,000 page faults per epoch at N=15 (acceptance widths,
    batch 32). This fixes ``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD`` at
    the values that heuristic tops out at, 32 and 64 MiB, for the whole
    process. On a C library without ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


class TrainingDiverged(ArithmeticError):
    """Loss or gradients left the finite range during training."""


# ---------------------------------------------------------------- loss


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


# Adam's moment decay rates and denominator floor, Kingma and Ba's defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments for a named parameter set."""

    lr: float = 1e-4
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
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
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
        d *= 1.0 - ADAM_BETA1
        m += d
        d = g * g
        d -= v
        d *= 1.0 - ADAM_BETA2
        v += d
        step = m / correction1
        step *= state.lr
        d = v / correction2
        np.sqrt(d, out=d)
        d += ADAM_EPS
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


def unobserved_horizons(masks: np.ndarray) -> list[int]:
    """The horizons at which the (samples, N, Q) ``masks`` observe no target:
    ``evaluate`` reports NaN there, and ``train`` refuses such a validation split."""
    return [h for h in HORIZONS if not masks[:, :, h - 1].any()]


def observes_no_target(samples: Windows) -> bool:
    """Whether no window of ``samples`` observes a target, read per step of
    the split's mask without gathering the windows' targets: ``train``
    refuses such a training split, whose every batch loss would be 0."""
    observed = samples.mask[:, :, 0].any(axis=1)  # (L,): a sensor reads at that step
    return not observed[samples.target_steps()].any()


def evaluate(preds: np.ndarray, targets: np.ndarray, masks: np.ndarray) -> EvalReport:
    """MAE / RMSE / MAPE per horizon over mask-true elements.

    All three arrays are (samples, N, Q). The metric at horizon h uses
    column h-1. MAPE excludes elements whose true value is below
    ``MAPE_FLOOR`` in magnitude; a horizon with no valid elements (see
    ``unobserved_horizons``) reports NaN.
    """
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    if preds.shape != targets.shape or preds.shape != masks.shape:
        raise ad.ShapeError("evaluate: preds, targets, masks must share a shape")
    unobserved = unobserved_horizons(masks)
    out = {}
    for h in HORIZONS:
        y = targets[:, :, h - 1]
        yhat = preds[:, :, h - 1]
        m = masks[:, :, h - 1]
        n_obs = int(m.sum())
        n_hidden = int(m.size - n_obs)
        if h in unobserved:
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


# ---------------------------------------------------------------- training


def stack_inputs(samples: Windows) -> np.ndarray:
    """Inputs of the windows in model layout (S, P, N, 2K+1), gathered in one step."""
    return samples.inputs()


def stack_targets(samples: Windows):
    """Targets and masks of the first feature in model layout (S, N, Q)."""
    steps = samples.target_steps()[:, None, :]  # (S, 1, Q)
    vertices = np.arange(samples.data.shape[1])[:, None]  # (N, 1)
    return samples.data[steps, vertices, 0], samples.mask[steps, vertices, 0]


def predict(model: GlgatModel, inputs, batch_size: int = 64) -> np.ndarray:
    """Raw-scale forecasts (S, N, Q) computed in evaluation-sized chunks.

    ``inputs`` is one (S, 12, N, 2K+1) array or the ``Windows`` of S
    windows, whose inputs are gathered one chunk at a time. Each chunk's
    forecasts go straight into the result."""
    if not len(inputs):
        raise ValueError("need at least one window to predict")
    preds = np.empty((len(inputs), model.config.n, N_GROUPS))
    with ad.no_grad():
        for i in range(0, len(inputs), batch_size):
            chunk = inputs[i : i + batch_size]
            x = stack_inputs(chunk) if isinstance(chunk, Windows) else np.asarray(chunk)
            preds[i : i + batch_size] = model_forward(model, x).data
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
    train_samples: Windows,
    val_samples: Windows,
    config: TrainConfig,
) -> TrainResult:
    """Mini-batch Adam with early stopping on validation MAE.

    The model ends up holding the best-validation parameters (the final
    epochs are rolled back if they did not improve). When there are no
    validation windows, the smooth-L1 loss of the parameters at the end of
    each epoch over all training windows drives stopping instead. Either
    way the value ranked is logged as ``stop_metric``. Validation windows
    with no observed target at some horizon would rank a NaN metric every
    epoch, and training windows with no observed target at all would train
    on nothing, so either raises ``DataError`` before the first epoch.
    """
    if not train_samples:
        raise DataError("training requires at least one window")
    if observes_no_target(train_samples):
        raise DataError("the training split observes no target, so every batch loss would be 0")
    keep_freed_heap()
    # each batch and prediction chunk assembles its inputs from the split's
    # raw copy, so no split's inputs are ever held whole; only the targets
    # that the stopping metric reads are gathered once
    have_val = bool(val_samples)
    if have_val:
        y_val, m_val = stack_targets(val_samples)
        unobserved = unobserved_horizons(m_val)
        if unobserved:
            raise DataError(
                f"the validation split observes no target at the {unobserved[0] * 5} min "
                "horizon, so early stopping would rank a NaN metric"
            )
    else:
        y_fit, m_fit = stack_targets(train_samples)

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
            batch = train_samples[order[lo : lo + config.batch_size]]
            try:
                loss = batch_smooth_l1(
                    model_forward(model, stack_inputs(batch)), *stack_targets(batch)
                )
                model.zero_grad()
                loss.backward()  # frees the step's graph as it goes
            except ad.NonFiniteError as exc:
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}: {exc}; "
                    f"last finite checkpoint is epoch {best_epoch}"
                ) from exc
            losses.append(loss.item())
            del loss  # nothing of this step lives into the next one's forward
            adam_step(params, state, clip_norm=config.clip_norm)
        train_loss = float(np.mean(losses))

        report = None
        if have_val:
            report = evaluate(predict(model, val_samples), y_val, m_val)
            metric = report.mean_mae
        else:
            with ad.no_grad():
                fit = batch_smooth_l1(ad.constant(predict(model, train_samples)), y_fit, m_fit)
            metric = fit.item()
        rows.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_mae_15min": report.horizons[3].mae if report else math.nan,
                "val_mae_30min": report.horizons[6].mae if report else math.nan,
                "val_mae_60min": report.horizons[12].mae if report else math.nan,
                "stop_metric": metric,
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
