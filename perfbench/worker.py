"""One glgat benchmark workload, run in a fresh process.

``run.py`` writes the workload's CSV inputs before anything is timed, then
starts this file:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --data DIR --scratch DIR

The worker sees only the CSV files in DIR. It prints a report and, as its
last line, the JSON result. It exits 0 when every correctness check
passed and 1 when one failed; failed checks are counted, never raised.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
runs a fixed amount of the workload three times: a warm-up, a traced pass
and an untraced pass. It reports the per-layer metrics of the traced pass
and the tracing overhead, the traced pass's wall time minus the untraced
one's.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from glgat import autodiff as gad  # noqa: E402
from glgat import data as gdata  # noqa: E402
from glgat import gradcheck as ggrad  # noqa: E402
from glgat import model as gmodel  # noqa: E402
from glgat import training as gtrain  # noqa: E402

from pace import REFERENCE_S as PACE_REFERENCE_S  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import Tracer  # noqa: E402

# The widths of the acceptance tests and `glgat gradcheck`; the reference
# widths are the StackConfig defaults, which `glgat train` also defaults to.
ACCEPTANCE = dict(group_width=4, h_head=2, h_temporal=2, h_deep=4, h_pe=10, h_e=4)
REFERENCE: dict = {}


@dataclass(frozen=True)
class TrainPlan:
    lr: float
    batch_size: int
    epochs: int  # per round; patience is set to epochs, so every epoch runs
    stride: int = 2  # train() receives splits.train[::stride]


@dataclass(frozen=True)
class Workload:
    n: int
    t: int
    widths: dict
    rounds: int  # rounds per untraced run, each on a fresh set-up
    setups: int  # set-ups per round; setup_s is the median of all of them
    checkpoints: int  # save+load round trips per round
    trace_forecasts: int  # forecasts in each pass of a traced run
    train: TrainPlan | None = None
    gradcheck: bool = False
    evaluate: bool = True  # predict over the test split in 64-window chunks
    forecast_share: float = 0.2  # share of --seconds spent forecasting


WORKLOADS = {
    "gradcheck": Workload(
        n=6, t=240, widths=ACCEPTANCE, rounds=3, setups=5, checkpoints=3,
        trace_forecasts=50, gradcheck=True,
    ),
    "train-small": Workload(
        n=15, t=2000, widths=ACCEPTANCE, rounds=2, setups=3, checkpoints=3,
        trace_forecasts=50, train=TrainPlan(lr=5e-3, batch_size=32, epochs=1),
    ),
    "train-wide": Workload(
        n=15, t=2000, widths=REFERENCE, rounds=1, setups=5, checkpoints=1,
        trace_forecasts=20, train=TrainPlan(lr=1e-4, batch_size=16, epochs=1),
    ),
    # Batch-64 predict is left out here: see the known unmeasured case in
    # README.md.
    "metr-forecast": Workload(
        n=207, t=34272, widths=ACCEPTANCE, rounds=1, setups=2, checkpoints=3,
        trace_forecasts=12, evaluate=False, forecast_share=0.75,
    ),
}

# glgat_forward calls inside one model_forward, in model order
FLOORS = ("layer1", "layer2", "layer4", "layer5", "layer6")
OPS = (
    "add", "sub", "mul", "scale", "matmul", "transpose_last", "swap_axes",
    "reshape", "broadcast_to", "slice_tensor", "concat", "reduce_sum", "gelu",
    "huber", "masked_softmax", "bank_apply", "pairwise_scores",
)
# Per-layer numbers that only some workloads exercise. They are printed but
# kept out of the JSON result, whose per-layer keys every workload fills.
WORKLOAD_ONLY = (
    "training.adam_step_ms", "training.val_share",
    "gradcheck.forwards", "gradcheck.forward_ms",
)
GRADCHECK_TOLERANCES = dict(h=1e-5, rel_tol=1e-4, abs_tol=1e-6, small=1e-3)
GRADCHECK_ENTRIES = 4  # sampled entries per tensor, the CLI default
ROUND_TRIP_WINDOWS = 4  # forecasts repeated by the reloaded checkpoint
FORECAST_CHUNK_S = 0.1  # forecasting time between pace probes
TRAIN_STEPS_PER_PROBE = 4


class Tally:
    """Operations attempted and failed, plus each failed check's message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {what}")


@dataclass
class Instance:
    splits: gdata.WindowedSplits
    model: gmodel.GlgatModel
    loss_fn: object = None  # the gradcheck instance's loss closure


def window_loss(model, sample):
    """Zero-argument loss of one window, rebuilt from the model on each call."""
    x = sample.input[None]
    target = sample.target[:, :, 0].T[None]
    mask = sample.target_mask[:, :, 0].T[None]
    return lambda: gtrain.batch_smooth_l1(gmodel.model_forward(model, x), target, mask)


def setup(w: Workload, data: Path, seed: int) -> Instance:
    """CSVs on disk to a ready model (and, for gradcheck, its loss)."""
    graph, series = gdata.load_series(
        data / "series.csv", data / "locations.csv", data / "edges.csv"
    )
    splits = gdata.split_and_window(series, p=12, q=12)
    config = gmodel.StackConfig(n=graph.n_vertices, **w.widths)
    train_series = series.slice(0, splits.split_sizes[0])
    model = gmodel.prepare_model(config, graph, train_series, splits.stats, seed)
    inst = Instance(splits, model)
    if w.gradcheck:
        inst.loss_fn = window_loss(model, splits.train[0])
    return inst


def predict(model, inputs, batch_size=64):
    """predict(), or None when the forward raises NonFiniteError."""
    try:
        return gtrain.predict(model, inputs, batch_size=batch_size)
    except gad.NonFiniteError:
        return None


def bad_windows(preds: np.ndarray | None, count: int, n: int) -> int:
    """Windows of a (count, n, 12) forecast that are non-finite or misshapen."""
    if preds is None or preds.shape != (count, n, 12):
        return count
    return int(np.count_nonzero(~np.isfinite(preds).all(axis=(1, 2))))


def window_bytes(splits) -> int:
    """Bytes held by the windowed samples, computed from their array sizes.

    A window's input may be a view of a larger array; each buffer counts once.
    """
    buffers = {}
    for part in (splits.train, splits.val, splits.test):
        for s in part:
            for a in (s.input, s.target, s.target_mask, s.target_times):
                owner = a if a.base is None else a.base
                buffers[id(owner)] = owner.nbytes
    return sum(buffers.values())


def run_round(w, inst, scratch, seed, r, checkpoints, forecasts, forecast_s, tally, m, pace, tracer=None):
    """One round on a ready instance: the workload's main operation, then
    checkpoint round trips, evaluation, and single-window forecasts until
    there are at least ``forecasts`` of them and ``forecast_s`` has passed.
    Every timing is scaled by ``pace`` as soon as it is taken.
    """
    model, splits, n = inst.model, inst.splits, inst.model.config.n
    if w.gradcheck:
        loss_fn = pace.during(inst.loss_fn, every=50)
        if tracer is not None:
            loss_fn = tracer.traced(loss_fn, "gradcheck.forward")
        params = model.named_params()
        gc.collect()  # start each timing without a pending collection
        t0 = perf_counter()
        try:
            report = ggrad.check_gradients(
                loss_fn,
                params,
                max_entries_per_tensor=GRADCHECK_ENTRIES,
                rng=np.random.default_rng([seed, r]),
                **GRADCHECK_TOLERANCES,
            )
            checked, failed = report.checked, len(report.failures)
            what = "gradcheck entries outside tolerance"
        except gad.NonFiniteError as exc:
            checked = failed = sum(min(GRADCHECK_ENTRIES, t.size) for t in params.values())
            what = f"gradcheck entries ({exc})"
        dt = perf_counter() - t0 - pace.probing_s()
        m["gradcheck"].append((dt, pace.factor(), checked))
        tally.add(checked, failed, what)

    if w.train is not None:
        plan = w.train
        samples = splits.train[:: plan.stride]
        steps = math.ceil(len(samples) / plan.batch_size) * plan.epochs
        config = gtrain.TrainConfig(
            lr=plan.lr,
            batch_size=plan.batch_size,
            max_epochs=plan.epochs,
            patience=plan.epochs,
            seed=seed,
        )
        # train() calls model.zero_grad() once per step: probe the pace in there
        model.zero_grad = pace.during(model.zero_grad, every=TRAIN_STEPS_PER_PROBE)
        gc.collect()
        t0 = perf_counter()
        try:
            result = gtrain.train(model, samples, splits.val, config)
            m["val_mae"].append(result.best_val_mae)
            tally.add(steps, 0, "training steps")
        except (gtrain.TrainingDiverged, gad.NonFiniteError) as exc:
            # train() returns no model, so all of its planned steps failed
            m["val_mae"].append(math.nan)
            tally.add(steps, steps, f"training steps (diverged: {exc})")
        dt = perf_counter() - t0 - pace.probing_s()
        del model.zero_grad
        m["train"].append((dt, pace.factor(), len(samples) * plan.epochs))

    path = scratch / f"checkpoint-{os.getpid()}.json"
    for _ in range(checkpoints):
        gc.collect()
        t0 = perf_counter()
        gmodel.save_checkpoint(model, path)
        loaded = gmodel.load_checkpoint(path)
        dt = perf_counter() - t0
        m["checkpoint"].append((dt, pace.factor("python"), 1))
    m["checkpoint_bytes"] = path.stat().st_size
    path.unlink()

    test = splits.test
    if w.evaluate:
        inputs = gtrain.stack_inputs(test)
        targets, masks = gtrain.stack_targets(test)
        gc.collect()
        t0 = perf_counter()
        preds = predict(model, inputs)
        dt = perf_counter() - t0
        m["eval"].append((dt, pace.factor(), len(test)))
        tally.add(len(test), bad_windows(preds, len(test), n), "evaluated windows non-finite or misshapen")
        if preds is not None:
            m["test_mae"].append(gtrain.evaluate(preds, targets, masks).mean_mae)

    kept = []
    chunk = []  # forecast latencies since the last pace probe
    bad = 0
    gc.collect()
    start, k = perf_counter(), 0
    while k < forecasts or perf_counter() - start < forecast_s:
        x = test[k % len(test)].input[None]
        t0 = perf_counter()
        y = predict(model, x, batch_size=1)
        chunk.append(perf_counter() - t0)
        bad += bad_windows(y, 1, n)
        if k < ROUND_TRIP_WINDOWS and y is not None:
            kept.append((k, y))
        k += 1
        if sum(chunk) >= FORECAST_CHUNK_S:
            f = pace.factor()
            m["forecast"].extend((dt, f, 1) for dt in chunk)
            chunk = []
    if chunk:
        f = pace.factor()
        m["forecast"].extend((dt, f, 1) for dt in chunk)
    tally.add(k, bad, "forecasts non-finite or misshapen")

    # the reloaded checkpoint must repeat the forecasts bit for bit
    differ = 0
    for i, first in kept:
        again = predict(loaded, test[i].input[None], batch_size=1)
        differ += again is None or again.tobytes() != first.tobytes()
    tally.add(len(kept), differ, "forecasts changed by a checkpoint round trip")


def run_pass(w, data, scratch, seed, seconds, tally, fixed, tracer=None) -> dict:
    """The workload's rounds; returns the measurements by phase, each timing
    as (seconds, pace factor, operations).

    An untraced run spreads its samples over ``w.rounds`` rounds, each with
    its own set-ups, so that every metric's median covers the whole run.
    ``fixed`` runs one round with one set-up, one checkpoint round trip and
    ``w.trace_forecasts`` forecasts, then one loss and backward for the tape
    count, so that a traced pass and an untraced pass do the same work.
    """
    m = defaultdict(list)
    pace = Pace(enabled=not fixed)
    rounds = 1 if fixed else w.rounds
    for r in range(rounds):
        for _ in range(1 if fixed else w.setups):
            inst = None  # free the previous instance before the next set-up
            gc.collect()
            t0 = perf_counter()
            inst = setup(w, data, seed)
            dt = perf_counter() - t0
            m["setup"].append((dt, pace.factor("python"), 1))
        if fixed:
            run_round(w, inst, scratch, seed, r, 1, w.trace_forecasts, 0.0, tally, m, pace, tracer)
        else:
            forecast_s = seconds * w.forecast_share / rounds
            run_round(w, inst, scratch, seed, r, w.checkpoints, 1, forecast_s, tally, m, pace)
    m["pace_probes"] = pace.probes
    m["params"] = sum(t.size for t in inst.model.named_params().values())
    m["window_bytes"] = window_bytes(inst.splits)
    if fixed:
        loss = window_loss(inst.model, inst.splits.test[0])()
        m["tape_nodes"] = len(gad.Tape(loss).nodes)
        inst.model.zero_grad()
        loss.backward()
        inst.model.zero_grad()
    return m


def describe(samples) -> tuple[float, str, float, int]:
    """Median, the highest of p99/p90/p75 with at least ten samples beyond
    it (else the maximum), its value, and the sample count."""
    n = len(samples)
    tail = next((p for p in (99, 90, 75) if n * (100 - p) >= 1000), None)
    label = f"p{tail}" if tail else "max"
    value = float(np.percentile(samples, tail)) if tail else max(samples)
    return statistics.median(samples), label, value, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def seconds(samples, scaled=True) -> list[float]:
    return [t * f / c if scaled else t / c for t, f, c in samples]


def rates(samples, scaled=True) -> list[float]:
    return [c / (t * f) if scaled else c / t for t, f, c in samples]


def end_to_end(name: str, w: Workload, m: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced pass, and the report lines.

    Every workload reports the same metric names. ``ops_per_s`` is the
    workload's main operation rate: gradcheck entries, trained windows
    (train() wall time, validation included), or single-window forecasts.
    Timings and rates are scaled to the reference pace (see pace.py); the
    report also gives each raw median.
    """
    if w.gradcheck:
        ops, ops_name = m["gradcheck"], "gradcheck_entries_per_s"
    elif w.train is not None:
        ops, ops_name = m["train"], "train_windows_per_s"
    else:
        ops, ops_name = m["forecast"], "forecasts_per_s"
    rows = [
        ("setup_s", "s", seconds, m["setup"], "set-ups"),
        ("ops_per_s", "1/s", rates, ops, ops_name),
        ("checkpoint_s", "s", seconds, m["checkpoint"], "round trips"),
        ("forecast_ms_p50", "ms", seconds, m["forecast"], "forecasts"),
        ("forecast_ms_p90", "ms", seconds, m["forecast"], "forecasts"),
    ]
    probes = m["pace_probes"]
    means = ", ".join(
        f"{kind} {1e3 * statistics.fmean(p[kind] for p in probes):.4g} ms "
        f"(reference {1e3 * ref:.4g} ms)"
        for kind, ref in PACE_REFERENCE_S.items()
    )
    lines = [f"  pace: {len(probes)} probes, mean {means}; timings are scaled to the reference"]
    rss = peak_rss_mb()
    metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"}}
    lines.append(f"  {'peak_rss_mb':<26} {rss:>14.6g} MB     measured")
    for metric, unit, convert, samples, what in rows:
        scale = 1e3 if unit == "ms" else 1.0
        values = [scale * v for v in convert(samples)]
        raw = statistics.median(scale * v for v in convert(samples, scaled=False))
        med, label, tail, n = describe(values)
        value = float(np.percentile(values, 90)) if metric == "forecast_ms_p90" else med
        metrics[metric] = {"value": value, "unit": unit}
        lines.append(
            f"  {metric:<26} {value:>14.6g} {unit:<6} median of {n} {what}, "
            f"{label} {tail:.6g}; raw median {raw:.6g}"
        )
    lines.append(f"  {ops_name:<26} {metrics['ops_per_s']['value']:>14.6g} 1/s    = ops_per_s on {name}")
    if m["val_mae"]:
        val_mae = statistics.median(m["val_mae"])
        lines.append(f"  {'val_mae':<26} {val_mae:>14.6g} speed  best validation MAE of train()")
    if m["eval"]:
        med, label, tail, n = describe(rates(m["eval"]))
        lines.append(
            f"  {'eval_windows_per_s':<26} {med:>14.6g} 1/s    median of {n} "
            f"predict() calls over the test split, {label} {tail:.6g}"
        )
    if m["test_mae"]:
        test_mae = statistics.median(m["test_mae"])
        lines.append(f"  {'test_mae':<26} {test_mae:>14.6g} speed  mean over horizons 15/30/60 min")
    return metrics, lines


def install(tracer: Tracer, events: list) -> None:
    """Wrap the attributes glgat's callers look up, module by module."""
    for op in OPS:
        tracer.wrap(gad, op, f"autodiff.{op}")
    tracer.wrap(gad.DiffTensor, "backward", "autodiff.backward")
    tracer.wrap(
        gmodel, "glgat_forward", lambda: f"layers.{FLOORS[tracer.nth_child('floor')]}"
    )
    for owner in (gmodel, gtrain):
        tracer.wrap(owner, "model_forward", "model.forward")
    for attr in ("prepare_model", "save_checkpoint", "load_checkpoint"):
        tracer.wrap(gmodel, attr, f"model.{attr}")
    tracer.wrap(
        gmodel,
        "detect_events",
        "adjacency.detect_events",
        observe=lambda log: events.append(
            sum(e.size for e in log.up_events) + sum(e.size for e in log.down_events)
        ),
    )
    tracer.wrap(gmodel, "build_event_adjacency", "adjacency.build_event_adjacency")
    tracer.wrap(gmodel, "build_pairwise_encoding", "encoding.build_pairwise_encoding")
    for attr in ("train", "adam_step", "predict", "evaluate"):
        tracer.wrap(gtrain, attr, f"training.{attr}")
    tracer.wrap(gtrain, "batch_smooth_l1", "training.loss")
    for attr in ("load_series", "split_and_window"):
        tracer.wrap(gdata, attr, f"data.{attr}")
    tracer.wrap(ggrad, "check_gradients", "gradcheck.check_gradients")


def per_layer(tracer: Tracer, m: dict, events: list, overhead: float) -> dict:
    """Per-layer totals over the traced pass: (value, unit) by metric name.

    Autodiff op times are self times; every other time is inclusive.
    """
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    out = {}
    for op in OPS:
        out[f"autodiff.{op}.fwd_ms"] = (1e3 * totals.get(f"autodiff.{op}", (0, 0.0, 0.0))[2], "ms")
        out[f"autodiff.{op}.calls"] = (calls(f"autodiff.{op}"), "count")
    out["autodiff.backward_ms"] = (1e3 * inclusive("autodiff.backward"), "ms")
    out["autodiff.tape_nodes"] = (m["tape_nodes"], "count")
    for floor in FLOORS:
        out[f"layers.{floor}.fwd_ms"] = (1e3 * inclusive(f"layers.{floor}"), "ms")
    out["model.forward_ms"] = (1e3 * inclusive("model.forward"), "ms")
    for attr in ("prepare_model", "save_checkpoint", "load_checkpoint"):
        out[f"model.{attr}_s"] = (inclusive(f"model.{attr}"), "s")
    out["model.checkpoint_bytes"] = (m["checkpoint_bytes"], "bytes")
    out["training.adam_step_ms"] = (1e3 * inclusive("training.adam_step"), "ms")
    out["training.loss_ms"] = (1e3 * inclusive("training.loss"), "ms")
    out["training.predict_ms"] = (1e3 * inclusive("training.predict"), "ms")
    train_s = inclusive("training.train")
    val_s = sum(
        tracer.inclusive_within(name, "training.train")
        for name in ("training.predict", "training.evaluate")
    )
    out["training.val_share"] = (val_s / train_s if train_s else 0.0, "ratio")
    out["data.load_series_s"] = (inclusive("data.load_series"), "s")
    out["data.split_and_window_s"] = (inclusive("data.split_and_window"), "s")
    out["data.window_bytes"] = (m["window_bytes"], "bytes")
    out["adjacency.detect_events_s"] = (inclusive("adjacency.detect_events"), "s")
    out["adjacency.build_event_adjacency_s"] = (inclusive("adjacency.build_event_adjacency"), "s")
    out["adjacency.events"] = (sum(events), "count")
    out["encoding.build_pairwise_encoding_s"] = (inclusive("encoding.build_pairwise_encoding"), "s")
    out["gradcheck.forwards"] = (calls("gradcheck.forward"), "count")
    out["gradcheck.forward_ms"] = (1e3 * inclusive("gradcheck.forward"), "ms")
    out["tracing.overhead_pct"] = (100.0 * overhead, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)
    # One thread on one CPU, so that the pace probes run where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w = WORKLOADS[args.workload]
    tally = Tally()
    common = (w, args.data, args.scratch, args.seed, args.seconds, tally)

    if not args.trace:
        m = run_pass(*common, fixed=False)
        metrics, lines = end_to_end(args.workload, w, m)
        head = f"end-to-end, untraced ({m['params']} parameters):"
    else:
        run_pass(*common, fixed=True)  # warm-up, so neither timed pass is the first
        tracer, events = Tracer(), []
        install(tracer, events)
        try:
            t0 = perf_counter()
            m = run_pass(*common, fixed=True, tracer=tracer)
            traced = perf_counter() - t0
        finally:
            tracer.uninstall()
        t0 = perf_counter()
        run_pass(*common, fixed=True)
        untraced = perf_counter() - t0
        tracer.dump(args.scratch / f"spans-{args.workload}-seed{args.seed}.json")
        layers = per_layer(tracer, m, events, traced / untraced - 1.0)
        metrics = {
            k: {"value": v, "unit": u} for k, (v, u) in layers.items() if k not in WORKLOAD_ONLY
        }
        lines = [
            f"  {k:<38} {v:>14.6g} {u:<6}" + ("  (this workload only)" if k in WORKLOAD_ONLY else "")
            for k, (v, u) in layers.items()
        ]
        cost = Tracer.span_cost()
        lines.append(
            f"  tracing overhead: {traced - untraced:.3f} s measured "
            f"({traced:.3f} s traced, {untraced:.3f} s untraced, same work); "
            f"{len(tracer.spans)} spans at {1e6 * cost:.2f} us each "
            f"make {len(tracer.spans) * cost:.3f} s computed"
        )
        head = "per-layer totals over one traced pass (op times are self times):"

    failed_share = tally.failed / tally.attempted
    print(head)
    print("\n".join(lines))
    print(f"  {'failed_share':<26} {failed_share:>14.6g} ratio  {tally.failed} of {tally.attempted} operations")
    for problem in tally.problems:
        print(f"  FAILED CHECK: {problem}")
    correct = not tally.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
