"""Command-line entry points for the forecasting toolkit.

Subcommands
-----------
synth-data       generate a synthetic sensor dataset as three CSV files
build-adjacency  derive event and connectivity matrices from a series
train            fit a model, write a checkpoint plus a training log
evaluate         score a checkpoint on a chosen split and print a table
gradcheck        finite-difference audit of the analytic gradients

Artifacts go under a single --out directory with fixed filenames. Runs
with a --seed are reproducible: identical invocations write byte-identical
primary artifacts (the training log's wall_time_s column is the one
wall-clock field). Exit codes: 0 success, 2 usage or configuration error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .adjacency import build_connectivity_adjacency, build_event_adjacency, detect_events
from .data import (
    DataError,
    generate_synthetic,
    load_series,
    split_and_window,
    write_csv_dataset,
)
from .encoding import GeometryError
from .gradcheck import check_gradients
from .model import (
    ConfigError,
    StackConfig,
    VARIANTS,
    load_checkpoint,
    model_forward,
    prepare_model,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    TrainingDiverged,
    batch_smooth_l1,
    evaluate,
    predict,
    stack_inputs,
    stack_targets,
    train,
    write_log,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# config-file keys accepted by `train`, their types, and their defaults
TRAIN_SCHEMA = {
    "series": str,
    "locations": str,
    "edges": str,
    "out": str,
    "variant": str,
    "seed": int,
    "lr": float,
    "epochs": int,
    "batch_size": int,
    "patience": int,
    "clip_norm": float,
    "tp": int,
    "tq": int,
    "group_width": int,
    "h_adj": int,
    "h_head": int,
    "h_temporal": int,
    "h_deep": int,
    "h_pe": int,
    "h_e": int,
    "smoothing": float,
}
TRAIN_DEFAULTS = {
    "edges": None,
    "variant": "full",
    "seed": 0,
    "lr": 1e-4,
    "epochs": 200,
    "batch_size": 16,
    "patience": 10,
    "clip_norm": None,
    "tp": 6,
    "tq": 0,
    "group_width": 16,
    "h_adj": 2,
    "h_head": 4,
    "h_temporal": 2,
    "h_deep": 24,
    "h_pe": 10,
    "h_e": 8,
    "smoothing": 0.1,
}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments ignored."""
    values = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in TRAIN_SCHEMA:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = TRAIN_SCHEMA[key](text)
            except ValueError:
                raise ConfigError(
                    f"{path}:{line_no}: bad value {text!r} for {key!r}"
                ) from None
    return values


def resolve_train_config(args) -> dict:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    resolved = dict(TRAIN_DEFAULTS)
    if args.config is not None:
        resolved.update(parse_config_file(args.config))
    for key in TRAIN_SCHEMA:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    for required in ("series", "locations", "out"):
        if not resolved.get(required):
            raise ConfigError(f"missing required option --{required}")
    return resolved


def echo_config(resolved: dict, path) -> None:
    lines = [f"{k} = {resolved[k]}" for k in sorted(resolved) if resolved[k] is not None]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_matrix_csv(matrix: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------- commands


def cmd_synth_data(args) -> int:
    if args.n < 4:
        raise ConfigError("--n must be at least 4")
    if args.t < 200:
        raise ConfigError("--t must be at least 200")
    if not 0.0 <= args.missing < 1.0:
        raise ConfigError("--missing must lie in [0, 1)")
    graph, series, _ = generate_synthetic(
        n=args.n, t=args.t, seed=args.seed, missing_ratio=args.missing
    )
    paths = write_csv_dataset(graph, series, args.out)
    for name, p in sorted(paths.items()):
        print(f"wrote {name}: {p}")
    return EXIT_OK


def cmd_build_adjacency(args) -> int:
    if args.tp < 0 or args.tq < 0:
        raise ConfigError("--tp and --tq must be non-negative")
    graph, series = load_series(args.series, args.locations, args.edges)
    log = detect_events(series)
    a_up, a_down = build_event_adjacency(log, args.tp, args.tq)
    conn = build_connectivity_adjacency(graph)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrices = {
        "event_up": a_up,
        "event_down": a_down,
        "connectivity": conn,
    }
    for label, matrix in matrices.items():
        _write_matrix_csv(matrix, out / f"adjacency_{label}.csv")
    meta = {
        "labels": list(matrices),
        "divider": log.divider.tolist(),
        "flagged_vertices": log.flagged,
        "t_p": args.tp,
        "t_q": args.tq,
        "n_vertices": graph.n_vertices,
    }
    with open(out / "adjacency_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    print(f"wrote {len(matrices)} matrices and adjacency_meta.json to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    resolved = resolve_train_config(args)
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    echo_config(resolved, out / "config_used.txt")

    graph, series = load_series(
        resolved["series"], resolved["locations"], resolved.get("edges")
    )
    splits = split_and_window(series, p=12, q=12)
    stack = StackConfig(
        n=graph.n_vertices,
        variant=resolved["variant"],
        group_width=resolved["group_width"],
        h_adj=resolved["h_adj"],
        h_head=resolved["h_head"],
        h_temporal=resolved["h_temporal"],
        h_deep=resolved["h_deep"],
        h_pe=resolved["h_pe"],
        h_e=resolved["h_e"],
        t_p=resolved["tp"],
        t_q=resolved["tq"],
        smoothing=resolved["smoothing"],
    )
    train_series = series.slice(0, splits.split_sizes[0])
    model = prepare_model(stack, graph, train_series, splits.stats, resolved["seed"])
    result = train(
        model,
        splits.train,
        splits.val,
        TrainConfig(
            lr=resolved["lr"],
            batch_size=resolved["batch_size"],
            max_epochs=resolved["epochs"],
            patience=resolved["patience"],
            seed=resolved["seed"],
            clip_norm=resolved["clip_norm"],
        ),
    )
    save_checkpoint(model, out / "checkpoint.json")
    write_log(result.log_rows, out / "training_log.csv")
    print(
        f"variant={stack.variant} epochs={result.epochs_run} "
        f"best_epoch={result.best_epoch} best_val_mae={result.best_val_mae:.4f}"
    )
    if result.val_report is not None:
        print(result.val_report.table("validation metrics (best epoch)"))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    graph, series = load_series(args.series, args.locations, args.edges)
    if graph.n_vertices != model.config.n:
        raise ConfigError(
            f"checkpoint expects {model.config.n} sensors, dataset has {graph.n_vertices}"
        )
    splits = split_and_window(
        series, p=model.config.p, q=model.config.q, stats=model.stats
    )
    samples = {"train": splits.train, "val": splits.val, "test": splits.test}[args.split]
    if not samples:
        raise DataError(f"the {args.split} split yields no windows")
    preds = predict(model, stack_inputs(samples))
    targets, masks = stack_targets(samples)
    report = evaluate(preds, targets, masks)
    label = f"variant={model.config.variant} split={args.split} windows={len(samples)}"
    print(report.table(label))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "variant": model.config.variant,
            "split": args.split,
            "n_windows": len(samples),
            "metrics": report.to_dict(),
        }
        with open(out / "eval.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    """Sampled finite-difference audit of a small end-to-end instance."""
    t0 = time.perf_counter()
    graph, series, _ = generate_synthetic(n=6, t=240, seed=args.seed)
    splits = split_and_window(series, p=12, q=12)
    stack = StackConfig(
        n=6, group_width=4, h_head=2, h_temporal=2, h_deep=4, h_pe=10, h_e=4
    )
    train_series = series.slice(0, splits.split_sizes[0])
    model = prepare_model(stack, graph, train_series, splits.stats, seed=args.seed)
    sample = splits.train[0]
    x = sample.input
    target = sample.target[:, :, 0].T
    mask = sample.target_mask[:, :, 0].T

    def fn():
        return batch_smooth_l1(
            model_forward(model, x[None]), target[None], mask[None]
        )

    report = check_gradients(
        fn,
        model.named_params(),
        h=1e-5,
        rel_tol=1e-4,
        abs_tol=1e-6,
        small=1e-3,
        max_entries_per_tensor=args.entries,
        rng=np.random.default_rng(args.seed),
    )
    elapsed = time.perf_counter() - t0
    print(report.summary())
    print(f"runtime {elapsed:.1f}s over {len(model.named_params())} tensors")
    if not report.passed:
        for rec in report.failures[:10]:
            print(
                f"  {rec.tensor}{list(rec.index)}: analytic {rec.analytic:.3e} "
                f"vs numeric {rec.numeric:.3e} (rel {rec.rel_err:.2e})"
            )
        return EXIT_NUMERIC
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glgat",
        description="Graph-attention traffic forecasting toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="number of sensors (>= 4)")
    p.add_argument("--t", type=int, required=True, help="number of 5-min steps (>= 200)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--missing", type=float, default=0.05, help="missing-data ratio (default 0.05)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("build-adjacency", help="derive adjacency matrices")
    p.add_argument("--series", required=True, help="readings CSV")
    p.add_argument("--locations", required=True, help="sensor locations CSV")
    p.add_argument("--edges", default=None, help="road edges CSV (optional)")
    p.add_argument("--tp", type=int, default=6, help="steps before an event (default 6)")
    p.add_argument("--tq", type=int, default=0, help="steps after an event (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build_adjacency)

    defaults = ", ".join(f"{k}={v}" for k, v in TRAIN_DEFAULTS.items() if v is not None)
    p = sub.add_parser(
        "train",
        help="train a model",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "config file: flat `key = value` lines accepting the keys\n"
            f"  {', '.join(TRAIN_SCHEMA)}\n"
            f"defaults: {defaults}\n"
            "flags override file values; the effective configuration is\n"
            "echoed to <out>/config_used.txt"
        ),
    )
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--series", help="readings CSV")
    p.add_argument("--locations", help="sensor locations CSV")
    p.add_argument("--edges", help="road edges CSV (optional)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--variant", choices=VARIANTS, help="model variant (default full)")
    p.add_argument("--seed", type=int, help="run seed (default 0)")
    p.add_argument("--lr", type=float, help="Adam learning rate (default 1e-4)")
    p.add_argument("--epochs", type=int, help="max training epochs (default 200)")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="batch size (default 16)")
    p.add_argument("--patience", type=int, help="early-stopping patience (default 10)")
    p.add_argument("--clip-norm", dest="clip_norm", type=float, help="global gradient-norm clip (default off; 5 is the usual guard)")
    p.add_argument("--tp", type=int, help="event window, steps before (default 6)")
    p.add_argument("--tq", type=int, help="event window, steps after (default 0)")
    p.add_argument("--group-width", dest="group_width", type=int, help="group floor output width (default 16)")
    p.add_argument("--h-adj", dest="h_adj", type=int, help="adjacency matrices consumed (default 2)")
    p.add_argument("--h-head", dest="h_head", type=int, help="heads per adjacency (default 4)")
    p.add_argument("--h-temporal", dest="h_temporal", type=int, help="per-head width, group floors (default 2)")
    p.add_argument("--h-deep", dest="h_deep", type=int, help="per-head width, deep floors (default 24)")
    p.add_argument("--h-pe", dest="h_pe", type=int, help="pairwise-encoding channels (default 10)")
    p.add_argument("--h-e", dest="h_e", type=int, help="vertex-encoding width (default 8)")
    p.add_argument("--smoothing", type=float, help="direction label smoothing (default 0.1)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON from train")
    p.add_argument("--series", required=True, help="readings CSV")
    p.add_argument("--locations", required=True, help="sensor locations CSV")
    p.add_argument("--edges", default=None, help="road edges CSV (optional)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", default=None, help="directory for eval.json (optional)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=1, help="instance seed (default 1)")
    p.add_argument("--entries", type=int, default=4, help="sampled entries per tensor (default 4)")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ad.NonFiniteError, ad.DegenerateRowError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
