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
import typing
from dataclasses import fields
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

# `train` keys backed by a config field: key -> (owning dataclass, field
# name, help text). Types and defaults are read from the fields, so a
# default lives only in its dataclass. Flags are --key with - for _.
TRAIN_FIELDS = {
    "variant": (StackConfig, "variant", "model variant"),
    "seed": (TrainConfig, "seed", "run seed"),
    "lr": (TrainConfig, "lr", "Adam learning rate"),
    "epochs": (TrainConfig, "max_epochs", "max training epochs"),
    "batch_size": (TrainConfig, "batch_size", "batch size"),
    "patience": (TrainConfig, "patience", "early-stopping patience"),
    "clip_norm": (TrainConfig, "clip_norm", "global gradient-norm clip, 5 is the usual guard"),
    "tp": (StackConfig, "t_p", "event window, steps before"),
    "tq": (StackConfig, "t_q", "event window, steps after"),
    "group_width": (StackConfig, "group_width", "group floor output width"),
    "h_adj": (StackConfig, "h_adj", "adjacency matrices consumed"),
    "h_head": (StackConfig, "h_head", "heads per adjacency"),
    "h_temporal": (StackConfig, "h_temporal", "per-head width, group floors"),
    "h_deep": (StackConfig, "h_deep", "per-head width, deep floors"),
    "h_pe": (StackConfig, "h_pe", "pairwise-encoding channels"),
    "h_e": (StackConfig, "h_e", "vertex-encoding width"),
    "smoothing": (StackConfig, "smoothing", "direction label smoothing"),
}
# `train` keys naming input files and the output directory: key -> help text
TRAIN_PATHS = {
    "series": "readings CSV",
    "locations": "sensor locations CSV",
    "edges": "road edges CSV (optional)",
    "out": "output directory",
}


def _field_spec(owner, name: str, help_text: str) -> tuple:
    """(type, default, help) of a dataclass field; `float | None` gives float."""
    hint = typing.get_type_hints(owner)[name]
    kind = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    default = next(f.default for f in fields(owner) if f.name == name)
    return kind, default, f"{help_text} (default {'off' if default is None else default})"


# every `train` key -> (type, default, help), paths first, in flag order
TRAIN_SCHEMA = {key: (str, None, help_text) for key, help_text in TRAIN_PATHS.items()} | {
    key: _field_spec(*row) for key, row in TRAIN_FIELDS.items()
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
                values[key] = TRAIN_SCHEMA[key][0](text)
            except ValueError:
                raise ConfigError(
                    f"{path}:{line_no}: bad value {text!r} for {key!r}"
                ) from None
    return values


def resolve_train_config(args) -> dict:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    resolved = {key: default for key, (_, default, _) in TRAIN_SCHEMA.items()}
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


def _config(owner, resolved: dict, **extra):
    """Build ``owner`` from the resolved values of the keys it owns."""
    owned = {name: resolved[key] for key, (o, name, _) in TRAIN_FIELDS.items() if o is owner}
    return owner(**owned, **extra)


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
    stack = _config(StackConfig, resolved, n=graph.n_vertices)
    run = _config(TrainConfig, resolved)
    train_series = series.slice(0, splits.split_sizes[0])
    model = prepare_model(stack, graph, train_series, splits.stats, run.seed)
    result = train(model, splits.train, splits.val, run)
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
    p.add_argument("--tp", type=int, default=StackConfig.t_p,
                   help=f"steps before an event (default {StackConfig.t_p})")
    p.add_argument("--tq", type=int, default=StackConfig.t_q,
                   help=f"steps after an event (default {StackConfig.t_q})")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build_adjacency)

    defaults = ", ".join(f"{k}={d}" for k, (_, d, _) in TRAIN_SCHEMA.items() if d is not None)
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
    for key, (kind, _, help_text) in TRAIN_SCHEMA.items():
        choices = VARIANTS if key == "variant" else None
        p.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices, help=help_text)
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
