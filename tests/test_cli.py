"""Command-line behavior: artifacts, determinism, exit codes, equivalence."""

import csv
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from glgat import cli
from glgat import data as gdata
from glgat import model as gmodel
from glgat import training as gtrain
from glgat.adjacency import build_connectivity_adjacency, build_event_adjacency, detect_events

from test_model import MALFORMED, legacy_checkpoint, pack, unpack

SLIM = [
    "--group-width", "4", "--h-head", "2", "--h-temporal", "2",
    "--h-deep", "6", "--h-e", "4",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    rc = cli.main(["synth-data", "--n", "6", "--t", "300", "--seed", "11", "--out", str(out)])
    assert rc == 0
    return out


def read_matrix(path):
    with open(path, newline="") as fh:
        return np.array([[float(c) for c in row] for row in csv.reader(fh)])


# ------------------------------------------------------------- synth-data


def test_synth_data_is_deterministic(tmp_path, dataset):
    again = tmp_path / "again"
    assert cli.main(["synth-data", "--n", "6", "--t", "300", "--seed", "11", "--out", str(again)]) == 0
    for name in ("series.csv", "locations.csv", "edges.csv"):
        assert (again / name).read_bytes() == (dataset / name).read_bytes(), name
    other = tmp_path / "other"
    assert cli.main(["synth-data", "--n", "6", "--t", "300", "--seed", "12", "--out", str(other)]) == 0
    assert (other / "series.csv").read_bytes() != (dataset / "series.csv").read_bytes()


def test_synth_data_round_trips_through_loader(dataset):
    graph, series, _ = gdata.generate_synthetic(n=6, t=300, seed=11)
    loaded_graph, loaded = gdata.load_series(
        dataset / "series.csv", dataset / "locations.csv", dataset / "edges.csv"
    )
    assert np.array_equal(loaded.data, series.data)
    assert np.array_equal(loaded.mask, series.mask)
    assert np.array_equal(loaded.timestamps, series.timestamps)
    assert np.array_equal(loaded_graph.coordinates, graph.coordinates)
    assert loaded_graph.edges == graph.edges


def test_synth_data_missing_ratio_flag(tmp_path):
    out = tmp_path / "miss"
    assert cli.main(["synth-data", "--n", "8", "--t", "1000", "--seed", "2",
                     "--missing", "0.05", "--out", str(out)]) == 0
    with open(out / "series.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    cells = [c for row in rows for c in row[1:]]
    frac = sum(c == "" for c in cells) / len(cells)
    assert 0.04 <= frac <= 0.06


def test_synth_data_usage_errors(tmp_path):
    assert cli.main(["synth-data", "--n", "2", "--t", "300", "--out", str(tmp_path)]) == 2
    assert cli.main(["synth-data", "--n", "6", "--t", "100", "--out", str(tmp_path)]) == 2
    assert cli.main(["synth-data", "--n", "6", "--t", "300", "--missing", "1.5",
                     "--out", str(tmp_path)]) == 2


# -------------------------------------------------------- build-adjacency


def test_build_adjacency_matches_library(tmp_path, dataset):
    out = tmp_path / "adj"
    rc = cli.main(["build-adjacency", "--series", str(dataset / "series.csv"),
                   "--locations", str(dataset / "locations.csv"),
                   "--edges", str(dataset / "edges.csv"),
                   "--tp", "4", "--tq", "1", "--out", str(out)])
    assert rc == 0

    graph, series = gdata.load_series(
        dataset / "series.csv", dataset / "locations.csv", dataset / "edges.csv"
    )
    log = detect_events(series)
    a_up, a_down = build_event_adjacency(log, 4, 1)
    assert np.array_equal(read_matrix(out / "adjacency_event_up.csv"), a_up)
    assert np.array_equal(read_matrix(out / "adjacency_event_down.csv"), a_down)
    assert np.array_equal(
        read_matrix(out / "adjacency_connectivity.csv"),
        build_connectivity_adjacency(graph),
    )
    meta = json.loads((out / "adjacency_meta.json").read_text())
    assert meta["labels"] == ["event_up", "event_down", "connectivity"]
    assert np.allclose(meta["divider"], log.divider)
    assert meta["t_p"] == 4 and meta["t_q"] == 1


def test_build_adjacency_flags_an_empty_sensor_column(tmp_path, dataset):
    lines = (dataset / "series.csv").read_text().splitlines()
    empty = 2  # vertex index of the blanked column
    rows = [line.split(",") for line in lines]
    for row in rows[1:]:
        row[1 + empty] = ""
    series = tmp_path / "series.csv"
    series.write_text("\n".join(",".join(row) for row in rows) + "\n")
    out = tmp_path / "adj"
    assert cli.main(["build-adjacency", "--series", str(series),
                     "--locations", str(dataset / "locations.csv"),
                     "--out", str(out)]) == 0
    meta = json.loads((out / "adjacency_meta.json").read_text())
    assert meta["flagged_vertices"] == [empty]
    assert meta["divider"][empty] == 0.0


def test_build_adjacency_unit_diagonals(tmp_path, dataset):
    out = tmp_path / "adj"
    assert cli.main(["build-adjacency", "--series", str(dataset / "series.csv"),
                     "--locations", str(dataset / "locations.csv"),
                     "--out", str(out)]) == 0
    for name in ("event_up", "event_down", "connectivity"):
        m = read_matrix(out / f"adjacency_{name}.csv")
        assert np.all(np.diag(m) == 1.0), name
        assert m.min() >= 0.0 and m.max() <= 1.0


def test_build_adjacency_zero_window_means_simultaneous(tmp_path, dataset):
    out = tmp_path / "adj0"
    assert cli.main(["build-adjacency", "--series", str(dataset / "series.csv"),
                     "--locations", str(dataset / "locations.csv"),
                     "--tp", "0", "--tq", "0", "--out", str(out)]) == 0
    _, series = gdata.load_series(dataset / "series.csv", dataset / "locations.csv")
    log = detect_events(series)
    up = read_matrix(out / "adjacency_event_up.csv")
    n = up.shape[0]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            shared = np.intersect1d(log.up_events[i], log.up_events[j]).size
            assert (up[i, j] > 0) == (shared > 0)


def test_build_adjacency_missing_input(tmp_path):
    rc = cli.main(["build-adjacency", "--series", str(tmp_path / "absent.csv"),
                   "--locations", str(tmp_path / "none.csv"), "--out", str(tmp_path)])
    assert rc == 3


# ------------------------------------------------------------------ train


def train_args(dataset, out, *extra):
    return ["train", "--series", str(dataset / "series.csv"),
            "--locations", str(dataset / "locations.csv"),
            "--edges", str(dataset / "edges.csv"),
            "--out", str(out), *SLIM, *extra]


def test_train_writes_artifacts_and_is_deterministic(tmp_path, dataset):
    a, b = tmp_path / "a", tmp_path / "b"
    argv_tail = ["--seed", "3", "--lr", "1e-3", "--epochs", "2", "--batch-size", "32"]
    assert cli.main(train_args(dataset, a, *argv_tail)) == 0
    assert cli.main(train_args(dataset, b, *argv_tail)) == 0
    for name in ("checkpoint.bin", "training_log.csv", "config_used.txt"):
        assert (a / name).exists(), name
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    # config echoes match except for the path entries, which name a/b
    def settings(path):
        pairs = dict(line.split(" = ") for line in path.read_text().splitlines())
        return {k: v for k, v in pairs.items() if k not in ("out", "series", "locations", "edges")}

    assert settings(a / "config_used.txt") == settings(b / "config_used.txt")
    with open(a / "training_log.csv") as fh:
        rows_a = list(csv.DictReader(fh))
    with open(b / "training_log.csv") as fh:
        rows_b = list(csv.DictReader(fh))
    for ra, rb in zip(rows_a, rows_b):
        for col in gtrain.LOG_COLUMNS:
            if col != "wall_time_s":
                assert ra[col] == rb[col], col


def test_train_config_file_and_flag_precedence(tmp_path, dataset):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# training setup\n"
        "lr = 0.5\n"
        "epochs = 2\n"
        "batch_size = 32\n"
        "seed = 3\n"
        "group_width = 4\n"
        "h_head = 2\n"
        "h_temporal = 2\n"
        "h_deep = 6\n"
        "h_e = 4\n"
    )
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg),
                   "--series", str(dataset / "series.csv"),
                   "--locations", str(dataset / "locations.csv"),
                   "--out", str(out), "--lr", "1e-3"])
    assert rc == 0
    echoed = dict(
        line.split(" = ") for line in (out / "config_used.txt").read_text().splitlines()
    )
    assert echoed["lr"] == "0.001"  # flag beat the file value
    assert echoed["epochs"] == "2"
    assert echoed["variant"] == "full"


def test_train_rejects_unknown_config_key(tmp_path, dataset):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 1e-3\n")
    rc = cli.main(["train", "--config", str(cfg),
                   "--series", str(dataset / "series.csv"),
                   "--locations", str(dataset / "locations.csv"),
                   "--out", str(tmp_path / "x")])
    assert rc == 2


def test_train_requires_series(tmp_path):
    assert cli.main(["train", "--locations", "loc.csv", "--out", str(tmp_path)]) == 2


def test_train_missing_file_is_data_error(tmp_path):
    rc = cli.main(["train", "--series", str(tmp_path / "no.csv"),
                   "--locations", str(tmp_path / "no2.csv"), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_train_without_an_observed_validation_target_is_data_error(tmp_path, dataset, capsys):
    graph, series = gdata.load_series(
        dataset / "series.csv", dataset / "locations.csv", dataset / "edges.csv"
    )
    n_train, n_val, _ = gdata.split_sizes(series.n_steps, (0.7, 0.1, 0.2))
    mask = series.mask.copy()
    mask[n_train : n_train + n_val] = False
    blank = gdata.TrafficSeries(np.where(mask, series.data, 0.0), mask, series.timestamps)
    blanked = tmp_path / "blank"
    gdata.write_csv_dataset(graph, blank, blanked)
    out = tmp_path / "out"
    assert cli.main(train_args(blanked, out, "--epochs", "2")) == 3
    assert "validation split observes no target" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


def test_train_without_an_observed_training_target_is_data_error(tmp_path, dataset, capsys):
    graph, series = gdata.load_series(
        dataset / "series.csv", dataset / "locations.csv", dataset / "edges.csv"
    )
    n_train, _, _ = gdata.split_sizes(series.n_steps, (0.7, 0.1, 0.2))
    mask = series.mask.copy()
    mask[:n_train] = False
    blank = gdata.TrafficSeries(np.where(mask, series.data, 0.0), mask, series.timestamps)
    blanked = tmp_path / "blank"
    gdata.write_csv_dataset(graph, blank, blanked)
    out = tmp_path / "out"
    assert cli.main(train_args(blanked, out, "--epochs", "2")) == 3
    assert "training split observes no target" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


def test_train_rejects_negative_clip_norm(tmp_path, dataset):
    out = tmp_path / "clip"
    rc = cli.main(train_args(dataset, out, "--epochs", "1", "--clip-norm", "-1"))
    assert rc == 2
    assert not (out / "checkpoint.bin").exists()


def test_train_rejects_h_pe_the_pairwise_table_lacks(tmp_path, dataset, monkeypatch):
    def never(*args):
        raise AssertionError("prepare_model reached with an invalid h_pe")

    monkeypatch.setattr(cli, "prepare_model", never)
    out = tmp_path / "pe"
    assert cli.main(train_args(dataset, out, "--h-pe", "5")) == 2
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize(
    "flag", [("--lr", "-1"), ("--h-pe", "5"), ("--h-adj", "3")], ids=["lr", "h_pe", "h_adj"]
)
def test_train_checks_its_configuration_before_reading_data(tmp_path, flag):
    """Each of these is refused before the data is read and before
    config_used.txt is written; the full variant wires two event matrices."""
    rc = cli.main(["train", "--series", str(tmp_path / "no.csv"),
                   "--locations", str(tmp_path / "no2.csv"), "--out", str(tmp_path / "o"), *flag])
    assert rc == 2
    assert not (tmp_path / "o" / "config_used.txt").exists()


class _Stop(Exception):
    """Raised by the stubbed trainer once both configurations are captured."""


@pytest.fixture
def captured(monkeypatch):
    """Run `train` up to the trainer and record what it would have used."""
    seen = {}

    def fake_prepare(stack, graph, train_series, stats, seed):
        seen["stack"], seen["model_seed"] = stack, seed
        return None

    def fake_train(model, train_samples, val_samples, config):
        seen["train"] = config
        raise _Stop

    monkeypatch.setattr(cli, "prepare_model", fake_prepare)
    monkeypatch.setattr(cli, "train", fake_train)
    return seen


# one non-default value per field-backed key: (owner, field, value)
FIELD_KEYS = {
    "variant": ("stack", "variant", "ablation1"),
    "seed": ("train", "seed", 5),
    "lr": ("train", "lr", 0.002),
    "epochs": ("train", "max_epochs", 7),
    "batch_size": ("train", "batch_size", 8),
    "patience": ("train", "patience", 3),
    "clip_norm": ("train", "clip_norm", 2.5),
    "tp": ("stack", "t_p", 4),
    "tq": ("stack", "t_q", 2),
    "group_width": ("stack", "group_width", 5),
    "h_adj": ("stack", "h_adj", 3),
    "h_head": ("stack", "h_head", 3),
    "h_temporal": ("stack", "h_temporal", 3),
    "h_deep": ("stack", "h_deep", 7),
    "h_pe": ("stack", "h_pe", 0),
    "h_e": ("stack", "h_e", 6),
    "smoothing": ("stack", "smoothing", 0.2),
}
# values a key's non-default value needs beside it: full (the default
# variant) wires exactly two event matrices, ablation1 any number
COMPANIONS = {"h_adj": {"variant": "ablation1"}}
STACK_DEFAULT = gmodel.StackConfig(n=6)
TRAIN_DEFAULT = gtrain.TrainConfig()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key", list(FIELD_KEYS))
def test_train_key_reaches_its_config_field(tmp_path, dataset, captured, key, source):
    owner, field, value = FIELD_KEYS[key]
    default = STACK_DEFAULT if owner == "stack" else TRAIN_DEFAULT
    assert getattr(default, field) != value
    argv = ["train", "--series", str(dataset / "series.csv"),
            "--locations", str(dataset / "locations.csv"), "--out", str(tmp_path / "o")]
    given = {key: value, **COMPANIONS.get(key, {})}
    if source == "flag":
        for k, val in given.items():
            argv += ["--" + k.replace("_", "-"), str(val)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {val}\n" for k, val in given.items()))
        argv += ["--config", str(cfg)]
    with pytest.raises(_Stop):
        cli.main(argv)
    assert getattr(captured[owner], field) == value
    # every other field keeps its default, or the value given beside the key
    for other, (o, f, _) in FIELD_KEYS.items():
        if other != key:
            expect = STACK_DEFAULT if o == "stack" else TRAIN_DEFAULT
            want = given.get(other, getattr(expect, f))
            assert getattr(captured[o], f) == want, other
    assert captured["model_seed"] == captured["train"].seed


def test_train_echoes_defaults_without_overrides(tmp_path, dataset, captured):
    out = tmp_path / "o"
    series, locations = dataset / "series.csv", dataset / "locations.csv"
    with pytest.raises(_Stop):
        cli.main(["train", "--series", str(series), "--locations", str(locations),
                  "--out", str(out)])
    assert (out / "config_used.txt").read_text() == (
        "batch_size = 16\n"
        "epochs = 200\n"
        "group_width = 16\n"
        "h_adj = 2\n"
        "h_deep = 24\n"
        "h_e = 8\n"
        "h_head = 4\n"
        "h_pe = 10\n"
        "h_temporal = 2\n"
        f"locations = {locations}\n"
        "lr = 0.0001\n"
        f"out = {out}\n"
        "patience = 10\n"
        "seed = 0\n"
        f"series = {series}\n"
        "smoothing = 0.1\n"
        "tp = 6\n"
        "tq = 0\n"
        "variant = full\n"
    )


def test_train_help_lists_flags_and_keys_in_order(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")
    assert cli.main(["train", "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "usage: glgat train [-h] [--config CONFIG] [--series SERIES] "
        "[--locations LOCATIONS] [--edges EDGES] [--out OUT] "
        "[--variant {full,ablation1,ablation2,ablation3}] [--seed SEED] [--lr LR] "
        "[--epochs EPOCHS] [--batch-size BATCH_SIZE] [--patience PATIENCE] "
        "[--clip-norm CLIP_NORM] [--tp TP] [--tq TQ] [--group-width GROUP_WIDTH] "
        "[--h-adj H_ADJ] [--h-head H_HEAD] [--h-temporal H_TEMPORAL] "
        "[--h-deep H_DEEP] [--h-pe H_PE] [--h-e H_E] [--smoothing SMOOTHING]"
    )
    epilog = lines[lines.index("config file: flat `key = value` lines accepting the keys"):]
    assert epilog[1] == (
        "  series, locations, edges, out, variant, seed, lr, epochs, batch_size, "
        "patience, clip_norm, tp, tq, group_width, h_adj, h_head, h_temporal, "
        "h_deep, h_pe, h_e, smoothing"
    )
    assert epilog[2] == (
        "defaults: variant=full, seed=0, lr=0.0001, epochs=200, batch_size=16, "
        "patience=10, tp=6, tq=0, group_width=16, h_adj=2, h_head=4, h_temporal=2, "
        "h_deep=24, h_pe=10, h_e=8, smoothing=0.1"
    )


# --------------------------------------------------------------- evaluate


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("trained")
    rc = cli.main(train_args(dataset, out, "--seed", "3", "--lr", "1e-3",
                             "--epochs", "2", "--batch-size", "32"))
    assert rc == 0
    return out


def test_evaluate_matches_library(tmp_path, dataset, trained, capsys):
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--series", str(dataset / "series.csv"),
                   "--locations", str(dataset / "locations.csv"),
                   "--edges", str(dataset / "edges.csv"),
                   "--split", "test", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "variant=full" in printed and "split=test" in printed

    model = gmodel.load_checkpoint(trained / "checkpoint.bin")
    _, series = gdata.load_series(
        dataset / "series.csv", dataset / "locations.csv", dataset / "edges.csv"
    )
    splits = gdata.split_and_window(series, p=12, q=12, stats=model.stats)
    preds = gtrain.predict(model, gtrain.stack_inputs(splits.test))
    targets, masks = gtrain.stack_targets(splits.test)
    report = gtrain.evaluate(preds, targets, masks)

    payload = json.loads((out / "eval.json").read_text())
    assert payload["variant"] == "full"
    for h in gtrain.HORIZONS:
        block = payload["metrics"][f"{h * 5}min"]
        assert block["mae"] == report.horizons[h].mae
        assert block["rmse"] == report.horizons[h].rmse
        assert block["mape"] == report.horizons[h].mape


def test_evaluate_holds_no_whole_split_of_inputs(tmp_path, trained, monkeypatch, capsys):
    """After windowing, evaluate assembles one 64-window chunk of inputs at a
    time: scoring more windows adds their forecasts and targets to its peak,
    never their inputs."""
    long = tmp_path / "long"
    assert cli.main(["synth-data", "--n", "6", "--t", "20000", "--seed", "11", "--out", str(long)]) == 0
    windowed = []

    def then_trace(*args, **kwargs):
        windowed.append(gdata.split_and_window(*args, **kwargs))
        tracemalloc.start()
        return windowed[-1]

    monkeypatch.setattr(cli, "split_and_window", then_trace)
    peaks = {}
    for split in ("val", "test"):
        try:
            rc = cli.main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
                           "--series", str(long / "series.csv"),
                           "--locations", str(long / "locations.csv"),
                           "--edges", str(long / "edges.csv"), "--split", split])
            peaks[split] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
    splits = windowed[0]
    assert "windows=3977" in capsys.readouterr().out and len(splits.val) == 1977
    added = gtrain.stack_inputs(splits.test[len(splits.val) :]).nbytes
    assert peaks["test"] - peaks["val"] < added


def test_evaluate_rejects_sensor_count_mismatch(tmp_path, trained):
    other = tmp_path / "other"
    assert cli.main(["synth-data", "--n", "7", "--t", "300", "--seed", "1",
                     "--out", str(other)]) == 0
    rc = cli.main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--series", str(other / "series.csv"),
                   "--locations", str(other / "locations.csv")])
    assert rc == 2


def test_evaluate_variant_label_follows_checkpoint(tmp_path, dataset, capsys):
    out = tmp_path / "ab3"
    rc = cli.main(train_args(dataset, out, "--variant", "ablation3", "--seed", "0",
                             "--lr", "1e-3", "--epochs", "1", "--batch-size", "32"))
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                   "--series", str(dataset / "series.csv"),
                   "--locations", str(dataset / "locations.csv"), "--split", "val"])
    assert rc == 0
    assert "variant=ablation3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "damage", ["version 1", "version 2", "version 3", "truncated", "shape of 10**12 floats"]
)
def test_evaluate_rejects_unreadable_checkpoint(tmp_path, dataset, trained, capsys, damage):
    blob = (trained / "checkpoint.bin").read_bytes()
    if damage == "truncated":
        blob = blob[: len(blob) // 2]
    elif damage.startswith("shape"):  # a header that declares 8 TB the body does not hold
        line, _, body = blob.partition(b"\n")
        header = json.loads(line)
        header["arrays"][0][1] = [10**12]
        blob = json.dumps(header).encode() + b"\n" + body
    else:
        blob = legacy_checkpoint(blob, int(damage[-1]))
    bad = tmp_path / "checkpoint.json"
    bad.write_bytes(blob)
    capsys.readouterr()
    rc = cli.main(["evaluate", "--checkpoint", str(bad),
                   "--series", str(dataset / "series.csv"),
                   "--locations", str(dataset / "locations.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "checkpoint" in err
    assert "Traceback" not in err
    if damage.startswith("version"):
        assert "reads version 4; re-run train" in err


def test_evaluate_reads_a_checkpoint_from_a_pipe(dataset, trained):
    """A checkpoint piped into /dev/stdin prints the table its path prints."""
    path = trained / "checkpoint.bin"

    def evaluate(checkpoint, **stdin):
        return subprocess.run(
            [sys.executable, "-m", "glgat.cli", "evaluate", "--checkpoint", checkpoint,
             "--series", str(dataset / "series.csv"),
             "--locations", str(dataset / "locations.csv"), "--split", "test"],
            capture_output=True, **stdin,
        )

    by_path = evaluate(str(path), stdin=subprocess.DEVNULL)
    piped = evaluate("/dev/stdin", input=path.read_bytes())
    assert by_path.returncode == 0, by_path.stderr.decode()
    assert piped.returncode == 0, piped.stderr.decode()
    assert piped.stdout == by_path.stdout and b"split=test" in piped.stdout


@pytest.mark.parametrize("case", [k for k in MALFORMED if k.startswith("adj")])
def test_evaluate_rejects_malformed_adjacency(tmp_path, dataset, trained, capsys, case):
    bad = tmp_path / "checkpoint.bin"
    bad.write_bytes((trained / "checkpoint.bin").read_bytes())
    header, arrays = unpack(bad)
    MALFORMED[case](header, arrays)
    pack(bad, header, arrays)
    capsys.readouterr()
    rc = cli.main(["evaluate", "--checkpoint", str(bad),
                   "--series", str(dataset / "series.csv"),
                   "--locations", str(dataset / "locations.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "adjacency" in err


# -------------------------------------------------------------- gradcheck


def test_gradcheck_command_passes(capsys):
    assert cli.main(["gradcheck", "--seed", "1", "--entries", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("entries", ["0", "-1"])
def test_gradcheck_rejects_fewer_than_one_entry(capsys, entries):
    assert cli.main(["gradcheck", "--entries", entries]) == 2
    err = capsys.readouterr().err
    assert "max_entries_per_tensor must be at least 1" in err


# ------------------------------------------------------------------ misc


def test_help_exits_clean(capsys):
    assert cli.main(["--help"]) == 0
    assert "synth-data" in capsys.readouterr().out


def test_unknown_command_is_usage_error():
    assert cli.main(["transmogrify"]) == 2
