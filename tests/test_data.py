"""Dataset pipeline tests: CSV ingestion rules, split/window arithmetic,
normalization anchoring, and the synthetic road-network generator."""

import tracemalloc

import numpy as np
import pytest

from glgat import data as gdata
from glgat.data import (
    DataError,
    NormStats,
    SensorGraph,
    TrafficSeries,
    fit_norm_stats,
    generate_synthetic,
    input_channels,
    load_series,
    split_and_window,
    split_sizes,
)
from oracles import denormalize, load_series_rows_scalar, windows_reference


def write(path, text):
    path.write_text(text)
    return path


def toy_files(tmp_path, series_rows=None):
    series = write(
        tmp_path / "series.csv",
        series_rows
        or (
            "timestamp,s1,s2,s3\n"
            "2024-01-01T00:00:00,55.0,60.0,58.0\n"
            "2024-01-01T00:05:00,54.0,59.5,57.0\n"
            "2024-01-01T00:10:00,53.0,59.0,56.0\n"
            "2024-01-01T00:15:00,52.0,58.5,55.0\n"
            "2024-01-01T00:20:00,51.0,58.0,54.0\n"
        ),
    )
    locations = write(
        tmp_path / "locations.csv",
        "sensor_id,x,y\ns1,0.0,0.0\ns2,1.0,0.0\ns3,0.0,1.0\n",
    )
    edges = write(tmp_path / "edges.csv", "from_id,to_id\ns1,s2\ns2,s1\ns2,s3\n")
    return series, locations, edges


def make_series(data, mask=None, step=300):
    data = np.asarray(data, dtype=float)
    if mask is None:
        mask = np.ones_like(data, dtype=bool)
    ts = 1_700_000_100 + step * np.arange(data.shape[0])
    return TrafficSeries(data=data * mask, mask=mask, timestamps=ts)


# ------------------------------------------------------------ ingestion


def test_load_toy_csv_fully_observed(tmp_path):
    series_f, loc_f, edges_f = toy_files(tmp_path)
    graph, series = load_series(series_f, loc_f, edges_f)
    assert series.data.shape == (5, 3, 1)
    assert series.mask.all()
    assert series.data[0, 1, 0] == 60.0
    assert graph.n_vertices == 3
    assert (0, 1) in graph.edges and (1, 2) in graph.edges
    assert np.array_equal(np.diff(series.timestamps), np.full(4, 300))


def test_load_empty_cell_is_missing(tmp_path):
    rows = (
        "timestamp,s1,s2,s3\n"
        "2024-01-01T00:00:00,55.0,,58.0\n"
        "2024-01-01T00:05:00,54.0,59.5,57.0\n"
    )
    series_f, loc_f, _ = toy_files(tmp_path, rows)
    _, series = load_series(series_f, loc_f)
    assert not series.mask[0, 1, 0]
    assert series.data[0, 1, 0] == 0.0
    assert series.mask.sum() == 5


def test_load_zero_reading_is_missing_unless_disabled(tmp_path):
    rows = (
        "timestamp,s1,s2,s3\n"
        "2024-01-01T00:00:00,0.0,60.0,58.0\n"
        "2024-01-01T00:05:00,54.0,59.5,57.0\n"
    )
    series_f, loc_f, _ = toy_files(tmp_path, rows)
    _, series = load_series(series_f, loc_f)
    assert not series.mask[0, 0, 0]


def test_load_sensor_id_mismatch(tmp_path):
    series_f, _, _ = toy_files(tmp_path)
    bad_loc = write(tmp_path / "bad_loc.csv", "sensor_id,x,y\ns1,0,0\ns2,1,0\nsX,0,1\n")
    with pytest.raises(DataError, match="sensor ids differ"):
        load_series(series_f, bad_loc)


def test_load_non_constant_timestep(tmp_path):
    rows = (
        "timestamp,s1,s2,s3\n"
        "2024-01-01T00:00:00,55.0,60.0,58.0\n"
        "2024-01-01T00:05:00,54.0,59.5,57.0\n"
        "2024-01-01T00:20:00,53.0,59.0,56.0\n"
    )
    series_f, loc_f, _ = toy_files(tmp_path, rows)
    with pytest.raises(DataError, match="constant step"):
        load_series(series_f, loc_f)


def test_load_unparseable_rows(tmp_path):
    series_f, loc_f, _ = toy_files(
        tmp_path, "timestamp,s1,s2,s3\nnot-a-time,55.0,60.0,58.0\n"
    )
    with pytest.raises(DataError, match="unparseable timestamp"):
        load_series(series_f, loc_f)
    series_f2 = write(
        tmp_path / "bad2.csv", "timestamp,s1,s2,s3\n2024-01-01T00:00:00,55.0,oops,58.0\n"
    )
    with pytest.raises(DataError, match="unparseable reading"):
        load_series(series_f2, loc_f)


# Cells the block parser must read exactly as the per-cell reference does.
CELL_KINDS = (
    "57.25", "", "   ", "\t", "0.0", "0", "-0.0", " 61.5 ", "1e1", "58.123456789012345",
    '"57.5"', '" 61.5 "', '""', '"0"',
)


def random_series_csv(path, rng, n, t, newline):
    rows = ["timestamp," + ",".join(f"s{j}" for j in range(n))]
    for r in range(t):
        cells = [
            CELL_KINDS[k] if k < len(CELL_KINDS) else repr(float(rng.uniform(1.0, 90.0)))
            for k in rng.integers(0, 2 * len(CELL_KINDS), size=n)
        ]
        stamp = f"2024-03-01 {r // 60:02d}:{r % 60:02d}:00+00:00"
        if r % 5 == 3:
            stamp = f'"{stamp}"'
        rows.append(stamp + "," + ",".join(cells))
    path.write_bytes((newline.join(rows) + newline).encode())
    return path


def locations_for(path, n):
    return write(path, "sensor_id,x,y\n" + "".join(f"s{j},{j}.0,0.0\n" for j in range(n)))


def parse_in_blocks_of(monkeypatch, rows):
    """Blocks of at most ``rows`` rows of ``random_series_csv``, whose rows
    hold 30 characters or more: one row per block when ``rows`` is 1."""
    monkeypatch.setattr(gdata, "_BLOCK_CHARS", 30 * rows - 1)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("block_rows", [1, 4, 7, 1024])
def test_block_parser_matches_per_cell_reference(tmp_path, monkeypatch, newline, block_rows):
    parse_in_blocks_of(monkeypatch, block_rows)
    rng = np.random.default_rng(block_rows)
    n = 5
    loc_f = locations_for(tmp_path / "loc.csv", n)
    # T just below, at and above multiples of the block size
    for t in (1, 3, 4, 7, 8, 29):
        series_f = random_series_csv(tmp_path / f"s{t}.csv", rng, n, t, newline)
        _, series = load_series(series_f, loc_f)
        stamps, data, mask = load_series_rows_scalar(series_f)
        assert series.timestamps.tobytes() == stamps.tobytes()
        assert series.data.tobytes() == data.tobytes()
        assert series.mask.tobytes() == mask.tobytes()


def traced_peak(fn) -> int:
    """The peak growth of traced memory while ``fn()`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_load_series_peak_is_its_arrays_plus_about_one_block(tmp_path, monkeypatch):
    """Each block is parsed straight into the result, so no block is kept to
    be joined: loading holds the final arrays and one block's strings."""
    graph, series, _ = generate_synthetic(n=8, t=8000, seed=3)
    paths = gdata.write_csv_dataset(graph, series, tmp_path)
    rows = paths["series"].read_text().split("\n")
    one_block = write(tmp_path / "one_block.csv", "\n".join(rows[:65]) + "\n")
    # blocks the size of one_block's 64 data rows
    monkeypatch.setattr(gdata, "_BLOCK_CHARS", sum(len(r) + 1 for r in rows[1:65]) - 1)
    load_series(one_block, paths["locations"])  # warm-up
    block = traced_peak(lambda: load_series(one_block, paths["locations"]))
    peak = traced_peak(lambda: load_series(paths["series"], paths["locations"]))
    final = series.data.nbytes + series.mask.nbytes + series.timestamps.nbytes
    # TrafficSeries' checks pass over the whole mask: about a byte per cell
    assert peak < 1.25 * final + 2 * block


def expect_same_error(series_f, loc_f):
    with pytest.raises(DataError) as reference:
        load_series_rows_scalar(series_f)
    with pytest.raises(DataError) as got:
        load_series(series_f, loc_f)
    assert str(got.value) == str(reference.value)
    return str(got.value)


@pytest.mark.parametrize("block_rows", [1, 3, 1024])
def test_bad_rows_raise_with_the_reference_line_number(tmp_path, monkeypatch, block_rows):
    parse_in_blocks_of(monkeypatch, block_rows)
    rng = np.random.default_rng(9)
    n = 4
    loc_f = locations_for(tmp_path / "loc.csv", n)
    good = random_series_csv(tmp_path / "good.csv", rng, n, 9, "\n").read_text().split("\n")
    faults = {
        "ragged_short": lambda line: line.rsplit(",", 1)[0],
        "ragged_long": lambda line: line + ",5.0",
        "blank_line": lambda line: "",
        "bad_reading": lambda line: line.rsplit(",", 1)[0] + ",fast",
        "quoted_comma": lambda line: line.rsplit(",", 1)[0] + ',"1,5"',
        "malformed_number": lambda line: line.rsplit(",", 1)[0] + ",12..5",
        "bad_timestamp": lambda line: "yesterday," + line.split(",", 1)[1],
    }
    seen = set()
    for name, fault in faults.items():
        for line_no in (2, 6, 10):  # first row, a middle row, the last row
            lines = list(good)
            lines[line_no - 1] = fault(lines[line_no - 1])
            if line_no != 10:  # a second fault further down must not be the one reported
                lines[9] = lines[9] + ",extra"
            series_f = write(tmp_path / f"{name}{line_no}.csv", "\n".join(lines))
            message = expect_same_error(series_f, loc_f)
            assert message.startswith(f"line {line_no}:"), message
            seen.add(message.split(": ", 1)[1].split(" ")[0])
    assert seen == {"expected", "unparseable"}


def test_rows_after_a_quoted_newline_keep_the_reference_line_number(tmp_path, monkeypatch):
    # the next block starts after the quoted cell
    monkeypatch.setattr(gdata, "_BLOCK_CHARS", len('2024-01-01T00:00:00,1.0,"5\n"\n') - 1)
    loc_f = locations_for(tmp_path / "loc.csv", 2)
    series_f = write(
        tmp_path / "s.csv",
        'timestamp,s0,s1\n2024-01-01T00:00:00,1.0,"5\n"\n'
        "2024-01-01T00:05:00,2.0,3.0\n2024-01-01T00:10:00,2.0,oops\n",
    )
    assert expect_same_error(series_f, loc_f) == "line 4: unparseable reading 'oops'"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_quoted_newline_joins_two_lines_into_one_row(tmp_path, monkeypatch, newline):
    monkeypatch.setattr(gdata, "_BLOCK_CHARS", 64)  # the whole file in one block
    loc_f = locations_for(tmp_path / "loc.csv", 2)
    lines = ["timestamp,s0,s1", '2024-01-01T00:00:00,1.0,"5', '"', "2024-01-01T00:05:00,2.0,3.0"]
    series_f = tmp_path / "s.csv"
    series_f.write_bytes((newline.join(lines) + newline).encode())
    _, series = load_series(series_f, loc_f)
    stamps, data, mask = load_series_rows_scalar(series_f)
    assert series.data.shape == (2, 2, 1)
    assert series.timestamps.tobytes() == stamps.tobytes()
    assert series.data.tobytes() == data.tobytes()
    assert series.mask.tobytes() == mask.tobytes()


def test_literal_nan_reading_is_rejected(tmp_path):
    series_f, loc_f, _ = toy_files(
        tmp_path, "timestamp,s1,s2,s3\n2024-01-01T00:00:00,55.0,nan,58.0\n"
    )
    with pytest.raises(DataError, match="finite"):
        load_series(series_f, loc_f)


def test_header_only_and_empty_files(tmp_path):
    _, loc_f, _ = toy_files(tmp_path)
    for text in ("", "timestamp,s1,s2,s3\n", "timestamp,s1,s2,s3"):
        series_f = write(tmp_path / "short.csv", text)
        assert "header row" in expect_same_error(series_f, loc_f)


def test_graph_rejects_self_loop_and_bad_endpoint():
    with pytest.raises(DataError):
        SensorGraph(2, np.zeros((2, 2)), [(0, 0)])
    with pytest.raises(DataError):
        SensorGraph(2, np.zeros((2, 2)), [(0, 5)])


# -------------------------------------------------------------- windows


def test_split_arithmetic_t100():
    assert split_sizes(100, (0.7, 0.1, 0.2)) == (70, 10, 20)
    rng = np.random.default_rng(0)
    series = make_series(rng.uniform(30, 70, (100, 3, 1)))
    splits = split_and_window(series, p=12, q=12)
    assert splits.split_sizes == (70, 10, 20)
    assert len(splits.train) == 70 - 24 + 1 == 47
    # val/test splits are shorter than p+q here, so they hold no windows
    assert len(splits.val) == 0 and len(splits.test) == 0
    s = splits.train[0]
    assert s.input.shape == (12, 3, input_channels(1))
    assert s.target.shape == (12, 3, 1)
    assert s.target_mask.shape == (12, 3, 1)


def test_windows_do_not_cross_split_boundaries():
    # encode the absolute timestep in the data, then check window contents
    t = 200
    series = make_series(np.arange(t, dtype=float)[:, None, None] + np.zeros((t, 2, 1)) + 1.0)
    splits = split_and_window(series, p=4, q=3)
    n_train, n_val, _ = splits.split_sizes
    offsets = {"train": 0, "val": n_train, "test": n_train + n_val}
    for name, part in [("train", splits.train), ("val", splits.val), ("test", splits.test)]:
        lo = offsets[name]
        for w, s in enumerate(part):
            start = lo + w
            # targets are raw, so they carry the absolute step directly
            expected = np.arange(start + 4, start + 7, dtype=float) + 1.0
            np.testing.assert_array_equal(s.target[:, 0, 0], expected)


def test_targets_immediately_follow_inputs():
    rng = np.random.default_rng(1)
    data = rng.uniform(20, 80, (60, 2, 1))
    series = make_series(data)
    splits = split_and_window(series, p=5, q=4)
    s = splits.train[3]
    np.testing.assert_array_equal(s.target[:, :, 0], data[3 + 5 : 3 + 9, :, 0])
    denorm = denormalize(splits.stats, s.input[:, :, :1])
    np.testing.assert_allclose(denorm[:, :, 0], data[3 : 3 + 5, :, 0], atol=1e-9)


def assert_windows_match_reference(series, p, q, ratios=(0.7, 0.1, 0.2), stats=None):
    """Every window's four fields, taken one at a time and gathered per
    split, equal the whole-split reference byte for byte."""
    splits = split_and_window(series, p=p, q=q, ratios=ratios, stats=stats)
    reference = windows_reference(series, p, q, ratios=ratios, stats=stats)
    channels = input_channels(series.n_features)
    for part, expected in zip((splits.train, splits.val, splits.test), reference):
        assert len(part) == len(expected)
        for got, want in zip(part, expected):
            for a, b in zip((got.input, got.target, got.target_mask, got.target_times), want):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        inputs, steps = part.inputs(), part.target_steps()
        assert inputs.shape == (len(part), p, series.n_vertices, channels)
        gathers = inputs, part.data[steps], part.mask[steps], part.times[steps]
        for i, gathered in enumerate(gathers):
            want = np.stack([w[i] for w in expected]) if expected else gathered[:0]
            assert gathered.tobytes() == want.tobytes()
        if expected:
            assert part[-1].input.tobytes() == expected[-1][0].tobytes()
            assert part[1::3].inputs().tobytes() == inputs[1::3].tobytes()
    return splits


def test_window_fields_are_read_only_views():
    rng = np.random.default_rng(5)
    series = make_series(rng.uniform(20, 80, (120, 3, 1)))
    splits = assert_windows_match_reference(series, p=4, q=3)
    for part in (splits.train, splits.val, splits.test):
        first, last = part[0], part[-1]
        for name in ("input", "target", "target_mask", "target_times"):
            field_first, field_last = getattr(first, name), getattr(last, name)
            if name != "input":  # inputs are assembled on access
                assert np.shares_memory(field_first.base, field_last)  # one buffer per split
            with pytest.raises(ValueError, match="read-only"):
                field_first[0] = 1

    # the windows of all three splits hold about one raw copy of the series
    series = make_series(rng.uniform(20, 80, (3000, 40, 1)))
    raw = series.data.nbytes + series.mask.nbytes + series.timestamps.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        splits = split_and_window(series, p=12, q=12)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * raw + 64 * 1024


@pytest.mark.parametrize(
    "k, p, q, ratios, stats",
    [
        (1, 12, 12, (0.7, 0.1, 0.2), None),
        (2, 5, 3, (0.7, 0.1, 0.2), None),
        (2, 4, 9, (0.6, 0.2, 0.2), NormStats(mean=np.array([40.0, -3.0]), std=np.array([7.5, 1e-6]))),
        # a validation split of exactly one window, a test split of none
        (1, 12, 12, (0.85, 0.12, 0.03), None),
    ],
    ids=["k1", "k2-p5-q3", "k2-stats", "short-splits"],
)
def test_windows_match_the_whole_split_reference(k, p, q, ratios, stats):
    rng = np.random.default_rng(k * 100 + p)
    t = 200
    data = rng.uniform(1, 90, (t, 5, k))
    series = make_series(data, rng.uniform(size=data.shape) > 0.2)
    splits = assert_windows_match_reference(series, p, q, ratios=ratios, stats=stats)
    if stats is not None:
        assert splits.stats is stats


def test_targets_survive_mutating_the_series():
    rng = np.random.default_rng(6)
    series = make_series(rng.uniform(20, 80, (120, 3, 1)))
    splits = split_and_window(series, p=4, q=3)
    before = [(s.target.copy(), s.target_mask.copy(), s.target_times.copy()) for s in splits.test]
    series.data[:] = -1.0
    series.mask[:] = False
    series.timestamps[:] = 0
    for s, (target, mask, times) in zip(splits.test, before):
        assert np.array_equal(s.target, target)
        assert np.array_equal(s.target_mask, mask)
        assert np.array_equal(s.target_times, times)


def test_windows_carry_no_instance_dict():
    rng = np.random.default_rng(7)
    splits = split_and_window(make_series(rng.uniform(20, 80, (60, 3, 1))), p=4, q=3)
    assert not hasattr(splits.train[0], "__dict__")


def test_constant_series_normalizes_to_zero():
    series = make_series(np.full((100, 4, 1), 60.0))
    splits = split_and_window(series, p=12, q=12)
    assert splits.stats.mean[0] == 60.0
    assert splits.stats.std[0] == 1e-6
    for s in splits.train:
        assert np.all(s.input[:, :, 0] == 0.0)


def test_normalization_round_trip():
    rng = np.random.default_rng(2)
    data = rng.uniform(5, 95, (50, 3, 2))
    mask = rng.uniform(size=data.shape) > 0.1
    stats = fit_norm_stats(data * mask, mask)
    back = denormalize(stats, stats.normalize(data))
    np.testing.assert_allclose(back, data, rtol=0, atol=1e-12)


def test_norm_stats_equal_numpy_mean_and_std_bit_for_bit():
    rng = np.random.default_rng(11)
    for t, n, k in ((50, 3, 2), (400, 7, 1), (1000, 20, 3)):
        data = rng.normal(rng.uniform(-50, 50), rng.uniform(0.5, 20), (t, n, k))
        mask = rng.uniform(size=data.shape) > rng.uniform(0.05, 0.6)
        data *= mask
        stats = fit_norm_stats(data, mask)
        for f in range(k):
            vals = data[:, :, f][mask[:, :, f]]
            assert stats.mean[f].tobytes() == vals.mean().tobytes()
            assert stats.std[f].tobytes() == vals.std().tobytes()


def test_stats_ignore_val_and_test_data():
    rng = np.random.default_rng(3)
    data = rng.uniform(30, 70, (100, 3, 1))
    a = split_and_window(make_series(data.copy()), p=6, q=6)
    tampered = data.copy()
    tampered[70:] *= 10.0  # only val/test timesteps change
    b = split_and_window(make_series(tampered), p=6, q=6)
    assert a.stats.mean.tobytes() == b.stats.mean.tobytes()
    assert a.stats.std.tobytes() == b.stats.std.tobytes()


def test_stats_use_observed_entries_only():
    data = np.full((100, 1, 1), 50.0)
    mask = np.ones_like(data, dtype=bool)
    data[:10] = 999.0
    mask[:10] = False
    data[~mask] = 0.0
    series = TrafficSeries(data=data, mask=mask, timestamps=np.arange(100) * 300)
    splits = split_and_window(series, p=6, q=6)
    assert splits.stats.mean[0] == 50.0


def test_missing_inputs_zero_filled_and_flagged():
    rng = np.random.default_rng(4)
    data = rng.uniform(30, 70, (80, 2, 1))
    mask = np.ones_like(data, dtype=bool)
    mask[10, 1, 0] = False
    series = make_series(data, mask)
    splits = split_and_window(series, p=12, q=12)
    s = splits.train[0]  # window covers timesteps 0..11
    assert s.input[10, 1, 0] == 0.0
    assert s.input[10, 1, 2] == 0.0  # mask channel
    assert s.input[10, 0, 2] == 1.0


def test_time_of_day_channel():
    series = make_series(np.ones((60, 2, 1)), step=300)
    splits = split_and_window(series, p=4, q=4)
    s = splits.train[0]
    expected = ((series.timestamps[:4] % 86400) / 86400.0)[:, None]
    np.testing.assert_allclose(s.input[:, :, 1], np.broadcast_to(expected, (4, 2)))


def test_series_too_short():
    series = make_series(np.ones((30, 2, 1)))
    with pytest.raises(DataError, match="too short"):
        split_and_window(series, p=12, q=12)  # train split is 21 < 24


def test_series_invariant_masked_entries_zero():
    data = np.ones((5, 1, 1))
    mask = np.zeros_like(data, dtype=bool)
    with pytest.raises(DataError, match="hold 0"):
        TrafficSeries(data=data, mask=mask, timestamps=np.arange(5))


# ------------------------------------------------------------ synthetic


def test_synthetic_deterministic():
    g1, s1, tr1 = generate_synthetic(15, 2000, seed=7)
    g2, s2, tr2 = generate_synthetic(15, 2000, seed=7)
    assert g1.coordinates.tobytes() == g2.coordinates.tobytes()
    assert g1.edges == g2.edges
    assert s1.data.tobytes() == s2.data.tobytes()
    assert s1.mask.tobytes() == s2.mask.tobytes()
    assert s1.timestamps.tobytes() == s2.timestamps.tobytes()
    assert tr1 == tr2
    _, s3, _ = generate_synthetic(15, 2000, seed=8)
    assert s1.data.tobytes() != s3.data.tobytes()


def test_synthetic_missing_ratio():
    _, series, _ = generate_synthetic(15, 2000, seed=3, missing_ratio=0.05)
    realized = 1.0 - series.mask.mean()
    assert 0.04 <= realized <= 0.06


def test_synthetic_graph_is_connected_and_valid():
    graph, series, _ = generate_synthetic(12, 400, seed=1)
    assert graph.n_vertices == 12
    assert series.data.shape == (400, 12, 1)
    # both directions present for every road segment
    pairs = set(graph.edges)
    assert all((b, a) in pairs for a, b in pairs)
    # connectivity via union-find over undirected pairs
    parent = list(range(12))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    assert len({find(v) for v in range(12)}) == 1


def test_synthetic_shock_spreads_to_neighbors():
    # noise-free run so dips are visible directly in the series
    _, series, trace = generate_synthetic(
        6, 1200, seed=11, missing_ratio=0.0, noise_std=0.0, shock_rate=1.0 / 500.0
    )
    assert trace, "expected at least one planted shock"
    speeds = series.data[:, :, 0]

    def activity(vertex, lo, hi):
        """Planted dips affecting `vertex` anywhere in steps [lo, hi)."""
        spans = []
        for r in trace:
            if r.origin == vertex:
                spans.append((r.start, r.start + r.duration))
            for nb, delay in r.spread:
                if nb == vertex:
                    spans.append((r.start + delay, r.start + delay + r.duration))
        return [s for s in spans if s[0] < hi and s[1] > lo]

    checked = 0
    for rec in trace:
        assert rec.spread, "every origin has at least one graph neighbor"
        for nb, delay in rec.spread:
            assert 1 <= delay <= 3
            onset = rec.start + delay
            if onset + 1 >= 1200:
                continue
            # only judge dips that are isolated at the neighbor around onset
            others = activity(nb, onset - 25, onset + 2)
            if others != [(onset, onset + rec.duration)]:
                continue
            drop = speeds[onset, nb] - speeds[onset - 1, nb]
            assert drop < -3.0, (rec, nb, delay, drop)
            checked += 1
    assert checked >= 3


def test_synthetic_rejects_bad_params():
    with pytest.raises(DataError):
        generate_synthetic(3, 400, seed=0)
    with pytest.raises(DataError):
        generate_synthetic(8, 100, seed=0)
    with pytest.raises(DataError):
        generate_synthetic(8, 400, seed=0, missing_ratio=1.0)
