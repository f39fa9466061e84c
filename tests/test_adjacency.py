"""Event detection and adjacency construction against scalar-loop oracles."""

import numpy as np
import pytest

from glgat import adjacency as gadj
from glgat.adjacency import (
    EventLog,
    build_connectivity_adjacency,
    build_event_adjacency,
    detect_events,
)
from glgat.data import SensorGraph, TrafficSeries, generate_synthetic

from oracles import event_adjacency_brute, scan_events


def series_from(columns, mask=None):
    """Build a 1-feature series from per-vertex value lists."""
    data = np.asarray(columns, dtype=float).T[:, :, None]
    if mask is None:
        mask = np.ones_like(data, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool).T[:, :, None]
    return TrafficSeries(
        data=data * mask, mask=mask, timestamps=np.arange(data.shape[0]) * 300
    )


def log_from(up, down=None):
    n = len(up)
    down = down if down is not None else [[] for _ in range(n)]
    return EventLog(
        up_events=[np.asarray(e, dtype=np.int64) for e in up],
        down_events=[np.asarray(e, dtype=np.int64) for e in down],
        divider=np.zeros(n),
    )


# ------------------------------------------------------- event detection


def test_single_up_crossing():
    log = detect_events(series_from([[0.0, 10.0]]))
    assert log.divider[0] == 5.0
    assert list(log.up_events[0]) == [1]
    assert list(log.down_events[0]) == []


def test_touching_divider_is_not_a_crossing():
    # constant series: every value equals the divider, nothing crosses it
    log = detect_events(series_from([[5.0, 5.0, 5.0, 5.0]]))
    assert log.divider[0] == 5.0
    assert len(log.up_events[0]) == 0 and len(log.down_events[0]) == 0


def test_rise_from_divider_is_not_an_up_event():
    # prev == divider fails the strict lower bound; the later drop counts
    log = detect_events(series_from([[6.0, 6.0, 10.0, 2.0]]))
    assert log.divider[0] == 6.0
    assert list(log.up_events[0]) == []
    assert list(log.down_events[0]) == [3]


def test_missing_reading_blocks_event():
    log = detect_events(series_from([[1.0, 9.0, 9.0]], mask=[[True, False, True]]))
    assert list(log.up_events[0]) == []
    assert list(log.down_events[0]) == []


def test_under_observed_vertex_flagged():
    log = detect_events(series_from([[1.0, 9.0], [5.0, 5.0]], mask=[[True, False], [True, True]]))
    assert log.flagged == [0]
    assert len(log.up_events[0]) == 0
    assert log.divider[0] == 1.0  # single observation, midpoint of itself


def test_sinusoid_event_positions():
    # period-24 sinusoid sampled 240 steps; counts and positions were
    # derived with the scalar scan oracle and are frozen here
    t = np.arange(240)
    x = -np.cos(2.0 * np.pi * (t + 0.5) / 24.0)
    log = detect_events(series_from([x]))
    assert list(log.up_events[0]) == [6 + 24 * k for k in range(10)]
    assert list(log.down_events[0]) == [18 + 24 * k for k in range(10)]

    up, down = scan_events(x, np.ones(240, bool), log.divider[0])
    assert list(log.up_events[0]) == up
    assert list(log.down_events[0]) == down


def test_detection_matches_scan_oracle_on_random_series():
    rng = np.random.default_rng(42)
    for _ in range(25):
        t = int(rng.integers(10, 200))
        x = rng.uniform(0, 70, t)
        obs = rng.uniform(size=t) > 0.15
        x = x * obs
        series = series_from([x], mask=[obs])
        log = detect_events(series)
        if obs.sum() < 2:
            assert log.flagged == [0]
            continue
        up, down = scan_events(x, obs, log.divider[0])
        assert list(log.up_events[0]) == up
        assert list(log.down_events[0]) == down


# ---------------------------------------------------- event adjacency


def test_identical_event_times_score_one():
    log = log_from(up=[[10, 20, 30], [10, 20, 30]])
    a_up, a_down = build_event_adjacency(log, t_p=1, t_q=1)
    assert a_up[0, 1] == 1.0 and a_up[1, 0] == 1.0
    np.testing.assert_array_equal(a_down, np.eye(2))  # no down events


def test_event_just_outside_window_scores_zero():
    t_p = 3
    log = log_from(up=[[10, 20, 30], [10 - t_p - 1, 20 - t_p - 1, 30 - t_p - 1]])
    a_up, _ = build_event_adjacency(log, t_p=t_p, t_q=0)
    assert a_up[0, 1] == 0.0
    # one step closer and every event lands inside the window
    log2 = log_from(up=[[10, 20, 30], [10 - t_p, 20 - t_p, 30 - t_p]])
    a_up2, _ = build_event_adjacency(log2, t_p=t_p, t_q=0)
    assert a_up2[0, 1] == 1.0


def test_partial_overlap_gives_fraction():
    log = log_from(up=[[10, 20, 40], [9, 38]])
    a_up, _ = build_event_adjacency(log, t_p=2, t_q=0)
    assert a_up[0, 1] == pytest.approx(2.0 / 3.0)


def test_empty_log_yields_identity():
    log = log_from(up=[[], [], []])
    a_up, a_down = build_event_adjacency(log, t_p=6, t_q=0)
    np.testing.assert_array_equal(a_up, np.eye(3))
    np.testing.assert_array_equal(a_down, np.eye(3))


def test_matches_brute_force_on_random_logs():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        t_p = int(rng.integers(0, 9))
        t_q = int(rng.integers(0, 3))
        up, down = [], []
        for _ in range(n):
            k_up = int(rng.integers(0, 12))
            k_down = int(rng.integers(0, 12))
            up.append(np.sort(rng.choice(500, size=k_up, replace=False)))
            down.append(np.sort(rng.choice(500, size=k_down, replace=False)))
        log = log_from(up=up, down=down)
        a_up, a_down = build_event_adjacency(log, t_p=t_p, t_q=t_q)
        np.testing.assert_array_equal(a_up, event_adjacency_brute(up, t_p, t_q))
        np.testing.assert_array_equal(a_down, event_adjacency_brute(down, t_p, t_q))


def test_co_occurrence_in_several_row_chunks_matches_brute_force(monkeypatch):
    monkeypatch.setattr(gadj, "_ROWS_PER_CHUNK", 3)  # tens of chunks per log
    rng = np.random.default_rng(8)
    for t_p, t_q in ((0, 0), (6, 0), (4, 2)):
        events = [np.sort(rng.choice(200, size=k, replace=False)) for k in (0, 1, 9, 30, 17)]
        a_up, _ = build_event_adjacency(log_from(up=events), t_p=t_p, t_q=t_q)
        np.testing.assert_array_equal(a_up, event_adjacency_brute(events, t_p, t_q))


@pytest.mark.parametrize("largest", [32767, 32768])
def test_co_occurrence_exact_at_the_count_width_boundary(largest):
    """32,767 events fill a 16-bit count and 32,768 need a wider one. Events
    at and after the busy vertex's last one read its full count."""
    events = [np.arange(largest), np.array([5, largest - 1, largest + 3]), np.array([largest + 3])]
    t_p = 2 * largest  # every window reaches back to step 0, so the brute force stays linear
    for t_q in (0, 2):
        a_up, _ = build_event_adjacency(log_from(up=events), t_p=t_p, t_q=t_q)
        np.testing.assert_array_equal(a_up, event_adjacency_brute(events, t_p, t_q))


def test_full_pipeline_matches_brute_force():
    _, series, _ = generate_synthetic(5, 300, seed=13, missing_ratio=0.1)
    train = series.slice(0, 210)
    log = detect_events(train)
    a_up, a_down = build_event_adjacency(log, t_p=6, t_q=0)
    np.testing.assert_array_equal(a_up, event_adjacency_brute(log.up_events, 6, 0))
    np.testing.assert_array_equal(a_down, event_adjacency_brute(log.down_events, 6, 0))
    # deterministic rerun is bit-identical
    log2 = detect_events(train)
    b_up, b_down = build_event_adjacency(log2, t_p=6, t_q=0)
    assert a_up.tobytes() == b_up.tobytes() and a_down.tobytes() == b_down.tobytes()


def test_event_matrices_satisfy_range_and_diagonal():
    _, series, _ = generate_synthetic(8, 400, seed=3)
    log = detect_events(series.slice(0, 280))
    for mat in build_event_adjacency(log, t_p=6, t_q=0):
        assert np.all(mat >= 0.0) and np.all(mat <= 1.0)
        assert np.all(np.diagonal(mat) == 1.0)


def test_negative_window_rejected():
    with pytest.raises(ValueError):
        build_event_adjacency(log_from(up=[[1]]), t_p=-1, t_q=0)


# -------------------------------------------------------- connectivity


def path_graph(n):
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    return SensorGraph(n, np.zeros((n, 2)), edges)


def test_path_graph_is_tridiagonal():
    adj = build_connectivity_adjacency(path_graph(3))
    np.testing.assert_array_equal(adj, [[1, 1, 0], [1, 1, 1], [0, 1, 1]])


def test_no_edges_gives_identity():
    adj = build_connectivity_adjacency(SensorGraph(4, np.zeros((4, 2)), []))
    np.testing.assert_array_equal(adj, np.eye(4))


def test_symmetry_tracks_edge_list():
    asym = SensorGraph(3, np.zeros((3, 2)), [(0, 1)])
    adj = build_connectivity_adjacency(asym)
    assert adj[0, 1] == 1.0 and adj[1, 0] == 0.0
    sym = SensorGraph(3, np.zeros((3, 2)), [(0, 1), (1, 0)])
    adj2 = build_connectivity_adjacency(sym)
    np.testing.assert_array_equal(adj2, adj2.T)

