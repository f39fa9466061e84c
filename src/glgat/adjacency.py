"""Adjacency matrices from sensor behavior and road connectivity.

The event route turns each vertex's series into divider crossings (sharp
rises and drops through the midpoint of its observed range), then scores
vertex pairs by how often their crossings co-occur within a small time
window. High scores mean one sensor's regime changes reliably accompany
the other's, exactly the lead/lag structure attention should exploit.

All emitted matrices have entries in [0, 1] and a unit diagonal so every
attention row has at least itself to attend to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TrafficSeries

_ROWS_PER_CHUNK = 4096  # _co_occurrence gathers counts this many rows at a time
_COUNT_TYPES = (np.int8, np.int16, np.int32, np.int64)


@dataclass(frozen=True)
class EventLog:
    """Per-vertex sorted crossing timesteps plus the divider that defined them.

    ``flagged`` lists vertices with fewer than two observed readings; their
    event lists are empty and their divider defaults to 0.
    """

    up_events: list[np.ndarray]
    down_events: list[np.ndarray]
    divider: np.ndarray  # (N,)
    flagged: list[int] = field(default_factory=list)

    def __post_init__(self):
        for lists in (self.up_events, self.down_events):
            for ev in lists:
                if len(ev) > 1 and np.any(np.diff(ev) <= 0):
                    raise ValueError("event lists must be strictly increasing")
        if not np.all(np.isfinite(self.divider)):
            raise ValueError("dividers must be finite")


def detect_events(series: TrafficSeries) -> EventLog:
    """Find divider crossings per vertex on the first feature of a training series.

    The divider is the midpoint of the observed range. An up-event fires at
    t when the reading rises from strictly below the divider to at or above
    it; a down-event mirrors that for drops. Both readings of the pair must
    be observed, so crossings hidden by missing data produce no event.
    """
    x = series.data[:, :, 0]
    obs = series.mask[:, :, 0]
    seen = obs.sum(axis=0)
    top = x.max(axis=0, where=obs, initial=-np.inf)
    bottom = x.min(axis=0, where=obs, initial=np.inf)
    divider = np.zeros(series.n_vertices)
    some = seen > 0
    divider[some] = 0.5 * (top[some] + bottom[some])
    # vertices with fewer than two readings have no observed pair, so no events
    pair = obs[:-1] & obs[1:]
    up = pair & (x[:-1] < divider) & (x[1:] >= divider)
    down = pair & (x[:-1] > divider) & (x[1:] <= divider)
    return EventLog(
        up_events=_per_vertex_steps(up),
        down_events=_per_vertex_steps(down),
        divider=divider,
        flagged=np.flatnonzero(seen < 2).tolist(),
    )


def _per_vertex_steps(crossed: np.ndarray) -> list[np.ndarray]:
    """Sorted timesteps t of each column's crossings, crossed[t - 1] being set."""
    vertex, step = np.nonzero(crossed.T)  # vertex-major, steps ascending
    bounds = np.cumsum(np.bincount(vertex, minlength=crossed.shape[1]))[:-1]
    return np.split(step.astype(np.int64) + 1, bounds)


def _co_occurrence(events: list[np.ndarray], t_p: int, t_q: int) -> np.ndarray:
    """score[i, j] = fraction of i's events with a j event in [t-t_p, t+t_q].

    Over the distinct event times, a cumulative count of each vertex's
    events marks the times whose window holds a j event; summing those marks
    over i's events gives integer counts, so the scores are exact.
    """
    n = len(events)
    score = np.zeros((n, n))
    sizes = [ev.size for ev in events]
    if sum(sizes):
        times = np.unique(np.concatenate(events))
        at = [np.searchsorted(times, ev) for ev in events]
        # counts[k, j]: j's events among times[:k], in the narrowest type
        # that holds the largest vertex's count
        width = next(t for t in _COUNT_TYPES if np.iinfo(t).max >= max(sizes))
        counts = np.zeros((times.size + 1, n), dtype=width)
        counts[np.concatenate(at) + 1, np.repeat(np.arange(n), sizes)] = 1
        np.cumsum(counts, axis=0, dtype=width, out=counts)
        lo = np.searchsorted(times, times - t_p, side="left")
        hi = np.searchsorted(times, times + t_q, side="right")
        # near[k, j]: a j event in times[k]'s window, in chunks of rows
        near = np.empty((times.size, n), dtype=bool)
        for a in range(0, times.size, _ROWS_PER_CHUNK):
            rows = slice(a, a + _ROWS_PER_CHUNK)
            np.greater(counts[hi[rows]], counts[lo[rows]], out=near[rows])
        for i, k in enumerate(at):
            if k.size:
                score[i] = near[k].sum(axis=0) / k.size
    np.clip(score, 0.0, 1.0, out=score)
    np.fill_diagonal(score, 1.0)
    return score


def build_event_adjacency(log: EventLog, t_p: int, t_q: int) -> tuple[np.ndarray, np.ndarray]:
    """Co-occurrence matrices for up- and down-events.

    Row i scores each j by the fraction of i's events whose window
    [t - t_p, t + t_q] contains at least one j event. Vertices without
    events score 0 off-diagonal; every diagonal is forced to 1.
    """
    if t_p < 0 or t_q < 0:
        raise ValueError("t_p and t_q must be non-negative")
    return (
        _co_occurrence(log.up_events, t_p, t_q),
        _co_occurrence(log.down_events, t_p, t_q),
    )


def build_connectivity_adjacency(graph) -> np.ndarray:
    """Binary matrix: 1 where a road connects i to j (or i = j), else 0."""
    n = graph.n_vertices
    adj = np.zeros((n, n))
    for a, b in graph.edges:
        adj[a, b] = 1.0
    np.fill_diagonal(adj, 1.0)
    return adj
