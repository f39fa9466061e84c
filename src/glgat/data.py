"""Sensor-graph datasets: CSV ingestion, synthetic generation, chronological
splitting, stride-1 windowing, and train-anchored z-score normalization.

Raw readings stay in their original scale inside ``TrafficSeries``; windowed
model inputs are normalized while targets remain raw so losses and metrics
are reported in physical units. ``load_series`` returns writable arrays
that the caller owns. ``TrafficSeries.slice`` returns read-only views of
them. Each split's ``Windows`` holds one read-only copy of the split's raw
data, mask and timestamps, which later writes to the series do not reach,
and the start step of each window. A window's normalized input is
assembled from that copy when the window or a batch of windows is taken;
its targets are views of the copy.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

SECONDS_PER_DAY = 86400
STD_FLOOR = 1e-6


class DataError(ValueError):
    """Malformed input files or dataset parameters."""


@dataclass(frozen=True)
class SensorGraph:
    """Static road-sensor layout: vertex coordinates plus directed edges."""

    n_vertices: int
    coordinates: np.ndarray  # (N, 2)
    edges: list[tuple[int, int]]

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=np.float64)
        if coords.shape != (self.n_vertices, 2):
            raise DataError(f"coordinates must have shape ({self.n_vertices}, 2)")
        if not np.all(np.isfinite(coords)):
            raise DataError("coordinates must be finite")
        object.__setattr__(self, "coordinates", coords)
        for a, b in self.edges:
            if not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices):
                raise DataError(f"edge ({a}, {b}) endpoint out of range")
            if a == b:
                raise DataError(f"self-loop edge ({a}, {b}) not allowed in edge list")


@dataclass(frozen=True)
class NormStats:
    """Per-feature z-score statistics fitted on training-split observations."""

    mean: np.ndarray  # (K,)
    std: np.ndarray  # (K,), floored at STD_FLOOR

    def normalize(self, data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(data - mean) / std, written into ``out`` when one is given."""
        out = np.subtract(data, self.mean, out=out)
        out /= self.std
        return out


@dataclass
class TrafficSeries:
    """T x N x K observations with an observation mask and epoch timestamps.

    Masked-out entries hold exactly 0. Timestamps are integer epoch seconds,
    strictly increasing with a constant step.
    """

    data: np.ndarray  # (T, N, K) float64, raw scale
    mask: np.ndarray  # (T, N, K) bool
    timestamps: np.ndarray  # (T,) int64 epoch seconds

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if self.data.ndim != 3:
            raise DataError("series data must be T x N x K")
        if self.mask.shape != self.data.shape:
            raise DataError("mask shape must match data shape")
        if self.timestamps.shape != (self.data.shape[0],):
            raise DataError("need one timestamp per timestep")
        steps = np.diff(self.timestamps)
        if len(steps) and (np.any(steps <= 0) or len(np.unique(steps)) != 1):
            raise DataError("timestamps must be strictly increasing with a constant step")
        if not np.all(np.isfinite(self.data)):
            raise DataError("series data must be finite")
        if np.any(self.data[~self.mask] != 0.0):
            raise DataError("masked-out entries must hold 0")

    @property
    def n_steps(self) -> int:
        return self.data.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.data.shape[1]

    @property
    def n_features(self) -> int:
        return self.data.shape[2]

    def slice(self, start: int, stop: int) -> "TrafficSeries":
        """Steps [start, stop) as read-only views of this series' arrays.

        The slice shares memory with this series and copies nothing, so a
        later write to this series shows through it."""
        views = self.data[start:stop], self.mask[start:stop], self.timestamps[start:stop]
        for view in views:
            view.flags.writeable = False
        data, mask, timestamps = views
        return TrafficSeries(data=data, mask=mask, timestamps=timestamps)


@dataclass(frozen=True, slots=True)
class WindowedSample:
    """One training example: P input steps and the Q following target steps.

    ``input`` is (P, N, 2K+1): the K normalized features (0 where missing),
    one time-of-day channel, then K mask channels as floats, assembled when
    the window is taken from its ``Windows``. ``target`` is (Q, N, K) in raw
    scale with ``target_mask`` marking observed entries and
    ``target_times`` the epoch timestamps of the Q target steps; these
    three are views of the split's copy. All four are read-only.
    """

    input: np.ndarray
    target: np.ndarray
    target_mask: np.ndarray
    target_times: np.ndarray


@dataclass(frozen=True, eq=False, repr=False)
class Windows:
    """The stride-1 windows of one split, as start steps over one read-only
    copy of the split's raw data, mask and timestamps.

    Indexing with an integer gives a ``WindowedSample``; a slice or an index
    array gives the ``Windows`` of those starts. ``inputs`` gathers the
    inputs of all of them in one step, and ``target_steps`` indexes their
    targets in ``data``, ``mask`` and ``times``. Inputs are assembled from
    the raw copy on each access, so no whole split's inputs are held.
    """

    data: np.ndarray  # (L, N, K) raw scale
    mask: np.ndarray  # (L, N, K) bool
    times: np.ndarray  # (L,) epoch seconds
    stats: NormStats
    p: int
    q: int
    starts: np.ndarray  # (S,) first input step of each window

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        if not isinstance(index, (int, np.integer)):
            return replace(self, starts=self.starts[index])
        start = int(self.starts[index])
        (x,) = replace(self, starts=np.array([start])).inputs()
        x.flags.writeable = False
        target = slice(start + self.p, start + self.p + self.q)
        return WindowedSample(
            input=x,
            target=self.data[target],
            target_mask=self.mask[target],
            target_times=self.times[target],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def inputs(self) -> np.ndarray:
        """(S, P, N, 2K+1) inputs of every window, as ``WindowedSample.input``
        lays out one, gathered in one step."""
        rows = self.starts[:, None] + np.arange(self.p)
        k = self.data.shape[2]
        out = np.empty(rows.shape + (self.data.shape[1], input_channels(k)))
        features = out[..., :k]
        mask = self.mask[rows]
        self.stats.normalize(self.data[rows], out=features)
        features[~mask] = 0.0  # zero-fill missing inputs after scaling
        out[..., k] = time_of_day(self.times[rows])[..., None]
        out[..., k + 1 :] = mask
        return out

    def target_steps(self) -> np.ndarray:
        """(S, Q) steps of the split's copy that each window's targets cover."""
        return self.starts[:, None] + (self.p + np.arange(self.q))


@dataclass(frozen=True)
class WindowedSplits:
    """Chronological train/val/test windows plus the stats that scaled them."""

    train: Windows
    val: Windows
    test: Windows
    stats: NormStats
    split_sizes: tuple[int, int, int]


def input_channels(n_features: int) -> int:
    """Width of WindowedSample.input's last axis for K raw features."""
    return 2 * n_features + 1


def time_of_day(timestamps: np.ndarray) -> np.ndarray:
    """Fraction of day in [0, 1) of each epoch timestamp."""
    return (timestamps % SECONDS_PER_DAY) / float(SECONDS_PER_DAY)


def _parse_timestamp(raw: str, line_no: int) -> int:
    try:
        dt = datetime.fromisoformat(raw.strip())
    except ValueError:
        raise DataError(f"line {line_no}: unparseable timestamp {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _scan_block(lines: list[str], first_line: int, n: int):
    """Row by row and cell by cell through ``csv.reader``: the stamps,
    readings and observed flags of a block ``_parse_block`` rejected, or
    the DataError of its first bad row or cell. Blank and whitespace-only
    cells are missing; quoted cells are unquoted."""
    rows = list(csv.reader(lines))
    stamps = np.empty(len(rows), dtype=np.int64)
    values = np.zeros((len(rows), n))
    observed = np.zeros((len(rows), n), dtype=bool)
    for r, row in enumerate(rows):
        t = first_line + r
        if len(row) != n + 1:
            raise DataError(f"line {t}: expected {n + 1} columns, found {len(row)}")
        stamps[r] = _parse_timestamp(row[0], t)
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell:
                try:
                    values[r, j] = float(cell)
                except ValueError:
                    raise DataError(f"line {t}: unparseable reading {cell!r}") from None
                observed[r, j] = True
    return stamps, values, observed


def _parse_block(lines: list[str], first_line: int, n: int):
    """(stamps, readings, observed) of consecutive data rows, ``first_line``
    being the file line number of ``lines[0]``.

    The readings of the whole block go through one ``float`` map over its
    non-empty cells. A block where that fails (a ragged row, a bad cell, a
    whitespace-only cell, which is missing, or a quoted cell, as no float or
    timestamp holds a quote) goes to ``_scan_block``.
    """
    try:
        stamps = np.empty(len(lines), dtype=np.int64)
        rests = []
        for r, line in enumerate(lines):
            if line.count(",") != n:
                raise ValueError("ragged row")
            stamp, _, rest = line.partition(",")
            stamps[r] = _parse_timestamp(stamp, first_line + r)
            rests.append(rest)
        cells = ",".join(rests).split(",")
        observed = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells)) > 0
        values = np.zeros(len(cells))
        values[observed] = np.fromiter(
            map(float, filter(None, cells)), dtype=np.float64, count=int(observed.sum())
        )
    except ValueError:  # DataError too: the scan reports the block's first fault
        return _scan_block(lines, first_line, n)
    return stamps, values.reshape(len(lines), n), observed.reshape(len(lines), n)


# Characters of text per parsed block: bounds the cell strings alive at once.
# A block ends with the line that takes it past this size.
_BLOCK_CHARS = 256 * 1024


def _count_lines(path) -> int:
    """Lines of a file as universal newlines splits it: LF, CRLF and CR each
    end a line, and a last line without an end counts too."""
    buf = bytearray(1 << 20)
    lines, last = 0, ord("\n")  # an empty file has no line
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            b = np.frombuffer(buf, np.uint8, count=size)
            cr = np.flatnonzero(b == ord("\r"))
            lines += np.count_nonzero(b == ord("\n")) + cr.size
            # a CRLF ends one line, also when it is split between two reads
            lines -= np.count_nonzero(b[cr[cr + 1 < size] + 1] == ord("\n"))
            lines -= last == ord("\r") and b[0] == ord("\n")
            last = int(b[-1])
    return int(lines) + (last not in (ord("\n"), ord("\r")))


def load_series(
    series_file,
    locations_file,
    edges_file=None,
) -> tuple[SensorGraph, TrafficSeries]:
    """Read a timestamped readings CSV plus sensor locations (and edges).

    The series CSV has an ISO-8601 timestamp first column and one column per
    sensor id; its column order defines vertex indexing. The locations CSV
    has columns sensor_id, x, y and must cover exactly the same ids. The
    optional edges CSV has columns from_id, to_id. Empty cells and
    readings equal to 0 are missing.
    """
    # a row per line after the header, fewer where a quoted newline joins lines
    capacity = _count_lines(series_file) - 1
    with open(series_file) as fh:  # universal newlines: LF, CRLF and CR
        header_line = fh.readline()
        chunks = iter(lambda: "".join(fh.readlines(_BLOCK_CHARS)), "")
        chunk = next(chunks, None)
        if chunk is None:
            raise DataError("series file needs a header row and at least one data row")
        header = [c.strip() for c in next(csv.reader([header_line]), [])]
        sensor_ids = header[1:]
        if len(sensor_ids) != len(set(sensor_ids)) or not sensor_ids:
            raise DataError("series header must list unique sensor ids after the timestamp")
        n = len(sensor_ids)
        timestamps = np.empty(capacity, dtype=np.int64)
        values = np.empty((capacity, n, 1))
        mask = np.empty((capacity, n, 1), dtype=bool)
        rows = 0  # csv rows so far, as a quoted newline joins lines
        for chunk in itertools.chain([chunk], chunks):
            lines = chunk.split("\n")
            if chunk.endswith("\n"):
                lines.pop()
            stamps, readings, observed = _parse_block(lines, rows + 2, n)
            observed &= readings != 0.0
            readings[~observed] = 0.0  # also turns a missing -0.0 into 0.0
            end = rows + len(stamps)
            timestamps[rows:end] = stamps
            values[rows:end, :, 0] = readings
            mask[rows:end, :, 0] = observed
            rows = end
    timestamps, values, mask = timestamps[:rows], values[:rows], mask[:rows]

    with open(locations_file, newline="") as fh:
        loc_reader = csv.DictReader(fh)
        loc_map: dict[str, tuple[float, float]] = {}
        for row in loc_reader:
            try:
                loc_map[row["sensor_id"].strip()] = (float(row["x"]), float(row["y"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"locations file: bad row {row!r} ({exc})") from None
    if set(loc_map) != set(sensor_ids):
        missing = set(sensor_ids) - set(loc_map)
        extra = set(loc_map) - set(sensor_ids)
        raise DataError(
            f"sensor ids differ between series and locations "
            f"(missing: {sorted(missing)}, extra: {sorted(extra)})"
        )
    coords = np.array([loc_map[s] for s in sensor_ids], dtype=np.float64)

    edges: list[tuple[int, int]] = []
    if edges_file is not None:
        index = {s: i for i, s in enumerate(sensor_ids)}
        with open(edges_file, newline="") as fh:
            for row in csv.DictReader(fh):
                try:
                    a, b = row["from_id"].strip(), row["to_id"].strip()
                except (KeyError, AttributeError):
                    raise DataError(f"edges file: bad row {row!r}") from None
                if a not in index or b not in index:
                    raise DataError(f"edges file: unknown sensor id in row {row!r}")
                if a != b:
                    edges.append((index[a], index[b]))

    graph = SensorGraph(n_vertices=n, coordinates=coords, edges=edges)
    series = TrafficSeries(data=values, mask=mask, timestamps=timestamps)
    return graph, series


def write_csv_dataset(graph: SensorGraph, series: TrafficSeries, out_dir) -> dict:
    """Write series/locations/edges CSVs readable by ``load_series``.

    Missing readings become empty cells. Values round-trip exactly through
    their text form. Only single-feature series map onto this format.
    """
    if series.n_features != 1:
        raise DataError("the CSV dataset format holds one reading per sensor")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ids = [f"s{i:03d}" for i in range(graph.n_vertices)]
    paths = {
        "series": out / "series.csv",
        "locations": out / "locations.csv",
        "edges": out / "edges.csv",
    }

    with open(paths["series"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + ids)
        for t in range(series.n_steps):
            stamp = datetime.fromtimestamp(
                int(series.timestamps[t]), tz=timezone.utc
            ).isoformat(sep=" ")
            row = [stamp] + [
                repr(float(series.data[t, v, 0])) if series.mask[t, v, 0] else ""
                for v in range(graph.n_vertices)
            ]
            writer.writerow(row)

    with open(paths["locations"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sensor_id", "x", "y"])
        for i, s in enumerate(ids):
            writer.writerow([s, repr(float(graph.coordinates[i, 0])), repr(float(graph.coordinates[i, 1]))])

    with open(paths["edges"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from_id", "to_id"])
        for a, b in graph.edges:
            writer.writerow([ids[a], ids[b]])
    return paths


def split_sizes(t: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0:
        raise DataError(f"ratios must be three non-negative values summing to 1, got {ratios}")
    n_train = int(math.floor(t * ratios[0]))
    n_val = int(math.floor(t * ratios[1]))
    return n_train, n_val, t - n_train - n_val


def fit_norm_stats(data: np.ndarray, mask: np.ndarray) -> NormStats:
    """Per-feature mean/std over observed entries, std floored at 1e-6."""
    k = data.shape[2]
    mean = np.zeros(k)
    std = np.full(k, STD_FLOOR)
    for f in range(k):
        vals = data[:, :, f][mask[:, :, f]]  # a gathered copy
        if vals.size:
            mean[f] = np.add.reduce(vals) / vals.size
            # numpy's std in numpy's own steps, inside the copy: no second temporary
            vals -= mean[f]
            vals *= vals
            std[f] = max(float(np.sqrt(np.add.reduce(vals) / vals.size)), STD_FLOOR)
    return NormStats(mean=mean, std=std)


def split_and_window(
    series: TrafficSeries,
    p: int = 12,
    q: int = 12,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    stats: NormStats | None = None,
) -> WindowedSplits:
    """Chronological split, then stride-1 windows that stay inside each split.

    Normalization statistics come from the training split's observed entries
    alone and scale the inputs of every split; targets stay raw. Passing
    ``stats`` skips the fit and scales with the given statistics instead
    (evaluating one dataset under another's trained model). The training
    split must fit at least one window; validation and test splits shorter
    than p+q simply yield no windows.
    """
    if p < 1 or q < 1:
        raise DataError("window lengths p and q must be positive")
    n_train, n_val, n_test = split_sizes(series.n_steps, ratios)
    if n_train < p + q:
        raise DataError(
            f"series too short: training split has {n_train} steps, "
            f"needs at least {p + q}"
        )

    if stats is None:
        stats = fit_norm_stats(series.data[:n_train], series.mask[:n_train])

    parts = []
    for a, b in [(0, n_train), (n_train, n_train + n_val), (n_train + n_val, series.n_steps)]:
        # one read-only copy per split, which later writes to the series miss
        copies = series.data[a:b].copy(), series.mask[a:b].copy(), series.timestamps[a:b].copy()
        for copy in copies:
            copy.flags.writeable = False
        starts = np.arange(max(b - a - (p + q) + 1, 0))
        starts.flags.writeable = False
        parts.append(Windows(*copies, stats, p, q, starts))
    return WindowedSplits(
        train=parts[0],
        val=parts[1],
        test=parts[2],
        stats=stats,
        split_sizes=(n_train, n_val, n_test),
    )


@dataclass(frozen=True)
class ShockRecord:
    """One planted congestion event and where/when it propagates."""

    origin: int
    start: int
    magnitude: float
    duration: int
    spread: list[tuple[int, int]] = field(default_factory=list)  # (neighbor, delay)


def _random_road_layout(n: int, rng: np.random.Generator):
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    undirected: set[tuple[int, int]] = set()
    for i in range(1, n):
        d = np.linalg.norm(coords[:i] - coords[i], axis=1)
        j = int(np.argmin(d))
        undirected.add((min(i, j), max(i, j)))
    # a few chords between close non-tree pairs keep the layout road-like
    extra = max(1, n // 3)
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    order = np.argsort(dist, axis=None)
    for flat in order:
        if extra == 0:
            break
        i, j = divmod(int(flat), n)
        if i >= j:
            continue
        if (i, j) not in undirected:
            undirected.add((i, j))
            extra -= 1
    edges = []
    for i, j in sorted(undirected):
        edges.append((i, j))
        edges.append((j, i))
    return coords, edges


def generate_synthetic(
    n: int,
    t: int,
    seed: int,
    missing_ratio: float = 0.05,
    shock_rate: float = 1.0 / 160.0,
    noise_std: float = 1.5,
) -> tuple[SensorGraph, TrafficSeries, list[ShockRecord]]:
    """Simulate a small road network's speeds at 5-minute resolution.

    Per sensor the speed is a free-flow base, a shared daily sinusoid, a
    slow AR(1) drift, planted congestion shocks (each spreading to graph
    neighbors after a 1-3 step per-edge delay), and observation noise.
    ``shock_rate`` is the per-sensor, per-step probability of starting a
    shock. Returns the graph, the series, and the list of planted shocks
    so tests can verify the propagation structure. Deterministic in
    ``seed``: identical arguments give bit-identical output.
    """
    if n < 4:
        raise DataError("synthetic generator needs n >= 4")
    if t < 200:
        raise DataError("synthetic generator needs t >= 200")
    if not 0.0 <= missing_ratio < 1.0:
        raise DataError("missing_ratio must be in [0, 1)")

    rng = np.random.default_rng(seed)
    coords, edges = _random_road_layout(n, rng)
    neighbors: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        if b not in neighbors[a]:
            neighbors[a].append(b)

    base = rng.uniform(52.0, 64.0, size=n)
    phase = rng.uniform(-0.3, 0.3, size=n)

    start_epoch = 1_700_000_000 - (1_700_000_000 % 300)
    timestamps = start_epoch + 300 * np.arange(t, dtype=np.int64)
    tod = time_of_day(timestamps)

    speed = np.empty((t, n))
    speed[:] = base[None, :]
    speed += 9.0 * np.sin(2.0 * np.pi * tod[:, None] + phase[None, :])

    drift = np.zeros(n)
    for step in range(t):
        drift = 0.985 * drift + rng.normal(0.0, 0.7, size=n)
        speed[step] += drift

    def apply_dip(vertex: int, start: int, magnitude: float, duration: int):
        for dt in range(duration):
            step = start + dt
            if step >= t:
                break
            # sharp onset, linear recovery
            speed[step, vertex] -= magnitude * (1.0 - dt / duration)

    trace: list[ShockRecord] = []
    hits = rng.uniform(size=(t, n)) < shock_rate
    for step, origin in zip(*np.nonzero(hits)):
        step, origin = int(step), int(origin)
        magnitude = float(rng.uniform(14.0, 28.0))
        duration = int(rng.integers(8, 20))
        spread = []
        apply_dip(origin, step, magnitude, duration)
        for nb in neighbors[origin]:
            delay = int(rng.integers(1, 4))
            apply_dip(nb, step + delay, 0.6 * magnitude, duration)
            spread.append((nb, delay))
        trace.append(
            ShockRecord(
                origin=origin,
                start=step,
                magnitude=magnitude,
                duration=duration,
                spread=spread,
            )
        )

    speed += rng.normal(0.0, noise_std, size=(t, n))
    np.clip(speed, 1.0, 90.0, out=speed)

    mask = rng.uniform(size=(t, n, 1)) >= missing_ratio
    data = speed[:, :, None] * mask

    graph = SensorGraph(n_vertices=n, coordinates=coords, edges=edges)
    series = TrafficSeries(data=data, mask=mask, timestamps=timestamps)
    return graph, series, trace
