"""The seven-layer forecasting stack.

Twelve input timesteps are padded and regrouped into twelve overlapping
width-3 windows; two attention floors process the groups with shared
weights; the per-group outputs are flattened along time into one vector
per vertex; three more attention floors mix vertices at full width; an
affine head emits the twelve forecast horizons, denormalized to raw scale
at the model boundary.

Variant wiring (which adjacency matrices feed attention, whether the
pairwise-encoding score term and the local query bank exist) is part of
the model configuration, so ablation runs differ only in configuration.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import stat
import threading
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .adjacency import build_connectivity_adjacency, build_event_adjacency, detect_events
from .data import NormStats, SensorGraph, TrafficSeries, input_channels
from .encoding import DEFAULT_H_PE, DEFAULT_SMOOTHING, build_pairwise_encoding, init_vertex_encoding
from .layers import (
    LayerDims,
    gat_forward,
    gat_shapes,
    glgat_forward,
    glgat_shapes,
    init_gat_layer,
    init_glgat_layer,
)

CHECKPOINT_VERSION = 4
VARIANTS = ("full", "ablation1", "ablation2", "ablation3")
N_GROUPS = 12
FLOOR_NUMBERS = (1, 2, 4, 5, 6)  # the attention floors of the seven layers


class ConfigError(ValueError):
    """Invalid model or run configuration."""


@dataclass(frozen=True)
class StackConfig:
    """Architecture and variant switches for one model instance.

    Defaults follow the reference setup: 16-channel group floors
    flattening to 192, two adjacency matrices with four heads each on
    every floor. ``h_temporal`` and ``h_deep`` are the per-head widths of
    the group floors and the post-flatten floors. The model reads and
    forecasts ``N_GROUPS`` steps, and the data fixes its input width
    (``floor_widths``).
    """

    n: int
    variant: str = "full"
    group_width: int = 16
    h_adj: int = 2
    h_head: int = 4
    h_temporal: int = 2
    h_deep: int = 24
    h_pe: int = DEFAULT_H_PE
    h_e: int = 8
    t_p: int = 6
    t_q: int = 0
    smoothing: float = DEFAULT_SMOOTHING

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.n < 1 or self.group_width < 1:
            raise ConfigError("n and group_width must be positive")
        if min(self.h_adj, self.h_head, self.h_temporal, self.h_deep) < 1:
            raise ConfigError("head configuration values must be positive")
        if self.h_pe < 0 or self.h_e < 0 or self.t_p < 0 or self.t_q < 0:
            raise ConfigError("h_pe, h_e, t_p, t_q must be non-negative")
        if self.variant in ("full", "ablation2") and self.h_adj != 2:
            raise ConfigError(
                f"variant {self.variant!r} wires the up- and down-event matrices: "
                f"h_adj must be 2, got {self.h_adj}"
            )
        if self.pe_enabled and self.h_pe != DEFAULT_H_PE:
            raise ConfigError(
                f"variant {self.variant!r} needs h_pe = {DEFAULT_H_PE} (the pairwise "
                f"table's width) or 0, got {self.h_pe}"
            )
        if not 0.0 <= self.smoothing < 1.0:
            raise ConfigError(f"smoothing must lie in [0, 1), got {self.smoothing}")

    @property
    def uses_gat(self) -> bool:
        return self.variant == "ablation3"

    @property
    def pe_enabled(self) -> bool:
        return self.variant in ("full", "ablation1") and self.h_pe > 0

    @property
    def flatten_width(self) -> int:
        return N_GROUPS * self.group_width


def floor_widths(config: StackConfig, n_stats: int) -> tuple[tuple[int, int, LayerDims], ...]:
    """(input width, output width, dims) of each floor, in model order.

    ``n_stats`` is K, the length of the normalization statistics: a step's
    input has ``input_channels(K)`` channels, and a group holds three steps.
    """
    h_pe = config.h_pe if config.pe_enabled else 0
    temporal = LayerDims(config.h_temporal, config.h_adj, config.h_head, h_pe)
    deep = LayerDims(config.h_deep, config.h_adj, config.h_head, h_pe)
    w, flat = config.group_width, config.flatten_width
    first = (3 * input_channels(n_stats), w, temporal)
    return (first, (w, w, temporal)) + ((flat, flat, deep),) * 3


def build_adjacency_set(
    config: StackConfig, graph: SensorGraph, train_series: TrafficSeries
) -> np.ndarray:
    """The adjacency the variant calls for, in the layout a model holds it.

    full / ablation2: the behavior-derived up- and down-event matrices,
    stacked (2, N, N).
    ablation1: the road-connectivity matrix filling all h_adj slots.
    ablation3: one (N, N) binary matrix, the union of the thresholded event
    matrices, for the plain-attention blocks.
    """
    if config.variant == "ablation1":
        return np.stack([build_connectivity_adjacency(graph)] * config.h_adj)
    log = detect_events(train_series)
    a_up, a_down = build_event_adjacency(log, config.t_p, config.t_q)
    if config.variant == "ablation3":
        return ((a_up > 0.0) | (a_down > 0.0)).astype(np.float64)
    return np.stack([a_up, a_down])


@functools.lru_cache(maxsize=16)
def checkpoint_layout(config: StackConfig, n_stats: int) -> dict[str, tuple[int, ...]]:
    """Every array of a checkpoint of ``config``, name to shape, in file order.

    ``n_stats`` is K, the length of the normalization statistics: the one
    shape the config does not fix, and the source of the first floor's input
    width (``floor_widths``). Floor i's parameters are ``layer{i}.<name>``,
    with the names and shapes of ``gat_shapes`` or ``glgat_shapes``. The
    result is cached, since every model, save and load reads it; callers
    must not change it.
    """
    n = config.n
    layout = {
        "stats.mean": (n_stats,),
        "stats.std": (n_stats,),
        "adj": (n, n) if config.uses_gat else (config.h_adj, n, n),
    }
    if config.pe_enabled:
        layout["pe"] = (n, n, config.h_pe)
    for idx, (k_in, k_out, dims) in zip(FLOOR_NUMBERS, floor_widths(config, n_stats)):
        if config.uses_gat:
            shapes = gat_shapes(k_in, k_out, dims.h_prime, config.h_e)
        else:
            shapes = glgat_shapes(dims, n, k_in, k_out, config.h_e)
        layout.update((f"layer{idx}.{key}", shape) for key, shape in shapes.items())
    layout["head.w"] = (N_GROUPS, config.flatten_width)
    layout["head.b"] = (N_GROUPS,)
    if config.h_e > 0:
        layout["vertex_encoding"] = (n, config.h_e)
    return layout


TABLES = ("stats.mean", "stats.std", "adj", "pe")  # the record's arrays that are not parameters

# Bytes of group inputs and floor-2 outputs a model's group cache holds: a
# 64-window chunk's 201 distinct groups (K=1) fit up to N=802 at acceptance
# widths (104 bytes per vertex each) and N=417 at reference widths (200).
GROUP_CACHE_BYTES = 16 << 20


class _GroupCache:
    """Floor-2 outputs of the time groups of a model's last call that ran
    floors 1-2, by the bytes of each group's input. They hold while
    ``stamp`` (the bytes of floors 1-2's parameters and of the vertex
    encoding) and ``tables`` (weak records of the read-only ``adj`` and
    ``pe``) match the model's; a lookup that finds either changed empties
    the cache, so an in-place write or a swapped-in table can only cause a
    miss. Threads that share a model share its cache under ``lock``,
    outside which the floors run; a call whose entries another call
    replaced meanwhile stores none."""

    def __init__(self):
        self.lock = threading.Lock()
        self.stamp, self.tables, self.entries = [], [], {}

    def lookup(self, stamp: list, tables: list, keys: list[bytes]) -> tuple[dict, list]:
        """The entries, emptied first unless ``stamp`` and ``tables`` match
        theirs, and each key's output in them (None where it is missing)."""
        with self.lock:
            same = len(tables) == len(self.tables) and all(map(ad._same_owner, tables, self.tables))
            if stamp != self.stamp or not same:
                self.stamp, self.tables, self.entries = stamp, tables, {}
            return self.entries, [self.entries.get(key) for key in keys]

    def store(self, seen: dict, entries: dict[bytes, np.ndarray]) -> None:
        """Hold ``entries`` in place of ``seen``, unless another call has
        replaced or emptied those since."""
        with self.lock:
            if self.entries is seen:
                self.entries = entries


@dataclass
class GlgatModel:
    """A model is its checkpoint record: ``params`` holds every parameter
    under its ``checkpoint_layout`` name. The constructor refuses arrays
    that differ from the layout, and adjacency entries outside [0, 1] or
    off a unit diagonal (every row attends to itself). It holds ``adj`` and
    ``pe`` read-only (``ad.frozen``: a read-only copy of a writable table),
    so ``attend`` checks them once and ``group_cache`` keys them by weak
    records; it keeps ``params`` in layout order and each floor's (params, dims)."""

    config: StackConfig
    stats: NormStats
    adj: np.ndarray  # (H_adj, N, N) stacked, or (N, N) for the GAT variant
    pe: np.ndarray | None  # (N, N, H_PE) or None
    params: dict[str, ad.DiffTensor]
    floors: tuple = field(init=False, repr=False)  # (params, dims) of each floor
    group_cache: _GroupCache = field(init=False, repr=False, default_factory=_GroupCache)

    def __post_init__(self):
        self.adj = ad.frozen(self.adj)
        self.pe = None if self.pe is None else ad.frozen(self.pe)
        k = self.stats.mean.size
        layout = checkpoint_layout(self.config, k)
        got = {name: a.shape for name, a in self.arrays().items()}
        if got != layout:
            name = next(name for name in [*layout, *got] if layout.get(name) != got.get(name))
            raise ConfigError(
                f"model array {name!r}: variant {self.config.variant!r} needs "
                f"{layout.get(name, 'no array')}, got {got.get(name, 'no array')}"
            )
        if not (np.all(self.adj >= 0.0) and np.all(self.adj <= 1.0)):  # NaN fails too
            raise ConfigError("adjacency has entries outside [0, 1]")
        if np.any(np.diagonal(self.adj, axis1=-2, axis2=-1) != 1.0):
            raise ConfigError("adjacency lacks a unit diagonal")
        self.params = {name: self.params[name] for name in layout if name not in TABLES}
        runs = itertools.groupby(self.params.items(), lambda item: item[0].partition(".")[0])
        groups = {group: {name.partition(".")[2]: t for name, t in run} for group, run in runs}
        self.floors = tuple(
            (groups[f"layer{i}"], dims)
            for i, (_, _, dims) in zip(FLOOR_NUMBERS, floor_widths(self.config, k))
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array of the record under its checkpoint name: the tables,
        then the parameters' values."""
        tables = zip(TABLES, (self.stats.mean, self.stats.std, self.adj, self.pe))
        arrays = {name: a for name, a in tables if a is not None}
        arrays.update((name, t.data) for name, t in self.params.items())
        return arrays

    def named_params(self) -> dict[str, ad.DiffTensor]:
        """Every parameter under its checkpoint name, in checkpoint order."""
        return dict(self.params)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()


def build_model(
    config: StackConfig,
    adj: np.ndarray,
    pe: np.ndarray | None,
    stats: NormStats,
    seed: int,
) -> GlgatModel:
    """Initialize every floor deterministically from one seed."""
    n = config.n
    layout = checkpoint_layout(config, stats.mean.size)
    params = {}
    for i, (k_in, k_out, dims) in enumerate(floor_widths(config, stats.mean.size)):
        floor = (
            init_gat_layer(k_in, k_out, dims.h_prime, config.h_e, seed=seed * 31 + i)
            if config.uses_gat
            else init_glgat_layer(dims, n, k_in, k_out, config.h_e, seed=seed * 31 + i)
        )
        params.update((f"layer{FLOOR_NUMBERS[i]}.{key}", t) for key, t in floor.items())

    rng = np.random.default_rng(seed * 31 + 7)
    limit = np.sqrt(6.0 / sum(layout["head.w"]))
    params["head.w"] = ad.parameter(rng.uniform(-limit, limit, layout["head.w"]))
    params["head.b"] = ad.parameter(np.zeros(layout["head.b"]))
    if "vertex_encoding" in layout:
        enc = init_vertex_encoding(*layout["vertex_encoding"], seed=seed * 31 + 8)
        params["vertex_encoding"] = ad.parameter(enc)
    return GlgatModel(config, stats, adj, pe, params)


def prepare_model(
    config: StackConfig,
    graph: SensorGraph,
    train_series: TrafficSeries,
    stats: NormStats,
    seed: int,
) -> GlgatModel:
    """End-to-end assembly: adjacency from training behavior, PE from geometry."""
    adj = build_adjacency_set(config, graph, train_series)
    pe = build_pairwise_encoding(graph, config.smoothing) if config.pe_enabled else None
    return build_model(config, adj, pe, stats, seed)


def group_timesteps(x: np.ndarray) -> np.ndarray:
    """(..., 12, N, K) -> (..., 12, N, 3K): overlapping width-3 windows.

    The final timestep is repeated twice so the last group is
    (t11, t11, t11) and group g concatenates timesteps g, g+1, g+2.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3 or x.shape[-3] != N_GROUPS:
        raise ConfigError(f"grouping expects {N_GROUPS} timesteps, got shape {x.shape}")
    pad = x[..., -1:, :, :]
    padded = np.concatenate([x, pad, pad], axis=-3)
    shifted = [padded[..., g : g + N_GROUPS, :, :] for g in range(3)]
    return np.concatenate(shifted, axis=-1)


def _block_forward(model: GlgatModel, params: dict, dims: LayerDims, x) -> ad.DiffTensor:
    """One floor; inside ``ad.reuse_scope()`` its last output is reused while
    the floor is called with the same bytes."""
    enc = model.params.get("vertex_encoding")
    if model.config.uses_gat:
        return ad.reuse(gat_forward, params, x, enc, model.adj)
    return ad.reuse(glgat_forward, params, dims, x, enc, model.adj, model.pe)


def _group_floors(model: GlgatModel, grouped: np.ndarray) -> np.ndarray:
    """Floors 1-2 of (..., 12, N, C) groups under ``no_grad()``, (..., 12, N,
    W), through the model's group cache: the distinct groups it misses run
    once each, stacked into one call of each floor. A call that runs any
    leaves the cache holding its groups, the last of them up to
    ``GROUP_CACHE_BYTES``."""
    groups = grouped.reshape((-1,) + grouped.shape[-2:])
    keys = [g.tobytes() for g in groups]
    enc = model.params.get("vertex_encoding")
    used = [*model.floors[0][0].values(), *model.floors[1][0].values()]
    stamp = [t.data.tobytes() for t in used + ([] if enc is None else [enc])]
    tables = [ad._weak_record(a) for a in (model.adj, model.pe) if a is not None]
    seen, outs = model.group_cache.lookup(stamp, tables, keys)
    missing = {key: i for i, (key, out) in enumerate(zip(keys, outs)) if out is None}
    if missing:  # a lone group runs twice: np.matmul rounds a one-row bank product otherwise
        h = ad.constant(groups[list(missing.values()) * (2 if len(missing) == 1 else 1)])
        for floor in model.floors[:2]:
            h = _block_forward(model, *floor, h)
        computed = dict(zip(missing, map(np.copy, h.data)))
        outs = [computed[key] if out is None else out for key, out in zip(keys, outs)]
        entries, held = {}, 0
        for key, out in reversed(dict(zip(keys, outs)).items()):
            held += len(key) + out.nbytes
            if held > GROUP_CACHE_BYTES:
                break
            entries[key] = out
        model.group_cache.store(seen, entries)
    out = np.array(outs)
    return out.reshape(grouped.shape[:-1] + out.shape[-1:])


def model_forward(model: GlgatModel, inputs: np.ndarray) -> ad.DiffTensor:
    """Predict raw-scale speeds, (..., N, 12), from (..., 12, N, 2K+1) windows
    of K features, K being the length of the model's statistics. Under
    ``no_grad()`` floors 1-2 go through the group cache, with the same bytes."""
    cfg, k = model.config, model.stats.mean.size
    if inputs.shape[-1] != input_channels(k) or inputs.shape[-2] != cfg.n:
        raise ConfigError(
            f"input shape {inputs.shape} does not match N={cfg.n}, "
            f"{input_channels(k)} channels for K={k}"
        )
    grouped = group_timesteps(inputs)  # (..., 12, N, 3(2K+1))
    if ad.recording():
        h = _block_forward(model, *model.floors[0], ad.constant(grouped))
        h = _block_forward(model, *model.floors[1], h)  # (..., 12, N, W)
    else:
        h = ad.constant(_group_floors(model, grouped))
    h = ad.swap_axes(h, -3, -2)  # (..., N, 12, W)
    h = ad.reshape(h, h.shape[:-2] + (cfg.flatten_width,))  # time-flatten
    for floor in model.floors[2:]:
        h = _block_forward(model, *floor, h)
    pred = ad.affine(h, model.params["head.w"], model.params["head.b"])
    # back to raw scale: targets and metrics live in physical units
    return ad.scale(pred, float(model.stats.std[0])) + float(model.stats.mean[0])


# ----------------------------------------------------------- checkpoints
#
# One line of compact JSON with sorted keys, {"arrays": [[name, shape], ...],
# "config": {...}, "format_version": 4}, then the listed arrays' C-order
# little-endian float64 bytes in list order and nothing after them. No float
# goes through text, so values round-trip bit for bit. The list is the
# config's ``checkpoint_layout``, and the loader accepts no other.


def _checked_layout(config: StackConfig, entries) -> dict[str, tuple[int, ...]]:
    """``config``'s checkpoint layout, once ``entries``, the header's list of
    arrays, is found to be exactly that layout. Entries compare as JSON, so
    a shape of ``12.0`` or ``true`` is not ``12``."""
    try:  # the statistics' length, the one shape read from the header
        (_, (k,)), *_ = entries
    except (TypeError, ValueError):
        k = None
    if type(k) is not int or k < 1:
        raise ConfigError("checkpoint arrays must open with ['stats.mean', [K]] for some K >= 1")
    layout = checkpoint_layout(config, k)
    want = [[name, list(shape)] for name, shape in layout.items()]
    # equal as Python values, with every dimension an int, is equal as JSON
    if entries == want and all(type(d) is int for _, shape in entries for d in shape):
        return layout
    names = list(layout)
    dumped = itertools.zip_longest(map(json.dumps, want), map(json.dumps, entries))
    for i, (w, g) in enumerate(dumped):
        if w != g:
            what = "adjacency" if names[i : i + 1] == ["adj"] else "array"
            raise ConfigError(
                f"checkpoint {what} entry {i} is not in the layout of its config: "
                f"expected {w or 'no entry'}, found {g or 'no entry'}"
            )


def _read_arrays(layout: dict[str, tuple[int, ...]], fh) -> dict[str, np.ndarray]:
    """A writable float64 array for every entry of ``layout``, read from
    ``fh`` in layout order; ConfigError, before anything is allocated,
    unless the rest of the file holds exactly those arrays' bytes."""
    if not fh.seekable():  # a pipe: its size is known only once it is read
        fh = io.BytesIO(fh.read())
    start = fh.tell()
    size = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    want = 8 * sum(math.prod(shape) for shape in layout.values())
    if size != want:
        raise ConfigError(f"checkpoint body has {size} bytes, its arrays take {want}")
    arrays = {}
    for name, shape in layout.items():
        raw = np.empty(shape, dtype="<f8")
        fh.readinto(raw)
        arrays[name] = raw.astype(np.float64, copy=False)
    return arrays


def _config_from(raw) -> StackConfig:
    """StackConfig from a checkpoint's config object, every key checked."""
    names = {f.name: f.type for f in fields(StackConfig)}  # annotations are strings here
    if not isinstance(raw, dict):
        raise ConfigError(f"checkpoint config must be an object, got {type(raw).__name__}")
    unknown, missing = sorted(set(raw) - set(names)), sorted(set(names) - set(raw))
    if unknown or missing:
        raise ConfigError(f"checkpoint config has unknown keys {unknown}, lacks keys {missing}")
    allowed = {"int": (int,), "float": (int, float), "str": (str,)}
    for key, kind in names.items():
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, allowed[kind]):
            raise ConfigError(f"checkpoint config {key!r} must be {kind}, got {value!r}")
    return StackConfig(**raw)


def save_checkpoint(model: GlgatModel, path) -> None:
    """Versioned snapshot; identical models serialize byte-identically.

    A regular file already at ``path`` is unlinked and a new one written
    with the process's default permissions; other paths (a symlink, a pipe)
    are written through. On ext4, a file that is truncated and written again
    is sent to disk when it is closed, and the next save to the path waits
    for that write. On a 2-vCPU VM, three saves in a row of a 15 MB
    (METR-LA shape) checkpoint took about 5, 6 and 14-20 ms that way, and
    3-6 ms each this way.
    """
    arrays = model.arrays()
    header = {
        "arrays": [[name, list(a.shape)] for name, a in arrays.items()],
        "config": asdict(model.config),
        "format_version": CHECKPOINT_VERSION,
    }
    with contextlib.suppress(OSError):  # else open() rewrites it in place
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8"))


def load_checkpoint(path) -> GlgatModel:
    """Rebuild a model from ``save_checkpoint``'s file.

    ``path`` may name a pipe, such as ``/dev/stdin``; its body is read whole
    before any array is checked. Any file that is not a complete checkpoint
    of this format version raises ConfigError; a file that cannot be read
    raises OSError.
    """
    with open(path, "rb") as fh:
        line = fh.readline()  # a version-1 or 2 file is one line
        rerun = f"this build reads version {CHECKPOINT_VERSION}; re-run train to write one"
        try:
            header = json.loads(line)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"checkpoint header is not valid JSON ({rerun}): {exc}") from None
        if not isinstance(header, dict):
            raise ConfigError(f"checkpoint header is not a JSON object ({rerun})")
        version = header.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version!r} ({rerun})")
        keys = {"format_version", "config", "arrays"}
        if set(header) != keys:
            raise ConfigError(
                f"checkpoint header must have keys {sorted(keys)}, got {sorted(header)}"
            )
        config = _config_from(header["config"])
        layout = _checked_layout(config, header["arrays"])
        arrays = _read_arrays(layout, fh)

    stats = NormStats(mean=arrays.pop("stats.mean"), std=arrays.pop("stats.std"))
    adj, pe = arrays.pop("adj"), arrays.pop("pe", None)
    for table in (adj, pe):
        if table is not None:  # its own fresh array: the model holds it as it is
            table.flags.writeable = False
    with ad.no_grad():  # unscanned: the file's bits, NaN payloads included
        params = {name: ad.parameter(arr) for name, arr in arrays.items()}
    return GlgatModel(config, stats, adj, pe, params)
