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
import io
import json
import math
import os
import stat
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .adjacency import build_connectivity_adjacency, build_event_adjacency, detect_events
from .data import NormStats, SensorGraph, TrafficSeries
from .encoding import DEFAULT_H_PE, DEFAULT_SMOOTHING, build_pairwise_encoding, init_vertex_encoding
from .layers import (
    GatLayerParams,
    GlgatLayerParams,
    LayerDims,
    gat_forward,
    gat_shapes,
    glgat_forward,
    glgat_shapes,
    init_gat_layer,
    init_glgat_layer,
)

CHECKPOINT_VERSION = 3
VARIANTS = ("full", "ablation1", "ablation2", "ablation3")
N_GROUPS = 12
FLOOR_NUMBERS = (1, 2, 4, 5, 6)  # the attention floors of the seven layers


class ConfigError(ValueError):
    """Invalid model or run configuration."""


@dataclass(frozen=True)
class StackConfig:
    """Architecture and variant switches for one model instance.

    Defaults follow the reference setup: 3 input channels, 16-channel
    group floors flattening to 192, two adjacency matrices with four
    heads each on every floor. ``h_temporal`` and ``h_deep`` are the
    per-head widths of the group floors and the post-flatten floors.
    """

    n: int
    k_in: int = 3
    p: int = 12
    q: int = 12
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
        if self.p != N_GROUPS or self.q != N_GROUPS:
            raise ConfigError("the stack is specified for p = q = 12")
        if self.n < 1 or self.k_in < 1 or self.group_width < 1:
            raise ConfigError("n, k_in and group_width must be positive")
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

    @property
    def dims_temporal(self) -> LayerDims:
        h_pe = self.h_pe if self.pe_enabled else 0
        return LayerDims(self.h_temporal, self.h_adj, self.h_head, h_pe)

    @property
    def dims_deep(self) -> LayerDims:
        h_pe = self.h_pe if self.pe_enabled else 0
        return LayerDims(self.h_deep, self.h_adj, self.h_head, h_pe)

    @property
    def floor_widths(self) -> list[tuple[int, int, LayerDims]]:
        """(input width, output width, dims) of each floor, in model order."""
        deep = (self.flatten_width, self.flatten_width, self.dims_deep)
        return [
            (3 * self.k_in, self.group_width, self.dims_temporal),
            (self.group_width, self.group_width, self.dims_temporal),
            deep,
            deep,
            deep,
        ]


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


@dataclass
class GlgatModel:
    config: StackConfig
    blocks: list  # 5 layer-parameter sets: groups x2, deep x3
    head_w: ad.DiffTensor  # (Q, flatten_width)
    head_b: ad.DiffTensor  # (Q,)
    enc: ad.DiffTensor | None  # (N, H_E) learnable vertex table
    adj: np.ndarray  # (H_adj, N, N) stacked, or (N, N) for the GAT variant
    pe: np.ndarray | None  # (N, N, H_PE) or None
    stats: NormStats

    def named_params(self) -> dict[str, ad.DiffTensor]:
        out: dict[str, ad.DiffTensor] = {}
        for idx, block in zip(FLOOR_NUMBERS, self.blocks):
            for key, tensor in block.named().items():
                out[f"layer{idx}.{key}"] = tensor
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        if self.enc is not None:
            out["vertex_encoding"] = self.enc
        return out

    def zero_grad(self) -> None:
        for t in self.named_params().values():
            t.zero_grad()


def _check_tables(config: StackConfig, adj: np.ndarray, pe: np.ndarray | None) -> None:
    """Check a model's adjacency and pairwise table against ``config``: the
    shapes the variant needs, then adjacency entries in [0, 1] on a unit
    diagonal, so every attention row has itself to attend to."""
    n = config.n
    want_adj = (n, n) if config.uses_gat else (config.h_adj, n, n)
    if adj.shape != want_adj:
        raise ConfigError(
            f"variant {config.variant!r} needs adjacency of shape {want_adj}, got {adj.shape}"
        )
    if not (np.all(adj >= 0.0) and np.all(adj <= 1.0)):  # NaN fails too
        raise ConfigError("adjacency has entries outside [0, 1]")
    if np.any(np.diagonal(adj, axis1=-2, axis2=-1) != 1.0):
        raise ConfigError("adjacency lacks a unit diagonal")
    want_pe = (n, n, config.h_pe) if config.pe_enabled else None
    if (None if pe is None else pe.shape) != want_pe:
        got = "none" if pe is None else f"shape {pe.shape}"
        raise ConfigError(
            f"variant {config.variant!r} needs pairwise table {want_pe}, got {got}"
        )


def build_model(
    config: StackConfig,
    adj: np.ndarray,
    pe: np.ndarray | None,
    stats: NormStats,
    seed: int,
) -> GlgatModel:
    """Initialize every floor deterministically from one seed, after checking
    the adjacency and the pairwise table against ``config``."""
    n = config.n
    _check_tables(config, adj, pe)
    blocks = []
    for i, (k_in, k_out, dims) in enumerate(config.floor_widths):
        if config.uses_gat:
            blocks.append(
                init_gat_layer(k_in, k_out, dims.h_prime, config.h_e, seed=seed * 31 + i)
            )
        else:
            blocks.append(
                init_glgat_layer(dims, n, k_in, k_out, config.h_e, seed=seed * 31 + i)
            )

    rng = np.random.default_rng(seed * 31 + 7)
    limit = np.sqrt(6.0 / (config.flatten_width + config.q))
    head_w = ad.parameter(rng.uniform(-limit, limit, (config.q, config.flatten_width)))
    head_b = ad.parameter(np.zeros(config.q))
    enc = None
    if config.h_e > 0:
        enc = ad.parameter(init_vertex_encoding(n, config.h_e, seed=seed * 31 + 8))
    return GlgatModel(config, blocks, head_w, head_b, enc, adj, pe, stats)


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


def _block_forward(model: GlgatModel, block, x: ad.DiffTensor) -> ad.DiffTensor:
    """One floor; inside ``ad.reuse_scope()`` its last output is reused while
    the floor is called with the same bytes."""
    if model.config.uses_gat:
        return ad.reuse(gat_forward, block, x, model.enc, model.adj)
    return ad.reuse(glgat_forward, block, x, model.enc, model.adj, model.pe)


def model_forward(model: GlgatModel, inputs: np.ndarray) -> ad.DiffTensor:
    """Predict raw-scale speeds, (..., N, 12), from (..., 12, N, K_in) windows."""
    cfg = model.config
    if inputs.shape[-1] != cfg.k_in or inputs.shape[-2] != cfg.n:
        raise ConfigError(
            f"input shape {inputs.shape} does not match N={cfg.n}, K_in={cfg.k_in}"
        )
    grouped = ad.constant(group_timesteps(inputs))  # (..., 12, N, 3K)
    h = _block_forward(model, model.blocks[0], grouped)
    h = _block_forward(model, model.blocks[1], h)  # (..., 12, N, W)
    h = ad.swap_axes(h, -3, -2)  # (..., N, 12, W)
    h = ad.reshape(h, h.shape[:-2] + (cfg.flatten_width,))  # time-flatten
    for block in model.blocks[2:]:
        h = _block_forward(model, block, h)
    pred = ad.affine(h, model.head_w, model.head_b)
    # back to raw scale: targets and metrics live in physical units
    return ad.scale(pred, float(model.stats.std[0])) + float(model.stats.mean[0])


# ----------------------------------------------------------- checkpoints
#
# One line of compact JSON with sorted keys, {"arrays": [[name, shape], ...],
# "config": {...}, "format_version": 3}, then the listed arrays' C-order
# little-endian float64 bytes in list order and nothing after them. No float
# goes through text, so values round-trip bit for bit.


def _read_arrays(entries, fh) -> dict[str, np.ndarray]:
    """A writable float64 array for every array the header lists, by name,
    read from ``fh`` in list order; ConfigError unless the entries are well
    formed and cover the rest of the file exactly."""
    if not isinstance(entries, list):
        raise ConfigError("checkpoint arrays must be a list of [name, shape] pairs")
    if not fh.seekable():  # a pipe: its size is known only once it is read
        fh = io.BytesIO(fh.read())
    start = fh.tell()
    left = fh.seek(0, io.SEEK_END) - start  # body bytes no array has claimed
    fh.seek(start)
    arrays = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise ConfigError(f"checkpoint array entry {entry!r} is not a [name, shape] pair")
        name, shape = entry
        if name in arrays:
            raise ConfigError(f"checkpoint lists array {name!r} twice")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ConfigError(f"checkpoint array {name!r} has invalid shape {shape!r}")
        nbytes = 8 * math.prod(shape)
        if nbytes > left:  # checked before allocating what the header declares
            raise ConfigError(f"checkpoint body ends inside array {name!r}")
        left -= nbytes
        try:
            raw = np.empty(shape, dtype="<f8")
        except ValueError:  # an empty shape with an axis beyond numpy's range
            raise ConfigError(f"checkpoint array {name!r} has invalid shape {shape!r}") from None
        if fh.readinto(raw) != nbytes:
            raise ConfigError(f"checkpoint body ends inside array {name!r}")
        arrays[name] = raw.astype(np.float64, copy=False)
    if left:
        raise ConfigError(f"checkpoint body has {left} bytes after its arrays")
    return arrays


def _config_from(raw) -> StackConfig:
    """StackConfig from a checkpoint's config object, every key checked."""
    names = {f.name: f.type for f in fields(StackConfig)}  # annotations are strings here
    if not isinstance(raw, dict) or set(raw) != set(names):
        got = sorted(raw) if isinstance(raw, dict) else type(raw).__name__
        raise ConfigError(f"checkpoint config must have keys {sorted(names)}, got {got}")
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
    arrays = {"stats.mean": model.stats.mean, "stats.std": model.stats.std, "adj": model.adj}
    if model.pe is not None:
        arrays["pe"] = model.pe
    arrays.update((name, t.data) for name, t in model.named_params().items())
    header = {
        "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
        "config": asdict(model.config),
        "format_version": CHECKPOINT_VERSION,
    }
    with contextlib.suppress(OSError):  # else open() rewrites it in place
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


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
        arrays = _read_arrays(header["arrays"], fh)

    def take(name: str) -> np.ndarray:
        if name not in arrays:
            raise ConfigError(f"checkpoint is missing array {name!r}")
        return arrays.pop(name)

    stats = NormStats(mean=take("stats.mean"), std=take("stats.std"))
    if stats.mean.ndim != 1 or stats.mean.size == 0 or stats.std.shape != stats.mean.shape:
        raise ConfigError(
            f"checkpoint stats have shapes {stats.mean.shape} and {stats.std.shape}, "
            "expected two equal non-empty vectors"
        )

    adj = take("adj")
    pe = arrays.pop("pe", None)
    _check_tables(config, adj, pe)

    def param(name: str, shape: tuple[int, ...]) -> ad.DiffTensor:
        arr = take(name)
        if arr.shape != shape:
            raise ConfigError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, expected {shape}"
            )
        with ad.no_grad():  # unscanned: the file's bits, NaN payloads included
            return ad.parameter(arr)

    blocks, gat = [], config.uses_gat
    for idx, (k_in, k_out, dims) in zip(FLOOR_NUMBERS, config.floor_widths):
        if gat:
            shapes = gat_shapes(k_in, k_out, dims.h_prime, config.h_e)
        else:
            shapes = glgat_shapes(dims, config.n, k_in, k_out, config.h_e)
        named = {key: param(f"layer{idx}.{key}", shape) for key, shape in shapes.items()}
        blocks.append(GatLayerParams(**named) if gat else GlgatLayerParams(dims, **named))
    head_w = param("head.w", (config.q, config.flatten_width))
    head_b = param("head.b", (config.q,))
    enc = param("vertex_encoding", (config.n, config.h_e)) if config.h_e > 0 else None
    if arrays:
        raise ConfigError(f"checkpoint has arrays this model lacks: {sorted(arrays)}")
    return GlgatModel(config, blocks, head_w, head_b, enc, adj, pe, stats)
