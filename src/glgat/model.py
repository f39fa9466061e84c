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

import base64
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .adjacency import (
    AdjacencySet,
    build_connectivity_adjacency,
    build_event_adjacency,
    detect_events,
)
from .data import NormStats, SensorGraph, TrafficSeries
from .encoding import PairwiseEncoding, build_pairwise_encoding, init_vertex_encoding
from .layers import (
    GatLayerParams,
    GlgatLayerParams,
    LayerDims,
    gat_forward,
    glgat_forward,
    init_gat_layer,
    init_glgat_layer,
)

CHECKPOINT_VERSION = 2
VARIANTS = ("full", "ablation1", "ablation2", "ablation3")
N_GROUPS = 12


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
    h_pe: int = 10
    h_e: int = 8
    t_p: int = 6
    t_q: int = 0
    smoothing: float = 0.1

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


def build_adjacency_set(
    config: StackConfig, graph: SensorGraph, train_series: TrafficSeries
) -> AdjacencySet:
    """Assemble the adjacency matrices the variant calls for.

    full / ablation2: behavior-derived up- and down-event matrices.
    ablation1: the road-connectivity matrix filling both slots.
    ablation3: one binary matrix, the union of the thresholded event
    matrices, for the plain-attention blocks.
    """
    if config.variant == "ablation1":
        conn = build_connectivity_adjacency(graph)
        return AdjacencySet(
            matrices=[conn.copy() for _ in range(config.h_adj)],
            labels=["connectivity"] * config.h_adj,
        )
    log = detect_events(train_series)
    a_up, a_down = build_event_adjacency(log, config.t_p, config.t_q)
    if config.variant == "ablation3":
        union = ((a_up > 0.0) | (a_down > 0.0)).astype(np.float64)
        return AdjacencySet(matrices=[union], labels=["event-union-binary"])
    if config.h_adj != 2:
        raise ConfigError("event-based wiring provides exactly 2 adjacency matrices")
    return AdjacencySet(matrices=[a_up, a_down], labels=["event-up", "event-down"])


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
        for idx, block in zip((1, 2, 4, 5, 6), self.blocks):
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


def build_model(
    config: StackConfig,
    adjs: AdjacencySet,
    pe: PairwiseEncoding | None,
    stats: NormStats,
    seed: int,
) -> GlgatModel:
    """Initialize every floor deterministically from one seed."""
    n = config.n
    widths = [
        (3 * config.k_in, config.group_width, config.dims_temporal),
        (config.group_width, config.group_width, config.dims_temporal),
        (config.flatten_width, config.flatten_width, config.dims_deep),
        (config.flatten_width, config.flatten_width, config.dims_deep),
        (config.flatten_width, config.flatten_width, config.dims_deep),
    ]
    blocks = []
    for i, (k_in, k_out, dims) in enumerate(widths):
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
        enc = ad.parameter(init_vertex_encoding(n, config.h_e, seed=seed * 31 + 8).table)

    adj = adjs.stacked if not config.uses_gat else adjs.matrices[0]
    if not config.uses_gat and adj.shape[0] != config.h_adj:
        raise ConfigError(
            f"variant {config.variant!r} needs {config.h_adj} matrices, got {adj.shape[0]}"
        )
    pe_table = None
    if config.pe_enabled:
        if pe is None:
            raise ConfigError("variant with pairwise encoding needs a PE table")
        pe_table = pe.tensor
    return GlgatModel(
        config=config,
        blocks=blocks,
        head_w=head_w,
        head_b=head_b,
        enc=enc,
        adj=adj,
        pe=pe_table,
        stats=stats,
    )


def prepare_model(
    config: StackConfig,
    graph: SensorGraph,
    train_series: TrafficSeries,
    stats: NormStats,
    seed: int,
) -> GlgatModel:
    """End-to-end assembly: adjacency from training behavior, PE from geometry."""
    adjs = build_adjacency_set(config, graph, train_series)
    pe = build_pairwise_encoding(graph, config.smoothing) if config.pe_enabled else None
    return build_model(config, adjs, pe, stats, seed)


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
    groups = [
        np.concatenate(
            [padded[..., g, :, :], padded[..., g + 1, :, :], padded[..., g + 2, :, :]],
            axis=-1,
        )
        for g in range(N_GROUPS)
    ]
    return np.ascontiguousarray(np.stack(groups, axis=-3))


def _block_forward(model: GlgatModel, block, x: ad.DiffTensor) -> ad.DiffTensor:
    if model.config.uses_gat:
        return gat_forward(block, x, model.enc, model.adj)
    return glgat_forward(block, x, model.enc, model.adj, model.pe)


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
# One sorted, compact JSON object. Every array, including the stats, is
# {"shape": [...], "data": base64 of its C-order little-endian float64
# bytes}, so values round-trip bit for bit and no float goes through text.


def _encode_array(arr: np.ndarray) -> dict:
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "data": base64.b64encode(raw).decode("ascii")}


def _decode_array(entry, name: str) -> np.ndarray:
    """A writable float64 copy of one encoded array; ConfigError if malformed."""
    if not isinstance(entry, dict) or set(entry) != {"shape", "data"}:
        raise ConfigError(f"checkpoint array {name!r} is not a shape/data entry")
    shape, data = entry["shape"], entry["data"]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ConfigError(f"checkpoint array {name!r} has invalid shape {shape!r}")
    if not isinstance(data, str):
        raise ConfigError(f"checkpoint array {name!r} has non-string data")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ConfigError(f"checkpoint array {name!r} is not valid base64: {exc}") from None
    if len(raw) != math.prod(shape) * 8:
        raise ConfigError(
            f"checkpoint array {name!r} holds {len(raw)} bytes, "
            f"shape {tuple(shape)} needs {math.prod(shape) * 8}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


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
    """Versioned JSON snapshot; identical models serialize byte-identically."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "stats": {
            "mean": _encode_array(model.stats.mean),
            "std": _encode_array(model.stats.std),
        },
        "adj": _encode_array(model.adj),
        "pe": None if model.pe is None else _encode_array(model.pe),
        "tensors": {
            name: _encode_array(t.data) for name, t in model.named_params().items()
        },
    }
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)


def load_checkpoint(path) -> GlgatModel:
    """Rebuild a model from ``save_checkpoint``'s file.

    Any file that is not a complete checkpoint of this format version
    raises ConfigError; a file that cannot be read raises OSError.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"checkpoint is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("checkpoint is not a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version {version!r} (this build reads "
            f"version {CHECKPOINT_VERSION}; re-run train to write one)"
        )
    keys = {"format_version", "config", "stats", "adj", "pe", "tensors"}
    if set(payload) != keys:
        raise ConfigError(f"checkpoint must have keys {sorted(keys)}, got {sorted(payload)}")
    config = _config_from(payload["config"])
    n = config.n

    stats_raw = payload["stats"]
    if not isinstance(stats_raw, dict) or set(stats_raw) != {"mean", "std"}:
        raise ConfigError("checkpoint stats must hold exactly 'mean' and 'std'")
    stats = NormStats(
        mean=_decode_array(stats_raw["mean"], "stats.mean"),
        std=_decode_array(stats_raw["std"], "stats.std"),
    )
    if stats.mean.ndim != 1 or stats.mean.size == 0 or stats.std.shape != stats.mean.shape:
        raise ConfigError(
            f"checkpoint stats have shapes {stats.mean.shape} and {stats.std.shape}, "
            "expected two equal non-empty vectors"
        )

    adj = _decode_array(payload["adj"], "adj")
    want_adj = (n, n) if config.uses_gat else (config.h_adj, n, n)
    if adj.shape != want_adj:
        raise ConfigError(f"checkpoint adj has shape {adj.shape}, expected {want_adj}")
    pe = None if payload["pe"] is None else _decode_array(payload["pe"], "pe")
    want_pe = (n, n, config.h_pe) if config.pe_enabled else None
    if (None if pe is None else pe.shape) != want_pe:
        got = "none" if pe is None else f"shape {pe.shape}"
        raise ConfigError(f"checkpoint pe has {got}, variant {config.variant!r} needs {want_pe}")

    try:
        matrices = [adj] if config.uses_gat else list(adj)
        adjs = AdjacencySet(matrices=matrices, labels=["loaded"] * len(matrices))
    except ValueError as exc:
        raise ConfigError(f"checkpoint adj is not an adjacency stack: {exc}") from None
    pe_obj = None if pe is None else PairwiseEncoding(tensor=pe, h_pe=pe.shape[-1])
    model = build_model(config, adjs, pe_obj, stats, seed=0)

    tensors = payload["tensors"]
    if not isinstance(tensors, dict):
        raise ConfigError("checkpoint tensors must be a JSON object")
    params = model.named_params()
    unknown = sorted(set(tensors) - set(params))
    if unknown:
        raise ConfigError(f"checkpoint has tensors this model lacks: {unknown}")
    for name, t in params.items():
        if name not in tensors:
            raise ConfigError(f"checkpoint is missing tensor {name!r}")
        arr = _decode_array(tensors[name], name)
        if arr.shape != t.shape:
            raise ConfigError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, expected {t.shape}"
            )
        t.data[:] = arr
    return model
