"""Stack assembly, grouping, variants, checkpoints, end-to-end gradients."""

import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from glgat import autodiff as ad
from glgat import data as gdata
from glgat import model as gmodel
from glgat.adjacency import build_connectivity_adjacency, build_event_adjacency, detect_events
from glgat.encoding import DEFAULT_H_PE, build_pairwise_encoding
from glgat.gradcheck import check_gradients
from glgat.layers import gat_shapes, glgat_forward, glgat_shapes


def tiny_config(n=6, variant="full", **kw):
    base = dict(group_width=4, h_head=2, h_temporal=2, h_deep=6, h_e=4)
    base.update(kw)
    return gmodel.StackConfig(n=n, variant=variant, **base)


def pipeline(n=6, t=280, seed=3, variant="full", **kw):
    cfg = tiny_config(n=n, variant=variant, **kw)
    graph, series, _ = gdata.generate_synthetic(n=n, t=t, seed=seed)
    splits = gdata.split_and_window(series, p=12, q=12)
    train_series = series.slice(0, splits.split_sizes[0])
    model = gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=seed)
    return cfg, graph, train_series, splits, model


@pytest.fixture(scope="module")
def tiny():
    return pipeline()


# ----------------------------------------------------------- grouping


def test_group_contents_first_middle_last():
    # channel blocks per group are the raw steps g, g+1, g+2 with the
    # final step repeated for the tail groups
    x = np.zeros((12, 4, 2))
    for t in range(12):
        x[t] = t
    g = gmodel.group_timesteps(x)
    assert g.shape == (12, 4, 6)
    assert np.array_equal(g[0, 0], [0, 0, 1, 1, 2, 2])
    assert np.array_equal(g[5, 2], [5, 5, 6, 6, 7, 7])
    assert np.array_equal(g[10, 1], [10, 10, 11, 11, 11, 11])
    assert np.array_equal(g[11, 3], [11, 11, 11, 11, 11, 11])


def test_grouping_batched_matches_per_sample():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 12, 3, 4))
    batched = gmodel.group_timesteps(x)
    assert batched.shape == (5, 12, 3, 12)
    for b in range(5):
        assert np.array_equal(batched[b], gmodel.group_timesteps(x[b]))


def test_grouping_requires_twelve_steps():
    with pytest.raises(gmodel.ConfigError):
        gmodel.group_timesteps(np.zeros((11, 4, 3)))
    with pytest.raises(gmodel.ConfigError):
        gmodel.group_timesteps(np.zeros((12, 4)))


# ----------------------------------------------------- shape contract


def test_reference_width_shape_trace():
    """At reference widths the floors see 9 -> 16 -> 16 -> 192 -> 192 -> 12."""
    n = 15
    cfg = gmodel.StackConfig(n=n)
    graph, series, _ = gdata.generate_synthetic(n=n, t=280, seed=5)
    splits = gdata.split_and_window(series, p=12, q=12)
    train_series = series.slice(0, splits.split_sizes[0])
    model = gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=5)

    assert cfg.flatten_width == 192
    x = splits.train[0].input
    grouped = ad.constant(gmodel.group_timesteps(x))
    assert grouped.shape == (12, n, 9)
    dims = [d for _, _, d in gmodel.floor_widths(cfg, 1)]
    assert [d for _, d in model.floors] == dims
    floors, enc = [p for p, _ in model.floors], model.params["vertex_encoding"]
    h1 = glgat_forward(floors[0], dims[0], grouped, enc, model.adj, model.pe)
    assert h1.shape == (12, n, 16)
    h2 = glgat_forward(floors[1], dims[1], h1, enc, model.adj, model.pe)
    assert h2.shape == (12, n, 16)
    flat = ad.reshape(ad.swap_axes(h2, -3, -2), (n, 192))
    deep = flat
    for params, d in zip(floors[2:], dims[2:]):
        deep = glgat_forward(params, d, deep, enc, model.adj, model.pe)
        assert deep.shape == (n, 192)
    pred = gmodel.model_forward(model, x)
    assert pred.shape == (n, 12)


def test_forward_batched_shape_and_determinism(tiny):
    cfg, _, _, splits, model = tiny
    x = np.stack([s.input for s in splits.train[:4]])
    out1 = gmodel.model_forward(model, x)
    out2 = gmodel.model_forward(model, x)
    assert out1.shape == (4, cfg.n, 12)
    assert np.array_equal(out1.data, out2.data)
    single = gmodel.model_forward(model, x[2])
    assert np.allclose(out1.data[2], single.data, rtol=0, atol=1e-12)


def test_zero_parameters_predict_training_mean(tiny):
    _, _, _, splits, _ = tiny
    cfg, _, _, _, model = pipeline(seed=4)
    for t in model.named_params().values():
        t.data[...] = 0.0
    out = gmodel.model_forward(model, splits.train[0].input)
    assert np.all(out.data == model.stats.mean[0])


def test_input_shape_validated(tiny):
    _, _, _, splits, model = tiny
    x = splits.train[0].input
    with pytest.raises(gmodel.ConfigError):
        gmodel.model_forward(model, x[:, :-1, :])  # wrong N
    with pytest.raises(gmodel.ConfigError):
        gmodel.model_forward(model, x[:, :, :-1])  # wrong K


# ------------------------------------------------------ weight sharing


def test_shared_block_gradient_is_sum_over_groups():
    """One parameter set serves all 12 groups; grads add across groups."""
    from glgat.layers import LayerDims, init_glgat_layer

    rng = np.random.default_rng(21)
    n, k = 5, 4
    dims = LayerDims(2, 2, 2, 3)
    params = init_glgat_layer(dims, n, k, 6, h_e=0, seed=1)
    adj = np.clip(rng.uniform(0, 1, (2, n, n)), 0, 1)
    adj[:, np.arange(n), np.arange(n)] = 1.0
    pe = rng.normal(size=(n, n, 3))
    x = rng.normal(size=(12, n, k))

    out = glgat_forward(params, dims, ad.constant(x), None, adj, pe)
    ad.reduce_sum(out).backward()
    batched = {name: t.grad.copy() for name, t in params.items()}

    for t in params.values():
        t.zero_grad()
    for g in range(12):
        out_g = glgat_forward(params, dims, ad.constant(x[g]), None, adj, pe)
        ad.reduce_sum(out_g).backward()
    for name, t in params.items():
        assert np.allclose(t.grad, batched[name], rtol=0, atol=1e-10), name


# ------------------------------------------------------------ variants


def test_variant_adjacency_wiring(tiny):
    cfg, graph, train_series, _, _ = tiny
    log = detect_events(train_series)
    a_up, a_down = build_event_adjacency(log, cfg.t_p, cfg.t_q)

    full = gmodel.build_adjacency_set(cfg, graph, train_series)
    assert np.array_equal(full, np.stack([a_up, a_down]))

    conn = build_connectivity_adjacency(graph)
    ab1 = gmodel.build_adjacency_set(dataclasses.replace(cfg, variant="ablation1"), graph, train_series)
    assert np.array_equal(ab1, np.stack([conn, conn]))

    union = gmodel.build_adjacency_set(dataclasses.replace(cfg, variant="ablation3"), graph, train_series)
    assert union.shape == (cfg.n, cfg.n)
    assert set(np.unique(union)) <= {0.0, 1.0}
    assert np.array_equal(union, ((a_up > 0) | (a_down > 0)).astype(float))


def test_ablation2_drops_pairwise_term(tiny):
    cfg = dataclasses.replace(tiny[0], variant="ablation2")
    assert not cfg.pe_enabled
    k_in, k_out, dims = gmodel.floor_widths(cfg, 1)[0]
    assert dims.h_q == dims.h_prime
    _, _, _, _, model = pipeline(variant="ablation2")
    assert model.pe is None
    assert model.floors[0][0].keys() == glgat_shapes(dims, cfg.n, k_in, k_out, cfg.h_e).keys()


def test_ablation3_uses_plain_attention_and_fewer_parameters(tiny):
    _, _, _, splits, full_model = tiny
    _, _, _, _, gat_model = pipeline(variant="ablation3")
    k_in, k_out, dims = gmodel.floor_widths(gat_model.config, 1)[0]
    h_e = gat_model.config.h_e
    assert gat_model.floors[0][0].keys() == gat_shapes(k_in, k_out, dims.h_prime, h_e).keys()
    assert gat_model.adj.ndim == 2
    n_full = sum(t.size for t in full_model.named_params().values())
    n_gat = sum(t.size for t in gat_model.named_params().values())
    assert n_gat < n_full


def test_all_variants_run_and_share_widths(tiny):
    _, _, _, splits, _ = tiny
    x = np.stack([s.input for s in splits.train[:2]])
    shapes = {}
    for variant in gmodel.VARIANTS:
        _, _, _, _, model = pipeline(variant=variant)
        out = gmodel.model_forward(model, x)
        assert out.shape == (2, 6, 12)
        assert np.all(np.isfinite(out.data))
        shapes[variant] = {k: t.shape for k, t in model.named_params().items()}
    # swapping the adjacency source leaves every parameter untouched
    assert shapes["full"] == shapes["ablation1"]


def test_input_width_follows_the_statistics(tiny):
    """No config key sets the input width or the window lengths: K, the
    statistics' length, fixes the first floor's width, and a forward refuses
    inputs of any other K."""
    names = [f.name for f in dataclasses.fields(gmodel.StackConfig)]
    assert len(names) == 12 and not {"k_in", "p", "q"} & set(names)
    cfg, _, _, _, one = tiny
    two = gmodel.build_model(
        cfg, one.adj, one.pe, gdata.NormStats(np.zeros(2), np.ones(2)), seed=0
    )
    assert gmodel.floor_widths(cfg, 2)[0][0] == 3 * gdata.input_channels(2) == 15
    assert two.params["layer1.w_v"].shape[1] == 15 and one.params["layer1.w_v"].shape[1] == 9
    assert gmodel.model_forward(two, np.zeros((12, cfg.n, 5))).shape == (cfg.n, 12)
    with pytest.raises(gmodel.ConfigError, match="5 channels for K=2"):
        gmodel.model_forward(two, np.zeros((12, cfg.n, 3)))


def test_config_validation():
    with pytest.raises(gmodel.ConfigError):
        gmodel.StackConfig(n=6, variant="ablation9")
    with pytest.raises(gmodel.ConfigError):
        gmodel.StackConfig(n=0)
    with pytest.raises(gmodel.ConfigError):
        gmodel.StackConfig(n=6, t_p=-1)
    # the pairwise table has DEFAULT_H_PE channels; 0 turns the term off
    assert gmodel.StackConfig(n=6).h_pe == DEFAULT_H_PE
    for variant in ("full", "ablation1"):
        with pytest.raises(gmodel.ConfigError):
            gmodel.StackConfig(n=6, variant=variant, h_pe=5)
        assert not gmodel.StackConfig(n=6, variant=variant, h_pe=0).pe_enabled
    ablation2 = gmodel.StackConfig(n=6, variant="ablation2", h_pe=5)
    assert gmodel.floor_widths(ablation2, 1)[2][2].h_pe == 0
    # the event variants wire two matrices; the others take any count
    for variant in ("full", "ablation2"):
        with pytest.raises(gmodel.ConfigError, match="h_adj must be 2"):
            gmodel.StackConfig(n=6, variant=variant, h_adj=3)
    for variant in ("ablation1", "ablation3"):
        assert gmodel.StackConfig(n=6, variant=variant, h_adj=3).h_adj == 3
    for smoothing in (2.0, 1.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(gmodel.ConfigError):
            gmodel.StackConfig(n=6, smoothing=smoothing)
    assert gmodel.StackConfig(n=6, smoothing=0.0).smoothing == 0.0
    with pytest.raises(gmodel.ConfigError):
        dataclasses.replace(tiny_config(), variant="nope")
    assert dataclasses.replace(tiny_config(), variant="ablation2").variant == "ablation2"


def _with_entry(index, value):
    """Set one flat entry of an adjacency stack: index 0 is on the first
    matrix's diagonal, index 1 off it."""
    def apply(adj):
        adj.flat[index] = value
        return adj
    return apply


BAD_INPUTS = {
    "adjacency of the wrong N": lambda cfg, adj, pe: (cfg, np.stack([np.eye(7)] * 2), pe),
    "no adjacency matrices": lambda cfg, adj, pe: (cfg, adj[:0], pe),
    "one adjacency matrix too few": lambda cfg, adj, pe: (cfg, adj[:1], pe),
    "adjacency entry above 1": lambda cfg, adj, pe: (cfg, _with_entry(1, 1.5)(adj), pe),
    "adjacency with one NaN": lambda cfg, adj, pe: (cfg, _with_entry(1, np.nan)(adj), pe),
    "adjacency diagonal entry below 1": lambda cfg, adj, pe: (
        cfg, _with_entry(0, 0.5)(adj), pe
    ),
    "pairwise table of the wrong N": lambda cfg, adj, pe: (cfg, adj, pe[:5, :5]),
    "table for ablation2": lambda cfg, adj, pe: (
        dataclasses.replace(cfg, variant="ablation2"), adj, pe
    ),
    "two matrices for ablation3": lambda cfg, adj, pe: (
        dataclasses.replace(cfg, variant="ablation3"), adj, None
    ),
}


@pytest.mark.parametrize("edit", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_build_model_checks_adjacency_and_table_against_config(tiny, edit):
    cfg, graph, train_series, splits, _ = tiny
    adj = gmodel.build_adjacency_set(cfg, graph, train_series)
    config, adj, pe = edit(cfg, adj, build_pairwise_encoding(graph))
    with pytest.raises(gmodel.ConfigError):
        gmodel.build_model(config, adj, pe, splits.stats, seed=0)


# -------------------------------------------------------- denormalizing


def test_output_denormalization_is_affine_in_stats(tiny):
    cfg, graph, train_series, splits, _ = tiny
    adj = gmodel.build_adjacency_set(cfg, graph, train_series)
    pe = build_pairwise_encoding(graph)
    k = train_series.n_features
    raw = gmodel.build_model(
        cfg, adj, pe, gdata.NormStats(mean=np.zeros(k), std=np.ones(k)), seed=2
    )
    scaled = gmodel.build_model(cfg, adj, pe, splits.stats, seed=2)
    x = splits.train[0].input
    base = gmodel.model_forward(raw, x).data
    out = gmodel.model_forward(scaled, x).data
    expect = base * splits.stats.std[0] + splits.stats.mean[0]
    assert np.allclose(out, expect, rtol=0, atol=1e-9)


# -------------------------------------------------------- initialization


def test_build_determinism(tiny):
    cfg, graph, train_series, splits, _ = tiny
    m1 = gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=9)
    m2 = gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=9)
    p1, p2 = m1.named_params(), m2.named_params()
    assert p1.keys() == p2.keys()
    for name in p1:
        assert np.array_equal(p1[name].data, p2[name].data), name
    m3 = gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=10)
    assert any(not np.array_equal(p1[n].data, m3.named_params()[n].data) for n in p1)


def test_named_params_cover_all_floors(tiny):
    model = tiny[4]
    names = model.named_params()
    for idx in (1, 2, 4, 5, 6):
        assert any(k.startswith(f"layer{idx}.") for k in names)
    assert "head.w" in names and "head.b" in names
    assert "vertex_encoding" in names


RECORD_EDITS = {  # the name the error must give, and the edit of the params
    "a missing name": ("layer5.w_k", lambda p: p.pop("layer5.w_k")),
    "an extra name": ("layer3.w_k", lambda p: p.update({"layer3.w_k": p["layer4.w_k"]})),
    "a wrong shape": ("head.b", lambda p: p.update({"head.b": ad.parameter(np.zeros(11))})),
}


@pytest.mark.parametrize("case", RECORD_EDITS.values(), ids=RECORD_EDITS.keys())
def test_model_refuses_params_unlike_its_layout(tiny, case):
    model = tiny[4]
    name, edit = case
    params = model.named_params()
    edit(params)
    with pytest.raises(gmodel.ConfigError, match=f"model array '{name}'"):
        gmodel.GlgatModel(model.config, model.stats, model.adj, model.pe, params)


def test_floors_hold_the_record_tensors(tiny):
    """Each floor's dict is the record's tensors under their names without
    ``layer{i}.``, and the record keeps its params in layout order whatever
    order it is given."""
    model = tiny[4]
    held = {
        f"layer{i}.{key}": t
        for i, (params, _) in zip(gmodel.FLOOR_NUMBERS, model.floors)
        for key, t in params.items()
    }
    assert held.keys() == {name for name in model.params if name.startswith("layer")}
    assert all(t is model.params[name] for name, t in held.items())
    reversed_params = dict(reversed(model.named_params().items()))
    again = gmodel.GlgatModel(model.config, model.stats, model.adj, model.pe, reversed_params)
    layout = gmodel.checkpoint_layout(model.config, model.stats.mean.size)
    assert list(again.params) == [name for name in layout if name not in gmodel.TABLES]
    assert all(again.params[name] is t for name, t in model.params.items())


# ---------------------------------------------------------- checkpoints


def unpack(path):
    """A checkpoint's header and its arrays by name, read as the layout
    documents it: one JSON line, then each listed array's float64 bytes."""
    line, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    arrays, offset = {}, 0
    for name, shape in header["arrays"]:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(body, "<f8", count, offset).reshape(shape)
        offset += 8 * count
    assert offset == len(body)
    return header, arrays


def pack(path, header, arrays):
    """Write ``header`` as the first line and then ``arrays`` (or raw bytes)
    in dict order, whatever the header lists."""
    body = b"".join(
        a if isinstance(a, bytes) else np.asarray(a, "<f8").tobytes() for a in arrays.values()
    )
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)


def _saved(tmp_path, model):
    path = tmp_path / "model.bin"
    gmodel.save_checkpoint(model, path)
    return path


def test_built_and_reloaded_models_hold_the_same_params(tmp_path, tiny):
    cfg, _, _, splits, model = tiny
    built = gmodel.build_model(cfg, model.adj, model.pe, splits.stats, seed=5)
    loaded = gmodel.load_checkpoint(_saved(tmp_path, built))
    want, got = built.named_params(), loaded.named_params()
    assert list(want) == list(got)
    for name, t in want.items():
        assert t.shape == got[name].shape, name
        assert t.data.tobytes() == got[name].data.tobytes(), name


def test_checkpoint_round_trip(tmp_path, tiny):
    _, _, _, splits, model = tiny
    path = _saved(tmp_path, model)
    loaded = gmodel.load_checkpoint(path)
    assert loaded.config == model.config
    for name, t in model.named_params().items():
        assert np.array_equal(t.data, loaded.named_params()[name].data), name
    assert np.array_equal(model.adj, loaded.adj)
    assert np.array_equal(model.pe, loaded.pe)
    x = splits.train[0].input
    assert np.array_equal(
        gmodel.model_forward(model, x).data, gmodel.model_forward(loaded, x).data
    )
    # serializing the loaded model reproduces the file byte for byte
    again = tmp_path / "again.bin"
    gmodel.save_checkpoint(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    # and so does an identically built model
    gmodel.save_checkpoint(pipeline()[4], again)
    assert path.read_bytes() == again.read_bytes()


def test_prepare_model_on_a_slice_saves_the_bytes_of_a_copied_range(tmp_path):
    """A slice is a read-only view of its series' buffers, and the model
    prepared from it is the one prepared from a copy of the same steps."""
    cfg = tiny_config()
    graph, series, _ = gdata.generate_synthetic(n=6, t=280, seed=3)
    splits = gdata.split_and_window(series, p=12, q=12)
    stop = splits.split_sizes[0]
    view = series.slice(0, stop)
    for name in ("data", "mask", "timestamps"):
        part, whole = getattr(view, name), getattr(series, name)
        assert np.shares_memory(part, whole) and np.array_equal(part, whole[:stop])
        assert whole.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 0
    copied = gdata.TrafficSeries(
        data=series.data[:stop].copy(),
        mask=series.mask[:stop].copy(),
        timestamps=series.timestamps[:stop].copy(),
    )
    for label, train_series in (("view", view), ("copy", copied)):
        model = gmodel.prepare_model(cfg, graph, train_series, splits.stats, seed=3)
        gmodel.save_checkpoint(model, tmp_path / label)
    assert (tmp_path / "view").read_bytes() == (tmp_path / "copy").read_bytes()


def test_load_checkpoint_holds_one_copy_of_its_arrays(tmp_path, tiny):
    """Each array is read straight from the file into its place, so a load
    never holds the file's body besides the arrays it returns."""
    path = tmp_path / "checkpoint.bin"
    gmodel.save_checkpoint(tiny[4], path)
    gmodel.load_checkpoint(path)  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gmodel.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_load_checkpoint_allocates_no_array_its_body_cannot_fill(tmp_path, tiny):
    """A header that declares a 2.4 GB array is refused before anything of
    that size is allocated."""
    path = _saved(tmp_path, tiny[4])
    header, arrays = unpack(path)
    _entry("head.b", lambda e: [e[0], [3 * 10**8]])(header, arrays)
    pack(path, header, arrays)
    tracemalloc.start()
    try:
        with pytest.raises(gmodel.ConfigError, match=r'found \["head.b", \[300000000\]\]'):
            gmodel.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_save_checkpoint_replaces_a_file_and_writes_through_a_link(tmp_path, tiny):
    """A regular file at the path is replaced by a new file, so a second
    name of the old file keeps the old bytes; a symlink stays a symlink and
    its target receives the checkpoint."""
    model = tiny[4]
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(b"old")
    (tmp_path / "second-name").hardlink_to(path)
    gmodel.save_checkpoint(model, path)
    assert (tmp_path / "second-name").read_bytes() == b"old"
    expected = path.read_bytes()
    assert gmodel.load_checkpoint(path).config == model.config

    target, link = tmp_path / "target.bin", tmp_path / "link.bin"
    target.write_bytes(b"old")
    link.symlink_to(target)
    gmodel.save_checkpoint(model, link)
    assert link.is_symlink() and target.read_bytes() == expected


def test_checkpoint_round_trip_gat_variant(tmp_path):
    _, _, _, splits, model = pipeline(variant="ablation3")
    path = tmp_path / "gat.bin"
    gmodel.save_checkpoint(model, path)
    loaded = gmodel.load_checkpoint(path)
    x = splits.train[0].input
    assert np.array_equal(
        gmodel.model_forward(model, x).data, gmodel.model_forward(loaded, x).data
    )


def test_checkpoint_version_and_contents_validated(tmp_path, tiny):
    path = _saved(tmp_path, tiny[4])
    header, arrays = unpack(path)

    header["format_version"] = 99
    pack(path, header, arrays)
    with pytest.raises(gmodel.ConfigError, match="version 99"):
        gmodel.load_checkpoint(path)

    header["format_version"] = gmodel.CHECKPOINT_VERSION
    header["arrays"] = [entry for entry in header["arrays"] if entry[0] != "head.w"]
    del arrays["head.w"]
    pack(path, header, arrays)
    with pytest.raises(gmodel.ConfigError, match=r'expected \["head.w", \[12, 48\]\]'):
        gmodel.load_checkpoint(path)


def legacy_checkpoint(blob: bytes, version: int) -> bytes:
    """A checkpoint of an earlier ``version`` with the config of the
    current one in ``blob``. Versions 1 and 2 were one JSON object with
    every array inside it; version 3 had today's layout, and its config
    also held the input width and the window lengths."""
    line, _, body = blob.partition(b"\n")
    header = json.loads(line)
    if version == 3:
        header.update(format_version=3, config={**header["config"], "k_in": 3, "p": 12, "q": 12})
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body
    legacy = {"config": header["config"], "format_version": version, "tensors": {}}
    return json.dumps(legacy, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_checkpoint_of_an_earlier_version_rejected(tmp_path, tiny, version):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(legacy_checkpoint(_saved(tmp_path, tiny[4]).read_bytes(), version))
    with pytest.raises(gmodel.ConfigError, match="reads version 4; re-run train"):
        gmodel.load_checkpoint(path)


@pytest.mark.parametrize("keys", [["k_in"], ["p"], ["q"], ["k_in", "p", "q"]])
def test_checkpoint_config_with_a_dropped_width_rejected(tmp_path, tiny, keys):
    """The input width comes from the statistics and the window lengths
    are fixed, so a current header that still lists them is refused, and
    the error names each such key."""
    path = _saved(tmp_path, tiny[4])
    header, arrays = unpack(path)
    header["config"].update({key: {"k_in": 3, "p": 12, "q": 12}[key] for key in keys})
    pack(path, header, arrays)
    with pytest.raises(gmodel.ConfigError) as refused:
        gmodel.load_checkpoint(path)
    assert f"unknown keys {keys}, lacks keys []" in str(refused.value)


def test_checkpoint_layout_is_a_header_line_and_little_endian_float64(tmp_path):
    model = pipeline()[4]
    w = model.named_params()["layer1.w_q_local"].data
    w.flat[0] = -0.0
    w.flat[1] = np.array([0x7FF8_0000_0000_0123], dtype=np.uint64).view(np.float64)[0]
    path = _saved(tmp_path, model)

    line = path.read_bytes().split(b"\n", 1)[0]
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")).encode()
    header, arrays = unpack(path)
    assert header["format_version"] == 4
    assert header["config"] == dataclasses.asdict(model.config)
    params = model.named_params()
    assert list(arrays) == ["stats.mean", "stats.std", "adj", "pe", *params]
    assert arrays["layer1.w_q_local"].tobytes() == w.astype("<f8").tobytes()
    assert np.array_equal(arrays["adj"], model.adj)
    assert np.array_equal(arrays["pe"], model.pe)
    assert np.array_equal(arrays["stats.std"], model.stats.std)

    loaded = gmodel.load_checkpoint(path)
    got = loaded.named_params()["layer1.w_q_local"].data
    assert got.tobytes() == w.tobytes()  # NaN payload and -0.0 survive
    for arr in (*(t.data for t in loaded.named_params().values()), loaded.adj, loaded.pe,
                loaded.stats.mean, loaded.stats.std):
        assert arr.dtype == np.float64 and arr.flags.aligned
        assert arr.flags.writeable == (arr is not loaded.adj and arr is not loaded.pe)


def test_model_tables_refuse_writes_after_build_and_load(tmp_path):
    """A model holds read-only copies of the tables it was built from, and
    the loader freezes its own; the caller's arrays and the parameters stay
    writable."""
    _, _, _, splits, model = pipeline()
    adj, pe = model.adj.copy(), model.pe.copy()
    built = gmodel.build_model(model.config, adj, pe, splits.stats, seed=3)
    loaded = gmodel.load_checkpoint(_saved(tmp_path, built))
    for m in (model, built, loaded):
        for table in (m.adj, m.pe):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0, 0] = 0.5
        for t in m.params.values():
            t.data.flat[0] = t.data.flat[0]
    assert adj.flags.writeable and pe.flags.writeable
    assert built.adj is not adj and np.array_equal(built.adj, adj)
    again = gmodel.GlgatModel(loaded.config, loaded.stats, loaded.adj, loaded.pe, loaded.params)
    assert again.adj is loaded.adj and again.pe is loaded.pe  # already read-only: kept


def test_readme_checkpoint_snippet_reads_a_saved_tensor(tmp_path, monkeypatch, tiny):
    """The fenced block under the README's "Checkpoint format" heading, run
    against a fresh checkpoint.bin, reads head.w bit for bit."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Checkpoint format", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    model = tiny[4]
    gmodel.save_checkpoint(model, tmp_path / "checkpoint.bin")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(snippet, scope)
    assert scope["w"].tobytes() == model.params["head.w"].data.tobytes()
    assert scope["w"].shape == model.params["head.w"].shape


def _entry(name, edit):
    """Apply ``edit`` to the header entry [name, shape] of one array."""
    def apply(header, arrays):
        (index,) = [i for i, (n, _) in enumerate(header["arrays"]) if n == name]
        header["arrays"][index] = edit(header["arrays"][index])
    return apply


def _replace(name, fn):
    """Replace one array in the body and its shape in the header."""
    def apply(header, arrays):
        arrays[name] = fn(arrays[name].copy())
        _entry(name, lambda e: [name, list(arrays[name].shape)])(header, arrays)
    return apply


def _drop(name):
    def apply(header, arrays):
        header["arrays"] = [e for e in header["arrays"] if e[0] != name]
        del arrays[name]
    return apply


def _add(name, arr):
    def apply(header, arrays):
        header["arrays"].append([name, list(arr.shape)])
        arrays[len(arrays)] = arr  # pack writes values only, so any new key will do
    return apply


def _body(name, fn):
    """Edit one array's bytes in the body alone; the header stays."""
    def apply(header, arrays):
        arrays[name] = fn(arrays[name].tobytes())
    return apply


def _header(*path, value):
    def apply(header, arrays):
        target = header
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return apply


MALFORMED = {
    "missing top-level key": lambda h, a: h.pop("config"),
    "unknown top-level key": _header("extra", value=1),
    "unknown config key": _header("config", "bogus", value=1),
    "missing config key": lambda h, a: h["config"].pop("h_pe"),
    "config value of the wrong type": _header("config", "n", value="6"),
    "fractional config integer": _header("config", "n", value=6.0),
    "config not an object": _header("config", value=[6]),
    "body with a partial float64": _body("head.b", lambda raw: raw[:-3]),
    "data shorter than its shape": _body("head.b", lambda raw: raw[:-8]),
    "data longer than its shape": _entry("head.b", lambda e: [e[0], [e[1][0] - 1]]),
    "negative shape": _entry("head.b", lambda e: [e[0], [-12]]),
    "non-integer shape": _entry("head.b", lambda e: [e[0], [12.0]]),
    "shape of 10**12 floats": _entry("head.b", lambda e: [e[0], [10**12]]),
    "shape beyond numpy's size": _entry("head.b", lambda e: [e[0], [2**62, 4]]),
    "shape of 2.4 GB": _entry("head.b", lambda e: [e[0], [3 * 10**8]]),
    "empty shape beyond numpy's size": _entry("head.b", lambda e: [e[0], [0, 2**62]]),
    "shape not a list": _entry("head.b", lambda e: [e[0], 12]),
    "array entry missing data": _body("head.b", lambda raw: b""),
    "array entry as a plain list": _entry("head.b", lambda e: [0.0] * 12),
    "array entry without its shape": _entry("head.b", lambda e: e[:1]),
    "unknown tensor": _add("bogus", np.zeros(3)),
    "duplicate tensor": _add("head.b", np.zeros(12)),
    "missing tensor": _drop("head.w"),
    "tensor of the wrong shape": _replace("head.b", lambda b: b[:-1]),
    "arrays not a list": _header("arrays", value={}),
    "adj with one matrix too few": _replace("adj", lambda adj: adj[:1]),
    "adj as one N x N matrix": _replace("adj", lambda adj: adj[0]),
    "adj stack for the GAT variant": _header("config", "variant", value="ablation3"),
    "adj entries outside [0, 1]": _replace("adj", lambda adj: adj * 2.0),
    "adj with one NaN": _replace("adj", _with_entry(1, np.nan)),
    "adj with a diagonal entry below 1": _replace("adj", _with_entry(0, 0.5)),
    "pe absent where the variant needs it": _drop("pe"),
    "pe present where the variant has none": _header("config", "variant", value="ablation2"),
    "pe of the wrong width": _replace("pe", lambda pe: pe[..., :3]),
    "pe not N x N": _replace("pe", lambda pe: pe[1:]),
    "adj as a 0-d array": _replace("adj", lambda adj: np.array(1.0)),
    "adj as a 1-d array": _replace("adj", lambda adj: adj.reshape(-1)),
    "pe as a 0-d array": _replace("pe", lambda pe: np.array(0.5)),
    "stats without std": _drop("stats.std"),
    "stats of unequal shapes": _replace("stats.std", lambda std: np.append(std, 1.0)),
}


def _swap(a, b):
    """Swap the header entries of arrays ``a`` and ``b``; the body stays."""
    def apply(header, arrays):
        entries = header["arrays"]
        i, j = ([e[0] for e in entries].index(name) for name in (a, b))
        entries[i], entries[j] = entries[j], entries[i]
    return apply


# One header entry changed, the body left as it was; the first three keep
# the body's length, so only the comparison with the layout can refuse them.
LAYOUT_EDITS = {
    "name": ({}, _entry("layer1.w_k", lambda e: ["layer1.w_key", e[1]])),
    "shape of the same size": ({}, _entry("head.w", lambda e: [e[0], e[1][::-1]])),
    "order": ({}, _swap("layer2.w_k", "layer2.w_v")),
    "12.0 for 12": ({}, _entry("head.b", lambda e: [e[0], [12.0]])),
    "float statistics length": ({}, _entry("stats.std", lambda e: [e[0], [float(e[1][0])]])),
    "true for 1": (
        {"variant": "ablation1", "h_adj": 1},
        _entry("adj", lambda e: [e[0], [True, *e[1][1:]]]),
    ),
}


@pytest.mark.parametrize("kw, edit", LAYOUT_EDITS.values(), ids=LAYOUT_EDITS.keys())
def test_checkpoint_header_must_list_the_layout_of_its_config(tmp_path, kw, edit):
    """The loader derives every array's name, shape and place from the
    config and refuses any other list, compared as JSON; the error gives
    the first entry that differs as expected and as found."""
    path = _saved(tmp_path, pipeline(**kw)[4])
    header, arrays = unpack(path)
    before = [json.dumps(e) for e in header["arrays"]]
    edit(header, arrays)
    pack(path, header, arrays)
    after = [json.dumps(e) for e in header["arrays"]]
    i = next(i for i, (a, b) in enumerate(zip(before, after)) if a != b)
    with pytest.raises(gmodel.ConfigError) as refused:
        gmodel.load_checkpoint(path)
    assert f"entry {i} " in str(refused.value)
    assert f"expected {before[i]}, found {after[i]}" in str(refused.value)
    assert ("adjacency" in str(refused.value)) == before[i].startswith('["adj"')


@pytest.mark.parametrize("variant", gmodel.VARIANTS)
def test_checkpoint_layout_is_the_file_and_parameter_order(tmp_path, variant):
    model = pipeline(variant=variant)[4]
    header, arrays = unpack(_saved(tmp_path, model))
    layout = gmodel.checkpoint_layout(model.config, model.stats.mean.size)
    assert header["arrays"] == [[name, list(shape)] for name, shape in layout.items()]
    tables = ["stats.mean", "stats.std", "adj", "pe"][: 4 if model.pe is not None else 3]
    params = model.named_params()
    assert list(layout) == tables + list(params)
    assert all(t.shape == layout[name] for name, t in params.items())


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_checkpoint_malformed_contents_rejected(tmp_path, tiny, edit):
    path = _saved(tmp_path, tiny[4])
    header, arrays = unpack(path)
    edit(header, arrays)
    pack(path, header, arrays)
    with pytest.raises(gmodel.ConfigError):
        gmodel.load_checkpoint(path)


HEADER = json.dumps({"arrays": [], "config": {}, "format_version": 4}).encode()


@pytest.mark.parametrize(
    "blob",
    [b"", b"[]\n", b"{\n", b"\xff\xfe", HEADER],
    ids=["empty", "not an object", "truncated", "not utf-8", "header without its newline"],
)
def test_checkpoint_unparseable_file_rejected(tmp_path, blob):
    path = tmp_path / "model.bin"
    path.write_bytes(blob)
    with pytest.raises(gmodel.ConfigError):
        gmodel.load_checkpoint(path)


@pytest.mark.parametrize(
    "damage",
    [lambda b: b[: len(b) // 2], lambda b: b + b"\0", lambda b: b + bytes(8),
     lambda b: b.replace(b"\n", b"", 1)],
    ids=["body cut in half", "one trailing byte", "one trailing float", "no newline"],
)
def test_checkpoint_damaged_file_rejected(tmp_path, tiny, damage):
    path = _saved(tmp_path, tiny[4])
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(gmodel.ConfigError):
        gmodel.load_checkpoint(path)


# ----------------------------------------------------- end-to-end grads


def test_end_to_end_gradients_match_finite_differences(tiny):
    """Sampled derivative check through all seven layers and the denorm."""
    _, _, _, splits, model = tiny
    x = splits.train[0].input
    params = model.named_params()
    subset = {
        name: params[name]
        for name in (
            "layer1.w_q_local",
            "layer1.w_k",
            "layer2.w_q_global",
            "layer5.w_v",
            "head.w",
            "vertex_encoding",
        )
    }

    def fn():
        return ad.reduce_sum(gmodel.model_forward(model, x))

    report = check_gradients(
        fn,
        subset,
        h=1e-5,
        rel_tol=1e-4,
        abs_tol=1e-5,
        small=1e-3,
        max_entries_per_tensor=6,
        rng=np.random.default_rng(77),
    )
    assert report.passed, report.summary()


# ---------------------------------------- the group cache in gradient checks


def count_floors(monkeypatch) -> list:
    """Record every floor the model actually runs."""
    calls = []
    for name in ("glgat_forward", "gat_forward"):
        real = getattr(gmodel, name)

        def counted(*args, _real=real, **kw):
            calls.append(_real.__name__)
            return _real(*args, **kw)

        monkeypatch.setattr(gmodel, name, counted)
    return calls


@pytest.mark.parametrize("variant", gmodel.VARIANTS)
def test_gradcheck_perturbed_values_equal_fresh_calls(monkeypatch, variant):
    """Every perturbed value equals a fresh no-grad call bit for bit. The
    group cache runs floors 1-2 again only for a call whose floor-1/2
    parameters or vertex encoding differ from the previous call's, and
    floors 4-6 run on every call."""
    _, _, _, splits, model = pipeline(variant=variant)
    x = splits.train[0].input
    params = model.named_params()
    seen = []  # parameter contents and the value returned, per call of fn

    def fn():
        out = ad.reduce_sum(gmodel.model_forward(model, x))
        seen.append(([t.data.copy() for t in params.values()], out.data.tobytes()))
        return out

    floors = count_floors(monkeypatch)
    check_gradients(fn, params, max_entries_per_tensor=2, rng=np.random.default_rng(5))
    assert len(seen) == 1 + 2 * sum(min(2, t.size) for t in params.values())
    upstream = [name.startswith(("layer1.", "layer2.", "vertex_encoding")) for name in params]
    stamps = [[a.tobytes() for a in itertools.compress(contents, upstream)] for contents, _ in seen[1:]]
    reruns = sum(stamp != last for last, stamp in zip([None, *stamps], stamps))
    assert len(floors) == 5 + 3 * len(stamps) + 2 * reruns  # the recorded call runs all five

    for contents, value in seen[1:]:
        for t, data in zip(params.values(), contents):
            t.data[...] = data
        with ad.no_grad():
            assert ad.reduce_sum(gmodel.model_forward(model, x)).data.tobytes() == value


def test_nothing_survives_a_gradient_check(monkeypatch):
    _, _, _, splits, model = pipeline()
    xs = np.stack([s.input for s in splits.val[:3]])
    before = gmodel.model_forward(model, xs).data.tobytes()

    def fields():  # the model's, its record's and each floor's bindings
        return [dict(vars(model)), dict(model.params), *(dict(p) for p, _ in model.floors)]

    fields_before = fields()
    params = model.named_params()
    contents = {k: t.data.copy() for k, t in params.items()}

    def fn():
        return ad.reduce_sum(gmodel.model_forward(model, xs[:1]))

    check_gradients(fn, params, max_entries_per_tensor=1, rng=np.random.default_rng(2))
    assert set(vars(ad._recording)) <= {"off", "scanned"} and ad.recording()
    assert fields() == fields_before
    for k, t in params.items():
        assert t.data.tobytes() == contents[k].tobytes(), k
    with ad.no_grad():
        assert gmodel.model_forward(model, xs).data.tobytes() == before

    # a check that raises leaves the thread's state as it found it as well
    calls = []

    def failing():
        calls.append(None)
        if len(calls) > 3:
            raise ad.NonFiniteError("stop")
        return fn()

    with pytest.raises(ad.NonFiniteError):
        check_gradients(failing, params)
    assert set(vars(ad._recording)) <= {"off", "scanned"} and ad.recording()
    for k, t in params.items():
        assert t.data.tobytes() == contents[k].tobytes(), k
    floors = count_floors(monkeypatch)
    with ad.no_grad():
        gmodel.model_forward(model, xs[:1])
        gmodel.model_forward(model, xs[:1])
    assert len(floors) == 5 + 3  # the second call's floors 1-2 come from the group cache


# ----------------------------------------------------------- the group cache


def count_groups(monkeypatch) -> list:
    """The number of time groups each run of a model's floor 1 takes."""
    groups = []
    real = gmodel._block_forward

    def counted(model, params, dims, x):
        if params is model.floors[0][0]:
            groups.append(math.prod(x.shape[:-2]))
        return real(model, params, dims, x)

    monkeypatch.setattr(gmodel, "_block_forward", counted)
    return groups


def same_record(model):
    """A model of ``model``'s record, tensors shared, with an empty group cache."""
    return gmodel.GlgatModel(model.config, model.stats, model.adj, model.pe, model.params)


def unrecorded(model, x) -> np.ndarray:
    with ad.no_grad():
        return gmodel.model_forward(model, x).data


def cache_bytes(model) -> int:
    return sum(len(key) + out.nbytes for key, out in model.group_cache.entries.items())


@pytest.mark.parametrize("variant", ["full", "ablation3"])
def test_group_cache_over_shifted_windows_gives_the_bytes_of_a_fresh_model(monkeypatch, variant):
    _, _, _, splits, model = pipeline(variant=variant)
    xs = np.stack([s.input for s in splits.test[:8]])
    groups = count_groups(monkeypatch)
    outs = [unrecorded(model, xs[i : i + 1]) for i in range(8)]
    assert groups == [12] + [3] * 7  # a window shares 9 groups with the one before
    for i, out in enumerate(outs):
        assert out.tobytes() == unrecorded(same_record(model), xs[i : i + 1]).tobytes()
        assert out.tobytes() == gmodel.model_forward(model, xs[i : i + 1]).data.tobytes()


def test_group_cache_recomputes_after_a_write_to_a_parameter_or_an_input(monkeypatch):
    """Entries hold for the bytes of floors 1-2's parameters and of the
    vertex encoding: an in-place write to any of them recomputes every
    group, and a write to a deeper floor none. An input that differs in its
    bytes alone (-0.0 for 0.0) recomputes the one group it is in, which
    runs twice so that its bank products round as in a larger call."""
    _, _, _, splits, model = pipeline()
    x = splits.train[0].input.copy()
    x[0, 0, 0] = 0.0  # step 0 lies in group 0 alone
    groups = count_groups(monkeypatch)
    first = unrecorded(model, x)
    assert unrecorded(model, x).tobytes() == first.tobytes()
    assert groups == [12]
    for name in ("layer1.w_q_local", "layer2.b_v", "vertex_encoding", "layer4.w_k"):
        del groups[:]
        model.params[name].data.reshape(-1)[1] += 0.25  # in place, through the same tensor
        out = unrecorded(model, x)
        assert groups == ([] if name == "layer4.w_k" else [12])
        assert out.tobytes() == unrecorded(same_record(model), x).tobytes() != first.tobytes()
        first = out
    del groups[:]
    x[0, 0, 0] = -0.0  # equal as a float, not as bytes
    out = unrecorded(model, x)
    assert groups == [2]
    assert out.tobytes() == unrecorded(same_record(model), x).tobytes()


def test_group_cache_recomputes_every_group_for_a_table_of_another_owner(monkeypatch):
    """Entries belong to the read-only tables they were computed with, known
    by weak records: a read-only copy with the same bytes recomputes every
    group, with the same bytes."""
    _, _, _, splits, model = pipeline()
    x = splits.train[0].input
    groups = count_groups(monkeypatch)
    first = unrecorded(model, x)
    for name in ("adj", "pe"):
        setattr(model, name, ad.frozen(getattr(model, name).copy()))
        assert unrecorded(model, x).tobytes() == first.tobytes()
    assert groups == [12, 12, 12]


@pytest.mark.parametrize("table", ["adj", "pe"])
def test_group_cache_is_bypassed_by_writable_tables(monkeypatch, table):
    """A writable table can change under the entries, so every call with one
    recomputes every group, with the bytes of a recorded call."""
    _, _, _, splits, model = pipeline()
    x = splits.train[0].input
    setattr(model, table, getattr(model, table).copy())
    expected = gmodel.model_forward(model, x).data.tobytes()
    groups = count_groups(monkeypatch)
    for _ in range(2):
        assert unrecorded(model, x).tobytes() == expected
    assert groups == [12, 12]


def test_group_cache_computes_a_repeated_group_of_one_call_once(monkeypatch):
    """Consecutive windows in one call share groups, which run once: eight
    windows hold 33 distinct groups of 96 (17 at stride 1, and each
    window's two padded ones), and a repeated window adds none."""
    _, _, _, splits, model = pipeline()
    xs = np.stack([s.input for s in splits.test[:8]])
    xs = np.concatenate([xs, xs[2:3]])
    groups = count_groups(monkeypatch)
    out = unrecorded(model, xs)
    assert groups == [33]
    assert out.tobytes() == gmodel.model_forward(model, xs).data.tobytes()
    assert out[8].tobytes() == out[2].tobytes()


def test_recorded_model_forward_never_consults_the_group_cache(monkeypatch):
    def no_cache(*args):
        raise AssertionError("the group cache was consulted")

    _, _, _, splits, model = pipeline()
    x = splits.train[0].input
    monkeypatch.setattr(gmodel._GroupCache, "lookup", no_cache)
    ad.reduce_sum(gmodel.model_forward(model, x)).backward()
    assert all(t.grad is not None for t in model.params.values())
    with ad.no_grad(), pytest.raises(AssertionError, match="consulted"):
        gmodel.model_forward(model, x)


def test_group_cache_holds_at_most_its_byte_cap(monkeypatch):
    """The cache keeps the last groups of the last call that fit its cap.
    With 5.5 entries' worth, a shifted window finds 3 of its groups among
    the last 5 of the window before; with less than one entry, none."""
    _, _, _, splits, model = pipeline()
    xs = np.stack([s.input for s in splits.test[:6]])
    expected = [gmodel.model_forward(model, xs[i : i + 1]).data.tobytes() for i in range(6)]
    unrecorded(model, xs[:1])
    entry = cache_bytes(model) // 12
    groups = count_groups(monkeypatch)
    for cap, computed in ((gmodel.GROUP_CACHE_BYTES, 3), (int(5.5 * entry), 9), (entry - 1, 12)):
        monkeypatch.setattr(gmodel, "GROUP_CACHE_BYTES", cap)
        fresh = same_record(model)
        del groups[:]
        for i, want in enumerate(expected):
            assert unrecorded(fresh, xs[i : i + 1]).tobytes() == want
            assert cache_bytes(fresh) <= cap
        assert groups == [12] + [computed] * 5
    assert not fresh.group_cache.entries


def test_group_cache_serves_consecutive_windows_under_a_cap(monkeypatch):
    """An entry is a group's input bytes and its floor-2 output, and nothing
    of the model's tables. Under a cap of 5.5 entries the cache holds
    exactly the last 5 groups of each call, so each window shifted by one
    step finds the 3 unpadded groups it shares with the window before and
    computes the other 9, with the bytes of a recorded call."""
    _, _, _, splits, model = pipeline()
    xs = np.stack([s.input for s in splits.test[:6]])
    expected = [gmodel.model_forward(model, xs[i : i + 1]).data.tobytes() for i in range(6)]
    unrecorded(model, xs[:1])
    entry = cache_bytes(model) // 12
    assert all(len(key) + out.nbytes == entry for key, out in model.group_cache.entries.items())
    monkeypatch.setattr(gmodel, "GROUP_CACHE_BYTES", int(5.5 * entry))
    fresh = same_record(model)
    groups = count_groups(monkeypatch)
    for i, want in enumerate(expected):
        assert unrecorded(fresh, xs[i : i + 1]).tobytes() == want
        assert len(fresh.group_cache.entries) == 5
        assert cache_bytes(fresh) == 5 * entry
    assert groups == [12] + [9] * 5


def test_group_cache_gives_threads_sharing_a_model_the_same_bytes():
    _, _, _, splits, model = pipeline()
    xs = np.stack([s.input for s in splits.test[:10]])
    expected = {i: unrecorded(same_record(model), xs[i : i + 1]).tobytes() for i in range(10)}
    results = {}

    def run(name):
        order = range(10) if name % 2 else reversed(range(10))
        results[name] = {i: unrecorded(model, xs[i : i + 1]).tobytes() for i in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(name,)) for name in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert results == {name: expected for name in range(4)}
    assert {i: unrecorded(model, xs[i : i + 1]).tobytes() for i in range(10)} == expected
