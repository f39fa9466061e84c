"""Stack assembly, grouping, variants, checkpoints, end-to-end gradients."""

import base64
import dataclasses
import json

import numpy as np
import pytest

from glgat import autodiff as ad
from glgat import data as gdata
from glgat import model as gmodel
from glgat.adjacency import build_connectivity_adjacency, build_event_adjacency, detect_events
from glgat.gradcheck import check_gradients
from glgat.layers import GatLayerParams, GlgatLayerParams, glgat_forward


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
    h1 = glgat_forward(model.blocks[0], grouped, model.enc, model.adj, model.pe)
    assert h1.shape == (12, n, 16)
    h2 = glgat_forward(model.blocks[1], h1, model.enc, model.adj, model.pe)
    assert h2.shape == (12, n, 16)
    flat = ad.reshape(ad.swap_axes(h2, -3, -2), (n, 192))
    deep = flat
    for block in model.blocks[2:]:
        deep = glgat_forward(block, deep, model.enc, model.adj, model.pe)
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

    out = glgat_forward(params, ad.constant(x), None, adj, pe)
    ad.reduce_sum(out).backward()
    batched = {name: t.grad.copy() for name, t in params.named().items()}

    for t in params.named().values():
        t.zero_grad()
    for g in range(12):
        out_g = glgat_forward(params, ad.constant(x[g]), None, adj, pe)
        ad.reduce_sum(out_g).backward()
    for name, t in params.named().items():
        assert np.allclose(t.grad, batched[name], rtol=0, atol=1e-10), name


# ------------------------------------------------------------ variants


def test_variant_adjacency_wiring(tiny):
    cfg, graph, train_series, _, _ = tiny
    log = detect_events(train_series)
    a_up, a_down = build_event_adjacency(log, cfg.t_p, cfg.t_q)

    full = gmodel.build_adjacency_set(cfg, graph, train_series)
    assert full.labels == ["event-up", "event-down"]
    assert np.array_equal(full.matrices[0], a_up)
    assert np.array_equal(full.matrices[1], a_down)

    conn = build_connectivity_adjacency(graph)
    ab1 = gmodel.build_adjacency_set(dataclasses.replace(cfg, variant="ablation1"), graph, train_series)
    assert ab1.labels == ["connectivity", "connectivity"]
    assert all(np.array_equal(m, conn) for m in ab1.matrices)

    ab3 = gmodel.build_adjacency_set(dataclasses.replace(cfg, variant="ablation3"), graph, train_series)
    assert len(ab3.matrices) == 1
    union = ab3.matrices[0]
    assert set(np.unique(union)) <= {0.0, 1.0}
    assert np.array_equal(union, ((a_up > 0) | (a_down > 0)).astype(float))


def test_ablation2_drops_pairwise_term(tiny):
    cfg = dataclasses.replace(tiny[0], variant="ablation2")
    assert not cfg.pe_enabled
    assert cfg.dims_temporal.h_q == cfg.dims_temporal.h_prime
    _, _, _, _, model = pipeline(variant="ablation2")
    assert model.pe is None
    assert isinstance(model.blocks[0], GlgatLayerParams)


def test_ablation3_uses_plain_attention_and_fewer_parameters(tiny):
    _, _, _, splits, full_model = tiny
    _, _, _, _, gat_model = pipeline(variant="ablation3")
    assert isinstance(gat_model.blocks[0], GatLayerParams)
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


def test_config_validation():
    with pytest.raises(gmodel.ConfigError):
        gmodel.StackConfig(n=6, variant="ablation9")
    with pytest.raises(gmodel.ConfigError):
        gmodel.StackConfig(n=6, p=11)
    with pytest.raises(gmodel.ConfigError):
        gmodel.StackConfig(n=0)
    with pytest.raises(gmodel.ConfigError):
        gmodel.StackConfig(n=6, t_p=-1)
    for smoothing in (2.0, 1.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(gmodel.ConfigError):
            gmodel.StackConfig(n=6, smoothing=smoothing)
    assert gmodel.StackConfig(n=6, smoothing=0.0).smoothing == 0.0
    with pytest.raises(gmodel.ConfigError):
        dataclasses.replace(tiny_config(), variant="nope")
    assert dataclasses.replace(tiny_config(), variant="ablation2").variant == "ablation2"


# -------------------------------------------------------- denormalizing


def test_output_denormalization_is_affine_in_stats(tiny):
    cfg, graph, train_series, splits, _ = tiny
    adjs = gmodel.build_adjacency_set(cfg, graph, train_series)
    from glgat.encoding import build_pairwise_encoding

    pe = build_pairwise_encoding(graph)
    k = train_series.n_features
    raw = gmodel.build_model(
        cfg, adjs, pe, gdata.NormStats(mean=np.zeros(k), std=np.ones(k)), seed=2
    )
    scaled = gmodel.build_model(cfg, adjs, pe, splits.stats, seed=2)
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


# ---------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path, tiny):
    _, _, _, splits, model = tiny
    path = tmp_path / "model.json"
    gmodel.save_checkpoint(model, path)
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
    again = tmp_path / "again.json"
    gmodel.save_checkpoint(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_checkpoint_round_trip_gat_variant(tmp_path):
    _, _, _, splits, model = pipeline(variant="ablation3")
    path = tmp_path / "gat.json"
    gmodel.save_checkpoint(model, path)
    loaded = gmodel.load_checkpoint(path)
    x = splits.train[0].input
    assert np.array_equal(
        gmodel.model_forward(model, x).data, gmodel.model_forward(loaded, x).data
    )


def test_checkpoint_version_and_contents_validated(tmp_path, tiny):
    model = tiny[4]
    path = tmp_path / "model.json"
    gmodel.save_checkpoint(model, path)
    payload = json.loads(path.read_text())

    payload["format_version"] = 99
    bad = tmp_path / "bad_version.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(gmodel.ConfigError):
        gmodel.load_checkpoint(bad)

    payload["format_version"] = gmodel.CHECKPOINT_VERSION
    del payload["tensors"]["head.w"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(payload))
    with pytest.raises(gmodel.ConfigError):
        gmodel.load_checkpoint(missing)


def encode(arr):
    """An array entry as the checkpoint layout documents it."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "data": base64.b64encode(raw).decode("ascii")}


def decode(entry):
    raw = base64.b64decode(entry["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(entry["shape"])


def test_checkpoint_layout_is_base64_little_endian_float64(tmp_path):
    model = pipeline()[4]
    w = model.named_params()["layer1.w_q_local"].data
    w.flat[0] = -0.0
    w.flat[1] = np.array([0x7FF8_0000_0000_0123], dtype=np.uint64).view(np.float64)[0]
    path = tmp_path / "model.json"
    gmodel.save_checkpoint(model, path)

    payload = json.loads(path.read_text())
    assert payload["format_version"] == 2
    entry = payload["tensors"]["layer1.w_q_local"]
    assert entry["shape"] == list(w.shape)
    assert decode(entry).tobytes() == w.astype("<f8").tobytes()
    assert np.array_equal(decode(payload["adj"]), model.adj)
    assert np.array_equal(decode(payload["stats"]["std"]), model.stats.std)

    loaded = gmodel.load_checkpoint(path).named_params()["layer1.w_q_local"].data
    assert loaded.tobytes() == w.tobytes()  # NaN payload and -0.0 survive
    assert loaded.flags.writeable


def _drop(key):
    def edit(payload):
        del payload[key]
    return edit


def _set(*path, value):
    def edit(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(payload) if callable(value) else value
    return edit


MALFORMED = {
    "missing top-level key": _drop("stats"),
    "unknown top-level key": _set("extra", value=1),
    "unknown config key": _set("config", "bogus", value=1),
    "missing config key": lambda p: p["config"].pop("h_pe"),
    "config value of the wrong type": _set("config", "n", value="6"),
    "fractional config integer": _set("config", "n", value=6.0),
    "config not an object": _set("config", value=[6]),
    "bad base64": _set("tensors", "head.b", "data", value="!!!!"),
    "data shorter than its shape": _set(
        "tensors", "head.b", value=lambda p: encode(decode(p["tensors"]["head.b"])[:-1])
    ),
    "data longer than its shape": _set(
        "tensors", "head.b", "shape", value=lambda p: [len(decode(p["tensors"]["head.b"])) - 1]
    ),
    "negative shape": _set("tensors", "head.b", "shape", value=[-12]),
    "array entry missing data": lambda p: p["tensors"]["head.b"].pop("data"),
    "array entry as a plain list": _set("tensors", "head.b", value=[0.0] * 12),
    "unknown tensor": _set("tensors", "bogus", value=encode(np.zeros(3))),
    "tensors not an object": _set("tensors", value=[]),
    "adj with one matrix too few": _set("adj", value=lambda p: encode(decode(p["adj"])[:1])),
    "adj as one N x N matrix": _set("adj", value=lambda p: encode(decode(p["adj"])[0])),
    "adj stack for the GAT variant": _set("config", "variant", value="ablation3"),
    "adj entries outside [0, 1]": _set("adj", value=lambda p: encode(decode(p["adj"]) * 2.0)),
    "pe absent where the variant needs it": _set("pe", value=None),
    "pe present where the variant has none": _set("config", "variant", value="ablation2"),
    "pe of the wrong width": _set("pe", value=lambda p: encode(decode(p["pe"])[..., :3])),
    "pe not N x N": _set("pe", value=lambda p: encode(decode(p["pe"])[1:])),
    "stats without std": lambda p: p["stats"].pop("std"),
    "stats of unequal shapes": _set(
        "stats", "std", value=lambda p: encode(np.append(decode(p["stats"]["std"]), 1.0))
    ),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_checkpoint_malformed_contents_rejected(tmp_path, tiny, edit):
    path = tmp_path / "model.json"
    gmodel.save_checkpoint(tiny[4], path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(gmodel.ConfigError):
        gmodel.load_checkpoint(path)


@pytest.mark.parametrize(
    "text", ["", "[]", "{", "\udcff"], ids=["empty", "not an object", "truncated", "not utf-8"]
)
def test_checkpoint_unparseable_file_rejected(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe" if text == "\udcff" else text.encode())
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
