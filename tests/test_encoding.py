"""Direction sectors, distance channels, and vertex-table initialization."""

import numpy as np
import pytest

from glgat.data import SensorGraph
from glgat.encoding import (
    GeometryError,
    build_pairwise_encoding,
    direction_class,
    init_vertex_encoding,
)
from oracles import encode_direction


def graph_of(coords, edges=()):
    coords = np.asarray(coords, dtype=float)
    return SensorGraph(len(coords), coords, list(edges))


def test_due_east_is_class_zero():
    vec = encode_direction(0.0, 0.0, 1.0, 0.0)
    expected = np.full(8, 0.1 / 7.0)
    expected[0] = 0.9
    np.testing.assert_array_equal(vec, expected)


def test_due_north_is_class_two():
    assert direction_class(0.0, 0.0, 0.0, 1.0) == 2
    vec = encode_direction(0.0, 0.0, 0.0, 1.0)
    assert vec[2] == 0.9
    assert vec.argmax() == 2


def test_eight_sector_centers():
    # centers at 45-degree steps, counterclockwise from east
    for c in range(8):
        ang = c * np.pi / 4.0
        assert direction_class(0.0, 0.0, np.cos(ang), np.sin(ang)) == c


def test_sector_boundary_rolls_over():
    # 22.5 degrees is the first boundary: it belongs to class 1, not 0
    ang = np.pi / 8.0
    assert direction_class(0.0, 0.0, np.cos(ang), np.sin(ang)) == 1


def test_antipodal_classes():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        xi, yi, xj, yj = rng.uniform(-50.0, 50.0, size=4)
        if xi == xj and yi == yj:
            continue
        fwd = direction_class(xi, yi, xj, yj)
        back = direction_class(xj, yj, xi, yi)
        assert fwd == (back + 4) % 8


def test_direction_blocks_sum_to_one():
    rng = np.random.default_rng(5)
    graph = graph_of(rng.uniform(0, 10, (7, 2)))
    pe = build_pairwise_encoding(graph)
    sums = pe[:, :, :8].sum(axis=2)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


def test_self_pair_uniform_direction_zero_distance():
    graph = graph_of([[0.0, 0.0], [3.0, 4.0]])
    pe = build_pairwise_encoding(graph)
    np.testing.assert_array_equal(pe[0, 0, :8], np.full(8, 0.125))
    np.testing.assert_array_equal(pe[1, 1, 8:], [0.0, 0.0])
    assert pe[0, 0, :8].sum() == 1.0  # exact for the uniform block


def test_unit_square_normalization_anchor():
    graph = graph_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pe = build_pairwise_encoding(graph)
    # farthest pair is the diagonal: raw L1 = 2, L2 = sqrt(2)
    assert pe[0, 3, 9] == 1.0
    assert pe[0, 3, 8] == pytest.approx(2.0 / np.sqrt(2.0))
    assert pe.shape == (4, 4, 10)


def test_l1_dominates_l2():
    rng = np.random.default_rng(9)
    coords = rng.uniform(-5, 5, (6, 2))
    graph = graph_of(coords)
    pe = build_pairwise_encoding(graph)
    # holds raw and channel-wise (both channels share one scale factor)
    raw_l1 = np.abs(coords[None] - coords[:, None]).sum(axis=2)
    raw_l2 = np.sqrt(((coords[None] - coords[:, None]) ** 2).sum(axis=2))
    assert np.all(raw_l1 >= raw_l2)
    assert np.all(pe[:, :, 8] >= pe[:, :, 9])


def test_distance_channels_symmetric():
    rng = np.random.default_rng(11)
    pe = build_pairwise_encoding(graph_of(rng.uniform(0, 3, (5, 2))))
    assert pe[:, :, 8].tobytes() == pe[:, :, 8].T.copy().tobytes()
    assert pe[:, :, 9].tobytes() == pe[:, :, 9].T.copy().tobytes()


def test_translation_invariance_bit_exact():
    # binary-fraction coordinates plus integer offsets add without rounding
    rng = np.random.default_rng(13)
    coords = rng.integers(0, 128, size=(6, 2)).astype(float) / 8.0
    base = build_pairwise_encoding(graph_of(coords))
    shifted = build_pairwise_encoding(graph_of(coords + np.array([37.0, -12.0])))
    assert base.tobytes() == shifted.tobytes()


def test_coincident_distinct_vertices_get_uniform_direction():
    pe = build_pairwise_encoding(graph_of([[1.0, 1.0], [1.0, 1.0], [4.0, 5.0]]))
    np.testing.assert_array_equal(pe[0, 1, :8], np.full(8, 0.125))


def test_degenerate_geometry_rejected():
    with pytest.raises(GeometryError):
        build_pairwise_encoding(graph_of([[2.0, 2.0], [2.0, 2.0]]))


def test_vertex_encoding_init():
    enc = init_vertex_encoding(5, 8, seed=3)
    assert enc.shape == (5, 8)
    assert np.all(np.abs(enc) <= 0.05)
    again = init_vertex_encoding(5, 8, seed=3)
    assert enc.tobytes() == again.tobytes()
    assert enc.tobytes() != init_vertex_encoding(5, 8, seed=4).tobytes()


def test_vertex_encoding_width_zero():
    enc = init_vertex_encoding(4, 0, seed=0)
    assert enc.shape == (4, 0)
    with pytest.raises(ValueError):
        init_vertex_encoding(4, -1, seed=0)


def test_pairwise_encoding_matches_per_pair_loop_bit_for_bit():
    rng = np.random.default_rng(12)
    layouts = [
        rng.uniform(-50.0, 50.0, (23, 2)),
        rng.integers(-3, 4, (30, 2)).astype(float),  # exact angles and coincident points
        np.repeat(rng.uniform(0.0, 1.0, (6, 2)), 2, axis=0),
        # rays along the sector edges: bearings within an ulp of a boundary
        np.array([(0.0, 0.0)] + [
            (r * np.cos(a), r * np.sin(a))
            for a in (2 * np.arange(8) + 1) * np.pi / 8.0
            for r in np.linspace(0.5, 20.0, 16)
        ]),
    ]
    for coords in layouts:
        n = len(coords)
        got = build_pairwise_encoding(graph_of(coords), smoothing=0.2)
        for i in range(n):
            for j in range(n):
                expected = encode_direction(*coords[i], *coords[j], smoothing=0.2)
                assert got[i, j, :8].tobytes() == expected.tobytes(), (i, j)
