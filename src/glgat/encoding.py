"""Static pairwise direction/distance encodings and learnable vertex tables.

The pairwise tensor gives attention a geometry channel: for each ordered
pair (i, j) it stores a smoothed one-hot of the 45-degree sector pointing
from i to j plus the L1 and L2 distances, scaled into O(1) range.
"""

from __future__ import annotations

import math

import numpy as np

N_DIRECTION_CLASSES = 8
DEFAULT_H_PE = N_DIRECTION_CLASSES + 2  # direction classes + L1 + L2
DEFAULT_SMOOTHING = 0.1  # label smoothing of the direction one-hot


class GeometryError(ValueError):
    """Coordinates admit no direction or distance scale."""


def direction_class(xi: float, yi: float, xj: float, yj: float) -> int:
    """45-degree sector of the bearing i -> j; class 0 is centered due east."""
    theta = math.atan2(yj - yi, xj - xi)
    return int(((theta + math.pi / 8.0) % (2.0 * math.pi)) // (math.pi / 4.0)) % 8


def build_pairwise_encoding(graph, smoothing: float = DEFAULT_SMOOTHING) -> np.ndarray:
    """Assemble the (N, N, 10) direction + L1 + L2 tensor for a graph.

    Distances are divided by the maximum pairwise L2 distance so the
    farthest pair's L2 channel is exactly 1. Self pairs (and coincident
    vertices) carry the uniform direction vector and zero distances.
    """
    coords = graph.coordinates
    n = graph.n_vertices
    diff = coords[None, :, :] - coords[:, None, :]  # diff[i, j] = coord_j - coord_i
    l1 = np.abs(diff).sum(axis=2)
    l2 = np.sqrt((diff**2).sum(axis=2))
    scale = l2.max()
    if scale == 0.0:
        raise GeometryError("all coordinates coincide; pairwise geometry is degenerate")

    # math.atan2 per pair: np.arctan2 can differ by an ulp and flip a sector
    xi, yi = np.repeat(coords, n, axis=0).T.tolist()  # pair i * n + j
    xj, yj = np.tile(coords, (n, 1)).T.tolist()
    sector = np.fromiter(map(direction_class, xi, yi, xj, yj), dtype=np.intp, count=n * n)
    tensor = np.zeros((n, n, DEFAULT_H_PE))
    onehot = tensor[:, :, :N_DIRECTION_CLASSES]
    onehot[:] = smoothing / (N_DIRECTION_CLASSES - 1)
    np.put_along_axis(onehot, sector.reshape(n, n, 1), 1.0 - smoothing, axis=2)
    coincident = (diff == 0.0).all(axis=2)
    onehot[coincident] = 1.0 / N_DIRECTION_CLASSES
    tensor[:, :, N_DIRECTION_CLASSES] = l1 / scale
    tensor[:, :, N_DIRECTION_CLASSES + 1] = l2 / scale
    return tensor


def init_vertex_encoding(n: int, h_e: int, seed: int) -> np.ndarray:
    """(n, h_e) uniform [-0.05, 0.05] table, deterministic under seed; width 0
    disables the encoding entirely."""
    if h_e < 0:
        raise ValueError("encoding width must be non-negative")
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.05, 0.05, size=(n, h_e))
