"""Uniform meshes of the unit interval and the unit square.

The square is triangulated in the Friedrichs-Keller pattern: every
lattice cell is split along the same lower-left to upper-right diagonal,
so meshes at different resolutions are deterministically comparable and
mesh(n) nodes are a subset of mesh(r*n) nodes for any integer r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """P1 mesh of (0,1) or (0,1)^2 with Dirichlet boundary classification.

    Nodes are ordered lexicographically by (y, x); elements are index
    pairs (1D) or counterclockwise triangles (2D).
    """

    dim: int
    n: int
    nodes: np.ndarray
    elements: np.ndarray
    boundary_mask: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def num_interior(self) -> int:
        return int((~self.boundary_mask).sum())

    def element_measures(self) -> np.ndarray:
        """Signed length/area of every element (positive by construction)."""
        if self.dim == 1:
            a, b = self.elements.T
            return self.nodes[b, 0] - self.nodes[a, 0]
        a, b, c = self.elements.T
        pa, pb, pc = self.nodes[a], self.nodes[b], self.nodes[c]
        return 0.5 * ((pb[:, 0] - pa[:, 0]) * (pc[:, 1] - pa[:, 1])
                      - (pc[:, 0] - pa[:, 0]) * (pb[:, 1] - pa[:, 1]))

    def meta(self) -> dict:
        """Metadata object used by field dumps."""
        return {
            "dim": self.dim,
            "n": self.n,
            "h": self.h,
            "num_nodes": self.num_nodes,
            "num_elements": self.num_elements,
        }


def _finalize(dim, n, nodes, elements):
    if dim == 1:
        on_boundary = (nodes[:, 0] == 0.0) | (nodes[:, 0] == 1.0)
    else:
        on_boundary = np.any((nodes == 0.0) | (nodes == 1.0), axis=1)
    nodes.setflags(write=False)
    elements.setflags(write=False)
    on_boundary.setflags(write=False)
    return Mesh(dim=dim, n=n, nodes=nodes, elements=elements,
                boundary_mask=on_boundary)


def build_interval_mesh(n: int) -> Mesh:
    """Uniform mesh of (0,1) with n elements and n+1 nodes."""
    if n < 2:
        raise ValueError(f"interval mesh needs n >= 2, got {n}")
    nodes = (np.arange(n + 1, dtype=np.float64) / n).reshape(-1, 1)
    ids = np.arange(n, dtype=np.int64)
    elements = np.column_stack([ids, ids + 1])
    return _finalize(1, n, nodes, elements)


def build_square_mesh(n: int) -> Mesh:
    """Uniform Friedrichs-Keller triangulation of (0,1)^2.

    (n+1)^2 lattice nodes, 2 n^2 triangles, (n-1)^2 interior dofs.
    """
    if n < 2:
        raise ValueError(f"square mesh needs n >= 2, got {n}")
    i = np.arange(n + 1, dtype=np.float64) / n
    xx, yy = np.meshgrid(i, i, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    def nid(ix, iy):
        return iy * (n + 1) + ix

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ix, iy = ix.ravel(), iy.ravel()
    a = nid(ix, iy)
    b = nid(ix + 1, iy)
    c = nid(ix + 1, iy + 1)
    d = nid(ix, iy + 1)
    # two triangles per cell, split along the a-c diagonal, both CCW
    lower = np.column_stack([a, b, c])
    upper = np.column_stack([a, c, d])
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper
    return _finalize(2, n, nodes, elements)


def restrict_nodal(fine: Mesh, coarse: Mesh, fine_node_values: np.ndarray) -> np.ndarray:
    """Sample nodal values from a nested fine mesh at the coarse nodes.

    Requires coarse.n to divide fine.n; coarse node (i/n, j/n) is fine
    node (ri/rn, rj/rn) with r = fine.n // coarse.n, so the restriction
    is exact index arithmetic, no interpolation.
    """
    if fine.dim != coarse.dim:
        raise ValueError("meshes have different dimensions")
    if fine.n % coarse.n != 0:
        raise ValueError(f"meshes not nested: {coarse.n} does not divide {fine.n}")
    r = fine.n // coarse.n
    if fine_node_values.shape[0] != fine.num_nodes:
        raise ValueError("value vector does not match the fine mesh")
    if fine.dim == 1:
        idx = np.arange(coarse.n + 1) * r
    else:
        i = np.arange(coarse.n + 1) * r
        ixf, iyf = np.meshgrid(i, i, indexing="xy")
        idx = (iyf * (fine.n + 1) + ixf).ravel()
    return fine_node_values[idx]
