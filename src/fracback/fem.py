"""P1 finite element machinery on the meshes from :mod:`fracback.grid`.

Assembles mass/stiffness matrices with homogeneous Dirichlet dofs
eliminated, by one element formula for any simplex, interval or triangle
(:func:`assemble_full`), computes L2 projections and nonlinear load
vectors, and provides the discrete L2 norm and error.  The discrete
Laplacian is never formed explicitly; it lives in the pencil (K, M).
SciPy is imported where it is first needed, not with the module:
``scipy.sparse`` by :func:`assemble_full` and ``scipy.linalg`` by
:meth:`FemSystem.eigenpairs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalFailure(RuntimeError):
    """A numerical step failed: an iterative solver missed its tolerance, a
    band factorisation met a matrix that is not positive definite, or a
    forward step or series application produced non-finite values."""


# Largest system, in dofs, on which the dense (K, M) eigensolve runs: it
# costs O(d^3) time and, at its peak, 4 d^2 doubles (43 MB at the cap).
# Six reconstructions sharing one system run no slower dense than by the
# Chebyshev series up to 1,156 dofs; the two tie at 1,225, and from 1,521
# on the series is faster (BENCH_dense_cap.json).
DENSE_CAP = 1156


class UnsupportedSize(ValueError):
    """Dense-path operation requested above :data:`DENSE_CAP` dofs."""


def conjugate_gradient(apply_op, b, *, tol=1e-12, maxiter=1000, dot=None, context=""):
    """Conjugate gradients for an SPD operator given as a callable.

    ``dot`` replaces the Euclidean inner product (used with the mass
    inner product, in which the regularized propagator is self-adjoint).
    Stops when ||r|| <= tol * ||b|| in the induced norm.  Returns
    ``(x, iterations)``; raises :class:`NumericalFailure` on stagnation.
    """
    if dot is None:
        dot = np.dot
    b = np.asarray(b, dtype=np.float64)
    norm_b = np.sqrt(dot(b, b))
    x = np.zeros_like(b)
    if norm_b == 0.0:
        return x, 0
    r = b.copy()
    p = r.copy()
    rr = dot(r, r)
    for k in range(1, maxiter + 1):
        Ap = apply_op(p)
        alpha = rr / dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        rr_new = dot(r, r)
        if np.sqrt(rr_new) <= tol * norm_b:
            return x, k
        p = r + (rr_new / rr) * p
        rr = rr_new
    res = np.sqrt(dot(r, r)) / norm_b
    raise NumericalFailure(
        f"CG did not converge{' in ' + context if context else ''}: "
        f"relative residual {res:.3e} after {maxiter} iterations")


# ---------------------------------------------------------------------------
# assembly

def assemble_full(mesh):
    """Full (all-node) mass and stiffness matrices in CSR format.

    One P1 element on a d-simplex with measure |e| (see
    :meth:`fracback.grid.Mesh.element_measures`): the barycentric
    gradients of vertices 1..d are the columns of E^-1, E the d×d matrix
    whose rows are the edge vectors p_i - p_0, and vertex 0's is minus
    their sum.  With G holding them as rows, K_loc = |e| G Gᵀ and
    M_loc = |e| (1 + δ_ij) / ((d+1)(d+2)).
    """
    import scipy.sparse as sp

    nn = mesh.num_nodes
    conn = mesh.elements
    nv = conn.shape[1]
    pts = mesh.nodes[conn]                          # (ne, d+1, d)
    measure = mesh.element_measures()[:, None, None]
    # B maps the columns of E^-1 to all d+1 gradients, as the rows of G
    B = np.vstack([-np.ones(nv - 1), np.eye(nv - 1)])
    G = B @ np.linalg.inv(pts[:, 1:] - pts[:, :1]).transpose(0, 2, 1)
    k_loc = G @ G.transpose(0, 2, 1)
    k_loc *= measure
    m_ref = (np.ones((nv, nv)) + np.eye(nv)) / (nv * (nv + 1))
    m_vals = (m_ref * measure).ravel()
    rows = np.repeat(conn, nv, axis=1).ravel()
    cols = np.tile(conn, (1, nv)).ravel()
    M = sp.coo_matrix((m_vals, (rows, cols)), shape=(nn, nn)).tocsr()
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    return M, K


class FemSystem:
    """Assembled P1 system: interior mass M and stiffness K of a mesh.

    ``b_d`` = M_c 1_d sums the interior rows M_c of the full mass matrix
    over the boundary nodes: the load of a source that is 1 on the boundary
    trace and 0 inside, through which f(0) != 0 in the nonlinear term
    picks up the boundary-adjacent contributions.

    The system also owns the data derived from it, built on first use and
    freed with it: :meth:`derived` keeps each value under a key its caller
    picks, such as ``"eig"`` for the dense eigenpairs (:meth:`eigenpairs`)
    or ``("step", grid)`` for the step factor of one time grid.  Nothing
    outside the system keeps them, so dropping the last reference to a
    system releases its factors.
    """

    def __init__(self, mesh, M, K, b_d, interior_ids):
        self.mesh = mesh
        self.M = M
        self.K = K
        self.b_d = b_d
        self.interior_ids = interior_ids
        self._derived = {}

    def derived(self, key, build):
        """The value kept under ``key``, made by ``build()`` on first use."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    @property
    def num_dofs(self) -> int:
        return self.M.shape[0]

    def interior_coords(self):
        return self.mesh.nodes[self.interior_ids]

    def full_values(self, values):
        """Extend an interior dof vector by the boundary zeros."""
        out = np.zeros(self.mesh.num_nodes)
        out[self.interior_ids] = values
        return out

    def eigenpairs(self):
        """Generalized eigenpairs of (K, M), eigenvectors M-orthonormal.

        Backed by a dense solve; refuses systems above :data:`DENSE_CAP`
        dofs.  Kept on the system after the first call.  LAPACK works in
        place on the densified matrices: the Cholesky factor overwrites
        dense M and the eigenvectors Φ overwrite dense K, so the peak is
        the two d×d arrays plus dsygvd's 2 d² workspace, 4 d² doubles.
        """
        if self.num_dofs > DENSE_CAP:
            raise UnsupportedSize(
                f"dense eigendecomposition capped at {DENSE_CAP} dofs, "
                f"system has {self.num_dofs}")
        import scipy.linalg

        # Fortran order lets LAPACK take both arrays without a copy
        return self.derived("eig", lambda: scipy.linalg.eigh(
            self.K.toarray(order="F"), self.M.toarray(order="F"),
            overwrite_a=True, overwrite_b=True))


def assemble(mesh) -> FemSystem:
    """Assemble interior mass/stiffness matrices for a mesh."""
    M_full, K_full = assemble_full(mesh)
    interior_ids = np.flatnonzero(~mesh.boundary_mask)
    M = M_full[interior_ids][:, interior_ids].tocsr()
    K = K_full[interior_ids][:, interior_ids].tocsr()
    M.sort_indices()
    K.sort_indices()
    b_d = M_full[interior_ids] @ mesh.boundary_mask.astype(np.float64)
    return FemSystem(mesh, M, K, b_d, interior_ids)


@dataclass
class GridFunction:
    """Coefficients of a P1 function over interior dofs (boundary = 0)."""

    system: FemSystem
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.system.num_dofs,):
            raise ValueError(
                f"expected {self.system.num_dofs} interior values, "
                f"got shape {self.values.shape}")

    def full_values(self) -> np.ndarray:
        return self.system.full_values(self.values)

    def copy(self) -> "GridFunction":
        return GridFunction(self.system, self.values.copy())


# ---------------------------------------------------------------------------
# quadrature rules in barycentric form: (weights summing to 1, bary coords)

_SIMPSON_1D = (np.array([1.0, 4.0, 1.0]) / 6.0,
               np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
_MIDEDGE_2D = (np.full(3, 1.0 / 3.0),
               np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]))


def _subdivided_rule(dim, s=4):
    """Composite midpoint/centroid rule on an s-fold uniform refinement."""
    if dim == 1:
        mids = (np.arange(s * s) + 0.5) / (s * s)
        bary = np.column_stack([1.0 - mids, mids])
        w = np.full(s * s, 1.0 / (s * s))
        return w, bary
    pts = []
    for i in range(s):
        for j in range(s - i):
            # centroids of the sub-triangles (i, j), (i+1, j), (i, j+1) and,
            # inside the refinement, (i+1, j), (i, j+1), (i+1, j+1)
            pts.append(((3 * i + 1) / (3.0 * s), (3 * j + 1) / (3.0 * s)))
            if i + j < s - 1:
                pts.append(((3 * i + 2) / (3.0 * s), (3 * j + 2) / (3.0 * s)))
    xi = np.array(pts)
    bary = np.column_stack([1.0 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]])
    w = np.full(len(pts), 1.0 / (s * s))
    return w, bary


def _load_vector(mesh, f, rule):
    """Assemble (f, phi_i) over all nodes with the given barycentric rule."""
    w, bary = rule
    conn = mesh.elements
    pts = mesh.nodes[conn]                       # (ne, nv, dim)
    measures = mesh.element_measures()
    xq = np.einsum("qv,evd->eqd", bary, pts)     # (ne, nq, dim)
    fvals = f(*np.moveaxis(xq, -1, 0))           # f(x) or f(x, y)
    fvals = np.broadcast_to(np.asarray(fvals, dtype=np.float64), xq.shape[:2])
    # contribution of quad point q to local vertex v: w_q * f_q * bary[q, v]
    loc = np.einsum("eq,q,qv->ev", fvals, w, bary) * measures[:, None]
    out = np.zeros(mesh.num_nodes)
    np.add.at(out, conn.ravel(), loc.ravel())
    return out


def l2_project(sys: FemSystem, f, *, subdivide=False) -> GridFunction:
    """L2 projection of a pointwise function onto the interior P1 space.

    The load is integrated with a rule exact for quadratics (Simpson in
    1D, edge midpoints in 2D); ``subdivide`` switches to a 16-cell
    composite midpoint rule per element for discontinuous data.
    """
    if subdivide:
        rule = _subdivided_rule(sys.mesh.dim)
    else:
        rule = _SIMPSON_1D if sys.mesh.dim == 1 else _MIDEDGE_2D
    load = _load_vector(sys.mesh, f, rule)[sys.interior_ids]
    x, _ = conjugate_gradient(lambda v: sys.M @ v, load, tol=1e-12, maxiter=400,
                              context="l2_project mass solve")
    return GridFunction(sys, x)


def load_nonlinear(sys: FemSystem, u: GridFunction, f) -> np.ndarray:
    """Product-approximation load M_c f(u): nodal interpolation of f(u_h).

    u_h is zero on the boundary, so with f pointwise the load is
    M f(u) + f(0) b_d (see :class:`FemSystem`).
    """
    if u.system is not sys:
        raise ValueError("grid function defined on a different system")
    return sys.M @ f(u.values) + f(np.zeros(1))[0] * sys.b_d


# ---------------------------------------------------------------------------
# norms

def l2_norm(sys: FemSystem, u: GridFunction) -> float:
    return float(np.sqrt(u.values @ (sys.M @ u.values)))


def l2_error(sys: FemSystem, u: GridFunction, ref: GridFunction, *, relative=False) -> float:
    d = u.values - ref.values
    err = float(np.sqrt(d @ (sys.M @ d)))
    if not relative:
        return err
    denom = l2_norm(sys, ref)
    if denom == 0.0:
        raise ValueError("relative error against a zero reference")
    return err / denom


# ---------------------------------------------------------------------------
# field output

def write_field_csv(gf: GridFunction, path):
    """Dump nodal values (boundary zeros included) as x[,y],value CSV."""
    mesh = gf.system.mesh
    np.savetxt(path, np.column_stack([mesh.nodes, gf.full_values()]), fmt="%.12e",
               delimiter=",", header=",".join("xy"[:mesh.dim]) + ",value", comments="")
