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
# costs O(d^3) time and, at its peak, about 1.35 d^2 doubles on the square
# (14.3 MB at the cap).  The cap is where six reconstructions sharing one
# system ran as fast dense as by the Chebyshev series while the eigensolve
# was one solve of the whole pencil (BENCH_dense_cap.json).  Split by
# symmetry, the dense path is no slower up to 4,761 dofs
# (BENCH_eig_symmetry.json); a higher cap would move table3's finest cell
# onto it, which waits for the decision on retiring the dense path.
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
        dofs.  Kept on the system after the first call.  Eigenvalues
        ascend, ties in a stable order, and Φ is a Fortran-order d×d array.

        The reflections of :meth:`symmetry_blocks` split the pencil into
        one block per character, 2 in 1D and 4 on the square, each of
        about d/2 or d/4 dofs.  Each block goes through LAPACK's dsygvd in
        place (its Cholesky factor overwrites the dense block of M, its
        eigenvectors that of K) and Q_s V_s is written straight into Φ,
        so the peak is Φ plus one block's solve: about 1.35 d² doubles on
        the square and 2.3 d² in 1D, against 4 d² for one solve of the
        whole pencil.  A system without the reflections is one block, the
        whole dense pencil.
        """
        if self.num_dofs > DENSE_CAP:
            raise UnsupportedSize(
                f"dense eigendecomposition capped at {DENSE_CAP} dofs, "
                f"system has {self.num_dofs}")
        return self.derived("eig", self._blocked_eigh)

    def _blocked_eigh(self):
        import scipy.linalg

        d = self.num_dofs
        lam = np.empty(d)
        # Φᵀ in C order: the rows of one block are one contiguous slab
        phi_t = np.empty((d, d))
        start = 0
        for q, col, size in self.symmetry_blocks():
            end = start + size
            lam[start:end], v = scipy.linalg.eigh(
                _dense_block(self.K, q, col, size), _dense_block(self.M, q, col, size),
                overwrite_a=True, overwrite_b=True)
            # row k of the slab is column k of Q_s V_s: q[i] V_s[col[i], k];
            # rows outside the block may hold col -1, which "clip" keeps in
            # range and q = 0 then zeroes
            slab = phi_t[start:end]
            np.take(v.T, col, axis=1, out=slab, mode="clip")
            slab *= q
            start = end
        order = np.argsort(lam, kind="stable")
        # sort the rows by eigenvalue in place, a band of columns at a time
        for c in range(0, d, 128):
            phi_t[:, c:c + 128] = phi_t[order, c:c + 128]
        return lam[order], phi_t.T

    def symmetry_blocks(self):
        """Orthonormal bases Q_s that block-diagonalise K and M together.

        The group is generated by the reflections of the interior dof
        lattice that leave K and M unchanged: the point reflection, which
        reverses the dof order, and on the square the transpose x <-> y of
        the (n-1)×(n-1) lattice.  Each is kept only if both matrices match
        their permuted selves within :data:`_SYMMETRY_RTOL`; the two
        commute, so the group holds 1, 2 or 4 permutations.  Its
        characters s are the sign patterns on the kept generators.

        Yields ``(q, col, size)`` per character, where column ``col[i]``
        of Q_s holds ``q[i]`` in row i, Q_s's only entry in that row, and
        rows with ``q[i] == 0`` lie in other blocks.  A column collects one
        orbit of the group with entries ±1/sqrt(|orbit|).
        """
        d = self.num_dofs
        ids = np.arange(d)
        side = self.mesh.n - 1
        candidates = [ids[::-1]]
        if self.mesh.dim == 2 and d == side * side:
            candidates.append(ids.reshape(side, side).T.ravel())
        # group[b] composes the generators whose bits are set in b
        group = [ids]
        for p in candidates:
            if _permutation_invariant(self.K, p) and _permutation_invariant(self.M, p):
                group += [p[g] for g in group]
        images = np.array(group)                    # images[b, i] = g_b(i)
        rep = images.min(axis=0)                    # one representative per orbit
        # hits[b, i]: g_b takes i's representative to i; per column they
        # count i's stabiliser, |G| / |orbit|
        hits = images[:, rep] == ids
        norm = np.sqrt(len(group) * hits.sum(axis=0))
        for s in range(len(group)):
            chi = np.array([(-1) ** (s & b).bit_count() for b in range(len(group))])
            # zero on a whole orbit when chi is -1 somewhere on its stabiliser
            q = (chi @ hits) / norm
            columns = (rep == ids) & (q != 0.0)
            yield q, (np.cumsum(columns) - 1)[rep], int(columns.sum())


# Relative gap, against the largest entry, up to which a permuted K or M
# still counts as the same matrix.  Rounding in the node coordinates gives
# at most 6.5e-14 (1D at n = 1157; 4.4e-15 on the square).  The couplings
# a kept reflection drops are of this size, so they move the eigenvalues by
# about this times lambda_max at most.
_SYMMETRY_RTOL = 1e-12


def _permutation_invariant(A, p) -> bool:
    """Whether A[p][:, p] equals the CSR matrix A within :data:`_SYMMETRY_RTOL`."""
    d = A.shape[0]
    rows = np.repeat(np.arange(d), np.diff(A.indptr))
    # with sorted indices, rows * d + A.indices ascends
    moved = p[rows] * d + p[A.indices]
    order = np.argsort(moved)
    return bool(np.array_equal(moved[order], rows * d + A.indices)
                and np.max(np.abs(A.data[order] - A.data))
                <= _SYMMETRY_RTOL * np.max(np.abs(A.data)))


def _dense_block(A, q, col, size):
    """Q_sᵀ A Q_s as a Fortran-order array, for the basis Q_s whose row i
    holds ``q[i]`` in column ``col[i]`` (see :meth:`FemSystem.symmetry_blocks`)."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    keep = (q[rows] != 0.0) & (q[A.indices] != 0.0)
    r, c = rows[keep], A.indices[keep]
    return np.bincount(col[r] + col[c] * size, weights=q[r] * q[c] * A.data[keep],
                       minlength=size * size).reshape((size, size), order="F")


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
