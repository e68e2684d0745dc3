"""Sparse linear algebra kernels for the per-slab systems.

CSR storage is provided by scipy (``csr_matrix.indptr/.indices/.data`` are
the row offsets, sorted column indices and values); the conjugate-gradient
solver, the symmetric Dirichlet elimination and the hanging-node
condensation are implemented here so that their exact behaviour is under
our control.  All systems handled here are symmetric positive definite on
the unconstrained subspace; coefficients are 64-bit floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp


class SolverError(RuntimeError):
    """Iterative solve failed; carries the final residual and iteration count."""

    def __init__(self, message, iterations, residual):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class ConstraintCycleError(ValueError):
    """A slave dof (transitively) depends on itself."""


@dataclass(frozen=True)
class SolverControl:
    """Stopping criteria for :func:`cg_solve`.

    Convergence is declared once ``||b - A x|| <= max(relative_tolerance *
    ||b||, absolute_tolerance)`` in the Euclidean norm.
    """

    max_iterations: int = 1000
    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-14

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.relative_tolerance <= 0.0 or self.absolute_tolerance <= 0.0:
            raise ValueError("tolerances must be > 0")


def csr_from_triplets(n_rows, n_cols, triplets):
    """Build a CSR matrix from ``(row, col, value)`` triplets.

    Duplicate entries are summed; column indices are sorted within each
    row.  Out-of-range indices raise ``ValueError``.
    """
    if triplets:
        rows, cols, vals = map(np.asarray, zip(*triplets))
    else:
        rows = cols = np.empty(0, dtype=int)
        vals = np.empty(0)
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError("column index out of range")
    mat = sp.coo_matrix((vals.astype(float), (rows, cols)), shape=(n_rows, n_cols))
    mat = mat.tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def spmv(A, x):
    """Matrix-vector product ``y = A x`` with a dimension check."""
    x = np.asarray(x, dtype=float)
    if A.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} @ {x.shape}")
    return A @ x


def cg_solve(A, b, ctrl=SolverControl(), x0=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Returns ``(x, iterations)``.  Raises :class:`SolverError` if the
    residual target is not met within ``ctrl.max_iterations``.

    Rows that are fully decoupled (unit diagonal, zero off-diagonals, as
    produced by :func:`apply_dirichlet`) are reproduced bit-exactly when
    ``x0`` already carries their values: their residual starts at zero and
    every CG update leaves them untouched.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"system shape mismatch: {A.shape} vs rhs {n}")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    inv_diag = 1.0 / diag

    b_norm = np.linalg.norm(b)
    target = max(ctrl.relative_tolerance * b_norm, ctrl.absolute_tolerance)

    r = b - A @ x
    res = np.linalg.norm(r)
    if res <= target:
        return x, 0
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for k in range(1, ctrl.max_iterations + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        res = np.linalg.norm(r)
        if res <= target:
            return x, k
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG did not converge in {ctrl.max_iterations} iterations "
        f"(residual {res:.3e}, target {target:.3e})",
        iterations=ctrl.max_iterations,
        residual=res,
    )


def apply_dirichlet(A, b, boundary_values):
    """Eliminate fixed-value dofs symmetrically.

    Constrained rows and columns are zeroed except for a unit diagonal,
    the right-hand side is adjusted so the remaining equations see the
    boundary values, and ``b`` carries the values on the constrained rows.
    Returns new ``(A, b)``; the inputs are left untouched.
    """
    b = np.asarray(b, dtype=float)
    if not boundary_values:
        return A.copy(), b.copy()
    idx = np.fromiter(boundary_values.keys(), dtype=int)
    vals = np.fromiter(boundary_values.values(), dtype=float)
    n = A.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError("constrained dof out of range")

    g = np.zeros(n)
    g[idx] = vals
    b_new = b - A @ g
    keep = np.ones(n)
    keep[idx] = 0.0
    pin = np.zeros(n)
    pin[idx] = 1.0
    A_new = sp.csr_matrix(A, copy=True)
    rows = np.repeat(np.arange(n), np.diff(A_new.indptr))
    A_new.data *= keep[rows] * keep[A_new.indices]
    A_new = (A_new + sp.diags(pin)).tocsr()
    b_new *= keep
    b_new[idx] = vals
    return A_new, b_new


def _close_constraints(rows, inhom=None):
    """Resolve slave-of-slave chains so every master is unconstrained.

    ``rows`` maps slave dof -> sequence of (master, weight).  Returns the
    closed rows plus inhomogeneities.  Cycles raise
    :class:`ConstraintCycleError`.
    """
    inhom = dict(inhom or {})
    closed = {}

    def resolve(s, stack):
        if s in closed:
            return closed[s]
        if s in stack:
            raise ConstraintCycleError(f"cyclic constraint through dof {s}")
        stack = stack | {s}
        out = {}
        c = inhom.get(s, 0.0)
        for m, w in rows[s]:
            if m in rows:
                sub, sub_c = resolve(m, stack)
                for mm, ww in sub.items():
                    out[mm] = out.get(mm, 0.0) + w * ww
                c += w * sub_c
            else:
                out[m] = out.get(m, 0.0) + w
        closed[s] = (out, c)
        return closed[s]

    for s in rows:
        resolve(s, frozenset())
    closed_rows = {s: tuple(sorted(v[0].items())) for s, v in closed.items()}
    closed_inhom = {s: v[1] for s, v in closed.items()}
    return closed_rows, closed_inhom


class ConstraintSet:
    """Closed linear multi-point constraints: slave dof = weighted master combination.

    ``rows`` maps slave dof -> sequence of (master, weight), ``inhom`` slave
    dof -> offset.  Slave-of-slave chains are resolved once, on
    construction, so every master is unconstrained; cycles raise
    :class:`ConstraintCycleError`.  A vector satisfies the constraints iff
    ``x = P x + c``, where the prolongation P is the identity on
    unconstrained dofs and carries the master weights on slave rows (zero
    slave diagonal).
    """

    def __init__(self, n_dofs, rows, inhom=None):
        self.n_dofs = n_dofs
        self.rows, self.inhom = _close_constraints(rows, inhom)
        self._prolong = None

    def __len__(self):
        return len(self.rows)

    def __contains__(self, dof):
        return dof in self.rows

    @property
    def slaves(self):
        return sorted(self.rows.keys())

    def weights(self, slave):
        return self.rows[slave]

    def _prolongation(self):
        """(P, c, slave index array), built on first use."""
        if self._prolong is None:
            n = self.n_dofs
            slaves = np.array(self.slaves, dtype=int)
            keep = np.ones(n)
            keep[slaves] = 0.0
            data, ri, ci = [], [], []
            for s, masters in self.rows.items():
                for m, w in masters:
                    ri.append(s)
                    ci.append(m)
                    data.append(w)
            P = (sp.diags(keep) + sp.coo_matrix((data, (ri, ci)), shape=(n, n))).tocsr()
            c = np.zeros(n)
            for s, val in self.inhom.items():
                c[s] = val
            self._prolong = (P, c, slaves)
        return self._prolong

    def condense_matrix(self, A):
        """P^T A P; slave rows/columns end up empty (pin before solving)."""
        if not self.rows:
            return A
        P, _, _ = self._prolongation()
        return (P.T @ A @ P).tocsr()

    def condense_vector(self, b):
        if not self.rows:
            return b
        P, _, _ = self._prolongation()
        return P.T @ b

    def pin(self, A):
        """Add unit diagonals on slave rows so condensed systems are definite."""
        if not self.rows:
            return A
        _, _, slaves = self._prolongation()
        pin = np.zeros(self.n_dofs)
        pin[slaves] = 1.0
        return (A + sp.diags(pin)).tocsr()

    def distribute(self, x):
        """Overwrite slave entries with their constraint values."""
        if not self.rows:
            return np.asarray(x, dtype=float).copy()
        P, c, _ = self._prolongation()
        return P @ np.asarray(x, dtype=float) + c


def condense_hanging(A, b, rows, inhom=None):
    """Condense linear multi-point constraints into the system symmetrically.

    Slave contributions are distributed onto their masters with the
    constraint weights and the slave rows are replaced by decoupled unit
    equations.  Solving the returned system and then applying
    :func:`distribute_constraints` to the solution makes every slave equal
    its weighted master combination exactly.
    """
    b = np.asarray(b, dtype=float)
    if not rows:
        return A.copy(), b.copy()
    cs = ConstraintSet(A.shape[0], rows, inhom)
    _, c, _ = cs._prolongation()
    return cs.pin(cs.condense_matrix(A)), cs.condense_vector(b - A @ c)


def distribute_constraints(x, rows, inhom=None):
    """Overwrite slave entries with their weighted master combinations."""
    x = np.asarray(x, dtype=float)
    return ConstraintSet(x.shape[0], rows, inhom).distribute(x)
