"""Sparse linear algebra kernels for the per-slab systems.

CSR storage is provided by scipy (``csr_matrix.indptr/.indices/.data`` are
the row offsets, sorted column indices and values); the conjugate-gradient
solver, the symmetric Dirichlet elimination and the hanging-node
condensation are implemented here so that their exact behaviour is under
our control.  All systems handled here are symmetric positive definite on
the unconstrained subspace; coefficients are 64-bit floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    max_iterations: int = 5000
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
    residual target is not met within ``ctrl.max_iterations``, or at once
    when ``||b||`` or a residual is not finite.

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
    if not (math.isfinite(b_norm) and math.isfinite(res)):
        raise SolverError("CG got a non-finite right-hand side or initial residual "
                          f"(|b| {b_norm:.3e}, residual {res:.3e})", iterations=0, residual=res)
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
        if not math.isfinite(res):
            raise SolverError(f"CG residual is not finite at iteration {k}",
                              iterations=k, residual=res)
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
    Returns new ``(A, b)``; the inputs are left untouched.  A caller that
    keeps the matrix for several right-hand sides calls the two halves.
    """
    dofs = np.fromiter(boundary_values.keys(), dtype=int, count=len(boundary_values))
    values = np.fromiter(boundary_values.values(), dtype=float, count=len(boundary_values))
    return eliminate_dirichlet(A, dofs), lift_dirichlet(A, b, dofs, values)


def eliminate_dirichlet(A, dofs):
    """Copy of ``A`` with the rows and columns of ``dofs`` zeroed but for a unit diagonal."""
    n = A.shape[0]
    if dofs.size and (dofs.min() < 0 or dofs.max() >= n):
        raise ValueError("constrained dof out of range")
    keep = np.ones(n)
    keep[dofs] = 0.0
    A_new = sp.csr_matrix(A, copy=True)
    rows = np.repeat(np.arange(n), np.diff(A_new.indptr))
    A_new.data *= keep[rows] * keep[A_new.indices]
    return (A_new + sp.diags(1.0 - keep)).tocsr()


def lift_dirichlet(A, b, dofs, values):
    """``b - A g`` off ``dofs`` and ``values`` on them, for g = ``values`` on ``dofs``.

    ``A`` is the matrix before :func:`eliminate_dirichlet`.
    """
    b = np.asarray(b, dtype=float)
    g = np.zeros(b.shape[0])
    g[dofs] = values
    b_new = b - A @ g
    b_new[dofs] = values
    return b_new


def _closure(n, owner, masters, weights, offsets):
    """Prolongation P, offsets c and sorted slave array of the closed constraints.

    Q = diag(free) + W substitutes each slave by its raw row W, the entries
    (``owner``, ``masters``, ``weights``), so P = Q^k and c = sum_{j<k} Q^j g
    once Q^k has no slave column left, g being the slaves' ``offsets``.  A
    cycle among the slaves raises :class:`ConstraintCycleError` first.
    """
    slaves = np.unique(owner)
    is_slave = np.zeros(n, dtype=bool)
    is_slave[slaves] = True
    # peel off the slaves whose masters are all settled; one that never settles reaches a cycle
    pending = is_slave.copy()
    while pending.any():
        blocked = np.zeros(n, dtype=bool)
        blocked[owner[pending[masters]]] = True
        if not (pending & ~blocked).any():
            raise ConstraintCycleError(f"cyclic constraint through dof {pending.argmax()}")
        pending &= blocked
    W = sp.csr_matrix((weights, (owner, masters)), shape=(n, n))
    Q = (sp.diags((~is_slave).astype(float)) + W).tocsr()
    g = np.zeros(n)
    if offsets is not None:
        g[slaves] = offsets[slaves]
    P, c = Q, g
    while is_slave[P.indices].any():
        P, c = P @ Q, Q @ c + g
    P.sort_indices()
    return P, c, slaves


class ConstraintSet:
    """Closed linear multi-point constraints: slave dof = weighted master combination.

    The raw rows are given as entry arrays: slave ``slaves[k]`` takes
    ``weights[k]`` times master ``masters[k]``; ``offsets`` (n_dofs,), if
    given, adds ``offsets[s]`` to slave ``s`` and is ignored off the slaves.
    Slave-of-slave chains are resolved once, on construction, so every
    master is unconstrained; cycles raise :class:`ConstraintCycleError`.  A
    vector satisfies the constraints iff ``x = P x + c``, where the
    prolongation P is the identity on unconstrained dofs and carries the
    master weights on slave rows (zero slave diagonal).
    """

    def __init__(self, n_dofs, slaves, masters, weights, offsets=None):
        self.n_dofs = n_dofs
        self._P, self._c, self._slaves = _closure(n_dofs, slaves, masters, weights, offsets)

    def __len__(self):
        return len(self._slaves)

    def __contains__(self, dof):
        k = np.searchsorted(self._slaves, dof)
        return bool(k < len(self._slaves) and self._slaves[k] == dof)

    @property
    def slaves(self):
        return self._slaves.tolist()

    def weights(self, slave):
        """The closed row of ``slave``: (master, weight) pairs by ascending master."""
        if slave not in self:
            raise KeyError(slave)
        lo, hi = self._P.indptr[slave], self._P.indptr[slave + 1]
        return tuple(zip(self._P.indices[lo:hi].tolist(), self._P.data[lo:hi].tolist()))

    def condense_matrix(self, A):
        """P^T A P; slave rows/columns end up empty (pin before solving)."""
        if not len(self):
            return A
        return (self._P.T @ A @ self._P).tocsr()

    def condense_vector(self, b):
        if not len(self):
            return b
        return self._P.T @ b

    def pin(self, A):
        """Add unit diagonals on slave rows so condensed systems are definite."""
        if not len(self):
            return A
        pin = np.zeros(self.n_dofs)
        pin[self._slaves] = 1.0
        return (A + sp.diags(pin)).tocsr()

    def distribute(self, x):
        """Overwrite slave entries with their constraint values."""
        if not len(self):
            return np.asarray(x, dtype=float).copy()
        return self._P @ np.asarray(x, dtype=float) + self._c


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
    cs = _constraints_of_rows(A.shape[0], rows, inhom)
    return cs.pin(cs.condense_matrix(A)), cs.condense_vector(b - A @ cs._c)


def distribute_constraints(x, rows, inhom=None):
    """Overwrite slave entries with their weighted master combinations."""
    x = np.asarray(x, dtype=float)
    return _constraints_of_rows(x.shape[0], rows, inhom).distribute(x)


def _constraints_of_rows(n, rows, inhom):
    """:class:`ConstraintSet` of ``rows`` slave -> (master, weight) pairs and ``inhom``."""
    if not all(len(row) for row in rows.values()):
        raise ValueError("every constraint row needs at least one master")
    entries = np.array([(s, m, w) for s, row in rows.items() for m, w in row]).reshape(-1, 3)
    offsets = np.zeros(n)
    offsets[list(inhom or ())] = list((inhom or {}).values())
    return ConstraintSet(n, *entries[:, :2].T.astype(int), entries[:, 2], offsets)
