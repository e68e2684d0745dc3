"""Sparse linear algebra kernels for the per-slab systems.

CSR storage is provided by scipy (``csr_matrix.indptr/.indices/.data`` are
the row offsets, sorted column indices and values); the conjugate-gradient
solver, the symmetric Dirichlet elimination and the hanging-node
condensation are implemented here so that their exact behaviour is under
our control.  All systems handled here are symmetric positive definite on
the unconstrained subspace; coefficients are 64-bit floats.

Constraints are closed on entry arrays into one prolongation P, held as
raw CSR arrays (row offsets, sorted column indices, values); its rows
:meth:`ConstraintSet.expand` hands to the assembler to condense while it
scatters.  A scipy matrix of P is built only by ``condense_matrix``, which
with ``pin`` and :func:`eliminate_dirichlet` serves the public helpers, not
the solve path.

:func:`cg_solve` takes CSR input only and allocates no work vector per
iteration: its products call ``scipy.sparse._sparsetools.csr_matvec``
directly, writing into one preallocated vector.  That private routine is
the kernel ``A @ v`` ends in for a CSR matrix, and ``csc_matvec`` the one
``P.T @ b`` ends in; :meth:`ConstraintSet.distribute` and
:meth:`ConstraintSet.condense_vector` call the two on P's arrays.  The
results are the ones the operators would give; tests pin them bitwise, and
a scipy that drops either routine fails at package import, not inside a
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec as _csc_matvec, csr_matvec as _csr_matvec


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


def concat_ranges(starts, counts):
    """The index ranges ``starts[k] + arange(counts[k])``, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())


def spmv(A, x):
    """Matrix-vector product ``y = A x`` with a dimension check."""
    x = np.asarray(x, dtype=float)
    if A.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} @ {x.shape}")
    return A @ x


def cg_solve(A, b, ctrl=SolverControl(), x0=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems in CSR format.

    Returns ``(x, iterations)``.  Raises :class:`SolverError` if the
    residual target is not met within ``ctrl.max_iterations``, or at once
    when ``||b||`` or a residual is not finite.  ``A`` must be a scipy CSR
    matrix (any other format raises ``TypeError``; CSC would apply A^T);
    ``b`` and ``x0`` are checked against its shape before the first
    product and never written to.

    Each product is the raw CSR kernel into one preallocated vector, and
    x, r, z and p are updated in place, so an iteration allocates no work
    vector; non-float64 data is converted once per solve.  The operations
    and their order are those of the same loop on ``A @ p`` with fresh
    vectors, so every iterate is bit-identical to that loop's.

    Rows that are fully decoupled (unit diagonal, zero off-diagonals, as
    produced by :func:`eliminate_dirichlet`) are reproduced bit-exactly when
    ``x0`` already carries their values: their residual starts at zero and
    every CG update leaves them untouched.
    """
    if not (sp.issparse(A) and A.format == "csr"):
        got = A.format if sp.issparse(A) else type(A).__name__
        raise TypeError(f"cg_solve needs a CSR matrix, got {got}")
    b = np.asarray(b, dtype=float)
    n = b.shape[0] if b.ndim == 1 else -1
    if A.shape != (n, n):
        raise ValueError(f"system shape mismatch: {A.shape} vs rhs {b.shape}")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"initial guess shape {x.shape} does not match rhs {b.shape}")
    data = A.data.astype(float, copy=False)

    def matvec(v, out):
        out.fill(0.0)  # the kernel accumulates: out += A v
        _csr_matvec(n, n, A.indptr, A.indices, data, v, out)

    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    inv_diag = 1.0 / diag

    b_norm = math.sqrt(b.dot(b))
    target = max(ctrl.relative_tolerance * b_norm, ctrl.absolute_tolerance)

    Ap, w = np.empty(n), np.empty(n)
    matvec(x, Ap)
    r = b - Ap
    res = math.sqrt(r.dot(r))
    if not (math.isfinite(b_norm) and math.isfinite(res)):
        raise SolverError("CG got a non-finite right-hand side or initial residual "
                          f"(|b| {b_norm:.3e}, residual {res:.3e})", iterations=0, residual=res)
    if res <= target:
        return x, 0
    z = inv_diag * r
    p = z.copy()
    rz = r.dot(z)
    for k in range(1, ctrl.max_iterations + 1):
        matvec(p, Ap)
        alpha = rz / p.dot(Ap)
        x += np.multiply(alpha, p, out=w)
        r -= np.multiply(alpha, Ap, out=w)
        res = math.sqrt(r.dot(r))
        if res <= target:
            return x, k
        if not math.isfinite(res):
            raise SolverError(f"CG residual is not finite at iteration {k}",
                              iterations=k, residual=res)
        np.multiply(inv_diag, r, out=z)
        rz_new = r.dot(z)
        p *= rz_new / rz
        p += z
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


def eliminate_on_pattern(A, dofs):
    """:func:`eliminate_dirichlet` on the pattern of a CSR ``A`` that stores its whole diagonal.

    The result shares A's index arrays; explicit zeros stay.
    """
    n = A.shape[0]
    keep = np.ones(n)
    keep[dofs] = 0.0
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    data = A.data * (keep[rows] * keep[A.indices])
    diagonal = rows == A.indices
    data[diagonal] += 1.0 - keep[rows[diagonal]]
    return sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)


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
    """CSR arrays ``(indptr, indices, data)`` of P, offsets c and sorted slaves of the closure.

    Each entry (``owner``, ``masters``, ``weights``) whose master is a slave
    is replaced by that master's raw row, weights multiplied, until no master
    is a slave: P = Q^k for Q = diag(free) + W, and every round adds its
    replaced entries' share to c = sum_{j<k} Q^j g, g being the slaves'
    ``offsets``.  A cycle among the slaves raises
    :class:`ConstraintCycleError` first.

    The closed entries are sorted stably by (row, column), duplicates summed
    left to right and zeros dropped: scipy's COO to CSR conversion sums in
    that order on rows of at most 16 entries.
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
    order = np.argsort(owner, kind="stable")
    raw_count = np.bincount(owner, minlength=n)
    raw_start = np.cumsum(raw_count) - raw_count
    raw_masters, raw_weights = masters[order], weights[order]
    g = np.zeros(n)
    if offsets is not None:
        g[slaves] = offsets[slaves]
    c = g.copy()
    while (chained := is_slave[masters]).any():
        via, scale = masters[chained], weights[chained]
        count = raw_count[via]
        c += np.bincount(owner[chained], scale * g[via], minlength=n)
        at = concat_ranges(raw_start[via], count)
        owner = np.concatenate([owner[~chained], np.repeat(owner[chained], count)])
        masters = np.concatenate([masters[~chained], raw_masters[at]])
        weights = np.concatenate([weights[~chained], np.repeat(scale, count) * raw_weights[at]])
    free = np.flatnonzero(~is_slave)
    rows, cols = np.concatenate([owner, free]), np.concatenate([masters, free])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    sums = np.bincount(np.cumsum(first) - 1, np.concatenate([weights, np.ones(free.size)])[order])
    kept = sums != 0.0
    rows = rows[first][kept]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return (indptr, cols[first][kept], sums[kept]), c, slaves


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

    P is held as the CSR arrays ``_indptr``, ``_indices`` and ``_data``;
    ``P x`` and ``P^T b`` are the raw CSR and CSC kernels on them, and only
    :meth:`condense_matrix` builds a scipy matrix of P.
    """

    def __init__(self, n_dofs, slaves, masters, weights, offsets=None):
        self.n_dofs = n_dofs
        P, self._c, self._slaves = _closure(n_dofs, slaves, masters, weights, offsets)
        self._indptr, self._indices, self._data = P
        self._slaves.flags.writeable = False

    def __len__(self):
        return len(self._slaves)

    def __contains__(self, dof):
        k = np.searchsorted(self._slaves, dof)
        return bool(k < len(self._slaves) and self._slaves[k] == dof)

    @property
    def slaves(self):
        """The sorted slave dofs, a read-only array."""
        return self._slaves

    def weights(self, slave):
        """The closed row of ``slave``: (master, weight) pairs by ascending master."""
        if slave not in self:
            raise KeyError(slave)
        lo, hi = self._indptr[slave], self._indptr[slave + 1]
        return tuple(zip(self._indices[lo:hi].tolist(), self._data[lo:hi].tolist()))

    def expand(self, dofs):
        """Closed rows of ``dofs`` as entries (position in ``dofs``, master, weight).

        A dof that is no slave is its own master with weight 1.
        """
        indptr = self._indptr
        count = indptr[dofs + 1] - indptr[dofs]
        at = concat_ranges(indptr[dofs], count)
        return np.repeat(np.arange(len(dofs)), count), self._indices[at], self._data[at]

    def condense_matrix(self, A):
        """P^T A P; slave rows/columns end up empty (give them unit rows before solving)."""
        if not len(self):
            return A
        P = sp.csr_matrix((self._data, self._indices, self._indptr), shape=(self.n_dofs,) * 2)
        return (P.T @ A @ P).tocsr()

    def _product(self, kernel, v):
        """P v through ``_csr_matvec`` or P^T v through ``_csc_matvec``, on P's arrays."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_dofs,):  # the raw kernels do no bounds checks
            raise ValueError(f"vector shape {v.shape} does not match {self.n_dofs} dofs")
        out = np.zeros(self.n_dofs)
        kernel(self.n_dofs, self.n_dofs, self._indptr, self._indices, self._data, v, out)
        return out

    def condense_vector(self, b):
        """P^T b."""
        if not len(self):
            return b
        return self._product(_csc_matvec, b)

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
        return self._product(_csr_matvec, x) + self._c


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
