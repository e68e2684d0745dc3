"""Sparse linear algebra kernels for the per-slab systems.

A matrix on the solve path is a :class:`Csr` value: the raw CSR arrays
(row offsets, sorted column indices, float64 values) and the shape, with no
scipy matrix object around them.  :func:`coo_to_csr`, the one builder of
CSR arrays from entries, takes ``(row, col, value)`` triplets to scipy's
own compiled routines in ``scipy.sparse._sparsetools``, in the order and
under the checks scipy's constructor uses, so its arrays and their dtypes
are bitwise those of ``csr_matrix((v, (r, c)), shape)``.  All systems
handled here are symmetric positive definite on the unconstrained subspace.

The conjugate-gradient solver, the symmetric Dirichlet elimination and the
hanging-node condensation are implemented here so that their exact behaviour
is under our control.  Constraints are closed on entry arrays into one
prolongation P, held as a :class:`Csr`.  Condensing replaces an entry's row
and column by their closed rows of P (:meth:`ConstraintSet.expand`) and pairs
the terms (:func:`pair_groups`), in the assembler while it scatters.  The
public helpers take and return scipy matrices but run on the same primitives:
``scipy.sparse`` serves only :func:`to_scipy`, which wraps their results, and
:func:`cg_solve`'s format check.

Products call the raw kernels: ``csr_matvec``, the one ``A @ v`` ends in
for a CSR matrix, in :func:`cg_solve`, :func:`spmv` and
:meth:`ConstraintSet.distribute`; ``csc_matvec``, the one ``P.T @ b`` ends
in, in :meth:`ConstraintSet.condense_vector`; and ``csr_diagonal``, the one
``A.diagonal()`` ends in, for the CG preconditioner.  The results are the
ones the operators would give; tests pin them bitwise, and a scipy that
drops any of these routines fails at package import, not inside a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import (
    coo_tocsr as _coo_tocsr,
    csc_matvec as _csc_matvec,
    csr_diagonal as _csr_diagonal,
    csr_eliminate_zeros as _csr_eliminate_zeros,
    csr_has_canonical_format as _csr_has_canonical_format,
    csr_has_sorted_indices as _csr_has_sorted_indices,
    csr_matvec as _csr_matvec,
    csr_sort_indices as _csr_sort_indices,
    csr_sum_duplicates as _csr_sum_duplicates,
)

from .mesh import check_integers

_INT32_MAX = np.iinfo(np.int32).max


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
        check_integers(self, "max_iterations")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("relative_tolerance", "absolute_tolerance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"SolverControl.{name} must be finite, got {value!r}")
        if self.relative_tolerance <= 0.0 or self.absolute_tolerance <= 0.0:
            raise ValueError("tolerances must be > 0")


class Csr(NamedTuple):
    """A CSR matrix as raw arrays: row offsets, sorted column indices, values, and its shape.

    The field names are a scipy CSR matrix's attribute names, so code that
    reads only these four takes either.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple


def coo_to_csr(rows, cols, vals, shape):
    """:class:`Csr` of ``(row, col, value)`` triplets; duplicates summed, explicit zeros kept.

    The arrays and their dtypes are bitwise those of scipy's
    ``csr_matrix((vals, (rows, cols)), shape)``: indices are int32 while the
    shape and the entry count fit, then scipy's ``coo_tocsr`` runs and,
    unless its result is canonical, ``csr_sort_indices`` (unless sorted)
    and ``csr_sum_duplicates``.  Values are float64.  Out-of-range indices
    raise ``ValueError``, as the raw kernels check no bounds.
    """
    n_rows, n_cols = shape
    rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=float)
    nnz = len(vals)
    if nnz:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError("column index out of range")
    index = np.int32 if max(n_rows, n_cols, nnz) <= _INT32_MAX else np.int64
    indptr, indices, data = np.empty(n_rows + 1, index), np.empty(nnz, index), np.empty(nnz)
    _coo_tocsr(n_rows, n_cols, nnz, rows.astype(index, copy=False),
               cols.astype(index, copy=False), vals, indptr, indices, data)
    if not _csr_has_canonical_format(n_rows, indptr, indices):
        if not _csr_has_sorted_indices(n_rows, indptr, indices):
            _csr_sort_indices(n_rows, indptr, indices, data)
        _csr_sum_duplicates(n_rows, n_cols, indptr, indices, data)
        indices, data = indices[:indptr[-1]].copy(), data[:indptr[-1]].copy()
    return Csr(indptr, indices, data, (n_rows, n_cols))


def to_scipy(A):
    """The scipy CSR matrix of a :class:`Csr`, on its arrays where their dtypes allow."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def csr_from_triplets(n_rows, n_cols, triplets):
    """Build a scipy CSR matrix from ``(row, col, value)`` triplets.

    Duplicate entries are summed; column indices are sorted within each
    row.  Out-of-range indices raise ``ValueError``.
    """
    if triplets:
        rows, cols, vals = map(np.asarray, zip(*triplets))
    else:
        rows = cols = np.empty(0, dtype=int)
        vals = np.empty(0)
    return to_scipy(coo_to_csr(rows, cols, vals, (n_rows, n_cols)))


def concat_ranges(starts, counts):
    """The index ranges ``starts[k] + arange(counts[k])``, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())


def pair_groups(left, right, n_groups):
    """Index pairs ``(i, j)`` with ``left[i] == right[j]``, by ascending i, then j.

    ``left`` and ``right`` are group labels in ``[0, n_groups)``; ``right`` is sorted.
    """
    per_group = np.bincount(right, minlength=n_groups)
    count = per_group[left]
    start = np.cumsum(per_group) - per_group
    return np.repeat(np.arange(len(left)), count), concat_ranges(start[left], count)


def spmv(A, x):
    """Matrix-vector product ``y = A x`` with a dimension check.

    A :class:`Csr` runs the raw kernel into a zero vector, which is what
    ``A @ x`` does for a scipy CSR matrix; any scipy matrix runs ``A @ x``.
    """
    x = np.asarray(x, dtype=float)
    if A.shape[1] != x.shape[0] or (isinstance(A, Csr) and x.ndim != 1):
        raise ValueError(f"dimension mismatch: {A.shape} @ {x.shape}")
    if not isinstance(A, Csr):
        return A @ x
    out = np.zeros(A.shape[0])
    _csr_matvec(*A.shape, A.indptr, A.indices, A.data, x, out)
    return out


def cg_solve(A, b, ctrl=SolverControl(), x0=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems in CSR format.

    Returns ``(x, iterations)``.  Raises :class:`SolverError` if the
    residual target is not met within ``ctrl.max_iterations``, or at once
    when ``||b||`` or a residual is not finite.  ``A`` must be a :class:`Csr`
    or a scipy CSR matrix (any other format raises ``TypeError``; CSC would
    apply A^T); ``b`` and ``x0`` are checked against its shape before the
    first product and never written to.

    Each product is the raw CSR kernel into one preallocated vector, and
    x, r, z and p are updated in place, so an iteration allocates no work
    vector; non-float64 data is converted once per solve.  The operations
    and their order are those of the same loop on ``A @ p`` with fresh
    vectors, so every iterate is bit-identical to that loop's.

    Rows that are fully decoupled (unit diagonal, zero off-diagonals, as
    produced by :func:`eliminate_on_pattern`) are reproduced bit-exactly when
    ``x0`` already carries their values: their residual starts at zero and
    every CG update leaves them untouched.
    """
    if not (isinstance(A, Csr) or sp.issparse(A) and A.format == "csr"):
        got = A.format if sp.issparse(A) else type(A).__name__
        raise TypeError(f"cg_solve needs a CSR matrix, got {got}")
    b = np.asarray(b, dtype=float)
    n = b.shape[0] if b.ndim == 1 else -1
    if A.shape != (n, n):
        raise ValueError(f"system shape mismatch: {A.shape} vs rhs {b.shape}")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"initial guess shape {x.shape} does not match rhs {b.shape}")
    indptr, indices, data = A.indptr, A.indices, A.data.astype(float, copy=False)

    def matvec(v, out):
        out.fill(0.0)  # the kernel accumulates: out += A v
        _csr_matvec(n, n, indptr, indices, data, v, out)

    diag = np.empty(n)
    _csr_diagonal(0, n, n, indptr, indices, data, diag)
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
    ``A`` is any scipy matrix; returns a new scipy CSR matrix (explicit zeros
    kept) and a new ``b``, from the halves a caller that keeps the matrix
    calls: :func:`eliminate_on_pattern` and :func:`lift_dirichlet`.
    """
    dofs = np.fromiter(boundary_values.keys(), dtype=int, count=len(boundary_values))
    values = np.fromiter(boundary_values.values(), dtype=float, count=len(boundary_values))
    n = A.shape[0]
    if dofs.size and (dofs.min() < 0 or dofs.max() >= n):
        raise ValueError("constrained dof out of range")
    A = A.tocoo()
    diagonal = np.arange(n)
    K = coo_to_csr(np.concatenate([A.row, diagonal]), np.concatenate([A.col, diagonal]),
                   np.concatenate([A.data, np.zeros(n)]), A.shape)
    return to_scipy(eliminate_on_pattern(K, dofs)), lift_dirichlet(K, b, dofs, values)


def eliminate_on_pattern(A, dofs):
    """Copy of a CSR ``A`` with the rows and columns of ``dofs`` zeroed but for a unit diagonal.

    ``A`` stores its whole diagonal and is a :class:`Csr` or a scipy CSR
    matrix; the result is a :class:`Csr` on A's index arrays, explicit zeros kept.
    """
    n = A.shape[0]
    keep = np.ones(n)
    keep[dofs] = 0.0
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    data = A.data * (keep[rows] * keep[A.indices])
    diagonal = rows == A.indices
    data[diagonal] += 1.0 - keep[rows[diagonal]]
    return Csr(A.indptr, A.indices, data, A.shape)


def lift_dirichlet(A, b, dofs, values):
    """``b - A g`` off ``dofs`` and ``values`` on them, for g = ``values`` on ``dofs``.

    ``A`` is the matrix before :func:`eliminate_on_pattern`, a :class:`Csr` or any scipy matrix.
    """
    b = np.asarray(b, dtype=float)
    g = np.zeros(b.shape[0])
    g[dofs] = values
    b_new = b - spmv(A, g)
    b_new[dofs] = values
    return b_new


def _closure(n, owner, masters, weights, offsets):
    """The :class:`Csr` P, offsets c and sorted slaves of the closure.

    Each entry (``owner``, ``masters``, ``weights``) whose master is a slave
    is replaced by that master's raw row, weights multiplied, until no master
    is a slave: P = Q^k for Q = diag(free) + W, and every round adds its
    replaced entries' share to c = sum_{j<k} Q^j g, g being the slaves'
    ``offsets``.  A cycle among the slaves raises
    :class:`ConstraintCycleError` first.  The closed entries go through
    :func:`coo_to_csr`, and zero sums are dropped.
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
    P = coo_to_csr(np.concatenate([owner, free]), np.concatenate([masters, free]),
                   np.concatenate([weights, np.ones(free.size)]), (n, n))
    _csr_eliminate_zeros(n, n, P.indptr, P.indices, P.data)
    return P._replace(indices=P.indices[:P.indptr[-1]], data=P.data[:P.indptr[-1]]), c, slaves


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

    P is held as the :class:`Csr` ``_P``; ``P x`` and ``P^T b`` are the raw
    CSR and CSC kernels on its arrays.  A slave or master outside
    ``[0, n_dofs)`` raises ``ValueError``, as those kernels check no bounds.
    """

    def __init__(self, n_dofs, slaves, masters, weights, offsets=None):
        bad = (slaves < 0) | (slaves >= n_dofs) | (masters < 0) | (masters >= n_dofs)
        if bad.any():
            k = bad.argmax()
            raise ValueError(f"constraint entry {k} (slave {slaves[k]}, master {masters[k]}) "
                             f"has a dof outside [0, {n_dofs})")
        self._set(*_closure(n_dofs, slaves, masters, weights, offsets))

    def _set(self, P, c, slaves):
        self.n_dofs = P.shape[0]
        self._P, self._c, self._slaves = P, c, slaves
        self._slaves.flags.writeable = False

    def blocks(self, bounds):
        """The sets of the diagonal blocks ``[bounds[k], bounds[k + 1])`` of a block-diagonal set.

        Closing a block-diagonal set closes each block on its own, and P's
        rows keep their entries, so every array of block k is bitwise that
        of the set built from block k's entries alone, dofs shifted by
        ``-bounds[k]``.  The blocks own their arrays; one block is the set itself.
        """
        if len(bounds) == 2:
            return [self]
        P, out = self._P, []
        bounds = [int(b) for b in bounds]  # Python ints keep P's int32 index dtype
        cuts = P.indptr[bounds].tolist()
        slave_cuts = np.searchsorted(self._slaves, bounds).tolist()
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            a, b = cuts[k], cuts[k + 1]
            block = Csr(P.indptr[lo:hi + 1] - a, P.indices[a:b] - lo, P.data[a:b].copy(),
                        (hi - lo, hi - lo))
            slaves = self._slaves[slave_cuts[k]:slave_cuts[k + 1]] - lo
            cs = object.__new__(ConstraintSet)
            cs._set(block, self._c[lo:hi].copy(), slaves)
            out.append(cs)
        return out

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
        P = self._P
        lo, hi = P.indptr[slave], P.indptr[slave + 1]
        return tuple(zip(P.indices[lo:hi].tolist(), P.data[lo:hi].tolist()))

    def expand(self, dofs):
        """Closed rows of ``dofs`` as entries (position in ``dofs``, master, weight).

        A dof that is no slave is its own master with weight 1.
        """
        P = self._P
        count = P.indptr[dofs + 1] - P.indptr[dofs]
        at = concat_ranges(P.indptr[dofs], count)
        return np.repeat(np.arange(len(dofs)), count), P.indices[at], P.data[at]

    def _product(self, kernel, v):
        """P v through ``_csr_matvec`` or P^T v through ``_csc_matvec``, on P's arrays.

        P is square, so its CSR arrays are the CSC arrays of P^T.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_dofs,):  # the raw kernels do no bounds checks
            raise ValueError(f"vector shape {v.shape} does not match {self.n_dofs} dofs")
        out = np.zeros(self.n_dofs)
        P = self._P
        kernel(*P.shape, P.indptr, P.indices, P.data, v, out)
        return out

    def condense_vector(self, b):
        """P^T b."""
        if not len(self):
            return b
        return self._product(_csc_matvec, b)

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
    its weighted master combination exactly.  ``A`` is any scipy matrix;
    the matrix returned is P^T A P with unit slave rows, a new scipy CSR
    matrix with explicit zeros kept.
    """
    b = np.asarray(b, dtype=float)
    cs = _constraints_of_rows(A.shape[0], rows, inhom)
    A = A.tocoo()
    row_at, row_dofs, row_weights = cs.expand(A.row)
    col_at, col_dofs, col_weights = cs.expand(A.col)
    left, right = pair_groups(row_at, col_at, A.nnz)
    vals = A.data[row_at[left]] * (row_weights[left] * col_weights[right])
    K = coo_to_csr(np.concatenate([row_dofs[left], cs.slaves]),
                   np.concatenate([col_dofs[right], cs.slaves]),
                   np.concatenate([vals, np.ones(len(cs))]), A.shape)
    return to_scipy(K), cs.condense_vector(b - A @ cs._c)


def distribute_constraints(x, rows, inhom=None):
    """Overwrite slave entries with their weighted master combinations."""
    x = np.asarray(x, dtype=float)
    return _constraints_of_rows(x.shape[0], rows, inhom).distribute(x)


def _constraints_of_rows(n, rows, inhom):
    """:class:`ConstraintSet` of ``rows`` slave -> (master, weight) pairs and ``inhom``.

    Every dof must be an integer value, and every ``inhom`` key a dof in
    [0, n); a :class:`ValueError` names the row or the key that is not.
    """
    if not all(len(row) for row in rows.values()):
        raise ValueError("every constraint row needs at least one master")
    for s, row in rows.items():
        if not all(float(d).is_integer() for d in (s, *(m for m, _ in row))):
            raise ValueError(f"constraint row {s!r}: {list(row)!r} has a dof that is not "
                             "an integer")
    slaves = np.array([s for s, row in rows.items() for _ in row], dtype=np.int64)
    masters = np.array([m for row in rows.values() for m, _ in row], dtype=np.int64)
    weights = np.array([w for row in rows.values() for _, w in row], dtype=float)
    offsets = np.zeros(n)
    for key, value in (inhom or {}).items():
        if not (float(key).is_integer() and 0 <= key < n):
            raise ValueError(f"inhomogeneity key {key!r} is not a dof in [0, {n})")
        offsets[int(key)] = value
    return ConstraintSet(n, slaves, masters, weights, offsets)
