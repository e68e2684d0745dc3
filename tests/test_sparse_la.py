import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from dwr_diffusion.sparse_la import (
    SolverControl,
    SolverError,
    ConstraintCycleError,
    csr_from_triplets,
    spmv,
    cg_solve,
    apply_dirichlet,
    condense_hanging,
    distribute_constraints,
)

TIGHT = SolverControl(max_iterations=500, relative_tolerance=1e-13, absolute_tolerance=1e-16)


def tridiagonal(n):
    """The SPD 1D Laplacian stencil (-1, 2, -1)."""
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()


def spd_random(n, seed):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    return R.T @ R + n * np.eye(n)


class TestTriplets:
    def test_duplicates_are_summed(self):
        A = csr_from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 2.0)])
        assert A.shape == (1, 1)
        assert A[0, 0] == 3.0

    def test_empty_matrix(self):
        A = csr_from_triplets(2, 2, [])
        assert A.nnz == 0
        assert A.shape == (2, 2)

    def test_symmetric_pair(self):
        A = csr_from_triplets(2, 2, [(0, 1, 2.0), (1, 0, 2.0)])
        assert A[0, 1] == A[1, 0] == 2.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            csr_from_triplets(2, 2, [(2, 0, 1.0)])
        with pytest.raises(ValueError):
            csr_from_triplets(2, 2, [(0, -1, 1.0)])

    def test_pattern_is_canonical(self):
        A = csr_from_triplets(3, 3, [(2, 2, 1.0), (0, 2, 1.0), (0, 0, 1.0), (0, 1, 1.0)])
        assert np.all(np.diff(A.indptr) >= 0)
        for i in range(3):
            row = A.indices[A.indptr[i]:A.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)


class TestSpmv:
    def test_identity(self):
        I = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
        assert np.allclose(spmv(I, np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_hand_multiplication(self):
        A = csr_from_triplets(2, 2, [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])
        assert np.allclose(spmv(A, np.array([1.0, 0.0])), [4.0, 1.0])

    def test_zero_matrix(self):
        Z = csr_from_triplets(3, 3, [])
        assert np.all(spmv(Z, np.arange(3.0)) == 0.0)

    def test_dimension_mismatch(self):
        A = csr_from_triplets(2, 2, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            spmv(A, np.zeros(3))


class TestCg:
    def test_identity_one_iteration(self):
        I = csr_from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
        b = np.array([1.0, -2.0, 0.5, 3.0])
        x, iters = cg_solve(I, b, TIGHT)
        assert iters <= 1
        assert np.allclose(x, b, atol=1e-14)

    def test_two_by_two(self):
        A = csr_from_triplets(2, 2, [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])
        x, _ = cg_solve(A, np.array([1.0, 2.0]), TIGHT)
        assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-12)

    def test_manufactured_solution(self):
        n = 50
        A_dense = spd_random(n, seed=7)
        x_star = np.random.default_rng(8).standard_normal(n)
        A = csr_from_triplets(
            n, n, [(i, j, A_dense[i, j]) for i in range(n) for j in range(n)]
        )
        b = A @ x_star
        x, _ = cg_solve(A, b, SolverControl(2000, 1e-12, 1e-16))
        assert np.linalg.norm(x - x_star) < 1e-8

    def test_zero_rhs_returns_exact_zero(self):
        A = csr_from_triplets(3, 3, [(i, i, 2.0) for i in range(3)])
        x, iters = cg_solve(A, np.zeros(3), TIGHT)
        assert iters == 0
        assert np.all(x == 0.0)

    def test_nonconvergence_reports_residual(self):
        A_dense = spd_random(30, seed=3)
        A = csr_from_triplets(
            30, 30, [(i, j, A_dense[i, j]) for i in range(30) for j in range(30)]
        )
        b = np.ones(30)
        with pytest.raises(SolverError) as exc:
            cg_solve(A, b, SolverControl(max_iterations=1, relative_tolerance=1e-14,
                                         absolute_tolerance=1e-16))
        assert exc.value.residual > 0.0
        assert exc.value.iterations == 1

    @pytest.mark.parametrize("bad", ["rhs", "x0"])
    def test_non_finite_input_fails_before_the_first_iteration(self, bad):
        A = tridiagonal(2000)
        b, x0 = np.ones(2000), np.zeros(2000)
        if bad == "rhs":
            b[5] = np.nan
        else:
            x0[5] = np.inf
        with pytest.raises(SolverError) as exc:
            cg_solve(A, b, SolverControl(max_iterations=5000), x0=x0)
        assert exc.value.iterations == 0
        assert not np.isfinite(exc.value.residual)

    def test_non_finite_residual_fails_at_its_iteration(self):
        class NanAfter:
            """``A`` whose products turn NaN after the first ``good`` ones."""

            def __init__(self, A, good):
                self.A, self.shape, self.good = A, A.shape, good

            def diagonal(self):
                return self.A.diagonal()

            def __matmul__(self, v):
                self.good -= 1
                return self.A @ v if self.good >= 0 else np.full(len(v), np.nan)

        # one product for the initial residual, one per iteration
        with pytest.raises(SolverError) as exc:
            cg_solve(NanAfter(tridiagonal(50), good=3), np.ones(50), TIGHT)
        assert exc.value.iterations == 3
        assert "not finite at iteration 3" in str(exc.value)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**30))
    def test_small_spd_matches_dense_elimination(self, n, seed):
        A_dense = spd_random(n, seed=seed)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        A = csr_from_triplets(
            n, n, [(i, j, A_dense[i, j]) for i in range(n) for j in range(n)]
        )
        x, _ = cg_solve(A, b, SolverControl(200, 1e-14, 1e-16))
        assert np.linalg.norm(x - np.linalg.solve(A_dense, b)) < 1e-10

    def test_invalid_control_rejected(self):
        with pytest.raises(ValueError):
            SolverControl(max_iterations=0)
        with pytest.raises(ValueError):
            SolverControl(relative_tolerance=0.0)


class TestApplyDirichlet:
    def test_single_dof_system(self):
        A = csr_from_triplets(1, 1, [(0, 0, 5.0)])
        A2, b2 = apply_dirichlet(A, np.array([1.0]), {0: 7.5})
        x, _ = cg_solve(A2, b2, TIGHT, x0=b2)
        assert x[0] == 7.5

    def test_hand_elimination(self):
        A = csr_from_triplets(2, 2, [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])
        A2, b2 = apply_dirichlet(A, np.array([1.0, 2.0]), {0: 1.0})
        # remaining equation: 3 x1 = 2 - 1
        assert A2[1, 1] == 3.0 and A2[1, 0] == 0.0 and A2[0, 1] == 0.0
        assert b2[1] == 1.0 and b2[0] == 1.0

    def test_empty_constraints_unchanged(self):
        A = csr_from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 2.0)])
        b = np.array([1.0, 2.0])
        A2, b2 = apply_dirichlet(A, b, {})
        assert np.allclose(A2.toarray(), A.toarray())
        assert np.allclose(b2, b)

    def test_matrix_stays_symmetric(self):
        A_dense = spd_random(15, seed=11)
        A = csr_from_triplets(
            15, 15, [(i, j, A_dense[i, j]) for i in range(15) for j in range(15)]
        )
        A2, _ = apply_dirichlet(A, np.ones(15), {0: 1.0, 7: -2.0, 14: 0.5})
        diff = (A2 - A2.T).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_constrained_values_bit_exact_after_cg(self):
        A_dense = spd_random(12, seed=5)
        A = csr_from_triplets(
            12, 12, [(i, j, A_dense[i, j]) for i in range(12) for j in range(12)]
        )
        bc = {0: 1.25, 5: -3.5}
        A2, b2 = apply_dirichlet(A, np.ones(12), bc)
        x0 = np.zeros(12)
        for d, v in bc.items():
            x0[d] = v
        x, _ = cg_solve(A2, b2, TIGHT, x0=x0)
        assert x[0] == 1.25
        assert x[5] == -3.5


class TestCondenseHanging:
    def test_no_constraints_is_identity(self):
        A = csr_from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
        b = np.array([1.0, 2.0])
        A2, b2 = condense_hanging(A, b, {})
        assert np.allclose(A2.toarray(), A.toarray())
        assert np.allclose(b2, b)

    def test_midpoint_slave_on_identity(self):
        A = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
        rows = {2: [(0, 0.5), (1, 0.5)]}
        A2, b2 = condense_hanging(A, np.array([0.0, 0.0, 1.0]), rows)
        x, _ = cg_solve(A2, b2, TIGHT)
        x = distribute_constraints(x, rows)
        assert x[2] == 0.5 * (x[0] + x[1])

    def test_two_slaves_against_dense_oracle(self):
        n = 5
        A_dense = spd_random(n, seed=13)
        b = np.arange(1.0, n + 1.0)
        rows = {3: [(0, 0.5), (1, 0.5)], 4: [(1, 0.25), (2, 0.75)]}
        A = csr_from_triplets(
            n, n, [(i, j, A_dense[i, j]) for i in range(n) for j in range(n)]
        )
        A2, b2 = condense_hanging(A, b, rows)
        x = distribute_constraints(cg_solve(A2, b2, TIGHT)[0], rows)
        # dense elimination oracle: solve the reduced system in the masters
        T = np.zeros((n, 3))  # free dofs 0, 1, 2
        T[0, 0] = T[1, 1] = T[2, 2] = 1.0
        T[3, 0] = T[3, 1] = 0.5
        T[4, 1], T[4, 2] = 0.25, 0.75
        y = np.linalg.solve(T.T @ A_dense @ T, T.T @ b)
        assert np.allclose(x, T @ y, atol=1e-11)
        assert x[3] == 0.5 * (x[0] + x[1])
        assert x[4] == 0.25 * x[1] + 0.75 * x[2]

    def test_chained_slaves_are_closed(self):
        A = csr_from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
        rows = {1: [(0, 1.0)], 2: [(1, 0.5), (0, 0.5)]}
        A2, b2 = condense_hanging(A, np.ones(3), rows)
        x = distribute_constraints(cg_solve(A2, b2, TIGHT)[0], rows)
        assert x[1] == x[0]
        assert x[2] == x[0]

    def test_chained_offsets_are_closed(self):
        rows = {1: [(0, 1.0)], 2: [(1, 0.5), (0, 0.5)]}
        x = distribute_constraints(np.array([1.0, 0.0, 0.0]), rows, {1: 2.0, 2: 1.0})
        # x1 = x0 + 2, x2 = (x1 + x0) / 2 + 1
        np.testing.assert_array_equal(x, [1.0, 3.0, 3.0])

    def test_cycle_detected(self):
        A = csr_from_triplets(2, 2, [(i, i, 1.0) for i in range(2)])
        with pytest.raises(ConstraintCycleError):
            condense_hanging(A, np.zeros(2), {0: [(1, 1.0)], 1: [(0, 1.0)]})

    def test_row_without_masters_is_rejected(self):
        A = csr_from_triplets(2, 2, [(i, i, 1.0) for i in range(2)])
        with pytest.raises(ValueError, match="master"):
            condense_hanging(A, np.zeros(2), {1: []})

    def test_self_reference_detected(self):
        A = csr_from_triplets(2, 2, [(i, i, 1.0) for i in range(2)])
        with pytest.raises(ConstraintCycleError, match="dof 0"):
            condense_hanging(A, np.zeros(2), {0: [(0, 1.0)], 1: [(0, 0.5)]})
