import warnings

import numpy as np
import pytest
from reference import TangencyViolation, proj_dir_derivative, stratum_differential
from support import (
    haar_orthogonal,
    normal_project_pi2,
    packed_index,
    project_nsd,
    random_tangent,
    rotate_within_eigenspaces,
    stratum_dimension,
    stratum_matrix,
    tangent_basis,
    tangent_project_pi1,
)

from sgnsdp.errors import InertiaViolation, NumericalError
from sgnsdp.spectral import (
    eig_sym,
    frob,
    make_ied,
    nsd_part,
    pack_sym,
    packed_length,
    project_psd,
    psd_part,
    retract_fixed_inertia,
    sym,
    sym_to_vec,
    triu_pairs,
    unpack_sym,
    vec_to_sym,
)

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestPacking:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 8):
            a = sym(rng.standard_normal((n, n)))
            flat = pack_sym(a)
            assert flat.shape == (packed_length(n),)
            back = unpack_sym(flat, n)
            assert np.array_equal(back, back.T)
            assert np.array_equal(pack_sym(back), flat)

    def test_packed_index_layout(self):
        a = np.array([[10.0, 1.0, 2.0], [1.0, 20.0, 3.0], [2.0, 3.0, 30.0]])
        flat = pack_sym(a)
        for i in range(3):
            for j in range(i + 1):
                assert flat[packed_index(i, j)] == a[i, j]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            unpack_sym(np.zeros(5), 3)

    def test_vec_isometry(self):
        rng = np.random.default_rng(1)
        a = sym(rng.standard_normal((4, 4)))
        b = sym(rng.standard_normal((4, 4)))
        assert np.isclose(sym_to_vec(a) @ sym_to_vec(b), np.sum(a * b), atol=1e-13)
        assert np.allclose(vec_to_sym(sym_to_vec(a), 4), a, atol=1e-14)
        stack = np.stack([a, b])
        assert np.array_equal(vec_to_sym(sym_to_vec(stack), 4)[1], vec_to_sym(sym_to_vec(b), 4))


class TestEig:
    def test_diagonal(self):
        basis, lam = eig_sym(np.diag([3.0, 1.0]))
        assert np.allclose(lam, [3.0, 1.0])
        assert np.allclose(np.abs(basis), np.eye(2), atol=1e-14)

    def test_offdiagonal_2x2(self):
        basis, lam = eig_sym(OFFDIAG)
        assert np.allclose(lam, [1.0, -1.0], atol=1e-14)
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        for col in range(2):
            assert (
                np.allclose(basis[:, col], expected[:, col], atol=1e-12)
                or np.allclose(basis[:, col], -expected[:, col], atol=1e-12)
            )

    def test_zero_matrix(self):
        basis, lam = eig_sym(np.zeros((3, 3)))
        assert np.allclose(lam, 0.0)
        assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-13)

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = sym(rng.standard_normal((6, 6))) * rng.uniform(0.1, 50)
            basis, lam = eig_sym(a)
            err = frob(basis @ np.diag(lam) @ basis.T - a)
            assert err <= 1e-10 * max(1.0, frob(a))
            assert np.all(np.diff(lam) <= 1e-12)

    def test_nonfinite_rejected(self):
        bad = np.full((2, 2), np.nan)
        with pytest.raises(NumericalError) as err:
            eig_sym(bad)
        assert err.value.order == 2


class TestStacks:
    """sym, eig_sym and nsd_part act on the last two axes of a stack."""

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_stack_equals_per_matrix(self, k):
        rng = np.random.default_rng(k)
        stack = rng.standard_normal((7, k, k)) * rng.uniform(0.1, 10.0, size=(7, 1, 1))
        assert np.array_equal(sym(stack), np.stack([sym(a) for a in stack]))
        basis, lam = eig_sym(stack)
        nsd = nsd_part(stack)
        for i, a in enumerate(stack):
            basis_i, lam_i = eig_sym(a)
            assert np.array_equal(basis[i], basis_i)
            assert np.array_equal(lam[i], lam_i)
            assert np.max(np.abs(nsd[i] - nsd_part(a))) <= 1e-15

    def test_nonfinite_entry_in_a_stack_rejected(self):
        stack = np.zeros((4, 3, 3))
        stack[2, 1, 0] = np.inf
        stack[0, 0, 0], stack[3, 2, 2] = 3.0, 4.0
        for fn in (eig_sym, nsd_part):
            with warnings.catch_warnings(), pytest.raises(NumericalError) as err:
                warnings.simplefilter("error", RuntimeWarning)
                fn(stack)
            assert err.value.order == 3
            assert err.value.norm == 5.0  # of the finite entries

    def test_triu_pairs_are_cached_and_read_only(self):
        iu, ju, scale = triu_pairs(4)
        assert triu_pairs(4)[0] is iu
        assert all(np.array_equal(a, b) for a, b in zip((iu, ju), np.triu_indices(4)))
        assert np.array_equal(scale, np.where(iu == ju, 1.0, np.sqrt(2.0)))
        with pytest.raises(ValueError):
            scale[0] = 2.0


class TestIed:
    def test_classification(self):
        ied = make_ied(np.diag([3.0, 0.0, -2.0]), zero_tol=1e-10)
        assert (ied.p, ied.n_beta, ied.q) == (1, 1, 1)

    def test_identity(self):
        ied = make_ied(np.eye(2), zero_tol=1e-10)
        assert ied.p == 2 and ied.q == 0 and ied.n_beta == 0

    def test_reference_fixture_matrix(self):
        # G at the degenerate fixture's solution: diag(1, 0, 0, -1)
        ied = make_ied(np.diag([1.0, 0.0, 0.0, -1.0]))
        assert (ied.p, ied.q) == (1, 1)
        assert list(range(ied.p, ied.n - ied.q)) == [1, 2]

    def test_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = stratum_matrix(rng, 5, 2, 1)
            ied = make_ied(a)
            assert frob(ied.basis.T @ ied.basis - np.eye(5)) <= 1e-12 * 5
            recon = ied.basis @ np.diag(ied.eigenvalues) @ ied.basis.T
            assert frob(recon - a) <= 1e-10 * max(1.0, frob(a))
            lam, r = ied.eigenvalues, ied.n - ied.q
            assert np.all(lam[: ied.p] > ied.zero_tol)
            assert np.all(np.abs(lam[ied.p : r]) <= ied.zero_tol)
            assert np.all(lam[r:] < -ied.zero_tol)

    def test_negative_zero_tol_rejected(self):
        with pytest.raises(ValueError):
            make_ied(np.eye(2), zero_tol=-1.0)

    def test_nan_zero_tol_rejected(self):
        with pytest.raises(ValueError):
            make_ied(np.eye(2), zero_tol=float("nan"))

    def test_infinite_zero_tol_rejected(self):
        # an infinite threshold would classify every eigenvalue as zero
        with pytest.raises(ValueError):
            make_ied(np.diag([1.0, 0.0, 0.0, -1.0]), zero_tol=float("inf"))


class TestProjections:
    def test_diagonal(self):
        ied = make_ied(np.diag([2.0, -1.0]))
        assert np.allclose(project_psd(ied), np.diag([2.0, 0.0]), atol=1e-14)
        assert np.allclose(project_nsd(ied), np.diag([0.0, -1.0]), atol=1e-14)

    def test_offdiagonal(self):
        ied = make_ied(OFFDIAG)
        assert np.allclose(project_psd(ied), 0.5 * np.ones((2, 2)), atol=1e-13)
        assert np.allclose(
            project_nsd(ied), 0.5 * np.array([[-1.0, 1.0], [1.0, -1.0]]), atol=1e-13
        )

    def test_psd_input_fixed(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        ied = make_ied(a)
        assert np.allclose(project_psd(ied), a, atol=1e-13)
        assert np.allclose(project_nsd(ied), 0.0, atol=1e-13)

    def test_moreau(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = sym(rng.standard_normal((5, 5))) * rng.uniform(0.5, 20)
            ied = make_ied(a)
            plus, minus = project_psd(ied), project_nsd(ied)
            tol = 1e-10 * frob(a)
            assert frob(plus + minus - a) <= tol
            assert abs(np.sum(plus * minus)) <= tol
            assert np.min(np.linalg.eigvalsh(plus)) >= -tol
            assert np.max(np.linalg.eigvalsh(minus)) <= tol


class TestXi:
    def test_two_by_two(self):
        ied = make_ied(np.diag([2.0, -1.0]))
        xi = ied.xi
        assert np.isclose(xi[0, 1], 2.0 / 3.0)
        assert np.isclose(xi[0, 0], 1.0) and np.isclose(xi[1, 1], 0.0)

    def test_equal_positive_pair_is_one(self):
        xi = make_ied(np.diag([2.0, 2.0, -1.0])).xi
        assert xi[0, 1] == 1.0

    def test_gamma_block_zero(self):
        xi = make_ied(np.diag([1.0, -1.0, -2.0])).xi
        assert xi[1, 2] == 0.0 and xi[2, 1] == 0.0

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xi = make_ied(sym(rng.standard_normal((6, 6)))).xi
            assert np.all(xi >= 0.0) and np.all(xi <= 1.0)

    def test_beta_block_convention(self):
        xi = make_ied(np.diag([1.0, 0.0, 0.0, -1.0])).xi
        assert xi[1, 2] == 1.0 and xi[1, 1] == 1.0


class TestDirectionalDerivative:
    def test_full_rank_matches_stratum_differential(self):
        rng = np.random.default_rng(6)
        ied = make_ied(stratum_matrix(rng, 4, 2, 2))
        for _ in range(5):
            h = sym(rng.standard_normal((4, 4)))
            assert np.allclose(
                proj_dir_derivative(ied, h), stratum_differential(ied, h), atol=1e-12
            )

    def test_positive_definite_is_identity(self):
        ied = make_ied(np.diag([3.0, 1.0]))
        h = sym(np.array([[0.3, 1.2], [1.2, -0.4]]))
        assert np.allclose(proj_dir_derivative(ied, h), h, atol=1e-13)

    def test_zero_matrix_reduces_to_projection(self):
        rng = np.random.default_rng(7)
        ied = make_ied(np.zeros((3, 3)))
        h = sym(rng.standard_normal((3, 3)))
        assert np.allclose(proj_dir_derivative(ied, h), psd_part(h), atol=1e-12)

    def test_one_sided_quotient_agreement(self):
        # B-differentiability: (P(A + tH) - P(A))/t converges as t drops to 0
        rng = np.random.default_rng(8)
        for trial in range(10):
            a = sym(rng.standard_normal((4, 4)))
            ied = make_ied(a)
            h = sym(rng.standard_normal((4, 4)))
            derivative = proj_dir_derivative(ied, h)
            errs = []
            for t in (1e-5, 1e-6, 1e-7):
                quotient = (psd_part(a + t * h) - psd_part(a)) / t
                errs.append(frob(quotient - derivative))
            assert errs[-1] <= 1e-4 * max(1.0, frob(h))


class TestStratumDifferential:
    def test_hand_value(self):
        ied = make_ied(np.diag([2.0, -1.0]))
        out = stratum_differential(ied, OFFDIAG)
        assert np.allclose(out, np.array([[0.0, 2 / 3], [2 / 3, 0.0]]), atol=1e-14)

    def test_zero_direction(self):
        ied = make_ied(np.diag([2.0, -1.0]))
        assert np.allclose(stratum_differential(ied, np.zeros((2, 2))), 0.0)

    def test_identity_on_definite(self):
        rng = np.random.default_rng(9)
        ied = make_ied(np.diag([3.0, 1.0, 0.5]))
        h = sym(rng.standard_normal((3, 3)))
        assert np.allclose(stratum_differential(ied, h), h, atol=1e-13)

    def test_tangency_violation(self):
        ied = make_ied(np.diag([1.0, 0.0]))
        with pytest.raises(TangencyViolation) as err:
            stratum_differential(ied, np.diag([0.0, 1.0]))
        assert err.value.beta_block_norm > 0.9

    def test_finite_difference_agreement(self):
        # first-order decay of the retraction curve quotient, n up to 6
        rng = np.random.default_rng(10)
        for n, p, q in ((3, 1, 1), (5, 2, 1), (6, 2, 2)):
            a = stratum_matrix(rng, n, p, q)
            ied = make_ied(a)
            h = random_tangent(rng, ied)
            target = stratum_differential(ied, h)
            errs = []
            for t in (1e-4, 1e-5, 1e-6):
                moved = retract_fixed_inertia(ied, t * h)
                quotient = (psd_part(moved) - psd_part(a)) / t
                errs.append(frob(quotient - target))
            assert errs[0] > errs[1] > errs[2]
            assert errs[1] <= 60.0 * 1e-5  # C * t with a generous constant


class TestTangentBasis:
    def test_small_rank_one(self):
        ied = make_ied(np.diag([1.0, 0.0]))
        basis = tangent_basis(ied)
        assert len(basis) == 2 == stratum_dimension(2, 1, 0)

    def test_full_rank_full_basis(self):
        ied = make_ied(np.diag([2.0, 1.0, -1.0]))
        assert len(tangent_basis(ied)) == 6

    def test_zero_matrix_empty(self):
        assert tangent_basis(make_ied(np.zeros((3, 3)))) == []

    def test_orthonormal_and_tangent(self):
        rng = np.random.default_rng(11)
        a = stratum_matrix(rng, 5, 2, 1)
        ied = make_ied(a)
        basis = tangent_basis(ied)
        assert len(basis) == stratum_dimension(5, 2, 1)
        for i, bi in enumerate(basis):
            bt = ied.basis.T @ bi @ ied.basis
            assert frob(bt[2:4, 2:4]) <= 1e-14
            for j, bj in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(np.sum(bi * bj) - expected) <= 1e-12


class TestNormalTangentSplit:
    def test_full_rank(self):
        rng = np.random.default_rng(12)
        ied = make_ied(np.diag([2.0, -3.0]))
        h = sym(rng.standard_normal((2, 2)))
        assert np.allclose(normal_project_pi2(ied, h), 0.0)
        assert np.allclose(tangent_project_pi1(ied, h), h)

    def test_scalar_all_beta(self):
        ied = make_ied(np.zeros((1, 1)))
        h = np.array([[3.0]])
        assert np.allclose(normal_project_pi2(ied, h), h)

    def test_rank_one_example(self):
        ied = make_ied(np.diag([1.0, 0.0]))
        h = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.allclose(
            normal_project_pi2(ied, h), np.array([[0.0, 0.0], [0.0, 3.0]]), atol=1e-14
        )

    def test_projector_algebra(self):
        rng = np.random.default_rng(13)
        a = stratum_matrix(rng, 5, 2, 1)
        ied = make_ied(a)
        h = sym(rng.standard_normal((5, 5)))
        pi2 = normal_project_pi2(ied, h)
        pi1 = tangent_project_pi1(ied, h)
        assert np.allclose(pi1 + pi2, h, atol=1e-13)
        assert np.allclose(normal_project_pi2(ied, pi2), pi2, atol=1e-13)
        assert np.allclose(normal_project_pi2(ied, pi1), 0.0, atol=1e-13)
        assert abs(np.sum(pi1 * pi2)) <= 1e-12


class TestRetraction:
    def test_full_inertia_no_truncation(self):
        ied = make_ied(np.diag([2.0, -1.0]))
        out = retract_fixed_inertia(ied, np.diag([0.5, 0.2]))
        assert np.allclose(out, np.diag([2.5, -0.8]), atol=1e-13)

    def test_hand_rank_one(self):
        ied = make_ied(np.diag([1.0, 0.0]))
        h = np.array([[0.1, 0.2], [0.2, 0.0]])
        out = retract_fixed_inertia(ied, h)
        lam_top = (1.1 + np.sqrt(1.37)) / 2.0
        eigs = np.linalg.eigvalsh(out)
        assert np.isclose(np.max(eigs), lam_top, atol=1e-12)
        assert np.isclose(np.min(eigs), 0.0, atol=1e-13)

    def test_centering(self):
        rng = np.random.default_rng(14)
        a = stratum_matrix(rng, 4, 2, 1)
        ied = make_ied(a)
        assert frob(retract_fixed_inertia(ied, np.zeros((4, 4))) - a) <= 1e-12

    def test_inertia_violation(self):
        ied = make_ied(np.diag([1.0, -1.0]))
        with pytest.raises(InertiaViolation):
            retract_fixed_inertia(ied, np.diag([-2.0, 0.0]))

    def test_second_order_accuracy(self):
        # ||R(A, H) - (A + H)|| = O(||H||^2)
        rng = np.random.default_rng(15)
        a = stratum_matrix(rng, 5, 2, 2)
        ied = make_ied(a)
        h = random_tangent(rng, ied)
        ratios = []
        for scale in (1e-2, 1e-3, 1e-4):
            hs = scale * h
            gap = frob(retract_fixed_inertia(ied, hs) - (a + hs))
            ratios.append(gap / frob(hs) ** 2)
        assert max(ratios) <= 10.0 * min(ratios) + 1.0


class TestRotations:
    def test_distinct_eigenvalues_sign_flips_only(self):
        ied = make_ied(np.diag([3.0, 1.0, -2.0]))
        rotated = rotate_within_eigenspaces(ied, seed=0)
        assert np.allclose(np.abs(rotated.basis), np.abs(ied.basis), atol=1e-14)

    def test_identity_matrix(self):
        ied = make_ied(np.eye(3))
        rotated = rotate_within_eigenspaces(ied, seed=1)
        assert frob(rotated.basis.T @ rotated.basis - np.eye(3)) <= 1e-12
        recon = rotated.basis @ np.diag(rotated.eigenvalues) @ rotated.basis.T
        assert frob(recon - np.eye(3)) <= 1e-12

    def test_cluster_detection(self):
        ied = make_ied(np.diag([1.0, 1.0, 0.0]))
        rotated = rotate_within_eigenspaces(ied, seed=2)
        # third column may only flip sign; first two may mix
        assert np.allclose(np.abs(rotated.basis[:, 2]), np.abs(ied.basis[:, 2]), atol=1e-14)

    def test_operations_invariant_under_rotation(self):
        rng = np.random.default_rng(16)
        for trial in range(100):
            n = int(rng.integers(3, 6))
            p = int(rng.integers(1, n - 1))
            q = int(rng.integers(1, n - p)) if n - p > 1 else 0
            basis = haar_orthogonal(rng, n)
            lam = np.zeros(n)
            lam[:p] = np.repeat(rng.uniform(0.5, 2.0), p)  # repeated e-values
            lam[n - q :] = -rng.uniform(0.5, 2.0, size=q)
            a = sym(basis @ (np.sort(lam)[::-1][:, None] * basis.T))
            ied = make_ied(a)
            rotated = rotate_within_eigenspaces(ied, seed=trial)
            h = random_tangent(rng, ied)
            scale = max(1.0, frob(h))
            assert frob(project_psd(ied) - project_psd(rotated)) <= 1e-9 * scale
            assert (
                frob(stratum_differential(ied, h) - stratum_differential(rotated, h))
                <= 1e-9 * scale
            )
            assert (
                frob(normal_project_pi2(ied, h) - normal_project_pi2(rotated, h))
                <= 1e-9 * scale
            )
            assert (
                frob(retract_fixed_inertia(ied, h) - retract_fixed_inertia(rotated, h))
                <= 1e-9 * scale
            )
