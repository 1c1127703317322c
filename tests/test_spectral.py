import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    TangencyViolation,
    proj_dir_derivative,
    retract_by_eigendecomposition,
    stratum_differential,
    xi_matrix,
)
from support import (
    haar_orthogonal,
    normal_project_pi2,
    packed_index,
    pair_mask,
    project_nsd,
    psd_part,
    random_tangent,
    rotate_within_eigenspaces,
    stratum_dimension,
    stratum_matrix,
    tangent_basis,
    tangent_project_pi1,
)

from sgnsdp.errors import InertiaViolation, NumericalError
from sgnsdp.kkt import big_g
from sgnsdp.model import degenerate_fixture
from sgnsdp.spectral import (
    eig_sym,
    eigvals_sym,
    frob,
    make_ied,
    nsd_part,
    pack_sym,
    packed_length,
    project_psd,
    retract_fixed_inertia,
    sym,
    sym_to_vec,
    tangent_layout,
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

    def test_single_matrix_equals_numpy_eigh_bit_for_bit(self):
        # one dsyevd call on the lower triangle, as np.linalg.eigh makes
        rng = np.random.default_rng(3)
        problem, z_bar = degenerate_fixture()
        matrices = [sym(big_g(problem, z_bar))]
        for n in range(1, 61):
            q = haar_orthogonal(rng, n)
            clustered = rng.choice([-2.0, 0.0, 1e-12, 1.0, 3.0], size=n)
            matrices += [
                sym(rng.standard_normal((n, n))),
                sym(q @ (clustered[:, None] * q.T)),
            ]
        for a in matrices:
            lam, basis = np.linalg.eigh(a)
            got_basis, got_lam = eig_sym(a)
            assert np.array_equal(got_lam, lam[::-1])
            assert np.array_equal(got_basis, basis[:, ::-1])
            assert got_basis.flags.c_contiguous

    def test_failed_decomposition_raises_numerical_error(self, monkeypatch):
        def failing(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.eye(n), 2

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevd", failing)
        with pytest.raises(NumericalError, match="info = 2") as err:
            eig_sym(np.eye(3))
        assert err.value.order == 3

    def test_eigenvalues_alone_equal_numpy_eigvalsh_bit_for_bit(self, monkeypatch):
        # one dsyevd call without vectors, the call np.linalg.eigvalsh
        # makes, but with scipy's default workspace: through order 32 the
        # results are the same to the bit; above it LAPACK takes the
        # unblocked tridiagonal reduction, so they agree to rounding.
        # diagnose's second order forms, of order up to m, reach past 32.
        # Non-finite input and a failed call raise as in eig_sym.
        rng = np.random.default_rng(4)
        for n in range(1, 80):
            a = sym(rng.standard_normal((n, n)))
            ref = np.linalg.eigvalsh(a)[::-1]
            if n <= 32:
                assert np.array_equal(eigvals_sym(a), ref)
            else:
                assert np.max(np.abs(eigvals_sym(a) - ref)) <= 1e-14 * np.max(np.abs(ref))
        with pytest.raises(NumericalError) as err:
            eigvals_sym(np.full((2, 2), np.nan))
        assert err.value.order == 2
        monkeypatch.setattr(
            scipy.linalg.lapack, "dsyevd", lambda a, **kwargs: (np.zeros(3), np.eye(3), 2)
        )
        with pytest.raises(NumericalError, match="info = 2"):
            eigvals_sym(np.eye(3))


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

    def test_tangent_layout_is_the_cached_pair_mask_enumeration(self):
        for n in range(1, 9):
            iu, ju = np.triu_indices(n)
            for p in range(n + 1):
                for q in range(n - p + 1):
                    lam = np.concatenate([np.ones(p), np.zeros(n - p - q), -np.ones(q)])
                    ied = make_ied(np.diag(lam))
                    keep = ~pair_mask(ied, ("bb",))
                    layout = tangent_layout(n, p, q)
                    assert tangent_layout(n, p, q) is layout
                    rows, pairs = layout.rows, layout.pairs
                    assert rows.tolist() == np.flatnonzero(keep).tolist()
                    assert pairs.shape == (rows.size, 2)
                    assert pairs.tolist() == np.stack([iu[keep], ju[keep]], axis=1).tolist()
                    # xi_base: 1 on the pairs whose l is not in gamma, 0 on the
                    # alpha-gamma, beta-gamma and gamma-gamma pairs
                    assert layout.xi_base.dtype == float
                    gamma_l = pair_mask(ied, ("ag", "bg", "gg"))[keep]
                    assert layout.xi_base.tolist() == (~gamma_l).astype(float).tolist()
                    ag = pair_mask(ied, ("ag",))[keep]
                    assert layout.ag.tolist() == np.flatnonzero(ag).tolist()
                    assert layout.trailing.tolist() == pair_mask(ied, ("bg", "gg")).tolist()
                    neighbour = tangent_layout(n, p, n - p).trailing
                    assert neighbour.tolist() == pair_mask(ied, ("bb", "bg", "gg")).tolist()
                    for arr in layout:
                        with pytest.raises(ValueError):
                            arr[...] = 0

    def test_pair_mask_matches_an_entry_loop(self):
        names = ("aa", "ab", "ag", "bb", "bg", "gg")
        rng = np.random.default_rng(0)
        for n in range(1, 6):
            for p in range(n + 1):
                for q in range(n - p + 1):
                    lam = np.concatenate([np.ones(p), np.zeros(n - p - q), -np.ones(q)])
                    ied = make_ied(np.diag(lam))
                    side = np.repeat(list("abg"), [p, n - p - q, q])
                    for _ in range(4):
                        blocks = tuple(b for b in names if rng.random() < 0.5)
                        expected = [side[i] + side[j] in blocks for i, j in zip(*np.triu_indices(n))]
                        mask = pair_mask(ied, blocks)
                        assert mask.dtype == bool
                        assert mask.tolist() == expected


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
        xi = xi_matrix(make_ied(np.diag([2.0, -1.0])))
        assert np.isclose(xi[0, 1], 2.0 / 3.0)
        assert np.isclose(xi[0, 0], 1.0) and np.isclose(xi[1, 1], 0.0)

    def test_equal_positive_pair_is_one(self):
        xi = xi_matrix(make_ied(np.diag([2.0, 2.0, -1.0])))
        assert xi[0, 1] == 1.0

    def test_gamma_block_zero(self):
        xi = xi_matrix(make_ied(np.diag([1.0, -1.0, -2.0])))
        assert xi[1, 2] == 0.0 and xi[2, 1] == 0.0

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xi = xi_matrix(make_ied(sym(rng.standard_normal((6, 6)))))
            assert np.all(xi >= 0.0) and np.all(xi <= 1.0)

    def test_beta_block_convention(self):
        xi = xi_matrix(make_ied(np.diag([1.0, 0.0, 0.0, -1.0])))
        assert xi[1, 2] == 1.0 and xi[1, 1] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2**31))
    def test_lazy_xi_matches_the_eager_formula_with_ties(self, n, seed):
        # eigenvalues drawn from a few values, zero among them, so ties
        # within alpha, beta and gamma are common
        rng = np.random.default_rng(seed)
        lam = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0, 3.0], size=n)
        basis = haar_orthogonal(rng, n)
        ied = make_ied(sym(basis @ (lam[:, None] * basis.T)))
        p, r = ied.p, ied.n - ied.q
        clipped = ied.eigenvalues.copy()
        clipped[p:r] = 0.0  # beta eigenvalues count as exact zeros
        expected = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                if i < r and j < r:
                    expected[i, j] = 1.0
                elif i >= r and j >= r:
                    expected[i, j] = 0.0
                else:
                    li, lj = clipped[i], clipped[j]
                    expected[i, j] = (max(li, 0.0) - max(lj, 0.0)) / (li - lj)
        assert np.array_equal(xi_matrix(ied), expected)


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6), st.integers(0, 6), st.integers(0, 5), st.floats(0.5, 1.5),
        st.floats(0.0, 1e-2), st.integers(0, 2**31),
    )
    def test_beta_free_retraction_is_the_target_or_the_oracles_violation(
        self, n, p, k, s, noise, seed
    ):
        # steps that move one eigenvalue across zero (s > 1) or near it
        # (s just below 1), plus a small symmetric perturbation
        p, k = min(p, n), min(k, n - 1)
        rng = np.random.default_rng(seed)
        ied = make_ied(stratum_matrix(rng, n, p, n - p))
        assert ied.n_beta == 0
        u = ied.basis[:, k]
        h = sym(-s * ied.eigenvalues[k] * np.outer(u, u) + noise * rng.standard_normal((n, n)))
        # eigenvalues without vectors agree with eig_sym's to rounding only,
        # so a deciding eigenvalue that close to the tolerance is skipped
        lam = eig_sym(ied.matrix + h)[1]
        deciding = ([lam[p - 1] - ied.zero_tol] if p else []) + (
            [lam[p] + ied.zero_tol] if p < n else []
        )
        assume(min(abs(d) for d in deciding) > 1e-13 * max(1.0, np.abs(lam).max()))
        try:
            want = retract_by_eigendecomposition(ied, h)
        except InertiaViolation as exc:
            with pytest.raises(InertiaViolation) as err:
                retract_fixed_inertia(ied, h)
            assert str(err.value) == str(exc)
        else:
            got = retract_fixed_inertia(ied, h)
            assert got.tobytes() == (ied.matrix + h).tobytes()
            assert frob(got - want) <= 1e-12 * max(1.0, frob(want))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_beta_free_retraction_of_a_nonfinite_target_raises(self, bad):
        ied = make_ied(np.diag([1.0, -1.0]))
        with pytest.raises(NumericalError):
            retract_fixed_inertia(ied, np.diag([bad, 0.0]))


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
