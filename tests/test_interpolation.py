import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from umtn.datagen import SequenceDataset
from umtn.errors import ConditioningError, DataError
from umtn.interpolation import (
    SiteSet,
    build_phi,
    loocv_select_kernel,
    pairwise_distances,
    scaled_inverse,
)
from umtn.kernels import KernelFamily, RadialKernel, kernel_eval

MQ1 = RadialKernel(KernelFamily.MULTIQUADRIC, 1.0)


def random_sites(n, d, seed, low=0.0, high=4.0):
    rng = np.random.default_rng(seed)
    return SiteSet(rng.uniform(low, high, (n, d)))


def grid_sites(n, grid_size, seed):
    """n distinct nodes of a grid_size x grid_size grid on [0, 2*pi)^2."""
    idx = np.random.default_rng(seed).choice(grid_size * grid_size, size=n, replace=False)
    return SiteSet(np.stack(np.unravel_index(idx, (grid_size, grid_size)), axis=1) * (2 * np.pi / grid_size))


class TestSiteSet:
    def test_duplicate_sites_rejected(self):
        with pytest.raises(DataError):
            SiteSet(np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            SiteSet(np.array([[0.0], [np.nan]]))

    def test_distance_matrix_symmetric_zero_diagonal(self):
        sites = random_sites(7, 2, seed=1)
        dist = sites.distance_matrix()
        assert_allclose(dist, dist.T)
        assert_allclose(np.diag(dist), np.zeros(7))
        assert sites.min_pairwise_distance() > 0

    def test_content_hash_tracks_coordinates(self):
        a = random_sites(5, 2, seed=2)
        b = SiteSet(a.sites.copy())
        c = SiteSet(a.sites + 1e-9)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()


class TestBuildPhi:
    def test_single_site_multiquadric(self):
        system = build_phi(MQ1, np.array([[0.7]]))
        assert_allclose(system.phi, [[1.0]])

    def test_two_sites_three_four_five(self):
        """Distance 3 with eps=4: diagonal phi(0)=4, off-diagonal 5."""
        system = build_phi(RadialKernel(KernelFamily.MULTIQUADRIC, 4.0), np.array([[0.0], [3.0]]))
        assert_allclose(system.phi, [[4.0, 5.0], [5.0, 4.0]])

    def test_phi_symmetric(self):
        system = build_phi(MQ1, random_sites(5, 2, seed=3).sites)
        assert_allclose(system.phi, system.phi.T)

    def test_near_duplicate_sites_raise_conditioning_error(self):
        sites = np.array([[0.0], [1e-13], [1.0]])
        with pytest.raises(ConditioningError) as excinfo:
            build_phi(MQ1, sites)
        assert excinfo.value.condition_estimate > 1e14

    def test_warning_window_between_thresholds(self):
        # 25 uniform sites on [0, pi] with eps=1 land near cond 1e12
        sites = np.linspace(0.0, np.pi, 25)[:, None]
        with pytest.warns(UserWarning, match="condition"):
            build_phi(MQ1, sites)

    def test_condition_estimate_matches_svd(self):
        """max|w| / min|w| of the eigenvalues is the 2-norm condition number."""
        system = build_phi(RadialKernel(KernelFamily.MULTIQUADRIC, 0.5), grid_sites(180, 50, seed=1))
        assert system.condition_estimate == pytest.approx(np.linalg.cond(system.phi), rel=1e-9)


class TestFitCoefficients:
    def test_phi_column_gives_unit_vector(self):
        system = build_phi(MQ1, random_sites(6, 2, seed=4).sites)
        c = system.solve(system.phi[:, 2])
        expected = np.zeros(6)
        expected[2] = 1.0
        assert_allclose(c, expected, atol=1e-9)

    def test_scalar_ridge_case(self):
        """One site, phi=[[1]]: (1 + lambda) c = u gives c = 1/1.01."""
        system = build_phi(MQ1, np.array([[0.0]]))
        c = system.fit_matrix(0.01) @ np.array([1.0])
        assert_allclose(c, [1.0 / 1.01], rtol=1e-12)

    def test_interpolation_residual_small(self):
        system = build_phi(MQ1, random_sites(10, 2, seed=5).sites)
        u = np.random.default_rng(6).normal(size=10)
        c = system.solve(u)
        assert np.max(np.abs(system.phi @ c - u)) < 1e-8

    def test_regularization_shrinks_coefficients(self):
        """||c(lambda)|| is nonincreasing in lambda."""
        system = build_phi(MQ1, random_sites(12, 2, seed=7).sites)
        u = np.random.default_rng(8).normal(size=12)
        norms = [
            np.linalg.norm(system.fit_matrix(lam) @ u)
            for lam in (0.0, 1e-4, 1e-2, 1.0, 100.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_fit_matrix_matches_normal_equations(self):
        """Dual route: precomputed fit matrix vs direct normal-equation solve."""
        system = build_phi(MQ1, random_sites(9, 2, seed=9).sites)
        u = np.random.default_rng(10).normal(size=9)
        lam = 1e-2
        via_matrix = system.fit_matrix(lam) @ u
        phi = system.phi
        direct = np.linalg.solve(phi.T @ phi + lam * np.eye(9), phi.T @ u)
        assert_allclose(via_matrix, direct, rtol=1e-8)

    def test_fit_matrix_matches_qr_least_squares(self):
        """The ridge fit equals the least-squares solution of [Phi; sqrt(lam) I] c = [u; 0].

        lstsq factors the stacked matrix by orthogonal transformations, so it
        never squares cond(Phi) (about 2.4e6 here) the way the normal
        equations do.
        """
        system = build_phi(RadialKernel(KernelFamily.MULTIQUADRIC, 0.5), grid_sites(180, 50, seed=1))
        lam = 1e-6
        n = system.n
        reference = np.linalg.lstsq(
            np.vstack([system.phi, np.sqrt(lam) * np.eye(n)]),
            np.vstack([np.eye(n), np.zeros((n, n))]),
            rcond=None,
        )[0]
        gap = np.linalg.norm(system.fit_matrix(lam) - reference) / np.linalg.norm(reference)
        assert gap < 1e-9

    def test_negative_lambda_rejected(self):
        system = build_phi(MQ1, np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            system.fit_matrix(-1e-3)


class TestPairwiseDistances:
    @pytest.mark.parametrize("seed", range(30))
    def test_bitwise_equal_to_cdist(self, seed):
        """scipy's cdist stays in the tests as the oracle of the numpy form."""
        rng = np.random.default_rng(seed)
        dim = 1 + seed % 3
        scale = 10.0 ** rng.uniform(-3, 3)
        a = rng.uniform(-scale, scale, (rng.integers(1, 40), dim))
        b = rng.uniform(-scale, scale, (rng.integers(1, 40), dim))
        assert np.array_equal(pairwise_distances(a, b), cdist(a, b))
        assert np.array_equal(pairwise_distances(a, a), cdist(a, a))

    def test_distance_matrix_has_zero_diagonal(self):
        d = random_sites(7, 3, seed=4).distance_matrix()
        assert np.all(np.diag(d) == 0.0) and np.array_equal(d, d.T)


def evaluate_interpolant(kernel, sites, coeffs, queries):
    """sum_j c_j phi(||q - x_j||) at each query point q, from the package's
    distances and kernel values."""
    return kernel_eval(kernel, pairwise_distances(np.atleast_2d(queries), sites.sites)) @ coeffs


class TestEvaluateInterpolant:
    def test_reproduces_fitted_values_at_sites(self):
        sites = random_sites(8, 2, seed=11)
        system = build_phi(MQ1, sites)
        u = np.random.default_rng(12).normal(size=8)
        c = system.solve(u)
        assert np.max(np.abs(evaluate_interpolant(MQ1, sites, c, sites.sites) - u)) < 1e-8

    def test_single_center_at_center(self):
        sites = SiteSet(np.array([[0.5, 0.5]]))
        assert_allclose(evaluate_interpolant(MQ1, sites, np.array([2.0]), np.array([[0.5, 0.5]])), [2.0])

    def test_two_unit_coefficients(self):
        # phi(0) + phi(1) = 1 + sqrt(2)
        sites = SiteSet(np.array([[0.0], [1.0]]))
        value = evaluate_interpolant(MQ1, sites, np.array([1.0, 1.0]), np.array([[0.0]]))
        assert_allclose(value, [1.0 + np.sqrt(2.0)], rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.array([[1.0, 2.0, 3.0]]), np.array([[0.0, 0.0]]))


class TestScaledInverse:
    def test_identity_maps_to_identity(self):
        # single multiquadric site with eps=1: phi = [[1]]
        system = build_phi(MQ1, np.array([[0.0]]))
        assert_allclose(scaled_inverse(system), [[1.0]])

    def test_scalar_two(self):
        """phi=[[2]] inverts to 0.5 and rescales to exactly 1.0."""
        system = build_phi(RadialKernel(KernelFamily.MULTIQUADRIC, 2.0), np.array([[3.0]]))
        assert scaled_inverse(system)[0, 0] == 1.0

    def test_max_abs_entry_is_one(self):
        system = build_phi(MQ1, random_sites(10, 2, seed=13).sites)
        assert abs(np.max(np.abs(scaled_inverse(system))) - 1.0) < 1e-12

    def test_rescaling_recovers_inverse(self):
        """scaled_inverse times its scale factor is a left inverse of phi."""
        system = build_phi(MQ1, random_sites(8, 2, seed=14).sites)
        product = scaled_inverse(system) * np.max(np.abs(system.fit_matrix(0.0))) @ system.phi
        assert np.max(np.abs(product - np.eye(8))) < 1e-8


def brute_force_loocv_error(kernel, sites, snapshots, left_out):
    """Mean |interpolant of the other n-1 sites minus the held-out value|.

    Builds and solves one reduced (n-1)-site system per held-out site; the
    oracle for the closed form `loocv_select_kernel` uses.
    """
    errors = np.empty(snapshots.shape[0])
    for i in np.unique(left_out):
        rows = np.flatnonzero(left_out == i)
        keep = np.delete(np.arange(sites.n), i)
        reduced = SiteSet(sites.sites[keep])
        try:
            system = build_phi(kernel, reduced)
        except (ConditioningError, np.linalg.LinAlgError):
            return np.inf
        coeffs = system.solve(snapshots[np.ix_(rows, keep)].T)
        basis = kernel_eval(kernel, cdist(sites.sites[i : i + 1], reduced.sites))
        errors[rows] = np.abs((basis @ coeffs)[0] - snapshots[rows, i])
    if not np.all(np.isfinite(errors)):
        return np.inf
    return float(errors.mean())


def make_mq2_dataset(n_steps=6, seed=42):
    """Snapshots that are exact multiquadric eps=2 interpolants."""
    rng = np.random.default_rng(seed)
    sites = SiteSet(rng.uniform(0, 2 * np.pi, (12, 2)))
    phi = build_phi(RadialKernel(KernelFamily.MULTIQUADRIC, 2.0), sites).phi
    coeffs = rng.normal(size=(3, n_steps, 12))
    return SequenceDataset(sites, coeffs @ phi.T, (1, 1, 1), tau=2)


class TestLoocvSelection:
    def test_single_candidate_returned(self):
        dataset = make_mq2_dataset()
        best, scores = loocv_select_kernel([MQ1], dataset, seed=0)
        assert best == MQ1
        assert len(scores) == 1 and np.isfinite(scores[0].mean_abs_error)

    def test_recovers_generating_shape_parameter(self):
        """Data built from eps=2 interpolants selects eps=2 from {0.5, 2, 8}."""
        dataset = make_mq2_dataset()
        candidates = [RadialKernel(KernelFamily.MULTIQUADRIC, e) for e in (0.5, 2.0, 8.0)]
        best, scores = loocv_select_kernel(candidates, dataset, seed=0)
        assert best.epsilon == 2.0
        errors = [s.mean_abs_error for s in scores]
        assert errors[1] == min(errors)

    def test_zero_snapshots_score_exactly_zero(self):
        rng = np.random.default_rng(20)
        sites = SiteSet(rng.uniform(0, 3, (8, 2)))
        dataset = SequenceDataset(sites, np.zeros((3, 4, 8)), (1, 1, 1), tau=2)
        candidates = [RadialKernel(KernelFamily.MULTIQUADRIC, e) for e in (1.0, 1.5)]
        _, scores = loocv_select_kernel(candidates, dataset, seed=3)
        assert all(s.mean_abs_error == 0.0 for s in scores)

    def test_exact_tie_breaks_in_candidate_order(self):
        dataset = make_mq2_dataset()
        candidates = [
            RadialKernel(KernelFamily.MULTIQUADRIC, 1.0),
            RadialKernel(KernelFamily.MULTIQUADRIC, 1.0),
        ]
        best, scores = loocv_select_kernel(candidates, dataset, seed=3)
        assert scores[0].mean_abs_error == scores[1].mean_abs_error
        assert best is candidates[0]

    def test_deterministic_given_seed(self):
        dataset = make_mq2_dataset()
        candidates = [RadialKernel(KernelFamily.MULTIQUADRIC, e) for e in (0.5, 2.0)]
        _, first = loocv_select_kernel(candidates, dataset, seed=9)
        _, second = loocv_select_kernel(candidates, dataset, seed=9)
        assert [s.mean_abs_error for s in first] == [s.mean_abs_error for s in second]

    def test_permuting_candidates_permutes_scores(self):
        dataset = make_mq2_dataset()
        candidates = [RadialKernel(KernelFamily.MULTIQUADRIC, e) for e in (0.5, 2.0, 8.0)]
        _, forward = loocv_select_kernel(candidates, dataset, seed=1)
        best_rev, reverse = loocv_select_kernel(candidates[::-1], dataset, seed=1)
        assert_allclose(
            [s.mean_abs_error for s in forward],
            [s.mean_abs_error for s in reverse][::-1],
        )
        assert best_rev.epsilon == 2.0

    def test_matches_brute_force_oracle(self):
        """Rippa's closed form equals refitting without each held-out site."""
        rng = np.random.default_rng(40)
        sites = SiteSet(rng.uniform(0, 2 * np.pi, (20, 2)))
        x, y = sites.sites.T
        phases = rng.uniform(0, 2 * np.pi, (4, 5, 1))
        seqs = np.sin(x + phases) * np.cos(y - phases) + 0.05 * rng.normal(size=(4, 5, 20))
        dataset = SequenceDataset(sites, seqs, (3, 1, 0), tau=2)
        candidates = [
            RadialKernel(KernelFamily.MULTIQUADRIC, 0.5),
            RadialKernel(KernelFamily.MULTIQUADRIC, 2.0),
            RadialKernel(KernelFamily.GAUSSIAN, 1.0),
            RadialKernel(KernelFamily.INVERSE_MULTIQUADRIC, 1.0),
        ]
        best, scores = loocv_select_kernel(candidates, dataset, seed=4)
        snapshots = dataset.split_values("train").reshape(-1, sites.n)
        left_out = np.random.default_rng(4).integers(0, sites.n, size=snapshots.shape[0])
        expected = [brute_force_loocv_error(k, sites, snapshots, left_out) for k in candidates]
        assert_allclose([s.mean_abs_error for s in scores], expected, rtol=1e-9)
        assert best is candidates[int(np.argmin(expected))]

    def test_singular_candidate_penalized_not_fatal(self):
        """A kernel whose full n-site system is too ill-conditioned to build scores +inf.

        The search continues with the remaining candidates.
        """
        rng = np.random.default_rng(30)
        sites = SiteSet(rng.uniform(0, 3, (6, 2)))
        seqs = rng.normal(size=(3, 4, 6))
        dataset = SequenceDataset(sites, seqs, (1, 1, 1), tau=2)
        # huge epsilon flattens phi toward a rank-one matrix of ones
        flat = RadialKernel(KernelFamily.MULTIQUADRIC, 1e8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best, scores = loocv_select_kernel([flat, MQ1], dataset, seed=0)
        assert scores[0].mean_abs_error == np.inf
        assert best == MQ1
