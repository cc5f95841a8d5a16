import math
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from numpy.testing import assert_allclose

from umtn.collocation import CollocationStepper, Trajectory, operator_matrix, solve_ivp
from umtn.errors import DivergenceError, NumericalError
from umtn.interpolation import SiteSet, build_phi
from umtn.kernels import KernelFamily, LinearOperatorSpec, RadialKernel, kernel_eval

MQ = RadialKernel(KernelFamily.MULTIQUADRIC, 1.0)
ZERO_OP = LinearOperatorSpec()


def scattered_sites(n, d, seed):
    return SiteSet(np.random.default_rng(seed).uniform(0.0, 3.0, (n, d)))


def fd_gradient(kernel, center, point, h=1e-6):
    point = np.asarray(point, dtype=float)
    grad = np.empty(point.size)
    for axis in range(point.size):
        step = np.zeros_like(point)
        step[axis] = h
        hi = kernel_eval(kernel, np.linalg.norm(point + step - center))
        lo = kernel_eval(kernel, np.linalg.norm(point - step - center))
        grad[axis] = (hi - lo) / (2 * h)
    return grad


def fd_laplacian(kernel, center, point, h=1e-4):
    # fourth-order stencil keeps roundoff well below the comparison tolerance
    total = 0.0
    point = np.asarray(point, dtype=float)
    for axis in range(point.size):
        samples = []
        for m in (-2, -1, 0, 1, 2):
            step = np.zeros_like(point)
            step[axis] = m * h
            samples.append(kernel_eval(kernel, np.linalg.norm(point + step - center)))
        f_m2, f_m1, f_0, f_1, f_2 = samples
        total += (-f_2 + 16 * f_1 - 30 * f_0 + 16 * f_m1 - f_m2) / (12 * h * h)
    return total


class TestOperatorMatrix:
    def test_zero_operator_gives_zero_matrix(self):
        sites = scattered_sites(6, 2, seed=0)
        assert_allclose(operator_matrix(MQ, sites, ZERO_OP), np.zeros((6, 6)))

    def test_entries_match_finite_differences(self):
        sites = scattered_sites(5, 2, seed=1)
        op = LinearOperatorSpec(
            convection=lambda p: np.array([np.sin(p[0]), p[1]]),
            diffusion=lambda p: 0.5 + 0.1 * p[0],
            reaction=lambda p: np.cos(p[0] + p[1]),
        )
        mat = operator_matrix(MQ, sites, op)
        pts = sites.sites
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                expected = (
                    op.convection(pts[i]) @ fd_gradient(MQ, pts[j], pts[i])
                    + op.diffusion(pts[i]) * fd_laplacian(MQ, pts[j], pts[i])
                    + op.reaction(pts[i]) * kernel_eval(MQ, np.linalg.norm(pts[i] - pts[j]))
                )
                # abs floor covers stencil roundoff where the terms nearly cancel
                assert mat[i, j] == pytest.approx(expected, rel=1e-5, abs=5e-7)

    def test_reaction_only_scales_phi(self):
        sites = scattered_sites(4, 1, seed=2)
        op = LinearOperatorSpec(reaction=lambda p: 3.0)
        phi = kernel_eval(MQ, sites.distance_matrix())
        assert_allclose(operator_matrix(MQ, sites, op), 3.0 * phi, rtol=1e-12)

    def test_thin_plate_rejected(self):
        sites = scattered_sites(4, 2, seed=3)
        tps = RadialKernel(KernelFamily.THIN_PLATE_SPLINE, 1.0)
        op = LinearOperatorSpec(diffusion=lambda p: 1.0)
        with pytest.raises(ValueError):
            operator_matrix(tps, sites, op)


def build_h(kernel, sites, op, dt):
    """H_ij = phi(||x_i - x_j||) + dt * L phi(||x - x_j||) at x = x_i."""
    if dt <= 0:
        raise ValueError("time step must be positive")
    phi = kernel_eval(kernel, sites.distance_matrix())
    return phi + dt * operator_matrix(kernel, sites, op)


def coefficient_space_values(stepper, initial_values, t_end):
    """Reference stepper: rhs = H c, boundary rows set, Phi c' = rhs, u' = Phi c'."""
    system = stepper.system
    h = build_h(system.kernel, system.site_set, stepper.operator, stepper.dt)
    c = system.solve(initial_values)
    values = [system.phi @ c]
    for k in range(1, int(round(t_end / stepper.dt)) + 1):
        rhs = h @ c
        if stepper.boundary_indices.size:
            rhs[stepper.boundary_indices] = stepper.boundary_values(k * stepper.dt)
        c = system.solve(rhs)
        values.append(system.phi @ c)
    return np.array(values)


class TestBuildH:
    def test_zero_operator_reduces_to_phi(self):
        sites = scattered_sites(7, 2, seed=4)
        h = build_h(MQ, sites, ZERO_OP, dt=0.01)
        assert_allclose(h, kernel_eval(MQ, sites.distance_matrix()))

    def test_linear_in_dt(self):
        sites = scattered_sites(5, 2, seed=5)
        op = LinearOperatorSpec(diffusion=lambda p: 1.0)
        phi = kernel_eval(MQ, sites.distance_matrix())
        h1 = build_h(MQ, sites, op, dt=0.01) - phi
        h2 = build_h(MQ, sites, op, dt=0.02) - phi
        assert_allclose(h2, 2.0 * h1, rtol=1e-12)

    def test_nonpositive_dt_rejected(self):
        sites = scattered_sites(3, 1, seed=6)
        with pytest.raises(ValueError):
            build_h(MQ, sites, ZERO_OP, dt=0.0)


def make_stepper(sites, op, dt, **kwargs):
    return CollocationStepper(build_phi(MQ, sites), op, dt, **kwargs)


class TestSolveIvp:
    def test_zero_operator_keeps_values_constant(self):
        sites = scattered_sites(6, 2, seed=7)
        u0 = np.random.default_rng(8).normal(size=6)
        stepper = make_stepper(sites, ZERO_OP, dt=0.1)
        trajectory = solve_ivp(stepper, u0, t_end=0.5)
        assert len(trajectory) == 6
        for point in trajectory:
            assert np.array_equal(point.values, u0)

    def test_times_are_uniform_grid(self):
        sites = scattered_sites(4, 1, seed=9)
        trajectory = solve_ivp(make_stepper(sites, ZERO_OP, dt=0.25), np.ones(4), t_end=1.0)
        assert [p.time for p in trajectory] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_site_reaction_recurrence(self):
        """One site, reaction r: each step multiplies the value by (1 + r dt)."""
        sites = SiteSet(np.array([[0.3]]))
        op = LinearOperatorSpec(reaction=lambda p: 0.7)
        trajectory = solve_ivp(make_stepper(sites, op, dt=0.01), np.array([2.0]), t_end=0.05)
        for k, point in enumerate(trajectory):
            assert point.values[0] == pytest.approx(2.0 * (1 + 0.7 * 0.01) ** k, rel=1e-12)

    def test_initial_point_reproduces_initial_values(self):
        sites = scattered_sites(8, 2, seed=10)
        u0 = np.random.default_rng(11).normal(size=8)
        trajectory = solve_ivp(make_stepper(sites, ZERO_OP, dt=0.5), u0, t_end=0.5)
        assert np.max(np.abs(trajectory[0].values - u0)) < 1e-8

    def test_fractional_t_end_rejected(self):
        sites = scattered_sites(3, 1, seed=12)
        stepper = make_stepper(sites, ZERO_OP, dt=0.3)
        with pytest.raises(ValueError):
            solve_ivp(stepper, np.ones(3), t_end=0.5)

    def test_wrong_initial_shape_rejected(self):
        sites = scattered_sites(3, 1, seed=13)
        stepper = make_stepper(sites, ZERO_OP, dt=0.1)
        with pytest.raises(ValueError):
            solve_ivp(stepper, np.ones(4), t_end=0.2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_iteration_raises_numerical_error(self):
        sites = SiteSet(np.array([[0.0]]))
        op = LinearOperatorSpec(reaction=lambda p: 1e300)
        stepper = make_stepper(sites, op, dt=1.0)
        with pytest.raises(NumericalError, match="diverged") as info:
            solve_ivp(stepper, np.array([1.0]), t_end=4.0)
        assert isinstance(info.value, DivergenceError)
        assert info.value.at_time == 2.0

    def test_trajectory_rows_are_points(self):
        sites = scattered_sites(5, 2, seed=18)
        op = LinearOperatorSpec(diffusion=lambda p: 0.2)
        trajectory = solve_ivp(make_stepper(sites, op, dt=0.1), np.ones(5), t_end=0.3)
        assert isinstance(trajectory, Sequence)
        assert trajectory.times.shape == (4,) and trajectory.values.shape == (4, 5)
        for k, point in enumerate(trajectory):
            assert point.time == trajectory.times[k]
            assert np.array_equal(point.values, trajectory.values[k])
        tail = trajectory[2:]
        assert isinstance(tail, Trajectory) and len(tail) == 2
        assert np.array_equal(tail[-1].values, trajectory[-1].values)


class TestStepLoop:
    """The aligned C-order propagator and the row-sum finiteness check."""

    # du/dt = a.grad(u) + d laplacian(u) + r u on [0, pi]^2, solved exactly by
    # e^{(r - 2d) t} sin(x + a1 t) sin(y + a2 t).
    CONVECTION, DIFFUSION, REACTION = np.array([0.4, -0.3]), 0.05, -0.2

    def exact(self, points, t):
        decay = math.exp((self.REACTION - 2.0 * self.DIFFUSION) * t)
        return decay * np.sin(points[:, 0] + self.CONVECTION[0] * t) * np.sin(points[:, 1] + self.CONVECTION[1] * t)

    def square_problem(self, dt):
        """300 sites: a ring of 44 on the boundary of [0, pi]^2, then a jittered 16 x 16 interior grid."""
        edge = np.linspace(0.0, math.pi, 12)[:-1]
        zero, full = np.zeros(11), np.full(11, math.pi)
        ring = np.concatenate(
            [np.stack(pair, axis=1) for pair in ((edge, zero), (full, edge), (full - edge, full), (zero, full - edge))]
        )
        axis = math.pi / 17 * np.arange(1, 17)
        interior = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        interior += np.random.default_rng(0).uniform(-0.03, 0.03, interior.shape)
        points = np.vstack([ring, interior])
        op = LinearOperatorSpec(
            convection=lambda p: self.CONVECTION, diffusion=lambda p: self.DIFFUSION, reaction=lambda p: self.REACTION
        )
        stepper = CollocationStepper(
            build_phi(RadialKernel(KernelFamily.MULTIQUADRIC, 0.1), points),
            op,
            dt,
            boundary_indices=range(len(ring)),
            boundary_values=lambda t: self.exact(ring, t),
        )
        return points, stepper

    def test_propagator_and_values_are_aligned_c_order(self):
        stepper = make_stepper(scattered_sites(7, 2, seed=19), LinearOperatorSpec(diffusion=lambda p: 0.3), dt=0.01)
        values = solve_ivp(stepper, np.ones(7), t_end=0.03).values
        for array in (stepper.propagator, values):
            assert array.flags.c_contiguous
            assert array.__array_interface__["data"][0] % 64 == 0

    def test_matches_plain_per_step_loop(self):
        """3000 steps at 300 sites agree with the F-ordered dt * D + I product
        and a per-entry finiteness check; the gap measured 2.3e-14."""
        dt, steps = 1e-4, 3000
        points, stepper = self.square_problem(dt)
        system, indices = stepper.system, stepper.boundary_indices
        differentiation = system.solve(operator_matrix(system.kernel, system.site_set, stepper.operator).T).T
        propagator = dt * differentiation
        propagator[np.diag_indices(system.n)] += 1.0
        assert propagator.flags.f_contiguous and not propagator.flags.c_contiguous
        expected = np.empty((steps + 1, system.n))
        expected[0] = self.exact(points, 0.0)
        for k in range(1, steps + 1):
            row = expected[k]
            np.dot(propagator, expected[k - 1], out=row)
            row[indices] = stepper.boundary_values(k * dt)
            assert np.all(np.isfinite(row))
        values = solve_ivp(stepper, expected[0], steps * dt).values
        assert np.max(np.abs(values - expected)) < 1e-12

    def test_finite_row_whose_sum_overflows_passes(self):
        stepper = make_stepper(scattered_sites(30, 2, seed=20), ZERO_OP, dt=0.1)
        u0 = np.full(30, 1e307)
        with np.errstate(over="ignore"):
            assert np.isinf(u0.sum())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trajectory = solve_ivp(stepper, u0, t_end=0.3)
        assert caught == []
        assert np.array_equal(trajectory[-1].values, u0)

    @pytest.mark.parametrize(
        "bad", [[np.nan, 0.0], [np.inf, 0.0], [np.inf, -np.inf]], ids=["nan", "inf", "inf-minus-inf"]
    )
    @pytest.mark.parametrize("k", [1, 3])
    def test_non_finite_step_raises_at_its_time(self, bad, k):
        dt = 0.1
        stepper = make_stepper(
            scattered_sites(6, 2, seed=21),
            ZERO_OP,
            dt,
            boundary_indices=[0, 4],
            boundary_values=lambda t: np.array(bad if t >= k * dt else [0.0, 0.0]),
        )
        with pytest.raises(DivergenceError) as info:
            solve_ivp(stepper, np.ones(6), t_end=5 * dt)
        assert info.value.at_time == k * dt


class TestCoefficientSpaceOracle:
    """The value-space step agrees with the three-pass H c -> solve -> Phi c step."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_heat_config(self):
        n = 25
        sites = SiteSet(np.linspace(0.0, np.pi, n)[:, None])
        stepper = make_stepper(
            sites,
            LinearOperatorSpec(diffusion=lambda p: 1.0),
            dt=1e-3,
            boundary_indices=[0, n - 1],
            boundary_values=lambda t: np.zeros(2),
        )
        u0 = np.sin(sites.sites[:, 0])
        values = solve_ivp(stepper, u0, t_end=0.1).values
        assert np.max(np.abs(values - coefficient_space_values(stepper, u0, 0.1))) <= 1e-9

    def test_two_dimensional_time_dependent_boundary(self):
        sites = scattered_sites(12, 2, seed=19)
        boundary = [0, 3, 5, 8]
        op = LinearOperatorSpec(
            convection=lambda p: np.array([0.4, -0.3]),
            diffusion=lambda p: 0.2,
            reaction=lambda p: -0.1,
        )
        stepper = make_stepper(
            sites,
            op,
            dt=0.01,
            boundary_indices=boundary,
            boundary_values=lambda t: np.cos(t) * sites.sites[boundary, 0],
        )
        u0 = np.sin(sites.sites[:, 0]) * np.cos(sites.sites[:, 1])
        values = solve_ivp(stepper, u0, t_end=0.2).values
        assert np.max(np.abs(values - coefficient_space_values(stepper, u0, 0.2))) <= 1e-11


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestHeatEquation:
    """sin(x) on [0, pi] with unit diffusion decays as exp(-t) sin(x)."""

    def setup_stepper(self, dt, n=25):
        sites = SiteSet(np.linspace(0.0, np.pi, n)[:, None])
        op = LinearOperatorSpec(diffusion=lambda p: 1.0)
        return sites, make_stepper(
            sites,
            op,
            dt,
            boundary_indices=[0, n - 1],
            boundary_values=lambda t: np.zeros(2),
        )

    def test_matches_separated_solution(self):
        sites, stepper = self.setup_stepper(dt=1e-3)
        u0 = np.sin(sites.sites[:, 0])
        trajectory = solve_ivp(stepper, u0, t_end=0.05)
        exact = np.exp(-0.05) * u0
        assert np.max(np.abs(trajectory[-1].values - exact)) < 1e-3

    def test_first_order_in_dt(self):
        errors = []
        for dt in (2e-3, 1e-3):
            sites, stepper = self.setup_stepper(dt)
            u0 = np.sin(sites.sites[:, 0])
            final = solve_ivp(stepper, u0, t_end=0.05)[-1].values
            errors.append(np.max(np.abs(final - np.exp(-0.05) * u0)))
        ratio = errors[0] / errors[1]
        assert 1.7 < ratio < 2.3

    def test_boundary_rows_hit_prescribed_values(self):
        sites = SiteSet(np.linspace(0.0, 2.0, 12)[:, None])
        op = LinearOperatorSpec(diffusion=lambda p: 0.5)
        stepper = make_stepper(
            sites,
            op,
            dt=0.01,
            boundary_indices=[0, 11],
            boundary_values=lambda t: np.array([np.sin(t), 1.0]),
        )
        u0 = np.zeros(12)
        u0[11] = 1.0
        for point in solve_ivp(stepper, u0, t_end=0.05)[1:]:
            assert point.values[0] == pytest.approx(np.sin(point.time), abs=1e-8)
            assert point.values[11] == pytest.approx(1.0, abs=1e-8)


class TestStepperValidation:
    def test_boundary_indices_out_of_range(self):
        sites = scattered_sites(4, 1, seed=14)
        with pytest.raises(ValueError):
            make_stepper(sites, ZERO_OP, 0.1, boundary_indices=[4], boundary_values=lambda t: np.zeros(1))

    def test_duplicate_boundary_indices(self):
        sites = scattered_sites(4, 1, seed=15)
        with pytest.raises(ValueError):
            make_stepper(sites, ZERO_OP, 0.1, boundary_indices=[1, 1], boundary_values=lambda t: np.zeros(2))

    def test_indices_without_callback(self):
        sites = scattered_sites(4, 1, seed=16)
        with pytest.raises(ValueError):
            make_stepper(sites, ZERO_OP, 0.1, boundary_indices=[0])

    def test_callback_shape_checked(self):
        sites = scattered_sites(4, 1, seed=17)
        stepper = make_stepper(
            sites, ZERO_OP, 0.1, boundary_indices=[0], boundary_values=lambda t: np.zeros(3)
        )
        with pytest.raises(ValueError, match="boundary callback"):
            solve_ivp(stepper, np.ones(4), t_end=0.1)
