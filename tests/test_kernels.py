import numpy as np
import pytest
from numpy.testing import assert_allclose

from umtn.collocation import operator_matrix
from umtn.interpolation import SiteSet
from umtn.kernels import (
    KernelFamily,
    LinearOperatorSpec,
    RadialKernel,
    _radial_parts,
    kernel_eval,
)

ALL_FAMILIES = list(KernelFamily)
SMOOTH = [KernelFamily.MULTIQUADRIC, KernelFamily.INVERSE_MULTIQUADRIC, KernelFamily.GAUSSIAN]


# Pointwise kernel derivatives: the per-pair oracle for the vectorized
# `operator_matrix`, checked here against finite differences.


def _offset(center, eval_point) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    eval_point = np.asarray(eval_point, dtype=float)
    if center.shape != eval_point.shape or center.ndim != 1:
        raise ValueError(
            f"center and eval_point must be 1-D of equal length, got {center.shape} vs {eval_point.shape}"
        )
    return eval_point - center


def _require_operator_smooth(kernel: RadialKernel, r: float) -> None:
    """Thin-plate spline's second derivative is singular at r=0."""
    if kernel.family not in SMOOTH and r == 0.0:
        raise ValueError(f"{kernel.family.value} has no second derivative at zero offset")


def kernel_gradient(kernel: RadialKernel, center, eval_point) -> np.ndarray:
    """Gradient of phi(||x - center||) with respect to x, at x = eval_point."""
    v = _offset(center, eval_point)
    r = float(np.linalg.norm(v))
    _require_operator_smooth(kernel, r)
    _, por, _ = _radial_parts(kernel, np.float64(r))
    return por * v


def kernel_laplacian(kernel: RadialKernel, center, eval_point) -> float:
    """Laplacian of phi(||x - center||) with respect to x, at x = eval_point."""
    v = _offset(center, eval_point)
    r = float(np.linalg.norm(v))
    _require_operator_smooth(kernel, r)
    _, por, second = _radial_parts(kernel, np.float64(r))
    return float(second + (len(v) - 1) * por)


def kernel_operator_apply(kernel: RadialKernel, op: LinearOperatorSpec, center, eval_point) -> float:
    """a(x).grad phi + c(x)*laplacian phi + reaction(x)*phi of phi(||x - center||) at x = eval_point."""
    v = _offset(center, eval_point)
    r = float(np.linalg.norm(v))
    _require_operator_smooth(kernel, r)
    phi, por, second = _radial_parts(kernel, np.float64(r))
    x = np.asarray(eval_point, dtype=float)
    total = 0.0
    if op.convection is not None:
        a = np.asarray(op.convection(x), dtype=float)
        if a.shape != v.shape:
            raise ValueError(f"convection field returned shape {a.shape}, expected {v.shape}")
        total += float(a @ (por * v))
    if op.diffusion is not None:
        total += float(op.diffusion(x)) * float(second + (len(v) - 1) * por)
    if op.reaction is not None:
        total += float(op.reaction(x)) * float(phi)
    return total


def fd_gradient(kernel, center, point, step=1e-5):
    """Central differences of phi(||x - center||) in x, the independent oracle."""
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    for i in range(point.size):
        h = step * max(1.0, abs(point[i]))
        up, down = point.copy(), point.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (
            kernel_eval(kernel, np.linalg.norm(up - center))
            - kernel_eval(kernel, np.linalg.norm(down - center))
        ) / (2 * h)
    return grad


def fd_laplacian(kernel, center, point, step=1e-4):
    """Sum of per-axis 4th-order central second differences.

    The plain 3-point stencil at step 1e-5 bottoms out at machine-eps/h^2,
    about 2e-6 relative, too noisy for a 1e-6 comparison; the 5-point stencil
    at a larger step keeps both truncation and roundoff far below that.
    """
    point = np.asarray(point, dtype=float)
    total = 0.0
    f0 = kernel_eval(kernel, np.linalg.norm(point - center))
    for i in range(point.size):
        h = step * max(1.0, abs(point[i]))
        f = {}
        for k in (-2, -1, 1, 2):
            shifted = point.copy()
            shifted[i] += k * h
            f[k] = kernel_eval(kernel, np.linalg.norm(shifted - center))
        total += (-f[2] + 16 * f[1] - 30 * f0 + 16 * f[-1] - f[-2]) / (12 * h**2)
    return total


class TestKernelEval:
    def test_multiquadric_at_zero_is_epsilon(self):
        assert kernel_eval(RadialKernel(KernelFamily.MULTIQUADRIC, 1.0), 0.0) == 1.0
        assert kernel_eval(RadialKernel(KernelFamily.MULTIQUADRIC, 2.5), 0.0) == 2.5

    def test_multiquadric_three_four_five(self):
        assert kernel_eval(RadialKernel(KernelFamily.MULTIQUADRIC, 4.0), 3.0) == 5.0

    def test_gaussian_at_zero(self):
        assert kernel_eval(RadialKernel(KernelFamily.GAUSSIAN, 2.0), 0.0) == 1.0

    def test_inverse_multiquadric_at_zero_with_unit_epsilon(self):
        # 1/sqrt(0 + 1); for other epsilon the value is 1/epsilon by the formula
        assert kernel_eval(RadialKernel(KernelFamily.INVERSE_MULTIQUADRIC, 1.0), 0.0) == 1.0

    def test_thin_plate_zero_limit(self):
        """r^2 log r has limit 0 at r=0 and must not raise."""
        kernel = RadialKernel(KernelFamily.THIN_PLATE_SPLINE)
        assert kernel_eval(kernel, 0.0) == 0.0
        assert_allclose(kernel_eval(kernel, np.e), np.e**2)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            kernel_eval(RadialKernel(KernelFamily.MULTIQUADRIC, 1.0), -0.5)

    def test_vectorized_over_radius_grids(self):
        kernel = RadialKernel(KernelFamily.GAUSSIAN, 1.5)
        r = np.linspace(0, 3, 17)
        assert_allclose(kernel_eval(kernel, r), [kernel_eval(kernel, x) for x in r])

    def test_monotonicity_per_family(self):
        """Multiquadric grows with r, gaussian and inverse multiquadric shrink."""
        r = np.linspace(0.0, 5.0, 101)
        mq = kernel_eval(RadialKernel(KernelFamily.MULTIQUADRIC, 1.3), r)
        assert np.all(np.diff(mq) >= 0)
        for family in (KernelFamily.GAUSSIAN, KernelFamily.INVERSE_MULTIQUADRIC):
            values = kernel_eval(RadialKernel(family, 1.3), r)
            assert np.all(np.diff(values) <= 0)


class TestKernelValidation:
    def test_epsilon_must_be_positive(self):
        for family in SMOOTH:
            with pytest.raises(ValueError):
                RadialKernel(family, 0.0)
            with pytest.raises(ValueError):
                RadialKernel(family, -1.0)

    def test_thin_plate_ignores_epsilon(self):
        RadialKernel(KernelFamily.THIN_PLATE_SPLINE)  # default epsilon is fine

    def test_dict_round_trip(self):
        kernel = RadialKernel(KernelFamily.INVERSE_MULTIQUADRIC, 0.75)
        assert RadialKernel.from_dict(kernel.to_dict()) == kernel


class TestDerivatives:
    def test_gradient_vanishes_at_zero_offset(self):
        for family in SMOOTH:
            kernel = RadialKernel(family, 1.7)
            grad = kernel_gradient(kernel, [1.0, 2.0], [1.0, 2.0])
            assert_allclose(grad, np.zeros(2))

    def test_multiquadric_gradient_closed_form(self):
        # grad phi = v / phi for multiquadric; offset (3,4), eps=2 -> phi=sqrt(29)
        kernel = RadialKernel(KernelFamily.MULTIQUADRIC, 2.0)
        grad = kernel_gradient(kernel, [0.0, 0.0], [3.0, 4.0])
        assert_allclose(grad, np.array([3.0, 4.0]) / np.sqrt(29.0), rtol=1e-12)

    def test_multiquadric_laplacian_closed_form(self):
        # eps^2/phi^3 + (d-1)/phi with phi=sqrt(29): (4 + 29) / 29^(3/2)
        kernel = RadialKernel(KernelFamily.MULTIQUADRIC, 2.0)
        lap = kernel_laplacian(kernel, [0.0, 0.0], [3.0, 4.0])
        assert_allclose(lap, 33.0 / 29.0**1.5, rtol=1e-12)

    def test_derivatives_match_finite_differences(self):
        """100 seeded (center, point, epsilon) triples per smooth family."""
        rng = np.random.default_rng(2024)
        for family in SMOOTH:
            for _ in range(100 // len(SMOOTH) + 1):
                eps = rng.uniform(0.5, 3.0)
                kernel = RadialKernel(family, eps)
                center = rng.uniform(-2, 2, 3)
                point = center + rng.uniform(0.3, 2.0, 3) * rng.choice([-1, 1], 3)
                assert_allclose(
                    kernel_gradient(kernel, center, point),
                    fd_gradient(kernel, center, point),
                    rtol=1e-6, atol=1e-9,
                )
                assert_allclose(
                    kernel_laplacian(kernel, center, point),
                    fd_laplacian(kernel, center, point),
                    rtol=1e-6, atol=1e-7,
                )

    def test_thin_plate_derivatives_away_from_origin(self):
        kernel = RadialKernel(KernelFamily.THIN_PLATE_SPLINE)
        center = np.array([0.0, 0.0])
        point = np.array([1.2, -0.7])
        assert_allclose(kernel_gradient(kernel, center, point), fd_gradient(kernel, center, point), rtol=1e-6)

    def test_thin_plate_rejected_at_zero_offset(self):
        kernel = RadialKernel(KernelFamily.THIN_PLATE_SPLINE)
        with pytest.raises(ValueError):
            kernel_laplacian(kernel, [1.0, 1.0], [1.0, 1.0])


class TestOperatorApply:
    def test_zero_operator_gives_zero(self):
        op = LinearOperatorSpec()
        for family in SMOOTH:
            kernel = RadialKernel(family, 1.0)
            assert kernel_operator_apply(kernel, op, [0.0, 0.0], [1.0, 0.5]) == 0.0

    def test_pure_diffusion_multiquadric_zero_offset(self):
        """Laplacian of sqrt(r^2+1) at r=0 in 2-D is 2: each axis contributes 1/eps.

        Frozen against a central finite-difference oracle with step 1e-5.
        """
        kernel = RadialKernel(KernelFamily.MULTIQUADRIC, 1.0)
        op = LinearOperatorSpec(diffusion=lambda p: 1.0)
        value = kernel_operator_apply(kernel, op, [0.3, 0.4], [0.3, 0.4])
        assert_allclose(value, 2.0, rtol=1e-12)

    def test_matches_sum_of_parts(self):
        rng = np.random.default_rng(5)
        kernel = RadialKernel(KernelFamily.GAUSSIAN, 1.2)
        center, point = rng.uniform(0, 2, 2), rng.uniform(2.5, 4, 2)
        a = np.array([0.4, -1.1])
        op = LinearOperatorSpec(
            convection=lambda p: a, diffusion=lambda p: 0.7, reaction=lambda p: -0.2
        )
        expected = (
            a @ kernel_gradient(kernel, center, point)
            + 0.7 * kernel_laplacian(kernel, center, point)
            - 0.2 * kernel_eval(kernel, np.linalg.norm(point - center))
        )
        assert_allclose(kernel_operator_apply(kernel, op, center, point), expected, rtol=1e-12)

    def test_linear_in_the_operator(self):
        """Applying op1 + op2 equals the sum of separate applications."""
        rng = np.random.default_rng(11)
        kernel = RadialKernel(KernelFamily.MULTIQUADRIC, 0.9)
        for _ in range(10):
            center, point = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            a1, a2 = rng.normal(size=2), rng.normal(size=2)
            c1, c2 = rng.normal(), rng.normal()
            op1 = LinearOperatorSpec(convection=lambda p: a1, diffusion=lambda p: c1)
            op2 = LinearOperatorSpec(convection=lambda p: a2, diffusion=lambda p: c2)
            combined = LinearOperatorSpec(
                convection=lambda p: a1 + a2, diffusion=lambda p: c1 + c2
            )
            assert_allclose(
                kernel_operator_apply(kernel, combined, center, point),
                kernel_operator_apply(kernel, op1, center, point)
                + kernel_operator_apply(kernel, op2, center, point),
                rtol=1e-10, atol=1e-12,
            )

    def test_dimension_mismatch_rejected(self):
        kernel = RadialKernel(KernelFamily.MULTIQUADRIC, 1.0)
        with pytest.raises(ValueError):
            kernel_operator_apply(kernel, LinearOperatorSpec(), [0.0, 0.0], [1.0, 2.0, 3.0])

    def test_constant_function_sees_only_reaction(self):
        """L applied to phi with zero convection and diffusion is reaction * phi."""
        kernel = RadialKernel(KernelFamily.GAUSSIAN, 1.0)
        op = LinearOperatorSpec(reaction=lambda p: 3.0)
        r = np.linalg.norm([1.0, -0.5])
        assert_allclose(
            kernel_operator_apply(kernel, op, [0.0, 0.0], [1.0, -0.5]),
            3.0 * kernel_eval(kernel, r),
            rtol=1e-12,
        )

    def test_operator_matrix_matches_pointwise_oracle(self):
        """Entry (i, j) of operator_matrix applies L at site i to the kernel centered at site j."""
        rng = np.random.default_rng(12)
        op = LinearOperatorSpec(
            convection=lambda p: np.array([np.cos(p[1]) + 0.5, p[0] * p[1] - 1.0]),
            diffusion=lambda p: 0.3 + 0.1 * np.sin(p[0]),
            reaction=lambda p: -0.4 * p[1],
        )
        for family in SMOOTH:
            kernel = RadialKernel(family, 0.9)
            sites = SiteSet(rng.uniform(0.0, 2.0, (9, 2)))
            matrix = operator_matrix(kernel, sites, op)
            expected = [
                [kernel_operator_apply(kernel, op, sites.sites[j], sites.sites[i]) for j in range(sites.n)]
                for i in range(sites.n)
            ]
            assert_allclose(matrix, expected, rtol=1e-12, atol=1e-12)
