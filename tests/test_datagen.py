import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from umtn.datagen import (
    CHUNK_VALUES,
    COEFF_VARIANCE,
    MAX_DIFFUSION,
    MAX_MODE,
    ConvDiffConfig,
    SequenceDataset,
    _field_grids,
    _initial_field,
    _mode_bases,
    _simulate_batch,
    _stencil_weights,
    _Workspace,
    generate_dataset,
    grid_coordinates,
)
from umtn.errors import ConfigError, DivergenceError
from umtn.interpolation import SiteSet

SIZE = 2 * MAX_MODE + 1


def coefficient_fields(point) -> tuple[float, float, float]:
    """The convection components a, b and diffusion c at one point, from the formulas."""
    x, y = float(point[0]), float(point[1])
    a = 0.5 * (math.cos(y) + x * (2.0 * math.pi - x) * math.sin(x)) + 0.6
    b = 2.0 * (math.cos(y) + math.sin(x)) + 0.8
    c = 0.5 * (1.0 - math.sqrt((x - math.pi) ** 2 + (y - math.pi) ** 2) / (math.sqrt(2.0) * math.pi))
    return a, b, c


def sample_initial_condition(rng, grid_size):
    """A random Fourier initial condition evaluated on the (g, g) grid."""
    return _initial_field(rng, _mode_bases(grid_size)).reshape(grid_size, grid_size)


class DrawRecorder:
    """Stands in for the rng of `_initial_field`.

    `normal` hands out the `scripted` arrays in turn, or, once they run out,
    draws from a generator seeded with `seed` with the arguments it was given;
    `draws` records every array handed out.
    """

    def __init__(self, seed=0, scripted=()):
        self.rng = np.random.default_rng(seed)
        self.scripted = list(scripted)
        self.draws = []

    def normal(self, loc, scale, size):
        out = self.scripted.pop(0) if self.scripted else self.rng.normal(loc, scale, size)
        self.draws.append(out)
        return out


def simulate_convdiff(config, initial):
    """RK4 snapshots (n_outputs + 1, g, g) of one initial field."""
    return _simulate_batch(config, np.asarray(initial, dtype=float)[None])[0]


def evaluate_pointwise(lambda_kl, zeta_kl, x, y):
    """The Fourier double sum at broadcastable coordinate arrays, mode by mode.

    Coefficient arrays are indexed [k + MAX_MODE, l + MAX_MODE].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    modes = np.arange(-MAX_MODE, MAX_MODE + 1)
    out = np.zeros(np.broadcast(x, y).shape)
    for ki, k in enumerate(modes):
        for li, l in enumerate(modes):
            angle = k * x + l * y
            out += lambda_kl[ki, li] * np.cos(angle) + zeta_kl[ki, li] * np.sin(angle)
    return out


def reference_rhs(u: np.ndarray, h: float, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a*u_x + b*u_y + c*laplacian(u) with periodic central differences, term by term.

    u may carry leading batch axes; the grid spans the last two axes.
    """
    xp = np.roll(u, -1, axis=-2)
    xm = np.roll(u, 1, axis=-2)
    yp = np.roll(u, -1, axis=-1)
    ym = np.roll(u, 1, axis=-1)
    ux = (xp - xm) / (2.0 * h)
    uy = (yp - ym) / (2.0 * h)
    lap = (xp + xm + yp + ym - 4.0 * u) / (h * h)
    return a * ux + b * uy + c * lap


def reference_simulate(config: ConvDiffConfig, initial: np.ndarray) -> np.ndarray:
    """Classical four-stage RK4 with k1..k4 over `reference_rhs`; (n_outputs + 1, g, g)."""
    a, b, c = _field_grids(config.grid_size)
    h = config.grid_spacing
    dt = config.dt_internal
    u = np.array(initial, dtype=float)
    out = [u]
    for _ in range(config.n_outputs):
        for _ in range(config.substeps_per_output):
            k1 = reference_rhs(u, h, a, b, c)
            k2 = reference_rhs(u + 0.5 * dt * k1, h, a, b, c)
            k3 = reference_rhs(u + 0.5 * dt * k2, h, a, b, c)
            k4 = reference_rhs(u + dt * k3, h, a, b, c)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(u)
    return np.stack(out)


def stencil(config: ConvDiffConfig, u: np.ndarray) -> np.ndarray:
    """The generator's L(u) for a (g, g) field or a (batch, g, g) stack."""
    g = config.grid_size
    stack = np.asarray(u, dtype=float).reshape(-1, g, g)
    work = _Workspace(_stencil_weights(config), stack.shape[0])
    work.field[:, 1:-1, 1:-1] = stack
    return work.apply()[:, 1:-1, 1:-1].reshape(np.shape(u))


def small_config(**overrides):
    defaults = dict(
        grid_size=16,
        dt_out=0.01,
        t_end=0.05,
        n_sites=10,
        n_sequences=3,
        split=(1, 1, 1),
        substeps_per_output=2,
        seed=0,
    )
    defaults.update(overrides)
    return ConvDiffConfig(**defaults)


class TestCoefficientFields:
    def test_center_values(self):
        a, b, c = (field[4, 4] for field in _field_grids(8))  # node (pi, pi)
        assert a == pytest.approx(0.1, abs=1e-12)
        assert b == pytest.approx(-1.2, abs=1e-12)
        assert c == pytest.approx(0.5, abs=1e-12)

    def test_origin_values(self):
        a, b, c = (field[0, 0] for field in _field_grids(8))
        assert a == pytest.approx(1.1, abs=1e-12)
        assert b == pytest.approx(2.8, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)  # corner is sqrt(2)*pi from the center

    def test_grid_version_matches_pointwise(self):
        a, b, c = _field_grids(8)
        x = grid_coordinates(8)
        for i in (0, 3, 7):
            for j in (0, 4, 6):
                pa, pb, pc = coefficient_fields((x[i], x[j]))
                assert_allclose([a[i, j], b[i, j], c[i, j]], [pa, pb, pc], atol=1e-14)


class TestFourierInitialCondition:
    def test_zero_coefficients_give_zero_field(self):
        zeros = np.zeros((SIZE, SIZE))
        assert np.all(_initial_field(DrawRecorder(scripted=[zeros, zeros]), _mode_bases(12)) == 0.0)
        assert evaluate_pointwise(zeros, zeros, np.array([1.0]), np.array([2.0]))[0] == 0.0

    def test_constant_mode(self):
        lam = np.zeros((SIZE, SIZE))
        lam[MAX_MODE, MAX_MODE] = 2.5  # k = l = 0
        field = _initial_field(DrawRecorder(scripted=[lam, np.zeros((SIZE, SIZE))]), _mode_bases(8))
        assert_allclose(field, np.full(64, 2.5))

    def test_value_at_origin_is_cosine_coefficient_sum(self):
        """The cosine coefficients are drawn first, the sine ones second."""
        rng = DrawRecorder(seed=5)
        value = _initial_field(rng, _mode_bases(6))[0]
        assert len(rng.draws) == 2
        assert value == pytest.approx(rng.draws[0].sum(), rel=1e-12)
        assert value == _initial_field(np.random.default_rng(5), _mode_bases(6))[0]

    def test_periodic_in_both_axes(self):
        rng = DrawRecorder(seed=6)
        _initial_field(rng, _mode_bases(4))
        lam, zeta = rng.draws
        x = np.linspace(0, 2 * np.pi, 7)
        y = np.linspace(0, 2 * np.pi, 7)
        base = evaluate_pointwise(lam, zeta, x, y)
        assert_allclose(evaluate_pointwise(lam, zeta, x + 2 * np.pi, y), base, atol=1e-9)
        assert_allclose(evaluate_pointwise(lam, zeta, x, y - 2 * np.pi), base, atol=1e-9)

    def test_on_grid_matches_evaluate(self):
        """Entry i g + j of the flat field is the node (x_i, y_j)."""
        rng = DrawRecorder(seed=7)
        field = _initial_field(rng, _mode_bases(9))
        x = grid_coordinates(9)
        X, Y = np.meshgrid(x, x, indexing="ij")
        assert_allclose(field.reshape(9, 9), evaluate_pointwise(*rng.draws, X, Y), atol=1e-10)

    def test_sample_spread_reads_variance_not_std(self):
        rng = DrawRecorder(seed=8)
        _initial_field(rng, _mode_bases(4))
        assert [draw.shape for draw in rng.draws] == [(SIZE, SIZE), (SIZE, SIZE)]
        pooled = np.concatenate([draw.ravel() for draw in rng.draws])
        assert np.std(pooled) == pytest.approx(math.sqrt(COEFF_VARIANCE), rel=0.1)

    def test_sample_initial_condition_shape(self):
        bases = _mode_bases(11)
        assert [basis.shape for basis in bases] == [(SIZE * SIZE, 121)] * 2
        assert _initial_field(np.random.default_rng(9), bases).shape == (121,)


class TestConfigValidation:
    def test_split_must_sum_to_sequences(self):
        with pytest.raises(ConfigError, match="split"):
            small_config(split=(1, 1, 2))

    def test_split_counts_must_be_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            small_config(split=(3, 0, 0))

    def test_t_end_must_be_multiple_of_dt_out(self):
        with pytest.raises(ConfigError, match="integer multiple"):
            small_config(t_end=0.055)

    def test_diffusion_stability_bound(self):
        # defaults: h ~ 0.126 so the bound is ~7.9e-3; one substep leaves dt at 0.01
        with pytest.raises(ConfigError, match="stability"):
            ConvDiffConfig(substeps_per_output=1)

    def test_unstable_count_names_the_minimum(self):
        with pytest.raises(ConfigError, match="substeps_per_output must be at least 2"):
            ConvDiffConfig(substeps_per_output=1)
        with pytest.raises(ConfigError, match="substeps_per_output must be at least 6"):
            ConvDiffConfig(grid_size=100, substeps_per_output=5)

    @pytest.mark.parametrize("dt_out", [0.003, 0.01, 0.05, 0.2])
    def test_default_substeps_are_the_fewest_stable(self, dt_out):
        """Over grids 2..128 the resolved count keeps dt_out / n under
        h^2 / (4 max c), and one substep fewer would not."""
        for g in range(2, 129):
            config = ConvDiffConfig(
                grid_size=g, dt_out=dt_out, t_end=dt_out, n_sites=1, n_sequences=3, split=(1, 1, 1)
            )
            n = config.substeps_per_output
            bound = (2 * math.pi / g) ** 2 / (4 * MAX_DIFFUSION)
            assert type(n) is int
            assert dt_out / n < bound
            assert n == 1 or dt_out / (n - 1) >= bound

    def test_default_substeps_at_known_grids(self):
        configs = [small_config(grid_size=g, n_sites=1, substeps_per_output=None) for g in (12, 16, 50, 100)]
        assert [config.substeps_per_output for config in configs] == [1, 1, 2, 6]

    def test_explicit_substeps_kept(self):
        assert small_config(substeps_per_output=7).substeps_per_output == 7
        assert ConvDiffConfig(substeps_per_output=10).substeps_per_output == 10

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_end", math.inf),
            ("t_end", math.nan),
            ("dt_out", -math.inf),
            ("dt_out", 0.0),
            ("dt_out", "0.01"),
            ("grid_size", 12.5),
            ("grid_size", True),
            ("grid_size", 10**200),
            ("n_sites", 10.5),
            ("n_sites", 0),
            ("n_sequences", 3.0),
            ("substeps_per_output", 2.5),
            ("substeps_per_output", 0),
            ("seed", -1),
            ("seed", 1.5),
        ],
    )
    def test_bad_field_rejected_naming_it(self, field, value):
        with pytest.raises(ConfigError, match=repr(field)):
            small_config(**{field: value})

    def test_too_many_sites_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            small_config(grid_size=3, n_sites=10)

    def test_derived_quantities(self):
        config = small_config()
        assert config.n_outputs == 5
        assert config.dt_internal == pytest.approx(0.005)
        assert config.grid_spacing == pytest.approx(2 * np.pi / 16)


class TestRhs:
    def test_single_mode_discrete_identity(self):
        """For u = sin(x) the periodic stencil has a closed form.

        Central difference of sin is (sin(h)/h) cos; the second difference is
        ((2 cos(h) - 2)/h^2) sin.  Both identities are exact on the periodic
        grid, so the oracle holds to roundoff.
        """
        g = 16
        x = grid_coordinates(g)
        X, Y = np.meshgrid(x, x, indexing="ij")
        u = np.sin(X)
        h = 2 * np.pi / g
        a, b, c = _field_grids(g)
        expected = a * (np.sin(h) / h) * np.cos(X) + c * ((2 * np.cos(h) - 2) / h**2) * np.sin(X)
        assert_allclose(stencil(small_config(grid_size=g), u), expected, atol=1e-12)
        assert_allclose(reference_rhs(u, h, a, b, c), expected, atol=1e-12)

    def test_constant_field_has_zero_rhs(self):
        config = small_config(grid_size=8, n_sites=4)
        assert np.all(stencil(config, np.full((8, 8), 3.7)) == 0.0)
        assert np.all(stencil(config, np.full((2, 8, 8), 1e6)) == 0.0)

    def test_batch_axis_broadcasts(self):
        config = small_config(grid_size=8, n_sites=4)
        batch = np.random.default_rng(10).normal(size=(3, 8, 8))
        stacked = stencil(config, batch)
        for i in range(3):
            assert np.array_equal(stacked[i], stencil(config, batch[i]))

    def test_matches_reference_rhs(self):
        for g in (8, 16, 50):
            config = small_config(grid_size=g, n_sites=4)
            a, b, c = _field_grids(g)
            u = np.random.default_rng(g).normal(size=(2, g, g))
            expected = reference_rhs(u, config.grid_spacing, a, b, c)
            assert_allclose(stencil(config, u), expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


class TestSimulate:
    def test_zero_initial_stays_zero(self):
        config = small_config()
        snaps = simulate_convdiff(config, np.zeros((16, 16)))
        assert snaps.shape == (6, 16, 16)
        assert np.all(snaps == 0.0)

    def test_constant_initial_stays_constant(self):
        # no reaction term, so constants are exact equilibria of the stencil
        config = small_config()
        snaps = simulate_convdiff(config, np.full((16, 16), 1.5))
        assert np.all(snaps == 1.5)

    def test_self_convergence_in_substeps(self):
        config = small_config()
        u0 = sample_initial_condition(np.random.default_rng(11), grid_size=16)
        coarse = simulate_convdiff(small_config(substeps_per_output=2), u0)
        mid = simulate_convdiff(small_config(substeps_per_output=4), u0)
        fine = simulate_convdiff(small_config(substeps_per_output=8), u0)
        err_coarse = np.max(np.abs(coarse[-1] - fine[-1]))
        err_mid = np.max(np.abs(mid[-1] - fine[-1]))
        assert err_coarse < 1e-5
        assert err_mid < err_coarse / 4

    def test_batch_matches_single(self):
        config = small_config()
        rng = np.random.default_rng(12)
        fields = np.stack([sample_initial_condition(rng, 16) for _ in range(2)])
        batch = _simulate_batch(config, fields)
        for i in range(2):
            assert np.array_equal(batch[i], simulate_convdiff(config, fields[i]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_state_raises_divergence_error(self):
        config = small_config()
        u0 = np.zeros((16, 16))
        u0[::2, :] = 1e308
        u0[1::2, :] = -1e308
        with pytest.raises(DivergenceError) as excinfo:
            simulate_convdiff(config, u0)
        assert excinfo.value.at_time == pytest.approx(0.01)

    @pytest.mark.parametrize("grid_size, t_end, substeps", [(16, 0.05, 2), (50, 0.03, 10)])
    def test_matches_classical_rk4(self, grid_size, t_end, substeps):
        config = small_config(grid_size=grid_size, t_end=t_end, substeps_per_output=substeps)
        u0 = sample_initial_condition(np.random.default_rng(grid_size), grid_size=grid_size)
        snaps = simulate_convdiff(config, u0)
        expected = reference_simulate(config, u0)
        assert snaps.shape == expected.shape == (config.n_outputs + 1, grid_size, grid_size)
        assert np.max(np.abs(snaps - expected)) <= 1e-12

    def test_early_stop_keeps_leading_snapshots(self):
        config = small_config()
        fields = np.stack([sample_initial_condition(np.random.default_rng(14), 16)])
        full = _simulate_batch(config, fields)
        short = _simulate_batch(config, fields, n_outputs=2)
        assert short.shape == (1, 3, 16, 16)
        assert np.array_equal(short, full[:, :3])

    def test_non_2d_initial_rejected(self):
        with pytest.raises(ValueError):
            _simulate_batch(small_config(), np.zeros(16))


class TestGenerateDataset:
    def test_shapes_and_split(self):
        config = small_config()
        ds = generate_dataset(config, tau=2)
        assert ds.sequences.shape == (3, 5, 10)
        assert ds.sites.n == 10
        assert ds.tau == 2 and ds.horizon == 3
        assert ds.seed == 0
        for name in ("train", "val", "test"):
            assert ds.split_values(name).shape == (1, 5, 10)
        joined = np.concatenate([ds.split_indices(n) for n in ds.SPLITS])
        assert np.array_equal(joined, np.arange(3))

    def test_sites_lie_on_the_grid(self):
        config = small_config()
        ds = generate_dataset(config, tau=2)
        steps = ds.sites.sites / config.grid_spacing
        assert_allclose(steps, np.round(steps), atol=1e-9)
        assert np.all(ds.sites.sites >= 0.0)
        assert np.all(ds.sites.sites < 2 * np.pi)

    def test_bitwise_deterministic(self):
        first = generate_dataset(small_config(seed=3), tau=2)
        second = generate_dataset(small_config(seed=3), tau=2)
        assert np.array_equal(first.sequences, second.sequences)
        assert np.array_equal(first.sites.sites, second.sites.sites)

    def test_seed_changes_output(self):
        first = generate_dataset(small_config(seed=3), tau=2)
        second = generate_dataset(small_config(seed=4), tau=2)
        assert not np.array_equal(first.sequences, second.sequences)

    def test_chunking_does_not_change_values(self):
        # At g=50 the default chunk is the budget's 10 sequences, fewer than all 12.
        config = small_config(
            grid_size=50, t_end=0.03, substeps_per_output=10, n_sites=20, n_sequences=12, split=(8, 2, 2), seed=5
        )
        assert CHUNK_VALUES // 50**2 == 10
        default = generate_dataset(config, tau=1)
        for chunk_size in (1, 3, 12):
            chunked = generate_dataset(config, tau=1, chunk_size=chunk_size)
            assert np.array_equal(chunked.sequences, default.sequences)

    def test_sequences_are_kept_snapshots_at_sites(self):
        config = small_config()
        ds = generate_dataset(config, tau=2)
        master = np.random.SeedSequence(config.seed)
        _, ic_root = master.spawn(2)
        fields = np.stack([sample_initial_condition(np.random.default_rng(s), 16) for s in ic_root.spawn(3)])
        snaps = simulate_convdiff(config, fields[1])
        idx = np.round(ds.sites.sites / config.grid_spacing).astype(int)
        assert np.array_equal(ds.sequences[1], snaps[: config.n_outputs, idx[:, 0], idx[:, 1]])

    @pytest.mark.parametrize("grid_size, max_gap", [(12, 3e-5), (50, 3e-4)])
    def test_default_substeps_stay_close_to_a_fine_reference(self, grid_size, max_gap):
        """With the fewest stable substeps, three sequences over the whole grid
        (t_end 0.2, seed 1) stay within max_gap of 40 substeps: measured
        2.58e-5 at g=12 and 2.78e-4 at g=50, on fields of max 7.4 and 9.8."""
        config = small_config(grid_size=grid_size, t_end=0.2, n_sites=grid_size**2, substeps_per_output=None, seed=1)
        default = generate_dataset(config, tau=5).sequences
        reference = generate_dataset(dataclasses.replace(config, substeps_per_output=40), tau=5).sequences
        gap = float(np.max(np.abs(default - reference)))
        print(f"g={grid_size}: {config.substeps_per_output} substeps, max gap to 40 substeps {gap:.3e}")
        assert gap < max_gap

    def test_keeps_no_memory_after_return(self):
        """Nothing outlives a call but the dataset: the 3.3 MB Fourier basis of
        a 24 x 24 grid is built per call and released."""
        generate_dataset(small_config(grid_size=6, n_sites=4), tau=2)  # first-call allocations
        tracemalloc.start()
        try:
            ds = generate_dataset(small_config(grid_size=24), tau=2)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = ds.sequences.nbytes + ds.sites.sites.nbytes + ds.sites.distance_matrix().nbytes
        assert held <= arrays + 64 * 1024


class TestSequenceDataset:
    def make_raw(self):
        rng = np.random.default_rng(13)
        sites = SiteSet(rng.uniform(0, 2 * np.pi, (6, 2)))
        seqs = rng.normal(1.0, 2.0, size=(4, 5, 6))
        return SequenceDataset(sites, seqs, (2, 1, 1), tau=2)

    def test_normalize_centers_training_split(self):
        norm = self.make_raw().normalize()
        train = norm.split_values("train")
        assert abs(train.mean()) < 1e-8
        assert abs(train.var() - 1.0) < 1e-6
        assert norm.normalized

    def test_statistics_come_from_train_split_only(self):
        raw = self.make_raw()
        assert raw.mean == pytest.approx(raw.split_values("train").mean())
        norm = raw.normalize()
        # val split keeps an offset unless it happens to share the train stats
        assert abs(norm.split_values("val").mean()) > 1e-3

    def test_round_trip(self):
        raw = self.make_raw()
        norm = raw.normalize()
        back = norm.denormalize_values(norm.sequences)
        assert_allclose(back, raw.sequences, atol=1e-12)

    def test_normalize_idempotent(self):
        norm = self.make_raw().normalize()
        assert norm.normalize() is norm

    def test_zero_variance_warns_and_divides_by_one(self):
        sites = SiteSet(np.arange(3, dtype=float)[:, None])
        seqs = np.full((3, 4, 3), 7.0)
        ds = SequenceDataset(sites, seqs, (1, 1, 1), tau=2)
        with pytest.warns(RuntimeWarning, match="zero variance"):
            norm = ds.normalize()
        assert np.all(norm.sequences == 0.0)

    def test_split_must_partition(self):
        sites = SiteSet(np.arange(3, dtype=float)[:, None])
        with pytest.raises(ValueError):
            SequenceDataset(sites, np.zeros((4, 5, 3)), (2, 1, 2), tau=2)

    def test_tau_bounds_checked(self):
        sites = SiteSet(np.arange(3, dtype=float)[:, None])
        with pytest.raises(ValueError):
            SequenceDataset(sites, np.zeros((3, 5, 3)), (1, 1, 1), tau=5)

    def test_non_finite_sequences_rejected(self):
        sites = SiteSet(np.arange(3, dtype=float)[:, None])
        seqs = np.zeros((3, 5, 3))
        seqs[1, 2, 0] = np.nan
        from umtn.errors import DataError

        with pytest.raises(DataError):
            SequenceDataset(sites, seqs, (1, 1, 1), tau=2)
