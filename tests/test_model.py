import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from umtn import autodiff as ad
from umtn import model as model_module
from umtn.autodiff import ParameterStore, Tensor
from umtn.errors import ConfigError, DataError
from umtn.interpolation import SiteSet, build_phi
from umtn.kernels import KernelFamily, RadialKernel
from umtn.model import (
    DrcConfig,
    DrcModel,
    ModelConfig,
    RfnWeights,
    SiteGeometry,
    UmtnModel,
    glorot_uniform,
    lstb_forward,
    nab_forward,
    require_same_sites,
    rfn_step,
)

MQ = RadialKernel(KernelFamily.MULTIQUADRIC, 1.0)


def site_set(n=6, seed=0):
    return SiteSet(np.random.default_rng(seed).uniform(0.0, 3.0, (n, 2)))


def small_model(levels=1, n=6, seed=0, site_seed=0):
    return UmtnModel.build(ModelConfig(levels=levels), MQ, site_set(n, site_seed), seed=seed)


def build_spatial_features(model):
    """The spatial matrices S_f as a plain (F, n, n) array."""
    with ad.no_grad():
        operator = model.spatial_feature_tensors().values
    n = model.geometry.n
    return operator.reshape(n, -1, n).transpose(1, 0, 2)


def multilevel_features(model, c0):
    """U = Phi [c0 | C_1 | ... | C_M] as a plain (n, F*M+1) array."""
    with ad.no_grad():
        return model.multilevel_feature_tensor(c0).values


def parameter_counts(model):
    """Parameter values per group (the name before the first dot)."""
    counts = {}
    for name, tensor in model.params.items():
        group = name.split(".")[0]
        counts[group] = counts.get(group, 0) + tensor.values.size
    return counts


def drc_forward(model, frames):
    """The baseline's next-step prediction from plain (p, n) frames, as an n-vector."""
    with ad.no_grad():
        return model.forward(list(np.asarray(frames, dtype=float))).values[:, 0]


class TestModelConfig:
    def test_derived_widths(self):
        config = ModelConfig(levels=3)
        assert config.s_input_width == 5  # two 2-D points plus the kernel value
        assert config.rfn_input_width == 8 * 3 + 1

    def test_levels_zero_allowed(self):
        assert ModelConfig(levels=0).rfn_input_width == 1

    def test_negative_levels_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(levels=-1)

    def test_dict_round_trip(self):
        config = ModelConfig(levels=2, feature_width=4, rfn_hidden=8)
        assert ModelConfig.from_dict(config.to_dict()) == config


class TestSiteGeometry:
    def test_pair_input_layout(self):
        """Row i*n+j carries site i, site j, and phi(i, j)."""
        sites = site_set(4)
        geom = SiteGeometry(MQ, sites)
        phi = build_phi(MQ, sites).phi
        for i in range(4):
            for j in range(4):
                row = geom.pair_inputs[i * 4 + j]
                assert_allclose(row[:2], sites.sites[i])
                assert_allclose(row[2:4], sites.sites[j])
                assert row[4] == pytest.approx(phi[i, j])

    def test_scaled_inverse_normalized(self):
        geom = SiteGeometry(MQ, site_set(5))
        assert np.max(np.abs(geom.scaled_inv)) == pytest.approx(1.0, abs=1e-12)

    def test_fit_matrix_solves_ridge_problem(self):
        geom = SiteGeometry(MQ, site_set(5), reg_lambda=1e-3)
        u = np.random.default_rng(1).normal(size=5)
        direct = np.linalg.solve(geom.phi.T @ geom.phi + 1e-3 * np.eye(5), geom.phi.T @ u)
        assert_allclose(geom.fit @ u, direct, rtol=1e-8)

    def test_dimension_mismatch_rejected(self):
        sites = site_set(4)
        geometry = SiteGeometry(MQ, sites)
        with pytest.raises(ValueError, match="2-D"):
            UmtnModel(ModelConfig(levels=1, spatial_dim=3), geometry, ParameterStore())


class TestGlorot:
    def test_bounds_and_shape(self):
        rng = np.random.default_rng(2)
        w = glorot_uniform(rng, 20, 30)
        limit = np.sqrt(6.0 / 50.0)
        assert w.shape == (20, 30)
        assert np.all(np.abs(w) <= limit)

    def test_seeded_reproducibility(self):
        a = glorot_uniform(np.random.default_rng(3), 4, 5)
        b = glorot_uniform(np.random.default_rng(3), 4, 5)
        assert np.array_equal(a, b)


def stacked(mats):
    """The (n F) x n operator whose row i F + f is row i of mats[f]."""
    mats = [np.asarray(m) for m in mats]
    n = mats[0].shape[0]
    return np.stack(mats, axis=1).reshape(n * len(mats), n)


class TestLstb:
    def test_zero_features_pass_coefficients_through(self):
        c = np.random.default_rng(4).normal(size=5)
        zeros = Tensor(np.zeros((15, 5)))
        block = lstb_forward(zeros, Tensor(np.eye(5)), c)
        assert block.shape == (5, 3)
        for f in range(3):
            assert_allclose(block.values[:, f], c)

    def test_single_feature_oracle(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(4, 4))
        g = rng.normal(size=(4, 4))
        c = rng.normal(size=4)
        block = lstb_forward(Tensor(s), Tensor(g), c)
        assert_allclose(block.values[:, 0], c + g @ (s @ c), rtol=1e-12)

    def test_feature_columns_are_independent(self):
        rng = np.random.default_rng(6)
        mats = [rng.normal(size=(3, 3)) for _ in range(4)]
        g = rng.normal(size=(3, 3))
        c = rng.normal(size=3)
        block = lstb_forward(Tensor(stacked(mats)), Tensor(g), c)
        for f, m in enumerate(mats):
            assert_allclose(block.values[:, f], c + g @ (m @ c), rtol=1e-12)

    def test_coefficient_block_rows_are_site_major(self):
        """Column b of an n x B block lands in rows i B + b."""
        rng = np.random.default_rng(27)
        mats = [rng.normal(size=(4, 4)) for _ in range(3)]
        g = rng.normal(size=(4, 4))
        coeffs = rng.normal(size=(4, 2))
        block = lstb_forward(Tensor(stacked(mats)), Tensor(g), coeffs)
        assert block.shape == (8, 3)
        for b in range(2):
            c = coeffs[:, b]
            for f, m in enumerate(mats):
                assert_allclose(block.values[b::2, f], c + g @ (m @ c), rtol=1e-12)


class TestNab:
    def test_zero_weights_emit_bias(self):
        w0 = Tensor(np.zeros((4, 6)))
        b0 = Tensor(np.zeros(6))
        w1 = Tensor(np.zeros((6, 1)))
        b1 = Tensor(np.array([0.3]))
        out = nab_forward((w0, b0, w1, b1), np.ones((5, 4)))
        assert_allclose(out.values, np.full((5, 1), 0.3))

    def test_row_oracle(self):
        rng = np.random.default_rng(7)
        w0, b0 = rng.normal(size=(4, 6)), rng.normal(size=6)
        w1, b1 = rng.normal(size=(6, 1)), rng.normal(size=1)
        x = rng.normal(size=(5, 4))
        out = nab_forward((Tensor(w0), Tensor(b0), Tensor(w1), Tensor(b1)), x)
        expected = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
        assert_allclose(out.values, expected, rtol=1e-12)


def gate_shapes(input_width, hidden):
    """Shapes of wz, uz, bz, wr, ur, br, wh, uh, bh, wo, bo."""
    return [(input_width, hidden), (hidden, hidden), (hidden,)] * 3 + [(hidden, 1), (1,)]


def random_gates(rng, input_width, hidden):
    """Per-gate weights wz, uz, bz, wr, ur, br, wh, uh, bh, wo, bo."""
    return [Tensor(rng.normal(scale=0.5, size=s)) for s in gate_shapes(input_width, hidden)]


def zero_rfn(input_width, hidden):
    return RfnWeights.from_gates(*(Tensor(np.zeros(s)) for s in gate_shapes(input_width, hidden)))


def numpy_gru(gates, x, h):
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    wz, uz, bz, wr, ur, br, wh, uh, bh, wo, bo = (w.values for w in gates)
    z = sig(x @ wz + h @ uz + bz)
    r = sig(x @ wr + h @ ur + br)
    cand = np.tanh(x @ wh + (r * h) @ uh + bh)
    h_new = (1.0 - z) * h + z * cand
    return h_new @ wo + bo, h_new


class TestRfnStep:
    def test_zero_weights_halve_hidden_state(self):
        """sigmoid(0) = 1/2 and tanh(0) = 0, so h' = h/2 and the readout is 0."""
        weights = zero_rfn(3, 4)
        h = np.random.default_rng(8).normal(size=(5, 4))
        prediction, h_new = rfn_step(weights, np.ones((5, 3)), h)
        assert_allclose(h_new.values, 0.5 * h, rtol=1e-12)
        assert_allclose(prediction.values, np.zeros((5, 1)))

    def test_shapes(self):
        weights = zero_rfn(9, 7)
        prediction, h_new = rfn_step(weights, np.zeros((6, 9)), np.zeros((6, 7)))
        assert prediction.shape == (6, 1)
        assert h_new.shape == (6, 7)

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(9)
        gates = random_gates(rng, 3, 4)
        x = rng.normal(size=(5, 3))
        h = rng.normal(size=(5, 4))
        prediction, h_new = rfn_step(RfnWeights.from_gates(*gates), x, h)
        ref_pred, ref_h = numpy_gru(gates, x, h)
        assert_allclose(prediction.values, ref_pred, rtol=1e-10)
        assert_allclose(h_new.values, ref_h, rtol=1e-10)

    def test_rows_evolve_independently(self):
        rng = np.random.default_rng(10)
        weights = RfnWeights.from_gates(*random_gates(rng, 2, 3))
        x = rng.normal(size=(4, 2))
        h = rng.normal(size=(4, 3))
        _, full = rfn_step(weights, x, h)
        _, row = rfn_step(weights, x[2:3], h[2:3])
        assert_allclose(full.values[2:3], row.values, rtol=1e-12)


class TestSpatialFeatures:
    def test_shape(self):
        model = small_model(levels=1, n=5)
        feats = build_spatial_features(model)
        assert feats.shape == (8, 5, 5)

    def test_zero_output_layer_gives_zero_features(self):
        model = small_model(levels=1, n=4)
        model.params["alpha.w2"].values[:] = 0.0
        model.params["alpha.b2"].values[:] = 0.0
        assert np.all(build_spatial_features(model) == 0.0)

    def test_matches_direct_mlp_on_pair_rows(self):
        model = small_model(levels=1, n=4)
        p = model.params
        x = model.geometry.pair_inputs
        h = np.maximum(x @ p["alpha.w0"].values + p["alpha.b0"].values, 0.0)
        h = np.maximum(h @ p["alpha.w1"].values + p["alpha.b1"].values, 0.0)
        out = h @ p["alpha.w2"].values + p["alpha.b2"].values
        expected = out.T.reshape(8, 4, 4)
        assert_allclose(build_spatial_features(model), expected, rtol=1e-12)

    def test_foreign_sites_rejected(self):
        model = small_model()
        with pytest.raises(DataError, match="site"):
            require_same_sites(model, site_set(6, seed=99))

    def test_matching_sites_accepted(self):
        model = small_model()
        require_same_sites(model, SiteSet(model.geometry.site_set.sites.copy()))
        assert build_spatial_features(model).shape == (8, 6, 6)

    def test_graph_holds_only_layer_inputs_and_output(self):
        """At n=64 the recorded spatial net holds the pair inputs, the two
        post-ReLU blocks, the output and its permuted copy, and no more."""
        model = small_model(levels=1, n=64)
        config = model.config
        h1, h2 = config.s_alpha_hidden
        columns = config.s_input_width + h1 + h2 + 2 * config.feature_width
        tracemalloc.start()
        try:
            operator = model.spatial_feature_tensors()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert operator.requires_grad
        assert held <= 1.1 * 8 * 64 * 64 * columns


class TestMultilevelFeatures:
    def test_level_zero_is_interpolated_field(self):
        model = small_model(levels=0, n=5)
        c0 = np.random.default_rng(11).normal(size=5)
        u = multilevel_features(model, c0)
        assert u.shape == (5, 1)
        assert_allclose(u[:, 0], model.geometry.phi @ c0, rtol=1e-10)

    def test_width_grows_with_levels(self):
        for levels in (1, 2, 3):
            model = small_model(levels=levels, n=4)
            u = multilevel_features(model, np.ones(4))
            assert u.shape == (4, 8 * levels + 1)

    def test_first_column_is_phi_c_regardless_of_parameters(self):
        model = small_model(levels=2, n=5, seed=17)
        c0 = np.random.default_rng(12).normal(size=5)
        u = multilevel_features(model, c0)
        assert_allclose(u[:, 0], model.geometry.phi @ c0, rtol=1e-10)

    def test_zero_features_collapse_columns(self):
        # with all spatial matrices zero every transformed column equals c
        model = small_model(levels=1, n=4)
        model.params["alpha.w2"].values[:] = 0.0
        model.params["alpha.b2"].values[:] = 0.0
        c0 = np.random.default_rng(13).normal(size=4)
        u = multilevel_features(model, c0)
        for col in range(1, 9):
            assert_allclose(u[:, col], u[:, 0], rtol=1e-10)


class TestParameterBookkeeping:
    def test_shared_net_size_is_fixed(self):
        # 5*64+64 + 64*32+32 + 32*8+8
        assert parameter_counts(small_model(levels=1))["alpha"] == 2728
        assert parameter_counts(small_model(levels=3))["alpha"] == 2728

    def test_counts_independent_of_site_count(self):
        a = parameter_counts(small_model(levels=2, n=4))
        b = parameter_counts(small_model(levels=2, n=9))
        assert a == b

    def test_per_level_aggregator_size(self):
        counts = parameter_counts(small_model(levels=2))
        # 8*32+32 + 32*1+1 per level
        assert counts["nab1"] == counts["nab2"] == 321

    def test_recurrent_block_size_tracks_input_width(self):
        # gates: w (9x64) + u (64x64) + b (64), three of them, plus readout
        counts = parameter_counts(small_model(levels=1))
        gate = 9 * 64 + 64 * 64 + 64
        assert counts["rfn"] == 3 * gate + 64 + 1

    def test_total_matches_store(self):
        """The groups above are every parameter the model registers."""
        model = small_model(levels=1)
        total = sum(tensor.values.size for tensor in model.params.tensors())
        assert sum(parameter_counts(model).values()) == total == 2728 + 321 + 3 * (9 * 64 + 64 * 64 + 64) + 65

    def test_build_is_deterministic(self):
        a = small_model(seed=5)
        b = small_model(seed=5)
        for name in a.params.names():
            assert np.array_equal(a.params[name].values, b.params[name].values)
        c = small_model(seed=6)
        assert any(
            not np.array_equal(a.params[n].values, c.params[n].values) for n in a.params.names()
        )


class TestRollout:
    def make_inputs(self, model, tau, horizon, seed=14):
        rng = np.random.default_rng(seed)
        total = tau + horizon - 1
        teacher = rng.normal(size=(total, model.geometry.n))
        return teacher[:tau], teacher

    def test_prediction_count_and_split(self):
        model = small_model(levels=1, n=5)
        observed, _ = self.make_inputs(model, tau=3, horizon=4)
        result = model.rollout(observed, horizon=4)
        assert result.all_values.shape == (6, 5)
        assert result.predictions.shape == (4, 5)
        assert np.array_equal(result.predictions, result.all_values[2:])

    def test_precomputed_operator_gives_the_same_rollout(self):
        model = small_model(levels=2, n=5)
        observed, _ = self.make_inputs(model, tau=3, horizon=4)
        with ad.no_grad():
            operator = model.spatial_feature_tensors()
        shared = model.rollout(observed, horizon=4, operator=operator)
        assert np.array_equal(shared.all_values, model.rollout(observed, horizon=4).all_values)

    def test_zero_horizon(self):
        model = small_model(levels=1, n=5)
        observed = np.random.default_rng(15).normal(size=(3, 5))
        result = model.rollout(observed, horizon=0)
        assert result.all_values.shape == (2, 5)
        assert result.predictions.shape == (0, 5)

    def test_single_frame_no_horizon_is_empty(self):
        model = small_model(levels=1, n=5)
        result = model.rollout(np.zeros((1, 5)), horizon=0)
        assert result.all_values.shape == (0, 5)

    def test_closed_loop_ignores_teacher_at_probability_zero(self):
        model = small_model(levels=1, n=5)
        observed, teacher = self.make_inputs(model, tau=3, horizon=4)
        plain = model.rollout(observed, horizon=4)
        with_teacher = model.rollout(
            observed, horizon=4, teacher_values=teacher, teacher_prob=0.0
        )
        assert np.array_equal(plain.all_values, with_teacher.all_values)

    def test_full_teacher_forcing_uses_teacher_frames(self):
        model = small_model(levels=1, n=5)
        observed, teacher = self.make_inputs(model, tau=3, horizon=4)
        forced = model.rollout(observed, horizon=4, teacher_values=teacher, teacher_prob=1.0)
        closed = model.rollout(observed, horizon=4)
        # warm-up predictions agree, forecast steps diverge once inputs differ
        assert_allclose(forced.all_values[:3], closed.all_values[:3], rtol=1e-12)
        assert not np.allclose(forced.all_values[3:], closed.all_values[3:])

    def test_teacher_draws_are_seeded(self):
        model = small_model(levels=1, n=5)
        observed, teacher = self.make_inputs(model, tau=3, horizon=5)
        a = model.rollout(observed, 5, teacher, 0.5, rng=np.random.default_rng(3))
        b = model.rollout(observed, 5, teacher, 0.5, rng=np.random.default_rng(3))
        assert np.array_equal(a.all_values, b.all_values)

    def test_record_keeps_graph_tensors(self):
        model = small_model(levels=1, n=4)
        observed, _ = self.make_inputs(model, tau=2, horizon=3)
        result = model.rollout(observed, horizon=3, record=True)
        assert result.tensors is not None and len(result.tensors) == 4
        loss = ad.sum(result.tensors[-1])
        ad.backward(loss, model.params)
        assert model.params["rfn.wo"].grad is not None
        model.params.zero_grads()

    def test_no_record_returns_plain_arrays(self):
        model = small_model(levels=1, n=4)
        observed, _ = self.make_inputs(model, tau=2, horizon=3)
        assert model.rollout(observed, horizon=3).tensors is None

    def test_validation_errors(self):
        model = small_model(levels=1, n=4)
        with pytest.raises(ValueError):
            model.rollout(np.zeros((2, 3)), horizon=1)  # wrong site count
        with pytest.raises(ValueError):
            model.rollout(np.zeros((2, 4)), horizon=1, teacher_prob=0.5)  # no teacher
        with pytest.raises(ValueError):
            model.rollout(
                np.zeros((2, 4)), horizon=1, teacher_values=np.zeros((5, 4)), teacher_prob=0.5
            )
        with pytest.raises(ValueError):
            model.rollout(np.zeros((2, 4)), horizon=1, teacher_prob=1.5)

    def test_site_relabeling_permutes_predictions(self):
        """The architecture has no preferred site order."""
        sites = site_set(6, seed=20)
        perm = np.random.default_rng(21).permutation(6)
        model = UmtnModel.build(ModelConfig(levels=1), MQ, sites, seed=0)
        permuted = UmtnModel.build(
            ModelConfig(levels=1), MQ, SiteSet(sites.sites[perm]), seed=0
        )
        observed = np.random.default_rng(22).normal(size=(3, 6))
        base = model.rollout(observed, horizon=3)
        shuffled = permuted.rollout(observed[:, perm], horizon=3)
        assert_allclose(shuffled.all_values, base.all_values[:, perm], atol=1e-9)


class TestBatchedRollout:
    """A (B, tau, n) rollout is B sequences advanced together as one block."""

    def sequences(self, n, batch=3, length=7, seed=30):
        return np.random.default_rng(seed).normal(size=(batch, length, n))

    @pytest.mark.parametrize(
        "build",
        [
            lambda sites: UmtnModel.build(ModelConfig(levels=1), MQ, sites, seed=1),
            lambda sites: UmtnModel.build(ModelConfig(levels=2), MQ, sites, seed=2),
            lambda sites: DrcModel.build(DrcConfig(), MQ, sites, seed=3),
        ],
        ids=["umtn1", "umtn2", "drc"],
    )
    def test_batch_matches_separate_rollouts(self, build):
        model = build(site_set(5, seed=31))
        seqs = self.sequences(5)
        batched = model.rollout(seqs[:, :3], horizon=4)
        assert batched.all_values.shape == (3, 6, 5)
        assert batched.predictions.shape == (3, 4, 5)
        for b, seq in enumerate(seqs):
            single = model.rollout(seq[:3], horizon=4)
            assert_allclose(batched.all_values[b], single.all_values, rtol=0, atol=1e-12)

    def test_teacher_draws_follow_sequence_then_step_order(self):
        """One batch draws the stream that per-sequence rollouts draw in turn."""
        model = small_model(levels=1, n=5)
        seqs = self.sequences(5)
        batched = model.rollout(
            seqs[:, :3], 4, teacher_values=seqs[:, :6], teacher_prob=0.5, rng=np.random.default_rng(3)
        )
        rng = np.random.default_rng(3)
        for b, seq in enumerate(seqs):
            single = model.rollout(seq[:3], 4, teacher_values=seq[:6], teacher_prob=0.5, rng=rng)
            assert_allclose(batched.all_values[b], single.all_values, rtol=0, atol=1e-12)
        draws = np.random.default_rng(3).random((3, 3)) < 0.5
        assert draws.any() and not draws.all()  # the mask mixes teacher and model frames
        closed = model.rollout(seqs[:, :3], 4)
        assert not np.allclose(batched.all_values, closed.all_values)

    def test_last_level_aggregator_is_skipped(self, monkeypatch):
        model = small_model(levels=2, n=5, seed=3)
        observed = self.sequences(5)[:, :3]
        calls = []
        monkeypatch.setattr(model_module, "nab_forward", lambda *a: calls.append(1) or nab_forward(*a))
        before = model.rollout(observed, horizon=3).all_values
        assert len(calls) == 5  # one aggregator per step (level 1), none for level 2
        for name in ("nab2.w0", "nab2.b0", "nab2.w1", "nab2.b1"):
            model.params[name].values += 1.0
        assert np.array_equal(model.rollout(observed, horizon=3).all_values, before)

    def test_teacher_shape_must_match_batch(self):
        model = small_model(levels=1, n=4)
        with pytest.raises(ValueError, match="teacher_values"):
            model.rollout(np.zeros((2, 3, 4)), 2, teacher_values=np.zeros((4, 4)), teacher_prob=0.5)


class TestDrcModel:
    def test_config_widths(self):
        config = DrcConfig()
        assert config.s_input_width == 5
        assert config.aggregator_input_width == 18

    def test_invalid_past_frames(self):
        with pytest.raises(ConfigError):
            DrcConfig(past_frames=0)

    def test_zeroed_network_emits_final_bias(self):
        model = DrcModel.build(DrcConfig(), MQ, site_set(4), seed=0)
        for name in model.params.names():
            model.params[name].values[:] = 0.0
        model.params["agg.b3"].values[:] = 0.7
        frames = np.random.default_rng(23).normal(size=(2, 4))
        assert_allclose(drc_forward(model, frames), np.full(4, 0.7))

    def test_forward_matches_numpy_reference(self):
        model = DrcModel.build(DrcConfig(feature_width=4, past_frames=2), MQ, site_set(3), seed=1)
        p = {name: model.params[name].values for name in model.params.names()}
        frames = np.random.default_rng(24).normal(size=(2, 3))

        def mlp(prefix, x, layers):
            h = x
            for i in range(layers):
                h = h @ p[f"{prefix}.w{i}"] + p[f"{prefix}.b{i}"]
                if i < layers - 1:
                    h = np.maximum(h, 0.0)
            return h

        geom = model.geometry
        feats = mlp("spatial", geom.pair_inputs, 3).T.reshape(4, 3, 3)
        c = geom.fit @ frames[-1]
        block = np.stack([c + geom.scaled_inv @ (s @ c) for s in feats], axis=1)
        values = geom.phi @ block
        x = np.concatenate([values, frames[-1][:, None], frames[-2][:, None]], axis=1)
        expected = mlp("agg", x, 4)[:, 0]
        assert_allclose(drc_forward(model, frames), expected, rtol=1e-10)

    def test_rollout_placeholders_before_enough_history(self):
        model = DrcModel.build(DrcConfig(past_frames=2), MQ, site_set(4), seed=2)
        observed = np.random.default_rng(25).normal(size=(3, 4))
        result = model.rollout(observed, horizon=3)
        assert result.loss_start == 1
        assert np.all(result.all_values[0] == 0.0)
        assert not np.allclose(result.all_values[1], 0.0)

    def test_rollout_requires_enough_frames(self):
        model = DrcModel.build(DrcConfig(past_frames=3), MQ, site_set(4), seed=3)
        with pytest.raises(ValueError):
            model.rollout(np.zeros((2, 4)), horizon=2)

    def test_rollout_deterministic(self):
        model = DrcModel.build(DrcConfig(), MQ, site_set(4), seed=4)
        observed = np.random.default_rng(26).normal(size=(3, 4))
        a = model.rollout(observed, horizon=3)
        b = model.rollout(observed, horizon=3)
        assert np.array_equal(a.all_values, b.all_values)
