import numpy as np
import pytest
from numpy.testing import assert_allclose

from umtn import evaluation
from umtn.datagen import SequenceDataset
from umtn.errors import ConfigError, DataError
from umtn.evaluation import EvalReport, evaluate_model, mae, persistence_baseline
from umtn.interpolation import SiteSet
from umtn.kernels import KernelFamily, RadialKernel
from umtn.model import ModelConfig, UmtnModel

MQ = RadialKernel(KernelFamily.MULTIQUADRIC, 0.8)

TINY = ModelConfig(levels=1, feature_width=2, s_alpha_hidden=(6, 4), nab_hidden=3, rfn_hidden=6)


def prenormalized_dataset(seqs, tau, n_sites=None, seed=0):
    """Dataset flagged as already normalized so scoring uses the raw numbers."""
    seqs = np.asarray(seqs, dtype=float)
    n = seqs.shape[2] if n_sites is None else n_sites
    sites = SiteSet(np.random.default_rng(seed).uniform(0.0, 2.0, (n, 2)))
    counts = (seqs.shape[0] - 2, 1, 1) if seqs.shape[0] > 2 else (0, seqs.shape[0] - 1, 1)
    return SequenceDataset(sites, seqs, counts, tau=tau, mean=0.0, variance=1.0, normalized=True)


class TestMae:
    def test_exact_small_cases(self):
        assert mae([1.0, 2.0], [2.0, 4.0]) == 1.5
        assert mae(np.zeros((2, 3)), np.zeros((2, 3))) == 0.0
        assert mae([[1.0, -1.0]], [[-1.0, 1.0]]) == 2.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert mae(a, b) == mae(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("seed", range(20))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, 5, 4))
        assert mae(a, c) <= mae(a, b) + mae(b, c) + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_scale_equivariance(self, seed):
        rng = np.random.default_rng(100 + seed)
        a, b = rng.normal(size=(2, 6))
        s = float(rng.uniform(0.1, 5.0))
        assert mae(s * a, s * b) == pytest.approx(s * mae(a, b), rel=1e-12)


def constant_model(dataset, bias):
    model = UmtnModel.build(TINY, MQ, dataset.sites, seed=0)
    for name in model.params.names():
        model.params[name].values[:] = 0.0
    model.params["rfn.bo"].values[:] = bias
    return model


class TestEvaluateModel:
    def test_single_run_flags_degenerate_std(self):
        ds = prenormalized_dataset(np.random.default_rng(1).normal(size=(3, 5, 4)), tau=2)
        report = evaluate_model(constant_model(ds, 0.0), ds)
        assert report.n_runs == 1
        assert report.mae_std == 0.0
        assert report.std_degenerate

    def test_constant_predictor_hand_recomputation(self):
        """Closed-form check: a constant predictor's errors are |u - b|."""
        rng = np.random.default_rng(2)
        seqs = rng.normal(size=(4, 6, 3))
        ds = prenormalized_dataset(seqs, tau=2)
        bias = 0.4
        report = evaluate_model(constant_model(ds, bias), ds, split="test")
        test_seqs = ds.split_values("test")
        abs_err = np.abs(test_seqs[:, 2:, :] - bias)
        assert report.mae_mean == pytest.approx(abs_err.mean(), rel=1e-12)
        assert_allclose(report.per_step, abs_err.mean(axis=(0, 2)), rtol=1e-12)
        assert_allclose(report.per_site, abs_err.mean(axis=(0, 1)), rtol=1e-12)
        assert report.tau == 2 and report.horizon == 4

    def test_two_runs_sample_std(self):
        ds = prenormalized_dataset(np.random.default_rng(3).normal(size=(3, 5, 4)), tau=2)
        models = [constant_model(ds, 0.0), constant_model(ds, 1.0)]
        report = evaluate_model(models, ds, seeds=[0, 1])
        assert report.n_runs == 2
        assert not report.std_degenerate
        assert report.mae_std == pytest.approx(np.std(report.per_run, ddof=1))
        assert report.seeds == [0, 1]

    def test_breakdowns_average_back_to_mean(self):
        ds = prenormalized_dataset(np.random.default_rng(4).normal(size=(4, 6, 5)), tau=3)
        report = evaluate_model(constant_model(ds, 0.2), ds)
        assert np.mean(report.per_step) == pytest.approx(report.mae_mean, rel=1e-10)
        assert np.mean(report.per_site) == pytest.approx(report.mae_mean, rel=1e-10)
        assert report.per_step.shape == (3,)
        assert report.per_site.shape == (5,)

    def test_parameters_unchanged_by_evaluation(self):
        ds = prenormalized_dataset(np.random.default_rng(5).normal(size=(3, 5, 4)), tau=2)
        model = UmtnModel.build(TINY, MQ, ds.sites, seed=3)
        before = model.params.snapshot()
        evaluate_model(model, ds)
        after = model.params.snapshot()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_empty_split_rejected(self):
        seqs = np.random.default_rng(6).normal(size=(2, 5, 4))
        ds = prenormalized_dataset(seqs, tau=2)  # split (0, 1, 1)
        with pytest.raises(ConfigError):
            evaluate_model(constant_model(ds, 0.0), ds, split="train")

    def test_foreign_model_rejected(self):
        ds = prenormalized_dataset(np.random.default_rng(7).normal(size=(3, 5, 4)), tau=2)
        other = prenormalized_dataset(np.random.default_rng(8).normal(size=(3, 5, 4)), tau=2, seed=9)
        model = constant_model(other, 0.0)
        with pytest.raises(DataError):
            evaluate_model(model, ds)

    def test_report_dict_structure(self):
        ds = prenormalized_dataset(np.random.default_rng(9).normal(size=(3, 5, 4)), tau=2)
        data = evaluate_model(constant_model(ds, 0.0), ds).to_dict()
        assert data["protocol"] == {"tau": 2, "horizon": 3, "n_runs": 1, "split": "test"}
        assert len(data["per_step"]) == 3
        assert isinstance(data["per_step"][0], float)


class TestForecastBlocks:
    """A split larger than FORECAST_ROWS rows is forecast in bounded blocks."""

    N_SITES, N_TEST, TAU, HORIZON = 20, 250, 2, 3  # 5000 rows, blocks of 204 sequences

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(13)
        sites = SiteSet(rng.uniform(0.0, 2.0, (self.N_SITES, 2)))
        seqs = rng.normal(size=(self.N_TEST + 2, self.TAU + self.HORIZON, self.N_SITES))
        ds = SequenceDataset(sites, seqs, (1, 1, self.N_TEST), tau=self.TAU, mean=0.0, variance=1.0, normalized=True)
        return ds, UmtnModel.build(TINY, MQ, sites, seed=3)

    def test_rollouts_never_exceed_the_block(self, case, monkeypatch):
        ds, model = case
        rows = []
        rollout = UmtnModel.rollout

        def counted(self, observed, *args, **kwargs):
            rows.append(observed.shape[0] * observed.shape[-1])
            return rollout(self, observed, *args, **kwargs)

        spatial_net = UmtnModel.spatial_feature_tensors
        nets = []
        monkeypatch.setattr(UmtnModel, "rollout", counted)
        monkeypatch.setattr(UmtnModel, "spatial_feature_tensors", lambda self: nets.append(1) or spatial_net(self))
        evaluate_model(model, ds)
        assert self.N_TEST * self.N_SITES > evaluation.FORECAST_ROWS
        assert len(rows) > 1 and max(rows) <= evaluation.FORECAST_ROWS
        assert sum(rows) == self.N_TEST * self.N_SITES
        assert len(nets) == 1  # the blocks share one evaluation of the spatial net

    def test_breakdowns_match_one_batch_rollout(self, case):
        ds, model = case
        test = ds.split_values("test")
        abs_err = np.abs(test[:, self.TAU :] - model.rollout(test[:, : self.TAU], self.HORIZON).predictions)
        report = evaluate_model(model, ds)
        assert_allclose(report.per_step, abs_err.mean(axis=(0, 2)), rtol=0, atol=1e-11)
        assert_allclose(report.per_site, abs_err.mean(axis=(0, 1)), rtol=0, atol=1e-11)


class TestPersistenceBaseline:
    def test_constant_sequences_score_zero(self):
        ds = prenormalized_dataset(np.full((3, 5, 4), 2.0), tau=2)
        assert persistence_baseline(ds).mae_mean == 0.0

    def test_linear_ramp_oracle(self):
        """u_t = t at one site, tau = 1: frozen frame 0 against targets 1, 2."""
        seqs = np.arange(3.0)[None, :, None].repeat(3, axis=0)
        ds = prenormalized_dataset(seqs, tau=1)
        report = persistence_baseline(ds)
        assert report.mae_mean == pytest.approx(1.5)
        assert_allclose(report.per_step, [1.0, 2.0])

    def test_site_permutation_invariant(self):
        rng = np.random.default_rng(10)
        seqs = rng.normal(size=(4, 6, 5))
        perm = rng.permutation(5)
        a = persistence_baseline(prenormalized_dataset(seqs, tau=2))
        b = persistence_baseline(prenormalized_dataset(seqs[:, :, perm], tau=2))
        assert a.mae_mean == pytest.approx(b.mae_mean, rel=1e-12)

    def test_single_run_convention(self):
        ds = prenormalized_dataset(np.random.default_rng(11).normal(size=(3, 5, 4)), tau=2)
        report = persistence_baseline(ds)
        assert report.n_runs == 1 and report.std_degenerate

    def test_normalization_applied_to_raw_dataset(self):
        """A raw dataset is scored on the normalized scale."""
        rng = np.random.default_rng(12)
        sites = SiteSet(rng.uniform(0.0, 2.0, (4, 2)))
        seqs = rng.normal(5.0, 3.0, size=(4, 6, 4))
        raw = SequenceDataset(sites, seqs, (2, 1, 1), tau=2)
        scored = persistence_baseline(raw)
        manual = persistence_baseline(raw.normalize())
        assert scored.mae_mean == pytest.approx(manual.mae_mean, rel=1e-12)
        # raw-scale errors would differ by the training std
        raw_scale = np.abs(seqs[3:, 2:, :] - seqs[3:, 1:2, :]).mean()
        assert scored.mae_mean != pytest.approx(raw_scale, rel=1e-3)
