import numpy as np
import pytest

from gravac.gradcore import SeededRng
from gravac.tasks import QuadraticBowl, SyntheticMlp, build_task


class TestQuadraticBowl:
    def test_zero_gradient_at_optimum(self):
        task = QuadraticBowl(size=16, noise_std=0.0)
        g, loss = task.gradient(task.w_star.copy(), 0, 1, SeededRng(0))
        assert loss == 0.0
        assert not g.values.any()

    def test_gradient_matches_finite_differences(self):
        task = QuadraticBowl(size=32, noise_std=0.0,
                             curvature=np.linspace(0.5, 3.0, 32))
        rng = np.random.default_rng(0)
        w = rng.standard_normal(32)
        g, _ = task.gradient(w, 0, 1, SeededRng(0))
        h = 1e-5
        for idx in rng.choice(32, size=10, replace=False):
            probe = w.copy()
            probe[idx] += h
            up = task.loss(probe)
            probe[idx] -= 2 * h
            down = task.loss(probe)
            central = (up - down) / (2 * h)
            np.testing.assert_allclose(g.values[idx], central, rtol=1e-4)

    def test_noise_averages_over_batch(self):
        loud = QuadraticBowl(size=64, noise_std=1.0, batch_size=1)
        quiet = QuadraticBowl(size=64, noise_std=1.0, batch_size=64)
        w = np.zeros(64) + 2.0
        spread = []
        for task in (loud, quiet):
            gs = [task.gradient(w, 0, i, SeededRng(1))[0].values for i in range(1, 40)]
            clean = task.curvature * (w - task.w_star)
            spread.append(np.mean([np.std(g - clean.astype(np.float32)) for g in gs]))
        assert spread[1] < spread[0] / 4  # ~1/sqrt(64)

    def test_deterministic_per_worker_and_iteration(self):
        task = QuadraticBowl(size=8, noise_std=0.5)
        w = np.ones(8)
        a = task.gradient(w, 1, 7, SeededRng(3))[0].values
        b = task.gradient(w, 1, 7, SeededRng(3))[0].values
        c = task.gradient(w, 2, 7, SeededRng(3))[0].values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_curvature(self):
        with pytest.raises(ValueError):
            QuadraticBowl(size=4, curvature=np.array([1.0, -1.0, 2.0, 3.0]))

    def test_rejects_nan_curvature(self):
        with pytest.raises(ValueError):
            QuadraticBowl(size=2, curvature=np.array([1.0, np.nan]))

    @pytest.mark.parametrize("noise_std", [-0.1, np.nan])
    def test_rejects_negative_or_nan_noise(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            QuadraticBowl(size=4, noise_std=noise_std)


class TestSyntheticMlp:
    def test_default_shape(self):
        task = SyntheticMlp()
        assert task.widths == (32, 64, 32, 2)
        # 32*64+64 + 64*32+32 + 32*2+2
        assert task.parameter_count == 4258
        assert len(task.layer_offsets) == 6
        assert task.layer_offsets[0] == 0

    def test_gradient_matches_finite_differences(self):
        task = SyntheticMlp(widths=(8, 12, 6, 2), batch_size=16)
        rng = SeededRng(5)
        w = task.initial_weights(rng)
        x, labels = task.sample_batch(SeededRng(9).generator, 16)
        g, loss = task.gradient_on(w, x, labels)
        assert loss > 0
        h = 1e-5
        picker = np.random.default_rng(2)
        for idx in picker.choice(task.parameter_count, size=10, replace=False):
            probe = w.copy()
            probe[idx] += h
            up = task.loss_on(probe, x, labels)
            probe[idx] -= 2 * h
            down = task.loss_on(probe, x, labels)
            central = (up - down) / (2 * h)
            np.testing.assert_allclose(g.values[idx], central, rtol=1e-3, atol=1e-9)

    def test_batches_are_seed_deterministic(self):
        task = SyntheticMlp()
        w = task.initial_weights(SeededRng(0))
        a = task.gradient(w, 0, 3, SeededRng(4))[0].values
        b = task.gradient(w, 0, 3, SeededRng(4))[0].values
        assert np.array_equal(a, b)

    def test_feature_spectrum_spans_decades(self):
        task = SyntheticMlp(widths=(16, 8, 2), blob_spread=2.0, feature_decades=3.0)
        sigma = task._sigma
        np.testing.assert_allclose(sigma[0] / sigma[-1], 1000.0, rtol=1e-9)

    def test_separation_is_distance_in_noise_units(self):
        for decades in (0.0, 4.0):
            task = SyntheticMlp(blob_distance=3.0, feature_decades=decades)
            gap = (task._means[1] - task._means[0]) / task._sigma
            np.testing.assert_allclose(np.linalg.norm(gap), 3.0, rtol=1e-9)

    def test_evaluate_reports_accuracy(self):
        task = SyntheticMlp(blob_distance=8.0)
        w = task.initial_weights(SeededRng(1))
        out = task.evaluate(w, SeededRng(2), n_samples=256)
        assert set(out) == {"accuracy", "loss"}
        assert 0.0 <= out["accuracy"] <= 1.0

    def test_rejects_non_binary_output(self):
        with pytest.raises(ValueError):
            SyntheticMlp(widths=(8, 4, 3))

    # a zero spread would put NaN in the blob means and abort the first step
    @pytest.mark.parametrize("name,value", [
        ("blob_spread", 0.0), ("blob_spread", -1.0), ("blob_spread", np.nan),
        ("blob_distance", -1.0), ("blob_distance", np.nan), ("feature_decades", np.nan)])
    def test_rejects_out_of_range_blob_geometry(self, name, value):
        with pytest.raises(ValueError, match=name):
            SyntheticMlp(**{name: value})


class TestBuildTask:
    def test_factory_dispatch(self):
        assert isinstance(build_task("quadratic", size=4), QuadraticBowl)
        assert isinstance(build_task("synthetic_mlp"), SyntheticMlp)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_task("transformer")
