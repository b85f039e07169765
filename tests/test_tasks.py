import numpy as np
import pytest

from gravac.gradcore import GradientVector, SeededRng
from gravac.tasks import QuadraticBowl, SyntheticMlp


def per_worker_quadratic_gradient(task, w, worker, iteration, rng):
    """The quadratic's gradient as it was drawn before ``gradients`` existed."""
    d = np.asarray(w, dtype=np.float64) - task.w_star
    grad = task.curvature * d
    if task.noise_std > 0.0:
        gen = rng.split(0, worker, iteration).generator
        noise = gen.standard_normal((task.batch_size, task.size))
        grad = grad + task.noise_std * noise.mean(axis=0)
    return GradientVector(grad), task.loss(w)


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

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("noise_std", [0.0, 0.7])
    def test_gradients_bitwise_equal_per_worker_formula(self, batch_size, noise_std):
        size = 257
        gen = np.random.default_rng(batch_size)
        task = QuadraticBowl(size=size, noise_std=noise_std, batch_size=batch_size,
                             curvature=gen.uniform(0.1, 3.0, size),
                             w_star=gen.standard_normal(size))
        w = gen.standard_normal(size)
        w_before = w.copy()
        grads, losses = task.gradients(w, 4, 9, SeededRng(6))
        assert len(grads) == len(losses) == 4
        for worker, (g, loss) in enumerate(zip(grads, losses)):
            ref, ref_loss = per_worker_quadratic_gradient(task, w, worker, 9, SeededRng(6))
            assert g.values.tobytes() == ref.values.tobytes()
            assert loss == ref_loss
            single, single_loss = task.gradient(w, worker, 9, SeededRng(6))
            assert single.values.tobytes() == ref.values.tobytes() and single_loss == ref_loss
        assert np.array_equal(w, w_before)

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

    def test_gradients_are_the_per_worker_gradients(self):
        task = SyntheticMlp(widths=(8, 6, 2), batch_size=5)
        w = task.initial_weights(SeededRng(0))
        grads, losses = task.gradients(w, 3, 4, SeededRng(8))
        for worker, (g, loss) in enumerate(zip(grads, losses)):
            ref, ref_loss = task.gradient(w, worker, 4, SeededRng(8))
            assert g.values.tobytes() == ref.values.tobytes() and loss == ref_loss

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

    # the separation direction's norm under- or overflows before it divides
    @pytest.mark.parametrize("spread", [1e-300, np.inf])
    def test_rejects_spread_without_a_separation_direction(self, spread):
        with pytest.raises(ValueError, match="separation direction"):
            SyntheticMlp(widths=(8, 4, 2), blob_spread=spread)

    @pytest.mark.parametrize("seed", [-1, 2**53])
    def test_rejects_out_of_range_data_seed(self, seed):
        with pytest.raises(ValueError, match="data_seed"):
            SyntheticMlp(data_seed=seed)

