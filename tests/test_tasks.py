import itertools
import tracemalloc

import numpy as np
import pytest

from gravac import tasks
from gravac.gradcore import REDUCE_BLOCK, GradientVector, SeededRng, dot64, normal32
from gravac.tasks import _EVAL, QuadraticBowl, SyntheticMlp, _cross_entropy


def per_worker_quadratic_gradient(task, w, worker, iteration, rng):
    """One worker's gradient as ``QuadraticBowl.gradient``'s docstring states it.

    The noise is float32 Box–Muller normals, 2**16 at a time: a block of n
    takes 2h uniforms (h = ceil(n / 2)), u1 then u2, and holds the h values
    r·cos(2π·u2) followed by the first n - h values r·sin(2π·u2), where
    r = sqrt(-2·log(1 - u1)).
    """
    grad = (task.curvature * np.asarray(w, dtype=np.float64)).astype(np.float32)
    if task.noise_std > 0.0:
        gen = rng.split(0, worker, iteration).generator
        noise = []
        for start in range(0, task.size, 1 << 16):
            n = min(1 << 16, task.size - start)
            h = (n + 1) // 2
            u = gen.random(2 * h, dtype=np.float32)
            r = np.sqrt(np.float32(-2) * np.log(np.float32(1) - u[:h]))
            t = np.float32(2 * np.pi) * u[h:]
            noise += [r * np.cos(t), (r * np.sin(t))[:n - h]]
        scale = np.float32(task.noise_std / np.sqrt(task.batch_size))
        grad = np.concatenate(noise) * scale + grad
    return GradientVector(grad), task.loss(w)


def reference_mlp_gradient(task, w, x, labels, dtype):
    """The MLP's gradient and loss on one batch with every array in ``dtype``."""
    layers = [(w[weight].reshape(shape).astype(dtype), w[bias].astype(dtype))
              for weight, shape, bias in task._layout]
    activations = [x.astype(dtype)]
    for weight, bias in layers[:-1]:
        activations.append(np.tanh(activations[-1] @ weight + bias))
    logits = activations[-1] @ layers[-1][0] + layers[-1][1]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    delta = exp / exp.sum(axis=1, keepdims=True)
    delta[np.arange(len(labels)), labels] -= 1.0
    delta /= len(labels)
    parts = []
    for layer_idx in range(len(layers) - 1, -1, -1):
        parts[:0] = [(activations[layer_idx].T @ delta).ravel(), delta.sum(axis=0)]
        if layer_idx > 0:
            delta = (delta @ layers[layer_idx][0].T) * (1.0 - activations[layer_idx] ** 2)
    return np.concatenate(parts).astype(np.float32), _cross_entropy(logits, labels)


def training_batch(task, gen, n):
    """An MLP training batch as ``sample_batch``'s docstring states it: the
    labels, then ``normal32`` over n·d entries as n rows, times the float32
    noise scales plus the float32 class means, in float32."""
    labels = gen.integers(0, 2, size=n)
    z = normal32(gen, n * task.widths[0]).reshape(n, task.widths[0])
    return (z * task._sigma.astype(np.float32)
            + task._means.astype(np.float32)[labels]).astype(np.float32), labels


def full_batch_evaluation(task, w, rng, n_samples):
    """The MLP evaluation as one draw and one forward: all labels, then all features."""
    gen = rng.split(_EVAL).generator
    labels = gen.integers(0, 2, size=n_samples)
    x = gen.standard_normal((n_samples, task.widths[0])) * task._sigma + task._means[labels]
    logits = task._forward(w, x)[0]
    return {"accuracy": float(np.mean(np.argmax(logits, axis=1) == labels)),
            "loss": _cross_entropy(logits, labels)}


class TestQuadraticBowl:
    def test_zero_gradient_at_optimum(self):
        task = QuadraticBowl(size=16, noise_std=0.0)
        g, loss = task.gradient(np.zeros(16), 0, 1, SeededRng(0))
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
            clean = task.curvature * w
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
                             curvature=gen.uniform(0.1, 3.0, size))
        w = gen.standard_normal(size)
        w_before = w.copy()
        grads, losses = zip(*task.gradients(w, 4, 9, SeededRng(6)))
        assert len(grads) == len(losses) == 4
        for worker, (g, loss) in enumerate(zip(grads, losses)):
            ref, ref_loss = per_worker_quadratic_gradient(task, w, worker, 9, SeededRng(6))
            assert g.values.tobytes() == ref.values.tobytes()
            assert loss == ref_loss
            single, single_loss = task.gradient(w, worker, 9, SeededRng(6))
            assert single.values.tobytes() == ref.values.tobytes() and single_loss == ref_loss
        assert np.array_equal(w, w_before)

    def test_noise_follows_the_formula_across_blocks(self):
        # three full blocks, then a one-entry block whose sin half is empty
        size = 3 * REDUCE_BLOCK + 1
        task = QuadraticBowl(size=size, noise_std=0.3, batch_size=2)
        w = np.ones(size)
        g, _ = task.gradient(w, 1, 4, SeededRng(8))
        ref, _ = per_worker_quadratic_gradient(task, w, 1, 4, SeededRng(8))
        assert g.values.tobytes() == ref.values.tobytes()

    # at 1e300 the float32 cast of the noise scale overflows; at 4e38 the
    # scale (2.8e38 at batch size 2) is finite and its product overflows.
    # The training loop's error state turns either into a divergence
    @pytest.mark.parametrize("noise_std,operation", [(1e300, "cast"), (4e38, "multiply")])
    def test_overflowing_noise_raises(self, noise_std, operation):
        size = REDUCE_BLOCK + 3
        task = QuadraticBowl(size=size, noise_std=noise_std, batch_size=2)
        with np.errstate(over="raise", invalid="raise"), pytest.raises(
                FloatingPointError, match=f"overflow encountered in {operation}"):
            task.gradient(np.ones(size), 0, 1, SeededRng(3))

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_noise_rows_have_the_batch_mean_distribution(self, batch_size):
        size, sigma = 100_000, 0.5
        var = sigma ** 2 / batch_size
        task = QuadraticBowl(size=size, noise_std=sigma, batch_size=batch_size)
        w = np.full(size, 2.0)
        rows = {}
        for iteration in (1, 2):
            grads, _ = zip(*task.gradients(w, 3, iteration, SeededRng(4)))
            again, _ = zip(*task.gradients(w, 3, iteration, SeededRng(4)))
            for worker, (g, h) in enumerate(zip(grads, again)):
                assert g.values.tobytes() == h.values.tobytes()
                noise = g.values.astype(np.float64) - 2.0
                # five standard errors of the sample mean and variance
                assert abs(noise.mean()) < 5 * np.sqrt(var / size)
                assert abs(noise.var() / var - 1.0) < 5 * np.sqrt(2.0 / size)
                rows[worker, iteration] = noise
        for a, b in itertools.combinations(rows.values(), 2):
            assert abs(np.corrcoef(a, b)[0, 1]) < 5 / np.sqrt(size)

    def test_rejects_bad_curvature(self):
        with pytest.raises(ValueError):
            QuadraticBowl(size=4, curvature=np.array([1.0, -1.0, 2.0, 3.0]))

    def test_rejects_nan_curvature(self):
        with pytest.raises(ValueError):
            QuadraticBowl(size=2, curvature=np.array([1.0, np.nan]))

    def test_default_constants_are_views_that_change_no_result(self):
        size = 20_000
        default = QuadraticBowl(size=size, noise_std=0.3)
        explicit = QuadraticBowl(size=size, noise_std=0.3, curvature=np.ones(size))
        assert default.curvature.strides == (0,) and not default.curvature.flags.writeable
        assert default.initial_weights(None).tobytes() == explicit.initial_weights(None).tobytes()
        w = np.random.default_rng(3).standard_normal(size)
        assert default.loss(w) == explicit.loss(w)
        grads, losses = zip(*default.gradients(w, 2, 5, SeededRng(7)))
        ref_grads, ref_losses = zip(*explicit.gradients(w, 2, 5, SeededRng(7)))
        assert [g.values.tobytes() for g in grads] == [g.values.tobytes() for g in ref_grads]
        assert losses == ref_losses

    @pytest.mark.parametrize("size", [1, REDUCE_BLOCK, 2 * REDUCE_BLOCK + 3])
    def test_blocked_noiseless_part_equals_the_whole_vector_formula(self, size):
        # the gradient passes through block-sized float64 scratch, and the
        # loss adds dot64's block sums in dot64's order: same bits, and no
        # float64 array of the task's size (there were two)
        rng = np.random.default_rng(size)
        curvature = rng.uniform(0.5, 2.0, size)
        task = QuadraticBowl(size=size, curvature=curvature)
        w = rng.standard_normal(size)
        grad = curvature * w
        g, loss = task.gradient(w, 0, 1, SeededRng(0))
        assert g.values.tobytes() == grad.astype(np.float32).tobytes()
        assert loss == 0.5 * dot64(grad, w)
        tracemalloc.start()
        try:
            task.loss(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * size + 2 * 8 * REDUCE_BLOCK + 4096

    def test_rejects_weights_of_another_shape(self):
        with pytest.raises(ValueError, match="shape"):
            QuadraticBowl(size=4).loss(np.zeros(5))

    @pytest.mark.parametrize("noise_std", [-0.1, np.nan])
    def test_rejects_negative_or_nan_noise(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            QuadraticBowl(size=4, noise_std=noise_std)

    # -0.0 starts at +0.0
    @pytest.mark.parametrize("init_offset, start", [(-0.0, 0.0), (0.0, 0.0), (-2.5, -2.5)])
    def test_initial_weights_sit_init_offset_from_the_origin(self, init_offset, start):
        w = QuadraticBowl(size=3, init_offset=init_offset).initial_weights(None)
        assert w.tobytes() == np.full(3, start).tobytes() and w.flags.writeable

    def test_optimum_argument_is_gone(self):
        with pytest.raises(TypeError):
            QuadraticBowl(size=2, w_star=np.zeros(2))


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
            up = task.gradient_on(probe, x, labels)[1]
            probe[idx] -= 2 * h
            down = task.gradient_on(probe, x, labels)[1]
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
        grads, losses = zip(*task.gradients(w, 3, 4, SeededRng(8)))
        for worker, (g, loss) in enumerate(zip(grads, losses)):
            ref, ref_loss = task.gradient(w, worker, 4, SeededRng(8))
            assert g.values.tobytes() == ref.values.tobytes() and loss == ref_loss

    def test_worker_gradients_are_computed_in_float32(self, monkeypatch):
        # float64 master weights, float32 forward and backward: the flat
        # gradient the backward fills is the one sent, with no cast copy
        task = SyntheticMlp(widths=(16, 12, 6, 2), batch_size=8, feature_decades=2.0)
        w = task.initial_weights(SeededRng(0))
        wrapped = []

        def spy(values):
            wrapped.append(values)
            return GradientVector(values)

        monkeypatch.setattr(tasks, "GradientVector", spy)
        grads = [task.gradient(w, 0, 3, SeededRng(4)), *task.gradients(w, 2, 3, SeededRng(4))]
        x, labels = task.sample_batch(SeededRng(4).split(0, 0, 3).generator, 8)
        ref, ref_loss = reference_mlp_gradient(task, w, x, labels, np.float32)
        assert len(wrapped) == len(grads) == 3
        for (g, _), raw in zip(grads, wrapped):
            assert raw.dtype == np.float32 and np.shares_memory(raw, g.values)
        for g, loss in grads[:2]:
            assert g.values.tobytes() == ref.tobytes() and loss == ref_loss

    def test_gradients_cast_the_weights_once_per_iteration(self):
        task = SyntheticMlp(widths=(8, 6, 2), batch_size=4)
        w = task.initial_weights(SeededRng(0))
        given = []
        gradient = task.gradient

        def spy(w32, *args):
            given.append(w32)
            return gradient(w32, *args)

        task.gradient = spy
        list(task.gradients(w, 3, 1, SeededRng(2)))
        assert len(given) == 3 and given[0].dtype == np.float32
        assert all(w32 is given[0] for w32 in given)

    def test_float64_weights_keep_the_float64_gradient(self):
        task = SyntheticMlp(widths=(16, 12, 6, 2), batch_size=8, feature_decades=2.0)
        w = task.initial_weights(SeededRng(0))
        x, labels = task.sample_batch(SeededRng(9).generator, 8)
        g64, loss64 = task.gradient_on(w, x, labels)
        ref, ref_loss = reference_mlp_gradient(task, w, x, labels, np.float64)
        assert g64.values.tobytes() == ref.tobytes() and loss64 == ref_loss
        g32, loss32 = task.gradient_on(w.astype(np.float32), x, labels)
        assert g32.values.tobytes() != g64.values.tobytes()
        scale = np.abs(g64.values).max()
        np.testing.assert_allclose(g32.values, g64.values, rtol=1e-4, atol=1e-5 * scale)
        assert loss32 == pytest.approx(loss64, rel=1e-5)

    @pytest.mark.parametrize("widths,n", [
        pytest.param((8, 6, 2), 1, id="one_row"),
        pytest.param((24, 6, 2), 5, id="odd_rows"),
        pytest.param((1024, 16, 2), 64, id="one_full_block"),
        pytest.param((1000, 16, 2), 70, id="partial_block")])
    def test_training_batch_is_float32_box_muller(self, widths, n):
        task = SyntheticMlp(widths=widths, batch_size=n, blob_spread=2.0, feature_decades=3.0)
        x, labels = task.sample_batch(SeededRng(3).split(0, 1, 2).generator, n)
        ref_x, ref_labels = training_batch(task, SeededRng(3).split(0, 1, 2).generator, n)
        assert x.dtype == np.float32 and x.shape == (n, widths[0])
        assert x.tobytes() == ref_x.tobytes() and np.array_equal(labels, ref_labels)
        # the float32 forward takes the batch itself, with no cast copy
        w = task.initial_weights(SeededRng(0))
        assert task._forward(w.astype(np.float32), x)[1][0] is x
        g, loss = task.gradient(w, 1, 2, SeededRng(3))
        ref, ref_loss = reference_mlp_gradient(task, w, ref_x, ref_labels, np.float32)
        assert g.values.tobytes() == ref.tobytes() and loss == ref_loss

    def test_training_batch_moments(self):
        # per class, each column's mean is its class mean and its standard
        # deviation its noise scale, within about five standard errors
        task = SyntheticMlp(widths=(16, 4, 2), blob_distance=3.0, blob_spread=2.0,
                            feature_decades=2.0)
        x, labels = task.sample_batch(SeededRng(6).generator, 4000)
        for label in (0, 1):
            z = (x[labels == label] - task._means[label]) / task._sigma
            rows = len(z)
            assert rows > 1800
            assert np.abs(z.mean(axis=0)).max() < 5 / np.sqrt(rows)
            assert np.abs(z.std(axis=0) - 1).max() < 5 / np.sqrt(2 * rows)

    def test_training_batch_beyond_float32_is_rejected(self):
        # scales past the float32 range would give non-finite features
        with pytest.raises(ValueError, match="blob_spread 1e\\+160"):
            SyntheticMlp(widths=(8, 4, 2), blob_spread=1e160, feature_decades=4.0)

    @pytest.mark.parametrize("width", [1, 7, 300])
    @pytest.mark.parametrize("distance", [0.0, 3.0, 1e30])
    def test_float32_bound_holds_at_its_boundary(self, width, distance):
        # the largest spread the bound accepts gives finite float32 batches;
        # the next float above it is rejected
        factor = 6 + distance / 2
        spread = tasks.FEATURE_LIMIT / factor
        while factor * spread > tasks.FEATURE_LIMIT:
            spread = np.nextafter(spread, 0)
        while factor * np.nextafter(spread, np.inf) <= tasks.FEATURE_LIMIT:
            spread = np.nextafter(spread, np.inf)
        task = SyntheticMlp(widths=(width, 2), blob_distance=distance, blob_spread=float(spread))
        with np.errstate(all="raise"):
            for seed in range(5):
                x, _ = task.sample_batch(SeededRng(seed).generator, 64)
                assert np.isfinite(x).all()
        with pytest.raises(ValueError, match="blob_spread .* and blob_distance"):
            SyntheticMlp(widths=(width, 2), blob_distance=distance,
                         blob_spread=float(np.nextafter(spread, np.inf)))

    def test_feature_spectrum_spans_decades(self):
        task = SyntheticMlp(widths=(16, 8, 2), blob_spread=2.0, feature_decades=3.0)
        sigma = task._sigma
        np.testing.assert_allclose(sigma[0] / sigma[-1], 1000.0, rtol=1e-9)

    def test_separation_is_distance_in_noise_units(self):
        for decades in (0.0, 4.0):
            task = SyntheticMlp(blob_distance=3.0, feature_decades=decades)
            assert np.isfinite(task._means).all()
            gap = (task._means[1] - task._means[0]) / task._sigma
            np.testing.assert_allclose(np.linalg.norm(gap), 3.0, rtol=1e-9)

    def test_evaluate_reports_accuracy(self):
        task = SyntheticMlp(blob_distance=8.0)
        w = task.initial_weights(SeededRng(1))
        out = task.evaluate(w, SeededRng(2), n_samples=256)
        assert set(out) == {"accuracy", "loss"}
        assert 0.0 <= out["accuracy"] <= 1.0

    @pytest.mark.parametrize("widths,n_samples", [
        *(((8, 12, 6, 2), n) for n in (1, 255, 256, 257, 2048)), ((1024, 16, 2), 600)])
    def test_blocked_evaluation_equals_one_full_batch(self, widths, n_samples):
        task = SyntheticMlp(widths=widths, blob_spread=2.0, feature_decades=3.0)
        w = task.initial_weights(SeededRng(1))
        out = task.evaluate(w, SeededRng(2), n_samples)
        assert out == full_batch_evaluation(task, w, SeededRng(2), n_samples)

    def test_evaluation_memory_is_bounded_by_its_block(self):
        # one full batch of 2048 x 1024 float64 features and its class-mean
        # temporary peaked at 32 MiB; a block of rows needs about 4 MiB
        task = SyntheticMlp(widths=(1024, 8, 2))
        w = task.initial_weights(SeededRng(1))
        tracemalloc.start()
        try:
            task.evaluate(w, SeededRng(2), 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

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

    # at 1e-300 the separation direction's norm underflows to zero before
    # it divides; at 1e308 and inf the direction and the features it
    # shifts would not fit float32, which the float32 bound rejects first
    @pytest.mark.parametrize("spread", [1e-300, 1e308, np.inf])
    def test_rejects_spread_without_a_separation_direction(self, spread):
        match = "separation direction" if spread < 1 else "blob_spread .* and blob_distance"
        with pytest.raises(ValueError, match=match):
            SyntheticMlp(widths=(8, 4, 2), blob_spread=spread)

    def test_rejects_class_means_that_overflow(self):
        # each factor is finite, but their product is not: the features
        # would be infinite and the first step would abort
        with pytest.raises(ValueError, match="blob_spread 1e\\+100 and blob_distance 1e\\+300"):
            SyntheticMlp(widths=(8, 4, 2), blob_spread=1e100, blob_distance=1e300)



@pytest.mark.parametrize("make_task", [lambda: QuadraticBowl(size=16, noise_std=0.5),
                                       lambda: SyntheticMlp(widths=(8, 6, 2), batch_size=4)])
def test_gradients_draws_each_worker_only_when_asked(make_task):
    # the training loop folds each gradient into its residual before it
    # asks for the next, so no two raw gradients need be alive
    task = make_task()
    w = task.initial_weights(SeededRng(0))
    drawn = []
    gradient = task.gradient

    def spy(w, worker, *args):
        drawn.append(worker)
        return gradient(w, worker, *args)

    task.gradient = spy
    workers = task.gradients(w, 3, 1, SeededRng(2))
    assert drawn == []
    for worker in range(3):
        next(workers)
        assert drawn == list(range(worker + 1))
    assert next(workers, None) is None
