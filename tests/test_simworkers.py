import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from gravac.compressors import CompressorKind
from gravac.controller import ControllerConfig
from gravac.costmodel import CostModelParams
from gravac.gradcore import REDUCE_BLOCK, GradientVector
from gravac.simworkers import (DivergenceError, IterationRecord, OptimizerState,
                               RunTrace, run_training, sgd_update)
from gravac.tasks import QuadraticBowl, SyntheticMlp

TOPK = CompressorKind("topk")


def quadratic_setup(size=64, noise_std=0.0, lr=0.05, momentum=0.0, workers=4,
                    batch_size=1, **task_kwargs):
    task = QuadraticBowl(size=size, noise_std=noise_std, batch_size=batch_size,
                         **task_kwargs)
    cost = CostModelParams(workers=workers)
    opt = OptimizerState(weights=np.zeros(size), lr=lr, momentum=momentum)
    return task, opt, cost


class TestSgdUpdate:
    def test_plain_step_without_momentum(self):
        opt = OptimizerState(weights=np.array([1.0, 2.0]), lr=0.1)
        sgd_update(opt, GradientVector([10.0, -10.0]))
        np.testing.assert_allclose(opt.weights, [0.0, 3.0])

    def test_two_momentum_steps_hand_unrolled(self):
        opt = OptimizerState(weights=np.array([1.0]), lr=0.1, momentum=0.9)
        sgd_update(opt, GradientVector([2.0]))
        sgd_update(opt, GradientVector([1.0]))
        # buffers: b1 = 2; b2 = 0.9*2 + 1 = 2.8
        # weights: 1 - 0.1*2 = 0.8; 0.8 - 0.1*2.8 = 0.52
        np.testing.assert_allclose(opt.weights, [0.52], rtol=1e-12)

    def test_momentum_free_state_allocates_no_buffer(self):
        # the buffer is never read without momentum; it was an np.zeros
        # array of the weights' size, resident once it landed in reused heap
        weights = np.zeros(1 << 16)
        tracemalloc.start()
        try:
            opt = OptimizerState(weights=weights, lr=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < weights.nbytes // 8
        assert opt.buffer.strides == (0,) and not opt.buffer.flags.writeable
        sgd_update(opt, GradientVector(np.ones(weights.size)))
        assert (opt.weights == -0.5).all() and not opt.buffer.any()

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_step_allocates_one_block_of_scratch(self, momentum):
        # the step once cast the whole update to float64: 8 * M bytes
        m = 1 << 18
        opt = OptimizerState(weights=np.zeros(m), lr=0.1, momentum=momentum)
        grad = GradientVector(np.ones(m, dtype=np.float32))
        tracemalloc.start()
        try:
            sgd_update(opt, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * REDUCE_BLOCK + 4096

    @pytest.mark.parametrize("m", [1, REDUCE_BLOCK - 1, REDUCE_BLOCK, REDUCE_BLOCK + 1,
                                   3 * REDUCE_BLOCK + 5])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_blocks_give_the_bits_of_the_whole_vector_step(self, m, momentum):
        rng = np.random.default_rng(m)
        weights = rng.standard_normal(m)
        weights[::7] = -0.0
        opt = OptimizerState(weights=weights.copy(), lr=0.05, momentum=momentum)
        w, buffer = weights, np.zeros(m)
        for _ in range(3):
            update = rng.standard_normal(m).astype(np.float32)
            update[::5] = 0.0
            update[1::5] = -0.0
            sgd_update(opt, GradientVector(update))
            g = update.astype(np.float64)
            if momentum:
                buffer *= momentum
                buffer += g
                np.multiply(buffer, 0.05, out=g)
            else:
                g *= 0.05
            w -= g
            assert opt.weights.tobytes() == w.tobytes()
            if momentum:
                assert opt.buffer.tobytes() == buffer.tobytes()

    def test_length_mismatch_rejected(self):
        opt = OptimizerState(weights=np.zeros(3), lr=0.1)
        with pytest.raises(ValueError):
            sgd_update(opt, GradientVector([1.0]))

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            OptimizerState(weights=np.zeros(2), lr=0.0)
        with pytest.raises(ValueError):
            OptimizerState(weights=np.zeros(2), lr=0.1, momentum=1.0)

    def test_nan_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            OptimizerState(weights=np.zeros(2), lr=np.nan)


class TestDenseTraining:
    def test_quadratic_loss_decays_at_closed_form_rate(self):
        """Noise-free diagonal quadratic under plain SGD contracts each
        coordinate by (1 - lr*curvature) per step, so the loss after T steps
        is exactly sum of 0.5*c*d0^2*(1-lr*c)^(2T)."""
        curvature = np.linspace(0.2, 1.5, 32)
        task, opt, cost = quadratic_setup(size=32, lr=0.1, workers=2,
                                          curvature=curvature)
        iters = 40
        result = run_training(task, opt, cost, "dense", iters, seed=0)
        d0 = task.init_offset
        expected = 0.5 * np.sum(curvature * d0**2 * (1 - 0.1 * curvature) ** (2 * iters))
        final = task.loss(result.weights)
        np.testing.assert_allclose(final, expected, rtol=1e-5)

    def test_equal_shards_match_single_worker(self):
        # zero gradient noise: every worker computes the same gradient, so
        # N-worker aggregation equals the 1-worker run exactly
        results = []
        for workers in (1, 4):
            task, opt, cost = quadratic_setup(size=16, workers=workers, lr=0.05)
            results.append(run_training(task, opt, cost, "dense", 25, seed=1))
        assert np.array_equal(results[0].weights, results[1].weights)

    def test_task_initial_weights_are_not_updated(self):
        # the loop updates its weights in place, so it must own them
        task, opt, cost = quadratic_setup(size=8)
        start = task.initial_weights(None)
        task.initial_weights = lambda rng: start
        result = run_training(task, opt, cost, "dense", 3, seed=0)
        assert np.array_equal(start, np.full(8, task.init_offset))
        assert not np.array_equal(result.weights, start)

    def test_divergence_guard_aborts(self):
        task, opt, cost = quadratic_setup(size=8, lr=5.0)  # lr*c = 5 >> 2
        with pytest.raises(DivergenceError):
            run_training(task, opt, cost, "dense", 200, seed=0)

    @pytest.mark.parametrize("mode", ["dense", "static-cf", "gravac"])
    def test_non_finite_gradient_is_a_divergence(self, mode):
        # a task may hand the loop NaN or inf entries that raised no float flag
        task, opt, cost = quadratic_setup(size=8, workers=2)

        def gradients(w, workers, iteration, rng):
            for value in (np.nan, np.inf):
                values = np.ones(8, dtype=np.float32)
                values[3] = value
                yield GradientVector(values), 1.0

        task.gradients = gradients
        cc = ControllerConfig(theta_min=2.0, theta_max=8.0, epsilon=0.5, window=2)
        with pytest.raises(DivergenceError,
                           match="^iteration 1: a worker's gradient has non-finite entries$"):
            run_training(task, opt, cost, mode, 3, seed=0, controller_config=cc,
                         compressor=TOPK, static_cf=4.0)

    @pytest.mark.parametrize("mode", ["dense", "static-cf", "gravac"])
    def test_caller_optimizer_is_not_changed(self, mode):
        # the run trains a copy; it used to replace the caller's arrays, so a
        # second run with the same object differed
        task, opt, cost = quadratic_setup(size=16, noise_std=0.1, momentum=0.9)
        weights, buffer = opt.weights, opt.buffer
        cc = ControllerConfig(theta_min=2.0, theta_max=8.0, epsilon=0.5, window=2)
        traces = [run_training(task, opt, cost, mode, 6, seed=4, controller_config=cc,
                               compressor=TOPK, static_cf=4.0).trace.to_jsonl()
                  for _ in range(2)]
        assert traces[0] == traces[1]
        assert opt.lr == 0.05
        assert opt.weights is weights and opt.buffer is buffer
        assert not weights.any() and not buffer.any()


class TestStaticCfTraining:
    def test_cf_one_is_weight_equivalent_to_dense(self):
        runs = []
        for mode, cf in (("dense", None), ("static-cf", 1.0)):
            task, opt, cost = quadratic_setup(size=32, noise_std=0.2, workers=3,
                                              batch_size=2, lr=0.05)
            runs.append(run_training(task, opt, cost, mode, 50, seed=7,
                                     compressor=TOPK, static_cf=cf))
        dense, full_support = runs
        assert np.array_equal(dense.weights, full_support.weights)
        assert np.array_equal(dense.trace.column("loss"), full_support.trace.column("loss"))

    def test_static_volume_counters(self):
        task, opt, cost = quadratic_setup(size=100, workers=2)
        result = run_training(task, opt, cost, "static-cf", 10, seed=0,
                              compressor=TOPK, static_cf=10.0)
        assert result.trace.total("floats_sent") == 10 * 10
        assert result.trace.total("words_sent") == 10 * 20

    def test_requires_cf_and_compressor(self):
        task, opt, cost = quadratic_setup()
        with pytest.raises(ValueError):
            run_training(task, opt, cost, "static-cf", 5, seed=0, compressor=TOPK)
        with pytest.raises(ValueError):
            run_training(task, opt, cost, "static-cf", 5, seed=0, static_cf=4.0)

    def test_nan_cf_rejected(self):
        task, opt, cost = quadratic_setup()
        with pytest.raises(ValueError,
                           match="static-cf mode requires a compression factor >= 1"):
            run_training(task, opt, cost, "static-cf", 5, seed=0, compressor=TOPK,
                         static_cf=float("nan"))


class TestGravacTraining:
    def test_trace_schema_complete(self):
        task, opt, cost = quadratic_setup(size=64, noise_std=0.1, batch_size=2)
        cc = ControllerConfig(theta_min=2.0, theta_max=16.0, epsilon=0.5,
                              window=5)
        result = run_training(task, opt, cost, "gravac", 15, seed=3,
                              controller_config=cc, compressor=TOPK)
        assert len(result.trace) == 15
        row = asdict(result.trace[0])
        for field in ("iter", "cf", "gain_min", "gain_c", "t_o", "t_compress",
                      "t_s", "t_iter", "tsys", "tcomp", "loss",
                      "floats_sent", "words_sent"):
            assert field in row

    def test_identical_seeds_identical_traces(self):
        traces = []
        for _ in range(2):
            task, opt, cost = quadratic_setup(size=64, noise_std=0.3, batch_size=2)
            cc = ControllerConfig(theta_min=2.0, theta_max=64.0, epsilon=0.6,
                                  window=4)
            result = run_training(task, opt, cost, "gravac", 30, seed=11,
                                  controller_config=cc, compressor=CompressorKind("randomk"))
            traces.append(result.trace.to_jsonl())
        assert traces[0] == traces[1]

    def test_different_seeds_differ(self):
        outs = []
        for seed in (1, 2):
            task, opt, cost = quadratic_setup(size=64, noise_std=0.3, batch_size=2)
            cc = ControllerConfig(theta_min=2.0, theta_max=64.0, epsilon=0.6,
                                  window=4)
            outs.append(run_training(task, opt, cost, "gravac", 30, seed=seed,
                                     controller_config=cc,
                                     compressor=CompressorKind("randomk")).trace.to_jsonl())
        assert outs[0] != outs[1]

    def test_requires_controller_config(self):
        task, opt, cost = quadratic_setup()
        with pytest.raises(ValueError):
            run_training(task, opt, cost, "gravac", 5, seed=0, compressor=TOPK)

    def test_requires_compressor(self):
        task, opt, cost = quadratic_setup()
        with pytest.raises(ValueError, match="compressor"):
            run_training(task, opt, cost, "gravac", 5, seed=0,
                         controller_config=ControllerConfig())

    def test_compressor_argument_is_used(self):
        # gravac mode used to take its compressor from the controller config
        # and ignore this argument
        outs = []
        for kind in ("topk", "randomk"):
            task, opt, cost = quadratic_setup(size=64, noise_std=0.3, batch_size=2)
            cc = ControllerConfig(theta_min=2.0, theta_max=64.0, epsilon=0.6, window=4)
            outs.append(run_training(task, opt, cost, "gravac", 10, seed=1,
                                     controller_config=cc,
                                     compressor=CompressorKind(kind)).trace.to_jsonl())
        assert outs[0] != outs[1]

    def test_unreachable_epsilon_matches_dense_baseline(self):
        # every iteration falls back to the dense send, so weights and losses
        # follow the uncompressed run exactly
        runs = []
        for mode in ("dense", "gravac"):
            task, opt, cost = quadratic_setup(size=32, noise_std=0.2, workers=3,
                                              batch_size=2)
            cc = ControllerConfig(theta_min=4.0, theta_max=32.0,
                                  epsilon=1.0 - 1e-9, window=5)
            runs.append(run_training(task, opt, cost, mode, 40, seed=9,
                                     controller_config=cc, compressor=TOPK))
        dense, adaptive = runs
        assert all(r.choice == "dense" for r in adaptive.trace)
        assert np.array_equal(dense.weights, adaptive.weights)
        assert np.array_equal(dense.trace.column("loss"), adaptive.trace.column("loss"))


class TestMemory:
    def test_dense_sends_hold_no_dead_vectors(self):
        # incompressible noise under Redsync at eps 0.5: every send is dense,
        # yet both compression stages run, each worker's stage-1 view is
        # kept for its gain, and the step factor is 1 (window > iters). The
        # budget is that live set, in gradient sizes (4M bytes): the weights
        # (2), the gradients (4), the new and the previous update (2), the
        # views at CF 10 (indices, sent and own values: 3 * 0.1 per worker)
        # and two float64 blocks of REDUCE_BLOCK entries. The peak is 9.0,
        # inside send's aggregation, which runs after run_iteration frees
        # the views; with them alive there it was 10.9. It was 12.3 while
        # the optimizer kept an unused momentum buffer (2), the quadratic's
        # gradient took two float64 temporaries (4), compression a
        # full-length |v| (1) and the identity step a copy of every view.
        # A first small run imports numpy.random, which would add 0.7 on its
        # own when this test runs first
        size, workers, iters = 1 << 18, 4, 3
        opt = OptimizerState(weights=np.zeros(1), lr=0.1)
        run_training(QuadraticBowl(size=8, noise_std=0.1), opt, CostModelParams(workers=workers),
                     "dense", 1, seed=1)
        task = QuadraticBowl(size=size, noise_std=0.1)
        tracemalloc.start()
        try:
            result = run_training(task, opt, CostModelParams(workers=workers), "gravac", iters,
                                  seed=1,
                                  controller_config=ControllerConfig(epsilon=0.5,
                                                                     window=iters + 1),
                                  compressor=CompressorKind("redsync"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(result.trace.column("choice")) == {"dense"}
        live = 4 * size * (2 + workers + 2 + workers * 3 * 0.1) + 2 * 8 * REDUCE_BLOCK
        assert peak <= live

    def test_dense_mode_residuals_own_no_buffer(self):
        # dense mode folds its gradients into residuals that stay zero views.
        # The budget is the live set inside the aggregation, in gradient
        # sizes (4M bytes): the weights (2), the gradients (4), the new and
        # the previous update (2) and two float64 blocks of REDUCE_BLOCK
        # entries, plus 0.1 for Python objects. A residual that owned a
        # buffer would add one gradient size per worker. A first small run
        # imports numpy.random, which would add 0.7 on its own
        size, workers = 1 << 18, 4
        opt = OptimizerState(weights=np.zeros(1), lr=0.1)
        run_training(QuadraticBowl(size=8, noise_std=0.1), opt, CostModelParams(workers=workers),
                     "dense", 1, seed=1)
        task = QuadraticBowl(size=size, noise_std=0.1)
        tracemalloc.start()
        try:
            run_training(task, opt, CostModelParams(workers=workers), "dense", 3, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        live = 4 * size * (2 + workers + 2 + 0.1) + 2 * 8 * REDUCE_BLOCK
        assert peak <= live, peak / (4 * size)

    @pytest.mark.parametrize("kind", ["topk", "dgc", "redsync"])
    def test_compressed_sends_keep_one_buffer_per_worker(self, kind):
        # an MLP the controller compresses at eps 0.5. Each worker's gradient
        # is folded into its residual as it is drawn, and the residual keeps
        # that buffer after the send. In gradient sizes (4M bytes) the peak
        # is 11.6 to 12.0, inside aggregate: the weights (2), one buffer per
        # worker (4), the sent parts at CF 10 (0.8), the new and the previous
        # update (1 each), the float64 block sum (2: M is below one block)
        # and the upcast indices and values. An unused momentum buffer added
        # 2; while feedback added into a fresh array and the residual copied
        # it, raw gradients, sums and copies were alive together: 20.0 to 23.0
        task = SyntheticMlp(widths=(256, 128, 64, 2))
        size, workers = task.parameter_count, 4
        assert size == 41_282
        opt = OptimizerState(weights=np.zeros(1), lr=0.1)
        tracemalloc.start()
        try:
            result = run_training(task, opt, CostModelParams(workers=workers), "gravac", 40,
                                  seed=1,
                                  controller_config=ControllerConfig(window=10, epsilon=0.5),
                                  compressor=CompressorKind(kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {"minimum", "candidate"} <= set(result.trace.column("choice"))
        assert peak <= 13 * 4 * size


class TestRunTraceIo:
    def test_jsonl_roundtrip(self, tmp_path):
        task, opt, cost = quadratic_setup(size=16)
        result = run_training(task, opt, cost, "dense", 5, seed=0)
        path = tmp_path / "trace.jsonl"
        path.write_text(result.trace.to_jsonl())
        loaded = RunTrace.from_jsonl(path)
        assert type(loaded) is RunTrace
        assert len(loaded) == 5
        assert loaded == result.trace

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"iter": 1, "cf": 1.0}\n')
        with pytest.raises(ValueError, match="missing fields"):
            RunTrace.from_jsonl(path)

    @pytest.mark.parametrize("name,value", [
        ("cf", "x"), ("loss", None), ("t_iter", [1.0]), ("iter", True),
        ("floats_sent", 4.5), ("choice", 1)])
    def test_mistyped_value_rejected(self, tmp_path, name, value):
        task, opt, cost = quadratic_setup(size=16)
        row = asdict(run_training(task, opt, cost, "dense", 1, seed=0).trace[0])
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(dict(row, **{name: value})) + "\n")
        with pytest.raises(ValueError, match=rf"mistyped fields \['{name}'\]"):
            RunTrace.from_jsonl(path)

    def test_column_and_total(self):
        trace = RunTrace()
        for i in (1, 2):
            trace.append(IterationRecord(iter=i, cf=1.0, gain_min=1.0, gain_c=1.0,
                                         t_o=0.1, t_compress=0.0, t_s=0.2,
                                         t_iter=0.3, tsys=10.0, tcomp=10.0,
                                         loss=5.0, floats_sent=4, words_sent=4,
                                         choice="dense", theta_min=1.0))
        assert trace.column("iter").tolist() == [1, 2]
        assert trace.total("floats_sent") == 8
