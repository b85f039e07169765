"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions hold; run with ``pytest -s``
to see them. Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np

from gravac.compressors import (CompressorKind, compress, compress_further,
                                decompress, keep_count)
from gravac.controller import ControllerConfig, ControllerState, check_gravac
from gravac.costmodel import (RING, TREE, CostModelParams, LatencyCoeffs,
                              allreduce_time)
from gravac.feedback import apply_feedback, update_residual
from gravac.gradcore import GradientVector, SeededRng, squared_l2_norm
from gravac.harness import parse_config, run_experiment
from gravac.kdestats import KDE_BANDWIDTH, cf_usage_samples, gaussian_kde
from gravac.metrics import compression_gain
from gravac.simworkers import OptimizerState, run_training
from gravac.tasks import QuadraticBowl, SyntheticMlp

TOPK = CompressorKind("topk")
DGC = CompressorKind("dgc")
REDSYNC = CompressorKind("redsync")
RANDOMK = CompressorKind("randomk")
ALL_KINDS = (TOPK, DGC, REDSYNC, RANDOMK)


def exact_topk_support(values, k):
    mag = np.abs(values)
    order = np.lexsort((np.arange(len(values)), -mag))
    return set(order[:k].tolist())


def test_criterion_1_compressor_exactness():
    """1000 random (M, cf) pairs: exact support size for every kind, TopK
    support equals the sort oracle, all under 5 seconds."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for i in range(1000):
        n = int(rng.integers(1, 20_000))
        cf = float(rng.uniform(1.0, n)) if n > 1 else 1.0
        g = GradientVector(rng.standard_normal(n).astype(np.float32))
        kind = ALL_KINDS[i % 4]
        s, _ = compress(kind, g, cf, SeededRng(i))
        assert s.kept == keep_count(n, cf), (kind.name, n, cf)
        if kind is TOPK:
            assert set(s.indices.tolist()) == exact_topk_support(g.values, s.kept)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 compressor exactness: PASS ({elapsed:.2f}s)")


def test_criterion_2_multilevel_equivalence():
    """TopK 10x then 100x equals direct 1000x on 100 distinct-magnitude
    vectors; modeled multi-level latency never exceeds the direct route."""
    rng = np.random.default_rng(202)
    for trial in range(100):
        n = int(rng.integers(1000, 6000))
        mags = np.linspace(1.0, 2.0, n)
        signs = rng.choice([-1.0, 1.0], n)
        g = GradientVector((rng.permutation(mags) * signs).astype(np.float32))
        first, _ = compress(TOPK, g, 10)
        nested, _ = compress_further(TOPK, first, 100)
        direct, _ = compress(TOPK, g, 1000)
        assert np.array_equal(nested.indices, direct.indices), trial
        assert np.array_equal(nested.vals, direct.vals), trial

    n, k1, k2 = 200_000, 20_000, 200
    for base in (0.0, 1e-6, 1e-4):
        for per_input in (1e-10, 1e-9, 1e-8):
            for per_sel in (0.0, 1e-10, 1e-9):
                c = LatencyCoeffs(base, per_input, per_sel)
                direct = c.seconds(n, k1) + c.seconds(n, k2)
                multilevel = c.seconds(n, k1) + c.seconds(k1, k2)
                assert multilevel <= direct
    print("\nACCEPTANCE 2 multi-level equivalence: PASS")


def test_criterion_3_gain_bounds():
    """10^4 fuzzed (kind, cf, vector) triples: gain in (0, 1], exactly 1.0 at
    cf=1, and TopK gain non-increasing in cf."""
    rng = np.random.default_rng(303)
    for i in range(10_000):
        kind = ALL_KINDS[i % 4]
        n = int(rng.integers(2, 512))
        cf = float(rng.uniform(1.0, n))
        g = GradientVector(rng.standard_normal(n).astype(np.float32))
        s, _ = compress(kind, g, cf, SeededRng(i))
        gain = compression_gain(s, squared_l2_norm(g.values))
        assert 0.0 < gain <= 1.0, (kind.name, n, cf, gain)

    for i, kind in enumerate(ALL_KINDS):
        for trial in range(25):
            n = int(rng.integers(2, 512))
            g = GradientVector(rng.standard_normal(n).astype(np.float32))
            s, _ = compress(kind, g, 1.0, SeededRng(1000 + 100 * i + trial))
            assert compression_gain(s, squared_l2_norm(g.values)) == 1.0, kind.name

    g = GradientVector(rng.standard_normal(4096).astype(np.float32))
    gains = [compression_gain(compress(TOPK, g, cf)[0], squared_l2_norm(g.values))
             for cf in (1, 2, 4, 8, 16, 64, 256, 1024, 4096)]
    assert all(a >= b for a, b in zip(gains, gains[1:]))
    print("\nACCEPTANCE 3 gain bounds: PASS")


def test_criterion_4_error_feedback_conservation():
    """500-iteration TopK feedback run conserves gradient mass to 1e-4
    relative (element-wise max)."""
    rng = np.random.default_rng(404)
    n = 512
    store = GradientVector(np.zeros(n))
    raw_sum = np.zeros(n, dtype=np.float64)
    sent_sum = np.zeros(n, dtype=np.float64)
    for i in range(500):
        g_raw = GradientVector(rng.standard_normal(n).astype(np.float32))
        raw_sum += g_raw.values
        g_ef = apply_feedback(g_raw, store)
        sent, _ = compress(TOPK, g_ef, 10)
        sent_sum += decompress(sent).values
        update_residual(g_ef, sent, store)
    lhs = sent_sum + store.values
    err = np.max(np.abs(lhs - raw_sum)) / np.max(np.abs(raw_sum))
    assert err <= 1e-4, f"relative error {err:.2e}"
    print(f"\nACCEPTANCE 4 error-feedback conservation: PASS (err {err:.2e})")


def test_criterion_5_controller_schedule_replay():
    """Scripted gains: exponential policy visits exactly 10/20/40/160/1000x,
    geometric visits the 10..2000x ladder; escalation fires iff the gains sit
    within omega; the published saturation numbers freeze on 1280x."""
    # candidate schedules (gains scripted far apart so the minimum never moves)
    for policy, theta_max, expected in (
            ("exponential", 1000.0, [10.0, 20.0, 40.0, 160.0, 1000.0]),
            ("geometric", 2000.0, [10.0, 20.0, 40.0, 80.0, 160.0, 320.0,
                                   640.0, 1280.0, 2000.0])):
        cfg = ControllerConfig(theta_min=10.0, theta_max=theta_max, epsilon=0.7,
                               omega=0.01, window=10, policy=policy)
        state = ControllerState.fresh(cfg, workers=4)
        visited = [state.candidate_cf]
        for boundary in range(1, 12):
            check_gravac(state, boundary * 10, 0.95, 0.40)
            visited.append(state.candidate_cf)
        assert sorted(set(visited)) == expected, policy
        assert state.theta_min == 10.0

    # escalation boundary: fires iff omega >= |dmin - dc| / dmin
    for delta_c, should_fire in ((0.895, True), (0.80, False)):
        cfg = ControllerConfig(theta_min=10.0, theta_max=1000.0, omega=0.01, window=10)
        state = ControllerState.fresh(cfg, workers=4)
        check_gravac(state, 10, 0.90, delta_c)   # step factor still 1: no-op move
        check_gravac(state, 20, 0.90, delta_c)
        fired = state.theta_min > 10.0
        assert fired == should_fire, (delta_c, state.theta_min)
        assert math.isclose(state.theta_min, 20.0 if should_fire else 10.0)

    # saturation freeze on the published compression throughputs
    cfg = ControllerConfig(theta_min=10.0, theta_max=2000.0, omega=0.01,
                           window=10, policy="geometric")
    state = ControllerState.fresh(cfg, workers=32)
    state.throughput = {1280.0: 1029.9, 2000.0: 1035.4}
    check_gravac(state, 10, 0.95, 0.40)
    assert state.theta_ideal is not None and state.theta_ideal == 1280.0
    assert state.candidate_cf == 1280.0
    print("\nACCEPTANCE 5 controller schedule replay: PASS")


def test_criterion_6_cost_model_formulas():
    """allreduce_time matches the hand-plugged formulas to 1e-12 relative on
    50 random parameter draws; monotonicity fuzz holds."""
    rng = np.random.default_rng(606)
    for _ in range(50):
        alpha = float(rng.uniform(0, 1e-3))
        beta = float(rng.uniform(0, 1e-7))
        workers = int(rng.integers(2, 128))
        words = int(rng.integers(1, 10**8))
        ring = allreduce_time(words, CostModelParams(alpha=alpha, beta=beta,
                                                     workers=workers, topology=RING))
        tree = allreduce_time(words, CostModelParams(alpha=alpha, beta=beta,
                                                     workers=workers, topology=TREE))
        ring_hand = 2 * (workers - 1) * alpha + 2 * words * beta * (workers - 1) / workers
        tree_hand = (2 * alpha * math.log2(workers)
                     + 2 * words * math.log2(workers) * beta)
        np.testing.assert_allclose(ring, ring_hand, rtol=1e-12)
        np.testing.assert_allclose(tree, tree_hand, rtol=1e-12)

    for _ in range(50):
        alpha = float(rng.uniform(1e-6, 1e-3))
        beta = float(rng.uniform(1e-10, 1e-7))
        workers = int(rng.integers(2, 64))
        words = int(rng.integers(1, 10**6))
        for topology in (RING, TREE):
            def t(a=alpha, b=beta, n=workers, w=words):
                return allreduce_time(w, CostModelParams(alpha=a, beta=b, workers=n,
                                                         topology=topology))
            base = t()
            assert t(a=alpha * 3) >= base
            assert t(b=beta * 3) >= base
            assert t(n=workers + 5) >= base
            assert t(w=words * 2) >= base
    print("\nACCEPTANCE 6 cost-model formulas: PASS")


def test_criterion_7_convergence_parity():
    """Adaptive TopK (eps 0.9, 10..1000x, window 50) on the synthetic MLP with
    4 workers over 3000 iterations: accuracy within 2 points of dense at equal
    iterations, value-float volume down at least 5x, well under 2 minutes."""
    start = time.monotonic()

    def setup():
        task = SyntheticMlp(widths=(256, 16, 8, 2), batch_size=32,
                            blob_spread=6.0, feature_decades=6.0, blob_distance=3.0)
        cost = CostModelParams(workers=4, t_compute=1e-4, beta=3.2e-8)
        opt = OptimizerState(weights=np.zeros(task.parameter_count),
                             lr=0.05, momentum=0.9)
        return task, opt, cost

    task, opt, cost = setup()
    dense = run_training(task, opt, cost, "dense", 3000, seed=42)
    task, opt, cost = setup()
    controller = ControllerConfig(theta_min=10.0, theta_max=1000.0, epsilon=0.9,
                                  omega=0.01, window=50, policy="exponential")
    adaptive = run_training(task, opt, cost, "gravac", 3000, seed=42,
                            controller_config=controller, compressor=TOPK)

    acc_gap = abs(adaptive.metric_value - dense.metric_value)
    volume_ratio = dense.trace.total("floats_sent") / adaptive.trace.total("floats_sent")
    elapsed = time.monotonic() - start
    assert acc_gap <= 0.02, f"accuracy gap {acc_gap:.4f}"
    assert volume_ratio >= 5.0, f"volume ratio {volume_ratio:.2f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 7 convergence parity: PASS (gap {acc_gap:.4f}, "
          f"volume {volume_ratio:.1f}x, {elapsed:.1f}s, "
          f"dense acc {dense.metric_value:.4f}, adaptive acc {adaptive.metric_value:.4f})")


def test_criterion_8_randomk_rescue():
    """Random-k at cf = M/2 stalls on the quadratic; the adaptive controller
    over the same compressor with theta_min 1.5 converges in equal iterations."""
    m, iters = 8192, 400

    def setup():
        task = QuadraticBowl(size=m, noise_std=0.0, batch_size=1, init_offset=1.0)
        cost = CostModelParams(workers=4)
        opt = OptimizerState(weights=np.zeros(m), lr=0.01, momentum=0.0)
        return task, opt, cost

    task, opt, cost = setup()
    static = run_training(task, opt, cost, "static-cf", iters, seed=7,
                          compressor=RANDOMK, static_cf=m / 2)
    stall_ratio = static.trace.records[-1].loss / static.trace.records[0].loss
    assert stall_ratio > 0.5, f"static run did not stall: {stall_ratio:.3f}"

    task, opt, cost = setup()
    controller = ControllerConfig(theta_min=1.5, theta_max=1000.0, epsilon=0.65,
                                  omega=0.01, window=50, policy="geometric")
    adaptive = run_training(task, opt, cost, "gravac", iters, seed=7,
                            controller_config=controller, compressor=RANDOMK)
    rescue_ratio = adaptive.trace.records[-1].loss / adaptive.trace.records[0].loss
    assert rescue_ratio < 0.01, f"adaptive run did not converge: {rescue_ratio:.4f}"
    print(f"\nACCEPTANCE 8 random-k rescue: PASS (stall {stall_ratio:.3f}, "
          f"rescue {rescue_ratio:.2e})")


def test_criterion_9_determinism(tmp_path):
    """Repeating any run with an equal seed yields byte-identical traces."""
    blobs = {}
    for mode, extra in (("gravac", {"controller.theta_min": "2",
                                    "controller.theta_max": "64",
                                    "controller.epsilon": "0.5",
                                    "controller.window": "5",
                                    "compressor.kind": "randomk"}),
                        ("static-cf", {"static_cf": "4"}),
                        ("dense", {})):
        pair = []
        for attempt in ("x", "y"):
            overrides = {"task.kind": "quadratic", "task.size": "64",
                         "task.noise_std": "0.2", "task.batch_size": "2",
                         "mode": mode, "iters": "40", "seed": "123",
                         "cost.workers": "3",
                         "out": str(tmp_path / f"{mode}-{attempt}")}
            overrides.update(extra)
            run_experiment(parse_config(overrides=overrides))
            pair.append((tmp_path / f"{mode}-{attempt}" / "trace.jsonl").read_bytes())
        assert pair[0] == pair[1], mode
        blobs[mode] = pair[0]
    assert len({blobs[m] for m in blobs}) == 3  # modes genuinely differ
    print("\nACCEPTANCE 9 determinism: PASS")


def test_criterion_10_kde_sanity():
    """Density mass within 1e-3 of 1; a dense-only run concentrates at
    log10(1) = 0."""
    rng = np.random.default_rng(1010)
    samples = np.concatenate([rng.normal(0.0, 0.02, 300), rng.normal(2.0, 0.05, 300)])
    h = KDE_BANDWIDTH
    grid = np.linspace(samples.min() - 5 * h, samples.max() + 5 * h, 4000)
    density = gaussian_kde(samples, grid)
    mass = float(np.trapezoid(density, grid))
    assert abs(mass - 1.0) <= 1e-3, f"mass {mass:.6f}"
    assert np.all(density >= 0.0)

    task = QuadraticBowl(size=32)
    opt = OptimizerState(weights=np.zeros(32), lr=0.05)
    result = run_training(task, opt, CostModelParams(workers=2), "dense", 50, seed=0)
    logs = cf_usage_samples(result.trace)
    # a grid of an odd point count has a point at 0; default_grid's 512 have none
    grid = np.linspace(logs.min() - 5 * h, logs.max() + 5 * h, 1001)
    density = gaussian_kde(logs, grid)
    peak = grid[int(np.argmax(density))]
    assert abs(peak - 0.0) < 1e-6, f"peak at {peak}"
    mass = float(np.trapezoid(density, grid))
    assert abs(mass - 1.0) <= 1e-3
    print(f"\nACCEPTANCE 10 KDE sanity: PASS (mass {mass:.6f})")
