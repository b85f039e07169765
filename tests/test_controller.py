import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from gravac import metrics
from gravac.compressors import (CompressorKind, SparseGradient, aggregate, aggregate_dense,
                                compress)
from gravac.controller import (CANDIDATE, DENSE, MINIMUM, POLICIES, STATIC_CHOICE,
                               ControllerConfig, ControllerState, check_gravac,
                               run_iteration, scaling_policy, select_cf, send)
from gravac.costmodel import CostModelParams
from gravac.feedback import apply_feedback, zero_residual
from gravac.gradcore import GradientVector, SeededRng

TOPK = CompressorKind("topk")


def make_state(theta_min=10.0, theta_max=1000.0, epsilon=0.7, omega=0.01,
               window=500, policy="exponential", workers=4):
    cfg = ControllerConfig(theta_min=theta_min, theta_max=theta_max, epsilon=epsilon,
                           omega=omega, window=window, policy=policy)
    return ControllerState.fresh(cfg, workers)


class TestSelectCf:
    def test_candidate_when_gain_meets_threshold(self):
        assert select_cf(0.95, 0.99, 0.9, candidate_cf=20.0, minimum_cf=10.0) == (CANDIDATE, 20.0)

    def test_minimum_fallback(self):
        assert select_cf(0.6, 0.8, 0.7, candidate_cf=20.0, minimum_cf=10.0) == (MINIMUM, 10.0)

    def test_dense_last_resort(self):
        assert select_cf(0.5, 0.6, 0.7, candidate_cf=20.0, minimum_cf=10.0) == (DENSE, 1.0)


class TestScalingPolicy:
    def test_step_zero_evaluates_minimum_itself(self):
        assert scaling_policy("exponential", 0, 10.0, 1000.0) == 1.0
        assert scaling_policy("geometric", 0, 10.0, 2000.0) == 1.0

    def test_exponential_candidate_ladder(self):
        theta_min = 10.0
        cfs = [theta_min * scaling_policy("exponential", k, theta_min, 1000.0)
               for k in range(5)]
        assert cfs == [10.0, 20.0, 40.0, 160.0, 1000.0]

    def test_geometric_candidate_ladder(self):
        theta_min = 10.0
        cfs = [theta_min * scaling_policy("geometric", k, theta_min, 2000.0)
               for k in range(9)]
        assert cfs == [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2000.0]

    def test_cap_holds_for_large_steps(self):
        for k in (5, 20, 200):
            assert scaling_policy("exponential", k, 10.0, 1000.0) == 100.0
            assert scaling_policy("geometric", k + 8, 10.0, 2000.0) == 200.0

    def test_cap_uses_current_minimum(self):
        assert scaling_policy("geometric", 3, 500.0, 1000.0) == 2.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            scaling_policy("exponential", -1, 10.0, 1000.0)


class TestCheckGravac:
    def test_noop_off_window_boundary(self):
        state = make_state(window=500)
        check_gravac(state, 499, 0.9, 0.5)
        assert state.step == 0 and state.theta_s == 1.0

    def test_advances_step_factor_on_boundary(self):
        state = make_state(window=500)
        check_gravac(state, 500, 0.9, 0.5)
        assert state.step == 1 and state.theta_s == 2.0

    def test_escalation_fires_iff_within_omega(self):
        # |0.90 - 0.895| / 0.90 ~ 0.0056 <= 0.01: fires
        state = make_state(window=10)
        check_gravac(state, 10, 0.90, 0.895)
        assert state.theta_min == 10.0  # step factor was 1: no-op escalation
        check_gravac(state, 20, 0.90, 0.895)
        assert state.theta_min == 20.0  # escalated to the evaluated candidate

        # |0.90 - 0.80| / 0.90 = 0.111 > 0.01: must not fire
        state = make_state(window=10)
        check_gravac(state, 10, 0.90, 0.80)
        check_gravac(state, 20, 0.90, 0.80)
        assert state.theta_min == 10.0

    def test_saturation_freeze_on_published_throughputs(self):
        state = make_state(window=10, theta_min=10.0, theta_max=2000.0, policy="geometric")
        state.throughput = {1280.0: 1029.9, 2000.0: 1035.4}
        check_gravac(state, 10, 0.9, 0.5)
        assert state.theta_ideal is not None
        assert state.theta_ideal == 1280.0
        assert state.theta_s == 128.0
        assert state.candidate_cf == 1280.0

    def test_freeze_ranks_by_throughput(self):
        # in insertion order the first two entries sit far apart; ranked,
        # the top two (300 at CF 40, 250 at CF 160) are within omega
        state = make_state(window=10, omega=0.25)
        state.throughput = {10.0: 100.0, 40.0: 300.0, 160.0: 250.0}
        check_gravac(state, 10, 0.9, 0.5)
        assert state.theta_ideal == 160.0

    @pytest.mark.parametrize("throughput", [{10.0: 100.0, 40.0: 100.0},
                                            {40.0: 100.0, 10.0: 100.0}])
    def test_exact_tie_freezes_on_lower_cf(self, throughput):
        state = make_state(window=10)
        state.throughput = throughput
        check_gravac(state, 10, 0.9, 0.5)
        assert state.theta_ideal == 10.0

    def test_no_freeze_when_gap_exceeds_omega(self):
        state = make_state(window=10)
        state.throughput = {10.0: 100.0, 20.0: 150.0}
        check_gravac(state, 10, 0.9, 0.5)
        assert state.theta_ideal is None
        assert state.theta_s == 2.0

    def test_saturation_needs_two_entries(self):
        state = make_state(window=10)
        state.throughput = {10.0: 100.0}
        check_gravac(state, 10, 0.9, 0.5)
        assert state.theta_ideal is None

    def test_frozen_state_is_inert(self):
        state = make_state(window=10)
        state.theta_ideal = 40.0
        state.theta_s = 4.0
        check_gravac(state, 10, 0.9, 0.9)
        assert state.step == 0 and state.theta_s == 4.0 and state.theta_min == 10.0

    def test_divergent_pick_is_flagged(self):
        # second-largest value belongs to the *higher* CF: implemented as-is
        state = make_state(window=10)
        state.throughput = {40.0: 100.0, 10.0: 100.5}
        check_gravac(state, 10, 0.9, 0.5)
        assert state.theta_ideal is not None
        assert state.theta_ideal == 40.0

    def test_all_equal_gains_schedule_hand_computed(self):
        """With gains scripted identically the escalation fires every window;
        the minimum CF walks the candidate ladder and pins at theta_max."""
        state = make_state(window=10, theta_min=10.0, theta_max=1000.0)
        expected = [
            # (theta_min, theta_s) after each boundary, derived by hand:
            (10.0, 2.0),    # escalate to 1*10, advance to 2
            (20.0, 4.0),    # escalate to 2*10, advance to 4
            (80.0, 12.5),   # escalate to 4*20, advance capped at 1000/80
            (1000.0, 1.0),  # escalate to 12.5*80 = theta_max, factor pinned
            (1000.0, 1.0),
        ]
        for boundary, (t_min, t_s) in enumerate(expected, start=1):
            check_gravac(state, boundary * 10, 1.0, 1.0)
            assert (state.theta_min, state.theta_s) == (t_min, t_s)

    def test_missing_gains_skip_escalation(self):
        state = make_state(window=10)
        check_gravac(state, 10, None, None)
        check_gravac(state, 20, None, None)
        assert state.theta_min == 10.0
        assert state.step == 2


def run_n(state, n, cost, length=64, seed=0, scale=1.0, workers=1, batch_size=1,
          candidates=None):
    """Drive run_iteration with i.i.d. gradients; returns per-iteration trace
    rows and appends each step's candidate CF to ``candidates`` if given."""
    rng = SeededRng(seed)
    data = SeededRng(seed ^ 0x5EED)
    stores = [GradientVector(np.zeros(length)) for _ in range(workers)]
    results = []
    for i in range(1, n + 1):
        grads = [apply_feedback(GradientVector(
                     scale * data.split(w, i).generator.standard_normal(length)), stores[w])
                 for w in range(workers)]
        if candidates is not None:
            candidates.append(state.candidate_cf)
        results.append(run_iteration(state, i, 0.0, TOPK, grads, stores, cost, rng,
                                     batch_size)[1])
    return results


class TestRunIteration:
    def test_tiny_epsilon_always_sends_candidate(self):
        state = make_state(epsilon=1e-9, window=5, theta_min=4.0, theta_max=64.0)
        cost = CostModelParams(workers=1)
        results = run_n(state, 20, cost, length=128)
        for r in results:
            assert r.choice == CANDIDATE
            # per-iteration volume matches the analytic keep count
            expected_floats = max(1, int(128 // r.cf))
            assert r.floats_sent == expected_floats
            assert r.words_sent == 2 * expected_floats
            assert r.t_compress > 0.0
            assert r.t_iter == pytest.approx(cost.t_compute + r.t_compress + r.t_s)

    def test_unreachable_epsilon_stays_dense(self):
        state = make_state(epsilon=1.0 - 1e-9, window=5, theta_min=4.0, theta_max=64.0)
        cost = CostModelParams(workers=1)
        results = run_n(state, 12, cost, length=128)
        for r in results:
            assert r.choice == DENSE
            assert r.cf == 1.0
            assert r.floats_sent == 128
            # dense iteration time excludes compression
            assert r.t_iter == pytest.approx(cost.t_compute + r.t_s)
            assert r.t_compress == 0.0

    def test_dense_path_matches_plain_averaging(self):
        state = make_state(epsilon=1.0 - 1e-9, window=100)
        cost = CostModelParams(workers=4)
        rng = SeededRng(5)
        stores = [GradientVector(np.zeros(32)) for _ in range(4)]
        grads = [GradientVector(SeededRng(50 + w).generator.standard_normal(32))
                 for w in range(4)]
        update, row = run_iteration(state, 1, 0.0, TOPK, grads, stores, cost, rng)
        assert row.choice == DENSE
        oracle = np.mean([g.values.astype(np.float64) for g in grads], axis=0)
        np.testing.assert_allclose(update.values, oracle.astype(np.float32), rtol=1e-6)
        for store in stores:
            assert not store.values.any()

    def test_window_advances_step_factor(self):
        state = make_state(epsilon=1e-9, window=2, theta_min=2.0, theta_max=512.0)
        cost = CostModelParams(workers=1)
        seen = []
        rng = SeededRng(1)
        store = GradientVector(np.zeros(64))
        gen = SeededRng(2)
        for i in range(1, 9):
            g = apply_feedback(GradientVector(gen.split(i).generator.standard_normal(64)), store)
            seen.append(state.candidate_cf)
            run_iteration(state, i, 0.0, TOPK, [g], [store], cost, rng)
        # candidate advances at iterations 2, 4, 6, ... per the policy
        assert seen[:2] == [2.0, 2.0]
        assert seen[2:4] == [4.0, 4.0]
        assert seen[4:6] == [8.0, 8.0]

    def test_sent_cf_always_in_allowed_set(self):
        state = make_state(epsilon=0.6, window=3, theta_min=2.0, theta_max=64.0)
        cost = CostModelParams(workers=2)
        candidates = []
        results = run_n(state, 30, cost, length=256, workers=2, candidates=candidates)
        for r, candidate_cf in zip(results, candidates):
            assert r.cf in (1.0, r.theta_min, candidate_cf)
            assert r.cf <= 64.0

    def test_theta_min_never_decreases(self):
        state = make_state(epsilon=1e-9, omega=0.2, window=2, theta_min=2.0, theta_max=64.0)
        cost = CostModelParams(workers=1)
        results = run_n(state, 30, cost, length=256)
        mins = [r.theta_min for r in results]
        assert all(a <= b for a, b in zip(mins, mins[1:]))

    def test_freeze_pins_candidate_cf(self):
        state = make_state(epsilon=1e-9, window=2, theta_min=2.0, theta_max=64.0)
        cost = CostModelParams(workers=1)
        # seed the throughputs so the top two sit within omega and far above
        # anything the run itself will record; the first boundary must freeze
        state.throughput = {4.0: 1 / 1e-9 * 0.9, 8.0: 1 / 1e-9 * (0.9 * 1.005)}
        candidates = []
        run_n(state, 20, cost, length=64, candidates=candidates)
        assert state.theta_ideal is not None
        assert state.theta_ideal == 4.0
        assert set(candidates[2:]) == {4.0}

    def test_identity_step_takes_each_gain_once(self, monkeypatch):
        # while the step factor is 1 the second stage returns the stage-1
        # views, so their gains are taken once; a larger step takes both
        taken = []
        compression_gain = metrics.compression_gain

        def spy(part, ef_norm_sq):
            taken.append(part)
            return compression_gain(part, ef_norm_sq)

        monkeypatch.setattr(metrics, "compression_gain", spy)
        state = make_state(epsilon=1e-9, window=2, theta_min=2.0, theta_max=64.0)
        cost, rng, data = CostModelParams(workers=2), SeededRng(1), SeededRng(2)
        stores = [GradientVector(np.zeros(64)) for _ in range(2)]
        steps = []
        for i in range(1, 5):
            grads = [apply_feedback(GradientVector(data.split(w, i).generator.standard_normal(64)),
                                    stores[w]) for w in range(2)]
            taken.clear()
            steps.append(state.theta_s)
            run_iteration(state, i, 0.0, TOPK, grads, stores, cost, rng)
            assert len(taken) == (2 if steps[-1] == 1.0 else 4)
        assert steps == [1.0, 1.0, 2.0, 2.0]

    def test_zero_gradient_is_dense_noop(self):
        state = make_state(epsilon=0.5, window=10)
        cost = CostModelParams(workers=1)
        store = GradientVector(np.zeros(16))
        g = GradientVector(np.zeros(16, dtype=np.float32))
        _, r = run_iteration(state, 1, 0.0, TOPK, [g], [store], cost, SeededRng(0))
        assert r.choice == DENSE
        assert r.t_compress == 0.0
        assert not store.values.any()

    def test_mismatched_workers_rejected(self):
        state = make_state()
        cost = CostModelParams(workers=2)
        grads = [GradientVector(np.ones(8)), GradientVector(np.ones(8))]
        with pytest.raises(ValueError):
            run_iteration(state, 1, 0.0, TOPK, grads, [GradientVector(np.zeros(8))], cost,
                          SeededRng(0))

    def test_throughput_keeps_each_cfs_latest_send(self):
        state = make_state(epsilon=0.6, window=3, theta_min=2.0, theta_max=64.0)
        results = run_n(state, 30, CostModelParams(workers=2), length=256, workers=2)
        latest = {}  # replay oracle: each CF's compression throughput at its last send
        for r in results:
            latest[r.cf] = r.tcomp
        assert state.throughput == latest
        # some CF was sent at several throughputs, so overwriting is exercised
        assert len({r.tcomp for r in results}) > len(latest) >= 2


def sparse_send(gain, t_compute=1.0, workers=32, batch_size=32, cf=10.0):
    """One send of top-k views at zero sync and compression time, so that
    t_iter equals t_compute; returns the trace row."""
    cost = CostModelParams(alpha=0.0, beta=0.0, workers=workers, t_compute=t_compute)
    g = GradientVector(np.arange(1.0, 65.0, dtype=np.float32))
    part, _ = compress(TOPK, g, cf)
    return send([g] * workers, [part] * workers, [zero_residual(64) for _ in range(workers)],
                0.0, cost, batch_size, iter=1, loss=0.0, choice=CANDIDATE, cf=cf,
                gain_min=gain, gain_c=gain, theta_min=cf)[1]


class TestSend:
    def test_example_values(self):
        r = sparse_send(1.0)
        assert r.t_iter == 1.0
        assert r.tsys == 1024.0
        assert r.tcomp == 1024.0

    def test_gain_scales_compression_throughput(self):
        r = sparse_send(0.5)
        assert r.tsys == 32 * 32 / r.t_iter
        assert r.tcomp == pytest.approx(0.5 * r.tsys)

    def test_compression_throughput_never_exceeds_system(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = sparse_send(float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.001, 10)),
                            workers=4, cf=float(rng.uniform(1, 32)))
            assert r.tsys == pytest.approx(4 * 32 / r.t_iter)
            assert r.tcomp <= r.tsys + 1e-12

    @pytest.mark.parametrize("dense", [False, True])
    def test_update_is_the_mean_of_what_was_sent(self, dense):
        grads = [GradientVector(np.random.default_rng(w).standard_normal(100)
                                .astype(np.float32)) for w in range(3)]
        if dense:
            (choice, cf, gain), parts = (DENSE, 1.0, 1.0), None
            want = aggregate_dense([GradientVector(g.values.copy()) for g in grads])
        else:
            parts = [compress(TOPK, g, 7.0)[0] for g in grads]
            (choice, cf, gain), want = (MINIMUM, 7.0, 0.9), aggregate(parts)
        update, _ = send(grads, parts, [zero_residual(100) for _ in range(3)], 0.0,
                         CostModelParams(workers=3), 1, iter=1, loss=0.0, choice=choice, cf=cf,
                         gain_min=gain, gain_c=gain, theta_min=cf)
        assert update.values.tobytes() == want.values.tobytes()

    def test_row_gain_follows_the_choice(self):
        # the row's compression throughput takes the gain of the view sent
        cost = CostModelParams(workers=2, t_compute=0.5)
        gain_min, gain_c = 0.6, 0.3
        for choice, gain in ((CANDIDATE, gain_c), (MINIMUM, gain_min),
                             (STATIC_CHOICE, gain_min), (DENSE, 1.0)):
            grads = [GradientVector(np.arange(1.0, 33.0, dtype=np.float32)) for _ in range(2)]
            parts = None if choice == DENSE else [compress(TOPK, g, 4.0)[0] for g in grads]
            _, row = send(grads, parts, [zero_residual(32) for _ in range(2)], 0.25, cost, 8,
                          iter=3, loss=2.0, choice=choice, cf=4.0, gain_min=gain_min,
                          gain_c=gain_c, theta_min=4.0)
            assert row.tcomp == row.tsys * gain, choice
            assert (row.t_o, row.gain_min, row.gain_c) == (cost.t_compute, gain_min, gain_c)

    def test_zero_gain_sends_at_zero_compression_throughput(self):
        # a random-k view of a gradient's zero entries keeps none of its mass
        r = sparse_send(0.0)
        assert (r.gain_c, r.tcomp) == (0.0, 0.0)
        assert r.tsys == 1024.0

    def test_invalid_inputs_rejected(self):
        bad_time = "iteration time must be positive and finite, got "
        with pytest.raises(ValueError, match=bad_time + "0.0"):
            sparse_send(1.0, t_compute=0.0)
        # 2 * 8 words * 1e308 s/word overflows the modeled sync time
        g = GradientVector(np.ones(8, dtype=np.float32))
        with pytest.raises(ValueError, match=bad_time + "inf"):
            send([g, g], None, [zero_residual(8)] * 2, 0.0, CostModelParams(beta=1e308, workers=2),
                 1, iter=1, loss=0.0, choice=DENSE, cf=1.0, gain_min=1.0, gain_c=1.0,
                 theta_min=1.0)
        for gain in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"gain must be in \[0, 1\]"):
                sparse_send(gain)

    @staticmethod
    def words_row(parts, length=10**6):
        """The row of a one-worker send of ``parts``, or a dense send when
        None, of a ``length``-entry gradient."""
        g = GradientVector(np.ones(length, dtype=np.float32))
        return send([g], parts, [zero_residual(length)], 0.0, CostModelParams(), 1, iter=1,
                    loss=0.0, choice=DENSE if parts is None else MINIMUM, cf=10.0,
                    gain_min=1.0, gain_c=1.0, theta_min=10.0)[1]

    def test_sparse_send_counts_index_and_value(self):
        part = SparseGradient(np.arange(100), np.ones(100, dtype=np.float32), 1000)
        row = self.words_row([part], 1000)
        assert (row.floats_sent, row.words_sent) == (100, 200)

    def test_dense_send_counts_every_entry(self):
        row = self.words_row(None)
        assert (row.floats_sent, row.words_sent) == (10**6, 10**6)

    def test_volume_ratio_versus_dense(self):
        # cf=10 on a million entries: 200k words on the wire, 5x by the word
        # counter and 10x by the value-float counter
        part = SparseGradient(np.arange(100_000), np.ones(100_000, dtype=np.float32), 10**6)
        sparse, dense = self.words_row([part]), self.words_row(None)
        assert sparse.words_sent == 200_000
        assert dense.words_sent / sparse.words_sent == 5.0
        assert dense.floats_sent / sparse.floats_sent == 10.0


class ControllerSchedule(RuleBasedStateMachine):
    """The window-boundary schedule under arbitrary gains and throughputs.

    Sends record throughput at the CFs a step can send (dense, the minimum
    or the candidate), and iterations advance one at a time as in the
    training loop. theta_min must never fall or pass theta_max, and once
    the search freezes the candidate CF must never move again.
    """

    @initialize(policy=st.sampled_from(POLICIES), theta_min=st.floats(1.0, 100.0),
                span=st.floats(1.0, 1e4), omega=st.floats(0.001, 0.999),
                window=st.integers(1, 4))
    def start(self, policy, theta_min, span, omega, window):
        self.state = make_state(theta_min=theta_min, theta_max=theta_min * span,
                                omega=omega, window=window, policy=policy)
        self.iteration = 0
        self.theta_min = self.state.theta_min
        self.frozen_candidate = None

    @rule(send=st.sampled_from((DENSE, MINIMUM, CANDIDATE)), gain=st.floats(1e-6, 1.0),
          t_iter=st.floats(1e-9, 1e3), workers=st.integers(1, 64))
    def record_send(self, send, gain, t_iter, workers):
        state = self.state
        cf = {DENSE: 1.0, MINIMUM: state.theta_min, CANDIDATE: state.candidate_cf}[send]
        state.throughput[cf] = workers / t_iter * gain

    @rule(iterations=st.integers(1, 4),
          delta_min=st.none() | st.floats(0.0, 1.0), delta_c=st.none() | st.floats(0.0, 1.0))
    def advance(self, iterations, delta_min, delta_c):
        for _ in range(iterations):
            self.iteration += 1
            check_gravac(self.state, self.iteration, delta_min, delta_c)

    @invariant()
    def theta_min_is_monotone_and_capped(self):
        assert self.theta_min <= self.state.theta_min <= self.state.config.theta_max
        self.theta_min = self.state.theta_min

    @invariant()
    def candidate_is_fixed_after_freeze(self):
        if self.state.theta_ideal is None:
            return
        if self.frozen_candidate is None:
            self.frozen_candidate = self.state.candidate_cf
        assert self.state.candidate_cf == self.frozen_candidate


TestControllerSchedule = ControllerSchedule.TestCase
TestControllerSchedule.settings = settings(max_examples=150, stateful_step_count=30,
                                           deadline=None)


class TestConfigValidation:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError, match=r"epsilon out of \(0,1\)"):
            ControllerConfig(epsilon=1.5)

    def test_theta_ordering(self):
        with pytest.raises(ValueError):
            ControllerConfig(theta_min=100.0, theta_max=10.0)

    @pytest.mark.parametrize("name", ["theta_min", "theta_max"])
    def test_nan_theta_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            ControllerConfig(**{name: float("nan")})

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            ControllerConfig(policy="linear")
