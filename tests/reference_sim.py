"""A slow, straight-line reference of one training run, written from the docstrings.

``reference_run`` replays what the module docstrings of ``simworkers``,
``controller``, ``feedback``, ``metrics`` and ``costmodel`` say one run does,
one worker at a time, with no helper from those modules. It takes three
things as given: the task's per-iteration gradients (``task.gradients``), the
compressors' picks (``compress`` and ``compress_further``, called without a
latency hook) and the table of latency coefficients
(``DEFAULT_LATENCY_COEFFS``). Everything else is written out here:

- error feedback: g_ef = g + residual; a compressed send leaves
  g_ef - decompress(sent) behind, a dense send clears the residual;
- the gain ||sent||^2 / ||g_ef||^2, clamped to 1 and averaged over the
  workers whose g_ef is non-zero, and its per-CF EWMA s <- lam*x + (1-lam)*s
  with lam = N/100 clamped to [0.01, 1] (a CF's first observation is taken
  as is; CF 1 has gain 1);
- the epsilon gate: the candidate view, else the minimum view, else dense;
- volume (k floats, 2k words sparse; M floats and words dense) and modeled
  time (compute + compression + allreduce; a dense send has no compression
  time), and the throughputs N*b/t_iter and N*b/t_iter * gain of the sent CF;
- the window boundary: escalate theta_min when the two smoothed gains agree
  within omega, advance the scaling policy, freeze when the top two
  compression throughputs are within omega;
- the element-wise mean of the sent views and a momentum-SGD step.

It never calls ``run_training``, ``run_iteration``, ``send`` or
``check_gravac``. ``tests/test_reference_sim.py`` checks that every trace
row and the final weights equal ``run_training``'s exactly.
"""

from __future__ import annotations

import math

import numpy as np

from gravac.compressors import compress, compress_further
from gravac.costmodel import DEFAULT_LATENCY_COEFFS
from gravac.gradcore import GradientVector, SeededRng


def _norm_sq(values: np.ndarray) -> float:
    """Sum of squares in float64: each block of 2**16 entries is summed by
    einsum, and the block sums are added left to right."""
    v = values.astype(np.float64)
    total = 0.0
    for start in range(0, v.size, 1 << 16):
        block = v[start:start + (1 << 16)]
        total += float(np.einsum("i,i->", block, block))
    return total


def _latency(kind, n_input: int, kept: int) -> float:
    c = DEFAULT_LATENCY_COEFFS[kind.name]
    return c.base + c.per_input * n_input + c.per_selected_log * kept * math.log2(max(kept, 2))


def _allreduce(cost, words: int) -> float:
    n = cost.workers
    if n == 1:
        return 0.0
    if cost.topology == "tree":
        logn = math.log2(n)
        return 2.0 * cost.alpha * logn + 2.0 * words * logn * cost.beta
    return 2.0 * (n - 1) * cost.alpha + 2.0 * words * cost.beta * (n - 1) / n


def _step_factor(policy: str, step: int, theta_min: float, theta_max: float) -> float:
    cap = theta_max / theta_min
    if step == 0:
        return min(1.0, cap)
    exponent = 2 ** (step - 1) if policy == "exponential" else step
    return cap if exponent >= 1024 else min(2.0 ** exponent, cap)


def reference_run(task, optimizer, cost, mode, iterations, seed,
                  controller_config=None, compressor=None, static_cf=None):
    """Replay one run; returns (trace rows as dicts, final weights, events).

    Arguments are those of ``run_training``. ``events`` counts the
    choices sent and records each escalation (iteration, new theta_min) and
    the freeze (iteration, ideal CF).
    """
    n_workers, batch = cost.workers, task.batch_size
    root = SeededRng(seed)
    data_rng, control_rng = root.split(1), root.split(2)
    w = np.array(task.initial_weights(root.split(3)), dtype=np.float64)
    m = w.size
    lr, buf = optimizer.lr, np.zeros(m)
    residuals = [np.zeros(m, dtype=np.float32) for _ in range(n_workers)]
    lam = min(1.0, max(0.01, n_workers / 100.0))
    smoothed = {}  # cf -> smoothed gain
    t_sys_of, t_comp_of = {}, {}  # cf -> latest system / compression throughput
    cfg = controller_config
    if mode == "gravac":
        theta_min, theta_s, step, theta_ideal = cfg.theta_min, 1.0, 0, None
    events = {"choices": {}, "escalations": [], "freeze": None}
    rows = []

    def observe(cf, raw):
        if cf == 1.0:
            return 1.0
        x = min(1.0, raw)
        s = smoothed.get(cf)
        smoothed[cf] = x if s is None else lam * x + (1.0 - lam) * s
        return smoothed[cf]

    def mean_gain(parts, norms):
        gains = [min(1.0, _norm_sq(p.vals) / nrm) for p, nrm in zip(parts, norms) if nrm > 0]
        return sum(gains) / len(gains)

    for i in range(1, iterations + 1):
        grads, losses = zip(*task.gradients(w, n_workers, i, data_rng))
        loss = float(np.mean(losses))

        t_compress = 0.0
        parts = None  # the compressed views sent, or None for a dense send
        if mode == "dense":
            dense_views = [g.values for g in grads]
            choice, cf, gain, gain_min, gain_c, row_theta = "dense", 1.0, 1.0, 1.0, 1.0, 1.0
        else:
            g_ef = [g.values + r for g, r in zip(grads, residuals)]
            norms = [_norm_sq(v) for v in g_ef]
            dense_views = g_ef
            if mode == "static-cf":
                cf = float(static_cf)
                parts = [compress(compressor, GradientVector(v), static_cf,
                                  control_rng.split(i, k))[0] for k, v in enumerate(g_ef)]
                t_compress = _latency(compressor, m, parts[0].kept)
                gain = observe(cf, mean_gain(parts, norms)) if any(x > 0 for x in norms) else 1.0
                choice, gain_min, gain_c, row_theta = "static", gain, gain, cf
            else:
                candidate = theta_s * theta_min
                row_theta = theta_min
                if all(x == 0.0 for x in norms):
                    # vanished gradient: a dense send with no compression or gain update
                    choice, cf, gain, gain_min, gain_c = "dense", 1.0, 1.0, 1.0, 1.0
                    d_min = 1.0 if theta_min == 1.0 else smoothed.get(theta_min)
                    d_c = 1.0 if candidate == 1.0 else smoothed.get(candidate)
                else:
                    mins = [compress(compressor, GradientVector(v), theta_min,
                                     control_rng.split(i, k, 0))[0] for k, v in enumerate(g_ef)]
                    d_min = observe(theta_min, mean_gain(mins, norms))
                    cands = [compress_further(compressor, p, theta_s,
                                              control_rng.split(i, k, 1))[0]
                             for k, p in enumerate(mins)]
                    d_c = observe(candidate, mean_gain(cands, norms))
                    t_compress = (_latency(compressor, m, mins[0].kept)
                                  + _latency(compressor, mins[0].kept, cands[0].kept))
                    gain_min, gain_c = d_min, d_c
                    if d_c >= cfg.epsilon:
                        choice, cf, gain, parts = "candidate", candidate, d_c, cands
                    elif d_min >= cfg.epsilon:
                        choice, cf, gain, parts = "minimum", theta_min, d_min, mins
                    else:
                        choice, cf, gain = "dense", 1.0, 1.0

        if parts is None:
            t_compress = 0.0
            floats = words = m
            agg = np.zeros(m)
            for v in dense_views:
                agg += v
            residuals = [np.zeros(m, dtype=np.float32) for _ in range(n_workers)]
        else:
            floats, words = parts[0].kept, 2 * parts[0].kept
            agg = np.zeros(m)
            for k, p in enumerate(parts):
                idx = p.indices.astype(np.int64)
                np.add.at(agg, idx, p.vals.astype(np.float64))
                res = dense_views[k].copy()
                res[idx] -= p.vals
                residuals[k] = res
        agg /= n_workers
        t_sync = _allreduce(cost, words)
        t_iter = cost.t_compute + t_compress + t_sync
        t_sys = n_workers * batch / t_iter
        t_sys_of[cf], t_comp_of[cf] = t_sys, t_sys * gain
        events["choices"][choice] = events["choices"].get(choice, 0) + 1

        # momentum SGD: buffer <- momentum*buffer + grad; w <- w - lr*buffer
        g = agg.astype(np.float32).astype(np.float64)
        if optimizer.momentum:
            buf *= optimizer.momentum
            buf += g
        else:
            buf = g
        w -= lr * buf

        rows.append({
            "iter": i, "cf": float(cf), "gain_min": gain_min, "gain_c": gain_c,
            "t_o": cost.t_compute, "t_compress": t_compress, "t_s": t_sync, "t_iter": t_iter,
            "tsys": t_sys, "tcomp": t_sys * gain, "loss": loss, "floats_sent": floats,
            "words_sent": words, "choice": choice, "theta_min": row_theta})

        if mode == "gravac" and theta_ideal is None and i % cfg.window == 0:
            if d_min is not None and d_c is not None and d_min > 0:
                if cfg.omega >= abs(d_min - d_c) / d_min:
                    theta_min = min(cfg.theta_max, theta_s * theta_min)
                    events["escalations"].append((i, theta_min))
            step += 1
            theta_s = _step_factor(cfg.policy, step, theta_min, cfg.theta_max)
            ranked = sorted(t_comp_of.items(), key=lambda kv: (-kv[1], -kv[0]))
            if len(ranked) >= 2:
                (_, v_first), (cf_second, v_second) = ranked[:2]
                if v_second > 0 and abs(v_first - v_second) / v_second <= cfg.omega:
                    theta_ideal = cf_second
                    theta_s = max(1.0, theta_ideal / theta_min)
                    events["freeze"] = (i, theta_ideal)
    return rows, w, events
