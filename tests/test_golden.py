"""Golden hashes: fixed-seed runs must reproduce their outputs byte for byte.

Each case runs ``run_experiment`` on a small config and hashes the
``trace.jsonl`` and ``summary.json`` it writes together with the final
weights. A refactor that changes any of them changed behaviour. A change
that alters traces on purpose updates the digests and says why. They were
taken when squared norms and the quadratic's loss began to reduce through
``gradcore.dot64``, whose bits do not depend on the BLAS thread count;
every decision, volume and modeled time stayed as it was, and only the
vanished-gradient case, which takes no norm, kept its digest. The two MLP
digests were taken again when the MLP's worker gradients began to be
computed in float32 from a float32 copy of the weights. Every quadratic
case with gradient noise was taken again when the noise began to be drawn
by ``gradcore.normal32``'s float32 Box–Muller transform instead of numpy's
ziggurat; the noise-free vanished-gradient case and the MLP cases kept
theirs. The two MLP digests were taken again when the MLP's training
batches began to be drawn by ``normal32`` too, as float32 features, while
its evaluation kept numpy's float64 draw; every quadratic digest kept its
own. The MLP and noisy-quadratic digests thus depend on numpy's float32
``log``/``sin``/``cos`` kernels, which a failing digest names. The
geometric-policy and tree-topology cases were added later, with no other
digest changed.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

import gravac
from gravac import harness
from gravac.harness import parse_config, run_experiment, serialize_config

QUAD = {
    "task.kind": "quadratic", "task.size": "96", "task.batch_size": "2",
    "task.noise_std": "0.2", "opt.lr": "0.1", "opt.momentum": "0.5",
    "iters": "30", "seed": "11", "static_cf": "6",
    "controller.theta_min": "2", "controller.theta_max": "32",
    "controller.epsilon": "0.5", "controller.window": "5",
}

MLP = {
    "task.kind": "synthetic_mlp", "task.widths": "64,16,8,2",
    "task.blob_spread": "6.0", "task.feature_decades": "6.0",
    "mode": "gravac", "iters": "60", "seed": "42", "cost.workers": "4",
    "controller.theta_min": "4", "controller.theta_max": "256",
    "controller.epsilon": "0.6", "controller.window": "10",
}

CASES = {
    **{f"quad-n4-{mode}-{kind}": dict(QUAD, mode=mode, **{"compressor.kind": kind,
                                                          "cost.workers": "4"})
       for mode in ("gravac", "static-cf", "dense")
       for kind in ("topk", "dgc", "redsync", "randomk")},
    **{f"quad-n8-static-cf-{kind}": dict(QUAD, mode="static-cf",
                                         **{"compressor.kind": kind, "cost.workers": "8"})
       for kind in ("topk", "dgc", "redsync", "randomk")},
    # a higher gate makes top-k fall back to dense sends between compressed ones
    "quad-n4-gravac-topk-eps0.7": dict(QUAD, mode="gravac", **{
        "compressor.kind": "topk", "cost.workers": "4", "controller.epsilon": "0.7"}),
    # the step factor goes 2, 4, 8 where the exponential policy's goes 2, 4, 16
    "quad-n4-gravac-topk-geometric": dict(QUAD, mode="gravac", **{
        "compressor.kind": "topk", "cost.workers": "4", "controller.policy": "geometric"}),
    "quad-n8-gravac-topk-tree": dict(QUAD, mode="gravac", **{
        "compressor.kind": "topk", "cost.workers": "8", "cost.topology": "tree"}),
    "mlp-n4-gravac-topk": MLP,
    "quad-n4-gravac-vanished": dict(QUAD, mode="gravac", **{
        "task.init_offset": "0", "task.noise_std": "0", "cost.workers": "4"}),
    # a vector large enough that Redsync's bisection runs many rounds
    **{f"quad-m20k-b{batch}-{mode}-{kind}": dict(QUAD, mode=mode, **{
        "compressor.kind": kind, "cost.workers": "4", "task.size": "20000",
        "task.batch_size": str(batch), "task.noise_std": "0.1", "iters": "10"})
       for mode, kind in (("gravac", "redsync"), ("gravac", "topk"), ("gravac", "dgc"),
                          ("static-cf", "redsync"))
       for batch in (1, 3)},
}

GOLDEN = {
    "quad-n4-gravac-topk": "8e90844dce158e112c3fa695b98ff719988fa4beb0b636424b1f7d66aff5330f",
    "quad-n4-gravac-dgc": "40f9d520458d7ecdfafe64f5183de6a22168ddae70b7403fdf5087e35ae51cb5",
    "quad-n4-gravac-redsync": "fb5b9c2f0cb47ed4f0ac1a53dfcdb897f4897895a2bda950a05ed91be7986185",
    "quad-n4-gravac-randomk": "cc8a44de7879982a1e9b440a35ef5ec7431a1cfb16c92e4db607da00e4a96471",
    "quad-n4-gravac-topk-eps0.7": "2007a3580bc6ba149e25e5767e318d84f6312d1afdf36d88ced65b1d73878d31",
    "quad-n4-static-cf-topk": "310aad39f202ef9a02ad84bdb86b30b9420112c435a92cf1b4552b4744f66a8e",
    "quad-n4-static-cf-dgc": "762bab859a2278074b9fcdc398ad63470a2fff89b9963437014c7f9a86a3502f",
    "quad-n4-static-cf-redsync": "adef20515d666f0ab8ff9dce13ccda1e95ed4a287d279d963fa18cd5002f2dbc",
    "quad-n4-static-cf-randomk": "8b0a73a80a96038a9da9f327b642a1e41cf20c791a0f70d622b1d811a1667f7b",
    "quad-n4-dense-topk": "2d292fac16ce6cfad7d37fd91ee7f78fda3a486cf1c68de637b0df87457dc6cd",
    "quad-n4-dense-dgc": "2d292fac16ce6cfad7d37fd91ee7f78fda3a486cf1c68de637b0df87457dc6cd",
    "quad-n4-dense-redsync": "2d292fac16ce6cfad7d37fd91ee7f78fda3a486cf1c68de637b0df87457dc6cd",
    "quad-n4-dense-randomk": "2d292fac16ce6cfad7d37fd91ee7f78fda3a486cf1c68de637b0df87457dc6cd",
    "quad-n8-static-cf-topk": "3c5456c81191641d31de3432773ed22c6c8aa245d32106c125d2696dd465d7d2",
    "quad-n8-static-cf-dgc": "eabc7bb5a4bdd9033ea658834548de02ba5deaa9f7582bebb2572a3ceaf0f95a",
    "quad-n8-static-cf-redsync": "962b4e232313f68f68d6fef49612ee93026bc054efb25540f957a7be1b30c8cd",
    "quad-n8-static-cf-randomk": "7a47438c011886a515e000740bf59a540be9d019a246646d812ed28163b8def9",
    "quad-n4-gravac-topk-geometric": "2c4129506d8ff3ff86e8c6f894f435a4f2be1892e3df9ff460d0c2270a58a2ab",
    "quad-n8-gravac-topk-tree": "fa5e250a93486f0e10c2bf2cd1250886ca993c17a75a23afb1c7c713cea36263",
    "mlp-n4-gravac-topk": "d31f786544043bc9e0ff5f33da354b4978a6915a296c94ba5adb4d2c609b3848",
    "quad-n4-gravac-vanished": "ae1f9f56d44a7efd4db5edf0e8125d25edf109df3a25f2629f34be20a37b56cd",
    "quad-m20k-b1-gravac-dgc": "4c655a4414701d6f6d86dba9daef08bd113e7eb1193dd5d73e6ab9de806d742c",
    "quad-m20k-b1-gravac-redsync": "b10aa1bd1848dfab963e52d55c825c8247496afbc7ad10e0e8f30a618ab4a1ed",
    "quad-m20k-b1-gravac-topk": "6325e8943cafd68b5538fbba4cb3d889e806b009ebb131f1b53f2730be833523",
    "quad-m20k-b1-static-cf-redsync": "2b831b8d2fb9d0611c0cb48fcc2d46fa2b74bd28d24575b51dea5b1022a83223",
    "quad-m20k-b3-gravac-dgc": "a1f54800663934a9e871d1d046ddd74468eea225382ed9ffe44b8c208f8f7428",
    "quad-m20k-b3-gravac-redsync": "854714abf3faf1cef82a15bffa302ac25d7812bf3b0a2361fdf06732188bcb87",
    "quad-m20k-b3-gravac-topk": "d825eba24b3c46f50a0624f771f15720a486a4dfd51b7c9443eb6d6b1975c70c",
    "quad-m20k-b3-static-cf-redsync": "1d94cd5ef2a0dc130e4fc7cfc217f0c87097f9710b5a909a3bccd2919517d9a9",
}

# the numpy the digests were taken under: numpy does not promise that a
# Generator keeps its streams across versions, so the byte-identity contract
# holds per numpy version
GOLDEN_NUMPY = "2.4.6"

# changed four times on purpose: the dead compressor.redsync_max_rounds key was
# removed, then the baseline key, then the nine keys that no shipped config set,
# then eval_samples
DEFAULT_CONFIG_SHA256 = "376942e575a772debff9c206acdf6ea44b4781be5008a998dea43eb43cef1ecf"


def run_digest(overrides, out_dir, monkeypatch) -> str:
    results = []

    def capture(*args, **kwargs):
        results.append(run_training(*args, **kwargs))
        return results[-1]

    run_training = harness.run_training
    monkeypatch.setattr(harness, "run_training", capture)
    run_experiment(parse_config(overrides=dict(overrides, out=str(out_dir))))
    digest = hashlib.sha256()
    for name in ("trace.jsonl", "summary.json"):
        digest.update((out_dir / name).read_bytes())
    digest.update(results[0].weights.tobytes())
    return digest.hexdigest()


def float32_kernels() -> str:
    """The CPU targets of numpy's float32 log, sin and cos kernels here."""
    info = opt_func_info(func_name="^(log|sin|cos)$", signature="float32")
    return ", ".join(f"{name} {'/'.join(target['current'] for target in info[name].values())}"
                     for name in ("log", "sin", "cos"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_outputs_match_golden_hash(case, tmp_path, monkeypatch):
    assert run_digest(CASES[case], tmp_path / case, monkeypatch) == GOLDEN[case], (
        f"digests were taken under numpy {GOLDEN_NUMPY} with X86_V3 or X86_V4 float32 "
        f"kernels; this is numpy {np.__version__} with {float32_kernels()}")


def test_default_config_rendering_matches_golden_hash():
    text = serialize_config(parse_config())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_CONFIG_SHA256


# Prints the digest of one case's trace.jsonl and summary.json; run in a
# fresh process, because OpenBLAS reads its thread count when it loads.
_DIGEST_SCRIPT = """
import hashlib, json, pathlib, sys
from gravac.harness import parse_config, run_experiment
overrides = json.loads(sys.argv[1])
run_experiment(parse_config(overrides=overrides))
out = pathlib.Path(overrides["out"])
print(hashlib.sha256(b"".join((out / n).read_bytes()
                              for n in ("trace.jsonl", "summary.json"))).hexdigest())
"""


# runs whose vectors exceed the ~1e4 entries above which OpenBLAS splits a
# dot product across its threads
THREAD_CASES = {
    "quad-m20k-b1-gravac-redsync": CASES["quad-m20k-b1-gravac-redsync"],
    # M = 16,482; at widths 256,64,8,2 (M = 16,986) the first 5 iterations
    # happened to round alike at 1 and 2 threads under np.dot
    "mlp-m16k-gravac-topk": dict(MLP, **{"task.widths": "512,32,2", "iters": "5"}),
    # the mlp_wide benchmark's GEMM shapes through the float32 worker
    # gradient (sgemm) and the float64 evaluation (dgemm)
    "mlp-m279k-gravac-topk": dict(MLP, **{"task.widths": "1024,256,64,2", "iters": "5"}),
}


def digest_with_blas_threads(case: str, threads: int, out_dir) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.path.dirname(os.path.dirname(gravac.__file__)))
    overrides = dict(THREAD_CASES[case], out=str(out_dir))
    proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, json.dumps(overrides)],
                          capture_output=True, text=True, env=env, timeout=120)
    proc.check_returncode()
    return proc.stdout.strip()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
@pytest.mark.parametrize("case", sorted(THREAD_CASES))
def test_trace_bytes_do_not_depend_on_blas_threads(case, tmp_path):
    one, two = (digest_with_blas_threads(case, n, tmp_path / f"threads{n}") for n in (1, 2))
    assert one == two
