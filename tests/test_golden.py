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
computed in float32 from a float32 copy of the weights.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
    "mlp-n4-gravac-topk": MLP,
    # 300 evaluation samples end in a partial block of the blocked evaluation
    "mlp-n4-gravac-topk-eval300": dict(MLP, eval_samples="300"),
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
    "quad-n4-gravac-topk": "a2f460ccbb69476bf15bf13ab1b5e075b0d719c7abc3524cb27c304931090773",
    "quad-n4-gravac-dgc": "598d418977a49ec0ca1e692659324f77e6a6e6f1547400812c66addace4e7d48",
    "quad-n4-gravac-redsync": "71a035d1281d767102c13c11e7291d7b34b44e41394d00002a11bbc12dd07a79",
    "quad-n4-gravac-randomk": "671ff8e79618d9450e705c16b832e1ded98a5f7df4a33d021f096c61035a17ca",
    "quad-n4-gravac-topk-eps0.7": "2506126e3644480c6b99dea59598bc256bfc15afea99a20933a4e1b0b1071cbf",
    "quad-n4-static-cf-topk": "ad4fc5d1dca78191ff88af3b114d512bcfc4236843d12b9e770309631cd02655",
    "quad-n4-static-cf-dgc": "e2137fd1cf8daa935781e49b07eb7403b2ccf92f77b7e05487644dcf312c7520",
    "quad-n4-static-cf-redsync": "342f4fefdde436db4510cb51444b9d10aff6e761927a5e438eaf640d557dfb7b",
    "quad-n4-static-cf-randomk": "9c1b72d9729e4e7d54d98a2962988deff55738bde25eb99e734b872655e2e130",
    "quad-n4-dense-topk": "96d708918312b5ad022860b00bf0ea87c17135dc65fdbf348366a21bf2561f8d",
    "quad-n4-dense-dgc": "96d708918312b5ad022860b00bf0ea87c17135dc65fdbf348366a21bf2561f8d",
    "quad-n4-dense-redsync": "96d708918312b5ad022860b00bf0ea87c17135dc65fdbf348366a21bf2561f8d",
    "quad-n4-dense-randomk": "96d708918312b5ad022860b00bf0ea87c17135dc65fdbf348366a21bf2561f8d",
    "quad-n8-static-cf-topk": "be25cf369fd9f2a1e81f7f72b7100948b42dcb808a1cb8994b79acbba8b56d2b",
    "quad-n8-static-cf-dgc": "628596eb89fbfc5c0c2ef14435389abf1266663d5571546be8a897299071ab00",
    "quad-n8-static-cf-redsync": "4c2953eb1425a4831cd5938ec99637a50da0293a35c8bd1be270cacc6fc72e58",
    "quad-n8-static-cf-randomk": "97541a916ced683399998b3a53dda83a65636c1cd91cdd8116eedb00f85f82f4",
    "mlp-n4-gravac-topk": "3efa2310b71297809866dc53f561c3ce1e30d6e1a70b0b8556348f574cc12a1c",
    "mlp-n4-gravac-topk-eval300":
        "ea44d949e14674bd7de22e5e900dc52f1a1535aa9cced608b7ec71500b9e7caf",
    "quad-n4-gravac-vanished": "ae1f9f56d44a7efd4db5edf0e8125d25edf109df3a25f2629f34be20a37b56cd",
    "quad-m20k-b1-gravac-dgc": "4bee39897337a8dfe8c74c4f518f7ac01072399321a612cba095b38b0ebded98",
    "quad-m20k-b1-gravac-redsync": "0c0fb12b8ca9cef39c9dba5c03d9d8f418b26d62bf078df821ad29eaa91683bc",
    "quad-m20k-b1-gravac-topk": "055dcb77cb4fdd5b3f2a867e09229bf608d67bcabced34dcf0f21775a8dfd2a1",
    "quad-m20k-b1-static-cf-redsync": "b6f22e192571004c572557ff4deb0f98e6a6cf10437bc2b156467be70f1241d3",
    "quad-m20k-b3-gravac-dgc": "8798e25813a8ff3a6960dcedd1a66a96d29265da346a3b71948cbf0c9de6149a",
    "quad-m20k-b3-gravac-redsync": "e8712c1ca6a5abacb5ff74295553e1ac6fc70b678fcffa25237a21981d6146eb",
    "quad-m20k-b3-gravac-topk": "2f109b3732714de6e82163bb789172090e419b4b5854ff9299c7ccb50eaa224b",
    "quad-m20k-b3-static-cf-redsync": "fc2a5dd0211a0eb43edf444ffdd8f2b3cd4930572444de5faf02f45b3c6b0d6a",
}

# the numpy the digests were taken under: numpy does not promise that a
# Generator keeps its streams across versions, so the byte-identity contract
# holds per numpy version
GOLDEN_NUMPY = "2.4.6"

# changed once on purpose: the dead compressor.redsync_max_rounds key was removed
DEFAULT_CONFIG_SHA256 = "dac0665ae9a93f189dc0e415f84ebadf8030f28c08c614f8600f683d90c0f438"


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


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_outputs_match_golden_hash(case, tmp_path, monkeypatch):
    assert run_digest(CASES[case], tmp_path / case, monkeypatch) == GOLDEN[case], (
        f"digests were taken under numpy {GOLDEN_NUMPY}; this is numpy {np.__version__}")


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
