"""Golden hashes: fixed-seed runs must reproduce their outputs byte for byte.

Each case runs ``run_experiment`` on a small config and hashes the
``trace.jsonl`` and ``summary.json`` it writes together with the final
weights. The pinned digests were taken before the training loop was
restructured; a refactor that changes any of them changed behaviour. A PR
that changes traces on purpose updates the digest and says why.
"""

import hashlib

import pytest

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
    "quad-n4-gravac-topk": "d928245102d801350fa6775ca82e18b05c50ca66389a576c999bf3105446c699",
    "quad-n4-gravac-dgc": "03344f7c264bcf8d0a020d96daeebc4d6e84fdb755c2d57df222791389952ead",
    "quad-n4-gravac-redsync": "5fa1e41da0833161ccc7b67c31dd4255bff7c9ea83fbc1fd9e74df5e5551786e",
    "quad-n4-gravac-randomk": "68021d55fd2e301cde5265c143826abe1128eddaa39fd180dfe5f72811719256",
    "quad-n4-gravac-topk-eps0.7": "9fb82fc46ea4b1b3fb6e71c3417fde92a8d274d31e47a978fac70837515e0534",
    "quad-n4-static-cf-topk": "80a6556e7b9acb78ae57d85fa471f4b277aae064d664c5323cd2d85054a98cbd",
    "quad-n4-static-cf-dgc": "73048ab700197f99732f60c3ac0cc69ec66524e34fdeb6aeed402c101fd5f813",
    "quad-n4-static-cf-redsync": "7aa70edb57d160227398d782b39d3aa7bc88bc3d97d09cd29e22fa1bfd15b9de",
    "quad-n4-static-cf-randomk": "38195c12a394056a9779fdc33823115841b4cb8c7e715ca4beeecd6cff5bdd2f",
    "quad-n4-dense-topk": "8dfce4a3e1d8fe23b995f353c3d20d7983dbe56119b088b7b02c862a361062bb",
    "quad-n4-dense-dgc": "8dfce4a3e1d8fe23b995f353c3d20d7983dbe56119b088b7b02c862a361062bb",
    "quad-n4-dense-redsync": "8dfce4a3e1d8fe23b995f353c3d20d7983dbe56119b088b7b02c862a361062bb",
    "quad-n4-dense-randomk": "8dfce4a3e1d8fe23b995f353c3d20d7983dbe56119b088b7b02c862a361062bb",
    "quad-n8-static-cf-topk": "eea6c823132e459610f370b8a75e0dff1e56bb4be8f8be361b2b303fde83ec41",
    "quad-n8-static-cf-dgc": "2c5505e0ad62a7b98a9576cba47a23f05c211e179da2dc9ffe6b1a54c3d51e8d",
    "quad-n8-static-cf-redsync": "909fb23620fec926ac2bb25d57bc0181d7149cb495fe6918ea58d449a8287c50",
    "quad-n8-static-cf-randomk": "c529d3fc3548ba0a387bc9ee67e118f0181d56799b0af231fb8ed3709efee3ef",
    "mlp-n4-gravac-topk": "ad7197d7e5e467f9dc77c86b8765fab0d8d8f44a739a7035fc8af411a7d01945",
    "quad-n4-gravac-vanished": "ae1f9f56d44a7efd4db5edf0e8125d25edf109df3a25f2629f34be20a37b56cd",
    "quad-m20k-b1-gravac-dgc": "f9e8e3cc0b1db313b12091802aad35d215b45cb63162c6b5eb23be1cfc67b259",
    "quad-m20k-b1-gravac-redsync": "da74e1e350d2f1fad7a362be6bcf74b904708443849be34bdcd14a1deb41beac",
    "quad-m20k-b1-gravac-topk": "628427f8b17168299141848c0b720fde012ad5fed0d0bd020871eed46d44d3d5",
    "quad-m20k-b1-static-cf-redsync": "283de5372a761a9f0c36c961b0349b196d6eca08f6c13aa26aa7cf893c98d045",
    "quad-m20k-b3-gravac-dgc": "951efebc7301add7917b2016700eda30dd306f58961c7b92e222dc692eb34bc3",
    "quad-m20k-b3-gravac-redsync": "c292f5c3ed3d6340969d3c685926aa5bdcd959501c3cad39a429509754e588b5",
    "quad-m20k-b3-gravac-topk": "260827786e342aee07a2f36dbb12fa501af70293ac6b2fdef99a2ba6f0feda54",
    "quad-m20k-b3-static-cf-redsync": "dc8ad05a6e2620951090ea79beabc4edc979e4b11d8a63e5d9c914dd591c3dda",
}

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
    assert run_digest(CASES[case], tmp_path / case, monkeypatch) == GOLDEN[case]


def test_default_config_rendering_matches_golden_hash():
    text = serialize_config(parse_config())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_CONFIG_SHA256
