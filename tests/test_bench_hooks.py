"""The benchmark's tracer rebinds program names from outside (see
bench/tracing.py), and its workloads call the program (bench/workloads.py).
Installing the tracer and running one op of each workload here makes a
rename or deletion of any name they use, or of a parameter the tracer's
counters read, fail these tests rather than a benchmark run."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from posevote import losses, pipeline, refine, voting
from posevote.refine import IcpParams
from posevote.synth import NoiseSpec, default_registry, make_primitive_model

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer_and_restores_every_name():
    tracing = _load_bench("tracing")
    modules = (pipeline, refine, voting, losses)
    before = [dict(vars(m)) for m in modules]
    models = default_registry()
    clean = pipeline.PipelineConfig(seed=0)
    refined = pipeline.PipelineConfig(
        seed=0, refine=True, icp=IcpParams(n_hypotheses=2, rng_seed=0),
        noise=NoiseSpec(rng_seed=0, direction_sigma=0.05, depth_sigma=0.005,
                        rotation_sigma_deg=25.0))
    bar = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    rng = np.random.default_rng(0)
    q_gt, q0 = rng.standard_normal(4), rng.standard_normal(4)
    with tracing.Tracer().installed() as t:
        assert any(vars(m) != b for m, b in zip(modules, before))
        pipeline.evaluate_scene(0, clean, models)
        pipeline.evaluate_scene(11, refined, models)
        losses.optimize_rotation(bar, q_gt, losses.LossKind.SLOSS, [q0], steps=3)
    for m, b in zip(modules, before):
        assert vars(m).keys() == b.keys()
        assert all(vars(m)[name] is value for name, value in b.items()), m
    metrics = {name: value for name, (value, _) in tracing.layer_metrics(t).items()}
    assert metrics["pipeline.evaluate_scene.calls"] == 2
    assert metrics["voting.cast_votes.calls"] > 0
    assert metrics["voting.cast_votes.votes"] > 0
    assert metrics["voting.collect_inliers.busy_s"] > 0
    assert metrics["refine.icp_refine.calls"] > 0
    assert metrics["synth.render_full.icp.calls"] > 0
    assert metrics["synth.render_full.icp.covered_px"] > 0
    assert metrics["refine.iterations"] > 0
    assert metrics["losses.sloss.calls"] == 3


@pytest.mark.parametrize("name", ["detect_clean", "refine_noisy", "sloss_histogram"])
def test_workload_runs_its_first_op_end_to_end(name):
    workload = _load_bench("workloads").WORKLOADS[name]
    runner = workload(0, workload.build_models())
    key = runner.key(0)
    results = {key: runner.op(key)}
    sha256 = re.compile("[0-9a-f]{64}")
    assert sha256.fullmatch(runner.digest(results[key]))
    assert sha256.fullmatch(runner.run_digest(results))
    assert sorted(q[0] for q in runner.quality(results)) == sorted(workload.EXPECTED)
    if len(workload.POOL) == 1:  # the op covered the whole pool
        assert runner.quality_problems(results) == []
