import threading
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from posevote import cli, pipeline
from posevote.fields import DepthMap, to_tensor
from posevote.geometry import Pose
from posevote.metrics import AUC_CAP_M
from posevote.pipeline import PipelineConfig, run_pipeline
from posevote.refine import IcpError, IcpParams
from posevote.synth import (NoiseSpec, default_registry, perturbed_pose,
                            random_scene)
from posevote.voting import detect

MODELS = default_registry()


def test_noise_free_recovery():
    summary, records = run_pipeline(PipelineConfig(scenes=6, seed=3), MODELS)
    assert summary["auc_adds"] >= 99.5
    assert summary["detection_rate"] == 1.0
    assert all(r.add_s < 0.002 for r in records if r.detected)


def test_summary_deterministic():
    cfg = PipelineConfig(scenes=4, seed=5,
                         noise=NoiseSpec(direction_sigma=0.05, rng_seed=5))
    s1, r1 = run_pipeline(cfg, MODELS)
    s2, r2 = run_pipeline(cfg, MODELS)
    assert s1 == s2
    assert [rec.to_row() for rec in r1] == [rec.to_row() for rec in r2]


def test_run_pipeline_evaluates_scenes_in_order_on_the_calling_thread(
        monkeypatch):
    calls = []
    real = pipeline.evaluate_scene

    def spy(scene_index, cfg, models):
        calls.append((threading.get_ident(), scene_index))
        return real(scene_index, cfg, models)

    monkeypatch.setattr(pipeline, "evaluate_scene", spy)
    cfg = PipelineConfig(scenes=3, seed=6)
    _, records = run_pipeline(cfg, MODELS)
    assert calls == [(threading.get_ident(), i) for i in range(3)]
    assert [r.to_row() for r in records] == [
        r.to_row() for i in range(3) for r in real(i, cfg, MODELS)]


# rejected when the config is built, not after the run or inside range()
@pytest.mark.parametrize("scenes", [0, -1, 2.5, "3", True])
def test_scenes_not_an_integer_of_at_least_one_rejected(scenes):
    with pytest.raises(ValueError,
                       match="scenes must be an integer of at least 1, got "):
        PipelineConfig(scenes=scenes)


# rejected when the config is built, not inside numpy once the scenes run
@pytest.mark.parametrize("seed", [-1, 2.5, "3", None, False])
def test_seed_not_an_integer_of_at_least_zero_rejected(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        PipelineConfig(scenes=1, seed=seed)


def test_auc_cap_is_a_constant_not_a_setting():
    assert PipelineConfig.max_threshold == PipelineConfig().max_threshold == AUC_CAP_M
    with pytest.raises(TypeError):
        PipelineConfig(max_threshold=0.2)


def test_min_visibility_filter():
    _, records = run_pipeline(PipelineConfig(scenes=6, seed=3), MODELS)
    assert all(r.visibility >= 0.3 for r in records)


def test_match_detections_within_25_px():
    truth = SimpleNamespace(index=0, class_id=1, center=np.array([100.0, 100.0]))
    far = SimpleNamespace(class_id=1, center=np.array([130.0, 100.0]))
    near = SimpleNamespace(class_id=1, center=np.array([100.0, 120.0]))
    assert pipeline._match_detections([truth], [far]) == {}
    assert pipeline._match_detections([truth], [far, near]) == {0: (20.0, near)}


def test_rotation_noise_degrades_then_icp_recovers():
    noise = NoiseSpec(direction_sigma=0.05, depth_sigma=0.005,
                      rotation_sigma_deg=25.0, rng_seed=0)
    s1, _ = run_pipeline(PipelineConfig(scenes=4, seed=0, noise=noise,
                                        refine=False), MODELS)
    s2, _ = run_pipeline(PipelineConfig(scenes=4, seed=0, noise=noise,
                                        refine=True,
                                        icp=IcpParams(n_hypotheses=4)), MODELS)
    assert s2["auc_adds"] > s1["auc_adds"]


def test_summary_records_rotation_noise():
    noise = NoiseSpec(direction_sigma=0.05, depth_sigma=0.005,
                      rotation_sigma_deg=25.0)
    s1, _ = run_pipeline(PipelineConfig(scenes=1, noise=noise), MODELS)
    s2, _ = run_pipeline(PipelineConfig(
        scenes=1, noise=replace(noise, rotation_sigma_deg=0.0)), MODELS)
    assert s1["noise"]["rotation_sigma_deg"] == 25.0
    assert s2["noise"]["rotation_sigma_deg"] == 0.0
    assert s1["noise"] != s2["noise"]
    # labels are never flipped, so no flip rate is recorded; the AUC cap is
    # fixed, and kept for readers of earlier summaries
    assert "label_flip_rate" not in s1["noise"]
    assert s1["max_threshold_m"] == s2["max_threshold_m"] == 0.1


def _reference_rotation(truth, scene_noise):
    """The rotation stand-in as evaluate_scene once drew it inline."""
    q_est = truth.pose.quaternion.copy()
    if scene_noise.rotation_sigma_deg > 0:
        rot_rng = np.random.default_rng(
            scene_noise.rng_seed * 9973 + truth.index)
        ang = abs(rot_rng.normal(0.0, scene_noise.rotation_sigma_deg))
        q_est = perturbed_pose(Pose(q_est, truth.pose.translation),
                               ang, 0.0, rot_rng).quaternion
    return q_est


def test_synth_frame_pins_the_simulated_rotations():
    noise = NoiseSpec(rng_seed=0, **cli._NOISE_PRESETS["moderate"])
    clean = replace(noise, rotation_sigma_deg=0.0)
    assert [f.name for f in fields(pipeline.Frame)] == [
        "depth", "truths", "fld", "labels", "rotations"]
    moved = total = 0
    for i in range(26):
        scene = random_scene(pipeline.scene_seed(0, i), MODELS)
        frame = pipeline.synth_frame(scene, i, noise, MODELS)
        scene_noise = replace(noise, rng_seed=pipeline.scene_seed(0, i))
        assert isinstance(frame.depth, DepthMap)
        assert len(frame.rotations) == len(frame.truths)
        for t in frame.truths:
            ref = _reference_rotation(t, scene_noise)
            assert np.array_equal(frame.rotations[t.index], ref)
            moved += not np.array_equal(ref, t.pose.quaternion)
            total += 1
        unrotated = pipeline.synth_frame(scene, i, clean, MODELS)
        for t in unrotated.truths:
            assert np.array_equal(unrotated.rotations[t.index],
                                  t.pose.quaternion)
    assert moved == total > 0


def test_synth_files_match_what_evaluate_scene_votes_on(tmp_path, monkeypatch):
    assert cli.run(["synth", "--out-dir", str(tmp_path), "--random", "2",
                    "--seed", "4", "--noise", "moderate"]) == 0
    voted, observed = [], []

    def spy_detect(labels, fld, intrinsics):
        voted.append((labels.labels.copy(), to_tensor(fld, labels, max(MODELS))))
        return detect(labels, fld, intrinsics)

    def spy_refine(depth, *args):
        observed.append(depth.depth.copy())
        raise IcpError("recorded")  # the pipeline keeps the voted pose

    monkeypatch.setattr(pipeline, "detect", spy_detect)
    monkeypatch.setattr(pipeline, "multi_hypothesis_refine", spy_refine)
    cfg = PipelineConfig(seed=4, refine=True, noise=NoiseSpec(
        rng_seed=4, **cli._NOISE_PRESETS["moderate"]))
    for i in range(2):
        del voted[:], observed[:]
        pipeline.evaluate_scene(i, cfg, MODELS)
        prefix = str(tmp_path / f"scene_{i:04d}")
        (labels, fld), = voted
        assert observed
        assert _same_array(prefix + "_labels.npy", labels)
        assert _same_array(prefix + "_field.npy", fld)
        for depth in observed:
            assert _same_array(prefix + "_depth.npy", depth)


def _same_array(path, expected) -> bool:
    """Whether the .npy file at path holds `expected`'s dtype, shape and bytes."""
    a = np.load(path, allow_pickle=False)
    return (a.dtype == expected.dtype and a.shape == expected.shape
            and a.tobytes() == expected.tobytes())
