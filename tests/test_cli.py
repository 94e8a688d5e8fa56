import csv
import json
import os

import numpy as np
import pytest

from posevote.cli import run
from posevote.ply import load_ply, save_ply

K_JSON = {"fx": 400.0, "fy": 400.0, "px": 160.0, "py": 120.0}


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


def _pose_entry(class_id, quat, trans):
    return {"class_id": class_id, "quaternion_wxyz": list(quat),
            "translation_m": list(trans)}


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        run(["vote", "--bogus"])
    assert e.value.code == 2


def test_missing_input_exits_1(tmp_path, capsys):
    rc = run(["vote", "--labels", str(tmp_path / "nope.pft"),
              "--field", str(tmp_path / "nope2.pft"),
              "--intrinsics", str(tmp_path / "k.json")])
    assert rc == 1


def test_make_model_and_loss(tmp_path, capsys):
    model = tmp_path / "cube.ply"
    assert run(["make-model", "--kind", "cube", "--out", str(model)]) == 0
    est = tmp_path / "est.json"
    gt = tmp_path / "gt.json"
    _write_json(est, [_pose_entry(1, [1, 0, 0, 0], [0, 0, 1.0])])
    _write_json(gt, [_pose_entry(1, [1, 0, 0, 0], [0, 0, 1.0])])
    out = tmp_path / "loss.json"
    rc = run(["loss", "--model", str(model), "--pose-est", str(est),
              "--pose-gt", str(gt), "--kind", "ploss", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["value_m2"] == pytest.approx(0.0, abs=1e-12)


def test_synth_vote_end_to_end(tmp_path):
    out_dir = tmp_path / "scenes"
    assert run(["synth", "--out-dir", str(out_dir), "--seed", "3"]) == 0
    prefix = str(out_dir / "scene_0000")
    gt = json.loads((out_dir / "scene_0000_gt.json").read_text())
    k_path = tmp_path / "k.json"
    _write_json(k_path, gt["intrinsics"])
    out = tmp_path / "dets.json"
    rc = run(["vote", "--labels", prefix + "_labels.pft",
              "--field", prefix + "_field.pft",
              "--intrinsics", str(k_path), "--out", str(out)])
    assert rc == 0
    dets = json.loads(out.read_text())["detections"]
    visible = [i for i in gt["instances"] if i["visibility"] >= 0.3]
    det_by_class = {d["class_id"]: d for d in dets}
    for inst in visible:
        d = det_by_class[inst["class_id"]]
        err = np.hypot(d["center_px"][0] - inst["center_px"][0],
                       d["center_px"][1] - inst["center_px"][1])
        assert err <= 2.0


def test_synth_deterministic_outputs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["synth", "--out-dir", str(d1), "--seed", "9",
                "--noise", "moderate"]) == 0
    assert run(["synth", "--out-dir", str(d2), "--seed", "9",
                "--noise", "moderate"]) == 0
    for name in sorted(os.listdir(d1)):
        a = (d1 / name).read_bytes()
        b = (d2 / name).read_bytes()
        assert a == b, name


def test_synth_scene_json(tmp_path):
    scene = {
        "intrinsics": K_JSON, "width": 160, "height": 120,
        "instances": [_pose_entry(1, [1, 0, 0, 0], [0, 0, 0.8])],
    }
    scene_path = tmp_path / "scene.json"
    _write_json(scene_path, scene)
    out_dir = tmp_path / "out"
    assert run(["synth", "--out-dir", str(out_dir),
                "--scene", str(scene_path)]) == 0
    gt = json.loads((out_dir / "scene_0000_gt.json").read_text())
    assert gt["instances"][0]["class_id"] == 1


def test_eval_gt_equals_est(tmp_path):
    model = tmp_path / "m.ply"
    run(["make-model", "--kind", "cube", "--out", str(model)])
    poses = [_pose_entry(1, [1, 0, 0, 0], [0.01 * i, 0, 1.0])
             for i in range(3)]
    gt, est = tmp_path / "gt.json", tmp_path / "est.json"
    _write_json(gt, poses)
    _write_json(est, poses)
    out = tmp_path / "summary.json"
    rc = run(["eval", "--gt", str(gt), "--est", str(est),
              "--model", str(model), "--out", str(out)])
    assert rc == 0
    s = json.loads(out.read_text())
    assert s["auc_adds"] == pytest.approx(100.0)
    assert s["accuracy_10pct_diameter"] == 1.0


def test_histogram_csv(tmp_path):
    out = tmp_path / "hist.csv"
    rc = run(["histogram", "--kind", "ploss", "--model-kind", "cube",
              "--inits", "5", "--steps", "10", "--out", str(out)])
    assert rc == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    assert "angle_error_deg" in rows[0]


def test_pipeline_cli_deterministic(tmp_path):
    o1, o2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ["pipeline", "--scenes", "2", "--seed", "4", "--noise", "moderate"]
    assert run(args + ["--out", str(o1)]) == 0
    assert run(args + ["--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def _refine_args(tmp_path, faces=True):
    """refine arguments for the most visible instance of a synthesized scene,
    initialized at its ground-truth pose; returns (args, instance)."""
    out_dir = tmp_path / "scenes"
    assert run(["synth", "--out-dir", str(out_dir), "--seed", "12"]) == 0
    prefix = str(out_dir / "scene_0000")
    gt = json.loads((out_dir / "scene_0000_gt.json").read_text())
    inst = max(gt["instances"], key=lambda i: i["visibility"])
    k_path = tmp_path / "k.json"
    _write_json(k_path, gt["intrinsics"])
    model = tmp_path / "m.ply"
    kinds = {1: "cube", 2: "bar_2fold", 3: "cylinder", 4: "asymmetric_blob"}
    kind = kinds.get(inst["class_id"], "cube")
    scales = {1: 0.10, 2: 0.10, 3: 0.12, 4: 0.12, 5: 0.14}
    run(["make-model", "--kind", kind, "--out", str(model),
         "--scale", str(scales[inst["class_id"]]), "--points", "600"])
    if not faces:
        points, _, _ = load_ply(model)
        save_ply(model, points)
    init = tmp_path / "init.json"
    _write_json(init, [_pose_entry(inst["class_id"], inst["quaternion_wxyz"],
                                   inst["translation_m"])])
    args = ["refine", "--depth", prefix + "_depth.pft",
            "--labels", prefix + "_labels.pft",
            "--class-id", str(inst["class_id"]),
            "--model", str(model), "--init", str(init),
            "--intrinsics", str(k_path)]
    return args, inst


def test_refine_cli(tmp_path):
    args, inst = _refine_args(tmp_path)
    out = tmp_path / "refined.json"
    assert run(args + ["--out", str(out)]) == 0
    res = json.loads(out.read_text())
    # refining from ground truth must stay at ground truth
    assert np.allclose(res["translation_m"], inst["translation_m"], atol=1e-4)


def test_refine_cli_rejects_points_only_model(tmp_path, capsys):
    args, _ = _refine_args(tmp_path, faces=False)
    out = tmp_path / "refined.json"
    assert run(args + ["--out", str(out)]) == 1
    assert "posevote: error:" in capsys.readouterr().err
    assert not out.exists()
