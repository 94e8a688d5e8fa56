import argparse
import csv
import dataclasses
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from posevote.cli import (_emit, _pose_json, build_parser, load_intrinsics,
                          load_poses, run)
from posevote.fields import directions_to_center
from posevote.geometry import CameraIntrinsics, Pose, random_quat
from posevote.ply import load_ply, save_ply

K_JSON = {"fx": 400.0, "fy": 400.0, "px": 160.0, "py": 120.0}


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


def _pose_entry(class_id, quat, trans):
    return {"class_id": class_id, "quaternion_wxyz": list(quat),
            "translation_m": list(trans)}


_SRC_ENV = {**os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def _python_m_make_model(module, tmp_path):
    out = tmp_path / "cube.ply"
    proc = subprocess.run([sys.executable, "-m", module, "make-model",
                           "--kind", "cube", "--out", str(out)],
                          env=_SRC_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert load_ply(out)[0].shape[0] > 0


def test_python_m_posevote_runs_cli(tmp_path):
    _python_m_make_model("posevote", tmp_path)


def test_python_m_posevote_cli_runs_cli(tmp_path):
    _python_m_make_model("posevote.cli", tmp_path)


def test_importing_fields_loads_no_other_module_of_the_package_nor_scipy():
    code = ("import sys, posevote.fields; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('posevote', 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_SRC_ENV,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['posevote', 'posevote.fields']"


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        run(["vote", "--bogus"])
    assert e.value.code == 2


# one valid command line per subcommand that lost flags, and one of the
# flags it lost
_REMOVED_FLAGS = [
    (["synth", "--out-dir", "d"], ["--width", "160"]),
    (["vote", "--labels", "l", "--field", "f", "--intrinsics", "k"],
     ["--nms-radius", "10"]),
    (["histogram", "--kind", "sloss", "--out", "h.csv"], ["--lr", "0.1"]),
    (["eval", "--gt", "g", "--est", "e", "--model", "m"],
     ["--max-threshold", "0.05"]),
    (["refine", "--depth", "d", "--labels", "l", "--class-id", "1",
      "--model", "m", "--init", "i", "--intrinsics", "k"],
     ["--icp-iters", "5"]),
    (["pipeline"], ["--min-visibility", "0.5"]),
    # voting and evaluation draw no random numbers
    (["vote", "--labels", "l", "--field", "f", "--intrinsics", "k"],
     ["--seed", "0"]),
    (["eval", "--gt", "g", "--est", "e", "--model", "m"], ["--seed", "0"]),
]


@pytest.mark.parametrize("base, flag", _REMOVED_FLAGS,
                         ids=[b[0] if f[0] != "--seed" else f"{b[0]}--seed"
                              for b, f in _REMOVED_FLAGS])
def test_removed_flag_exits_2(base, flag, capsys):
    parser = build_parser()
    parser.parse_args(base)
    with pytest.raises(SystemExit) as e:
        parser.parse_args(base + flag)
    assert e.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n+```\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("posevote ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_module_table_matches_src():
    root = Path(__file__).resolve().parents[1]
    table = re.search(r"## Layout\n+(.*?)\n\n", (root / "README.md").read_text(),
                      re.S).group(1)
    named = {m for row in table.splitlines()[2:]
             for m in re.findall(r"`posevote\.(\w+)`", row.split("|")[1])}
    modules = {p.stem for p in (root / "src" / "posevote").glob("*.py")}
    assert named == modules - {"__init__", "__main__"}


def _vote_on_square(tmp_path, field_shape=(20, 30), nan=False, tz=1.0,
                    dtype=np.float32):
    """Runs `vote` on a 20x30 label map holding a class-1 square, with a
    field of the given frame and dtype whose square points along +x at
    depth tz; (exit code, output path)."""
    labels = np.zeros((20, 30), dtype=np.uint16)
    labels[5:15, 5:15] = 1
    field = np.zeros((1, 3, *field_shape), dtype=dtype)
    field[0, 0, 5:15, 5:15] = 1.0
    field[0, 2, 5:15, 5:15] = tz
    if nan:
        field[0, 2, 10, 10] = np.nan
    np.save(tmp_path / "l.npy", labels)
    np.save(tmp_path / "f.npy", field)
    _write_json(tmp_path / "k.json", K_JSON)
    out = tmp_path / "dets.json"
    rc = run(["vote", "--labels", str(tmp_path / "l.npy"),
              "--field", str(tmp_path / "f.npy"),
              "--intrinsics", str(tmp_path / "k.json"), "--out", str(out)])
    return rc, out


def test_vote_rejects_non_finite_field(tmp_path, capsys):
    rc, out = _vote_on_square(tmp_path, nan=True)
    assert rc == 1
    assert "posevote: error:" in capsys.readouterr().err
    assert not out.exists()


def test_vote_rejects_field_beyond_float32_range(tmp_path, capsys):
    # 1e39 is finite in float64 but overflows to inf in the float32 planes
    rc, out = _vote_on_square(tmp_path, tz=1e39, dtype=np.float64)
    assert rc == 1
    assert (f"posevote: error: {tmp_path / 'f.npy'}: field tensor values must "
            "be finite") in capsys.readouterr().err
    assert not out.exists()


def test_vote_rejects_field_of_another_frame(tmp_path, capsys):
    rc, out = _vote_on_square(tmp_path, field_shape=(40, 60))
    assert rc == 1
    assert (f"posevote: error: {tmp_path / 'f.npy'}: center field shape "
            "(40, 60) differs from label map shape (20, 30)") in capsys.readouterr().err
    assert not out.exists()


def test_vote_class_with_a_zero_plane_or_none_votes_nothing(tmp_path):
    # class 1's plane is all zero and class 3 is beyond the tensor's two
    # planes, so only class 2 has directions to vote with
    labels = np.zeros((40, 60), dtype=np.uint16)
    labels[5:15, 5:15] = 1
    labels[5:15, 25:35] = 2
    labels[25:35, 5:15] = 3
    field = np.zeros((2, 3, 40, 60), dtype=np.float32)
    ys, xs = np.nonzero(labels == 2)
    field[1, :2, ys, xs] = directions_to_center(xs, ys, np.array([30.0, 10.0]))
    field[1, 2] = 1.0
    np.save(tmp_path / "l.npy", labels)
    np.save(tmp_path / "f.npy", field)
    _write_json(tmp_path / "k.json", K_JSON)
    out = tmp_path / "dets.json"
    assert run(["vote", "--labels", str(tmp_path / "l.npy"),
                "--field", str(tmp_path / "f.npy"),
                "--intrinsics", str(tmp_path / "k.json"), "--out", str(out)]) == 0
    dets = json.loads(out.read_text())["detections"]
    assert [d["class_id"] for d in dets] == [2]


def test_missing_input_exits_1(tmp_path, capsys):
    rc = run(["vote", "--labels", str(tmp_path / "nope.npy"),
              "--field", str(tmp_path / "nope2.npy"),
              "--intrinsics", str(tmp_path / "k.json")])
    assert rc == 1
    assert (f"posevote: error: {tmp_path / 'nope.npy'}: "
            in capsys.readouterr().err)


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
    rc = run(["vote", "--labels", prefix + "_labels.npy",
              "--field", prefix + "_field.npy",
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


def test_vote_rejects_depth_tensor_as_labels(tmp_path, capsys):
    # float depths cast to uint16 would read as labels and give no detections
    out_dir = tmp_path / "scenes"
    assert run(["synth", "--out-dir", str(out_dir), "--seed", "3"]) == 0
    prefix = str(out_dir / "scene_0000")
    k_path = tmp_path / "k.json"
    _write_json(k_path, K_JSON)
    out = tmp_path / "dets.json"
    assert run(["vote", "--labels", prefix + "_depth.npy",
                "--field", prefix + "_field.npy",
                "--intrinsics", str(k_path), "--out", str(out)]) == 1
    assert (f"posevote: error: {prefix}_depth.npy: labels must be integers"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_synth_random_below_one_exits_2(tmp_path, count, capsys):
    out_dir = tmp_path / "scenes"
    with pytest.raises(SystemExit) as e:
        run(["synth", "--out-dir", str(out_dir), "--random", count,
             "--seed", "1"])
    assert e.value.code == 2
    assert "--random" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("count", ["0", "-5"])
def test_make_model_points_below_one_exits_2(tmp_path, count, capsys):
    out = tmp_path / "cube.ply"
    with pytest.raises(SystemExit) as e:
        run(["make-model", "--kind", "cube", "--points", count,
             "--out", str(out)])
    assert e.value.code == 2
    assert "--points" in capsys.readouterr().err
    assert not out.exists()


# one command line per subcommand that takes --seed, writing into {d}
_SEEDED = [
    ["synth", "--out-dir", "{d}/scenes", "--random", "1"],
    ["histogram", "--kind", "sloss", "--inits", "2", "--out", "{d}/h.csv"],
    ["refine", "--depth", "d", "--labels", "l", "--class-id", "1",
     "--model", "m", "--init", "i", "--intrinsics", "k", "--out", "{d}/r.json"],
    ["pipeline", "--scenes", "1", "--out", "{d}/p.json", "--csv", "{d}/p.csv"],
]


def test_every_seeded_subcommand_listed():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    seeded = {name for name, p in sub.choices.items()
              if any("--seed" in a.option_strings for a in p._actions)}
    assert seeded == {cmd[0] for cmd in _SEEDED}


@pytest.mark.parametrize("cmd", _SEEDED, ids=[c[0] for c in _SEEDED])
def test_negative_seed_exits_2(tmp_path, cmd, capsys):
    argv = [a.format(d=tmp_path) for a in cmd]
    with pytest.raises(SystemExit) as e:
        run(argv + ["--seed", "-1"])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
        points, _ = load_ply(model)
        save_ply(model, points)
    init = tmp_path / "init.json"
    _write_json(init, [_pose_entry(inst["class_id"], inst["quaternion_wxyz"],
                                   inst["translation_m"])])
    args = ["refine", "--depth", prefix + "_depth.npy",
            "--labels", prefix + "_labels.npy",
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


def test_refine_cli_rejects_label_map_of_other_shape(tmp_path, capsys):
    args, _ = _refine_args(tmp_path)
    labels = args[args.index("--labels") + 1]
    np.save(labels, np.load(labels, allow_pickle=False)[:200])
    out = tmp_path / "refined.json"
    assert run(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "posevote: error: label map shape (200, 320) differs" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--depth", "--labels"])
def test_refine_cli_on_foreign_array_names_the_file(tmp_path, capsys, flag):
    args, _ = _refine_args(tmp_path)
    path = args[args.index(flag) + 1]
    _npz(path)
    out = tmp_path / "refined.json"
    assert run(args + ["--out", str(out)]) == 1
    assert (f"posevote: error: {path}: not a .npy array file"
            in capsys.readouterr().err)
    assert not out.exists()


def test_refine_rejects_label_map_as_depth(tmp_path, capsys):
    # integer labels cast to float32 would read as depths in meters
    args, _ = _refine_args(tmp_path)
    labels = args[args.index("--labels") + 1]
    args[args.index("--depth") + 1] = labels
    out = tmp_path / "refined.json"
    assert run(args + ["--out", str(out)]) == 1
    assert (f"posevote: error: {labels}: depths must be floating point, got "
            "uint16" in capsys.readouterr().err)
    assert not out.exists()


def test_refine_cli_rejects_points_only_model(tmp_path, capsys):
    args, _ = _refine_args(tmp_path, faces=False)
    out = tmp_path / "refined.json"
    assert run(args + ["--out", str(out)]) == 1
    assert "posevote: error:" in capsys.readouterr().err
    assert not out.exists()


# each count flag with a value below its least: counts are at least 1, and
# --steps (a descent may take no step) at least 0
_REFINE_ARGV = ["refine", "--depth", "d", "--labels", "l", "--class-id", "1",
                "--model", "m", "--init", "i", "--intrinsics", "k",
                "--out", "{d}/r.json"]
_BELOW_LEAST = [
    (["histogram", "--kind", "sloss", "--out", "{d}/h.csv"], "--inits", "0"),
    (["histogram", "--kind", "sloss", "--out", "{d}/h.csv"], "--steps", "-3"),
    (["pipeline", "--out", "{d}/p.json"], "--scenes", "0"),
    (["pipeline", "--out", "{d}/p.json"], "--hypotheses", "0"),
    (_REFINE_ARGV, "--hypotheses", "0"),
    (_REFINE_ARGV, "--class-id", "0"),
    (_REFINE_ARGV, "--class-id", "-1"),
]


@pytest.mark.parametrize("cmd, flag, value", _BELOW_LEAST,
                         ids=[f"{c[0]}{f}={v}" for c, f, v in _BELOW_LEAST])
def test_count_below_least_exits_2(tmp_path, cmd, flag, value, capsys):
    argv = [a.format(d=tmp_path) for a in cmd]
    with pytest.raises(SystemExit) as e:
        run(argv + [flag, value])
    assert e.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_histogram_zero_steps_writes_starting_angles(tmp_path):
    out = tmp_path / "hist.csv"
    assert run(["histogram", "--kind", "sloss", "--inits", "3", "--steps", "0",
                "--seed", "2", "--out", str(out)]) == 0
    with open(out) as f:
        assert len(list(csv.DictReader(f))) == 3


def test_eval_pose_lists_of_different_lengths_exit_1(tmp_path, capsys):
    model = tmp_path / "m.ply"
    run(["make-model", "--kind", "cube", "--out", str(model)])
    poses = [_pose_entry(1, [1, 0, 0, 0], [0.01 * i, 0, 1.0]) for i in range(3)]
    gt, est = tmp_path / "gt.json", tmp_path / "est.json"
    _write_json(gt, poses)
    _write_json(est, poses[:2])
    out = tmp_path / "summary.json"
    assert run(["eval", "--gt", str(gt), "--est", str(est),
                "--model", str(model), "--out", str(out)]) == 1
    assert ("posevote: error: gt and est pose lists differ in length: 3 and 2"
            in capsys.readouterr().err)
    assert not out.exists()


def test_eval_empty_pose_lists_name_the_gt_file(tmp_path, capsys):
    model = tmp_path / "m.ply"
    run(["make-model", "--kind", "cube", "--out", str(model)])
    empty = tmp_path / "e.json"
    _write_json(empty, [])
    out = tmp_path / "summary.json"
    assert run(["eval", "--gt", str(empty), "--est", str(empty),
                "--model", str(model), "--out", str(out)]) == 1
    assert (f"posevote: error: {empty} holds no poses"
            in capsys.readouterr().err)
    assert not out.exists()


def test_eval_intrinsics_names_the_frame_it_cannot_reproject(tmp_path, capsys):
    # at Tz = 0.02 m the 0.1 m cube's near face lies behind the camera: ADD
    # scores that estimate, a reprojection error has none to give
    model = tmp_path / "m.ply"
    run(["make-model", "--kind", "cube", "--out", str(model)])
    gt, est, k = tmp_path / "gt.json", tmp_path / "est.json", tmp_path / "k.json"
    _write_json(gt, [_pose_entry(1, [1, 0, 0, 0], [0, 0, 1.0])] * 2)
    _write_json(est, [_pose_entry(1, [1, 0, 0, 0], [0, 0, 1.0]),
                      _pose_entry(1, [1, 0, 0, 0], [0, 0, 0.02])])
    _write_json(k, K_JSON)
    argv = ["eval", "--gt", str(gt), "--est", str(est), "--model", str(model)]
    assert run(argv + ["--out", str(tmp_path / "scored.json")]) == 0
    out = tmp_path / "summary.json"
    assert run(argv + ["--intrinsics", str(k), "--out", str(out)]) == 1
    assert (f"posevote: error: frame 1 of {est} and {gt}: point is behind "
            "the camera (Tz <= 0)" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("count", [0, 2])
@pytest.mark.parametrize("bad", ["--pose-est", "--pose-gt"])
def test_loss_rejects_pose_file_not_of_one_pose(tmp_path, bad, count, capsys):
    model = tmp_path / "cube.ply"
    assert run(["make-model", "--kind", "cube", "--out", str(model)]) == 0
    one, other = tmp_path / "one.json", tmp_path / "other.json"
    _write_json(one, [_pose_entry(1, [1, 0, 0, 0], [0, 0, 1.0])])
    _write_json(other, [_pose_entry(1, [1, 0, 0, 0], [0, 0, 1.0])] * count)
    paths = {"--pose-est": str(one), "--pose-gt": str(one), bad: str(other)}
    out = tmp_path / "loss.json"
    rc = run(["loss", "--model", str(model), "--kind", "sloss",
              "--out", str(out)] + [a for kv in paths.items() for a in kv])
    assert rc == 1
    assert (f"posevote: error: {other} holds {count} poses, expected 1"
            in capsys.readouterr().err)
    assert not out.exists()


def test_refine_rejects_init_file_of_two_poses(tmp_path, capsys):
    args, inst = _refine_args(tmp_path)
    init = args[args.index("--init") + 1]
    entry = _pose_entry(inst["class_id"], inst["quaternion_wxyz"],
                        inst["translation_m"])
    _write_json(init, [entry, entry])
    out = tmp_path / "refined.json"
    assert run(args + ["--out", str(out)]) == 1
    assert (f"posevote: error: {init} holds 2 poses, expected 1"
            in capsys.readouterr().err)
    assert not out.exists()


# a value the parser cannot read as an integer is reported without the name
# of the helper that reads it
_NOT_AN_INTEGER = [
    (["histogram", "--kind", "sloss", "--out", "{d}/h.csv"], "--steps", "abc"),
    (["make-model", "--kind", "cube", "--out", "{d}/m.ply"], "--points", "1.5"),
    (["pipeline", "--out", "{d}/p.json"], "--seed", "x"),
]


@pytest.mark.parametrize("cmd, flag, value", _NOT_AN_INTEGER,
                         ids=[f"{c[0]}{f}={v}" for c, f, v in _NOT_AN_INTEGER])
def test_non_integer_exits_2_without_helper_name(tmp_path, cmd, flag, value,
                                                 capsys):
    argv = [a.format(d=tmp_path) for a in cmd]
    with pytest.raises(SystemExit) as e:
        run(argv + [flag, value])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer, got '{value}'" in err
    assert not re.search(r"(?<![\w-])_\w", err), err
    assert list(tmp_path.iterdir()) == []


def test_histogram_unknown_model_kind_exits_2(tmp_path, capsys):
    out = tmp_path / "h.csv"
    with pytest.raises(SystemExit) as e:
        run(["histogram", "--kind", "sloss", "--model-kind", "foo",
             "--out", str(out)])
    assert e.value.code == 2
    assert "argument --model-kind: invalid choice: 'foo'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1", "0", "abc"])
def test_make_model_scale_not_positive_finite_exits_2(tmp_path, scale, capsys):
    out = tmp_path / "m.ply"
    with pytest.raises(SystemExit) as e:
        run(["make-model", "--kind", "cube", f"--scale={scale}", "--out", str(out)])
    assert e.value.code == 2
    assert "argument --scale:" in capsys.readouterr().err
    assert not out.exists()


def _vote_inputs(tmp_path):
    labels = np.zeros((20, 30), dtype=np.uint16)
    np.save(tmp_path / "l.npy", labels)
    np.save(tmp_path / "f.npy", np.zeros((1, 3, 20, 30), dtype=np.float32))
    return ["vote", "--labels", str(tmp_path / "l.npy"),
            "--field", str(tmp_path / "f.npy")]


@st.composite
def _damaged(draw, data: bytes):
    """`data` cut at a drawn length and with up to 4 bytes overwritten."""
    out = bytearray(data[:draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(0, 4))):
        if out:
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.sampled_from(["--labels", "--field"]), data=st.data())
def test_vote_on_damaged_array_exits_0_or_names_the_file(tmp_path, capsys,
                                                         flag, data):
    argv = _vote_inputs(tmp_path)
    path = argv[argv.index(flag) + 1]
    with open(path, "rb") as f:
        damaged = data.draw(_damaged(f.read()))
    with open(path, "wb") as f:
        f.write(damaged)
    _write_json(tmp_path / "k.json", K_JSON)
    rc = run(argv + ["--intrinsics", str(tmp_path / "k.json")])
    err = capsys.readouterr().err
    assert rc in (0, 1)
    if rc == 1 and f"posevote: error: {path}: " not in err:
        # only an array numpy reads may fail later, in its reader's check
        np.load(path, allow_pickle=False)
        assert err.startswith("posevote: error: ")


def _header_only(path, shape):
    with open(path, "wb") as f:
        np.lib.format.write_array_header_1_0(
            f, {"descr": "<f4", "fortran_order": False, "shape": shape})


def _npz(path):
    with open(path, "wb") as f:  # np.savez would append .npz to a name
        np.savez(f, a=np.zeros(3))


_FOREIGN_ARRAYS = {
    # 2**31 * 2**31 * 4 elements wrap to 0 in int64, which matches the
    # empty payload and leaves reshape to fail
    "count_wraps": (lambda p: _header_only(p, (2**31, 2**31, 4)),
                    "cannot reshape"),
    # no elements, but a shape numpy cannot hold
    "empty_but_too_big": (lambda p: _header_only(p, (0, 2**31, 2**31, 4)),
                          "array is too big"),
    "npz": (_npz, "not a .npy array file"),
    "pickled": (lambda p: np.save(p, np.array([{}], dtype=object)),
                "allow_pickle=False"),
}


@pytest.mark.parametrize("flag", ["--labels", "--field"])
@pytest.mark.parametrize("name", list(_FOREIGN_ARRAYS))
def test_vote_on_foreign_array_names_the_file(tmp_path, capsys, name, flag):
    argv = _vote_inputs(tmp_path)
    path = argv[argv.index(flag) + 1]
    write, message = _FOREIGN_ARRAYS[name]
    write(path)
    _write_json(tmp_path / "k.json", K_JSON)
    out = tmp_path / "dets.json"
    assert run(argv + ["--intrinsics", str(tmp_path / "k.json"),
                       "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"posevote: error: {path}: ") and message in err
    assert not out.exists()


def test_intrinsics_missing_key_names_file_and_key(tmp_path, capsys):
    k = tmp_path / "k.json"
    _write_json(k, {key: v for key, v in K_JSON.items() if key != "py"})
    out = tmp_path / "dets.json"
    assert run(_vote_inputs(tmp_path) + ["--intrinsics", str(k),
                                         "--out", str(out)]) == 1
    assert f"posevote: error: {k}: missing key 'py'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    ({"class_id": 1, "quaternion_wxyz": [1, 0, 0, 0]}, "missing key 'translation_m'"),
    (5, "expected a pose object or a list of pose objects"),
    ([5], "expected a pose object or a list of pose objects"),
    ([_pose_entry(1.5, [1, 0, 0, 0], [0, 0, 1.0])],
     "'class_id' must be a positive integer, got 1.5"),
    (_pose_entry(True, [1, 0, 0, 0], [0, 0, 1.0]),
     "'class_id' must be a positive integer, got True"),
])
def test_pose_file_errors_name_the_file(tmp_path, content, message, capsys):
    model = tmp_path / "cube.ply"
    assert run(["make-model", "--kind", "cube", "--out", str(model)]) == 0
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    _write_json(good, [_pose_entry(1, [1, 0, 0, 0], [0, 0, 1.0])])
    _write_json(bad, content)
    out = tmp_path / "summary.json"
    assert run(["eval", "--gt", str(good), "--est", str(bad),
                "--model", str(model), "--out", str(out)]) == 1
    assert f"posevote: error: {bad}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_pose_file_may_omit_class_id(tmp_path):
    model = tmp_path / "cube.ply"
    assert run(["make-model", "--kind", "cube", "--out", str(model)]) == 0
    poses = tmp_path / "poses.json"
    _write_json(poses, {"quaternion_wxyz": [1, 0, 0, 0], "translation_m": [0, 0, 1.0]})
    out = tmp_path / "summary.json"
    assert run(["eval", "--gt", str(poses), "--est", str(poses),
                "--model", str(model), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["frames"] == 1


# the error names the file, as for every other bad value in a pose file
@pytest.mark.parametrize("quat", [[1, 0, 0], [1, 0, 0, 0, 0]], ids=["3", "5"])
@pytest.mark.parametrize("cmd", ["loss", "eval"])
def test_pose_of_wrong_size_names_the_file(tmp_path, cmd, quat, capsys):
    model = tmp_path / "cube.ply"
    assert run(["make-model", "--kind", "cube", "--out", str(model)]) == 0
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    _write_json(good, _pose_entry(1, [1, 0, 0, 0], [0, 0, 1.0]))
    _write_json(bad, _pose_entry(1, quat, [0, 0, 1.0]))
    inputs = (["--pose-est", str(bad), "--pose-gt", str(good), "--kind", "sloss"]
              if cmd == "loss" else ["--gt", str(good), "--est", str(bad)])
    out = tmp_path / "out.json"
    assert run([cmd, "--model", str(model), "--out", str(out)] + inputs) == 1
    assert (f"posevote: error: {bad}: 'quaternion_wxyz' must be a list of 4 "
            f"finite real numbers, got {quat}" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["loss", "eval"])
def test_translation_of_wrong_size_names_the_file(tmp_path, cmd, capsys):
    model = tmp_path / "cube.ply"
    assert run(["make-model", "--kind", "cube", "--out", str(model)]) == 0
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    _write_json(good, _pose_entry(1, [1, 0, 0, 0], [0, 0, 1.0]))
    _write_json(bad, _pose_entry(1, [1, 0, 0, 0], [0, 0]))
    inputs = (["--pose-est", str(bad), "--pose-gt", str(good), "--kind", "sloss"]
              if cmd == "loss" else ["--gt", str(good), "--est", str(bad)])
    out = tmp_path / "out.json"
    assert run([cmd, "--model", str(model), "--out", str(out)] + inputs) == 1
    assert (f"posevote: error: {bad}: 'translation_m' must be a list of 3 "
            f"finite real numbers, got [0, 0]" in capsys.readouterr().err)
    assert not out.exists()


# np.array(..., dtype=float) would read "1" or true as a number
@pytest.mark.parametrize("key, values", [
    ("quaternion_wxyz", ["1", "0", "0", "0"]),
    ("translation_m", [True, False, "0.5"]),
], ids=["string-quaternion", "bool-translation"])
@pytest.mark.parametrize("cmd", ["loss", "eval", "synth"])
def test_pose_numbers_that_are_strings_or_bools_name_the_file(
        tmp_path, cmd, key, values, capsys):
    bad, out = _run_on_pose(tmp_path, cmd, key, values, exit_code=1)
    assert (f"posevote: error: {bad}: {key!r} must be a list of "
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # an overflowing norm warns nothing
@pytest.mark.parametrize("quat", [[0, 0, 0, 0], [1e200, 1e200, 0, 0]],
                         ids=["all-zero", "norm-overflow"])
@pytest.mark.parametrize("cmd", ["loss", "eval", "synth"])
def test_quaternion_without_a_nonzero_finite_norm_names_the_file_and_key(
        tmp_path, cmd, quat, capsys):
    bad, out = _run_on_pose(tmp_path, cmd, "quaternion_wxyz", quat, exit_code=1)
    assert (f"posevote: error: {bad}: 'quaternion_wxyz' must have a nonzero "
            f"finite norm, got {quat!r}" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["loss", "eval"])
def test_pose_files_take_any_depth(tmp_path, cmd):
    # only a scene to render needs its objects in front of the camera
    _, out = _run_on_pose(tmp_path, cmd, "translation_m", [0, 0, -0.5], exit_code=0)
    assert out.exists()


def _run_on_pose(tmp_path, cmd, key, value, exit_code):
    """Runs cmd on a pose file, or for synth a scene, whose pose has
    key = value, asserting its exit code; (that file, the output path)."""
    model = tmp_path / "cube.ply"
    assert run(["make-model", "--kind", "cube", "--out", str(model)]) == 0
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    _write_json(good, _pose_entry(1, [1, 0, 0, 0], [0, 0, 0.5]))
    pose = {**_pose_entry(1, [1, 0, 0, 0], [0, 0, 0.5]), key: value}
    _write_json(bad, _scene_json(instances=[pose]) if cmd == "synth" else pose)
    out = tmp_path / "out"
    argv = {"loss": ["loss", "--model", str(model), "--pose-est", str(bad),
                     "--pose-gt", str(good), "--kind", "sloss",
                     "--out", str(out)],
            "eval": ["eval", "--model", str(model), "--gt", str(good),
                     "--est", str(bad), "--out", str(out)],
            "synth": ["synth", "--out-dir", str(out), "--scene", str(bad)]}
    assert run(argv[cmd]) == exit_code
    return bad, out


def test_pose_json_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    p = Pose(random_quat(rng), rng.uniform(-1, 1, 3))
    path = tmp_path / "pose.json"
    _emit(str(path), _pose_json(p, class_id=3))
    (p2,) = load_poses(str(path))
    assert np.allclose(p.quaternion, p2.quaternion)
    assert np.allclose(p.translation, p2.translation)


def test_intrinsics_json_round_trip(tmp_path):
    K = CameraIntrinsics(fx=500.0, fy=500.0, px=320.0, py=240.0)
    path = tmp_path / "k.json"
    _emit(str(path), dataclasses.asdict(K))
    assert load_intrinsics(str(path)) == K


def _pose_error(tmp_path, quat, trans) -> str:
    """The error load_poses raises for a file of one pose."""
    path = tmp_path / "pose.json"
    _write_json(path, _pose_entry(1, quat, trans))
    with pytest.raises(ValueError) as e:
        load_poses(str(path))
    assert str(e.value).startswith(f"{path}: ")
    return str(e.value)


def test_pose_file_rejects_non_finite(tmp_path):
    assert "'quaternion_wxyz' must be a list of 4 finite" in _pose_error(
        tmp_path, [math.nan, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    assert "'translation_m' must be a list of 3 finite" in _pose_error(
        tmp_path, [1.0, 0.0, 0.0, 0.0], [0.0, math.inf, 1.0])


@pytest.mark.parametrize("trans", [[0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                                   [0.0, math.nan, 1.0], [-math.inf, 0.0, 1.0]],
                         ids=["2", "4", "nan", "inf"])
def test_pose_file_rejects_translation_not_of_3_finite_numbers(tmp_path, trans):
    assert "'translation_m' must be a list of 3 finite" in _pose_error(
        tmp_path, [1, 0, 0, 0], trans)


@pytest.mark.parametrize("quat", [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0],
                                  [[1.0, 0.0], [0.0, 0.0]]],
                         ids=["3", "5", "2x2"])
def test_pose_file_rejects_quaternion_not_of_4_components(tmp_path, quat):
    assert "'quaternion_wxyz' must be a list of 4 finite" in _pose_error(
        tmp_path, quat, [0, 0, 1])


def test_pose_file_of_plain_numbers_loads_bit_for_bit(tmp_path):
    quat = [0.1, -0.2, 0.30000000000000004, 1]
    trans = [1e-300, -2.5e-3, 7]
    path = tmp_path / "pose.json"
    _write_json(path, _pose_entry(1, quat, trans))
    (pose,) = load_poses(str(path))
    want = Pose(np.array(quat, dtype=float), np.array(trans, dtype=float))
    assert pose.quaternion.tobytes() == want.quaternion.tobytes()
    assert pose.translation.tobytes() == want.translation.tobytes()


# each output gets the mode open(path, "w") gives a new file, as synth's .npy
# arrays and make-model's PLY do, whatever the command writes it through
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_outputs_get_the_mode_a_new_file_gets(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        model = tmp_path / "cube.ply"
        poses = tmp_path / "poses.json"
        assert run(["make-model", "--kind", "cube", "--out", str(model)]) == 0
        _write_json(poses, _pose_entry(1, [1, 0, 0, 0], [0, 0, 0.5]))
        d = tmp_path / "out"
        for argv in (["synth", "--out-dir", "{d}"],
                     ["pipeline", "--scenes", "1", "--out", "{d}/p.json",
                      "--csv", "{d}/p.csv"],
                     ["histogram", "--kind", "ploss", "--inits", "1",
                      "--steps", "0", "--out", "{d}/h.csv"],
                     ["eval", "--gt", str(poses), "--est", str(poses),
                      "--model", str(model), "--out", "{d}/e.json",
                      "--out-csv", "{d}/e.csv"]):
            assert run([a.format(d=d) for a in argv]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in d.iterdir()}
    assert sorted(modes) == sorted([
        "scene_0000_labels.npy", "scene_0000_depth.npy",
        "scene_0000_field.npy", "scene_0000_gt.json", "index.json",
        "p.json", "p.csv", "h.csv", "e.json", "e.csv"])
    assert modes == dict.fromkeys(modes, mode)
    assert stat.S_IMODE(model.stat().st_mode) == mode


def _scene_json(**changes):
    scene = {"intrinsics": K_JSON, "width": 160, "height": 120,
             "instances": [_pose_entry(1, [1, 0, 0, 0], [0, 0, 0.8])]}
    scene.update(changes)
    return {k: v for k, v in scene.items() if v is not None}


@pytest.mark.parametrize("scene, message", [
    (_scene_json(intrinsics=None), "missing key 'intrinsics'"),
    (_scene_json(width=0, height=0), "'width' must be a positive integer, got 0"),
    (_scene_json(width=-5), "'width' must be a positive integer, got -5"),
    (_scene_json(width=64.7), "'width' must be a positive integer, got 64.7"),
    (_scene_json(height=120.0), "'height' must be a positive integer, got 120.0"),
    (_scene_json(height=True), "'height' must be a positive integer, got True"),
    (_scene_json(intrinsics={**K_JSON, "fx": True}),
     "'fx' must be a finite real number, got True"),
    (_scene_json(intrinsics={**K_JSON, "py": "120"}),
     "'py' must be a finite real number, got '120'"),
    *((_scene_json(instances=[_pose_entry(cid, [1, 0, 0, 0], [0, 0, 0.8])]),
       f"'class_id' must be a positive integer, got {cid!r}")
      for cid in (1.5, True, "1", 0)),
    ([_scene_json()], "expected a scene object"),
    (_scene_json(intrinsics=[1, 2]), "'intrinsics' must be an object, got [1, 2]"),
    (_scene_json(instances={"a": 1}),
     "'instances' must be a list of objects, got {'a': 1}"),
    (_scene_json(instances=["x"]), "'instances' must be a list of objects, got ['x']"),
    ({**_scene_json(), "instances": None},
     "'instances' must be a list of objects, got None"),
    (_scene_json(instances=[_pose_entry(9, [1, 0, 0, 0], [0, 0, 0.8])]),
     "scene references unknown class id 9"),
    (_scene_json(instances=[_pose_entry(1, [1, 0, 0, 0], [0, 0, -0.5])]),
     "'translation_m' must have a positive depth Tz, got [0.0, 0.0, -0.5]"),
    (_scene_json(instances=[_pose_entry(1, [1, 0, 0, 0], [0.1, 0, 0])]),
     "'translation_m' must have a positive depth Tz, got [0.1, 0.0, 0.0]"),
], ids=["no-intrinsics", "0x0", "negative", "fractional", "float", "bool",
        "bool-focal-length", "string-principal-point", "fractional-class-id",
        "bool-class-id", "string-class-id", "zero-class-id", "list-document",
        "list-intrinsics", "object-instances", "string-instance",
        "null-instances", "unknown-class-id", "negative-depth", "zero-depth"])
def test_synth_scene_json_errors_name_the_file(tmp_path, scene, message, capsys):
    path = tmp_path / "scene.json"
    _write_json(path, scene)
    out_dir = tmp_path / "out"
    assert run(["synth", "--out-dir", str(out_dir), "--scene", str(path)]) == 1
    assert f"posevote: error: {path}: {message}" in capsys.readouterr().err
    assert not out_dir.exists()

# every key of every JSON input, and the commands that read each kind of file
_JSON_KEYS = {"pose": ("quaternion_wxyz", "translation_m", "class_id"),
              "intrinsics": ("fx", "fy", "px", "py"),
              "scene": ("intrinsics", "instances", "width", "height")}
_READERS = {"pose": ("loss", "eval", "synth"), "intrinsics": ("eval", "synth"),
            "scene": ("synth",)}
_WRONG_LENGTH = {"quaternion_wxyz": [1, 0, 0], "translation_m": [0, 0]}
_BAD_VALUES = {"string": "1", "bool": True, "null": None}


def _key_cases():
    for kind, keys in _JSON_KEYS.items():
        for key in keys:
            for cmd in _READERS[kind]:
                for variant in ("missing", *_BAD_VALUES, "wrong-length"):
                    if variant == "missing" and key == "class_id" and cmd != "synth":
                        continue  # a pose file may omit it
                    if variant == "wrong-length" and key == "instances":
                        continue  # a scene holds any number of instances
                    yield pytest.param(kind, key, cmd, variant,
                                       id=f"{cmd}-{key}-{variant}")


@pytest.fixture(scope="module")
def cube_ply(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "cube.ply"
    assert run(["make-model", "--kind", "cube", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("kind, key, cmd, variant", list(_key_cases()))
def test_every_bad_json_key_names_the_file_and_key(tmp_path, cube_ply, kind, key,
                                                   cmd, variant, capsys):
    pose = _pose_entry(1, [1, 0, 0, 0], [0, 0, 0.8])
    intrinsics = dict(K_JSON)
    scene = {"intrinsics": intrinsics, "width": 160, "height": 120,
             "instances": [pose]}
    target = {"pose": pose, "intrinsics": intrinsics, "scene": scene}[kind]
    if variant == "missing":
        del target[key]
    else:
        target[key] = _BAD_VALUES.get(variant, _WRONG_LENGTH.get(key, [1, 2]))
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    _write_json(bad, scene if cmd == "synth" else target)
    _write_json(good, _pose_entry(1, [1, 0, 0, 0], [0, 0, 0.8]))
    k = tmp_path / "k.json"
    _write_json(k, K_JSON)
    out, out_csv = tmp_path / "out", tmp_path / "out.csv"
    argv = {"loss": ["loss", "--model", cube_ply, "--pose-est", str(bad),
                     "--pose-gt", str(good), "--kind", "sloss", "--out", str(out)],
            "eval": ["eval", "--model", cube_ply, "--gt", str(good),
                     "--est", str(bad if kind == "pose" else good),
                     "--intrinsics", str(bad if kind == "intrinsics" else k),
                     "--out", str(out), "--out-csv", str(out_csv)],
            "synth": ["synth", "--out-dir", str(out), "--scene", str(bad)]}[cmd]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"posevote: error: {bad}: ") and repr(key) in err, err
    assert not out.exists() and not out_csv.exists()


@pytest.mark.parametrize("doc", [[K_JSON], 5, None, "k"],
                         ids=["list", "number", "null", "string"])
def test_intrinsics_file_not_an_object_names_the_file(tmp_path, cube_ply, doc,
                                                      capsys):
    poses, k = tmp_path / "poses.json", tmp_path / "k.json"
    _write_json(poses, _pose_entry(1, [1, 0, 0, 0], [0, 0, 0.8]))
    _write_json(k, doc)
    out = tmp_path / "out.json"
    assert run(["eval", "--model", cube_ply, "--gt", str(poses), "--est",
                str(poses), "--intrinsics", str(k), "--out", str(out)]) == 1
    assert (f"posevote: error: {k}: expected an intrinsics object"
            in capsys.readouterr().err)
    assert not out.exists()
