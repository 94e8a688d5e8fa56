"""Acceptance gate: nine criteria, each printing one PASS/FAIL line.

Each test computes its quantities with independent oracles where the
criterion calls for one, prints a single summary line, and asserts at the
stated tolerance.
"""

import json
import math
import os

import numpy as np
import pytest

from posevote.fields import DepthMap, LabelMap
from posevote.geometry import (CameraIntrinsics, ObjectModel, Pose,
                               backproject_center, project, quat_from_axis_angle,
                               quat_multiply, quat_to_rotation, random_quat,
                               rotation_angle_between)
from posevote.losses import (LossKind, loss_gradient_check, optimize_rotation,
                             ploss, prepare_target, sloss)
from posevote.metrics import accuracy_curve, add, add_s, auc
from posevote.pipeline import PipelineConfig, run_pipeline
from posevote.refine import IcpParams, icp_refine, multi_hypothesis_refine
from posevote.synth import (NoiseSpec, Scene, default_registry,
                            ground_truth_fields, make_primitive_model,
                            perturb, perturbed_pose, random_scene,
                            render_full)
from posevote.voting import detect
from posevote.cli import run as cli_run

MODELS = default_registry()


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_geometry_round_trip():
    rng = np.random.default_rng(101)
    worst_px = 0.0
    for _ in range(10_000):
        intr = CameraIntrinsics(fx=rng.uniform(100, 1000),
                                fy=rng.uniform(100, 1000),
                                px=rng.uniform(0, 640), py=rng.uniform(0, 480))
        t = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0.1, 5.0)])
        c = project(t, intr)
        c2 = project(backproject_center(c, t[2], intr), intr)
        worst_px = max(worst_px, float(np.max(np.abs(c - c2))))
    worst_orth = 0.0
    for _ in range(10_000):
        R = quat_to_rotation(random_quat(rng))
        worst_orth = max(worst_orth,
                         float(np.max(np.abs(R @ R.T - np.eye(3)))))
    ok = worst_px < 1e-9 and worst_orth < 1e-9
    _report(1, "geometry round trip", ok,
            f"max reproj err {worst_px:.2e} px, max orthonormality dev "
            f"{worst_orth:.2e}")


def test_criterion_2_loss_correctness():
    rng = np.random.default_rng(102)
    worst = 0.0
    violations = 0
    for _ in range(1000):
        pts = rng.standard_normal((30, 3)) * 0.05
        m = ObjectModel(name="r", points=pts)
        q1, q2 = random_quat(rng), random_quat(rng)
        a = pts @ quat_to_rotation(q1).T
        b = pts @ quat_to_rotation(q2).T
        oracle_p = float(np.sum((a - b) ** 2)) / (2 * len(pts))
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        oracle_s = float(np.sum(d2.min(axis=1))) / (2 * len(pts))
        target = prepare_target(q2, m)
        vp, vs = ploss(q1, target).value, sloss(q1, target).value
        scale = max(oracle_p, 1.0)
        worst = max(worst, abs(vp - oracle_p) / scale,
                    abs(vs - oracle_s) / scale)
        if vs > vp + 1e-15:
            violations += 1
    cube = make_primitive_model("cube", scale=0.1, n_points=600)
    bar = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    q_gt = random_quat(rng)
    worst_sym = 0.0
    cube_target = prepare_target(q_gt, cube)
    for k in (1, 2, 3):
        s = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), k * math.pi / 2)
        worst_sym = max(worst_sym,
                        sloss(quat_multiply(q_gt, s), cube_target).value)
    s = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi)
    worst_sym = max(worst_sym, sloss(quat_multiply(q_gt, s),
                                     prepare_target(q_gt, bar)).value)
    ok = worst < 1e-12 and violations == 0 and worst_sym < 1e-9
    _report(2, "loss correctness", ok,
            f"max rel err vs oracle {worst:.2e}, sloss>ploss violations "
            f"{violations}, max symmetry sloss {worst_sym:.2e}")


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(103)
    worst_p = worst_s = 0.0
    for _ in range(100):
        pts = rng.standard_normal((30, 3)) * 0.05
        m = ObjectModel(name="r", points=pts)
        q_gt = random_quat(rng)
        worst_p = max(worst_p, loss_gradient_check(
            LossKind.PLOSS, random_quat(rng), q_gt, m))
        # keep SLoss probes near q_gt, away from correspondence switches
        dq = quat_from_axis_angle(rng.standard_normal(3), 0.05)
        worst_s = max(worst_s, loss_gradient_check(
            LossKind.SLOSS, quat_multiply(dq, q_gt), q_gt, m))
    ok = worst_p < 1e-4 and worst_s < 1e-4
    _report(3, "gradient checks", ok,
            f"max rel err ploss {worst_p:.2e}, sloss {worst_s:.2e}")


def test_criterion_4_mode_structure():
    bar = make_primitive_model("bar_2fold", scale=0.1, n_points=320)
    rng = np.random.default_rng(104)
    q_gt = random_quat(rng)
    inits = [random_quat(rng) for _ in range(200)]
    s_res = optimize_rotation(bar, q_gt, LossKind.SLOSS, inits)
    s_ang = np.array([a for _, a in s_res])
    near_mode = np.minimum(s_ang, np.abs(s_ang - 180.0))
    frac_modes = float(np.mean(near_mode < 5.0))
    p_res = optimize_rotation(bar, q_gt, LossKind.PLOSS, inits)
    p_ang = np.array([a for _, a in p_res])
    frac_spread = float(np.mean((p_ang > 20.0) & (p_ang < 160.0)))
    ok = frac_modes >= 0.95 and frac_spread >= 0.20
    _report(4, "Fig.5 mode structure", ok,
            f"sloss within 5 deg of modes {frac_modes:.1%}, ploss stranded "
            f">20 deg from both modes {frac_spread:.1%}")


def test_criterion_5_voting_robustness():
    ok_free = total_free = ok_noisy = total_noisy = 0
    scenes_used = 0
    seed = 0
    while scenes_used < 50:
        seed += 1
        scene = random_scene(seed, MODELS)
        raster = render_full(scene, MODELS)
        fld, labels, truths = ground_truth_fields(scene, raster)
        if not any(t.center_occluded and t.visible_pixels > 0 for t in truths):
            continue
        scenes_used += 1
        for noisy in (False, True):
            if noisy:
                f2 = perturb(fld, labels,
                             NoiseSpec(direction_sigma=0.05, rng_seed=seed))
            else:
                f2 = fld
            dets = detect(labels, f2, scene.intrinsics, MODELS)
            by_class = {}
            for d in dets:
                by_class.setdefault(d.class_id, []).append(d)
            for t in truths:
                if t.visibility < 0.3:
                    continue
                cand = by_class.get(t.class_id, [])
                if cand:
                    d = min(cand, key=lambda d: float(
                        np.hypot(d.center[0] - t.center[0],
                                 d.center[1] - t.center[1])))
                    px = float(np.hypot(d.center[0] - t.center[0],
                                        d.center[1] - t.center[1]))
                    terr = float(np.linalg.norm(d.translation
                                                - t.pose.translation))
                else:
                    px = terr = np.inf
                if noisy:
                    total_noisy += 1
                    ok_noisy += (px <= 5.0 and terr <= 0.02 * t.tz)
                else:
                    total_free += 1
                    ok_free += (px <= 2.0 and terr <= 1e-3 + 0.01 * t.tz)
    ok = ok_free == total_free and ok_noisy == total_noisy
    _report(5, "voting robustness", ok,
            f"noise-free {ok_free}/{total_free}, sigma=0.05 "
            f"{ok_noisy}/{total_noisy} over {scenes_used} occluded scenes")


def test_criterion_6_metrics():
    rng = np.random.default_rng(106)
    m = make_primitive_model("cube", scale=0.1, n_points=96)
    violations = 0
    for _ in range(10_000):
        e = Pose(random_quat(rng), rng.uniform(-0.1, 0.1, 3) + [0, 0, 1])
        g = Pose(random_quat(rng), rng.uniform(-0.1, 0.1, 3) + [0, 0, 1])
        if add_s(e, g, m) > add(e, g, m) + 1e-12:
            violations += 1
    perfect = auc(accuracy_curve([0.0] * 10, 0.10))
    step = auc(accuracy_curve([0.05], 0.10))
    ok = (violations == 0 and perfect == pytest.approx(100.0)
          and abs(step - 50.0) <= 0.5)
    _report(6, "metrics", ok,
            f"add_s<=add violations {violations}/10000, perfect AUC "
            f"{perfect:.3f}, step AUC {step:.3f}")


def _icp_scene(seed):
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(fx=400.0, fy=400.0, px=160.0, py=120.0)
    pose = Pose(random_quat(rng),
                np.array([rng.uniform(-0.08, 0.08), rng.uniform(-0.06, 0.06),
                          rng.uniform(0.7, 1.1)]))
    scene = Scene(instances=[(4, pose)], intrinsics=intr, width=320, height=240)
    r = render_full(scene, MODELS)
    labels = LabelMap(np.array([0, 4], dtype=np.uint16)[r.instance + 1])
    return DepthMap(depth=r.depth), labels, pose, intr


def test_criterion_7_icp():
    blob = MODELS[4]
    rng = np.random.default_rng(107)
    fixed_ok = 0
    for s in range(10):
        depth, labels, pose, intr = _icp_scene(1000 + s)
        r = icp_refine(depth, labels, 4, blob, pose, intr,
                       IcpParams(max_iterations=10))
        ang = rotation_angle_between(r.pose.quaternion, pose.quaternion)
        dt = float(np.linalg.norm(r.pose.translation - pose.translation))
        fixed_ok += (ang < 0.01 and dt < 1e-4)
    basin_ok = 0
    n_basin = 40
    for s in range(n_basin):
        depth, labels, pose, intr = _icp_scene(2000 + s)
        init = perturbed_pose(pose, rng.uniform(0, 10.0),
                              rng.uniform(0, 0.02), rng)
        r = icp_refine(depth, labels, 4, blob, init, intr)
        ang = rotation_angle_between(r.pose.quaternion, pose.quaternion)
        dt = float(np.linalg.norm(r.pose.translation - pose.translation))
        basin_ok += (ang < 1.0 and dt < 0.002)
    multi_ok = 0
    n_multi = 50
    for s in range(n_multi):
        depth, labels, pose, intr = _icp_scene(3000 + s)
        init = perturbed_pose(pose, 20.0, 0.02, rng)
        r = multi_hypothesis_refine(depth, labels, 4, blob, init, intr,
                                    IcpParams(n_hypotheses=8))
        ang = rotation_angle_between(r.pose.quaternion, pose.quaternion)
        dt = float(np.linalg.norm(r.pose.translation - pose.translation))
        multi_ok += (ang < 1.0 and dt < 0.005)
    ok = (fixed_ok == 10 and basin_ok / n_basin >= 0.95
          and multi_ok / n_multi >= 0.90)
    _report(7, "ICP", ok,
            f"fixed point {fixed_ok}/10, basin {basin_ok}/{n_basin}, "
            f"multi-hypothesis {multi_ok}/{n_multi}")


def test_criterion_8_pipeline():
    clean, _ = run_pipeline(PipelineConfig(scenes=20, seed=0), MODELS)
    noise = NoiseSpec(direction_sigma=0.05, depth_sigma=0.005,
                      rotation_sigma_deg=25.0, rng_seed=0)
    raw, _ = run_pipeline(PipelineConfig(scenes=20, seed=0, noise=noise,
                                         refine=False), MODELS)
    refined, _ = run_pipeline(PipelineConfig(scenes=20, seed=0, noise=noise,
                                             refine=True,
                                             icp=IcpParams(n_hypotheses=4)),
                              MODELS)
    gain = refined["auc_adds"] - raw["auc_adds"]
    ok = clean["auc_adds"] >= 99.5 and gain >= 5.0
    _report(8, "end-to-end pipeline", ok,
            f"noise-free auc_adds {clean['auc_adds']:.2f}, refined "
            f"{refined['auc_adds']:.2f} vs unrefined {raw['auc_adds']:.2f} "
            f"(+{gain:.2f})")


def test_criterion_9_determinism(tmp_path):
    model = tmp_path / "m.ply"
    cli_run(["make-model", "--kind", "cube", "--out", str(model)])
    poses = tmp_path / "p.json"
    poses.write_text(json.dumps([{"class_id": 1,
                                  "quaternion_wxyz": [1, 0, 0, 0],
                                  "translation_m": [0, 0, 1.0]}]))
    runs = {
        "synth": ["synth", "--out-dir", "{d}", "--seed", "5",
                  "--noise", "moderate"],
        "histogram": ["histogram", "--kind", "sloss", "--model-kind", "cube",
                      "--inits", "5", "--steps", "20", "--seed", "3",
                      "--out", "{d}/h.csv"],
        "eval": ["eval", "--gt", str(poses), "--est", str(poses),
                 "--model", str(model), "--out", "{d}/e.json"],
        "pipeline": ["pipeline", "--scenes", "2", "--seed", "5",
                     "--noise", "moderate", "--out", "{d}/s.json",
                     "--csv", "{d}/r.csv"],
    }
    mismatches = []
    for name, argv in runs.items():
        outs = []
        for rep in ("r1", "r2"):
            d = tmp_path / name / rep
            os.makedirs(d, exist_ok=True)
            args = [a.replace("{d}", str(d)) for a in argv]
            assert cli_run(args) == 0
            blob = b"".join((d / f).read_bytes()
                            for f in sorted(os.listdir(d)))
            outs.append(blob)
        if outs[0] != outs[1]:
            mismatches.append(name)
    ok = not mismatches
    _report(9, "determinism", ok,
            f"bit-identical reruns for {', '.join(runs)}"
            + (f"; MISMATCH: {mismatches}" if mismatches else ""))
