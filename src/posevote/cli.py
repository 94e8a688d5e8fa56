"""Command-line front end.

Subcommands: synth, vote, loss, histogram, eval, refine, pipeline, make-model.
JSON and CSV outputs are written atomically (temp file + rename); synth's
.npy arrays and make-model's PLY are written in place. Every output is
bit-identical across repeated runs with the same arguments. Only the
commands that draw random numbers take --seed; synth, refine and pipeline
record it in their JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import uuid

import numpy as np

from . import pipeline as pipeline_mod
from .fields import DepthMap, FieldError, LabelMap, from_tensor, to_tensor
from .geometry import (CameraIntrinsics, GeometryError, Pose, is_finite_real,
                       is_int_at_least, rotation_angle_between)
from .losses import (LossKind, evaluate_loss, loss_gradient_check,
                     optimize_rotation, prepare_target)
from .metrics import (AUC_CAP_M, add, add_s, is_correct, pose_scores,
                      reprojection_error)
from .ply import load_model, save_ply
from .refine import IcpParams, multi_hypothesis_refine
from .synth import (PRIMITIVE_KINDS, NoiseSpec, Scene, default_registry,
                    make_primitive_model, random_quat, random_scene, scene_seed)
from .voting import detect


def _round9(obj):
    if isinstance(obj, float):
        return float("%.9g" % obj) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _atomic_write(path: str, text: str):
    """Write text to a fresh temp file beside path, then rename it over path.
    open() makes the temp file, so path gets the mode open(path, "w") gives a
    new file (0o666 less the umask), not mkstemp's 0o600."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{uuid.uuid4().hex}")
    f = open(tmp, "x")  # exclusive: never another file's name
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, obj):
    """Write `obj` as JSON to `path`, or to stdout when no path is given."""
    text = json.dumps(_round9(obj), indent=2) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def write_csv(path: str, rows: list[dict]):
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0])
    buf = []
    buf.append(",".join(header))
    for row in rows:
        buf.append(",".join(_csv_cell(row[k]) for k in header))
    _atomic_write(path, "\n".join(buf) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return "%.9g" % v
    return str(v)


def _read_json(path: str, parse, what: str | None = None):
    """parse(the JSON document at path), which must be `what` object if
    given. A document of another kind, a missing key, or a value parse cannot
    use raises ValueError naming the file (and the key)."""
    try:
        with open(path) as f:
            doc = json.load(f)
        if what and not isinstance(doc, dict):
            raise ValueError(f"expected {what} object")
        return parse(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_array(path: str, build):
    """build(the array a .npy file holds). Any failure to read it, and a
    FieldError from build, raises ValueError naming the file; numpy raises
    several kinds for a damaged one."""
    try:
        array = np.load(path, allow_pickle=False)
        if not isinstance(array, np.ndarray):  # an .npz archive
            array.close()
            raise ValueError("not a .npy array file")
    except Exception as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        return build(array)
    except FieldError as exc:
        raise ValueError(f"{path}: {exc}") from None


# The JSON formats: each form a value must take, and its test. A JSON true is
# no number, and 1.0 no integer.
_FORMS = {
    "a positive integer": lambda v: is_int_at_least(v, 1),
    "a finite real number": is_finite_real,
    "a list of 4 finite real numbers": lambda v: _reals(v, 4),
    "a list of 3 finite real numbers": lambda v: _reals(v, 3),
    "an object": lambda v: isinstance(v, dict),
    "a list of objects": lambda v: (isinstance(v, list)
                                    and all(isinstance(x, dict) for x in v)),
}


def _reals(v, n: int) -> bool:
    return isinstance(v, list) and len(v) == n and all(map(is_finite_real, v))


def _get(d: dict, key: str, form: str):
    """d[key], which must be of `form`; _read_json reports a missing key."""
    value = d[key]
    if not _FORMS[form](value):
        raise ValueError(f"{key!r} must be {form}, got {value!r}")
    return value


def _intrinsics(d: dict) -> CameraIntrinsics:
    """The constructor checks that the focal lengths are positive."""
    return CameraIntrinsics(**{k: _get(d, k, "a finite real number")
                               for k in ("fx", "fy", "px", "py")})


def _pose(d: dict) -> Pose:
    q = _get(d, "quaternion_wxyz", "a list of 4 finite real numbers")
    t = _get(d, "translation_m", "a list of 3 finite real numbers")
    try:
        with np.errstate(over="ignore"):  # an overflowing norm is the error below
            return Pose(q, t)
    except GeometryError:  # all zero, or a norm beyond float range
        raise ValueError("'quaternion_wxyz' must have a nonzero finite norm, "
                         f"got {q!r}") from None


def _pose_json(pose: Pose, class_id: int) -> dict:
    return {"quaternion_wxyz": pose.quaternion.tolist(),
            "translation_m": pose.translation.tolist(), "class_id": int(class_id)}


def _detection_json(d) -> dict:
    return {"class_id": int(d.class_id), "center_px": d.center.tolist(),
            "score": int(d.score), "inlier_count": int(d.inliers.shape[0]),
            "bbox_px": [int(v) for v in d.bbox], "depth_tz_m": float(d.translation[2]),
            "translation_m": d.translation.tolist()}


def _poses(data) -> list[Pose]:
    entries = [data] if isinstance(data, dict) else data
    if not _FORMS["a list of objects"](entries):
        raise ValueError("expected a pose object or a list of pose objects")
    for d in entries:
        if "class_id" in d:  # a pose file may omit it
            _get(d, "class_id", "a positive integer")
    return [_pose(d) for d in entries]


def _scene(desc, models) -> Scene:
    intr = _intrinsics(_get(desc, "intrinsics", "an object"))
    instances = [(_get(inst, "class_id", "a positive integer"), _pose(inst))
                 for inst in _get(desc, "instances", "a list of objects")]
    for cid, pose in instances:
        if cid not in models:
            raise ValueError(f"scene references unknown class id {cid}")
        if not pose.translation[2] > 0:  # the camera sees only Tz > 0
            raise ValueError("'translation_m' must have a positive depth Tz, "
                             f"got {pose.translation.tolist()}")
    return Scene(instances=instances, intrinsics=intr,
                 width=_get(desc, "width", "a positive integer"),
                 height=_get(desc, "height", "a positive integer"))


def load_intrinsics(path: str) -> CameraIntrinsics:
    return _read_json(path, _intrinsics, "an intrinsics")


def load_poses(path: str) -> list[Pose]:
    return _read_json(path, _poses)


def _load_pose(path: str) -> Pose:
    """The one pose a pose file holds."""
    poses = load_poses(path)
    if len(poses) != 1:
        raise ValueError(f"{path} holds {len(poses)} poses, expected 1")
    return poses[0]


_NOISE_PRESETS = {
    "none": {},
    "moderate": {"direction_sigma": 0.05, "depth_sigma": 0.005,
                 "rotation_sigma_deg": 25.0},
}


def _noise_from_args(args) -> NoiseSpec:
    return NoiseSpec(rng_seed=args.seed, **_NOISE_PRESETS[args.noise])


def _icp_from_args(args) -> IcpParams:
    return IcpParams(n_hypotheses=args.hypotheses, rng_seed=args.seed)


# ---------------------------------------------------------------------------
# subcommands


def _int_at_least(low: int):
    """The parser type of an integer of at least `low`; a seed is at least 0,
    since numpy's generators take no negative one."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if not is_int_at_least(n, low):
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return parse


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not (is_finite_real(x) and x > 0):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return x


def cmd_synth(args) -> int:
    models = default_registry()
    given = (_read_json(args.scene, lambda d: _scene(d, models), "a scene")
             if args.scene else None)
    os.makedirs(args.out_dir, exist_ok=True)
    noise = _noise_from_args(args)
    index = []
    for i in range(args.random):
        scene = (given if given is not None
                 else random_scene(scene_seed(args.seed, i), models))
        frame = pipeline_mod.synth_frame(scene, i, noise, models)
        prefix = os.path.join(args.out_dir, f"scene_{i:04d}")
        np.save(prefix + "_labels.npy", frame.labels.labels)
        np.save(prefix + "_depth.npy", frame.depth.depth)
        np.save(prefix + "_field.npy", to_tensor(frame.fld, frame.labels, max(models)))
        gt = {"seed": args.seed, "scene": i,
              "intrinsics": dataclasses.asdict(scene.intrinsics),
              "width": scene.width, "height": scene.height,
              "instances": [{**_pose_json(t.pose, t.class_id),
                             "center_px": [float(t.center[0]), float(t.center[1])],
                             "visibility": t.visibility,
                             "center_occluded": t.center_occluded}
                            for t in frame.truths]}
        _emit(prefix + "_gt.json", gt)
        index.append(os.path.basename(prefix))
    _emit(os.path.join(args.out_dir, "index.json"),
          {"seed": args.seed, "scenes": list(index)})
    return 0


def cmd_vote(args) -> int:
    labels = _load_array(args.labels, LabelMap)
    fld = _load_array(args.field, lambda t: from_tensor(t, labels))
    intr = load_intrinsics(args.intrinsics)
    detections = detect(labels, fld, intr, default_registry())
    _emit(args.out, {"detections": [_detection_json(d) for d in detections]})
    return 0


def cmd_loss(args) -> int:
    model = load_model(args.model)
    est = _load_pose(args.pose_est)
    gt = _load_pose(args.pose_gt)
    kind = LossKind(args.kind)
    target = prepare_target(gt.quaternion, model)
    res = evaluate_loss(kind, est.quaternion, target)
    out = {
        "kind": args.kind,
        "value_m2": res.value,
        "gradient_wxyz": [float(g) for g in res.gradient],
        "angle_error_deg": rotation_angle_between(est.quaternion, gt.quaternion),
        "gradient_check_max_rel_error": loss_gradient_check(
            kind, est.quaternion, gt.quaternion, model),
    }
    _emit(args.out, out)
    return 0


def cmd_histogram(args) -> int:
    model = make_primitive_model(args.model_kind, scale=0.1, n_points=320)
    rng = np.random.default_rng(args.seed)
    q_gt = random_quat(rng)
    inits = [random_quat(rng) for _ in range(args.inits)]
    results = optimize_rotation(model, q_gt, LossKind(args.kind), inits,
                                steps=args.steps)
    rows = [{"init": i, "angle_error_deg": ang}
            for i, (_, ang) in enumerate(results)]
    write_csv(args.out, rows)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    gt_poses = load_poses(args.gt)
    est_poses = load_poses(args.est)
    if not gt_poses:
        raise ValueError(f"{args.gt} holds no poses")
    if len(gt_poses) != len(est_poses):
        raise ValueError(f"gt and est pose lists differ in length: "
                         f"{len(gt_poses)} and {len(est_poses)}")
    intr = load_intrinsics(args.intrinsics) if args.intrinsics else None
    rows = []
    for i, (gt, est) in enumerate(zip(gt_poses, est_poses)):
        a = add(est, gt, model)
        s = add_s(est, gt, model)
        row = {"frame": i, "add_m": a, "add_s_m": s,
               "correct": int(is_correct(a, model))}
        if intr is not None:
            try:
                row["reproj_px"] = reprojection_error(est, gt, model, intr)
            except GeometryError as exc:  # a model point behind the camera
                raise ValueError(f"frame {i} of {args.est} and {args.gt}: {exc}") from None
        rows.append(row)
    summary = {
        "frames": len(rows),
        **pose_scores([r["add_m"] for r in rows], [r["add_s_m"] for r in rows],
                      [r["correct"] for r in rows]),
        "max_threshold_m": AUC_CAP_M,
    }
    if args.out_csv:
        write_csv(args.out_csv, rows)
    _emit(args.out, summary)
    return 0


def cmd_refine(args) -> int:
    observed = _load_array(args.depth, DepthMap)
    labels = _load_array(args.labels, LabelMap)
    model = load_model(args.model)
    init = _load_pose(args.init)
    intr = load_intrinsics(args.intrinsics)
    res = multi_hypothesis_refine(observed, labels, args.class_id, model,
                                  init, intr, _icp_from_args(args))
    out = {
        "seed": args.seed,
        **_pose_json(res.pose, args.class_id),
        "mean_residual_m": res.mean_residual,
        "inlier_fraction": res.inlier_fraction,
        "iterations": res.iterations,
    }
    _emit(args.out, out)
    return 0


def cmd_pipeline(args) -> int:
    cfg = pipeline_mod.PipelineConfig(
        scenes=args.scenes,
        seed=args.seed,
        noise=_noise_from_args(args),
        refine=args.refine,
        icp=_icp_from_args(args),
    )
    summary, records = pipeline_mod.run_pipeline(cfg, default_registry())
    if args.csv:
        write_csv(args.csv, [r.to_row() for r in records])
    _emit(args.out, summary)
    return 0


def cmd_make_model(args) -> int:
    model = make_primitive_model(args.kind, scale=args.scale,
                                 n_points=args.points)
    save_ply(args.out, model.points, faces=model.faces)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="posevote",
                                description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="render synthetic scenes to tensor files")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--random", type=_int_at_least(1), default=1, metavar="N")
    s.add_argument("--scene", help="scene description JSON (instead of random)")
    s.add_argument("--seed", type=_int_at_least(0), default=0)
    s.add_argument("--noise", choices=list(_NOISE_PRESETS), default="none")
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("vote", help="run Hough voting on label/field tensors")
    s.add_argument("--labels", required=True)
    s.add_argument("--field", required=True)
    s.add_argument("--intrinsics", required=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_vote)

    s = sub.add_parser("loss", help="evaluate a rotation loss and gradient")
    s.add_argument("--model", required=True)
    s.add_argument("--pose-est", required=True)
    s.add_argument("--pose-gt", required=True)
    s.add_argument("--kind", choices=[k.value for k in LossKind], required=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_loss)

    s = sub.add_parser("histogram",
                       help="rotation-error histogram from loss descent")
    s.add_argument("--kind", choices=[k.value for k in LossKind], required=True)
    s.add_argument("--model-kind", choices=PRIMITIVE_KINDS, default="bar_2fold")
    s.add_argument("--inits", type=_int_at_least(1), default=200)
    s.add_argument("--steps", type=_int_at_least(0), default=500)
    s.add_argument("--seed", type=_int_at_least(0), default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_histogram)

    s = sub.add_parser("eval", help="ADD/ADD-S/AUC over pose lists")
    s.add_argument("--gt", required=True)
    s.add_argument("--est", required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--intrinsics")
    s.add_argument("--out")
    s.add_argument("--out-csv")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("refine", help="multi-hypothesis ICP refinement")
    s.add_argument("--depth", required=True)
    s.add_argument("--labels", required=True)
    s.add_argument("--class-id", type=_int_at_least(1), required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--init", required=True)
    s.add_argument("--intrinsics", required=True)
    s.add_argument("--seed", type=_int_at_least(0), default=0)
    s.add_argument("--out")
    s.add_argument("--hypotheses", type=_int_at_least(1), default=1)
    s.set_defaults(func=cmd_refine)

    s = sub.add_parser("pipeline",
                       help="synth -> detect -> (refine) -> eval, end to end")
    s.add_argument("--scenes", type=_int_at_least(1), default=20)
    s.add_argument("--seed", type=_int_at_least(0), default=0)
    s.add_argument("--refine", action="store_true")
    s.add_argument("--out")
    s.add_argument("--csv")
    s.add_argument("--noise", choices=list(_NOISE_PRESETS), default="none")
    s.add_argument("--hypotheses", type=_int_at_least(1), default=1)
    s.set_defaults(func=cmd_pipeline)

    s = sub.add_parser("make-model", help="write a primitive model PLY")
    s.add_argument("--kind", required=True, choices=PRIMITIVE_KINDS)
    s.add_argument("--scale", type=_positive_float, default=0.1)
    s.add_argument("--points", type=_int_at_least(1), default=500)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_make_model)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"posevote: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
