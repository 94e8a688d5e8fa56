import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from posevote import pipeline, refine
from posevote.fields import DepthMap, LabelMap
from posevote.geometry import (CameraIntrinsics, Pose, random_quat,
                               rotation_angle_between)
from posevote.refine import (_CONVERGENCE_TOL, _MAX_HALVINGS, _MIN_MASK_PIXELS,
                             IcpError, IcpParams, RefineResult,
                             _apply_increment, icp_refine,
                             multi_hypothesis_refine)
from posevote.synth import (NoiseSpec, Scene, default_registry, perturbed_pose,
                            render_full)

K = CameraIntrinsics(fx=400.0, fy=400.0, px=160.0, py=120.0)
MODELS = default_registry()


def _scene(class_id, seed):
    rng = np.random.default_rng(seed)
    pose = Pose(random_quat(rng),
                np.array([rng.uniform(-0.08, 0.08), rng.uniform(-0.06, 0.06),
                          rng.uniform(0.7, 1.1)]))
    scene = Scene(instances=[(class_id, pose)], intrinsics=K,
                  width=320, height=240)
    r = render_full(scene, MODELS)
    return DepthMap(depth=r.depth), LabelMap(labels=r.label), pose


def test_fixed_point():
    depth, labels, pose = _scene(4, 0)
    res = icp_refine(depth, labels, 4, MODELS[4], pose, K,
                     IcpParams(max_iterations=10))
    assert rotation_angle_between(res.pose.quaternion, pose.quaternion) < 0.01
    assert np.linalg.norm(res.pose.translation - pose.translation) < 1e-4
    assert res.mean_residual < 1e-6


def test_small_perturbation_recovery():
    rng = np.random.default_rng(1)
    depth, labels, pose = _scene(4, 2)
    init = perturbed_pose(pose, 5.0, 0.01, rng)
    res = icp_refine(depth, labels, 4, MODELS[4], init, K)
    assert rotation_angle_between(res.pose.quaternion, pose.quaternion) < 0.5
    assert np.linalg.norm(res.pose.translation - pose.translation) < 0.002


def test_insufficient_support():
    depth = DepthMap(depth=np.zeros((240, 320), dtype=np.float32))
    labels = LabelMap(labels=np.zeros((240, 320), dtype=np.uint16))
    pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(IcpError):
        icp_refine(depth, labels, 4, MODELS[4], pose, K)


def _sparse_mask(n_px, n_holes):
    """A rendered blob whose label map marks `n_px` of its depth pixels and
    `n_holes` background pixels as class 4 and the rest of it as class 2,
    so exactly `n_px` masked pixels carry depth."""
    depth, labels, pose = _scene(4, 0)
    rng = np.random.default_rng(n_px)
    on = np.flatnonzero(labels.labels == 4)
    off = np.flatnonzero(depth.depth == 0)
    marked = np.zeros(depth.depth.size, dtype=np.uint16)
    marked[on] = 2
    marked[rng.choice(on, n_px, replace=False)] = 4
    marked[rng.choice(off, n_holes, replace=False)] = 4
    return depth, LabelMap(labels=marked.reshape(depth.depth.shape)), pose


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(n_px=st.integers(0, _MIN_MASK_PIXELS - 1),
       n_holes=st.integers(0, 200),
       q=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT).filter(
           lambda q: np.linalg.norm(q) > 1e-3),
       t=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
                   st.floats(0.3, 2.0)))
@example(n_px=0, n_holes=0, q=(1.0, 0.0, 0.0, 0.0), t=(0.0, 0.0, 1.0))
@example(n_px=_MIN_MASK_PIXELS - 1, n_holes=200, q=(1.0, 0.0, 0.0, 0.0),
         t=(0.0, 0.0, 1.0))
def test_sparse_mask_raises_icp_error(n_px, n_holes, q, t):
    depth, labels, _ = _sparse_mask(n_px, n_holes)
    init = Pose(np.array(q), np.array(t))
    with pytest.raises(IcpError, match="insufficient support"):
        icp_refine(depth, labels, 4, MODELS[4], init, K)
    with pytest.raises(IcpError, match="insufficient support"):
        multi_hypothesis_refine(depth, labels, 4, MODELS[4], init, K,
                                IcpParams(n_hypotheses=2))


def test_min_mask_pixels_suffice():
    depth, labels, pose = _sparse_mask(_MIN_MASK_PIXELS, 100)
    res = icp_refine(depth, labels, 4, MODELS[4], pose, K)
    assert res.inlier_fraction == 1.0


def test_non_finite_solve_ends_icp_at_the_initial_pose(monkeypatch):
    # a NaN step used to reach Pose; it now ends the iteration as a
    # LinAlgError does, and the initial pose comes back unchanged
    rng = np.random.default_rng(1)
    depth, labels, pose = _scene(4, 2)
    init = perturbed_pose(pose, 5.0, 0.01, rng)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(6, np.nan))
    res = icp_refine(depth, labels, 4, MODELS[4], init, K)
    assert res.pose is init
    assert res.iterations == 1
    assert len(res.objective_trace) == 1


def test_objective_trace_non_increasing():
    rng = np.random.default_rng(3)
    depth, labels, pose = _scene(4, 4)
    init = perturbed_pose(pose, 8.0, 0.015, rng)
    res = icp_refine(depth, labels, 4, MODELS[4], init, K)
    trace = np.asarray(res.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_single_hypothesis_matches_icp_refine():
    rng = np.random.default_rng(5)
    depth, labels, pose = _scene(4, 6)
    init = perturbed_pose(pose, 6.0, 0.01, rng)
    params = IcpParams(n_hypotheses=1)
    a = multi_hypothesis_refine(depth, labels, 4, MODELS[4], init, K, params)
    b = icp_refine(depth, labels, 4, MODELS[4], init, K, params)
    assert np.array_equal(a.pose.quaternion, b.pose.quaternion)
    assert np.array_equal(a.pose.translation, b.pose.translation)


def test_multi_hypothesis_deterministic():
    rng = np.random.default_rng(7)
    depth, labels, pose = _scene(4, 8)
    init = perturbed_pose(pose, 15.0, 0.02, rng)
    params = IcpParams(n_hypotheses=4, rng_seed=123)
    a = multi_hypothesis_refine(depth, labels, 4, MODELS[4], init, K, params)
    b = multi_hypothesis_refine(depth, labels, 4, MODELS[4], init, K, params)
    assert np.array_equal(a.pose.quaternion, b.pose.quaternion)
    assert np.array_equal(a.pose.translation, b.pose.translation)


def test_multi_hypothesis_escapes_20deg():
    rng = np.random.default_rng(9)
    depth, labels, pose = _scene(4, 10)
    init = perturbed_pose(pose, 20.0, 0.02, rng)
    res = multi_hypothesis_refine(depth, labels, 4, MODELS[4], init, K,
                                  IcpParams(n_hypotheses=8))
    assert rotation_angle_between(res.pose.quaternion, pose.quaternion) < 1.0
    assert np.linalg.norm(res.pose.translation - pose.translation) < 0.005


def test_alignment_score_pareto_consistency():
    # a candidate with both higher inlier fraction and lower residual must
    # never lose on the alignment score
    from posevote.refine import RefineResult
    p = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    good = RefineResult(pose=p, mean_residual=0.001, inlier_fraction=0.9,
                        iterations=3, objective_trace=[])
    bad = RefineResult(pose=p, mean_residual=0.005, inlier_fraction=0.5,
                       iterations=3, objective_trace=[])
    assert good.alignment_score() > bad.alignment_score()


def test_icp_params_validation():
    with pytest.raises((IcpError, ValueError)):
        IcpParams(max_iterations=0)
    with pytest.raises((IcpError, ValueError)):
        IcpParams(n_hypotheses=0)


# each would otherwise fail late: inf and NaN in range(), a negative or NaN
# seed inside numpy
@pytest.mark.parametrize("setting", [
    {"max_iterations": math.inf}, {"max_iterations": math.nan},
    {"n_hypotheses": math.inf}, {"n_hypotheses": math.nan}, {"rng_seed": -1},
    {"rng_seed": math.nan},
], ids=lambda d: "{}={}".format(*next(iter(d.items()))))
def test_icp_params_rejects_non_finite_or_negative(setting):
    with pytest.raises(ValueError):
        IcpParams(**setting)


def test_label_shape_mismatch_raises_icp_error():
    depth, labels, pose = _scene(4, 0)
    labels = LabelMap(labels=labels.labels[:200])
    match = (r"label map shape \(200, 320\) differs from depth map shape "
             r"\(240, 320\)")
    with pytest.raises(IcpError, match=match):
        icp_refine(depth, labels, 4, MODELS[4], pose, K)
    with pytest.raises(IcpError, match=match):
        multi_hypothesis_refine(depth, labels, 4, MODELS[4], pose, K,
                                IcpParams(n_hypotheses=2))


# windowed ICP against the whole-frame evaluation -----------------------------


def _reference_icp_refine(observed, labels, class_id, model, init, intrinsics,
                          params):
    """icp_refine as it was before ICP rendered only the masked window: each
    evaluation renders the whole frame, gathers through (ys, xs) and uses
    np.cross and np.sum. Kept as the reference the windowed ICP must match
    bit for bit."""
    ys, xs = np.nonzero((labels.labels == class_id) & (observed.depth > 0))
    z = observed.depth[ys, xs].astype(float)
    rays = np.stack([(xs - intrinsics.px) / intrinsics.fx,
                     (ys - intrinsics.py) / intrinsics.fy,
                     np.ones(xs.size)], axis=1)
    obs_pts = rays * z[:, None]
    h, w = observed.depth.shape
    reject = refine._RESIDUAL_REJECT_M

    def evaluate(pose):
        if pose.translation[2] <= 0:
            return None
        raster = render_full(Scene(instances=[(model.class_id, pose)],
                                   intrinsics=intrinsics, width=w, height=h),
                             {model.class_id: model})
        hit = raster.depth[ys, xs] > 0
        if not hit.any():
            return None
        p = rays[hit] * raster.depth[ys[hit], xs[hit]][:, None]
        n = raster.normals[ys[hit], xs[hit]]
        r = np.sum(n * (obs_pts[hit] - p), axis=1)
        keep = np.abs(r) <= reject
        n_in = int(keep.sum())
        if n_in == 0:
            return None
        energy = (float(np.sum(np.minimum(np.abs(r), reject)))
                  + (xs.size - int(hit.sum())) * reject) / xs.size
        return (p[keep], n[keep], r[keep], n_in,
                float(np.mean(np.abs(r[keep]))), energy)

    current = init
    state = init_state = evaluate(current)
    trace = [state[5]]
    iterations = 0
    for iterations in range(1, params.max_iterations + 1):
        p, n, r, n_in, mean_abs, energy = state
        jac = np.hstack([np.cross(p, n), n])
        jtj = jac.T @ jac
        damp = 1e-9 * max(np.trace(jtj) / 6.0, 1e-12)
        xi = np.linalg.solve(jtj + damp * np.eye(6), jac.T @ r)
        step, accepted = 1.0, None
        for _ in range(_MAX_HALVINGS):
            cand = _apply_increment(current, step * xi[:3], step * xi[3:])
            cand_state = evaluate(cand)
            if cand_state is not None and cand_state[5] <= energy:
                accepted = (cand, cand_state, step)
                break
            step *= 0.5
        if accepted is None:
            break
        current, state, step = accepted
        trace.append(state[5])
        change = step * (float(np.linalg.norm(xi[3:]))
                         + float(np.linalg.norm(xi[:3])) * 0.5 * model.diameter)
        if change < _CONVERGENCE_TOL:
            break
    if state[4] > init_state[4]:
        current, state = init, init_state
    return RefineResult(pose=current, mean_residual=state[4],
                        inlier_fraction=state[3] / xs.size,
                        iterations=iterations, objective_trace=trace)


def _assert_same_refinement(args):
    got = icp_refine(*args)
    want = _reference_icp_refine(*args)
    assert np.array_equal(got.pose.quaternion, want.pose.quaternion)
    assert np.array_equal(got.pose.translation, want.pose.translation)
    assert got.iterations == want.iterations
    assert got.objective_trace == want.objective_trace
    assert got.mean_residual == want.mean_residual
    assert got.inlier_fraction == want.inlier_fraction


def _recorded_icp_calls(monkeypatch, fn):
    """Run fn() and return the arguments of every icp_refine call that
    multi_hypothesis_refine made during it, defaults filled in."""
    calls = []
    real = refine.icp_refine

    def record(observed, labels, class_id, model, init, intrinsics, params=None):
        args = (observed, labels, class_id, model, init, intrinsics,
                params or IcpParams())
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(refine, "icp_refine", record)
        fn()
    return calls


def test_windowed_icp_matches_whole_frame_on_refine_noisy_scene(monkeypatch):
    # the benchmark's refine_noisy op: scene 11, moderate noise, 4 hypotheses
    cfg = pipeline.PipelineConfig(
        seed=0, noise=NoiseSpec(rng_seed=0, direction_sigma=0.05,
                                depth_sigma=0.005, rotation_sigma_deg=25.0),
        refine=True, icp=IcpParams(n_hypotheses=4, rng_seed=0))
    calls = _recorded_icp_calls(
        monkeypatch, lambda: pipeline.evaluate_scene(11, cfg, MODELS))
    assert len(calls) == 8
    for args in calls:
        _assert_same_refinement(args)


def test_windowed_icp_matches_whole_frame_on_acceptance_7_cases(monkeypatch):
    # the fixed-point, basin and multi-hypothesis cases of acceptance
    # criterion 7, drawn the same way (its scenes are _scene(4, seed))
    blob = MODELS[4]
    rng = np.random.default_rng(107)
    for s in range(10):
        depth, labels, pose = _scene(4, 1000 + s)
        _assert_same_refinement((depth, labels, 4, blob, pose, K,
                                 IcpParams(max_iterations=10)))
    for s in range(40):
        depth, labels, pose = _scene(4, 2000 + s)
        init = perturbed_pose(pose, rng.uniform(0, 10.0), rng.uniform(0, 0.02),
                              rng)
        _assert_same_refinement((depth, labels, 4, blob, init, K, IcpParams()))
    for s in range(50):
        depth, labels, pose = _scene(4, 3000 + s)
        init = perturbed_pose(pose, 20.0, 0.02, rng)
        calls = _recorded_icp_calls(monkeypatch, lambda: multi_hypothesis_refine(
            depth, labels, 4, blob, init, K, IcpParams(n_hypotheses=8)))
        assert len(calls) == 8
        for args in calls:
            _assert_same_refinement(args)
