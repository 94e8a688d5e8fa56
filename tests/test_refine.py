import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from posevote.fields import DepthMap, LabelMap
from posevote.geometry import (CameraIntrinsics, Pose, random_quat,
                               rotation_angle_between)
from posevote.refine import (_MIN_MASK_PIXELS, IcpError, IcpParams,
                             icp_refine, multi_hypothesis_refine)
from posevote.synth import (Scene, default_registry, perturbed_pose,
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
    assert good.alignment_score(0.02) > bad.alignment_score(0.02)


def test_icp_params_validation():
    with pytest.raises((IcpError, ValueError)):
        IcpParams(max_iterations=0)
    with pytest.raises((IcpError, ValueError)):
        IcpParams(residual_reject_threshold=-1.0)
