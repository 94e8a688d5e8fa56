import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from posevote import pipeline, voting
from posevote.fields import CenterField, LabelMap, directions_to_center
from posevote.geometry import CameraIntrinsics, backproject_center
from posevote.synth import NoiseSpec, default_registry, random_scene
from posevote.voting import (VotingError, cast_votes, collect_inliers, detect,
                             estimate_translation, find_centers, refine_center)

K = CameraIntrinsics(fx=400.0, fy=400.0, px=160.0, py=120.0)


def _zero_field(w, h):
    return CenterField(np.zeros((h, w, 3), dtype=np.float32))


def _field_with_pixels(w, h, class_id, pixels, center, tz=1.0):
    """Labels + field where the given (x, y) pixels point at center."""
    labels = np.zeros((h, w), dtype=np.uint16)
    fld = _zero_field(w, h)
    pl = fld.values
    xs = np.array([p[0] for p in pixels])
    ys = np.array([p[1] for p in pixels])
    labels[ys, xs] = class_id
    dirs = directions_to_center(xs, ys, np.asarray(center, dtype=float))
    pl[ys, xs, 0] = dirs[:, 0]
    pl[ys, xs, 1] = dirs[:, 1]
    pl[ys, xs, 2] = tz
    return LabelMap(labels), fld


def test_three_pixels_unique_maximum():
    center = (100, 100)
    labels, fld = _field_with_pixels(200, 200, 1,
                                     [(40, 100), (100, 30), (160, 170)],
                                     center)
    grid = cast_votes(labels, fld, 1)
    assert grid.scores[100, 100] == 3
    # unique global maximum
    flat = grid.scores.ravel().copy()
    flat.sort()
    assert flat[-1] == 3 and flat[-2] < 3


def test_no_pixels_zero_grid():
    labels, fld = _field_with_pixels(50, 50, 1, [(10, 10)], (20, 20))
    # class 2 labels no pixel
    assert not np.any(cast_votes(labels, fld, 2).scores)
    # class 1 present but masked off everywhere except its pixel
    labels2 = LabelMap(np.zeros((50, 50), dtype=np.uint16))
    grid = cast_votes(labels2, fld, 1)
    assert not np.any(grid.scores)


def test_single_pixel_ray():
    labels, fld = _field_with_pixels(60, 60, 1, [(10, 30)], (50, 30))
    grid = cast_votes(labels, fld, 1)
    # every cell on the horizontal ray gets one vote, nothing else
    assert np.all(grid.scores[30, 11:50] == 1)
    assert grid.scores.sum() == grid.scores[30, :].sum()
    assert np.all(grid.scores[:30] == 0) and np.all(grid.scores[31:] == 0)


def test_votes_stop_at_max_ray_length():
    labels, fld = _field_with_pixels(200, 60, 1, [(0, 30)], (199, 30))
    grid = cast_votes(labels, fld, 1, max_ray_length=50)
    assert grid.scores[30, 40] == 1
    assert grid.scores[30, 60] == 0


@pytest.mark.parametrize("max_ray_length", [0, -1, 0.5, True])
def test_cast_votes_rejects_max_ray_length_below_one_or_fractional(max_ray_length):
    # none can be honoured: 0 would read as unset (the whole ray), -1 would
    # vote on no cell and 0.5 on two
    labels, fld = _field_with_pixels(20, 20, 1, [(2, 10)], (17, 10))
    with pytest.raises(VotingError, match="max_ray_length"):
        cast_votes(labels, fld, 1, max_ray_length=max_ray_length)


@pytest.mark.parametrize("field_size", [(64, 48), (16, 12)],
                         ids=["larger", "smaller"])
def test_cast_votes_rejects_field_of_another_frame(field_size):
    # the field is indexed with label pixels, so both must share
    # one frame
    labels, _ = _field_with_pixels(32, 24, 1, [(5, 5), (20, 15)], (16, 12))
    _, fld = _field_with_pixels(*field_size, 1, [(2, 2), (10, 8)], (8, 6))
    w, h = field_size
    with pytest.raises(VotingError, match=re.escape(
            f"center field shape {(h, w)} differs from label map shape (24, 32)")):
        cast_votes(labels, fld, 1)


def test_votes_stop_at_border():
    labels, fld = _field_with_pixels(100, 100, 1, [(0, 50)], (99, 50))
    grid = cast_votes(labels, fld, 1)
    assert np.all(grid.scores[50] == 1) and grid.scores.sum() == 100
    # the walk ends 2 steps past the border, not after the full diagonal
    xs, ys, nx, ny = voting._class_rays(labels, fld, 1)
    n_steps = int(math.ceil(math.hypot(100, 100)) / voting._RAY_STEP) + 1
    steps = voting._exit_steps(xs, ys, nx, ny, 100, 100, n_steps)
    assert steps.tolist() == [int(99.5 / voting._RAY_STEP) + 3]
    assert steps[0] < n_steps


def _reference_cast_votes(labels, fld, class_id, max_ray_length=None):
    """Every ray walked over the full image diagonal in one (rays x steps)
    array: the definition the clipped, chunked cast_votes must match."""
    h, w = labels.height, labels.width
    grid = np.zeros((h, w), dtype=np.int64)
    xs, ys, nx, ny = voting._class_rays(labels, fld, class_id)
    if xs.size == 0:
        return grid
    max_len = max_ray_length or int(math.ceil(math.hypot(w, h)))
    n_steps = int(max_len / voting._RAY_STEP) + 1
    ts = np.arange(n_steps) * voting._RAY_STEP
    cx = np.floor(xs[:, None] + nx[:, None] * ts[None, :] + 0.5).astype(np.int64)
    cy = np.floor(ys[:, None] + ny[:, None] * ts[None, :] + 0.5).astype(np.int64)
    inside = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
    key = cy * w + cx
    fresh = np.ones_like(inside)
    fresh[:, 1:] = key[:, 1:] != key[:, :-1]
    np.add.at(grid.ravel(), key[inside & fresh], 1)
    return grid


def _assert_matches_reference(labels, fld, class_id, max_ray_length=None):
    got = cast_votes(labels, fld, class_id, max_ray_length).scores
    want = _reference_cast_votes(labels, fld, class_id, max_ray_length)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _ray_field(w, h, rays):
    """Class-1 labels + field holding the given (x, y, nx, ny) rays."""
    labels = np.zeros((h, w), dtype=np.uint16)
    fld = _zero_field(w, h)
    pl = fld.values
    for x, y, nx, ny in rays:
        labels[y, x] = 1
        pl[y, x, :2] = (nx, ny)
    return LabelMap(labels), fld


_MODERATE = dict(direction_sigma=0.05, depth_sigma=0.005, rotation_sigma_deg=25.0)


@pytest.fixture(scope="module")
def synth_frames():
    models = default_registry()
    frames = []
    for noise in (NoiseSpec(), NoiseSpec(rng_seed=0, **_MODERATE)):
        for i in range(7):
            scene = random_scene(pipeline.scene_seed(0, i), models)
            frames.append(pipeline.synth_frame(scene, i, noise, models))
    return frames


def test_cast_votes_matches_reference_on_synth_frames(synth_frames):
    n = 0
    for f in synth_frames:
        for cid in f.labels.class_ids():
            _assert_matches_reference(f.labels, f.fld, cid)
            n += 1
    assert n > 14


def test_cast_votes_matches_reference_on_axis_rays():
    w, h = 23, 17
    rays = [(x, y, d[0], d[1]) for x, y in ((0, 0), (11, 8), (22, 16), (5, 16))
            for d in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    for ray in rays:
        _assert_matches_reference(*_ray_field(w, h, [ray]), 1)
    _assert_matches_reference(*_ray_field(w, h, rays[:4]), 1)


def test_cast_votes_matches_reference_on_outward_border_rays():
    w, h = 30, 20
    rays = [(0, 7, -1, 0.2), (29, 3, 1, -0.3), (12, 0, 0.1, -1), (4, 19, -0.6, 0.8),
            (0, 0, -0.7, -0.7), (29, 19, 0.6, 0.8), (29, 0, 1e-3, -1)]
    _assert_matches_reference(*_ray_field(w, h, rays), 1)


def test_cast_votes_matches_reference_on_corner_exits():
    w, h = 20, 20
    rays = []
    for x, y in ((10, 10), (0, 0), (19, 19), (3, 14)):
        for cx, cy in ((-0.5, -0.5), (w - 0.5, -0.5), (-0.5, h - 0.5),
                       (w - 0.5, h - 0.5)):
            d = np.array([cx - x, cy - y])
            rays.append((x, y, *(d / np.linalg.norm(d))))
    for ray in rays:
        _assert_matches_reference(*_ray_field(w, h, [ray]), 1)


@pytest.mark.parametrize("max_ray_length", [1, 3, 5, 12, 40, 100, 1000])
def test_cast_votes_matches_reference_with_max_ray_length(max_ray_length):
    rng = np.random.default_rng(7)
    w, h = 60, 45
    ang = rng.uniform(0, 2 * np.pi, 200)
    rays = list(zip(rng.integers(0, w, 200), rng.integers(0, h, 200),
                    np.cos(ang), np.sin(ang)))
    _assert_matches_reference(*_ray_field(w, h, rays), 1, max_ray_length)


def test_cast_votes_matches_reference_one_ray_per_chunk(monkeypatch, synth_frames):
    monkeypatch.setattr(voting, "_VOTE_STEP_BUDGET", 4)
    f = synth_frames[7]  # scene 0 with moderate noise
    for cid in f.labels.class_ids():
        _assert_matches_reference(f.labels, f.fld, cid)
    _assert_matches_reference(*_ray_field(20, 20, [(3, 4, 1, 0), (5, 5, 0, -1)]), 1, 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cast_votes_matches_reference_random_fields(data):
    h = data.draw(st.integers(1, 12), label="h")
    w = data.draw(st.integers(1, 12), label="w")
    labels = data.draw(arrays(np.uint16, (h, w), elements=st.integers(0, 2)))
    fld = _zero_field(w, h)
    fld.values[:, :, :2] = data.draw(arrays(
        np.float32, (h, w, 2),
        elements=st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-7])
        | st.floats(-1, 1, width=32)))
    max_ray_length = data.draw(st.none() | st.integers(1, 20))
    _assert_matches_reference(LabelMap(labels), fld, 1, max_ray_length)


_EXACT_DIRECTIONS = [0.0, 1.0, -1.0, 0.5, -0.5, 0.6, -0.6, 0.8, -0.8, 1e-3]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cast_votes_matches_reference_long_rays(data):
    h = data.draw(st.integers(1, 240), label="h")
    w = data.draw(st.integers(1, 320), label="w")
    pixels = data.draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                                min_size=1, max_size=40, unique=True), label="pixels")
    direction = (st.sampled_from(_EXACT_DIRECTIONS)
                 | st.floats(allow_nan=False, allow_infinity=False, width=32))
    rays = [(x, y, data.draw(direction), data.draw(direction)) for x, y in pixels]
    max_ray_length = data.draw(st.none() | st.integers(1, 400), label="max_ray_length")
    # a small budget splits the rays into chunks of one or a few rays
    budget = data.draw(st.sampled_from([4, 64, voting._VOTE_STEP_BUDGET]), label="budget")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voting, "_VOTE_STEP_BUDGET", budget)
        _assert_matches_reference(*_ray_field(w, h, rays), 1, max_ray_length)


def _cell_edge_cases():
    """Single-ray fields on a 64 x 48 frame, each with and without a max ray
    length, whose walks land exactly on cell edges: (3, 4) and (4, 3)
    normalize to exactly 0.6 and 0.8, so some runs start a step after the
    real-valued estimate of their first step."""
    w, h = 64, 48
    dirs = [(0.6, 0.8), (3.0, 4.0), (0.5, math.sqrt(0.75)), (1e-3, 1.0)]
    for x, y in ((0, 0), (31, 23), (63, 47), (10, 40), (50, 5)):
        for dx, dy in dirs:
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                for d in ((sx * dx, sy * dy), (sy * dy, sx * dx)):
                    for max_ray_length in (None, 13):
                        yield *_ray_field(w, h, [(x, y, *d)]), max_ray_length


def test_cast_votes_matches_reference_on_cell_edges():
    for labels, fld, max_ray_length in _cell_edge_cases():
        _assert_matches_reference(labels, fld, 1, max_ray_length)


def test_run_starts_matches_step_scan():
    """Directions a few ulps either side of 3/5, 1/2, 4/5, 1, 1/3 and 1e-3,
    where the real-valued estimate of a run's first step is off by one in
    either direction, against a scan of every step."""
    ks = np.arange(401)
    ps, ns, js, want = [], [], [], []
    for p in (0, 7, 150, 300):
        for base in (0.6, 0.5, 0.8, 1.0, 1 / 3, 1e-3, -0.6, -0.5, -0.8, -1.0, -1 / 3, -1e-3):
            near, up, down = [base], base, base
            for _ in range(2):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                near += [up, down]
            for n in near:
                cells = voting._round_cells(np.full(ks.size, p), np.full(ks.size, n), ks)
                moved = np.abs(cells.astype(np.int64) - p)
                for j in range(1, moved[-1] + 1):
                    ps.append(p)
                    ns.append(n)
                    js.append(j)
                    want.append(int(np.argmax(moved >= j)))
    ps, ns, js = np.array(ps), np.array(ns), np.array(js)
    got = voting._run_starts(ps, ns, js, ps + js * np.sign(ns).astype(np.int64))
    assert got.tolist() == want


def _ulps_from(x, count):
    """x moved count representable doubles up (count > 0) or down."""
    for _ in range(abs(count)):
        x = np.nextafter(x, math.copysign(math.inf, count))
    return float(x)


def _float32_direction(a, b):
    """The first component of (a, b) as _class_rays normalizes it."""
    return float(a) / float(np.hypot(float(a), float(b)))


_FRAME_DIAGONAL = 400  # of a 320 x 240 frame


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_starts_matches_step_scan_random(data):
    """Pixels 0-320, directions a few ulps either side of 3/5, 4/5, 1/2 and
    1/3 or random float32 pairs, and boundaries up to the frame diagonal:
    every certified start and every exact-loop start equals a scan of every
    step of the walk."""
    near_edge = st.builds(lambda base, sign, ulps: sign * _ulps_from(base, ulps),
                          st.sampled_from([0.6, 0.8, 0.5, 1 / 3]),
                          st.sampled_from([1, -1]), st.integers(-4, 4))
    unit = st.floats(-1, 1, width=32)
    float32 = st.tuples(unit, unit).filter(lambda ab: np.hypot(*ab) > 1e-6).map(
        lambda ab: _float32_direction(*ab))
    triples = data.draw(st.lists(st.tuples(st.integers(0, 320), near_edge | float32,
                                           st.integers(1, _FRAME_DIAGONAL)),
                                 min_size=1, max_size=30), label="triples")
    ks = np.arange(int(_FRAME_DIAGONAL / voting._RAY_STEP) + 1)
    ps, ns, js, want = [], [], [], []
    for p, n, j in triples:
        cells = voting._round_cells(np.full(ks.size, p), np.full(ks.size, n), ks)
        moved = np.abs(cells.astype(np.int64) - p)
        if moved[-1] == 0:
            continue  # the walk never leaves its first row
        j = 1 + (j - 1) % moved[-1]
        ps.append(p)
        ns.append(n)
        js.append(j)
        want.append(int(np.argmax(moved >= j)))
    ps, ns, js = np.array(ps, dtype=np.int64), np.array(ns, dtype=float), np.array(js)
    got = voting._run_starts(ps, ns, js, ps + js * np.sign(ns).astype(np.int64))
    assert got.tolist() == want


def test_run_starts_sends_cell_edges_to_exact_loop(monkeypatch):
    """Every run start of the cell-edge walks that its real-valued estimate
    ceil((2j - 1) / |n|) gets wrong reaches the exact loop, which reads the
    walk's values through _ray_values."""
    run_starts, ray_values = voting._run_starts, voting._ray_values
    calls, sent, inside = [], set(), []

    def spy_starts(p, n, j, row):
        inside.append(True)
        k = run_starts(p, n, j, row)
        inside.pop()
        calls.append((p, n, np.ceil((2 * j - 1) / np.abs(n)), k))
        return k

    def spy_values(p, n, k):
        if inside:
            sent.update(zip(p.tolist(), n.tolist(), k.tolist()))
        return ray_values(p, n, k)

    monkeypatch.setattr(voting, "_run_starts", spy_starts)
    monkeypatch.setattr(voting, "_ray_values", spy_values)
    for labels, fld, max_ray_length in _cell_edge_cases():
        cast_votes(labels, fld, 1, max_ray_length)
    wrong = {(p, n, e) for ps, ns, estimate, k in calls
             for p, n, e, right in zip(ps.tolist(), ns.tolist(), estimate.tolist(),
                                       (estimate == k).tolist()) if not right}
    assert wrong and wrong <= sent


def test_cast_votes_on_axis_rays_raises_no_warning():
    rays = [(0, 0, 1, 0), (11, 8, -1, 0), (22, 16, 0, -1), (5, 16, 0, 1), (3, 3, 0.0, -0.5)]
    labels, fld = _ray_field(23, 17, rays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = cast_votes(labels, fld, 1)
    assert np.array_equal(grid.scores, _reference_cast_votes(labels, fld, 1))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_direction_raises(axis, value):
    labels, fld = _field_with_pixels(20, 20, 1, [(3, 4), (15, 12), (8, 17)], (10, 10))
    fld.values[12, 15, axis] = value
    with pytest.raises(VotingError, match="class 1"):
        cast_votes(labels, fld, 1)
    with pytest.raises(VotingError, match="class 1"):
        detect(labels, fld, K)


def test_find_centers_empty_grid():
    labels, fld = _field_with_pixels(40, 40, 1, [(5, 5)], (20, 20))
    grid = cast_votes(labels, fld, 1)
    grid.scores[:] = 0
    assert find_centers(grid, class_pixel_count=0) == []


def test_find_centers_synthetic_object():
    rng = np.random.default_rng(0)
    center = (77, 61)
    pixels = {(int(x), int(y))
              for x, y in zip(rng.integers(40, 120, 300),
                              rng.integers(30, 100, 300))
              if (x, y) != center}
    labels, fld = _field_with_pixels(160, 130, 1, sorted(pixels), center)
    grid = cast_votes(labels, fld, 1)
    found = find_centers(grid, class_pixel_count=len(pixels))
    assert len(found) == 1
    c, score = found[0]
    assert abs(c[0] - center[0]) <= 1 and abs(c[1] - center[1]) <= 1


@pytest.mark.parametrize("apart, found", [(15, 1), (20, 1), (21, 2)])
def test_find_centers_suppresses_peaks_within_nms_radius(apart, found):
    # two peaks of one class, apart px on the Chebyshev distance: the weaker
    # is a center only more than 20 px from the stronger
    scores = np.zeros((60, 80), dtype=np.int64)
    scores[20, 20] = 50
    scores[27, 20 + apart] = 40
    got = find_centers(voting.VoteGrid(scores, rays=()), class_pixel_count=0)
    assert [score for _, score in got] == [50, 40][:found]


@pytest.mark.parametrize("peak, n_px, found", [(10, 0, 0), (11, 0, 1),
                                               (11, 119, 0), (12, 119, 1)])
def test_find_centers_score_cut(peak, n_px, found):
    # a center scores above 10 and above a tenth of the class's pixels
    scores = np.zeros((30, 40), dtype=np.int64)
    scores[12, 17] = peak
    got = find_centers(voting.VoteGrid(scores, rays=()), class_pixel_count=n_px)
    assert [(c.tolist(), s) for c, s in got] == [([17.0, 12.0], peak)][:found]


def test_two_objects_same_class():
    rng = np.random.default_rng(1)
    c1, c2 = (60, 60), (210, 60)
    pix1 = [(int(x), int(y)) for x, y in zip(rng.integers(30, 90, 200),
                                             rng.integers(30, 90, 200))]
    pix2 = [(int(x), int(y)) for x, y in zip(rng.integers(180, 240, 200),
                                             rng.integers(30, 90, 200))]
    labels = np.zeros((120, 280), dtype=np.uint16)
    fld = _zero_field(280, 120)
    pl = fld.values
    for pix, c in ((pix1, c1), (pix2, c2)):
        xs = np.array([p[0] for p in pix])
        ys = np.array([p[1] for p in pix])
        labels[ys, xs] = 1
        d = directions_to_center(xs, ys, np.asarray(c, dtype=float))
        pl[ys, xs, 0] = d[:, 0]
        pl[ys, xs, 1] = d[:, 1]
        pl[ys, xs, 2] = 1.0
    grid = cast_votes(LabelMap(labels), fld, 1)
    found = find_centers(grid, class_pixel_count=int((labels == 1).sum()))
    assert len(found) == 2
    got = sorted(tuple(np.round(c).astype(int)) for c, _ in found)
    assert abs(got[0][0] - c1[0]) <= 1 and abs(got[0][1] - c1[1]) <= 1
    assert abs(got[1][0] - c2[0]) <= 1 and abs(got[1][1] - c2[1]) <= 1


def _inlier_rays(center, labels, fld):
    """The class-1 rays (xs, ys, nx, ny) collect_inliers keeps for center."""
    grid = cast_votes(labels, fld, 1)
    keep = collect_inliers(np.asarray(center, dtype=float), grid)
    return tuple(a[keep] for a in grid.rays)


def _inlier_depths(center, labels, fld):
    xs, ys, _, _ = _inlier_rays(center, labels, fld)
    return fld.values[ys, xs, 2].astype(float)


def test_collect_inliers_direction_sign():
    labels, fld = _field_with_pixels(60, 60, 1, [(10, 30), (50, 30)], (30, 30))
    # reverse the second pixel's direction so it points away from the center
    fld.values[30, 50, :2] *= -1
    xs, ys, _, _ = _inlier_rays([30.0, 30.0], labels, fld)
    assert list(zip(xs.tolist(), ys.tolist())) == [(10, 30)]


def test_collect_inliers_noise_free_full_set():
    rng = np.random.default_rng(2)
    center = (40, 35)
    pixels = sorted({(int(x), int(y))
                     for x, y in zip(rng.integers(20, 60, 200),
                                     rng.integers(20, 55, 200))})
    labels, fld = _field_with_pixels(80, 70, 1, pixels, center)
    xs, ys, _, _ = _inlier_rays(center, labels, fld)
    # every pixel but the center, in row-major (y, then x) order
    expect = sorted((p for p in pixels if p != center), key=lambda p: (p[1], p[0]))
    assert list(zip(xs.tolist(), ys.tolist())) == expect


def test_collect_inliers_keeps_rays_within_three_px():
    # rays toward (50, 50.5) along +x from row 48 and along +y from columns
    # 47 and 54 pass 2.5, 3 and 4 px from it
    rays = (np.array([10, 47, 54]), np.array([48, 10, 10]),
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    grid = voting.VoteGrid(np.zeros((100, 100), dtype=np.int64), rays)
    assert collect_inliers(np.array([50.0, 50.5]), grid).tolist() == [True, True, False]


def test_estimate_translation_principal_point():
    labels, fld = _field_with_pixels(320, 240, 1,
                                     [(100, 120), (160, 40)], (160, 120))
    tz = _inlier_depths([160.0, 120.0], labels, fld)
    t = estimate_translation(np.array([160.0, 120.0]), tz, K)
    assert np.allclose(t, [0.0, 0.0, 1.0])


def test_estimate_translation_depth_mean():
    labels, fld = _field_with_pixels(320, 240, 1,
                                     [(100, 120), (160, 40)], (160, 120))
    fld.values[120, 100, 2] = 0.9
    fld.values[40, 160, 2] = 1.1
    tz = _inlier_depths([160.0, 120.0], labels, fld)
    t = estimate_translation(np.array([160.0, 120.0]), tz, K)
    assert t[2] == pytest.approx(1.0)


def test_nan_depth_raises_instead_of_nan_translation():
    labels, fld = _field_with_pixels(320, 240, 1,
                                     [(100, 120), (160, 40)], (160, 120))
    fld.values[40, 160, 2] = np.nan
    tz = _inlier_depths([160.0, 120.0], labels, fld)
    with pytest.raises(VotingError):
        estimate_translation(np.array([160.0, 120.0]), tz, K)


def test_estimate_translation_requires_support():
    with pytest.raises(VotingError):
        estimate_translation(np.array([5.0, 5.0]), np.empty(0), K)


def test_refine_center_subpixel():
    rng = np.random.default_rng(3)
    center = (81.4, 62.6)
    pixels = sorted({(int(x), int(y))
                     for x, y in zip(rng.integers(40, 120, 300),
                                     rng.integers(30, 95, 300))})
    labels, fld = _field_with_pixels(200, 150, 1, pixels, center)
    rays = _inlier_rays([81.0, 63.0], labels, fld)
    c = refine_center(np.array([81.0, 63.0]), *rays)
    assert np.allclose(c, center, atol=1e-6)


@pytest.mark.parametrize("offset, refined", [((5.0, 0.0), False), ((-3.0, 4.0), False),
                                             ((1.0, 0.0), True), ((0.5, -1.0), True)])
def test_refine_center_keeps_voted_cell_beyond_two_px(offset, refined):
    # rays aimed exactly at the voted cell plus offset: their least-squares
    # point replaces the cell only within 2 px of it on both axes
    voted = np.array([50.0, 50.0])
    xs = np.array([30, 70, 48, 60, 35])
    ys = np.array([40, 45, 75, 25, 65])
    d = directions_to_center(xs, ys, voted + offset)
    got = refine_center(voted, xs, ys, d[:, 0], d[:, 1])
    assert np.allclose(got, voted + offset if refined else voted, atol=1e-9)


def test_refine_center_solves_rays_crossing_at_a_small_angle():
    # two rays 1.1 degrees apart: the system is well short of degenerate
    # (det / trace is 2e-4, the guard's cut 1e-9), so the least-squares
    # point, 0.5 px from the voted cell, replaces it
    voted, center = np.array([50.0, 41.0]), np.array([50.3, 40.6])
    xs, ys = np.array([0, 0]), np.array([40, 41])
    d = directions_to_center(xs, ys, center)
    nx, ny = d[:, 0], d[:, 1]
    det = np.sum(1 - nx * nx) * np.sum(1 - ny * ny) - np.sum(nx * ny) ** 2
    assert 1e-4 < det / np.sum(2 - nx * nx - ny * ny) < 1e-3
    assert np.allclose(refine_center(voted, xs, ys, nx, ny), center, atol=1e-9)


_DIRECTION = st.floats(-1e3, 1e3)


# 0 or 1 rays make a degenerate system, which keeps the voted cell; the one
# ray passes through the cell, so a solve that slipped past the guard would
# land within its 2 px
@settings(max_examples=300, deadline=None)
@example(dx=1.0, dy=0.0, back=5.0, cx=50.0, cy=40.0)
@example(dx=0.0, dy=-1.0, back=5.0, cx=50.0, cy=40.0)
@example(dx=1.0, dy=1.0, back=7.0, cx=50.5, cy=40.25)
@example(dx=-1.0, dy=1.0, back=7.0, cx=50.5, cy=40.25)
@given(dx=_DIRECTION, dy=_DIRECTION, back=st.floats(1.0, 300.0),
       cx=st.floats(0.0, 640.0), cy=st.floats(0.0, 480.0))
def test_refine_center_keeps_the_voted_cell_for_under_two_rays(dx, dy, back,
                                                                 cx, cy):
    norm = np.hypot(dx, dy)
    assume(norm > 1e-6)
    nx, ny = np.array([dx]) / norm, np.array([dy]) / norm  # as _class_rays
    voted = np.array([cx, cy])
    empty = np.empty(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        none = refine_center(voted, empty, empty, empty, empty)
        one = refine_center(voted, cx - back * nx, cy - back * ny, nx, ny)
    assert none.tobytes() == voted.tobytes()
    assert one.tobytes() == voted.tobytes()


def test_detect_background_only():
    labels = LabelMap(np.zeros((40, 40), dtype=np.uint16))
    assert detect(labels, _zero_field(40, 40), K) == []


def test_detect_bbox_contains_inliers():
    rng = np.random.default_rng(4)
    pixels = sorted({(int(x), int(y))
                     for x, y in zip(rng.integers(60, 140, 250),
                                     rng.integers(60, 110, 250))})
    labels, fld = _field_with_pixels(320, 240, 1, pixels, (100, 85))
    dets = detect(labels, fld, K)
    assert len(dets) == 1
    d = dets[0]
    xmin, ymin, xmax, ymax = d.bbox
    assert np.all(d.inliers[:, 0] >= xmin) and np.all(d.inliers[:, 0] <= xmax)
    assert np.all(d.inliers[:, 1] >= ymin) and np.all(d.inliers[:, 1] <= ymax)


def _reference_detect(labels, fld, intrinsics):
    """detect as it was before each class's rays were read once: every
    center derives the class's rays again, refine_center reads and
    re-normalizes the inliers' directions from the field, and the depths
    are read from the field again. Kept as the reference detect must match
    bit for bit."""
    detections = []
    for cid in labels.class_ids():
        grid = cast_votes(labels, fld, cid)
        n_px = int(np.count_nonzero(labels.labels == cid))
        pl = fld.values
        for center, score in find_centers(grid, class_pixel_count=n_px):
            xs, ys, nx, ny = voting._class_rays(labels, fld, cid)
            vx, vy = float(center[0]) - xs, float(center[1]) - ys
            keep = ((vx * nx + vy * ny > 0)
                    & (np.abs(vx * ny - vy * nx) <= voting._INLIER_RAY_DISTANCE))
            inliers = np.stack([xs[keep], ys[keep]], axis=1).astype(np.int64)
            if inliers.shape[0] == 0:
                continue
            ix, iy = inliers[:, 0], inliers[:, 1]
            inx = pl[iy, ix, 0].astype(float)
            iny = pl[iy, ix, 1].astype(float)
            norm = np.hypot(inx, iny)
            center = refine_center(center, ix, iy, inx / norm, iny / norm)
            tz = float(np.mean(pl[iy, ix, 2].astype(float)))
            assert tz > 0
            translation = backproject_center(center, tz, intrinsics)
            bbox = (int(ix.min()), int(iy.min()), int(ix.max()), int(iy.max()))
            detections.append((cid, center, score, inliers, bbox, translation))
    return detections


def test_detect_matches_reference_on_synth_frames(synth_frames):
    n = 0
    for f in synth_frames:
        got = detect(f.labels, f.fld, K)  # K is every random scene's camera
        want = _reference_detect(f.labels, f.fld, K)
        assert len(got) == len(want)
        for d, (cid, center, score, inliers, bbox, translation) in zip(got, want):
            assert d.class_id == cid and d.score == score and d.bbox == bbox
            assert np.array_equal(d.center, center)
            assert d.inliers.dtype == inliers.dtype
            assert np.array_equal(d.inliers, inliers)
            assert np.array_equal(d.translation, translation)
        n += len(got)
    assert n > 14


def test_detect_translation_equivariance():
    rng = np.random.default_rng(5)
    pixels = sorted({(int(x), int(y))
                     for x, y in zip(rng.integers(60, 120, 250),
                                     rng.integers(60, 110, 250))})
    center = (90.0, 85.0)
    labels1, fld1 = _field_with_pixels(320, 240, 1, pixels, center)
    dx, dy = 37, -21
    shifted = [(x + dx, y + dy) for x, y in pixels]
    labels2, fld2 = _field_with_pixels(320, 240, 1, shifted,
                                       (center[0] + dx, center[1] + dy))
    d1 = detect(labels1, fld1, K)[0]
    d2 = detect(labels2, fld2, K)[0]
    assert d2.center[0] - d1.center[0] == pytest.approx(dx, abs=1e-6)
    assert d2.center[1] - d1.center[1] == pytest.approx(dy, abs=1e-6)
    assert d2.translation[2] == pytest.approx(d1.translation[2], abs=1e-9)


def test_cast_votes_deterministic():
    rng = np.random.default_rng(6)
    pixels = sorted({(int(x), int(y))
                     for x, y in zip(rng.integers(10, 90, 150),
                                     rng.integers(10, 90, 150))})
    labels, fld = _field_with_pixels(100, 100, 1, pixels, (50, 50))
    g1 = cast_votes(labels, fld, 1)
    g2 = cast_votes(labels, fld, 1)
    assert np.array_equal(g1.scores, g2.scores)
