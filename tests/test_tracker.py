import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iou_reference import iou
from rinktrack.core import BoundingBox, Detection, ValidationError
from rinktrack.tracker import (
    KalmanTrackState,
    SortTracker,
    TrackerParams,
    box_corners,
    hungarian,
    iou_corners,
    iou_matrix,
    kf_initiate,
    kf_predict,
    kf_update,
    state_to_box,
    track,
)


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum over all one-to-one row/column assignments."""
    m, n = cost.shape
    if m <= n:
        return min(sum(cost[i, p[i]] for i in range(m))
                   for p in itertools.permutations(range(n), m))
    return min(sum(cost[p[j], j] for j in range(n))
               for p in itertools.permutations(range(m), n))


def corner_iou(a: BoundingBox, b: BoundingBox) -> float:
    """IoU of one pair through the pipeline's kernel."""
    return float(iou_corners(box_corners([a]), box_corners([b]))[0, 0])


finite_boxes = st.builds(BoundingBox,
                         st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                         st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))


class TestIoU:
    def test_identical_boxes(self):
        box = BoundingBox(3, 4, 10, 12)
        assert corner_iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert corner_iou(BoundingBox(0, 0, 5, 5), BoundingBox(100, 100, 5, 5)) == 0.0

    def test_known_overlap(self):
        # overlap 1x2 = 2, union 4 + 4 - 2 = 6
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 2, 2)
        assert corner_iou(a, b) == pytest.approx(2 / 6)
        assert corner_iou(b, a) == corner_iou(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite_boxes, min_size=1, max_size=5),
           st.lists(finite_boxes, min_size=1, max_size=5))
    @example([BoundingBox(1.5, 2.5, 7.25, 3.0)], [BoundingBox(1.5, 2.5, 7.25, 3.0)])  # identical
    @example([BoundingBox(0, 0, 4, 4)], [BoundingBox(4, 0, 4, 4)])  # touching edges
    @example([BoundingBox(0, 0, 4, 4)], [BoundingBox(4, 4, 4, 4)])  # touching corners
    @example([BoundingBox(0, 0, 4, 4)], [BoundingBox(0, 9, 4, 4)])  # disjoint
    def test_kernel_matches_scalar(self, boxes_a, boxes_b):
        mat = iou_corners(box_corners(boxes_a), box_corners(boxes_b))
        assert mat.shape == (len(boxes_a), len(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                expected = iou(a, b)
                if expected == 0.0:  # disjoint or touching: the same comparisons, exactly 0
                    assert mat[i, j] == 0.0
                else:
                    assert mat[i, j] == pytest.approx(expected, rel=1e-6)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(1)
        boxes_a = [BoundingBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2)) for _ in range(6)]
        boxes_b = [BoundingBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2)) for _ in range(4)]
        mat = iou_matrix(boxes_a, boxes_b)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == pytest.approx(iou(a, b))


class TestHungarian:
    def test_diagonal_optimal(self):
        assert hungarian(np.array([[1.0, 2.0], [2.0, 1.0]])) == [(0, 0), (1, 1)]

    def test_single_cell(self):
        assert hungarian(np.array([[5.0]])) == [(0, 0)]

    def test_empty_matrix(self):
        assert hungarian(np.zeros((0, 0))) == []
        assert hungarian(np.zeros((0, 3))) == []

    def test_rectangular_covers_min_side(self):
        pairs = hungarian(np.array([[1.0, 9.0, 9.0], [9.0, 9.0, 1.0]]))
        assert pairs == [(0, 0), (1, 2)]

    def test_tie_break_prefers_low_indices(self):
        assert hungarian(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10_000))
    def test_matches_brute_force(self, m, n, seed):
        cost = np.random.default_rng(seed).integers(-30, 60, size=(m, n)).astype(float)
        pairs = hungarian(cost)
        assert len(pairs) == min(m, n)
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        got = sum(cost[i, j] for i, j in pairs)
        assert got == pytest.approx(brute_force_assignment_cost(cost))


def oracle_predict(mean, cov, q_diag):
    """Hand-rolled constant-velocity predict with explicit loops."""
    f = [[0.0] * 7 for _ in range(7)]
    for i in range(7):
        f[i][i] = 1.0
    f[0][4] = f[1][5] = f[2][6] = 1.0
    new_mean = [sum(f[i][k] * mean[k] for k in range(7)) for i in range(7)]
    fp = [[sum(f[i][k] * cov[k][j] for k in range(7)) for j in range(7)] for i in range(7)]
    new_cov = [[sum(fp[i][k] * f[j][k] for k in range(7)) for j in range(7)] for i in range(7)]
    for i in range(7):
        new_cov[i][i] += q_diag[i]
    return np.array(new_mean), np.array(new_cov)


class TestKalman:
    def test_constant_velocity_advance(self):
        params = TrackerParams(process_noise=(0,) * 7)
        state = KalmanTrackState(mean=np.array([10.0, 10, 100, 1, 2, 0, 0]),
                                 covariance=np.eye(7))
        out = kf_predict(state, params)
        assert out.mean.tolist() == [12, 10, 100, 1, 2, 0, 0]

    def test_stationary_state_unchanged(self):
        params = TrackerParams(process_noise=(0,) * 7)
        state = KalmanTrackState(mean=np.array([50.0, 60, 200, 0.5, 0, 0, 0]),
                                 covariance=np.eye(7))
        assert kf_predict(state, params).mean.tolist() == state.mean.tolist()

    def test_predict_matches_matrix_oracle_on_random_psd(self):
        rng = np.random.default_rng(42)
        params = TrackerParams()
        for _ in range(50):
            a = rng.normal(size=(7, 7))
            cov = a @ a.T
            mean = rng.uniform(5, 100, size=7)
            mean[2] = abs(mean[2]) + 10
            state = KalmanTrackState(mean=mean.copy(), covariance=cov.copy())
            out = kf_predict(state, params)
            want_mean, want_cov = oracle_predict(mean, cov, params.process_noise)
            want_cov = (want_cov + want_cov.T) / 2
            assert np.allclose(out.mean, want_mean)
            assert np.allclose(out.covariance, want_cov)
            assert np.allclose(out.covariance, out.covariance.T, atol=1e-9)

    def test_trace_nondecreasing_on_filter_reachable_covariances(self):
        # Checked on covariances the filter can actually reach; arbitrary
        # PSD matrices with strong negative position-velocity correlation
        # can shrink the trace, but predict/update cycles never produce them.
        rng = np.random.default_rng(7)
        params = TrackerParams()
        state = kf_initiate(BoundingBox(10, 10, 20, 40), params)
        for _ in range(200):
            before = np.trace(state.covariance)
            state = kf_predict(state, params)
            assert np.trace(state.covariance) >= before - 1e-9
            box = BoundingBox(*rng.uniform(0, 200, 2), *rng.uniform(5, 60, 2))
            state = kf_update(state, box, params)

    def test_area_clamped_positive(self):
        params = TrackerParams(process_noise=(0,) * 7)
        state = KalmanTrackState(mean=np.array([10.0, 10, 2, 1, 0, 0, -50]),
                                 covariance=np.eye(7))
        out = kf_predict(state, params)
        assert out.mean[2] >= 1.0
        state_to_box(out)  # still a valid box

    def test_noise_free_constant_velocity_converges(self):
        # Zero measurement noise tells the filter the boxes are exact, so
        # position and velocity lock on within a few updates.
        params = TrackerParams(measurement_noise=(0.0, 0.0, 0.0, 0.0))
        w, h = 20.0, 40.0
        state = None
        for t in range(12):
            cx, cy = 100.0 + 3.0 * t, 50.0 + 1.5 * t
            box = BoundingBox(cx - w / 2, cy - h / 2, w, h)
            if state is None:
                state = kf_initiate(box, params)
            else:
                state = kf_update(kf_predict(state, params), box, params)
            if t >= 5:
                assert state.mean[0] == pytest.approx(cx, abs=1e-6)
                assert state.mean[1] == pytest.approx(cy, abs=1e-6)


def _moving_object(start_x, y, frames, w=10.0, h=10.0, dx=5.0, start=0):
    dets = {}
    for t in range(frames):
        dets[start + t] = Detection(start + t, BoundingBox(start_x + dx * t, y, w, h), 1.0)
    return dets


def _merge(*per_object):
    frames = {}
    for obj in per_object:
        for f, det in obj.items():
            frames.setdefault(f, []).append(det)
    return frames


class TestTrackLifecycle:
    def test_single_object_single_track(self):
        frames = _merge(_moving_object(0, 0, 100, dx=3.0))
        tracks = track(frames, TrackerParams())
        assert len(tracks) == 1
        assert tracks[0].frames == list(range(100))

    def test_two_crossing_objects_keep_identities(self):
        # Crossing vertically-separated paths; the boxes never overlap each
        # other above the association threshold, so identities must survive.
        a = _moving_object(0, 0, 60, dx=4.0)
        b = _moving_object(236, 40, 60, dx=-4.0)
        tracks = track(_merge(a, b), TrackerParams())
        assert len(tracks) == 2
        for trk in tracks:
            ys = {d.box.y for d in trk.detections}
            assert len(ys) == 1  # never jumps lanes
        assert {trk.detections[0].box.y for trk in tracks} == {0, 40}

    def test_reappearance_after_max_age_gets_new_id(self):
        params = TrackerParams(max_age=10, min_hits=1)
        first = _moving_object(0, 0, 20, dx=0.0)
        second = _moving_object(0, 0, 20, dx=0.0, start=60)
        tracks = track(_merge(first, second), params)
        assert len(tracks) == 2
        assert tracks[0].track_id != tracks[1].track_id

    def test_short_gap_keeps_identity(self):
        params = TrackerParams(max_age=10, min_hits=1)
        first = _moving_object(0, 0, 20, dx=0.0)
        second = _moving_object(0, 0, 20, dx=0.0, start=25)  # gap of 5 < max_age
        tracks = track(_merge(first, second), params)
        assert len(tracks) == 1

    def test_min_hits_suppresses_flicker(self):
        # A detection lasting one frame after the grace period is never reported.
        stable = _moving_object(0, 0, 30, dx=0.0)
        flicker = {15: Detection(15, BoundingBox(300, 300, 10, 10), 1.0)}
        tracks = track(_merge(stable, flicker), TrackerParams(min_hits=3))
        assert len(tracks) == 1

    def test_low_confidence_detections_dropped(self):
        frames = {t: [Detection(t, BoundingBox(0, 0, 10, 10), 0.2)] for t in range(20)}
        assert track(frames, TrackerParams(confidence_threshold=0.5)) == []

    def test_no_detection_shared_between_tracks(self):
        rng = np.random.default_rng(3)
        objects = [
            _moving_object(rng.uniform(0, 300), 60 * i, 80, dx=rng.uniform(-4, 4))
            for i in range(5)
        ]
        frames = _merge(*objects)
        tracks = track(frames, TrackerParams())
        seen = set()
        for trk in tracks:
            for det in trk.detections:
                assert id(det) not in seen
                seen.add(id(det))
            assert trk.frames == sorted(set(trk.frames))

    def test_empty_input(self):
        assert track({}, TrackerParams()) == []

    @pytest.mark.parametrize("second", [4, 3])
    def test_step_rejects_frame_not_after_previous(self, second):
        tracker = SortTracker(TrackerParams(min_hits=1))
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        tracker.step(4, [Detection(4, box, 1.0)])
        with pytest.raises(ValidationError, match=f"frame {second} does not follow .* 4"):
            tracker.step(second, [Detection(second, box, 1.0)])
        tracker.step(5, [Detection(5, box, 1.0)])  # the rejected call left no trace
        [only] = tracker.finish()
        assert only.frames == [4, 5]
