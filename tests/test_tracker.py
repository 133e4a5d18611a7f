import itertools
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iou_reference import iou
from rinktrack.core import BoundingBox, Detection, ValidationError
from rinktrack.tracker import (
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


# Reference filter: one state object per call, and the noise matrices
# built from the parameters on every call. The array form must reproduce
# it bit for bit.
_REF_F = np.eye(7)
_REF_F[0, 4] = _REF_F[1, 5] = _REF_F[2, 6] = 1.0
_REF_H = np.zeros((4, 7))
_REF_H[0, 0] = _REF_H[1, 1] = _REF_H[2, 2] = _REF_H[3, 3] = 1.0


@dataclass
class KalmanTrackState:
    mean: np.ndarray
    covariance: np.ndarray


def ref_measurement(box):
    cx, cy = box.center
    return np.array([cx, cy, box.area, box.w / box.h])


def ref_state_to_box(state):
    cx, cy, s, r = state.mean[:4]
    s = max(float(s), 1.0)
    r = max(float(r), 1e-6)
    w = (s * r) ** 0.5
    h = s / w
    return BoundingBox(x=cx - w / 2.0, y=cy - h / 2.0, w=w, h=h)


def ref_symmetrize(p):
    return (p + p.T) / 2.0


def ref_initiate(box, params):
    mean = np.zeros(7)
    mean[:4] = ref_measurement(box)
    return KalmanTrackState(mean=mean, covariance=np.diag(params.initial_covariance).astype(float))


def ref_predict(state, params):
    mean = _REF_F @ state.mean
    mean[2] = max(mean[2], 1.0)
    cov = ref_symmetrize(_REF_F @ state.covariance @ _REF_F.T + np.diag(params.process_noise))
    return KalmanTrackState(mean=mean, covariance=cov)


def ref_update(state, box, params):
    z = ref_measurement(box)
    r = np.diag(params.measurement_noise).astype(float)
    s = _REF_H @ state.covariance @ _REF_H.T + r
    gain = np.linalg.solve(s.T, (_REF_H @ state.covariance.T)).T
    innovation = z - _REF_H @ state.mean
    mean = state.mean + gain @ innovation
    mean[2] = max(mean[2], 1.0)
    cov = ref_symmetrize((np.eye(7) - gain @ _REF_H) @ state.covariance)
    return KalmanTrackState(mean=mean, covariance=cov)


def noise_matrices(params):
    """The initial covariance, process noise and measurement noise a tracker builds."""
    tracker = SortTracker(params)
    return tracker._p0, tracker._q, tracker._r


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def box_bits(box):
    return np.array([box.x, box.y, box.w, box.h]).tobytes()


@st.composite
def allowed_noise(draw):
    """Noise diagonals, zeros included, that keep every measured component's q + r above 0."""
    diagonal = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))
    p0 = draw(st.lists(diagonal, min_size=7, max_size=7))
    q = draw(st.lists(diagonal, min_size=7, max_size=7))
    r = draw(st.lists(diagonal, min_size=4, max_size=4))
    for i in range(4):
        if q[i] + r[i] == 0.0:
            q[i] = draw(st.floats(1e-3, 1e4))
    return TrackerParams(initial_covariance=tuple(p0), process_noise=tuple(q),
                         measurement_noise=tuple(r))


track_boxes = st.builds(BoundingBox,
                        st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                        st.floats(1.0, 500.0), st.floats(1.0, 500.0))


class TestKalman:
    def test_constant_velocity_advance(self):
        _, q, _ = noise_matrices(TrackerParams(process_noise=(0,) * 7))
        mean, _ = kf_predict(np.array([10.0, 10, 100, 1, 2, 0, 0]), np.eye(7), q)
        assert mean.tolist() == [12, 10, 100, 1, 2, 0, 0]

    def test_stationary_state_unchanged(self):
        _, q, _ = noise_matrices(TrackerParams(process_noise=(0,) * 7))
        mean = np.array([50.0, 60, 200, 0.5, 0, 0, 0])
        assert kf_predict(mean, np.eye(7), q)[0].tolist() == mean.tolist()

    def test_predict_matches_matrix_oracle_on_random_psd(self):
        rng = np.random.default_rng(42)
        params = TrackerParams()
        _, q, _ = noise_matrices(params)
        for _ in range(50):
            a = rng.normal(size=(7, 7))
            cov = a @ a.T
            mean = rng.uniform(5, 100, size=7)
            mean[2] = abs(mean[2]) + 10
            out_mean, out_cov = kf_predict(mean.copy(), cov.copy(), q)
            want_mean, want_cov = oracle_predict(mean, cov, params.process_noise)
            want_cov = (want_cov + want_cov.T) / 2
            assert np.allclose(out_mean, want_mean)
            assert np.allclose(out_cov, want_cov)
            assert np.allclose(out_cov, out_cov.T, atol=1e-9)

    def test_trace_nondecreasing_on_filter_reachable_covariances(self):
        # Checked on covariances the filter can actually reach; arbitrary
        # PSD matrices with strong negative position-velocity correlation
        # can shrink the trace, but predict/update cycles never produce them.
        rng = np.random.default_rng(7)
        p0, q, r = noise_matrices(TrackerParams())
        mean, cov = kf_initiate(BoundingBox(10, 10, 20, 40), p0)
        for _ in range(200):
            before = np.trace(cov)
            mean, cov = kf_predict(mean, cov, q)
            assert np.trace(cov) >= before - 1e-9
            box = BoundingBox(*rng.uniform(0, 200, 2), *rng.uniform(5, 60, 2))
            mean, cov = kf_update(mean, cov, box, r)

    def test_area_clamped_positive(self):
        _, q, _ = noise_matrices(TrackerParams(process_noise=(0,) * 7))
        mean, _ = kf_predict(np.array([10.0, 10, 2, 1, 0, 0, -50]), np.eye(7), q)
        assert mean[2] >= 1.0
        state_to_box(mean)  # still a valid box

    def test_noise_free_constant_velocity_converges(self):
        # Zero measurement noise tells the filter the boxes are exact, so
        # position and velocity lock on within a few updates.
        p0, q, r = noise_matrices(TrackerParams(measurement_noise=(0.0, 0.0, 0.0, 0.0)))
        w, h = 20.0, 40.0
        mean = cov = None
        for t in range(12):
            cx, cy = 100.0 + 3.0 * t, 50.0 + 1.5 * t
            box = BoundingBox(cx - w / 2, cy - h / 2, w, h)
            if mean is None:
                mean, cov = kf_initiate(box, p0)
            else:
                mean, cov = kf_update(*kf_predict(mean, cov, q), box, r)
            if t >= 5:
                assert mean[0] == pytest.approx(cx, abs=1e-6)
                assert mean[1] == pytest.approx(cy, abs=1e-6)

    def test_new_tracks_share_one_read_only_initial_covariance(self):
        p0, _, _ = noise_matrices(TrackerParams())
        _, a = kf_initiate(BoundingBox(0, 0, 5, 5), p0)
        _, b = kf_initiate(BoundingBox(9, 9, 5, 5), p0)
        assert a is p0 and b is p0
        with pytest.raises(ValueError):
            p0[0, 0] = 1.0

    @settings(max_examples=200, deadline=None)
    @given(allowed_noise(), track_boxes,
           st.lists(st.one_of(st.none(), track_boxes), min_size=1, max_size=25))
    @example(TrackerParams(initial_covariance=(0.0,) * 7, process_noise=(1.0,) * 4 + (0.0,) * 3,
                           measurement_noise=(0.0,) * 4),
             BoundingBox(5.0, 5.0, 10.0, 20.0), [None, BoundingBox(7.0, 5.0, 10.0, 20.0)])
    @example(TrackerParams(initial_covariance=(0.0,) * 7, process_noise=(0.0,) * 7),
             BoundingBox(5.0, 5.0, 10.0, 20.0), [BoundingBox(7.0, 5.0, 10.0, 20.0), None])
    def test_array_form_matches_per_call_reference_bit_for_bit(self, params, first, frames):
        # Each frame predicts, then updates when it has a box, as the tracker does.
        p0, q, r = noise_matrices(params)
        state = ref_initiate(first, params)
        mean, cov = kf_initiate(first, p0)

        def assert_same():
            assert same_bits(mean, state.mean)
            assert same_bits(cov, state.covariance)
            assert box_bits(state_to_box(mean)) == box_bits(ref_state_to_box(state))

        assert_same()
        for box in frames:
            state = ref_predict(state, params)
            mean, cov = kf_predict(mean, cov, q)
            if box is not None:
                state = ref_update(state, box, params)
                mean, cov = kf_update(mean, cov, box, r)
            assert_same()


class TestTrackerParams:
    @pytest.mark.parametrize("fields", [
        {"initial_covariance": (0.0,) * 7, "process_noise": (0.0,) * 7,
         "measurement_noise": (0.0,) * 4},
        {"process_noise": (1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0),
         "measurement_noise": (1.0, 1.0, 0.0, 1.0)},
    ])
    def test_noise_that_leaves_a_measured_component_without_variance_rejected(self, fields):
        with pytest.raises(ValidationError, match="process_noise and measurement_noise must "
                                                  "not both be 0 on a measured component"):
            TrackerParams(**fields)

    @pytest.mark.parametrize("fields", [
        {"measurement_noise": (0.0,) * 4},
        {"process_noise": (0.0,) * 7},
        {"initial_covariance": (0.0,) * 7, "process_noise": (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
         "measurement_noise": (0.0, 1.0, 0.0, 1.0)},
    ])
    def test_noise_with_variance_on_every_measured_component_accepted(self, fields):
        TrackerParams(**fields)


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


def track_every_frame(frames, params):
    """Reference: step every frame from the first to the last, empty ones included."""
    tracker = SortTracker(params)
    if frames:
        for f in range(min(frames), max(frames) + 1):
            tracker.step(f, frames.get(f, ()))
    return tracker.finish()


@st.composite
def sparse_frames(draw):
    """Frames 1-40 apart, each holding 0-3 boxes on four lanes with a little jitter."""
    frames, f = {}, draw(st.integers(0, 5))
    for gap in [0] + draw(st.lists(st.integers(1, 40), max_size=12)):
        f += gap
        lanes = draw(st.lists(st.integers(0, 3), max_size=3, unique=True))
        frames[f] = [Detection(f, BoundingBox(40.0 * lane + draw(st.floats(0.0, 8.0)), 0.0, 10.0, 10.0),
                               1.0) for lane in lanes]
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

    @settings(max_examples=300, deadline=None)
    @given(sparse_frames(), st.integers(0, 10), st.integers(0, 4))
    def test_gaps_match_stepping_every_frame(self, frames, max_age, min_hits):
        params = TrackerParams(max_age=max_age, min_hits=min_hits)
        assert track(frames, params) == track_every_frame(frames, params)

    def test_long_gap_returns_at_once(self):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        frames = {0: [Detection(0, box, 1.0)], 10**9: [Detection(10**9, box, 1.0)]}
        start = time.perf_counter()
        tracks = track(frames, TrackerParams(min_hits=1))
        assert time.perf_counter() - start < 1.0
        # The gap counts towards min_hits' grace period: the new track is not reported.
        assert [t.frames for t in tracks] == [[0]]

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
