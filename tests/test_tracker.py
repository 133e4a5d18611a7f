import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iou_reference import iou
from rinktrack.core import BoundingBox, Detection, Track, ValidationError
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
    """The initial covariance, process noise and measurement noise diagonals a tracker builds."""
    tracker = SortTracker(params)
    return tracker._p0, tracker._q, tracker._r


def measurements(boxes):
    """The (n, 4) measurement rows of ``boxes``, one reference call per box."""
    return np.array([ref_measurement(box) for box in boxes]).reshape(-1, 4)


def block_state(means, covariances):
    """A state of one row per (7-vector mean, 7x7 covariance) pair; the covariances
    must be block-structured, as every covariance the filter reaches is."""
    covs = np.array(covariances, dtype=float)
    i = np.arange(3)
    return (np.array(means, dtype=float).reshape(-1, 7), covs[:, i, i], covs[:, i, i + 4],
            covs[:, i + 4, i + 4], covs[:, 3, 3])


def covariance(state, row):
    """Row ``row`` of ``state`` rebuilt as its 7x7 covariance, +0.0 off the blocks."""
    _, a, b, c, d = state
    p = np.zeros((7, 7))
    for i in range(3):
        p[i, i], p[i, i + 4], p[i + 4, i], p[i + 4, i + 4] = a[row, i], b[row, i], b[row, i], c[row, i]
    p[3, 3] = d[row]
    return p


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
        mean = kf_predict(block_state([10.0, 10, 100, 1, 2, 0, 0], [np.eye(7)]), q)[0]
        assert mean.tolist() == [[12, 10, 100, 1, 2, 0, 0]]

    def test_stationary_state_unchanged(self):
        _, q, _ = noise_matrices(TrackerParams(process_noise=(0,) * 7))
        mean = [50.0, 60, 200, 0.5, 0, 0, 0]
        assert kf_predict(block_state(mean, [np.eye(7)]), q)[0].tolist() == [mean]

    def test_predict_matches_matrix_oracle_on_random_block_covariances(self):
        # Random PSD 2x2 blocks for each (position, velocity) pair and a
        # positive aspect variance: the only covariances the filter reaches.
        rng = np.random.default_rng(42)
        params = TrackerParams()
        _, q, _ = noise_matrices(params)
        means, covs = rng.uniform(5, 100, size=(50, 7)), []
        means[:, 2] += 10
        for _ in means:
            cov = np.zeros((7, 7))
            for i in range(3):
                block = rng.normal(size=(2, 2))
                cov[np.ix_([i, i + 4], [i, i + 4])] = block @ block.T
            cov[3, 3] = rng.uniform(0.1, 10)
            covs.append(cov)
        out = kf_predict(block_state(means, covs), q)
        for row, (mean, cov) in enumerate(zip(means, covs)):
            want_mean, want_cov = oracle_predict(mean, cov, params.process_noise)
            assert np.allclose(out[0][row], want_mean)
            assert np.allclose(covariance(out, row), want_cov)  # zero off the blocks too

    def test_trace_nondecreasing_on_filter_reachable_covariances(self):
        # Checked on covariances the filter can actually reach; arbitrary
        # PSD matrices with strong negative position-velocity correlation
        # can shrink the trace, but predict/update cycles never produce them.
        rng = np.random.default_rng(7)
        p0, q, r = noise_matrices(TrackerParams())
        state = kf_initiate(measurements([BoundingBox(10, 10, 20, 40)]), p0)
        for _ in range(200):
            before = np.trace(covariance(state, 0))
            state = kf_predict(state, q)
            assert np.trace(covariance(state, 0)) >= before - 1e-9
            box = BoundingBox(*rng.uniform(0, 200, 2), *rng.uniform(5, 60, 2))
            state = kf_update(state, measurements([box]), r)

    def test_area_clamped_positive(self):
        _, q, _ = noise_matrices(TrackerParams(process_noise=(0,) * 7))
        mean = kf_predict(block_state([10.0, 10, 2, 1, 0, 0, -50], [np.eye(7)]), q)[0]
        assert mean[0, 2] >= 1.0
        [(x, y, x2, y2)] = state_to_box(mean)
        BoundingBox(x, y, x2 - x, y2 - y)  # still a valid box

    def test_noise_free_constant_velocity_converges(self):
        # Zero measurement noise tells the filter the boxes are exact, so
        # position and velocity lock on within a few updates.
        p0, q, r = noise_matrices(TrackerParams(measurement_noise=(0.0, 0.0, 0.0, 0.0)))
        w, h = 20.0, 40.0
        state = None
        for t in range(12):
            cx, cy = 100.0 + 3.0 * t, 50.0 + 1.5 * t
            z = measurements([BoundingBox(cx - w / 2, cy - h / 2, w, h)])
            state = kf_initiate(z, p0) if state is None else kf_update(kf_predict(state, q), z, r)
            if t >= 5:
                assert state[0][0, 0] == pytest.approx(cx, abs=1e-6)
                assert state[0][0, 1] == pytest.approx(cy, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(allowed_noise(), st.lists(track_boxes, min_size=1, max_size=4),
           st.lists(st.lists(st.one_of(st.none(), track_boxes), min_size=4, max_size=4),
                    min_size=1, max_size=25))
    @example(TrackerParams(initial_covariance=(0.0,) * 7, process_noise=(1.0,) * 4 + (0.0,) * 3,
                           measurement_noise=(0.0,) * 4),
             [BoundingBox(5.0, 5.0, 10.0, 20.0)], [[None] * 4, [BoundingBox(7.0, 5.0, 10.0, 20.0)] * 4])
    @example(TrackerParams(initial_covariance=(0.0,) * 7, process_noise=(0.0,) * 7),
             [BoundingBox(5.0, 5.0, 10.0, 20.0)], [[BoundingBox(7.0, 5.0, 10.0, 20.0)] * 4, [None] * 4])
    # sqrt and pow round (s * r) ** 0.5 differently here: the box's x2 differs by 1 ULP.
    @example(TrackerParams(initial_covariance=(0.0,) * 7, process_noise=(1.0,) * 4 + (0.0,) * 3,
                           measurement_noise=(0.0,) * 4),
             [BoundingBox(0.0, 0.0, 1.0, 1.9)], [[None] * 4])
    def test_array_form_matches_per_call_reference_bit_for_bit(self, params, first, frames):
        # Several tracks share one state. Each frame predicts every row, then
        # updates the rows that have a box, as the tracker does; the rows left
        # out must keep their predicted bits.
        p0, q, r = noise_matrices(params)
        refs = [ref_initiate(box, params) for box in first]
        state = kf_initiate(measurements(first), p0)

        def assert_same():
            corners = state_to_box(state[0])
            for row, ref in enumerate(refs):
                assert same_bits(state[0][row], ref.mean)
                assert same_bits(covariance(state, row), ref.covariance)
                assert same_bits(corners[row], box_corners([ref_state_to_box(ref)])[0])

        assert_same()
        for boxes in frames:
            refs = [ref_predict(ref, params) for ref in refs]
            state = kf_predict(state, q)
            rows = [row for row, box in enumerate(boxes[:len(refs)]) if box is not None]
            for row in rows:
                refs[row] = ref_update(refs[row], boxes[row], params)
            updated = kf_update(tuple(column[rows] for column in state),
                                measurements([boxes[row] for row in rows]), r)
            for column, value in zip(state, updated):
                column[rows] = value
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
    # One box on frames 0, 1 and 20: the 18 empty frames retire its track.
    @example({f: [Detection(f, BoundingBox(0.0, 0.0, 10.0, 10.0), 1.0)] for f in (0, 1, 20)}, 5, 3)
    def test_gaps_match_stepping_every_frame(self, frames, max_age, min_hits):
        params = TrackerParams(max_age=max_age, min_hits=min_hits)
        stepper = SortTracker(params)
        for f in sorted(frames):  # only the detection frames: step itself fills the gaps
            stepper.step(f, frames[f])
        assert track(frames, params) == stepper.finish() == track_every_frame(frames, params)

    # Noise near the float maximum overflows the covariance and makes the
    # state NaN; the NaN IoUs then fail the assignment's finite check.
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_state_overflow_is_a_validation_error(self):
        frames = {f: [Detection(f, BoundingBox(10.0 + 2 * f, 10.0, 20.0, 40.0), 1.0)] for f in range(10)}
        with pytest.raises(ValidationError, match="must be finite"):
            track(frames, TrackerParams(initial_covariance=(1e308,) * 7, process_noise=(1e308,) * 7))

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

    def test_step_rejects_detection_on_another_frame(self):
        tracker = SortTracker(TrackerParams(min_hits=1))
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        tracker.step(4, [Detection(4, box, 1.0)])
        with pytest.raises(ValidationError, match="^detection on frame 3 passed to step for frame 9$"):
            tracker.step(9, [Detection(9, box, 1.0), Detection(3, box, 1.0)])
        tracker.step(5, [Detection(5, box, 1.0)])  # the rejected call left no trace
        [only] = tracker.finish()
        assert only.frames == [4, 5]


# ---------------------------------------------------------------------------
# track() end to end against a plain-Python SORT reference
# ---------------------------------------------------------------------------


def ref_assign(predicted, boxes, iou_threshold):
    """The gated pairs (track index, detection index) of a least-cost assignment
    on ``1 - IoU``, by enumerating every assignment of the smaller side.

    Totals are exact sums (``math.fsum``). When least-cost assignments match
    different pairs, the README's tie rule applies: a lone detection goes to
    the first live track and a lone track takes the first detection. Any
    other such tie is outside the contract, and the example is discarded.
    """
    assume(len(predicted) <= 6 and len(boxes) <= 6)
    overlap = [[iou(p, b) for b in boxes] for p in predicted]
    flip = len(predicted) > len(boxes)
    rows, cols = sorted((len(predicted), len(boxes)))
    best, chosen, outcomes = math.inf, None, set()
    for perm in itertools.permutations(range(cols), rows):  # lowest indices first
        pairs = [(c, r) if flip else (r, c) for r, c in enumerate(perm)]
        total = math.fsum(1.0 - overlap[t][d] for t, d in pairs)
        gated = frozenset((t, d) for t, d in pairs if overlap[t][d] >= iou_threshold)
        if total < best:
            best, chosen, outcomes = total, gated, {gated}
        elif total == best:
            outcomes.add(gated)
    assume(len(outcomes) == 1 or rows == 1)
    return sorted(chosen)


@dataclass
class RefTrack:
    track_id: int
    state: KalmanTrackState
    reported: list
    hit_streak: int = 1
    misses: int = 0


def ref_track(frames, params):
    """SORT as the README states it, stepping every frame from the first to the
    last: a frame missing from ``frames`` is an empty frame."""
    live, done, next_id = [], [], 1
    for seen, f in enumerate(range(min(frames, default=0), max(frames, default=-1) + 1), 1):
        grace = seen <= params.min_hits  # every match and new track is reported
        dets = [d for d in frames.get(f, ()) if d.confidence >= params.confidence_threshold]
        for trk in live:
            trk.state = ref_predict(trk.state, params)
        matches = ref_assign([ref_state_to_box(trk.state) for trk in live],
                             [d.box for d in dets], params.iou_threshold) if live and dets else []
        for t, d in matches:
            trk = live[t]
            trk.state = ref_update(trk.state, dets[d].box, params)
            trk.hit_streak += 1
            trk.misses = 0
            if grace or trk.hit_streak >= params.min_hits:
                trk.reported.append(dets[d])
        matched = {t for t, _ in matches}
        for t, trk in enumerate(live):
            if t not in matched:
                trk.hit_streak, trk.misses = 0, trk.misses + 1
        done += [trk for trk in live if trk.misses > params.max_age]
        live = [trk for trk in live if trk.misses <= params.max_age]
        taken = {d for _, d in matches}
        for d, det in enumerate(dets):
            if d not in taken:
                live.append(RefTrack(next_id, ref_initiate(det.box, params), [det] if grace else []))
                next_id += 1
    return sorted((Track(trk.track_id, tuple(trk.reported)) for trk in done + live if trk.reported),
                  key=lambda t: t.track_id)


@st.composite
def sort_scenes(draw):
    """A few objects moving in straight lines for tens of frames, with jitter,
    dropped detections, false positives, low confidences and skipped frames,
    as ``{frame: [Detection]}``. The geometry comes from a drawn numpy seed, so
    no two boxes coincide by accident. Objects at rest on whole pixels, as
    squares without jitter, are predicted exactly: their IoU is exactly 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objects = draw(st.integers(1, 3))
    drop_rate, fp_rate, skip_rate = (draw(st.sampled_from(rates)) for rates in (
        [0.0, 0.15, 0.4], [0.0, 0.1, 0.3], [0.0, 0.1, 0.3]))
    if draw(st.booleans()):
        jitter = 0.0
        start = rng.integers(0, 300, (objects, 2)).astype(float)
        velocity = np.zeros((objects, 2))
        size = rng.integers(15, 45, (objects, 1)).repeat(2, axis=1).astype(float)
    else:
        jitter = draw(st.sampled_from([0.0, 1.0, 4.0]))
        start = rng.uniform(0.0, 300.0, (objects, 2))
        velocity = rng.uniform(-6.0, 6.0, (objects, 2))
        size = rng.uniform(15.0, 45.0, (objects, 2))
    frames, f = {}, int(rng.integers(0, 5))
    for _ in range(draw(st.integers(1, 40))):
        dets = []
        for i in range(objects):
            if rng.random() >= drop_rate:
                x, y = start[i] + velocity[i] * f + jitter * rng.standard_normal(2)
                dets.append(Detection(f, BoundingBox(x, y, *size[i]), rng.uniform(0.3, 1.0)))
        if rng.random() < fp_rate:
            dets.append(Detection(f, BoundingBox(*rng.uniform(0.0, 300.0, 2),
                                                 *rng.uniform(15.0, 45.0, 2)),
                                  rng.uniform(0.3, 1.0)))
        frames[f] = dets
        f += 1 + (int(rng.integers(1, 12)) if rng.random() < skip_rate else 0)
    return frames


sort_params = st.builds(
    TrackerParams, iou_threshold=st.sampled_from([0.1, 0.3, 0.5, 1.0]), max_age=st.integers(0, 5),
    min_hits=st.integers(0, 4), confidence_threshold=st.sampled_from([0.0, 0.5, 0.7]))


def square_scene(*frame_boxes):
    """``{frame: [Detection]}`` of exact boxes, confidence 1."""
    return {f: [Detection(f, BoundingBox(*box), 1.0) for box in boxes] for f, boxes in frame_boxes}


class TestSortReference:
    """``track()`` equals the plain-Python SORT reference: ids, frames and boxes."""

    @settings(max_examples=150, deadline=None)
    @given(sort_scenes(), sort_params)
    # IoU exactly at the gate: a 10x10 box, then its top half (IoU 0.5), matches.
    @example(square_scene((0, [(0.0, 0.0, 10.0, 10.0)]), (1, [(0.0, 0.0, 10.0, 5.0)])),
             TrackerParams(iou_threshold=0.5, min_hits=1))
    # A tie: two tracks on one box, then one box; the first live track takes it.
    @example(square_scene((0, [(0.0, 0.0, 10.0, 10.0)] * 2), (1, [(1.0, 0.0, 10.0, 10.0)])),
             TrackerParams(min_hits=1))
    # A track missed on exactly max_age frames survives to match again.
    @example(square_scene((0, [(0.0, 0.0, 10.0, 10.0)]), (3, [(0.0, 0.0, 10.0, 10.0)])),
             TrackerParams(max_age=2, min_hits=0))
    def test_track_matches_reference(self, frames, params):
        assert track(frames, params) == ref_track(frames, params)
