"""IoU-gated tracking-by-detection with a constant-velocity Kalman filter.

Association solves a min-cost assignment on 1 - IoU per frame; track
lifecycle follows the usual tentative/confirmed/lost rules driven by
``min_hits`` and ``max_age``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (BoundingBox, Detection, Track, ValidationError, check_int, check_unit,
                   is_number, known_fields)


@dataclass(frozen=True)
class TrackerParams:
    """Association and lifecycle tunables.

    Noise vectors are the diagonals of the process/measurement
    covariances over the state [cx, cy, area, aspect, vcx, vcy, varea]
    and the measurement [cx, cy, area, aspect].
    """

    iou_threshold: float = 0.3
    max_age: int = 30
    min_hits: int = 3
    confidence_threshold: float = 0.5
    initial_covariance: tuple[float, ...] = (10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4)
    process_noise: tuple[float, ...] = (1.0, 1.0, 1.0, 0.01, 0.01, 0.01, 1e-4)
    measurement_noise: tuple[float, ...] = (1.0, 1.0, 10.0, 10.0)

    def __post_init__(self) -> None:
        check_unit("iou_threshold", self.iou_threshold)
        check_unit("confidence_threshold", self.confidence_threshold)
        check_int("max_age", self.max_age, 0)
        check_int("min_hits", self.min_hits, 0)
        for name, size in (("initial_covariance", 7), ("process_noise", 7),
                           ("measurement_noise", 4)):
            value = getattr(self, name)
            if not (isinstance(value, (tuple, list)) and len(value) == size and all(
                    is_number(v) and math.isfinite(v) and v >= 0 for v in value)):
                raise ValidationError(
                    f"{name} must hold {size} finite numbers >= 0, got {value!r}")
        # Keeps each innovation variance a + r, d + r above 0 after every predict.
        if not all(q + r > 0 for q, r in zip(self.process_noise, self.measurement_noise)):
            raise ValidationError(
                f"process_noise and measurement_noise must not both be 0 on a measured "
                f"component [cx, cy, area, aspect], got {tuple(self.process_noise[:4])!r} "
                f"and {tuple(self.measurement_noise)!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrackerParams":
        return cls(**{name: tuple(value) if isinstance(value, (list, tuple)) else value
                      for name, value in known_fields(cls, data).items()})


def box_corners(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """Boxes as an (n, 4) array of [x, y, x2, y2] rows."""
    return np.array([(b.x, b.y, b.x + b.w, b.y + b.h) for b in boxes]).reshape(-1, 4)


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corner rows ``a[..., :]`` and ``b[..., :]``, element-wise over their
    broadcast shape: every IoU in the package is this arithmetic."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    # np.maximum, not np.clip: the same values for a fraction of the call overhead.
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a + area_b - inter)


def iou_corners(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two corner arrays, shape (len(a), len(b))."""
    return iou_pairs(a[:, None], b)


def iou_matrix(boxes_a: Sequence[BoundingBox], boxes_b: Sequence[BoundingBox]) -> np.ndarray:
    """Pairwise IoU, shape (len(a), len(b))."""
    return iou_corners(box_corners(boxes_a), box_corners(boxes_b))


def hungarian(cost: np.ndarray | Sequence[Sequence[float]]) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of rows to columns.

    Rectangular matrices are allowed; the result covers min(m, n)
    pairs. Rows are introduced in ascending order and column scans
    break ties toward the lowest index, so the output is deterministic.
    Returns (row, col) pairs sorted by row.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    if cost.ndim != 2:
        raise ValidationError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix entries must be finite")

    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    m, n = cost.shape

    # Shortest-augmenting-path algorithm with row/column potentials.
    # Column index n is a virtual slot that temporarily holds the row
    # being inserted.
    INF = float("inf")
    u = np.zeros(m)
    v = np.zeros(n + 1)
    assigned_row = np.full(n + 1, -1, dtype=int)
    for i in range(m):
        assigned_row[n] = i
        j0 = n
        minv = np.full(n, INF)
        way = np.full(n, -1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = assigned_row[j0]
            free = ~used[:n]
            reduced = cost[i0, :] - u[i0] - v[:n]
            improved = free & (reduced < minv)
            minv[improved] = reduced[improved]
            way[improved] = j0
            free_idx = np.flatnonzero(free)
            j1 = int(free_idx[np.argmin(minv[free_idx])])
            delta = minv[j1]
            used_cols = np.flatnonzero(used)
            u[assigned_row[used_cols]] += delta
            v[used_cols] -= delta
            minv[~used[:n]] -= delta
            j0 = j1
            if assigned_row[j0] == -1:
                break
        while j0 != n:
            j1 = int(way[j0])
            assigned_row[j0] = assigned_row[j1]
            j0 = j1

    pairs = [(int(assigned_row[j]), j) for j in range(n) if assigned_row[j] != -1]
    if transposed:
        pairs = [(j, i) for i, j in pairs]
    return sorted(pairs)


# ---------------------------------------------------------------------------
# Constant-velocity Kalman filter over [cx, cy, area, aspect, vcx, vcy, varea]
# ---------------------------------------------------------------------------
# The noise covariances are diagonal and the motion couples only (cx, vcx),
# (cy, vcy) and (area, varea), so every covariance P the filter reaches is four
# blocks and 0 elsewhere. A state has one row per track: (mean (n, 7), a, b, c
# (n, 3), d (n,)), with a = P[i, i], b = P[i, i + 4], c = P[i + 4, i + 4] for i in
# (cx, cy, area) and d = P[aspect, aspect]. Every step is elementwise per row.

KalmanState = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def kf_initiate(z: np.ndarray, p0: np.ndarray) -> KalmanState:
    """States at rest at the (n, 4) measurements ``z``, covariance diag(``p0``)."""
    n = len(z)
    p = np.repeat(p0[None], n, axis=0)
    return np.concatenate((z, np.zeros((n, 3))), axis=1), p[:, :3], np.zeros((n, 3)), p[:, 4:], p[:, 3]


def kf_predict(state: KalmanState, q: np.ndarray) -> KalmanState:
    """Advance one frame under constant velocity and grow the covariance by diag(``q``)."""
    mean, a, b, c, d = state
    mean = np.concatenate((mean[:, :3] + mean[:, 4:], mean[:, 3:]), axis=1)
    mean[:, 2] = np.maximum(mean[:, 2], 1.0)  # area kept positive so the box stays valid
    return mean, (a + b) + (b + c) + q[:3], b + c, c + q[4:], d + q[3]


def kf_update(state: KalmanState, z: np.ndarray, r: np.ndarray) -> KalmanState:
    """Correct each row of ``state`` by the same row of the (n, 4) measurements ``z``."""
    mean, a, b, c, d = state
    variance = np.column_stack((a, d))
    inv = 1.0 / (variance + r)
    k = variance * inv
    kv = b * inv[:, :3]
    e = z - mean[:, :4]
    mean = np.concatenate((mean[:, :4] + k * e, mean[:, 4:] + kv * e[:, :3]), axis=1)
    mean[:, 2] = np.maximum(mean[:, 2], 1.0)
    keep = 1.0 - k[:, :3]
    # The off-diagonal mean of P[i, i + 4] and P[i + 4, i] keeps the covariance symmetric.
    return mean, keep * a, (keep * b + (b - kv * a)) / 2.0, c - kv * b, (1.0 - k[:, 3]) * d


def state_to_box(mean: np.ndarray) -> np.ndarray:
    """The box of each row of ``mean``, as (n, 4) corner rows [x, y, x2, y2]."""
    s = np.maximum(mean[:, 2], 1.0)
    # float_power is the C library's pow, as Python's float ** 0.5 is; an
    # array's ** 0.5 is sqrt, which differs from pow in the last bit on some inputs.
    w = np.float_power(s * np.maximum(mean[:, 3], 1e-6), 0.5)
    h = s / w
    x, y = mean[:, 0] - w / 2.0, mean[:, 1] - h / 2.0
    return np.column_stack((x, y, x + w, y + h))


# ---------------------------------------------------------------------------
# Track lifecycle
# ---------------------------------------------------------------------------


@dataclass
class _LiveTrack:
    track_id: int
    hit_streak: int = 1
    time_since_update: int = 0
    recorded: list[Detection] = field(default_factory=list)


class SortTracker:
    """Stateful per-video tracker; feed frames in increasing order."""

    def __init__(self, params: TrackerParams | None = None):
        params = self.params = params or TrackerParams()
        self._p0, self._q, self._r = (np.array(d, dtype=float) for d in (
            params.initial_covariance, params.process_noise, params.measurement_noise))
        self._live: list[_LiveTrack] = []
        self._state = kf_initiate(np.zeros((0, 4)), self._p0)  # row i is self._live[i]
        self._finished: list[_LiveTrack] = []
        self._next_id = 1
        self._frames_seen = 0
        self._last_frame: int | None = None

    def step(self, frame: int, detections: Sequence[Detection]) -> None:
        """Advance to ``frame`` and associate its detections.

        Frames must increase and every detection must lie on ``frame``.
        Frames skipped since the previous step are empty frames that age
        live tracks, so gaps age tracks the same way a real video would.
        Once no track is live an empty frame only counts towards
        ``min_hits``' grace period, so the rest of a gap is counted, not stepped.
        """
        last = self._last_frame
        if last is not None and frame <= last:
            raise ValidationError(f"frame {frame} does not follow the previous frame {last}")
        for det in detections:
            if det.frame != frame:
                raise ValidationError(f"detection on frame {det.frame} passed to step for frame {frame}")
        if last is not None:
            empty = last + 1  # the first skipped frame not yet stepped
            while empty < frame and self._live:
                self.step(empty, ())
                empty += 1
            self._frames_seen += frame - empty
        self._last_frame = frame
        params = self.params
        self._frames_seen += 1
        detections = [d for d in detections if d.confidence >= params.confidence_threshold]
        x, y, w, h = np.array([(d.box.x, d.box.y, d.box.w, d.box.h)
                               for d in detections], dtype=float).reshape(-1, 4).T
        z = np.column_stack((x + w / 2.0, y + h / 2.0, w * h, w / h))

        state = kf_predict(self._state, self._q)
        overlap = iou_corners(state_to_box(state[0]), np.column_stack((x, y, x + w, y + h)))
        matches = {ti: di for ti, di in hungarian(1.0 - overlap)  # live row -> detection index
                   if overlap[ti, di] >= params.iou_threshold}
        rows, cols = list(matches), list(matches.values())
        updated = kf_update(tuple(column[rows] for column in state), z[cols], self._r)
        for column, value in zip(state, updated):
            column[rows] = value

        keep: list[int] = []
        for ti, trk in enumerate(self._live):
            di = matches.get(ti)
            if di is None:
                trk.time_since_update += 1
                trk.hit_streak = 0
            else:
                trk.hit_streak += 1
                trk.time_since_update = 0
                if trk.hit_streak >= params.min_hits or self._frames_seen <= params.min_hits:
                    # Matched boxes are reported as observed; the filter only
                    # steers association.
                    trk.recorded.append(detections[di])
            if trk.time_since_update > params.max_age:
                self._finished.append(trk)
            else:
                keep.append(ti)

        self._live = [self._live[ti] for ti in keep]
        born = sorted(set(range(len(detections))) - set(cols))
        for di in born:
            trk = _LiveTrack(self._next_id)
            self._next_id += 1
            if self._frames_seen <= params.min_hits:
                trk.recorded.append(detections[di])
            self._live.append(trk)
        self._state = tuple(np.concatenate((column[keep], new)) for column, new in
                            zip(state, kf_initiate(z[born], self._p0)))

    def finish(self) -> list[Track]:
        tracks = []
        for trk in self._finished + self._live:
            if trk.recorded:
                tracks.append(Track(track_id=trk.track_id, detections=tuple(trk.recorded)))
        return sorted(tracks, key=lambda t: t.track_id)


def track(frames: Mapping[int, Sequence[Detection]], params: TrackerParams | None = None) -> list[Track]:
    """Run the tracker over per-frame detection lists; frame indices absent
    from the mapping are empty frames (see :meth:`SortTracker.step`)."""
    tracker = SortTracker(params)
    for f in sorted(frames):
        tracker.step(f, frames[f])
    return tracker.finish()
