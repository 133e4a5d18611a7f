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
        # Keeps the innovation covariance H P H^T + R positive definite after every predict.
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

_F = np.eye(7)
_F[0, 4] = _F[1, 5] = _F[2, 6] = 1.0
_H = np.zeros((4, 7))
_H[0, 0] = _H[1, 1] = _H[2, 2] = _H[3, 3] = 1.0
_I = np.eye(7)


def box_to_measurement(box: BoundingBox) -> np.ndarray:
    cx, cy = box.center
    return np.array([cx, cy, box.area, box.w / box.h])


def state_to_box(mean: np.ndarray) -> BoundingBox:
    cx, cy, s, r = mean[:4]
    s = max(float(s), 1.0)
    r = max(float(r), 1e-6)
    w = (s * r) ** 0.5
    h = s / w
    return BoundingBox(x=cx - w / 2.0, y=cy - h / 2.0, w=w, h=h)


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.T) / 2.0


def kf_initiate(box: BoundingBox, p0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = np.zeros(7)
    mean[:4] = box_to_measurement(box)
    return mean, p0


def kf_predict(mean: np.ndarray, cov: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance one frame under constant velocity and grow the covariance by ``q``."""
    mean = _F @ mean
    mean[2] = max(mean[2], 1.0)  # area kept positive so the box stays valid
    return mean, _symmetrize(_F @ cov @ _F.T + q)


def kf_update(mean: np.ndarray, cov: np.ndarray, box: BoundingBox,
              r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = box_to_measurement(box)
    s = _H @ cov @ _H.T + r
    gain = np.linalg.solve(s.T, (_H @ cov.T)).T
    innovation = z - _H @ mean
    mean = mean + gain @ innovation
    mean[2] = max(mean[2], 1.0)
    return mean, _symmetrize((_I - gain @ _H) @ cov)


# ---------------------------------------------------------------------------
# Track lifecycle
# ---------------------------------------------------------------------------


@dataclass
class _LiveTrack:
    track_id: int
    mean: np.ndarray
    cov: np.ndarray
    hit_streak: int = 1
    time_since_update: int = 0
    recorded: list[Detection] = field(default_factory=list)


class SortTracker:
    """Stateful per-video tracker; feed frames in increasing order."""

    def __init__(self, params: TrackerParams | None = None):
        params = self.params = params or TrackerParams()
        # Built once; no filter call writes a covariance in place, so new tracks share _p0.
        self._p0, self._q, self._r = (np.diag(np.array(d, dtype=float)) for d in (
            params.initial_covariance, params.process_noise, params.measurement_noise))
        self._p0.flags.writeable = False
        self._live: list[_LiveTrack] = []
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

        for trk in self._live:
            trk.mean, trk.cov = kf_predict(trk.mean, trk.cov, self._q)

        matches: list[tuple[int, int]] = []
        unmatched_dets = set(range(len(detections)))
        if self._live and detections:
            predicted = [state_to_box(trk.mean) for trk in self._live]
            overlap = iou_matrix(predicted, [d.box for d in detections])
            for ti, di in hungarian(1.0 - overlap):
                if overlap[ti, di] >= params.iou_threshold:
                    matches.append((ti, di))
                    unmatched_dets.discard(di)
        matched_tracks = {ti for ti, _ in matches}

        for ti, di in matches:
            trk = self._live[ti]
            det = detections[di]
            trk.mean, trk.cov = kf_update(trk.mean, trk.cov, det.box, self._r)
            trk.hit_streak += 1
            trk.time_since_update = 0
            if trk.hit_streak >= params.min_hits or self._frames_seen <= params.min_hits:
                # Matched boxes are reported as observed; the filter only
                # steers association.
                trk.recorded.append(det)

        survivors: list[_LiveTrack] = []
        for ti, trk in enumerate(self._live):
            if ti not in matched_tracks:
                trk.time_since_update += 1
                trk.hit_streak = 0
            if trk.time_since_update > params.max_age:
                self._finished.append(trk)
            else:
                survivors.append(trk)
        self._live = survivors

        for di in sorted(unmatched_dets):
            det = detections[di]
            trk = _LiveTrack(self._next_id, *kf_initiate(det.box, self._p0))
            self._next_id += 1
            if self._frames_seen <= params.min_hits:
                trk.recorded.append(det)
            self._live.append(trk)

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
