"""Synthetic rink scenarios with ground truth, noise knobs, and oracle scorers.

The generator produces piecewise-linear player motion inside a world
that can be wider than the camera; a panning camera window hides
players and re-reveals them later, which is what creates the long
ground-truth gaps behind pan-identity-switch analysis. Every file the
pipeline consumes (detections, rosters, vocabulary, frame/team/window
scores) is emitted from the same bundle, so end-to-end runs are fully
ground-truthed and deterministic given (config, seed).
"""

from __future__ import annotations

import functools
import gc
import json
import math
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import core
from .core import (
    BoundingBox,
    ClassVocabulary,
    Detection,
    Track,
    ValidationError,
    check_distinct,
    check_int,
    check_unit,
    default_vocabulary,
    is_number,
    known_fields,
    save_detection_file,
    save_rosters,
)
from .ident import REFEREE_CLASS, Scorers, window_starts
from .tracker import box_corners, iou_corners, iou_pairs

# Salts separating the per-purpose random streams.
_MOTION, _NOISE, _VISIBILITY, _FRAME, _TEAM, _WINDOW, _ROSTER = range(7)
_TEAM_SLOT = {"home": 0, "away": 1, "referee": 2}

# The file name of each input a bundle writes, by its ``paths`` key.
BUNDLE_FILES = {
    "gt": "gt.csv",
    "detections": "det.csv",
    "rosters": "rosters.json",
    "vocab": "vocab.json",
    "frame_scores": "frame_scores.jsonl",
    "team_scores": "team_scores.jsonl",
    "window_scores": "window_scores.jsonl",
    "truth": "truth.json",
}


@dataclass(frozen=True)
class ConfusionSpec:
    """Per-window substitution: the scorer's top class becomes ``substitute``
    with probability ``prob``. ``strength`` 0 leaves the true class a close
    runner-up (argmax flips but the mean survives); 1 suppresses it (the
    mean flips too, so only a roster mask can recover the identity)."""

    substitute: int
    prob: float
    strength: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    players_per_team: int = 10
    num_referees: int = 2
    duration: int = 900
    fps: int = 30
    camera_width: float = 1280.0
    camera_height: float = 720.0
    pan_profile: tuple[tuple[int, float], ...] = ((0, 0.0),)
    layout: str = "free"  # "free" or non-overlapping horizontal "lanes"
    speed_range: tuple[float, float] = (1.0, 6.0)
    direction_change_rate: float = 0.02
    box_width: float = 30.0
    box_height: float = 60.0
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    jitter_sigma: float = 0.0
    confusion: Mapping[int, ConfusionSpec] = field(default_factory=dict)
    visibility_profile: float = 1.0
    null_tracklet_rate: float = 0.5
    team_noise: float = 0.0
    vocab_labels: tuple[int, ...] | None = None
    home_roster: tuple[int, ...] | None = None
    away_roster: tuple[int, ...] | None = None
    window: int = 30
    stride: int = 1

    def __post_init__(self) -> None:
        for name in ("fp_rate", "fn_rate", "visibility_profile", "null_tracklet_rate",
                     "team_noise", "direction_change_rate"):
            check_unit(name, getattr(self, name))
        least = {"players_per_team": 1, "num_referees": 0, "duration": 1,
                 "fps": 1, "window": 1, "stride": 1}
        for name, low in least.items():
            check_int(name, getattr(self, name), low)
        for name in ("camera_width", "camera_height", "box_width", "box_height"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
        for box, camera in (("box_width", "camera_width"), ("box_height", "camera_height")):
            if getattr(self, box) > getattr(self, camera):
                raise ValidationError(f"{box} {getattr(self, box)!r} exceeds "
                                      f"{camera} {getattr(self, camera)!r}")
        if len(self.speed_range) != 2 or not (
                all(is_number(v) and math.isfinite(v) for v in self.speed_range)
                and 0.0 <= self.speed_range[0] <= self.speed_range[1]):
            raise ValidationError(
                f"speed_range must be finite [low, high] with 0 <= low <= high, "
                f"got {self.speed_range!r}")
        if not (is_number(self.jitter_sigma) and math.isfinite(self.jitter_sigma)
                and self.jitter_sigma >= 0):
            raise ValidationError(
                f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma!r}")
        for frame, offset in self.pan_profile:
            if not frame >= 0:
                raise ValidationError(f"pan_profile frames must be >= 0, got {frame!r}")
            if not (math.isfinite(offset) and offset >= 0):
                raise ValidationError(
                    f"pan_profile offsets must be finite and >= 0, got {offset!r}")
        if self.layout not in ("free", "lanes"):
            raise ValidationError(f"unknown layout {self.layout!r}")
        for name in ("vocab_labels", "home_roster", "away_roster"):
            for number in getattr(self, name) or ():
                check_int(f"{name} entry", number, 0)
        for name in ("home_roster", "away_roster"):
            check_distinct(getattr(self, name) or (), f"{name}: ")
        for number, spec in self.confusion.items():
            check_int(f"confusion {number} substitute", spec.substitute, 0)
            check_unit(f"confusion {number} prob", spec.prob)
            check_unit(f"confusion {number} strength", spec.strength)
            if spec.substitute == number:
                raise ValidationError(f"confusion for {number} must substitute a different number")

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioConfig":
        kwargs = known_fields(cls, data)
        if "pan_profile" in kwargs:
            try:
                pairs = [(float(f), float(o)) for f, o in kwargs["pan_profile"]]
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"pan_profile must hold [frame, offset] pairs: {exc}") from None
            for f, _ in pairs:
                if not f.is_integer():
                    raise ValidationError(f"pan_profile frames must be integers, got {f!r}")
            kwargs["pan_profile"] = tuple((int(f), o) for f, o in pairs)
        if "confusion" in kwargs:
            if not isinstance(kwargs["confusion"], Mapping):
                raise ValidationError(f"confusion must be an object keyed by jersey number, "
                                      f"got {kwargs['confusion']!r}")
            confusion = {}
            for k, v in kwargs["confusion"].items():
                try:
                    number = int(str(k))
                except ValueError:
                    raise ValidationError(
                        f"confusion keys must be jersey numbers, got {k!r}") from None
                try:
                    confusion[number] = ConfusionSpec(**known_fields(ConfusionSpec, v))
                except (TypeError, ValidationError) as exc:
                    raise ValidationError(f"confusion {number}: {exc}") from None
            kwargs["confusion"] = confusion
        for name in ("speed_range", "vocab_labels", "home_roster", "away_roster"):
            if kwargs.get(name) is not None:
                if not isinstance(kwargs[name], (list, tuple)):
                    raise ValidationError(f"{name} must be a list, got {kwargs[name]!r}")
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        # JSON-native types only, so the dict survives a file round trip.
        return json.loads(json.dumps(asdict(self)))


@dataclass(frozen=True)
class TrackTruth:
    team: str  # "home" | "away" | "referee"
    jersey: int | None  # None for referees and never-visible tracklets
    null_tracklet: bool

    def expected_class(self, vocab: ClassVocabulary) -> int:
        """Expected identification output: the class index, or the referee sentinel."""
        if self.team == "referee":
            return REFEREE_CLASS
        return vocab.null_index if self.jersey is None else vocab.index_of(self.jersey)


@dataclass(frozen=True)
class PanGap:
    track_id: int
    prev_frame: int
    next_frame: int

    @property
    def gap(self) -> int:
        return self.next_frame - self.prev_frame


NO_OWNER = -1  # a detection's owner where no ground truth owns it; ids are >= 0
_OWNER_CHUNK = 256  # detections per step of GroundTruthIndex.owners


class GroundTruthIndex:
    """Ground-truth rows as one table sorted by frame, and the owner rule: a box's
    owner is the id of its frame's row with the best IoU, if that is at least
    ``min_iou``; of equal IoUs, the row given first (``gt.csv`` or ``gt_tracks`` order)."""

    def __init__(self, rows: Sequence[core.Row]):
        frames = np.fromiter((d.frame for _, d in rows), dtype=np.int64, count=len(rows))
        ids = np.fromiter((tid for tid, _ in rows), dtype=np.int64, count=len(rows))
        # One stable sort by frame keeps each frame's rows in the given order.
        order = np.argsort(frames, kind="stable")
        self.frames, self.ids = frames[order], ids[order]
        self.corners = box_corners([d.box for _, d in rows])[order]
        # Each tracklet's owners, keyed by value, so that equal tracklets (one
        # re-read from tracks.csv, say) share an entry; and the last one served.
        self._tracklets: dict[Track, list[int]] = {}
        self._last: tuple[Track | None, list[int]] = (None, [])

    def owner(self, frame: int, box: BoundingBox, min_iou: float = 0.2) -> int | None:
        """One box's owner, or None: the single-box reference for ``owners``."""
        lo, hi = self.frames.searchsorted(frame), self.frames.searchsorted(frame, "right")
        if lo == hi:
            return None
        overlap = iou_corners(box_corners([box]), self.corners[lo:hi])[0]
        best = int(np.argmax(overlap))
        return int(self.ids[lo + best]) if overlap[best] >= min_iou else None

    def owners(self, dets: Sequence[Detection], min_iou: float = 0.2) -> np.ndarray:
        """Every detection's owner (``NO_OWNER`` where none) in one pass over
        (detection, row of its frame) pairs; ``owner`` gives the same box by box."""
        owners = np.full(len(dets), NO_OWNER, dtype=np.int64)
        # Chunks keep the pair arrays near a megabyte whatever the input size: chunks of
        # 1024 detections raised staged identify's peak RSS by several MB.
        for start in range(0, len(dets), _OWNER_CHUNK):
            chunk = dets[start:start + _OWNER_CHUNK]
            frames = np.fromiter((d.frame for d in chunk), dtype=np.int64, count=len(chunk))
            lo = np.searchsorted(self.frames, frames, "left")
            size = np.searchsorted(self.frames, frames, "right") - lo
            query = np.repeat(np.arange(len(chunk)), size)  # each pair's detection
            head = np.cumsum(size) - size  # each detection's first pair
            row = np.arange(len(query)) + np.repeat(lo - head, size)  # each pair's row
            # np.take, not fancy indexing: the same rows in a tenth of the time.
            overlap = iou_pairs(np.take(box_corners([d.box for d in chunk]), query, axis=0),
                                np.take(self.corners, row, axis=0))
            # A segmented first argmax over the detections with rows on their frame:
            # each one's best IoU, then the first of its pairs that holds it.
            matched = np.flatnonzero(size)
            best = np.maximum.reduceat(overlap, head[matched])
            at_best = overlap == np.repeat(best, size[matched])
            first = np.minimum.reduceat(np.where(at_best, np.arange(len(overlap)), len(overlap)),
                                        head[matched])
            won = best >= min_iou
            owners[start + matched[won]] = self.ids[row[first[won]]]
        return owners

    def tracklet_owners(self, track: Track) -> list[int]:
        """``owners`` of a tracklet's detections, computed once per distinct tracklet."""
        last, owners = self._last
        if last is not track:  # scorers ask once per detection or window, in runs
            owners = self._tracklets.get(track)
            if owners is None:
                owners = self._tracklets[track] = self.owners(track.detections).tolist()
            self._last = (track, owners)
        return owners


def majority(owners: Iterable[int]) -> int | None:
    """The id owning the most entries, ties going to the smaller; None when no
    entry is owned (every one is ``NO_OWNER``)."""
    counts = Counter(owners)
    counts.pop(NO_OWNER, None)
    return min(counts, key=lambda o: (-counts[o], o), default=None)


def expected_classes(tracks: Sequence[Track], index: GroundTruthIndex,
                     classes: Mapping[int, int]) -> dict[int, int]:
    """Each tracklet's expected identification output: ``classes`` of the
    ground-truth id owning most of its detections. Tracklets that no ground
    truth owns are left out."""
    expected = {}
    for trk in tracks:
        gt_id = majority(index.tracklet_owners(trk))
        if gt_id is not None:
            expected[trk.track_id] = classes[gt_id]
    return expected


@dataclass
class GroundTruthBundle:
    config: ScenarioConfig
    seed: int
    vocab: ClassVocabulary
    home_roster: tuple[int, ...]
    away_roster: tuple[int, ...]
    gt_tracks: list[Track]
    truth: dict[int, TrackTruth]
    visible_frames: dict[int, frozenset[int]]
    pan_gaps: list[PanGap]
    detections: core.RawRows  # the raw detections as (-1, Detection) rows

    # -- ground-truth lookups -------------------------------------------------

    @functools.cached_property
    def gt_index(self) -> GroundTruthIndex:
        """``gt_tracks`` as a :class:`GroundTruthIndex` (rows in their order), built on first use."""
        return GroundTruthIndex([(trk.track_id, d) for trk in self.gt_tracks
                                 for d in trk.detections])

    def classes(self) -> dict[int, int]:
        """Each ground-truth id's expected class (see ``TrackTruth.expected_class``)."""
        return {tid: t.expected_class(self.vocab) for tid, t in self.truth.items()}

    def match_gt(self, frame: int, box: BoundingBox, min_iou: float = 0.2) -> int | None:
        """Ground-truth track owning a box at a frame, by best IoU."""
        return self.gt_index.owner(frame, box, min_iou)

    def expected_class(self, track: Track) -> int | None:
        """Expected identification output for a tracklet (class index or referee sentinel),
        from its majority ground-truth owner; None when no ground truth owns it."""
        return expected_classes([track], self.gt_index, self.classes()).get(track.track_id)

    # -- oracle scorers -------------------------------------------------------

    def _rng(self, salt: int, *keys: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt, *[k & 0x7FFFFFFF for k in keys]])

    # -- emission -------------------------------------------------------------

    def write(self, out_dir: str | Path) -> dict:
        """Write every pipeline input plus the truth sidecar; returns the manifest."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_detection_file(core.tracks_to_rows(self.gt_tracks), out / BUNDLE_FILES["gt"])
        save_detection_file(self.detections, out / BUNDLE_FILES["detections"])
        save_rosters(self.home_roster, self.away_roster, out / BUNDLE_FILES["rosters"])
        self.vocab.to_json(out / BUNDLE_FILES["vocab"])

        frame_scorer, window_scorer, team_scorer = oracle_scorers(self)
        with (out / BUNDLE_FILES["frame_scores"]).open("w") as frame_file, \
                (out / BUNDLE_FILES["team_scores"]).open("w") as team_file, \
                (out / BUNDLE_FILES["window_scores"]).open("w") as window_file:
            for trk in self.gt_tracks:
                for i, det in enumerate(trk.detections):
                    frame_file.write(json.dumps({
                        "track_id": trk.track_id, "frame": det.frame,
                        "probs": frame_scorer.score_frame(trk, i).tolist(),
                    }) + "\n")
                    team_file.write(json.dumps({
                        "track_id": trk.track_id, "frame": det.frame,
                        "team_probs": team_scorer.score_frame(trk, i).tolist(),
                    }) + "\n")
                for start in window_starts(len(trk), self.config.window, self.config.stride):
                    length = min(self.config.window, len(trk))
                    window_file.write(json.dumps({
                        "track_id": trk.track_id,
                        "window_start": trk.detections[start].frame,
                        "probs": window_scorer.score_window(trk, start, length).tolist(),
                    }) + "\n")

        truth_payload = {
            "tracks": {
                str(tid): {"team": t.team, "jersey": t.jersey, "null_tracklet": t.null_tracklet}
                for tid, t in sorted(self.truth.items())
            },
            "visible_frames": {str(tid): sorted(fs) for tid, fs in sorted(self.visible_frames.items())},
            "pan_gaps": [
                {"track_id": g.track_id, "prev_frame": g.prev_frame, "next_frame": g.next_frame}
                for g in self.pan_gaps
            ],
        }
        (out / BUNDLE_FILES["truth"]).write_text(json.dumps(truth_payload, indent=2, sort_keys=True) + "\n")

        manifest = {
            "seed": self.seed,
            "config": self.config.to_dict(),
            "files": {k: str(out / v) for k, v in BUNDLE_FILES.items()},
        }
        (out / "bundle.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return manifest


def _spread_remainder(probs: np.ndarray, exclude_null: bool) -> np.ndarray:
    """Distribute the unassigned mass over untouched classes and normalize."""
    rest = 1.0 - probs.sum()
    slots = probs == 0.0
    if exclude_null:
        slots[-1] = False
    if slots.any():
        probs[slots] += rest / slots.sum()
    else:  # degenerate vocabulary: pile the rest on the dominant class
        probs[int(np.argmax(probs))] += rest
    return probs / probs.sum()


class OracleFrameScorer:
    """Image-classifier stand-in: low null mass exactly on number-visible frames."""

    def __init__(self, bundle: GroundTruthBundle):
        self.bundle = bundle

    def score_frame(self, track: Track, index: int) -> np.ndarray:
        bundle = self.bundle
        det = track.detections[index]
        gt_id = bundle.gt_index.tracklet_owners(track)[index]
        probs = np.zeros(bundle.vocab.num_classes)
        if gt_id == NO_OWNER:
            probs[-1] = 0.9
            return _spread_remainder(probs, exclude_null=True)
        rng = bundle._rng(_FRAME, gt_id, det.frame)
        # Each uniform(a, b) is spelled a + (b - a) * random(): the same value.
        if det.frame in bundle.visible_frames.get(gt_id, ()):
            # Mostly below the default gate (0.01) but occasionally above
            # it, so threshold sweeps see false negatives at tiny values.
            null_mass = 0.003 + (0.012 - 0.003) * rng.random()
            probs[-1] = null_mass
            probs[bundle.vocab.index_of(bundle.truth[gt_id].jersey)] = (1.0 - null_mass) * 0.85
        else:
            probs[-1] = 0.05 + (0.99 - 0.05) * rng.random()
        return _spread_remainder(probs, exclude_null=True)


class OracleTeamScorer:
    """Per-frame team distribution; wrong with probability ``team_noise``."""

    def __init__(self, bundle: GroundTruthBundle):
        self.bundle = bundle

    def score_frame(self, track: Track, index: int) -> np.ndarray:
        bundle = self.bundle
        det = track.detections[index]
        gt_id = bundle.gt_index.tracklet_owners(track)[index]
        chosen = 0 if gt_id == NO_OWNER else _TEAM_SLOT[bundle.truth[gt_id].team]
        noise = bundle.config.team_noise
        if noise > 0:
            rng = bundle._rng(_TEAM, gt_id, det.frame)
            if rng.random() < noise:
                chosen = int(rng.choice([c for c in range(3) if c != chosen]))
        probs = np.full(3, 0.05)
        probs[chosen] = 0.9
        return probs


class OracleWindowScorer:
    """Tracklet-window distribution driven by visibility and confusion knobs.

    The window's owner is the ground-truth track owning the most of its
    detections (ties to the smaller id). Windows without an owner, or
    with no number-visible frame, concentrate on null. Otherwise the true
    class receives mass that grows with the window's visible fraction,
    except when the configured confusion triggers for that window, in
    which case the substitute class takes the top slot.
    """

    def __init__(self, bundle: GroundTruthBundle):
        self.bundle = bundle

    def score_window(self, track: Track, start: int, length: int) -> np.ndarray:
        bundle = self.bundle
        vocab = bundle.vocab
        dets = track.detections[start:start + length]
        owners = bundle.gt_index.tracklet_owners(track)[start:start + length]
        gt_id = majority(owners)
        probs = np.zeros(vocab.num_classes)
        if gt_id is None:
            probs[-1] = 0.9
            return _spread_remainder(probs, exclude_null=True)
        truth = bundle.truth[gt_id]
        # Each detection counts when its number shows for its own owner.
        visible = bundle.visible_frames
        vis_frac = sum(d.frame in visible.get(o, ()) for d, o in zip(dets, owners)) / len(dets)

        if truth.team == "referee" or truth.jersey is None or vis_frac == 0.0:
            probs[-1] = 0.85
            return _spread_remainder(probs, exclude_null=True)

        true_class = vocab.index_of(truth.jersey)
        spec = bundle.config.confusion.get(truth.jersey)
        first_frame = dets[0].frame
        if spec is not None and bundle._rng(_WINDOW, gt_id, first_frame).random() < spec.prob:
            probs[vocab.index_of(spec.substitute)] = 0.45 + 0.20 * spec.strength
            probs[true_class] = 0.40 - 0.30 * spec.strength
        else:
            probs[true_class] = 0.55 + 0.25 * vis_frac
        headroom = 1.0 - probs.sum()
        probs[-1] = min(0.30 * (1.0 - vis_frac), 0.8 * headroom)
        return _spread_remainder(probs, exclude_null=False)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _pan_offset(pts: Sequence[tuple[int, float]], frame: int) -> float:
    """Linear interpolation between (frame, offset) breakpoints sorted by frame."""
    if not pts:
        return 0.0
    if frame <= pts[0][0]:
        return pts[0][1]
    for (f0, o0), (f1, o1) in zip(pts, pts[1:]):
        if frame <= f1:
            if f1 == f0:
                return o1
            t = (frame - f0) / (f1 - f0)
            return o0 + t * (o1 - o0)
    return pts[-1][1]


def _simulate_paths(config: ScenarioConfig, rng: np.random.Generator, count: int,
                    world_w: float, world_h: float) -> np.ndarray:
    """Box-center trajectories, shape (count, duration, 2), bounced at walls.

    Positions and velocities are Python floats; each step is the same
    IEEE arithmetic a 2-element array would do, on the same draws. Each
    ``uniform(a, b)`` is spelled ``a + (b - a) * random()`` on float bounds,
    numpy's own arithmetic for it on the same draw, without its
    broadcasting path.

    Every free-layout draw is a ``random()``, so they are filled in blocks:
    an object's four start draws and one per frame when it starts, two
    more at each direction change. A block never holds a draw that might
    not come, so the values, their order and the generator's final state
    are those of scalar calls. Lanes draw through ``rng.choice``, whose
    integer path a block of doubles cannot replay, so they keep scalar calls.
    """
    half_w, half_h = config.box_width / 2.0, config.box_height / 2.0
    lo_x, lo_y = half_w, half_h
    hi_x, hi_y = world_w - half_w, world_h - half_h
    lanes = config.layout == "lanes"
    speed_lo = float(config.speed_range[0])
    speed_span = float(config.speed_range[1]) - speed_lo
    turn = 2.0 * np.pi
    change_rate = config.direction_change_rate
    duration = config.duration
    random = rng.random
    paths = np.zeros((count, duration, 2))
    if lanes:
        pitch = (world_h - config.box_height) / max(count - 1, 1)
        if count > 1 and pitch < config.box_height + 2.0:
            raise ValidationError(
                f"lanes layout cannot separate {count} objects of height "
                f"{config.box_height} within world height {world_h}"
            )
    for i in range(count):
        if lanes:
            y = half_h + i * pitch if count > 1 else world_h / 2.0
            px, py = lo_x + (hi_x - lo_x) * random(), y
            vx, vy = float(rng.choice([-1.0, 1.0]) * (speed_lo + speed_span * random())), 0.0
        else:
            draws = random(4 + duration).tolist()
            px = lo_x + (hi_x - lo_x) * draws[0]
            py = lo_y + (hi_y - lo_y) * draws[1]
            speed = speed_lo + speed_span * draws[2]
            angle = 0.0 + turn * draws[3]
            vx, vy = float(speed * np.cos(angle)), float(speed * np.sin(angle))
            k = 4  # the next unread draw
        xs, ys = [], []
        for _ in range(duration):
            xs.append(px)
            ys.append(py)
            if lanes:
                if random() < change_rate:
                    speed = speed_lo + speed_span * random()
                    vx, vy = float(rng.choice([-1.0, 1.0]) * speed), 0.0
            elif draws[k] < change_rate:
                draws += random(2).tolist()  # this change's speed and angle
                speed = speed_lo + speed_span * draws[k + 1]
                angle = 0.0 + turn * draws[k + 2]
                vx, vy = float(speed * np.cos(angle)), float(speed * np.sin(angle))
                k += 3
            else:
                k += 1
            # Bounce off a wall; only a step longer than the world can land
            # beyond the opposite wall, and there the position is clipped.
            px += vx
            py += vy
            if px < lo_x:
                px, vx = 2 * lo_x - px, -vx
                if px > hi_x:
                    px = hi_x
            elif px > hi_x:
                px, vx = 2 * hi_x - px, -vx
                if px < lo_x:
                    px = lo_x
            if py < lo_y:
                py, vy = 2 * lo_y - py, -vy
                if py > hi_y:
                    py = hi_y
            elif py > hi_y:
                py, vy = 2 * hi_y - py, -vy
                if py < lo_y:
                    py = lo_y
        paths[i, :, 0] = xs
        paths[i, :, 1] = ys
    return paths


def _pick_rosters(config: ScenarioConfig, vocab: ClassVocabulary,
                  rng: np.random.Generator) -> tuple[tuple[int, ...], tuple[int, ...]]:
    def pick(given: tuple[int, ...] | None) -> tuple[int, ...]:
        if given is not None:
            return tuple(int(v) for v in given)
        size = min(config.players_per_team + 3, len(vocab.labels))
        return tuple(int(v) for v in rng.choice(vocab.labels, size=size, replace=False))

    return pick(config.home_roster), pick(config.away_roster)


def generate(config: ScenarioConfig, seed: int) -> GroundTruthBundle:
    """Build a fully ground-truthed scenario; deterministic given (config, seed)."""
    check_int("seed", seed, 0)
    # A scene is up to ~200k objects (boxes and detections) that form no
    # cycles. Pausing the cyclic collector spares it re-walking them while
    # they are built; reference counting still frees every temporary.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_scene(config, seed)
    finally:
        if enabled:
            gc.enable()


def _build_scene(config: ScenarioConfig, seed: int) -> GroundTruthBundle:
    vocab = ClassVocabulary(labels=config.vocab_labels) if config.vocab_labels else default_vocabulary()
    outside = sorted(
        {k for k in config.confusion if k not in vocab.labels}
        | {s.substitute for s in config.confusion.values() if s.substitute not in vocab.labels}
    )
    if outside:
        raise ValidationError(f"confusion numbers not in vocabulary: {outside}")
    roster_rng = np.random.default_rng([seed, _ROSTER])
    home_roster, away_roster = _pick_rosters(config, vocab, roster_rng)
    for name, roster in (("home", home_roster), ("away", away_roster)):
        if len(roster) < config.players_per_team:
            raise ValidationError(
                f"{name} roster has {len(roster)} numbers for {config.players_per_team} players"
            )
        missing = sorted(set(roster) - set(vocab.labels))
        if missing:
            raise ValidationError(f"{name} roster numbers not in vocabulary: {missing}")

    count = 2 * config.players_per_team + config.num_referees
    teams = (["home"] * config.players_per_team
             + ["away"] * config.players_per_team
             + ["referee"] * config.num_referees)
    jerseys: list[int | None] = list(
        int(v) for v in roster_rng.choice(home_roster, size=config.players_per_team, replace=False)
    )
    jerseys += [
        int(v) for v in roster_rng.choice(away_roster, size=config.players_per_team, replace=False)
    ]
    jerseys += [None] * config.num_referees

    max_offset = max((o for _, o in config.pan_profile), default=0.0)
    world_w = config.camera_width + max_offset
    motion_rng = np.random.default_rng([seed, _MOTION])
    paths = _simulate_paths(config, motion_rng, count, world_w, config.camera_height)

    vis_rng = np.random.default_rng([seed, _VISIBILITY])
    null_flags = [
        teams[i] != "referee" and bool(vis_rng.random() < config.null_tracklet_rate)
        for i in range(count)
    ]

    gt_tracks: list[Track] = []
    truth: dict[int, TrackTruth] = {}
    visible_frames: dict[int, frozenset[int]] = {}
    pan_gaps: list[PanGap] = []
    half_w, half_h = config.box_width / 2.0, config.box_height / 2.0
    box_w, box_h = config.box_width, config.box_height
    profile = sorted(config.pan_profile)
    offsets = np.array([_pan_offset(profile, t) for t in range(config.duration)], dtype=float)
    view_end = offsets + config.camera_width
    # One int object per frame, shared by every box and visibility set.
    frame_ints = list(range(config.duration))
    # Frame, x and y of every ground-truth row, one column per field, in
    # gt_tracks order; ``rows`` of them are filled.
    frame_col = np.empty(count * config.duration, dtype=np.intp)
    x_col = np.empty(count * config.duration)
    y_col = np.empty(count * config.duration)
    rows = 0

    for i in range(count):
        tid = i + 1
        cx, cy = paths[i, :, 0], paths[i, :, 1]
        in_view = np.flatnonzero((offsets <= cx) & (cx < view_end))
        if len(in_view) == 0:
            continue  # never entered the camera view
        jumps = np.flatnonzero(np.diff(in_view) > 1)
        pan_gaps += [PanGap(track_id=tid, prev_frame=prev, next_frame=nxt)
                     for prev, nxt in zip(in_view[jumps].tolist(), in_view[jumps + 1].tolist())]
        frames = [frame_ints[t] for t in in_view.tolist()]
        end = rows + len(in_view)
        frame_col[rows:end] = in_view
        x_col[rows:end] = cx[in_view] - offsets[in_view] - half_w
        y_col[rows:end] = cy[in_view] - half_h
        # Iterating the arrays keeps x and y np.float64, as the box CSVs and
        # tracker outputs have always seen them. No view outlives the
        # statement, so deleting the columns below frees them.
        dets = tuple(map(Detection, frames, map(BoundingBox, x_col[rows:end], y_col[rows:end],
                                                repeat(box_w), repeat(box_h)), repeat(1.0)))
        rows = end
        number_frames: list[int] = []
        if teams[i] != "referee" and not null_flags[i]:
            # One draw per in-view frame, in frame order.
            seen = vis_rng.random(len(in_view)) < config.visibility_profile
            number_frames = list(compress(frames, seen.tolist()))
        gt_tracks.append(Track(track_id=tid, detections=dets))
        truth[tid] = TrackTruth(
            team=teams[i],
            jersey=None if (teams[i] == "referee" or null_flags[i]) else jerseys[i],
            null_tracklet=null_flags[i],
        )
        visible_frames[tid] = frozenset(number_frames)

    # noise_rng interleaves random(), ziggurat normal() and uniform(), so
    # its draws stay one detection at a time, in frame order. They are all
    # drawn first into flat buffers; the boxes are built in a second pass.
    # normal(0.0, s) is spelled 0.0 + s * standard_normal() and uniform(a, b)
    # a + (b - a) * random(): numpy's own arithmetic on the same draws.
    noise_rng = np.random.default_rng([seed, _NOISE])
    random, standard_normal = noise_rng.random, noise_rng.standard_normal
    fn_rate, fp_rate, sigma = config.fn_rate, config.fp_rate, config.jitter_sigma
    fp_x_max = config.camera_width - config.box_width
    fp_y_max = config.camera_height - config.box_height
    # A stable sort by frame puts each frame's rows in gt_tracks order.
    frame_col = frame_col[:rows]
    order = np.argsort(frame_col, kind="stable")
    frame_values, frame_sizes = np.unique(frame_col, return_counts=True)
    kept = bytearray()  # per ground-truth row, in frame order
    jitter = array("d")  # dx, dy, confidence per kept row when sigma > 0
    has_fp = bytearray()  # per frame
    false_pos = array("d")  # x, y, confidence per false positive
    for size in frame_sizes.tolist():
        for _ in range(size):
            keep = not (fn_rate > 0 and random() < fn_rate)
            kept.append(keep)
            if keep and sigma > 0:
                jitter.extend((0.0 + sigma * standard_normal(), 0.0 + sigma * standard_normal(),
                               0.6 + (1.0 - 0.6) * random()))
        fp = fp_rate > 0 and random() < fp_rate
        has_fp.append(fp)
        if fp:
            false_pos.extend((0.0 + fp_x_max * random(), 0.0 + fp_y_max * random(),
                              0.5 + (0.9 - 0.5) * random()))

    # The kept rows' detections, in frame order, from the columns.
    kept_rows = order[np.frombuffer(kept, dtype=bool)]
    frame_order = [frame_ints[t] for t in frame_values.tolist()]
    kept_sizes = np.bincount(frame_col[kept_rows], minlength=config.duration)[frame_values].tolist()
    if sigma > 0:
        # Each dx, dy in the jitter buffer becomes x + dx, y + dy in place:
        # the IEEE add of np.float64 + float, read back as np.float64.
        # Confidences are read from the buffer itself, as floats.
        shifted = np.frombuffer(jitter).reshape(-1, 3)
        np.add(x_col[kept_rows], shifted[:, 0], out=shifted[:, 0])
        np.add(y_col[kept_rows], shifted[:, 1], out=shifted[:, 1])
        boxes = map(BoundingBox, shifted[:, 0], shifted[:, 1], repeat(box_w), repeat(box_h))
        kept_frames = chain.from_iterable(map(repeat, frame_order, kept_sizes))
        kept_dets = map(Detection, kept_frames, boxes, islice(jitter, 2, None, 3))
    else:  # unjittered detections are the ground-truth objects themselves
        gt_rows = [d for trk in gt_tracks for d in trk.detections]
        kept_dets = map(gt_rows.__getitem__, kept_rows.tolist())
    # The columns go before the detections are built, at the scene's memory peak.
    del frame_col, x_col, y_col, order, kept_rows

    detections: list[Detection] = []
    f = 0
    for t, size, fp in zip(frame_order, kept_sizes, has_fp):
        detections += islice(kept_dets, size)
        if fp:
            detections.append(Detection(t, BoundingBox(false_pos[f], false_pos[f + 1],
                                                       box_w, box_h), false_pos[f + 2]))
            f += 3

    return GroundTruthBundle(
        config=config,
        seed=seed,
        vocab=vocab,
        home_roster=home_roster,
        away_roster=away_roster,
        gt_tracks=gt_tracks,
        truth=truth,
        visible_frames=visible_frames,
        pan_gaps=pan_gaps,
        detections=core.RawRows(detections),
    )


def oracle_scorers(bundle: GroundTruthBundle) -> Scorers:
    """Scorers consistent with the bundle's visibility and confusion model."""
    return Scorers(frame=OracleFrameScorer(bundle), window=OracleWindowScorer(bundle),
                   team=OracleTeamScorer(bundle))
