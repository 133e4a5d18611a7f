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

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    BoundingBox,
    ClassVocabulary,
    Detection,
    Track,
    ValidationError,
    default_vocabulary,
    save_detection_file,
    save_rosters,
)
from .ident import REFEREE_CLASS, window_starts

# Salts separating the per-purpose random streams.
_MOTION, _NOISE, _VISIBILITY, _FRAME, _TEAM, _WINDOW, _ROSTER = range(7)


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
        rates = {
            "fp_rate": self.fp_rate,
            "fn_rate": self.fn_rate,
            "visibility_profile": self.visibility_profile,
            "null_tracklet_rate": self.null_tracklet_rate,
            "team_noise": self.team_noise,
            "direction_change_rate": self.direction_change_rate,
        }
        bad = {k: v for k, v in rates.items() if not 0.0 <= v <= 1.0}
        if bad:
            raise ValidationError(f"rates must lie in [0, 1]: {bad}")
        if self.duration < 1:
            raise ValidationError("duration must be >= 1 frame")
        if self.layout not in ("free", "lanes"):
            raise ValidationError(f"unknown layout {self.layout!r}")
        for number, spec in self.confusion.items():
            if not 0.0 <= spec.prob <= 1.0 or not 0.0 <= spec.strength <= 1.0:
                raise ValidationError(f"confusion prob/strength must lie in [0, 1]: {spec}")
            if spec.substitute == number:
                raise ValidationError(f"confusion for {number} must substitute a different number")

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioConfig":
        kwargs = dict(data)
        if "pan_profile" in kwargs:
            kwargs["pan_profile"] = tuple((int(f), float(o)) for f, o in kwargs["pan_profile"])
        if "confusion" in kwargs:
            kwargs["confusion"] = {
                int(k): ConfusionSpec(**v) if isinstance(v, Mapping) else ConfusionSpec(*v)
                for k, v in kwargs["confusion"].items()
            }
        for name in ("speed_range", "vocab_labels", "home_roster", "away_roster"):
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(kwargs[name])
        unknown = set(kwargs) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        # JSON-native types only, so the dict survives a file round trip.
        return json.loads(json.dumps(asdict(self)))


@dataclass(frozen=True)
class TrackTruth:
    team: str  # "home" | "away" | "referee"
    jersey: int | None  # None for referees and never-visible tracklets
    null_tracklet: bool


@dataclass(frozen=True)
class PanGap:
    track_id: int
    prev_frame: int
    next_frame: int

    @property
    def gap(self) -> int:
        return self.next_frame - self.prev_frame


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
    detections: list[tuple[int, Detection]]

    def __post_init__(self) -> None:
        by_frame: dict[int, list[tuple[int, BoundingBox]]] = {}
        for trk in self.gt_tracks:
            for det in trk.detections:
                by_frame.setdefault(det.frame, []).append((trk.track_id, det.box))
        # Per-frame id/corner arrays so ownership lookups stay vectorized,
        # plus a memo since every tracklet frame is queried once per window.
        self._gt_by_frame: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for frame, items in by_frame.items():
            ids = np.array([tid for tid, _ in items], dtype=int)
            corners = np.array([[b.x, b.y, b.x2, b.y2] for _, b in items])
            self._gt_by_frame[frame] = (ids, corners)
        self._match_cache: dict[tuple, int | None] = {}

    # -- ground-truth lookups -------------------------------------------------

    def match_gt(self, frame: int, box: BoundingBox, min_iou: float = 0.2) -> int | None:
        """Ground-truth track owning a box at a frame, by best IoU."""
        key = (frame, box.x, box.y, box.w, box.h, min_iou)
        if key in self._match_cache:
            return self._match_cache[key]
        result: int | None = None
        entry = self._gt_by_frame.get(frame)
        if entry is not None:
            ids, corners = entry
            ix = np.minimum(box.x2, corners[:, 2]) - np.maximum(box.x, corners[:, 0])
            iy = np.minimum(box.y2, corners[:, 3]) - np.maximum(box.y, corners[:, 1])
            inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
            areas = (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])
            overlap = inter / (box.area + areas - inter)
            best = int(np.argmax(overlap))
            if overlap[best] >= min_iou:
                result = int(ids[best])
        self._match_cache[key] = result
        return result

    def track_truth(self, track: Track) -> TrackTruth | None:
        """Majority ground-truth identity over a (possibly tracker-made) tracklet."""
        votes: dict[int, int] = {}
        for det in track.detections:
            tid = self.match_gt(det.frame, det.box)
            if tid is not None:
                votes[tid] = votes.get(tid, 0) + 1
        if not votes:
            return None
        winner = max(sorted(votes), key=lambda t: votes[t])
        return self.truth[winner]

    def expected_class(self, track: Track) -> int | None:
        """Expected identification output for a tracklet (class index or referee sentinel)."""
        truth = self.track_truth(track)
        if truth is None:
            return None
        if truth.team == "referee":
            return REFEREE_CLASS
        if truth.jersey is None:
            return self.vocab.null_index
        return self.vocab.index_of(truth.jersey)

    # -- oracle scorers -------------------------------------------------------

    def _rng(self, salt: int, *keys: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt, *[k & 0x7FFFFFFF for k in keys]])

    def _frame_visible(self, gt_id: int, frame: int) -> bool:
        return frame in self.visible_frames.get(gt_id, frozenset())

    def frame_scorer(self) -> "OracleFrameScorer":
        return OracleFrameScorer(self)

    def team_scorer(self) -> "OracleTeamScorer":
        return OracleTeamScorer(self)

    def window_scorer(self) -> "OracleWindowScorer":
        return OracleWindowScorer(self)

    # -- emission -------------------------------------------------------------

    def write(self, out_dir: str | Path) -> dict:
        """Write every pipeline input plus the truth sidecar; returns the manifest."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = {
            "gt": "gt.csv",
            "detections": "det.csv",
            "rosters": "rosters.json",
            "vocab": "vocab.json",
            "frame_scores": "frame_scores.jsonl",
            "team_scores": "team_scores.jsonl",
            "window_scores": "window_scores.jsonl",
            "truth": "truth.json",
        }
        gt_rows = [(trk.track_id, det) for trk in self.gt_tracks for det in trk.detections]
        gt_rows.sort(key=lambda r: (r[1].frame, r[0]))
        save_detection_file(gt_rows, out / files["gt"])
        save_detection_file(self.detections, out / files["detections"])
        save_rosters(self.home_roster, self.away_roster, out / files["rosters"])
        self.vocab.to_json(out / files["vocab"])

        frame_scorer = self.frame_scorer()
        team_scorer = self.team_scorer()
        window_scorer = self.window_scorer()
        with (out / files["frame_scores"]).open("w") as frame_file, \
                (out / files["team_scores"]).open("w") as team_file, \
                (out / files["window_scores"]).open("w") as window_file:
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
        (out / files["truth"]).write_text(json.dumps(truth_payload, indent=2, sort_keys=True) + "\n")

        manifest = {
            "seed": self.seed,
            "config": self.config.to_dict(),
            "files": {k: str(out / v) for k, v in files.items()},
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
        det = track.detections[index]
        gt_id = self.bundle.match_gt(det.frame, det.box)
        n = self.bundle.vocab.num_classes
        rng = self.bundle._rng(_FRAME, gt_id if gt_id is not None else -1, det.frame)
        probs = np.zeros(n)
        if gt_id is None:
            probs[-1] = 0.9
        elif self.bundle._frame_visible(gt_id, det.frame):
            # Mostly below the default gate (0.01) but occasionally above
            # it, so threshold sweeps see false negatives at tiny values.
            truth = self.bundle.truth[gt_id]
            null_mass = rng.uniform(0.003, 0.012)
            probs[-1] = null_mass
            probs[self.bundle.vocab.index_of(truth.jersey)] = (1.0 - null_mass) * 0.85
        else:
            probs[-1] = rng.uniform(0.05, 0.99)
        return _spread_remainder(probs, exclude_null=True)


class OracleTeamScorer:
    """Per-frame team distribution; wrong with probability ``team_noise``."""

    def __init__(self, bundle: GroundTruthBundle):
        self.bundle = bundle

    def score_frame(self, track: Track, index: int) -> np.ndarray:
        det = track.detections[index]
        gt_id = self.bundle.match_gt(det.frame, det.box)
        rng = self.bundle._rng(_TEAM, gt_id if gt_id is not None else -1, det.frame)
        slot = {"home": 0, "away": 1, "referee": 2}
        chosen = 0 if gt_id is None else slot[self.bundle.truth[gt_id].team]
        if self.bundle.config.team_noise > 0 and rng.random() < self.bundle.config.team_noise:
            chosen = int(rng.choice([c for c in range(3) if c != chosen]))
        probs = np.full(3, 0.05)
        probs[chosen] = 0.9
        return probs


class OracleWindowScorer:
    """Tracklet-window distribution driven by visibility and confusion knobs.

    Windows with no number-visible frame concentrate on null. Otherwise
    the true class receives mass that grows with the window's visible
    fraction, except when the configured confusion triggers for that
    window, in which case the substitute class takes the top slot.
    """

    def __init__(self, bundle: GroundTruthBundle):
        self.bundle = bundle

    def score_window(self, track: Track, start: int, length: int) -> np.ndarray:
        bundle = self.bundle
        vocab = bundle.vocab
        n = vocab.num_classes
        dets = track.detections[start:start + length]

        owners: dict[int, int] = {}
        visible = 0
        for det in dets:
            gt_id = bundle.match_gt(det.frame, det.box)
            if gt_id is None:
                continue
            owners[gt_id] = owners.get(gt_id, 0) + 1
            if bundle._frame_visible(gt_id, det.frame):
                visible += 1
        probs = np.zeros(n)
        if not owners:
            probs[-1] = 0.9
            return _spread_remainder(probs, exclude_null=True)
        gt_id = max(sorted(owners), key=lambda t: owners[t])
        truth = bundle.truth[gt_id]
        vis_frac = visible / len(dets)

        if truth.team == "referee" or truth.jersey is None or vis_frac == 0.0:
            probs[-1] = 0.85
            return _spread_remainder(probs, exclude_null=True)

        true_class = vocab.index_of(truth.jersey)
        spec = bundle.config.confusion.get(truth.jersey)
        rng = bundle._rng(_WINDOW, gt_id, dets[0].frame)
        triggered = spec is not None and rng.random() < spec.prob
        if triggered:
            sub_mass = 0.45 + 0.20 * spec.strength
            true_mass = 0.40 - 0.30 * spec.strength
            probs[vocab.index_of(spec.substitute)] = sub_mass
            probs[true_class] = true_mass
        else:
            probs[true_class] = 0.55 + 0.25 * vis_frac
        headroom = 1.0 - probs.sum()
        probs[-1] = min(0.30 * (1.0 - vis_frac), 0.8 * headroom)
        return _spread_remainder(probs, exclude_null=False)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _pan_offset(profile: Sequence[tuple[int, float]], frame: int) -> float:
    """Linear interpolation between (frame, offset) breakpoints."""
    if not profile:
        return 0.0
    pts = sorted(profile)
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
    """Box-center trajectories, shape (count, duration, 2), bounced at walls."""
    half_w, half_h = config.box_width / 2.0, config.box_height / 2.0
    lo = np.array([half_w, half_h])
    hi = np.array([world_w - half_w, world_h - half_h])
    paths = np.zeros((count, config.duration, 2))
    if config.layout == "lanes":
        pitch = (world_h - config.box_height) / max(count - 1, 1)
        if count > 1 and pitch < config.box_height + 2.0:
            raise ValidationError(
                f"lanes layout cannot separate {count} objects of height "
                f"{config.box_height} within world height {world_h}"
            )
    for i in range(count):
        if config.layout == "lanes":
            y = half_h + i * pitch if count > 1 else world_h / 2.0
            pos = np.array([rng.uniform(lo[0], hi[0]), y])
            vel = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(*config.speed_range), 0.0])
        else:
            pos = rng.uniform(lo, hi)
            speed = rng.uniform(*config.speed_range)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            vel = speed * np.array([np.cos(angle), np.sin(angle)])
        for t in range(config.duration):
            paths[i, t] = pos
            if rng.random() < config.direction_change_rate:
                speed = rng.uniform(*config.speed_range)
                if config.layout == "lanes":
                    vel = np.array([rng.choice([-1.0, 1.0]) * speed, 0.0])
                else:
                    angle = rng.uniform(0.0, 2.0 * np.pi)
                    vel = speed * np.array([np.cos(angle), np.sin(angle)])
            pos = pos + vel
            for axis in range(2):
                if pos[axis] < lo[axis]:
                    pos[axis] = 2 * lo[axis] - pos[axis]
                    vel[axis] = -vel[axis]
                elif pos[axis] > hi[axis]:
                    pos[axis] = 2 * hi[axis] - pos[axis]
                    vel[axis] = -vel[axis]
            pos = np.clip(pos, lo, hi)
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

    for i in range(count):
        tid = i + 1
        dets: list[Detection] = []
        last_frame: int | None = None
        number_frames: set[int] = set()
        for t in range(config.duration):
            offset = _pan_offset(config.pan_profile, t)
            cx, cy = paths[i, t]
            if not (offset <= cx < offset + config.camera_width):
                continue
            if last_frame is not None and t - last_frame > 1:
                pan_gaps.append(PanGap(track_id=tid, prev_frame=last_frame, next_frame=t))
            last_frame = t
            box = BoundingBox(x=cx - offset - half_w, y=cy - half_h,
                              w=config.box_width, h=config.box_height)
            dets.append(Detection(frame=t, box=box, confidence=1.0))
            if (teams[i] != "referee" and not null_flags[i]
                    and vis_rng.random() < config.visibility_profile):
                number_frames.add(t)
        if not dets:
            continue  # never entered the camera view
        gt_tracks.append(Track(track_id=tid, detections=tuple(dets)))
        truth[tid] = TrackTruth(
            team=teams[i],
            jersey=None if (teams[i] == "referee" or null_flags[i]) else jerseys[i],
            null_tracklet=null_flags[i],
        )
        visible_frames[tid] = frozenset(number_frames)

    noise_rng = np.random.default_rng([seed, _NOISE])
    detections: list[tuple[int, Detection]] = []
    by_frame: dict[int, list[Detection]] = {}
    for trk in gt_tracks:
        for det in trk.detections:
            by_frame.setdefault(det.frame, []).append(det)
    for t in sorted(by_frame):
        for det in by_frame[t]:
            if config.fn_rate > 0 and noise_rng.random() < config.fn_rate:
                continue
            box = det.box
            conf = 1.0
            if config.jitter_sigma > 0:
                dx, dy = noise_rng.normal(0.0, config.jitter_sigma, size=2)
                box = BoundingBox(x=box.x + dx, y=box.y + dy, w=box.w, h=box.h)
                conf = float(noise_rng.uniform(0.6, 1.0))
            detections.append((-1, Detection(frame=t, box=box, confidence=conf)))
        if config.fp_rate > 0 and noise_rng.random() < config.fp_rate:
            fx = noise_rng.uniform(0.0, config.camera_width - config.box_width)
            fy = noise_rng.uniform(0.0, config.camera_height - config.box_height)
            detections.append((
                -1,
                Detection(frame=t, box=BoundingBox(fx, fy, config.box_width, config.box_height),
                          confidence=float(noise_rng.uniform(0.5, 0.9))),
            ))

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
        detections=detections,
    )


def oracle_scorers(bundle: GroundTruthBundle) -> tuple[OracleFrameScorer, OracleWindowScorer, OracleTeamScorer]:
    """Scorers consistent with the bundle's visibility and confusion model."""
    return bundle.frame_scorer(), bundle.window_scorer(), bundle.team_scorer()
