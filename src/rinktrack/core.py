"""Domain types and file formats shared by every pipeline stage.

Coordinates are pixels with the origin at the top-left of the frame.
Jersey classes are indices into a :class:`ClassVocabulary`; the final
index is always reserved for the null class (no number visible).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

PROB_SUM_TOL = 1e-6


class ParseError(ValueError):
    """An input file could not be parsed; the message names the line."""


class ValidationError(ValueError):
    """Parsed values violate a domain invariant."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box given by its top-left corner and size."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h)):
            raise ValidationError(f"box coordinates must be finite: {self}")
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"box width/height must be positive: w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True)
class Detection:
    """One observed box on one frame."""

    frame: int
    box: BoundingBox
    confidence: float

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValidationError(f"frame index must be >= 0, got {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class Track:
    """Time-ordered detections sharing one tracker identity."""

    track_id: int
    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
        if len(self.detections) == 0:
            raise ValidationError(f"track {self.track_id} has no detections")
        frames = [d.frame for d in self.detections]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValidationError(f"track {self.track_id} frames not strictly increasing")

    def __len__(self) -> int:
        return len(self.detections)

    @property
    def frames(self) -> list[int]:
        return [d.frame for d in self.detections]


class TeamLabel(Enum):
    HOME = 0
    AWAY = 1
    REFEREE = 2


@dataclass(frozen=True)
class ClassVocabulary:
    """Ordered jersey-number labels plus a reserved trailing null class.

    ``labels[j]`` is the jersey number of class index ``j``; the null
    class lives at index ``len(labels)`` so masks and probability
    vectors stay aligned by construction.
    """

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            dupes = sorted({v for v in self.labels if list(self.labels).count(v) > 1})
            raise ValidationError(f"duplicate jersey labels: {dupes}")
        bad = [v for v in self.labels if not (0 <= int(v) <= 99)]
        if bad:
            raise ValidationError(f"jersey labels must be integers 0-99, got {bad}")

    @property
    def null_index(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        """Vocabulary size plus the null class."""
        return len(self.labels) + 1

    def index_of(self, number: int) -> int:
        try:
            return self.labels.index(number)
        except ValueError:
            raise ValidationError(f"jersey number {number} not in vocabulary") from None

    def label_of(self, index: int) -> int | None:
        """Jersey number for a class index; None for the null class."""
        if index == self.null_index:
            return None
        return self.labels[index]

    @classmethod
    def from_json(cls, path: str | Path) -> "ClassVocabulary":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, list):
            raise ParseError(f"{path}: vocabulary file must be a JSON list of integers")
        return cls(labels=tuple(int(v) for v in data))

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(list(self.labels)) + "\n")


def default_vocabulary() -> ClassVocabulary:
    """85 jersey numbers (1-85) plus null, 86 classes in total."""
    return ClassVocabulary(labels=tuple(range(1, 86)))


@dataclass(frozen=True)
class ProbVector:
    """Discrete distribution over jersey classes including null."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError(f"probability vector must be 1-D, got shape {arr.shape}")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValidationError("probability entries must lie in [0, 1]")
        total = float(arr.sum())
        if not math.isfinite(total):  # NaN entries pass both comparisons above
            raise ValidationError("probability entries must be finite")
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {total!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def null_index(self) -> int:
        return len(self.values) - 1

    def argmax(self) -> int:
        return int(np.argmax(self.values))


@dataclass(frozen=True)
class RosterVector:
    """Binary mask over jersey classes; the null class is always admissible."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.mask, dtype=np.int8)
        if arr.ndim != 1:
            raise ValidationError("roster mask must be 1-D")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValidationError("roster mask entries must be 0 or 1")
        if arr[-1] != 1:
            raise ValidationError("roster mask must admit the null class")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "mask", arr)

    def __len__(self) -> int:
        return len(self.mask)


def build_roster_vector(roster: Iterable[int], vocab: ClassVocabulary) -> RosterVector:
    """Mask admitting exactly the rostered numbers plus null."""
    roster = set(int(v) for v in roster)
    missing = sorted(v for v in roster if v not in vocab.labels)
    if missing:
        raise ValidationError(f"roster numbers not in vocabulary: {missing}")
    mask = np.zeros(vocab.num_classes, dtype=np.int8)
    for number in roster:
        mask[vocab.index_of(number)] = 1
    mask[vocab.null_index] = 1
    return RosterVector(mask=mask)


def load_rosters(path: str | Path) -> tuple[list[int], list[int]]:
    """Read a roster file ``{"home": [...], "away": [...]}``."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "home" not in data or "away" not in data:
        raise ParseError(f'{path}: roster file must be an object with "home" and "away" lists')
    return [int(v) for v in data["home"]], [int(v) for v in data["away"]]


def save_rosters(home: Sequence[int], away: Sequence[int], path: str | Path) -> None:
    Path(path).write_text(json.dumps({"home": list(home), "away": list(away)}) + "\n")


# ---------------------------------------------------------------------------
# Detection CSV interchange: one `frame,id,x,y,w,h,conf` row per box,
# id = -1 for raw detections, 0-based frame indices.
# ---------------------------------------------------------------------------

Row = tuple[int, Detection]


def parse_detection_rows(text: str) -> list[Row]:
    rows: list[Row] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 7:
            raise ParseError(f"line {lineno}: expected 7 comma-separated fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            track_id = int(parts[1])
            x, y, w, h, conf = (float(p) for p in parts[2:7])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if frame < 0:
            raise ParseError(f"line {lineno}: frame index must be >= 0, got {frame}")
        try:
            det = Detection(frame=frame, box=BoundingBox(x, y, w, h), confidence=conf)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        rows.append((track_id, det))
    return rows


def parse_detection_file(path: str | Path) -> list[Row]:
    path = Path(path)
    try:
        return parse_detection_rows(path.read_text())
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _fmt(v: float) -> str:
    # repr-shortest float keeps the round trip lossless ("10.0", not "10")
    return str(float(v))


def serialize_detection_rows(rows: Iterable[Row]) -> str:
    lines = []
    for track_id, det in rows:
        b = det.box
        lines.append(
            f"{det.frame},{track_id},{_fmt(b.x)},{_fmt(b.y)},{_fmt(b.w)},{_fmt(b.h)},{_fmt(det.confidence)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def save_detection_file(rows: Iterable[Row], path: str | Path) -> None:
    Path(path).write_text(serialize_detection_rows(rows))


def rows_to_tracks(rows: Iterable[Row]) -> list[Track]:
    """Group identified rows (id >= 0) into tracks, sorted by frame."""
    by_id: dict[int, list[Detection]] = {}
    for track_id, det in rows:
        if track_id < 0:
            continue
        by_id.setdefault(track_id, []).append(det)
    tracks = []
    for track_id in sorted(by_id):
        dets = sorted(by_id[track_id], key=lambda d: d.frame)
        tracks.append(Track(track_id=track_id, detections=tuple(dets)))
    return tracks


def tracks_to_rows(tracks: Iterable[Track]) -> list[Row]:
    rows: list[Row] = []
    for track in tracks:
        for det in track.detections:
            rows.append((track.track_id, det))
    rows.sort(key=lambda r: (r[1].frame, r[0]))
    return rows


def group_by_frame(rows: Iterable[Row]) -> dict[int, list[Detection]]:
    frames: dict[int, list[Detection]] = {}
    for _, det in rows:
        frames.setdefault(det.frame, []).append(det)
    return frames


def group_boxes_by_frame(rows: Iterable[Row]) -> dict[int, list[tuple[int, BoundingBox]]]:
    frames: dict[int, list[tuple[int, BoundingBox]]] = {}
    for track_id, det in rows:
        frames.setdefault(det.frame, []).append((track_id, det.box))
    return frames
