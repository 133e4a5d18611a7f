"""Domain types and file formats shared by every pipeline stage.

Coordinates are pixels with the origin at the top-left of the frame.
Jersey classes are indices into a :class:`ClassVocabulary`; the final
index is always reserved for the null class (no number visible).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

PROB_SUM_TOL = 1e-6


class ParseError(ValueError):
    """An input file could not be parsed; the message names the line."""


class ValidationError(ValueError):
    """Parsed values violate a domain invariant."""


def check_int(name: str, value, low: int) -> None:
    """Reject anything but an integer of at least ``low``; bools are rejected too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def is_number(value) -> bool:
    """True for a real number that is not a bool: JSON ``true`` is not 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_unit(name: str, value) -> None:
    """Reject anything but a number in [0, 1]; bools and NaN are rejected too."""
    if not is_number(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be a number in [0, 1], got {value!r}")


def check_bool(name: str, value) -> None:
    """Reject anything but ``True`` or ``False``."""
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be true or false, got {value!r}")


def known_fields(cls, data) -> dict:
    """``data`` as keyword arguments of dataclass ``cls``; any other key is rejected."""
    if not isinstance(data, Mapping):
        raise ValidationError(f"must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValidationError(f"unknown fields: {unknown}")
    return dict(data)


def read_input(path: str | Path, parse):
    """``parse`` of a UTF-8 text file; malformed JSON, undecodable bytes and a
    ParseError or ValidationError from ``parse`` are re-raised naming the file."""
    path = Path(path)
    try:
        return parse(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def json_ints(name: str, values) -> list[int]:
    """``values`` if it is a list of JSON integers (not bools or floats); else a ParseError."""
    if not isinstance(values, list):
        raise ParseError(f"{name} must be a list of integers, got {values!r}")
    bad = [v for v in values if type(v) is not int]
    if bad:
        raise ParseError(f"{name} entries must be integers, got {bad[0]!r}")
    return values


@dataclass(frozen=True, slots=True, init=False)
class BoundingBox:
    """Axis-aligned pixel box given by its top-left corner and size."""

    x: float
    y: float
    w: float
    h: float

    def __init__(self, x: float, y: float, w: float, h: float) -> None:
        isfinite = math.isfinite
        if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
            raise ValidationError(f"box coordinates must be finite: "
                                  f"BoundingBox(x={x!r}, y={y!r}, w={w!r}, h={h!r})")
        if w <= 0 or h <= 0:
            raise ValidationError(f"box width/height must be positive: w={w}, h={h}")
        _box_x(self, x)
        _box_y(self, y)
        _box_w(self, w)
        _box_h(self, h)

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


# The slots' own setters store a frozen instance's checked fields. They do
# what object.__setattr__ does without its attribute lookup on every call.
_box_x, _box_y, _box_w, _box_h = (vars(BoundingBox)[name].__set__ for name in ("x", "y", "w", "h"))


@dataclass(frozen=True, slots=True, init=False)
class Detection:
    """One observed box on one frame."""

    frame: int
    box: BoundingBox
    confidence: float

    def __init__(self, frame: int, box: BoundingBox, confidence: float) -> None:
        if frame < 0:
            raise ValidationError(f"frame index must be >= 0, got {frame}")
        if not 0.0 <= confidence <= 1.0:
            raise ValidationError(f"confidence must be in [0, 1], got {confidence}")
        _det_frame(self, frame)
        _det_box(self, box)
        _det_confidence(self, confidence)


_det_frame, _det_box, _det_confidence = (vars(Detection)[name].__set__
                                         for name in ("frame", "box", "confidence"))


@dataclass(frozen=True, slots=True)
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
        if not self.labels:
            raise ValidationError("vocabulary must hold at least one jersey number")
        for v in self.labels:
            check_int("jersey label", v, 0)
            if v > 99:
                raise ValidationError(f"jersey label must be at most 99, got {v!r}")
        if len(set(self.labels)) != len(self.labels):
            dupes = sorted({v for v in self.labels if list(self.labels).count(v) > 1})
            raise ValidationError(f"duplicate jersey labels: {dupes}")

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
        return read_input(path, lambda text: cls(tuple(json_ints("vocabulary", json.loads(text)))))

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(list(self.labels)) + "\n")


def default_vocabulary() -> ClassVocabulary:
    """85 jersey numbers (1-85) plus null, 86 classes in total."""
    return ClassVocabulary(labels=tuple(range(1, 86)))


def first_bad_row(values: np.ndarray) -> tuple[int, str] | None:
    """The distribution rule: the first row of 2-D ``values`` that is not a
    distribution, with the reason, or None when every row is one.

    A distribution holds finite entries in [0, 1] that sum to 1 within
    ``PROB_SUM_TOL``. Per-row reductions keep the temporaries to one number a
    row; their ``initial`` values let a zero-width row fail on its sum of 0.
    The ufuncs' own reductions skip the ndarray methods' Python wrappers.
    """
    in_range = ((np.minimum.reduce(values, axis=1, initial=1.0) >= 0.0)
                & (np.maximum.reduce(values, axis=1, initial=0.0) <= 1.0))
    ok = in_range & (abs(np.add.reduce(values, axis=1) - 1.0) <= PROB_SUM_TOL)  # NaN fails all
    if np.count_nonzero(ok) == len(ok):  # all() costs three times as much on one row
        return None
    row = int(ok.argmin())
    if not in_range[row]:
        return row, "probability entries must be finite and lie in [0, 1]"
    return row, f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {float(values[row].sum())!r}"


@dataclass(frozen=True)
class ProbVector:
    """Discrete distribution over jersey classes including null."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError(f"probability vector must be 1-D, got shape {arr.shape}")
        problem = first_bad_row(arr[None])
        if problem is not None:
            raise ValidationError(problem[1])
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RosterVector:
    """Binary mask over jersey classes; the null class is always admissible."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.mask)
        if raw.ndim != 1:
            raise ValidationError("roster mask must be 1-D")
        if not np.all((raw == 0) | (raw == 1)):
            raise ValidationError("roster mask entries must be 0 or 1")
        if not raw.size or raw[-1] != 1:
            raise ValidationError("roster mask must admit the null class")
        arr = raw.astype(np.int8)
        arr.flags.writeable = False
        object.__setattr__(self, "mask", arr)


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


def load_rosters(path: str | Path, vocab: ClassVocabulary) -> tuple[RosterVector, RosterVector]:
    """Home and away masks from a roster file ``{"home": [...], "away": [...]}``."""
    def parse(text: str) -> tuple[RosterVector, RosterVector]:
        data = json.loads(text)
        if not isinstance(data, dict) or "home" not in data or "away" not in data:
            raise ParseError('roster file must be an object with "home" and "away" lists')
        home, away = (json_ints(f"{side} roster", data[side]) for side in ("home", "away"))
        return build_roster_vector(home, vocab), build_roster_vector(away, vocab)

    return read_input(path, parse)


def save_rosters(home: Sequence[int], away: Sequence[int], path: str | Path) -> None:
    Path(path).write_text(json.dumps({"home": list(home), "away": list(away)}) + "\n")


# ---------------------------------------------------------------------------
# Detection CSV interchange: one `frame,id,x,y,w,h,conf` row per box,
# id = -1 for raw detections, 0-based frame indices.
# ---------------------------------------------------------------------------

Row = tuple[int, Detection]


def parse_detection_rows(text: str) -> list[Row]:
    rows: list[Row] = []
    # Not splitlines, which also breaks at \x0c, U+2028 and the like and so misnumbers lines.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
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
    return read_input(path, parse_detection_rows)


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
