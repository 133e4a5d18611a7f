"""Tracklet-level team assignment and jersey-number inference.

A tracklet is identified in four steps: a per-frame team vote, window
probabilities from a sliding-window scorer, a visibility gate driven by
an image-level scorer's null-class output, and aggregation of the
window probabilities into one distribution ``p_jn``. Roster masks are
applied last, multiplying ``p_jn`` elementwise before the argmax.

Scorers are pluggable: anything exposing ``score_frame`` /
``score_window`` works, including the file-backed readers below and the
synthetic oracles in :mod:`rinktrack.sim`.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .core import (
    PROB_SUM_TOL,
    ClassVocabulary,
    ParseError,
    ProbVector,
    RosterVector,
    TeamLabel,
    Track,
    ValidationError,
)

#: Sentinel identity for referee tracklets, outside the jersey vocabulary.
REFEREE_CLASS = -1

AGGREGATION_METHODS = ("avg", "majority")


class ScorerCoverageError(LookupError):
    """A file-backed scorer has no entry for a requested track/frame."""


class FrameScorer(Protocol):
    def score_frame(self, track: Track, index: int) -> np.ndarray:
        """Distribution for one tracklet frame (jersey classes or teams)."""


class WindowScorer(Protocol):
    def score_window(self, track: Track, start: int, length: int) -> np.ndarray:
        """Jersey-class distribution for ``track.detections[start:start+length]``."""


@dataclass(frozen=True)
class IdentParams:
    """Inference tunables.

    ``theta`` is the null-probability threshold of the visibility gate,
    ``window``/``stride`` shape the sliding window. The remaining flags
    select the aggregation variant: ``postprocessing`` drops windows
    whose argmax is null before averaging/voting, and
    ``visibility_filtering`` enables the gate at all (disabling it
    treats every tracklet as number-visible). When every window argmaxes
    null on a gated-visible tracklet, the fallback averages all windows
    and argmaxes over non-null classes unless ``strict_null_fallback``
    is set, in which case the tracklet is labelled null.
    """

    theta: float = 0.01
    window: int = 30
    stride: int = 1
    method: str = "avg"
    visibility_filtering: bool = True
    postprocessing: bool = True
    strict_null_fallback: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ValidationError(f"theta must be in (0, 1), got {self.theta}")
        if self.window < 1 or self.stride < 1:
            raise ValidationError("window and stride must be >= 1")
        if self.method not in AGGREGATION_METHODS:
            raise ValidationError(f"method must be one of {AGGREGATION_METHODS}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "IdentParams":
        kwargs = {k: data[k] for k in cls.__dataclass_fields__ if k in data}
        return cls(**kwargs)


def team_vote(tracklet: Track, scorer: FrameScorer) -> TeamLabel:
    """Majority vote over per-frame team argmaxes.

    Count ties go to the label with the larger summed confidence over
    its winning frames, then to Home < Away < Referee order.
    """
    counts = {label: 0 for label in TeamLabel}
    confidence = {label: 0.0 for label in TeamLabel}
    for i in range(len(tracklet)):
        probs = np.asarray(scorer.score_frame(tracklet, i), dtype=float)
        if probs.shape != (3,):
            raise ValidationError(f"team scorer must return 3 probabilities, got {probs.shape}")
        label = TeamLabel(int(np.argmax(probs)))
        counts[label] += 1
        confidence[label] += float(probs.max())
    best = max(counts.values())
    tied = [label for label in TeamLabel if counts[label] == best]
    if len(tied) == 1:
        return tied[0]
    top_conf = max(confidence[label] for label in tied)
    for label in TeamLabel:  # enum order settles confidence ties
        if label in tied and confidence[label] == top_conf:
            return label
    raise AssertionError("unreachable")


def window_starts(k: int, window: int, stride: int = 1) -> list[int]:
    """Window start indices; a tracklet shorter than the window yields one."""
    if k < window:
        return [0]
    return list(range(0, k - window + 1, stride))


def window_probs(tracklet: Track, scorer: WindowScorer, params: IdentParams) -> list[ProbVector]:
    """Slide the scorer over the tracklet; short tracklets get one full window."""
    k = len(tracklet)
    out = []
    for start in window_starts(k, params.window, params.stride):
        length = min(params.window, k)
        out.append(ProbVector(values=np.asarray(scorer.score_window(tracklet, start, length), dtype=float)))
    return out


def jersey_visible(tracklet: Track, image_scorer: FrameScorer, theta: float) -> bool:
    """True iff any frame's null-class probability falls strictly below theta."""
    for i in range(len(tracklet)):
        probs = np.asarray(image_scorer.score_frame(tracklet, i), dtype=float)
        if probs[-1] < theta:
            return True
    return False


def _stack(prob_vectors: Sequence[ProbVector]) -> np.ndarray:
    if len(prob_vectors) == 0:
        raise ValidationError("cannot aggregate an empty window list")
    return np.stack([p.values for p in prob_vectors])


def _aggregate_mean(stacked: np.ndarray, postprocessing: bool, strict_null_fallback: bool
                    ) -> tuple[int, np.ndarray]:
    null_index = stacked.shape[1] - 1
    if postprocessing:
        kept = stacked[np.argmax(stacked, axis=1) != null_index]
        if len(kept) == 0:
            mean = stacked.mean(axis=0)
            if strict_null_fallback:
                return null_index, mean
            return int(np.argmax(mean[:null_index])), mean
        mean = kept.mean(axis=0)
    else:
        mean = stacked.mean(axis=0)
    return int(np.argmax(mean)), mean


def _aggregate_majority(stacked: np.ndarray, postprocessing: bool, strict_null_fallback: bool) -> int:
    null_index = stacked.shape[1] - 1
    argmaxes = np.argmax(stacked, axis=1)
    if postprocessing:
        argmaxes = argmaxes[argmaxes != null_index]
        if len(argmaxes) == 0:
            mean = stacked.mean(axis=0)
            if strict_null_fallback:
                return null_index
            return int(np.argmax(mean[:null_index]))
    counts = np.bincount(argmaxes, minlength=null_index + 1)
    return int(np.argmax(counts))  # ties fall to the lower class index


def aggregate(P: Sequence[ProbVector], visible: bool, vocab: ClassVocabulary, *,
              postprocessing: bool = True, strict_null_fallback: bool = False
              ) -> tuple[int, ProbVector]:
    """Collapse window probabilities into one identity and distribution.

    Invisible tracklets are labelled null with a one-hot null ``p_jn``
    (keeping them null under any roster mask). Visible tracklets average
    the windows whose argmax is not null; see :class:`IdentParams` for
    the empty-selection fallback.
    """
    stacked = _stack(P)
    if stacked.shape[1] != vocab.num_classes:
        raise ValidationError(
            f"window probabilities have {stacked.shape[1]} classes, vocabulary has {vocab.num_classes}"
        )
    if not visible:
        one_hot = np.zeros(vocab.num_classes)
        one_hot[vocab.null_index] = 1.0
        return vocab.null_index, ProbVector(values=one_hot)
    identity, mean = _aggregate_mean(stacked, postprocessing, strict_null_fallback)
    return identity, ProbVector(values=mean / mean.sum())


def aggregate_majority(P: Sequence[ProbVector], visible: bool, *,
                       postprocessing: bool = True, strict_null_fallback: bool = False) -> int:
    """Mode of the non-null window argmaxes; null when not visible."""
    stacked = _stack(P)
    if not visible:
        return stacked.shape[1] - 1
    return _aggregate_majority(stacked, postprocessing, strict_null_fallback)


def identify(tracklet: Track, team: TeamLabel, p_jn: ProbVector,
             v_h: RosterVector, v_a: RosterVector) -> int:
    """Roster-masked identity: argmax of p_jn restricted to the team roster.

    Referee tracklets map to the referee sentinel regardless of p_jn.
    """
    if team is TeamLabel.REFEREE:
        return REFEREE_CLASS
    mask = v_h.mask if team is TeamLabel.HOME else v_a.mask
    if len(mask) != len(p_jn):
        raise ValidationError(
            f"mask length {len(mask)} does not match probability length {len(p_jn)} "
            f"(track {tracklet.track_id})"
        )
    return int(np.argmax(p_jn.values * mask))


@dataclass(frozen=True)
class Scorers:
    team: FrameScorer
    frame: FrameScorer
    window: WindowScorer


@dataclass(frozen=True)
class Rosters:
    home: RosterVector
    away: RosterVector


@dataclass(frozen=True)
class TrackIdentity:
    track_id: int
    team: TeamLabel
    identity: int
    p_jn: ProbVector


def run_pipeline(tracks: Iterable[Track], scorers: Scorers, rosters: Rosters | None,
                 vocab: ClassVocabulary, params: IdentParams,
                 mask_rosters: bool = True) -> list[TrackIdentity]:
    """Team vote, window inference, visibility gate, aggregation, masking.

    With ``mask_rosters`` false (or no rosters supplied) the unmasked
    aggregation argmax is reported instead of the roster-masked one.
    The aggregation method only selects how the unmasked identity is
    produced; roster masking always applies to the averaged ``p_jn``.
    """
    if mask_rosters and rosters is None:
        raise ValidationError("roster masking requested but no rosters supplied")
    results = []
    for trk in tracks:
        team = team_vote(trk, scorers.team)
        P = window_probs(trk, scorers.window, params)
        visible = True
        if params.visibility_filtering:
            visible = jersey_visible(trk, scorers.frame, params.theta)
        if params.method == "majority":
            identity = aggregate_majority(
                P, visible,
                postprocessing=params.postprocessing,
                strict_null_fallback=params.strict_null_fallback,
            )
            _, p_jn = aggregate(
                P, visible,
                vocab,
                postprocessing=params.postprocessing,
                strict_null_fallback=params.strict_null_fallback,
            )
        else:
            identity, p_jn = aggregate(
                P, visible,
                vocab,
                postprocessing=params.postprocessing,
                strict_null_fallback=params.strict_null_fallback,
            )
        if team is TeamLabel.REFEREE:
            identity = REFEREE_CLASS
        elif mask_rosters and rosters is not None:
            identity = identify(trk, team, p_jn, rosters.home, rosters.away)
        results.append(TrackIdentity(track_id=trk.track_id, team=team, identity=identity, p_jn=p_jn))
    return results


# ---------------------------------------------------------------------------
# File-backed scorers (JSON lines)
# ---------------------------------------------------------------------------

_KEY_LIMIT = 1 << 32
_TRACK_LIMIT = 1 << 31


def _pack(track_id: int, key: int) -> int | None:
    """One int64 that sorts like ``(track_id, key)``; None when either is out of range."""
    if -_TRACK_LIMIT <= track_id < _TRACK_LIMIT and 0 <= key < _KEY_LIMIT:
        return track_id * _KEY_LIMIT + key
    return None


def _first_bad_row(values: np.ndarray) -> tuple[int, str] | None:
    """First row of ``values`` that is not a distribution, with the reason; None if none.

    In-place steps keep the temporaries small next to a 3-wide team row.
    """
    in_range = ((values >= 0.0) & (values <= 1.0)).all(axis=1)  # NaN fails both
    sum_error = values.sum(axis=1)
    sum_error -= 1.0
    np.abs(sum_error, out=sum_error)
    bad = np.flatnonzero(~in_range | ~(sum_error <= PROB_SUM_TOL))
    if bad.size == 0:
        return None
    row = int(bad[0])
    if not in_range[row]:
        return row, "probability entries must be finite and lie in [0, 1]"
    return row, f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {float(values[row].sum())!r}"


class ScoreFile:
    """A JSON-lines score file, validated and packed into one array as it is read.

    Each non-blank line ``{"track_id": T, <key_field>: K, <probs_field>: [...]}``
    becomes one row of :attr:`values`, a read-only ``(rows, width)`` float64
    array. Lines are decoded one at a time straight into a flat buffer, so
    no per-line record outlives its line. Rows are found by bisecting the
    sorted packed ``(T, K)`` keys, which costs 16 bytes a row where a dict
    of tuples would cost more than a whole team-score line.

    Every row must be a distribution (finite entries in [0, 1] that sum to
    1 within ``PROB_SUM_TOL``), all rows must have one width (``width`` if
    given), and no ``(T, K)`` key may repeat. A violation raises
    :class:`ParseError` or :class:`ValidationError` naming ``path:line``.
    """

    def __init__(self, path: str | Path, key_field: str, probs_field: str,
                 width: int | None = None):
        self.path = Path(path)
        values, keys = array("d"), array("q")
        with self.path.open() as lines:
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                where = f"{self.path}:{lineno}"
                try:
                    rec = json.loads(line)
                    track_id, key, probs = rec["track_id"], rec[key_field], rec[probs_field]
                    values.extend(probs)
                except KeyError as exc:
                    raise ParseError(f"{where}: missing field {exc}") from None
                except (TypeError, ValueError) as exc:
                    raise ParseError(f"{where}: {exc}") from None
                if width is None:
                    width = len(probs)
                if len(probs) != width:
                    raise ValidationError(f"{where}: expected {width} probabilities, got {len(probs)}")
                if type(track_id) is not int or type(key) is not int:  # int() would truncate 1.5
                    raise ParseError(f"{where}: track_id and {key_field} must be integers")
                packed = _pack(track_id, key)
                if packed is None:
                    raise ParseError(f"{where}: track_id or {key_field} out of range")
                keys.append(packed)
        self.width = width or 0
        self.values = np.frombuffer(values, dtype=float).reshape(len(keys), self.width)
        self.values.flags.writeable = False

        value_problem = _first_bad_row(self.values)

        # Sort the packed keys in place; _rows maps a sorted position to its row.
        sorted_keys = np.frombuffer(keys, dtype=np.int64)
        self._rows = np.argsort(sorted_keys, kind="stable")
        sorted_keys.sort(kind="stable")
        repeat_problem = None
        dup = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
        if dup.size:
            # The stable sort keeps repeats in file order: take the earliest repeat.
            i = int(dup[np.argmin(self._rows[dup + 1])])
            track_id, key = divmod(int(sorted_keys[i]), _KEY_LIMIT)
            repeat_problem = (int(self._rows[i + 1]),
                              f"duplicate key track_id {track_id}, {key_field} {key} "
                              f"(first on line {self._line(int(self._rows[i]))})")
        problems = [p for p in (value_problem, repeat_problem) if p is not None]
        if problems:
            row, reason = min(problems)
            raise ValidationError(f"{self.path}:{self._line(row)}: {reason}")
        self._keys = keys

    def _line(self, row: int) -> int:
        """1-based line number of the ``row``-th non-blank line."""
        with self.path.open() as lines:
            numbered = (n for n, line in enumerate(lines, 1) if line.strip())
            return next(islice(numbered, row, None))

    def get(self, track_id: int, key: int) -> np.ndarray | None:
        """The row keyed ``(track_id, key)``, or None when the file has none."""
        packed = _pack(track_id, key)
        if packed is None:
            return None
        i = bisect_left(self._keys, packed)
        if i < len(self._keys) and self._keys[i] == packed:
            return self.values[self._rows[i]]
        return None


class FileFrameScorer:
    """Jersey-class frame scores from ``{"track_id", "frame", "probs"}`` lines."""

    def __init__(self, path: str | Path):
        self.scores = ScoreFile(path, "frame", "probs")

    def score_frame(self, track: Track, index: int) -> np.ndarray:
        frame = track.detections[index].frame
        probs = self.scores.get(track.track_id, frame)
        if probs is None:
            raise ScorerCoverageError(f"no frame score for track {track.track_id} at frame {frame}")
        return probs


class FileTeamScorer:
    """Team distributions from ``{"track_id", "frame", "team_probs"}`` lines."""

    def __init__(self, path: str | Path):
        self.scores = ScoreFile(path, "frame", "team_probs", width=len(TeamLabel))

    def score_frame(self, track: Track, index: int) -> np.ndarray:
        frame = track.detections[index].frame
        probs = self.scores.get(track.track_id, frame)
        if probs is None:
            raise ScorerCoverageError(f"no team score for track {track.track_id} at frame {frame}")
        return probs


class FileWindowScorer:
    """Window scores from ``{"track_id", "window_start", "probs"}`` lines.

    ``window_start`` is the frame number of the window's first detection.
    """

    def __init__(self, path: str | Path):
        self.scores = ScoreFile(path, "window_start", "probs")

    def score_window(self, track: Track, start: int, length: int) -> np.ndarray:
        frame = track.detections[start].frame
        probs = self.scores.get(track.track_id, frame)
        if probs is None:
            raise ScorerCoverageError(
                f"no window score for track {track.track_id} starting at frame {frame}"
            )
        return probs


_DEFAULT_COLOR_TO_TEAM = {"white": "away", "ref": "referee"}


def collapse_team_colors(color_probs: Mapping[str, float],
                         color_to_team: Mapping[str, str] | None = None) -> np.ndarray:
    """Fold jersey-color class scores into [home, away, referee] mass.

    Colors without an explicit mapping count as home (dark) jerseys;
    by default white maps to away and "ref" to referee.
    """
    mapping = dict(_DEFAULT_COLOR_TO_TEAM)
    if color_to_team:
        mapping.update(color_to_team)
    out = np.zeros(3)
    slot = {"home": 0, "away": 1, "referee": 2}
    for color, prob in color_probs.items():
        team = mapping.get(color, "home")
        out[slot[team]] += float(prob)
    return out
