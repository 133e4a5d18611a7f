"""Tracklet-level team assignment and jersey-number inference.

A tracklet is identified in two stages. The gate (:func:`gate_tracklet`)
reads per-frame scores: a team vote, and a visibility gate driven by an
image-level scorer's null-class output. The window stage
(:func:`identify_tracklet`) slides a window scorer over the tracklet and
aggregates the window probabilities into one distribution ``p_jn``.
Roster masks are applied last, multiplying ``p_jn`` elementwise before
the argmax.

Scorers are pluggable: anything exposing ``score_frame`` /
``score_window`` works, including the file-backed readers below and the
synthetic oracles in :mod:`rinktrack.sim`.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Protocol, Sequence

import numpy as np

from .core import (
    ClassVocabulary,
    ParseError,
    ProbVector,
    RosterVector,
    TeamLabel,
    Track,
    ValidationError,
    check_bool,
    check_int,
    first_bad_row,
    is_number,
    known_fields,
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
        if not (is_number(self.theta) and 0.0 < self.theta < 1.0):
            raise ValidationError(f"theta must be in (0, 1), got {self.theta!r}")
        check_int("window", self.window, 1)
        check_int("stride", self.stride, 1)
        if self.method not in AGGREGATION_METHODS:
            raise ValidationError(f"method must be one of {AGGREGATION_METHODS}, got {self.method!r}")
        for name in ("visibility_filtering", "postprocessing", "strict_null_fallback"):
            check_bool(name, getattr(self, name))

    @classmethod
    def from_dict(cls, data: Mapping) -> "IdentParams":
        return cls(**known_fields(cls, data))


def _checked_rows(tracklet: Track, rows: Sequence, what: str, width: int | None = None) -> np.ndarray:
    """A scorer's rows for the tracklet's first ``len(rows)`` frames as one array.

    Every row must be 1-D and ``width`` wide (the first row's width if None)
    and pass :func:`~rinktrack.core.first_bad_row`; the first that does not
    raises a ValidationError naming the track, the row and its frame.
    """
    rows = [np.asarray(row, dtype=float) for row in rows]
    width = len(rows[0]) if width is None else width
    problem = next(((i, f"expected {width} probabilities, got shape {row.shape}")
                    for i, row in enumerate(rows) if row.shape != (width,)), None)
    if problem is None:
        stacked = np.stack(rows)
        problem = first_bad_row(stacked)
    if problem is not None:
        i, reason = problem
        raise ValidationError(f"{what} row {i} of track {tracklet.track_id} "
                              f"(frame {tracklet.detections[i].frame}): {reason}")
    return stacked


def team_vote(tracklet: Track, scorer: FrameScorer) -> TeamLabel:
    """Majority vote over per-frame team argmaxes.

    Count ties go to the label with the larger summed confidence over
    its winning frames, then to Home < Away < Referee order.
    """
    rows = _checked_rows(tracklet, [scorer.score_frame(tracklet, i) for i in range(len(tracklet))],
                         "team score", len(TeamLabel))
    counts = [0] * len(TeamLabel)
    confidence = [0.0] * len(TeamLabel)
    # Summed one frame at a time, in frame order: np.sum may round differently.
    for label, top in zip(rows.argmax(axis=1).tolist(), rows.max(axis=1).tolist()):
        counts[label] += 1
        confidence[label] += top
    # max() keeps the first of equal keys, so enum order settles confidence ties.
    return max(TeamLabel, key=lambda label: (counts[label.value], confidence[label.value]))


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
    """True iff any frame's null-class probability falls strictly below theta.

    Frames are read up to the first such frame; the rows read are checked once.
    """
    rows, visible = [], False
    for i in range(len(tracklet)):
        rows.append(image_scorer.score_frame(tracklet, i))
        if rows[-1][-1] < theta:
            visible = True
            break
    _checked_rows(tracklet, rows, "frame score")
    return visible


def _aggregate(P: Sequence[ProbVector], visible: bool, method: str, postprocessing: bool,
               strict_null_fallback: bool, num_classes: int | None = None
               ) -> tuple[int, np.ndarray]:
    """The aggregation rule: (identity, normalised ``p_jn`` values) in one pass over P."""
    if len(P) == 0:
        raise ValidationError("cannot aggregate an empty window list")
    stacked = np.stack([p.values for p in P])
    width = stacked.shape[1]
    if num_classes is not None and width != num_classes:
        raise ValidationError(
            f"window probabilities have {width} classes, vocabulary has {num_classes}"
        )
    null_index = width - 1
    if not visible:
        one_hot = np.zeros(width)
        one_hot[null_index] = 1.0
        return null_index, one_hot
    argmaxes = np.argmax(stacked, axis=1)
    kept = stacked
    if postprocessing:
        keep = argmaxes != null_index
        kept, argmaxes = stacked[keep], argmaxes[keep]
    if len(kept) == 0:
        mean = stacked.mean(axis=0)
        identity = null_index if strict_null_fallback else int(np.argmax(mean[:null_index]))
    else:
        mean = kept.mean(axis=0)
        if method == "majority":  # ties fall to the lower class index
            identity = int(np.argmax(np.bincount(argmaxes, minlength=width)))
        else:
            identity = int(np.argmax(mean))
    return identity, mean / mean.sum()


def aggregate(P: Sequence[ProbVector], visible: bool, vocab: ClassVocabulary, *,
              method: str = "avg", postprocessing: bool = True,
              strict_null_fallback: bool = False) -> tuple[int, ProbVector]:
    """Collapse window probabilities into one identity and distribution.

    Invisible tracklets are labelled null with a one-hot null ``p_jn``
    (keeping them null under any roster mask). Visible tracklets keep
    the windows whose argmax is not null; ``p_jn`` is their average
    under either method, and the identity is the average's argmax
    (``"avg"``) or the mode of their argmaxes (``"majority"``). See
    :class:`IdentParams` for the empty-selection fallback.
    """
    if method not in AGGREGATION_METHODS:
        raise ValidationError(f"method must be one of {AGGREGATION_METHODS}, got {method!r}")
    identity, p_jn = _aggregate(P, visible, method, postprocessing, strict_null_fallback,
                                vocab.num_classes)
    return identity, ProbVector(values=p_jn)


def aggregate_majority(P: Sequence[ProbVector], visible: bool, *,
                       postprocessing: bool = True, strict_null_fallback: bool = False) -> int:
    """The identity ``aggregate(..., method="majority")`` gives, for P's own width."""
    return _aggregate(P, visible, "majority", postprocessing, strict_null_fallback)[0]


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


class Scorers(NamedTuple):
    """The three scorers identification reads; unpacks as ``frame, window, team``."""

    frame: FrameScorer
    window: WindowScorer
    team: FrameScorer


@dataclass(frozen=True)
class Rosters:
    home: RosterVector
    away: RosterVector


@dataclass(frozen=True)
class TrackIdentity:
    """One tracklet's team, identities and aggregated distribution.

    ``identity_unmasked`` is the aggregation's answer; ``identity`` is the
    roster-masked answer when the run masks rosters and equals
    ``identity_unmasked`` otherwise.
    """

    track_id: int
    team: TeamLabel
    identity: int
    p_jn: ProbVector
    identity_unmasked: int


def gate_tracklet(tracklet: Track, team_scorer: FrameScorer, frame_scorer: FrameScorer,
                  params: IdentParams) -> tuple[TeamLabel, bool]:
    """The per-frame stage: the tracklet's team vote and whether its number shows."""
    team = team_vote(tracklet, team_scorer)
    visible = not params.visibility_filtering or jersey_visible(tracklet, frame_scorer,
                                                                params.theta)
    return team, visible


def identify_tracklet(tracklet: Track, team: TeamLabel, visible: bool,
                      window_scorer: WindowScorer, rosters: Rosters | None,
                      vocab: ClassVocabulary, params: IdentParams,
                      mask_rosters: bool = True) -> TrackIdentity:
    """The window stage for a gated tracklet: window inference, aggregation, masking.

    Both identities are filled (see :class:`TrackIdentity`). The aggregation
    method only selects how the unmasked identity is produced; roster
    masking always applies to the averaged ``p_jn``.
    """
    P = window_probs(tracklet, window_scorer, params)
    unmasked, p_jn = aggregate(P, visible, vocab, method=params.method,
                               postprocessing=params.postprocessing,
                               strict_null_fallback=params.strict_null_fallback)
    identity = unmasked
    if team is TeamLabel.REFEREE:
        identity = unmasked = REFEREE_CLASS
    elif mask_rosters:
        identity = identify(tracklet, team, p_jn, rosters.home, rosters.away)
    return TrackIdentity(track_id=tracklet.track_id, team=team, identity=identity,
                         p_jn=p_jn, identity_unmasked=unmasked)


def run_pipeline(tracks: Iterable[Track], scorers: Scorers, rosters: Rosters | None,
                 vocab: ClassVocabulary, params: IdentParams,
                 mask_rosters: bool = True) -> list[TrackIdentity]:
    """Identify each tracklet in turn: :func:`gate_tracklet`, then :func:`identify_tracklet`."""
    if mask_rosters and rosters is None:
        raise ValidationError("roster masking requested but no rosters supplied")
    results = []
    for trk in tracks:
        team, visible = gate_tracklet(trk, scorers.team, scorers.frame, params)
        results.append(identify_tracklet(trk, team, visible, scorers.window, rosters, vocab,
                                         params, mask_rosters))
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


#: Rows per block of a :class:`ScoreFile`.
_BLOCK_ROWS = 1024


class ScoreFile:
    """A JSON-lines score file, validated and packed into fixed blocks as it is read.

    Each non-blank line ``{"track_id": T, <key_field>: K, <probs_field>: [...]}``
    becomes one row of ``width`` float64 values; :meth:`get` returns it as a
    read-only view. Rows fill ``(1024, width)`` blocks in file order, so a
    table is built without the copies a growing buffer makes, and no block
    is joined to another. The file is read once, so a named pipe works:
    lines are decoded one at a time straight into a block, and no per-line
    record outlives its line. Rows are found by bisecting the sorted packed
    ``(T, K)`` keys, which costs 16 bytes a row where a dict of tuples would
    cost more than a whole team-score line.

    Every row must hold JSON numbers, not booleans, and pass
    :func:`~rinktrack.core.first_bad_row`; all rows must have one width
    (``width`` if given), and no ``(T, K)`` key may repeat. A violation raises
    :class:`ParseError` or :class:`ValidationError` naming ``path:line``; of
    two problems found after the read, the earlier line's is raised.
    """

    def __init__(self, path: str | Path, key_field: str, probs_field: str,
                 width: int | None = None):
        self.path = Path(path)
        blocks, keys, linenos = [], array("q"), array("q")  # linenos: each row's line
        with self.path.open("rb") as lines:
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                where = f"{self.path}:{lineno}"
                try:
                    rec = json.loads(line.decode())  # UTF-8: a bad byte is a ValueError
                    track_id, key, probs = rec["track_id"], rec[key_field], rec[probs_field]
                    entries = array("d", probs)  # numpy would also take "0.5" as a number
                except KeyError as exc:
                    raise ParseError(f"{where}: missing field {exc}") from None
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ParseError(f"{where}: {exc}") from None
                # array("d") takes JSON true/false as 1.0/0.0; one scan of the
                # line's text keeps the per-entry type check off clean lines.
                if (b"true" in line or b"false" in line) and any(type(p) is bool for p in probs):
                    raise ParseError(f"{where}: probabilities must be numbers, not booleans")
                if width is None:
                    width = len(entries)
                if len(entries) != width:
                    raise ValidationError(f"{where}: expected {width} probabilities, "
                                          f"got {len(entries)}")
                if type(track_id) is not int or type(key) is not int:  # int() would truncate 1.5
                    raise ParseError(f"{where}: track_id and {key_field} must be integers")
                packed = _pack(track_id, key)
                if packed is None:
                    raise ParseError(f"{where}: track_id or {key_field} out of range")
                offset = len(keys) % _BLOCK_ROWS
                if offset == 0:
                    blocks.append(np.empty((_BLOCK_ROWS, width)))
                blocks[-1][offset] = entries
                keys.append(packed)
                linenos.append(lineno)
        self.width = width or 0
        if blocks:  # the last block holds only the rows read into it
            blocks[-1] = blocks[-1][:len(keys) - (len(blocks) - 1) * _BLOCK_ROWS]
        value_problem = None
        for b, block in enumerate(blocks):
            block.flags.writeable = False
            problem = first_bad_row(block)
            if problem is not None and value_problem is None:  # the earliest block's
                value_problem = (b * _BLOCK_ROWS + problem[0], problem[1])
        self._blocks = blocks

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
                              f"(first on line {linenos[self._rows[i]]})")
        problems = [p for p in (value_problem, repeat_problem) if p is not None]
        if problems:
            row, reason = min(problems)
            raise ValidationError(f"{self.path}:{linenos[row]}: {reason}")
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, track_id: int, key: int) -> np.ndarray | None:
        """The row keyed ``(track_id, key)``, or None when the file has none."""
        packed = _pack(track_id, key)
        if packed is None:
            return None
        i = bisect_left(self._keys, packed)
        if i < len(self._keys) and self._keys[i] == packed:
            block, offset = divmod(int(self._rows[i]), _BLOCK_ROWS)
            return self._blocks[block][offset]
        return None


class _FileScorer:
    """A score file read by the frame of a tracklet's detection.

    Subclasses set :attr:`scores` in an ``__init__`` of their own (the
    benchmark's tracer times each class's ``__init__`` by name) and name
    a missing row in :attr:`missing`.
    """

    scores: ScoreFile
    missing: str

    def score_frame(self, track: Track, index: int) -> np.ndarray:
        frame = track.detections[index].frame
        probs = self.scores.get(track.track_id, frame)
        if probs is None:
            raise ScorerCoverageError(self.missing.format(track=track.track_id, frame=frame))
        return probs


class FileFrameScorer(_FileScorer):
    """Jersey-class frame scores from ``{"track_id", "frame", "probs"}`` lines."""

    missing = "no frame score for track {track} at frame {frame}"

    def __init__(self, path: str | Path, width: int | None = None):
        self.scores = ScoreFile(path, "frame", "probs", width)


class FileTeamScorer(_FileScorer):
    """Team distributions from ``{"track_id", "frame", "team_probs"}`` lines."""

    missing = "no team score for track {track} at frame {frame}"

    def __init__(self, path: str | Path):
        self.scores = ScoreFile(path, "frame", "team_probs", width=len(TeamLabel))


class FileWindowScorer(_FileScorer):
    """Window scores from ``{"track_id", "window_start", "probs"}`` lines.

    ``window_start`` is the frame number of the window's first detection.
    """

    missing = "no window score for track {track} starting at frame {frame}"

    def __init__(self, path: str | Path, width: int | None = None):
        self.scores = ScoreFile(path, "window_start", "probs", width)

    def score_window(self, track: Track, start: int, length: int) -> np.ndarray:
        return self.score_frame(track, start)

