"""Tracking evaluation: CLEAR matching, MOTA, IDF1, and pan-gap analysis.

Inputs are detections grouped by frame as ``{frame: [(id, box), ...]}``
(see :func:`rinktrack.core.group_boxes_by_frame`) so ground truth and
predictions stay in the interchange representation end to end.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import BoundingBox, Track, ValidationError
from .tracker import hungarian, iou_matrix

FrameBoxes = Mapping[int, Sequence[tuple[int, BoundingBox]]]


@dataclass
class FrameMatching:
    """Per-frame one-to-one GT/prediction correspondence.

    ``matches[f]`` holds (gt_id, pred_id) pairs; ``unmatched_gt[f]`` are
    the frame's false negatives and ``unmatched_pred[f]`` its false
    positives. ``overlaps[(gt_id, pred_id)]`` counts the frames on which the
    pair overlaps at or above the threshold, matched or not (IDF1's input).
    """

    matches: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    unmatched_gt: dict[int, list[int]] = field(default_factory=dict)
    unmatched_pred: dict[int, list[int]] = field(default_factory=dict)
    overlaps: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def num_fn(self) -> int:
        return sum(len(v) for v in self.unmatched_gt.values())

    @property
    def num_fp(self) -> int:
        return sum(len(v) for v in self.unmatched_pred.values())

    @property
    def gt_total(self) -> int:
        return self.num_fn + sum(len(v) for v in self.matches.values())

    @property
    def pred_total(self) -> int:
        return self.num_fp + sum(len(v) for v in self.matches.values())


def match_frames(gt: FrameBoxes, pred: FrameBoxes, iou_threshold: float = 0.5) -> FrameMatching:
    """CLEAR-style matching with persistence, and the pair overlap counts.

    A pair matched on the previous frame stays matched while both ids
    are present and still overlap at or above the threshold; everything
    else is resolved per frame by min-cost assignment on 1 - IoU. An id
    listed twice on one frame, on either side, is a ValidationError.
    """
    result = FrameMatching(overlaps=Counter())
    prev: dict[int, int] = {}  # gt_id -> pred_id carried across frames
    frames = sorted(set(gt) | set(pred))
    for f in frames:
        gt_items = list(gt.get(f, ()))
        pred_items = list(pred.get(f, ()))
        gt_ids = [g for g, _ in gt_items]
        pred_ids = [p for p, _ in pred_items]
        for side, ids in (("ground-truth", gt_ids), ("predicted", pred_ids)):
            if len(set(ids)) < len(ids):
                repeated = next(i for i in ids if ids.count(i) > 1)
                raise ValidationError(f"frame {f}: {side} id {repeated} is listed more than once")
        overlap = iou_matrix([b for _, b in gt_items], [b for _, b in pred_items])
        above = overlap >= iou_threshold
        result.overlaps.update((gt_ids[i], pred_ids[j]) for i, j in np.argwhere(above).tolist())

        pred_index = {p: j for j, p in enumerate(pred_ids)}
        matched: list[tuple[int, int]] = []
        used_gt: set[int] = set()
        used_pred: set[int] = set()
        for i, g in enumerate(gt_ids):
            p = prev.get(g)
            if p is None or p not in pred_index or p in used_pred:
                continue
            j = pred_index[p]
            if above[i, j]:
                matched.append((g, p))
                used_gt.add(g)
                used_pred.add(p)

        rem_gt = [i for i, g in enumerate(gt_ids) if g not in used_gt]
        rem_pred = [j for j, p in enumerate(pred_ids) if p not in used_pred]
        if rem_gt and rem_pred:
            cost = 1.0 - overlap[np.ix_(rem_gt, rem_pred)]
            for ri, rj in hungarian(cost):
                i, j = rem_gt[ri], rem_pred[rj]
                if above[i, j]:
                    matched.append((gt_ids[i], pred_ids[j]))
                    used_gt.add(gt_ids[i])
                    used_pred.add(pred_ids[j])

        matched.sort()
        result.matches[f] = matched
        result.unmatched_gt[f] = [g for g in gt_ids if g not in used_gt]
        result.unmatched_pred[f] = [p for p in pred_ids if p not in used_pred]
        for g, p in matched:
            prev[g] = p
    return result


def count_idsw(matching: FrameMatching) -> int:
    """Identity switches under the last-known-assignment rule.

    A ground-truth id switching to a predicted id different from the
    last one it was ever matched to counts once, gaps notwithstanding;
    the first match of an id never counts.
    """
    last_known: dict[int, int] = {}
    switches = 0
    for f in sorted(matching.matches):
        for g, p in matching.matches[f]:
            if g in last_known and last_known[g] != p:
                switches += 1
            last_known[g] = p
    return switches


def mota(fp: int, fn: int, idsw: int, gt_total: int) -> float:
    """1 - (FN + FP + IDSW) / GT; may be negative."""
    if gt_total <= 0:
        raise ValidationError("MOTA requires a positive ground-truth count")
    return 1.0 - (fn + fp + idsw) / gt_total


def _idtp(overlaps: Mapping[tuple[int, int], int]) -> int:
    """IDTP: the most co-detection frames a one-to-one identity mapping keeps.
    Ids without an overlap stay out: all-zero rows and columns cannot change it."""
    gt_index = {g: i for i, g in enumerate(sorted({g for g, _ in overlaps}))}
    pred_index = {p: j for j, p in enumerate(sorted({p for _, p in overlaps}))}
    gains = np.zeros((len(gt_index), len(pred_index)))
    for (g, p), c in overlaps.items():
        gains[gt_index[g], pred_index[p]] = c
    return int(sum(gains[i, j] for i, j in hungarian(-gains)))


def _idf1(idtp: int, total_gt: int, total_pred: int) -> float:
    """2 IDTP / (2 IDTP + IDFP + IDFN); IDTP + IDFN and IDTP + IDFP are the row totals."""
    return 2.0 * idtp / (total_gt + total_pred)


def idf1_components(gt: FrameBoxes, pred: FrameBoxes, iou_threshold: float = 0.5
                    ) -> tuple[int, int, int]:
    """(IDTP, total gt detections, total pred detections) for IDF1.

    For each (gt identity, pred identity) pair, count frames where both
    appear and overlap at or above the threshold; IDTP maximizes the
    total matched frames over one-to-one identity mappings.
    """
    matching = match_frames(gt, pred, iou_threshold)
    if matching.gt_total == 0:
        raise ValidationError("IDF1 requires non-empty ground truth")
    return _idtp(matching.overlaps), matching.gt_total, matching.pred_total


def pan_sweep(gt_tracks: Iterable[Track], deltas: Iterable[int]) -> list[tuple[int, int]]:
    """(delta, ground-truth gaps longer than delta frames) for each delta.

    The gaps between consecutive detections are collected in one scan.
    """
    gaps = sorted(b - a for trk in gt_tracks for a, b in pairwise(trk.frames))
    return [(int(d), len(gaps) - bisect_right(gaps, int(d))) for d in deltas]


def pan_idsw(gt_tracks: Iterable[Track], delta: int) -> int:
    """Count ground-truth gaps between consecutive detections exceeding delta frames."""
    return pan_sweep(gt_tracks, [delta])[0][1]


def pan_proportion(pan_count: int, idsw: int) -> float | None:
    """Share of identity switches attributable to ``pan_count`` out-of-view gaps.

    Undefined (None) when there are no identity switches at all.
    """
    if idsw <= 0:
        return None
    return pan_count / idsw


@dataclass(frozen=True)
class EvalRow:
    name: str
    mota: float
    idf1: float
    idsw: int
    fp: int
    fn: int
    gt_total: int

    def __post_init__(self) -> None:
        if self.mota > 1.0 + 1e-12:
            raise ValidationError(f"MOTA cannot exceed 1, got {self.mota}")
        if min(self.idsw, self.fp, self.fn, self.gt_total) < 0:
            raise ValidationError("metric counts must be non-negative")


@dataclass(frozen=True)
class EvalReport:
    """Per-video metric rows plus the pooled aggregate."""

    per_video: tuple[EvalRow, ...]
    mota: float
    idf1: float
    idsw: int
    fp: int
    fn: int
    gt_total: int


def evaluate_video(name: str, gt: FrameBoxes, pred: FrameBoxes, iou_threshold: float = 0.5
                   ) -> tuple[EvalRow, tuple[int, int, int]]:
    """Evaluate one video; returns the row and IDF1 components for pooling."""
    matching = match_frames(gt, pred, iou_threshold)
    fp = matching.num_fp
    fn = matching.num_fn
    idsw = count_idsw(matching)
    gt_total = matching.gt_total
    components = (_idtp(matching.overlaps), gt_total, matching.pred_total)
    row = EvalRow(name=name, mota=mota(fp, fn, idsw, gt_total), idf1=_idf1(*components),
                  idsw=idsw, fp=fp, fn=fn, gt_total=gt_total)
    return row, components


def evaluate(videos: Sequence[tuple[str, FrameBoxes, FrameBoxes]], iou_threshold: float = 0.5
             ) -> EvalReport:
    rows = []
    idtp = pred_total = 0
    for name, gt, pred in videos:
        row, (video_idtp, _, video_pred) = evaluate_video(name, gt, pred, iou_threshold)
        rows.append(row)
        idtp += video_idtp
        pred_total += video_pred
    fp = sum(r.fp for r in rows)
    fn = sum(r.fn for r in rows)
    idsw = sum(r.idsw for r in rows)
    gt_total = sum(r.gt_total for r in rows)
    return EvalReport(
        per_video=tuple(rows),
        mota=mota(fp, fn, idsw, gt_total),
        idf1=_idf1(idtp, gt_total, pred_total),
        idsw=idsw,
        fp=fp,
        fn=fn,
        gt_total=gt_total,
    )


def format_report_table(report: EvalReport) -> str:
    """Aligned text table, one row per video plus the pooled aggregate."""
    header = f"{'video':<14}{'IDF1':>8}{'MOTA':>8}{'IDSW':>7}{'FP':>7}{'FN':>7}"
    lines = [header, "-" * len(header)]
    for row in report.per_video:
        lines.append(
            f"{row.name:<14}{100 * row.idf1:>8.2f}{100 * row.mota:>8.2f}"
            f"{row.idsw:>7d}{row.fp:>7d}{row.fn:>7d}"
        )
    lines.append(
        f"{'ALL':<14}{100 * report.idf1:>8.2f}{100 * report.mota:>8.2f}"
        f"{report.idsw:>7d}{report.fp:>7d}{report.fn:>7d}"
    )
    return "\n".join(lines) + "\n"
