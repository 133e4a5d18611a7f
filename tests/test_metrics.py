import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iou_reference import iou
from rinktrack.core import (BoundingBox, Detection, Track, ValidationError, group_boxes_by_frame,
                            group_by_frame, tracks_to_rows)
from rinktrack.metrics import (
    FrameMatching,
    count_idsw,
    evaluate,
    evaluate_video,
    format_report_table,
    idf1_components,
    match_frames,
    mota,
    pan_idsw,
    pan_proportion,
    pan_sweep,
)
from rinktrack.sim import ScenarioConfig, generate
from rinktrack.tracker import TrackerParams, hungarian, iou_matrix, track

BOX = BoundingBox(0, 0, 10, 10)


def _box(x, y=0.0, w=10.0, h=10.0):
    return BoundingBox(x, y, w, h)


def _frames(*items):
    """items: (frame, id, box) triples -> grouped-by-frame mapping."""
    grouped = {}
    for frame, tid, box in items:
        grouped.setdefault(frame, []).append((tid, box))
    return grouped


class TestMota:
    def test_spec_arithmetic(self):
        assert mota(fp=2, fn=3, idsw=1, gt_total=100) == pytest.approx(0.94)

    def test_perfect(self):
        assert mota(0, 0, 0, 50) == 1.0

    def test_negative_allowed(self):
        assert mota(60, 60, 0, 100) == pytest.approx(-0.2)

    def test_zero_gt_is_error(self):
        with pytest.raises(ValidationError):
            mota(0, 0, 0, 0)

    @given(st.integers(0, 10_000), st.integers(0, 10_000),
           st.integers(0, 10_000), st.integers(1, 10_000))
    def test_matches_direct_arithmetic(self, fp, fn, idsw, gt):
        assert mota(fp, fn, idsw, gt) == pytest.approx(1 - (fn + fp + idsw) / gt, abs=1e-12)


class TestMatchFrames:
    def test_identical_inputs_fully_matched(self):
        gt = _frames((0, 1, BOX), (0, 2, _box(50)), (1, 1, BOX))
        matching = match_frames(gt, gt)
        assert matching.num_fp == 0 and matching.num_fn == 0
        assert matching.matches[0] == [(1, 1), (2, 2)]

    def test_empty_predictions_all_fn(self):
        gt = _frames((0, 1, BOX), (1, 1, BOX), (1, 2, _box(50)))
        matching = match_frames(gt, {})
        assert matching.num_fn == 3
        assert matching.num_fp == 0
        assert matching.gt_total == 3

    def test_below_threshold_unmatched_both_sides(self):
        gt = _frames((0, 1, _box(0)))
        pred = _frames((0, 9, _box(6)))  # IoU = 4/16 = 0.25 < 0.5
        matching = match_frames(gt, pred, iou_threshold=0.5)
        assert matching.matches[0] == []
        assert matching.num_fn == 1 and matching.num_fp == 1

    def test_match_persistence_resists_swap(self):
        # Two GT boxes drift close together; persistence keeps the original
        # pairing even when a fresh assignment might swap them.
        gt = _frames(
            (0, 1, _box(0)), (0, 2, _box(30)),
            (1, 1, _box(14)), (1, 2, _box(16)),
        )
        pred = _frames(
            (0, 11, _box(0)), (0, 12, _box(30)),
            (1, 11, _box(14.5)), (1, 12, _box(15.5)),
        )
        matching = match_frames(gt, pred)
        assert matching.matches[1] == [(1, 11), (2, 12)]
        assert count_idsw(matching) == 0

    def test_one_to_one_per_frame(self):
        rng = np.random.default_rng(11)
        items_gt, items_pred = [], []
        for f in range(12):
            for i in range(5):
                items_gt.append((f, i, _box(rng.uniform(0, 80), rng.uniform(0, 80))))
            for j in range(4):
                items_pred.append((f, 100 + j, _box(rng.uniform(0, 80), rng.uniform(0, 80))))
        matching = match_frames(_frames(*items_gt), _frames(*items_pred))
        for f, pairs in matching.matches.items():
            gts = [g for g, _ in pairs]
            preds = [p for _, p in pairs]
            assert len(set(gts)) == len(gts)
            assert len(set(preds)) == len(preds)


    @pytest.mark.parametrize("side", ["ground-truth", "predicted"])
    def test_id_listed_twice_on_a_frame_rejected(self, side):
        once = _frames((0, 1, BOX), (1, 1, BOX), (1, 2, _box(50)))
        twice = _frames((0, 1, BOX), (1, 1, BOX), (1, 2, _box(50)), (1, 1, _box(80)))
        gt, pred = (twice, once) if side == "ground-truth" else (once, twice)
        with pytest.raises(ValidationError, match=f"frame 1: {side} id 1 is listed more than once"):
            match_frames(gt, pred)


def matching_from_pred_ids(sequence):
    """Build a one-GT-track FrameMatching from per-frame pred ids (None = gap)."""
    m = FrameMatching()
    for f, pid in enumerate(sequence):
        if pid is None:
            m.matches[f] = []
            m.unmatched_gt[f] = [1]
        else:
            m.matches[f] = [(1, pid)]
            m.unmatched_gt[f] = []
        m.unmatched_pred[f] = []
    return m


class TestCountIdsw:
    def test_single_switch(self):
        assert count_idsw(matching_from_pred_ids([1, 1, 2, 2])) == 1

    def test_gap_same_id_no_switch(self):
        assert count_idsw(matching_from_pred_ids([1, None, 1])) == 0

    def test_gap_then_two_switches(self):
        assert count_idsw(matching_from_pred_ids([1, None, 2, 1])) == 2

    def test_first_match_never_counts(self):
        assert count_idsw(matching_from_pred_ids([None, None, 7])) == 0


def brute_force_idtp(gt, pred, iou_threshold=0.5):
    """Max total co-detection frames over all injective gt->pred mappings."""
    overlap = {}
    gt_ids, pred_ids = set(), set()
    frames = set(gt) | set(pred)
    for f in frames:
        for g, gb in gt.get(f, ()):
            gt_ids.add(g)
            for p, pb in pred.get(f, ()):
                if iou(gb, pb) >= iou_threshold:
                    overlap[(g, p)] = overlap.get((g, p), 0) + 1
        for p, _ in pred.get(f, ()):
            pred_ids.add(p)
    gt_ids, pred_ids = sorted(gt_ids), sorted(pred_ids)
    best = 0
    k = min(len(gt_ids), len(pred_ids))
    for size in range(k + 1):
        for chosen_gt in itertools.combinations(gt_ids, size):
            for perm in itertools.permutations(pred_ids, size):
                total = sum(overlap.get((g, p), 0) for g, p in zip(chosen_gt, perm))
                best = max(best, total)
    return best


def video_idf1(gt, pred):
    """IDF1 as eval reports it for one video."""
    return evaluate_video("video", gt, pred)[0].idf1


class TestIdf1:
    def test_perfect_tracking(self):
        gt = _frames(*[(f, 1, _box(3 * f)) for f in range(20)])
        assert video_idf1(gt, gt) == 1.0

    def test_track_split_in_half_scores_half(self):
        # One GT identity covered half by pred 1, half by pred 2:
        # IDTP = T/2, IDFP = T/2, IDFN = T/2 -> IDF1 = 0.5.
        T = 40
        gt = _frames(*[(f, 1, _box(2 * f)) for f in range(T)])
        pred = _frames(*[(f, 1 if f < T // 2 else 2, _box(2 * f)) for f in range(T)])
        assert video_idf1(gt, pred) == pytest.approx(0.5)
        idtp, total_gt, total_pred = idf1_components(gt, pred)
        assert (idtp, total_gt, total_pred) == (T // 2, T, T)

    def test_no_predictions(self):
        gt = _frames((0, 1, BOX))
        assert video_idf1(gt, {}) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_brute_force_mapping(self, seed):
        rng = np.random.default_rng(seed)
        n_gt = int(rng.integers(1, 5))
        n_pred = int(rng.integers(0, 5))
        items_gt, items_pred = [], []
        for f in range(int(rng.integers(1, 8))):
            for g in range(n_gt):
                if rng.random() < 0.8:
                    items_gt.append((f, g, _box(20 * g + rng.uniform(-6, 6))))
            for p in range(n_pred):
                if rng.random() < 0.8:
                    items_pred.append((f, 50 + p, _box(20 * p + rng.uniform(-6, 6))))
        if not items_gt:
            return
        gt, pred = _frames(*items_gt), _frames(*items_pred)
        idtp, total_gt, total_pred = idf1_components(gt, pred)
        assert idtp == brute_force_idtp(gt, pred)
        assert video_idf1(gt, pred) == pytest.approx(2 * idtp / (total_gt + total_pred))


def _track_with_gaps(track_id, gaps):
    """Frame deltas -> Track; gaps[i] is the step between detections i and i+1."""
    frames = [0]
    for g in gaps:
        frames.append(frames[-1] + g)
    dets = tuple(Detection(f, BOX, 1.0) for f in frames)
    return Track(track_id=track_id, detections=dets)


class TestPanIdsw:
    def test_single_large_gap(self):
        trk = _track_with_gaps(1, [1, 1, 50, 1])
        assert pan_idsw([trk], delta=40) == 1

    def test_continuous_track(self):
        trk = _track_with_gaps(1, [1] * 30)
        assert pan_idsw([trk], delta=40) == 0

    def test_sums_over_trajectories(self):
        tracks = [_track_with_gaps(i, [1, 45, 1]) for i in range(3)]
        assert pan_idsw(tracks, delta=40) == 3

    def test_threshold_strictly_greater(self):
        trk = _track_with_gaps(1, [40])
        assert pan_idsw([trk], delta=40) == 0
        assert pan_idsw([trk], delta=39) == 1

    def test_sweep_non_increasing(self):
        rng = np.random.default_rng(5)
        tracks = [_track_with_gaps(i, rng.integers(1, 120, size=10).tolist())
                  for i in range(6)]
        counts = [c for _, c in pan_sweep(tracks, range(40, 81, 5))]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_proportion(self):
        tracks = [_track_with_gaps(i, [50]) for i in range(27)]
        assert pan_proportion(pan_idsw(tracks, delta=40), idsw=30) == pytest.approx(0.9)
        assert pan_proportion(pan_idsw([_track_with_gaps(1, [1])], delta=40), idsw=30) == 0.0
        assert pan_proportion(pan_idsw(tracks, delta=40), idsw=0) is None


class TestEvaluate:
    def test_self_evaluation_is_perfect(self):
        rng = np.random.default_rng(2)
        items = []
        for f in range(30):
            for i in range(4):
                items.append((f, i, _box(40 * i + rng.uniform(-3, 3), rng.uniform(0, 5))))
        gt = _frames(*items)
        report = evaluate([("v", gt, gt)])
        assert report.mota == 1.0
        assert report.idf1 == 1.0
        assert report.idsw == 0 and report.fp == 0 and report.fn == 0

    def test_aggregate_pools_counts(self):
        gt1 = _frames(*[(f, 1, _box(2 * f)) for f in range(10)])
        gt2 = _frames(*[(f, 1, _box(2 * f)) for f in range(30)])
        pred2 = _frames(*[(f, 1 if f < 15 else 2, _box(2 * f)) for f in range(30)])
        report = evaluate([("a", gt1, gt1), ("b", gt2, pred2)])
        assert report.gt_total == 40
        assert report.idsw == 1
        assert report.mota == pytest.approx(1 - 1 / 40)
        # pooled IDF1: IDTP = 10 + 15
        assert report.idf1 == pytest.approx(2 * 25 / (40 + 40))

    def test_table_shape(self):
        gt = _frames(*[(f, 1, _box(2 * f)) for f in range(10)])
        table = format_report_table(evaluate([("video_1", gt, gt)]))
        lines = table.strip().splitlines()
        assert lines[0].split() == ["video", "IDF1", "MOTA", "IDSW", "FP", "FN"]
        assert lines[2].startswith("video_1")
        assert lines[-1].startswith("ALL")


# ---------------------------------------------------------------------------
# Reference oracles: CLEAR matching from scratch, and IDF1 and ownership as
# the two-pass evaluation computed them.
# ---------------------------------------------------------------------------


def reference_clear(gt, pred, iou_threshold=0.5):
    """Per-frame CLEAR matching, solved from scratch with the scalar ``iou``.

    Per frame: first the pairs carried over from the previous frame, in the
    order the frame lists its ground truth, while both ids are present and
    still overlap at or above the threshold; then, among the rest, the
    one-to-one assignment of min(m, n) pairs with the least total 1 - IoU,
    found by trying every assignment; then that assignment's pairs below the
    threshold are dropped. Returns {frame: (matches, unmatched gt, unmatched
    pred)} with the matches sorted.
    """
    prev = {}
    out = {}
    for f in sorted(set(gt) | set(pred)):
        gt_boxes = dict(gt.get(f, ()))
        pred_boxes = dict(pred.get(f, ()))
        matched = []
        for g, gb in gt_boxes.items():
            p = prev.get(g)
            if (p in pred_boxes and p not in {q for _, q in matched}
                    and iou(gb, pred_boxes[p]) >= iou_threshold):
                matched.append((g, p))
        rest_gt = [g for g in gt_boxes if g not in {m for m, _ in matched}]
        rest_pred = [p for p in pred_boxes if p not in {q for _, q in matched}]
        if len(rest_gt) <= len(rest_pred):
            options = [list(zip(rest_gt, perm))
                       for perm in itertools.permutations(rest_pred, len(rest_gt))]
        else:
            options = [list(zip(perm, rest_pred))
                       for perm in itertools.permutations(rest_gt, len(rest_pred))]
        best = min(options, key=lambda pairs: sum(1.0 - iou(gt_boxes[g], pred_boxes[p])
                                                  for g, p in pairs))
        matched += [(g, p) for g, p in best
                    if iou(gt_boxes[g], pred_boxes[p]) >= iou_threshold]
        used_gt = {g for g, _ in matched}
        used_pred = {p for _, p in matched}
        out[f] = (sorted(matched), [g for g in gt_boxes if g not in used_gt],
                  [p for p in pred_boxes if p not in used_pred])
        prev.update(matched)
    return out


def reference_idsw(clear):
    last_known, switches = {}, 0
    for f in sorted(clear):
        for g, p in clear[f][0]:
            switches += g in last_known and last_known[g] != p
            last_known[g] = p
    return switches


def reference_idf1_components(gt, pred, iou_threshold=0.5):
    """IDF1 components from a second pass: every frame's IoU matrix, each pair
    checked in a double loop, and the gains matrix over every id seen."""
    gt_count, pred_count, overlap_count = {}, {}, {}
    for f in sorted(set(gt) | set(pred)):
        gt_items = list(gt.get(f, ()))
        pred_items = list(pred.get(f, ()))
        for g, _ in gt_items:
            gt_count[g] = gt_count.get(g, 0) + 1
        for p, _ in pred_items:
            pred_count[p] = pred_count.get(p, 0) + 1
        if gt_items and pred_items:
            overlap = iou_matrix([b for _, b in gt_items], [b for _, b in pred_items])
            for i, (g, _) in enumerate(gt_items):
                for j, (p, _) in enumerate(pred_items):
                    if overlap[i, j] >= iou_threshold:
                        overlap_count[(g, p)] = overlap_count.get((g, p), 0) + 1
    total_gt, total_pred = sum(gt_count.values()), sum(pred_count.values())
    if not overlap_count:
        return 0, total_gt, total_pred
    gt_index = {g: i for i, g in enumerate(sorted(gt_count))}
    pred_index = {p: j for j, p in enumerate(sorted(pred_count))}
    gains = np.zeros((len(gt_index), len(pred_index)))
    for (g, p), c in overlap_count.items():
        gains[gt_index[g], pred_index[p]] = c
    return int(sum(gains[i, j] for i, j in hungarian(-gains))), total_gt, total_pred


def random_scene(seed):
    """Small continuous-coordinate scene: up to 4 ids a side, drifting boxes
    that cross, ids missing on some frames, and predictions that trade ids."""
    rng = np.random.default_rng(seed)
    n_gt, n_pred = int(rng.integers(1, 5)), int(rng.integers(0, 5))
    start = rng.uniform(0, 40, size=(n_gt, 2))
    step = rng.uniform(-3, 3, size=(n_gt, 2))
    items_gt, items_pred = [], []
    for f in range(int(rng.integers(1, 9))):
        centres = start + f * step
        for g in range(n_gt):
            if rng.random() < 0.85:
                items_gt.append((f, g, _box(*centres[g])))
        owners = rng.permutation(n_gt) if rng.random() < 0.2 else np.arange(n_gt)
        for p in range(n_pred):
            if rng.random() < 0.85:
                x, y = centres[owners[p % n_gt]] + rng.normal(0, 2.5, size=2)
                items_pred.append((f, 50 + p, _box(x, y)))
    return _frames(*items_gt), _frames(*items_pred)


class TestAgainstReferences:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5]))
    def test_clear_matching_matches_brute_force(self, seed, threshold):
        gt, pred = random_scene(seed)
        clear = reference_clear(gt, pred, threshold)
        matching = match_frames(gt, pred, threshold)
        for f, (matches, unmatched_gt, unmatched_pred) in clear.items():
            assert matching.matches[f] == matches, f
            assert matching.unmatched_gt[f] == unmatched_gt, f
            assert matching.unmatched_pred[f] == unmatched_pred, f
        assert sorted(matching.matches) == sorted(clear)
        assert count_idsw(matching) == reference_idsw(clear)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idf1_components_match_two_pass_reference(self, seed):
        gt, pred = random_scene(seed)
        assume(gt)
        assert idf1_components(gt, pred) == reference_idf1_components(gt, pred)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_evaluate_matches_references_on_simulated_scenes(self, seed):
        config = ScenarioConfig(
            players_per_team=3, num_referees=1, duration=90, camera_width=400.0,
            camera_height=320.0, box_width=20.0, box_height=30.0, speed_range=(1.0, 4.0),
            pan_profile=((0, 0.0), (20, 0.0), (45, 200.0), (65, 200.0), (85, 0.0)),
            jitter_sigma=2.0, fp_rate=0.2, fn_rate=0.1, vocab_labels=tuple(range(1, 13)),
            window=8)
        bundle = generate(config, seed)
        gt = group_boxes_by_frame([(t.track_id, d) for t in bundle.gt_tracks
                                   for d in t.detections])
        pred = group_boxes_by_frame(tracks_to_rows(
            track(group_by_frame(bundle.detections), TrackerParams(min_hits=1))))
        idtp, total_gt, total_pred = reference_idf1_components(gt, pred)
        assert idf1_components(gt, pred) == (idtp, total_gt, total_pred)
        clear = reference_clear(gt, pred)
        report = evaluate([("v", gt, pred)])
        (row,) = report.per_video
        assert row.idf1 == report.idf1 == 2.0 * idtp / (total_gt + total_pred)
        assert row.gt_total == report.gt_total == total_gt
        assert row.fn == sum(len(c[1]) for c in clear.values())
        assert row.fp == sum(len(c[2]) for c in clear.values())
        assert row.idsw == reference_idsw(clear)
        assert row.mota == 1.0 - (row.fn + row.fp + row.idsw) / total_gt
