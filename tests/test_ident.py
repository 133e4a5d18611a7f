import json
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinktrack.core import (
    BoundingBox,
    ClassVocabulary,
    Detection,
    ParseError,
    ProbVector,
    TeamLabel,
    Track,
    ValidationError,
    build_roster_vector,
)
from rinktrack.ident import (
    REFEREE_CLASS,
    FileFrameScorer,
    FileTeamScorer,
    FileWindowScorer,
    IdentParams,
    Rosters,
    ScoreFile,
    ScorerCoverageError,
    Scorers,
    aggregate,
    aggregate_majority,
    identify,
    jersey_visible,
    run_pipeline,
    team_vote,
    window_probs,
    window_starts,
)

BOX = BoundingBox(0, 0, 10, 10)


def make_track(track_id=1, length=5, start=0):
    return Track(track_id=track_id,
                 detections=tuple(Detection(start + i, BOX, 1.0) for i in range(length)))


class ArrayFrameScorer:
    """Returns the i-th row of a fixed matrix regardless of track."""

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=float) for r in rows]

    def score_frame(self, track, index):
        return self.rows[index]


class ArrayWindowScorer:
    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=float) for r in rows]
        self.calls = []

    def score_window(self, track, start, length):
        self.calls.append((start, length))
        return self.rows[start]


def team_rows(labels, top=0.8):
    rows = []
    for label, conf in labels:
        row = np.full(3, (1 - conf) / 2)
        row[label.value] = conf
        rows.append(row)
    return rows


class TestTeamVote:
    def test_simple_majority(self):
        scorer = ArrayFrameScorer(team_rows([(TeamLabel.HOME, 0.8),
                                             (TeamLabel.HOME, 0.8),
                                             (TeamLabel.AWAY, 0.8)]))
        assert team_vote(make_track(length=3), scorer) is TeamLabel.HOME

    def test_single_frame_referee(self):
        scorer = ArrayFrameScorer(team_rows([(TeamLabel.REFEREE, 0.9)]))
        assert team_vote(make_track(length=1), scorer) is TeamLabel.REFEREE

    def test_count_tie_broken_by_confidence(self):
        labels = [(TeamLabel.HOME, 0.6)] * 5 + [(TeamLabel.AWAY, 0.9)] * 5
        scorer = ArrayFrameScorer(team_rows(labels))
        got = team_vote(make_track(length=10), scorer)
        # one-line oracle: argmax over (count, summed winning confidence)
        want = max(TeamLabel, key=lambda l: (
            sum(1 for lab, _ in labels if lab is l),
            sum(c for lab, c in labels if lab is l),
            -l.value))
        assert got is want is TeamLabel.AWAY

    def test_full_tie_resolved_by_enum_order(self):
        labels = [(TeamLabel.AWAY, 0.7), (TeamLabel.HOME, 0.7)]
        scorer = ArrayFrameScorer(team_rows(labels))
        assert team_vote(make_track(length=2), scorer) is TeamLabel.HOME

    @pytest.mark.parametrize("bad, message", [
        ([np.nan, 0.5, 0.5], "probability entries must be finite and lie in"),
        ([2.0, -1.0, 0.0], "probability entries must be finite and lie in"),
        ([0.5, 0.5, 0.1], "probabilities must sum to 1"),
        ([0.5, 0.5], r"expected 3 probabilities, got shape \(2,\)"),
    ])
    def test_bad_row_names_track_and_row(self, bad, message):
        rows = team_rows([(TeamLabel.AWAY, 0.8)] * 3)
        rows[1] = bad
        with pytest.raises(ValidationError,
                           match=rf"^team score row 1 of track 4 \(frame 11\): {message}"):
            team_vote(make_track(track_id=4, length=3, start=10), ArrayFrameScorer(rows))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 1000)),
                    min_size=1, max_size=12))
    def test_matches_a_row_at_a_time_vote(self, weights):
        rows = [np.array(w, dtype=float) / sum(w) for w in weights]
        counts, confidence = [0] * 3, [0.0] * 3
        for row in rows:
            counts[int(np.argmax(row))] += 1
            confidence[int(np.argmax(row))] += float(row.max())
        want = max(TeamLabel, key=lambda label: (counts[label.value], confidence[label.value]))
        assert team_vote(make_track(length=len(rows)), ArrayFrameScorer(rows)) is want


class TestWindowProbs:
    def test_k32_n30_gives_three_windows(self):
        assert window_starts(32, 30) == [0, 1, 2]

    def test_short_tracklet_single_window(self):
        assert window_starts(10, 30) == [0]

    def test_exact_length_single_window(self):
        assert window_starts(30, 30) == [0]

    def test_stride(self):
        assert window_starts(10, 4, stride=3) == [0, 3, 6]

    def test_window_probs_calls_scorer(self):
        uniform = np.full(4, 0.25)
        scorer = ArrayWindowScorer([uniform] * 8)
        params = IdentParams(window=3, stride=1)
        out = window_probs(make_track(length=8), scorer, params)
        assert len(out) == 6
        assert scorer.calls == [(s, 3) for s in range(6)]
        assert all(isinstance(p, ProbVector) for p in out)

    def test_short_tracklet_full_length_window(self):
        uniform = np.full(4, 0.25)
        scorer = ArrayWindowScorer([uniform])
        out = window_probs(make_track(length=2), scorer, IdentParams(window=30))
        assert len(out) == 1
        assert scorer.calls == [(0, 2)]


def frame_rows_with_null(null_probs, n_classes=4):
    rows = []
    for p in null_probs:
        row = np.full(n_classes, (1 - p) / (n_classes - 1))
        row[-1] = p
        rows.append(row)
    return rows


class TestJerseyVisible:
    def test_any_frame_below_theta(self):
        scorer = ArrayFrameScorer(frame_rows_with_null([0.99, 0.95, 0.005]))
        assert jersey_visible(make_track(length=3), scorer, theta=0.01) is True

    def test_all_frames_at_or_above_theta(self):
        scorer = ArrayFrameScorer(frame_rows_with_null([0.5, 0.2, 0.011]))
        assert jersey_visible(make_track(length=3), scorer, theta=0.01) is False

    def test_boundary_is_strict(self):
        scorer = ArrayFrameScorer(frame_rows_with_null([0.01]))
        assert jersey_visible(make_track(length=1), scorer, theta=0.01) is False

    @pytest.mark.parametrize("null", [np.nan, -3.0, 1.5])
    def test_bad_null_probability_rejected(self, null):
        rows = frame_rows_with_null([0.5, 0.5, 0.5])
        rows[2][-1] = null
        with pytest.raises(ValidationError, match=r"^frame score row 2 of track 3 \(frame 2\): "
                                                  "probability entries must be finite"):
            jersey_visible(make_track(track_id=3, length=3), ArrayFrameScorer(rows), theta=0.01)

    def test_rows_are_read_up_to_the_first_visible_frame(self):
        rows = frame_rows_with_null([0.5, 0.005, 0.5]) + [np.array([np.nan] * 4)]
        scorer = ArrayFrameScorer(rows)
        calls = []
        scorer.score_frame = lambda track, index: calls.append(index) or rows[index]
        assert jersey_visible(make_track(length=4), scorer, theta=0.01) is True
        assert calls == [0, 1]
        rows[0] = np.array([0.2, 0.2, 0.2, 0.5])  # read before the visible frame: checked
        with pytest.raises(ValidationError, match="^frame score row 0 of track 1 .*sum to 1"):
            jersey_visible(make_track(length=4), scorer, theta=0.01)

    def test_rows_of_two_widths_rejected(self):
        rows = frame_rows_with_null([0.5, 0.5]) + frame_rows_with_null([0.5], n_classes=3)
        with pytest.raises(ValidationError, match=r"^frame score row 2 .*expected 4 probabilities, "
                                                  r"got shape \(3,\)"):
            jersey_visible(make_track(length=3), ArrayFrameScorer(rows), theta=0.01)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           st.sampled_from([0.0033, 0.01, 0.09, 0.81]))
    def test_lowering_theta_never_enables_visibility(self, null_probs, theta):
        scorer = ArrayFrameScorer(frame_rows_with_null(null_probs))
        trk = make_track(length=len(null_probs))
        lower = theta / 3
        if not jersey_visible(trk, scorer, theta):
            assert not jersey_visible(trk, scorer, lower)


def pv(*values):
    return ProbVector(values=np.array(values, dtype=float))


VOCAB2 = ClassVocabulary(labels=(10, 20))  # classes 0, 1, null=2


class TestAggregate:
    def test_not_visible_returns_null_one_hot(self):
        identity, p_jn = aggregate([pv(0.9, 0.05, 0.05)], visible=False, vocab=VOCAB2)
        assert identity == VOCAB2.null_index
        assert p_jn.values.tolist() == [0.0, 0.0, 1.0]

    def test_postprocessing_drops_null_argmax_windows(self):
        P = [pv(0.6, 0.3, 0.1), pv(0.2, 0.2, 0.6)]
        identity, p_jn = aggregate(P, visible=True, vocab=VOCAB2)
        assert identity == 0
        assert np.allclose(p_jn.values, [0.6, 0.3, 0.1])

    def test_fallback_when_all_windows_argmax_null(self):
        identity, p_jn = aggregate([pv(0.1, 0.2, 0.7)], visible=True, vocab=VOCAB2)
        assert identity == 1  # argmax over non-null entries of the mean
        assert np.allclose(p_jn.values, [0.1, 0.2, 0.7])

    def test_strict_null_fallback(self):
        identity, _ = aggregate([pv(0.1, 0.2, 0.7)], visible=True, vocab=VOCAB2,
                                strict_null_fallback=True)
        assert identity == VOCAB2.null_index

    def test_empty_window_list_is_error(self):
        with pytest.raises(ValidationError):
            aggregate([], visible=True, vocab=VOCAB2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            aggregate([pv(0.5, 0.5)], visible=True, vocab=VOCAB2)

    def test_majority_method_votes_and_keeps_the_average(self):
        # Window argmaxes 1, 1, 0: the vote gives 1, the average gives 0.
        P = [pv(0.40, 0.45, 0.15)] * 2 + [pv(0.9, 0.05, 0.05)]
        avg_id, avg_p = aggregate(P, visible=True, vocab=VOCAB2)
        maj_id, maj_p = aggregate(P, visible=True, vocab=VOCAB2, method="majority")
        assert (avg_id, maj_id) == (0, 1)
        assert np.array_equal(maj_p.values, avg_p.values)

    def test_unknown_method_is_error(self):
        with pytest.raises(ValidationError):
            aggregate([pv(0.6, 0.3, 0.1)], visible=True, vocab=VOCAB2, method="mode")

    @given(st.integers(0, 3), st.integers(1, 8))
    def test_unanimous_windows_win(self, cls, count):
        vocab = ClassVocabulary(labels=(1, 2, 3, 4))
        values = np.full(5, 0.05)
        values[cls] = 0.8
        P = [ProbVector(values=values)] * count
        identity, _ = aggregate(P, visible=True, vocab=vocab)
        assert identity == cls

    def test_argmax_invariant_to_renormalization(self):
        # Scaling the averaged distribution cannot move its argmax.
        rng = np.random.default_rng(0)
        for _ in range(25):
            raw = rng.uniform(0.01, 1.0, size=(4, 5))
            stacked = raw / raw.sum(axis=1, keepdims=True)
            P = [ProbVector(values=v) for v in stacked]
            identity, p_jn = aggregate(P, visible=True, vocab=ClassVocabulary(labels=(1, 2, 3, 4)))
            scaled = p_jn.values * 7.3
            assert int(np.argmax(scaled)) == int(np.argmax(p_jn.values))
            if int(np.argmax(stacked.mean(axis=0))) != 4:  # no fallback path
                assert identity == int(np.argmax(
                    stacked[np.argmax(stacked, axis=1) != 4].mean(axis=0)))


class TestAggregateMajority:
    def test_mode_of_non_null_argmaxes(self):
        # argmaxes: 1, 1, null, 0 -> class 1
        P = [pv(0.1, 0.8, 0.1), pv(0.2, 0.7, 0.1), pv(0.1, 0.1, 0.8), pv(0.6, 0.3, 0.1)]
        assert aggregate_majority(P, visible=True) == 1

    def test_all_null_falls_back_like_aggregate(self):
        P = [pv(0.1, 0.2, 0.7), pv(0.15, 0.25, 0.6)]
        assert aggregate_majority(P, visible=True) == 1
        assert aggregate_majority(P, visible=True, strict_null_fallback=True) == 2

    def test_not_visible_null(self):
        assert aggregate_majority([pv(0.9, 0.05, 0.05)], visible=False) == 2

    def test_count_tie_goes_to_lower_class(self):
        P = [pv(0.8, 0.1, 0.1), pv(0.1, 0.8, 0.1)]
        assert aggregate_majority(P, visible=True) == 0

    def test_scaling_before_normalization_keeps_outcome(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.01, 1.0, size=(6, 4))
        stacked = raw / raw.sum(axis=1, keepdims=True)
        P = [ProbVector(values=v) for v in stacked]
        want = aggregate_majority(P, visible=True)
        scaled = raw * 0.37  # common positive factor, pre-normalization
        renorm = scaled / scaled.sum(axis=1, keepdims=True)
        assert aggregate_majority([ProbVector(values=v) for v in renorm], visible=True) == want


def _first_argmax(values):
    best = 0
    for j in range(1, len(values)):
        if values[j] > values[best]:
            best = j
    return best


def _reference_aggregation(windows, visible, method, postprocessing, strict_null):
    """Plain-list aggregation rule: (identity, unnormalised p_jn)."""
    null_idx = len(windows[0]) - 1
    if not visible:
        return null_idx, [0.0] * null_idx + [1.0]
    kept = [w for w in windows if _first_argmax(w) != null_idx] if postprocessing else windows
    if not kept:
        mean = [sum(col) / len(windows) for col in zip(*windows)]
        return (null_idx if strict_null else _first_argmax(mean[:null_idx])), mean
    mean = [sum(col) / len(kept) for col in zip(*kept)]
    if method == "avg":
        return _first_argmax(mean), mean
    votes = [_first_argmax(w) for w in kept]
    top = max(votes.count(v) for v in votes)
    return min(v for v in votes if votes.count(v) == top), mean


# Small integer weights make exact ties between classes and between votes common.
_window_weights = st.lists(st.lists(st.integers(1, 4), min_size=4, max_size=4),
                           min_size=1, max_size=7)


class TestAggregationReference:
    @settings(max_examples=150, deadline=None)
    @given(_window_weights, st.booleans(), st.booleans(), st.booleans())
    def test_every_variant_matches_reference(self, weights, visible, postprocessing, strict):
        windows = [[w / sum(row) for w in row] for row in weights]
        P = [ProbVector(values=np.array(w)) for w in windows]
        vocab = ClassVocabulary(labels=(1, 2, 3))
        options = dict(postprocessing=postprocessing, strict_null_fallback=strict)
        scorers = Scorers(team=ArrayFrameScorer(team_rows([(TeamLabel.HOME, 0.9)] * len(P))),
                          frame=ArrayFrameScorer(frame_rows_with_null(
                              [0.0 if visible else 0.5] * len(P))),
                          window=ArrayWindowScorer(windows))
        for method in ("avg", "majority"):
            want_id, want_mean = _reference_aggregation(windows, visible, method,
                                                        postprocessing, strict)
            want_p = np.asarray(want_mean) / sum(want_mean)
            if method == "avg":
                got_id, got_p = aggregate(P, visible, vocab, **options)
            else:
                got_id = aggregate_majority(P, visible, **options)
                got_p = aggregate(P, visible, vocab, **options)[1]
            assert got_id == want_id
            assert np.allclose(got_p.values, want_p, atol=1e-12)
            params = IdentParams(window=1, method=method, **options)
            (result,) = run_pipeline([make_track(length=len(P))], scorers, None, vocab, params,
                                     mask_rosters=False)
            assert result.identity_unmasked == want_id
            assert np.allclose(result.p_jn.values, want_p, atol=1e-12)


class TrackRows:
    """Frame, team or window scores per tracklet: row ``index`` of its track's list."""

    def __init__(self, rows):
        self.rows = {tid: [np.asarray(r, dtype=float) for r in rs] for tid, rs in rows.items()}
        self.calls = []

    def score_frame(self, track, index):
        return self.rows[track.track_id][index]

    def score_window(self, track, start, length):
        self.calls.append((track.track_id, start, length))
        return self.rows[track.track_id][start]


def _reference_identity(team_rows, null_probs, window_rows, params, home, away):
    """The paper's rule in plain lists: (team, identity, identity_unmasked, p_jn, starts).

    ``home`` and ``away`` admit each jersey class, then null, by a boolean.
    """
    counts, confidence = [0, 0, 0], [0.0, 0.0, 0.0]
    for row in team_rows:
        label = _first_argmax(row)
        counts[label] += 1
        confidence[label] += row[label]
    # More frames, then more summed confidence, then Home < Away < Referee.
    team = min(range(3), key=lambda j: (-counts[j], -confidence[j], j))
    k = len(team_rows)
    starts = [0] if k < params.window else list(range(0, k - params.window + 1, params.stride))
    visible = not params.visibility_filtering or any(p < params.theta for p in null_probs)
    unmasked, mean = _reference_aggregation([window_rows[s] for s in starts], visible,
                                            params.method, params.postprocessing,
                                            params.strict_null_fallback)
    p_jn = [m / sum(mean) for m in mean]
    if team == TeamLabel.REFEREE.value:
        return team, REFEREE_CLASS, REFEREE_CLASS, p_jn, starts
    mask = home if team == TeamLabel.HOME.value else away
    masked = _first_argmax([p if on else 0.0 for p, on in zip(p_jn, mask)])
    return team, masked, unmasked, p_jn, starts


_NUM_JERSEYS = 3  # jersey classes, plus null
# Small integer weights make exact count, confidence and class ties common.
_team_weights = st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any)


@st.composite
def _tracklet_scores(draw):
    """(team rows, null-probability levels, window rows) for one random tracklet."""
    k = draw(st.integers(1, 10))
    team = draw(st.lists(_team_weights, min_size=k, max_size=k))
    levels = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    # A null weight up to 9 makes windows, and whole tracklets, argmax null often.
    windows = draw(st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=_NUM_JERSEYS,
                                               max_size=_NUM_JERSEYS), st.integers(0, 9))
                            .map(lambda wn: wn[0] + [wn[1]]).filter(any),
                            min_size=k, max_size=k))
    return _normalised(team), levels, _normalised(windows)


def _normalised(weights):
    return [[w / sum(row) for w in row] for row in weights]


class TestIdentificationReference:
    """``run_pipeline`` against the plain-list rule on random tracklets, in both arms."""

    @settings(max_examples=150, deadline=None)
    @given(tracklets=st.lists(_tracklet_scores(), min_size=1, max_size=3),
           window=st.integers(1, 6), stride=st.integers(1, 3),
           theta=st.sampled_from([0.01, 0.25, 0.5]),
           method=st.sampled_from(["avg", "majority"]), postprocessing=st.booleans(),
           strict=st.booleans(), filtering=st.booleans(),
           home=st.lists(st.booleans(), min_size=_NUM_JERSEYS, max_size=_NUM_JERSEYS),
           away=st.lists(st.booleans(), min_size=_NUM_JERSEYS, max_size=_NUM_JERSEYS))
    def test_run_pipeline_matches_reference(self, tracklets, window, stride, theta, method,
                                            postprocessing, strict, filtering, home, away):
        params = IdentParams(theta=theta, window=window, stride=stride, method=method,
                             postprocessing=postprocessing, strict_null_fallback=strict,
                             visibility_filtering=filtering)
        vocab = ClassVocabulary(labels=tuple(range(1, _NUM_JERSEYS + 1)))
        # Null probabilities well below, just below, at, just above and well above theta.
        null_at = [0.0, np.nextafter(theta, 0.0), theta, np.nextafter(theta, 1.0), 0.9]
        tracks, team, frame, windows, expected = [], {}, {}, {}, {}
        for tid, (team_rows, levels, window_rows) in enumerate(tracklets):
            null_probs = [float(null_at[level]) for level in levels]
            tracks.append(make_track(track_id=tid, length=len(team_rows)))
            team[tid], windows[tid] = team_rows, window_rows
            frame[tid] = frame_rows_with_null(null_probs, _NUM_JERSEYS + 1)
            expected[tid] = _reference_identity(team_rows, null_probs, window_rows, params,
                                                home + [True], away + [True])
        rosters = Rosters(
            home=build_roster_vector([n for n, on in zip(vocab.labels, home) if on], vocab),
            away=build_roster_vector([n for n, on in zip(vocab.labels, away) if on], vocab))
        for mask_rosters in (False, True):
            scorers = Scorers(team=TrackRows(team), frame=TrackRows(frame),
                              window=TrackRows(windows))
            results = run_pipeline(tracks, scorers, rosters, vocab, params,
                                   mask_rosters=mask_rosters)
            assert [r.track_id for r in results] == list(expected)
            for r in results:
                want_team, masked, unmasked, p_jn, starts = expected[r.track_id]
                assert r.team is TeamLabel(want_team)
                assert r.identity_unmasked == unmasked
                assert r.identity == (masked if mask_rosters else unmasked)
                assert np.allclose(r.p_jn.values, p_jn, rtol=0.0, atol=1e-12)
            length = {t.track_id: min(window, len(t)) for t in tracks}
            assert scorers.window.calls == [(tid, start, length[tid])
                                            for tid, (*_, starts) in expected.items()
                                            for start in starts]


class TestIdentify:
    def test_mask_removes_top_class(self):
        v = build_roster_vector({20}, VOCAB2)  # mask [0, 1, 1]
        got = identify(make_track(), TeamLabel.HOME, pv(0.5, 0.3, 0.2), v, v)
        assert got == 1

    def test_identity_mask_keeps_argmax(self):
        v = build_roster_vector({10, 20}, VOCAB2)  # mask [1, 1, 1]
        got = identify(make_track(), TeamLabel.HOME, pv(0.5, 0.3, 0.2), v, v)
        assert got == 0

    def test_away_uses_away_mask(self):
        v_h = build_roster_vector({10}, VOCAB2)
        v_a = build_roster_vector({20}, VOCAB2)
        got = identify(make_track(), TeamLabel.AWAY, pv(0.5, 0.3, 0.2), v_h, v_a)
        assert got == 1

    def test_referee_sentinel(self):
        v = build_roster_vector({10}, VOCAB2)
        got = identify(make_track(), TeamLabel.REFEREE, pv(0.5, 0.3, 0.2), v, v)
        assert got == REFEREE_CLASS

    def test_dimension_mismatch(self):
        vocab3 = ClassVocabulary(labels=(1, 2, 3))
        v = build_roster_vector({1}, vocab3)
        with pytest.raises(ValidationError):
            identify(make_track(), TeamLabel.HOME, pv(0.5, 0.3, 0.2), v, v)

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6),
        st.sets(st.sampled_from([1, 2, 3, 4, 5]), max_size=5),
        st.sampled_from([TeamLabel.HOME, TeamLabel.AWAY]),
    )
    def test_masked_identity_always_on_roster_or_null(self, weights, roster, team):
        vocab = ClassVocabulary(labels=(1, 2, 3, 4, 5))
        arr = np.array(weights)
        p_jn = ProbVector(values=arr / arr.sum())
        v = build_roster_vector(roster, vocab)
        got = identify(make_track(), team, p_jn, v, v)
        assert v.mask[got] == 1
        admissible = set(roster) | {None}
        assert vocab.label_of(got) in admissible


class TestFileScorers:
    def _write_jsonl(self, path, records):
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    def test_frame_scorer_round_trip(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        self._write_jsonl(path, [
            {"track_id": 1, "frame": 0, "probs": [0.7, 0.2, 0.1]},
            {"track_id": 1, "frame": 1, "probs": [0.1, 0.2, 0.7]},
        ])
        scorer = FileFrameScorer(path)
        trk = make_track(track_id=1, length=2)
        assert scorer.score_frame(trk, 0).tolist() == [0.7, 0.2, 0.1]
        assert scorer.score_frame(trk, 1).tolist() == [0.1, 0.2, 0.7]

    def test_missing_coverage_names_track(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        self._write_jsonl(path, [{"track_id": 1, "frame": 0, "probs": [1.0, 0.0]}])
        scorer = FileFrameScorer(path)
        with pytest.raises(ScorerCoverageError, match=r"^no frame score for track 9 at frame 0$"):
            scorer.score_frame(make_track(track_id=9, length=1), 0)

    def test_window_scorer_keyed_by_first_frame(self, tmp_path):
        path = tmp_path / "windows.jsonl"
        self._write_jsonl(path, [
            {"track_id": 4, "window_start": 10, "probs": [0.9, 0.05, 0.05]},
        ])
        scorer = FileWindowScorer(path)
        trk = make_track(track_id=4, length=3, start=10)
        assert scorer.score_window(trk, 0, 3).tolist() == [0.9, 0.05, 0.05]
        with pytest.raises(ScorerCoverageError, match="track 4"):
            scorer.score_window(trk, 1, 2)

    def test_team_scorer(self, tmp_path):
        path = tmp_path / "teams.jsonl"
        self._write_jsonl(path, [{"track_id": 2, "frame": 0, "team_probs": [0.1, 0.8, 0.1]}])
        scorer = FileTeamScorer(path)
        assert scorer.score_frame(make_track(track_id=2, length=1), 0).tolist() == [0.1, 0.8, 0.1]

    def test_rows_found_in_any_file_order(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        self._write_jsonl(path, [
            {"track_id": 7, "frame": 1, "probs": [0.0, 1.0]},
            {"track_id": -2, "frame": 3, "probs": [0.5, 0.5]},
            {"track_id": 7, "frame": 0, "probs": [1.0, 0.0]},
        ])
        scorer = FileFrameScorer(path)
        trk = make_track(track_id=7, length=2)
        assert scorer.score_frame(trk, 0).tolist() == [1.0, 0.0]
        assert scorer.score_frame(trk, 1).tolist() == [0.0, 1.0]
        assert scorer.score_frame(make_track(track_id=-2, length=1, start=3), 0).tolist() == [0.5, 0.5]
        assert scorer.scores.values.shape == (3, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(-5, 5), st.integers(0, 2**32 - 1)),
                           st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3), max_size=30),
           st.randoms())
    def test_any_order_round_trip(self, tmp_path_factory, rows, rng):
        rows = {key: [w / sum(weights) for w in weights] for key, weights in rows.items()}
        lines = []
        for (track_id, frame), probs in rng.sample(sorted(rows.items()), len(rows)):
            lines.append(json.dumps({"track_id": track_id, "frame": frame, "probs": probs}))
            if rng.random() < 0.2:
                lines.append("")
        path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        path.write_text("\n".join(lines) + "\n")
        scores = FileFrameScorer(path).scores
        for (track_id, frame), probs in rows.items():
            assert scores.get(track_id, frame).tolist() == probs
            if (track_id, frame + 1) not in rows:
                assert scores.get(track_id, frame + 1) is None
        assert scores.get(6, 0) is None

    def test_boolean_words_outside_probabilities_accepted(self, tmp_path):
        path = tmp_path / "teams.jsonl"
        self._write_jsonl(path, [{"track_id": 2, "frame": 0, "team_probs": [0.1, 0.8, 0.1],
                                  "source": "true", "checked": False}])
        scorer = FileTeamScorer(path)
        assert scorer.score_frame(make_track(track_id=2, length=1), 0).tolist() == [0.1, 0.8, 0.1]

    def test_rows_are_read_only(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        self._write_jsonl(path, [{"track_id": 1, "frame": 0, "probs": [0.5, 0.5]}])
        probs = FileFrameScorer(path).score_frame(make_track(track_id=1, length=1), 0)
        with pytest.raises(ValueError):
            probs[0] = 1.0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "teams.jsonl"
        path.write_text('\n{"track_id": 2, "frame": 0, "team_probs": [0.1, 0.8, 0.1]}\n   \n\n'
                        '{"track_id": 2, "frame": 1, "team_probs": [0.8, 0.1, 0.1]}\n\n')
        scorer = FileTeamScorer(path)
        trk = make_track(track_id=2, length=2)
        assert scorer.score_frame(trk, 1).tolist() == [0.8, 0.1, 0.1]
        assert len(scorer.scores.values) == 2

    def test_empty_file_covers_nothing(self, tmp_path):
        path = tmp_path / "windows.jsonl"
        path.write_text("")
        scorer = FileWindowScorer(path)
        assert scorer.scores.values.shape == (0, 0)
        with pytest.raises(ScorerCoverageError,
                           match=r"^no window score for track 1 starting at frame 0$"):
            scorer.score_window(make_track(track_id=1, length=1), 0, 1)

    def test_team_coverage_error_text(self, tmp_path):
        path = tmp_path / "teams.jsonl"
        self._write_jsonl(path, [{"track_id": 2, "frame": 0, "team_probs": [0.1, 0.8, 0.1]}])
        scorer = FileTeamScorer(path)
        with pytest.raises(ScorerCoverageError, match=r"^no team score for track 2 at frame 4$"):
            scorer.score_frame(make_track(track_id=2, length=1, start=4), 0)
        with pytest.raises(ScorerCoverageError, match=r"^no team score for track 5 at frame 0$"):
            scorer.score_frame(make_track(track_id=5, length=1), 0)

    # Line 1 is valid; the second record, on line 3 after a blank line, is bad.
    @pytest.mark.parametrize("cls, bad, error, message", [
        (FileFrameScorer, '{"track_id": 1, "frame": 1, "probs": [NaN, 0.5, 0.5]}',
         ValidationError, "finite and lie in"),
        (FileFrameScorer, '{"track_id": 1, "frame": 1, "probs": [Infinity, 0.0, 0.0]}',
         ValidationError, "finite and lie in"),
        (FileFrameScorer, '{"track_id": 1, "frame": 1, "probs": [1.5, -0.5, 0.0]}',
         ValidationError, "finite and lie in"),
        (FileFrameScorer, '{"track_id": 1, "frame": 1, "probs": [0.5, 0.25, 0.2]}',
         ValidationError, "sum to 1"),
        (FileFrameScorer, '{"track_id": 1, "frame": 1, "probs": [0.5, 0.5]}',
         ValidationError, "expected 3 probabilities, got 2"),
        (FileFrameScorer, '{"track_id": 1, "frame": 0, "probs": [0.0, 0.0, 1.0]}',
         ValidationError, "duplicate key track_id 1, frame 0 .first on line 1."),
        (FileWindowScorer, '{"track_id": 1, "window_start": 0, "probs": [0.0, 0.0, 1.0]}',
         ValidationError, "duplicate key track_id 1, window_start 0"),
        (FileTeamScorer, '{"track_id": 1, "frame": 1, "team_probs": [0.5, 0.5]}',
         ValidationError, "expected 3 probabilities, got 2"),
        (FileFrameScorer, '{"track_id": 1, "frame": 1, "probs": [0.5, 0.5, 0.0]',
         ParseError, ""),
        (FileFrameScorer, '{"track_id": 1, "probs": [0.5, 0.5, 0.0]}',
         ParseError, "missing field 'frame'"),
        (FileFrameScorer, '{"track_id": 1, "frame": 1, "probs": ["a", "b", "c"]}',
         ParseError, ""),
        (FileFrameScorer, '{"track_id": 1, "frame": -1, "probs": [0.5, 0.5, 0.0]}',
         ParseError, "out of range"),
        (FileFrameScorer, '{"track_id": 1, "frame": 1.5, "probs": [0.5, 0.5, 0.0]}',
         ParseError, "must be integers"),
        (FileWindowScorer, '{"track_id": "1", "window_start": 1, "probs": [0.5, 0.5, 0.0]}',
         ParseError, "must be integers"),
        (FileTeamScorer, '{"track_id": 1, "frame": 1, "team_probs": [true, false, false]}',
         ParseError, "not booleans"),
        (FileFrameScorer, '{"track_id": 1, "frame": 1, "probs": [0.0, 0.0, true]}',
         ParseError, "not booleans"),
    ])
    def test_rejection_names_file_and_line(self, tmp_path, cls, bad, error, message):
        key, field = (("window_start", "probs") if cls is FileWindowScorer
                      else ("frame", "team_probs") if cls is FileTeamScorer else ("frame", "probs"))
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps({"track_id": 1, key: 0, field: [0.25, 0.25, 0.5]}) + "\n\n"
                        + bad + "\n")
        with pytest.raises(error, match=f"^{path}:3: .*{message}"):
            cls(path)

    def test_opposite_infinities_raise_without_warning(self, tmp_path):
        # The row sum inf + -inf is an invalid value to numpy, which would warn.
        path = tmp_path / "t.jsonl"
        path.write_text('{"track_id": 1, "frame": 0, "team_probs": [Infinity, -Infinity, 1.0]}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as raised:
                FileTeamScorer(path)
        assert str(raised.value) == f"{path}:1: probability entries must be finite and lie in [0, 1]"

    def test_first_bad_line_reported(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        self._write_jsonl(path, [
            {"track_id": 1, "frame": 0, "probs": [0.5, 0.5]},
            {"track_id": 1, "frame": 2, "probs": [0.5, 0.5]},
            {"track_id": 1, "frame": 1, "probs": [0.5, 0.6]},
            {"track_id": 1, "frame": 2, "probs": [0.5, 0.5]},
            {"track_id": 1, "frame": 1, "probs": [0.5, 0.5]},
            {"track_id": 1, "frame": 3, "probs": [0.9, 0.9]},
        ])
        with pytest.raises(ValidationError, match=f"^{path}:3: .*sum to 1"):
            FileFrameScorer(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        with pytest.raises(ValidationError, match=f"^{path}:3: duplicate key .*first on line 2"):
            FileFrameScorer(path)


def read_in_thread(path, *args):
    """ScoreFile(path, *args) in a daemon thread: its error, or a failure after 10 s.

    A reader that opened the file twice would block on a named pipe, whose
    writer has gone; the daemon thread lets the test fail instead of hang.
    """
    outcome = []

    def read():
        try:
            outcome.append(ScoreFile(path, *args))
        except (ParseError, ValidationError) as exc:
            outcome.append(exc)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=10)
    assert not reader.is_alive(), f"reading {path} had not finished after 10 s"
    return outcome[0]


class TestOnePassRead:
    """A score file is read once: a named pipe names the bad line, and line
    numbers count the blank lines skipped on the way."""

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.6]], "probabilities must sum to 1"),
        ([[0.5, 0.5], [0.25, 0.75]], r"duplicate key track_id 1, frame 0 \(first on line 3\)"),
    ])
    def test_named_pipe(self, tmp_path, rows, message):
        pipe = tmp_path / "scores.pipe"
        os.mkfifo(pipe)
        text = "\n\n" + "".join(json.dumps({"track_id": 1, "frame": 0, "probs": probs}) + "\n\n"
                                  for probs in rows)
        # Opening a pipe to write blocks until it is opened to read.
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        error = read_in_thread(pipe, "frame", "probs")
        assert isinstance(error, ValidationError)
        assert re.match(rf"^{pipe}:{1 + 2 * len(rows)}: {message}", str(error))
        writer.join(timeout=10)
        assert not writer.is_alive()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=3),
           st.lists(st.lists(st.sampled_from(["", " "]), max_size=2), min_size=1, max_size=8),
           st.data())
    def test_line_matches_enumerate(self, tmp_path_factory, before, gaps, data):
        """A bad value, and a repeated key, are named at the line enumerate gives them."""
        lines = list(before)
        for frame, gap in enumerate(gaps):
            lines.append(json.dumps({"track_id": 1, "frame": frame, "probs": [0.5, 0.5]}))
            lines += gap
        records = [n for n, line in enumerate(lines, 1) if line.strip()]
        path = tmp_path_factory.getbasetemp() / "lines.jsonl"
        bad = data.draw(st.integers(0, len(records) - 1))
        cases = [([0.5, 0.6], bad, "probabilities must sum")]
        if bad:  # the first record has no earlier key to repeat
            cases.append(([0.5, 0.5], 0, rf"duplicate key .* \(first on line {records[0]}\)"))
        for probs, frame, message in cases:
            changed = list(lines)
            changed[records[bad] - 1] = json.dumps({"track_id": 1, "frame": frame, "probs": probs})
            path.write_text("\n".join(changed) + "\n")
            with pytest.raises(ValidationError, match=f"^{path}:{records[bad]}: {message}"):
                ScoreFile(path, "frame", "probs")


class TestRunPipeline:
    def _scorers(self, team_label, window_rows, null_probs):
        return Scorers(
            team=ArrayFrameScorer(team_rows([(team_label, 0.9)] * 50)),
            frame=ArrayFrameScorer(frame_rows_with_null(null_probs)),
            window=ArrayWindowScorer(window_rows),
        )

    def test_empty_track_list(self):
        scorers = self._scorers(TeamLabel.HOME, [], [])
        assert run_pipeline([], scorers, None, VOCAB2, IdentParams(), mask_rosters=False) == []

    def test_referee_gets_sentinel_in_both_arms(self):
        scorers = self._scorers(TeamLabel.REFEREE, [np.array([0.7, 0.2, 0.1])] * 3, [0.005] * 3)
        rosters = Rosters(home=build_roster_vector({10}, VOCAB2),
                          away=build_roster_vector({20}, VOCAB2))
        params = IdentParams(window=3)
        for mask in (False, True):
            (result,) = run_pipeline([make_track(length=3)], scorers, rosters, VOCAB2,
                                     params, mask_rosters=mask)
            assert result.identity == REFEREE_CLASS

    def test_masking_corrects_off_roster_confusion(self):
        # Windows favour class 1 (jersey 20) but the home roster only has 10.
        windows = [np.array([0.35, 0.55, 0.10])] * 4
        scorers = self._scorers(TeamLabel.HOME, windows, [0.005] * 6)
        rosters = Rosters(home=build_roster_vector({10}, VOCAB2),
                          away=build_roster_vector({10, 20}, VOCAB2))
        params = IdentParams(window=3)
        (unmasked,) = run_pipeline([make_track(length=6)], scorers, rosters, VOCAB2,
                                   params, mask_rosters=False)
        (masked,) = run_pipeline([make_track(length=6)], scorers, rosters, VOCAB2,
                                 params, mask_rosters=True)
        assert unmasked.identity == 1
        assert masked.identity == 0

    def test_invisible_tracklet_stays_null_under_masking(self):
        windows = [np.array([0.6, 0.3, 0.1])] * 4
        scorers = self._scorers(TeamLabel.HOME, windows, [0.9] * 6)
        rosters = Rosters(home=build_roster_vector({10}, VOCAB2),
                          away=build_roster_vector({20}, VOCAB2))
        (result,) = run_pipeline([make_track(length=6)], scorers, rosters, VOCAB2,
                                 IdentParams(window=3), mask_rosters=True)
        assert result.identity == VOCAB2.null_index

    def test_majority_method_changes_unmasked_identity(self):
        # Most windows argmax class 1, but their probabilities keep class 0's
        # average higher; avg and majority must disagree.
        windows = [np.array([0.40, 0.45, 0.15])] * 3 + [np.array([0.80, 0.05, 0.15])] * 2
        scorers = self._scorers(TeamLabel.HOME, windows, [0.005] * 7)
        track_ = make_track(length=7)
        avg = run_pipeline([track_], scorers, None, VOCAB2,
                           IdentParams(window=3, method="avg"), mask_rosters=False)
        maj = run_pipeline([track_], scorers, None, VOCAB2,
                           IdentParams(window=3, method="majority"), mask_rosters=False)
        assert avg[0].identity == 0
        assert maj[0].identity == 1

    @pytest.mark.parametrize("method", ["avg", "majority"])
    def test_one_pass_fills_both_arms(self, method):
        # Majority and the mean disagree on the unmasked answer, and the home
        # roster (jersey 10 only) overrides both.
        windows = [np.array([0.40, 0.45, 0.15])] * 3 + [np.array([0.80, 0.05, 0.15])] * 2
        scorers = self._scorers(TeamLabel.HOME, windows, [0.005] * 7)
        rosters = Rosters(home=build_roster_vector({20}, VOCAB2),
                          away=build_roster_vector({10}, VOCAB2))
        params = IdentParams(window=3, method=method)
        tracks = [make_track(length=7)]
        (masked,) = run_pipeline(tracks, scorers, rosters, VOCAB2, params, mask_rosters=True)
        (unmasked,) = run_pipeline(tracks, scorers, rosters, VOCAB2, params, mask_rosters=False)
        assert masked.identity_unmasked == unmasked.identity == unmasked.identity_unmasked
        assert masked.identity == 1
        assert unmasked.identity == (0 if method == "avg" else 1)
        assert masked.team == unmasked.team
        assert np.array_equal(masked.p_jn.values, unmasked.p_jn.values)

    def test_masking_without_rosters_is_error(self):
        scorers = self._scorers(TeamLabel.HOME, [np.array([0.6, 0.3, 0.1])], [0.005])
        with pytest.raises(ValidationError):
            run_pipeline([make_track(length=1)], scorers, None, VOCAB2, IdentParams(window=1))

