import json

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
    ScorerCoverageError,
    Scorers,
    aggregate,
    aggregate_majority,
    collapse_team_colors,
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
        with pytest.raises(ScorerCoverageError, match="track 9"):
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
    ])
    def test_rejection_names_file_and_line(self, tmp_path, cls, bad, error, message):
        key, field = (("window_start", "probs") if cls is FileWindowScorer
                      else ("frame", "team_probs") if cls is FileTeamScorer else ("frame", "probs"))
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps({"track_id": 1, key: 0, field: [0.25, 0.25, 0.5]}) + "\n\n"
                        + bad + "\n")
        with pytest.raises(error, match=f"^{path}:3: .*{message}"):
            cls(path)

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

    def test_masking_without_rosters_is_error(self):
        scorers = self._scorers(TeamLabel.HOME, [np.array([0.6, 0.3, 0.1])], [0.005])
        with pytest.raises(ValidationError):
            run_pipeline([make_track(length=1)], scorers, None, VOCAB2, IdentParams(window=1))


class TestCollapseTeamColors:
    def test_default_mapping(self):
        probs = {"blue": 0.3, "red": 0.2, "yellow": 0.1, "white": 0.25, "ref": 0.15}
        out = collapse_team_colors(probs)
        assert out.tolist() == pytest.approx([0.6, 0.25, 0.15])

    def test_custom_mapping(self):
        out = collapse_team_colors({"green": 0.9, "white": 0.1}, {"green": "referee"})
        assert out.tolist() == pytest.approx([0.0, 0.1, 0.9])
