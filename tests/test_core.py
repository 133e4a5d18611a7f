import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rinktrack.core import (
    BoundingBox,
    ClassVocabulary,
    Detection,
    ParseError,
    ProbVector,
    Track,
    ValidationError,
    build_roster_vector,
    default_vocabulary,
    parse_detection_rows,
    rows_to_tracks,
    serialize_detection_rows,
)


class TestBoundingBox:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValidationError):
            BoundingBox(5, 5, -2, 10)
        with pytest.raises(ValidationError):
            BoundingBox(5, 5, 10, 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            BoundingBox(float("nan"), 0, 1, 1)

    def test_derived_geometry(self):
        box = BoundingBox(10, 20, 30, 40)
        assert box.x2 == 40 and box.y2 == 60
        assert box.area == 1200
        assert box.center == (25, 40)


class TestDetectionAndTrack:
    def test_confidence_bounds(self):
        box = BoundingBox(0, 0, 1, 1)
        with pytest.raises(ValidationError):
            Detection(frame=0, box=box, confidence=1.5)
        with pytest.raises(ValidationError):
            Detection(frame=-1, box=box, confidence=0.5)

    def test_track_frames_strictly_increasing(self):
        box = BoundingBox(0, 0, 1, 1)
        d0 = Detection(0, box, 1.0)
        d1 = Detection(1, box, 1.0)
        Track(track_id=1, detections=(d0, d1))
        with pytest.raises(ValidationError):
            Track(track_id=1, detections=(d1, d0))
        with pytest.raises(ValidationError):
            Track(track_id=1, detections=(d0, d0))
        with pytest.raises(ValidationError):
            Track(track_id=1, detections=())


class TestDetectionFile:
    def test_raw_detection_row(self):
        (tid, det), = parse_detection_rows("1,-1,10,20,30,40,0.9\n")
        assert tid == -1
        assert det.frame == 1
        assert (det.box.x, det.box.y, det.box.w, det.box.h) == (10, 20, 30, 40)
        assert det.confidence == 0.9

    def test_ground_truth_row_carries_id(self):
        (tid, det), = parse_detection_rows("1,7,0,0,10,10,1.0\n")
        assert tid == 7
        assert det.frame == 1

    def test_negative_width_is_validation_error(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_detection_rows("1,3,5,5,-2,10,1.0\n")

    def test_malformed_row_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_detection_rows("1,-1,10,20,30,40,0.9\n1,-1,oops,20,30,40,0.9\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_detection_rows("1,2,3\n")

    def test_round_trip_is_byte_exact(self):
        rows = parse_detection_rows("0,-1,10,20,30,40,0.9\n3,7,1.5,2.25,10,12,1.0\n")
        canonical = serialize_detection_rows(rows)
        assert serialize_detection_rows(parse_detection_rows(canonical)) == canonical

    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5000),
            st.integers(min_value=-1, max_value=99),
            st.floats(-1e5, 1e5, allow_nan=False),
            st.floats(-1e5, 1e5, allow_nan=False),
            st.floats(0.001, 1e4, allow_nan=False),
            st.floats(0.001, 1e4, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
        max_size=30,
    ))
    def test_round_trip_property(self, raw):
        rows = [(tid, Detection(f, BoundingBox(x, y, w, h), c))
                for f, tid, x, y, w, h, c in raw]
        canonical = serialize_detection_rows(rows)
        assert serialize_detection_rows(parse_detection_rows(canonical)) == canonical

    def test_rows_to_tracks_groups_and_sorts(self):
        text = "2,5,0,0,10,10,1.0\n1,5,0,0,10,10,1.0\n1,-1,9,9,9,9,0.5\n4,6,0,0,10,10,1.0\n"
        tracks = rows_to_tracks(parse_detection_rows(text))
        assert [t.track_id for t in tracks] == [5, 6]
        assert tracks[0].frames == [1, 2]


class TestVocabulary:
    def test_default_is_85_plus_null(self):
        vocab = default_vocabulary()
        assert len(vocab.labels) == 85
        assert vocab.num_classes == 86
        assert vocab.null_index == 85

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            ClassVocabulary(labels=(1, 2, 2))

    def test_labels_must_be_two_digit(self):
        with pytest.raises(ValidationError):
            ClassVocabulary(labels=(1, 100))

    def test_label_lookup(self):
        vocab = ClassVocabulary(labels=(12, 34, 88))
        assert vocab.index_of(34) == 1
        assert vocab.label_of(1) == 34
        assert vocab.label_of(vocab.null_index) is None
        with pytest.raises(ValidationError):
            vocab.index_of(99)


class TestProbVector:
    def test_accepts_normalized(self):
        p = ProbVector(values=np.array([0.25, 0.25, 0.5]))
        assert p.argmax() == 2
        assert p.null_index == 2

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            ProbVector(values=np.array([0.5, 0.5, 0.1]))
        # within tolerance is fine
        ProbVector(values=np.array([0.5, 0.5 + 5e-7]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ProbVector(values=np.array([1.2, -0.2]))

    def test_rejects_nonfinite(self):
        # NaN fails neither range comparison and makes the sum NaN, which
        # compares False against the tolerance: it used to construct.
        for bad in ([np.nan, 0.25, 0.25, 0.25], [np.nan, 0.5, 0.5], [np.inf, 0.0], [-np.inf, 1.0]):
            with pytest.raises(ValidationError):
                ProbVector(values=np.array(bad))
        with pytest.raises(ValidationError, match="finite"):
            ProbVector(values=np.array([np.nan, 0.25, 0.25, 0.25]))

    def test_values_frozen(self):
        p = ProbVector(values=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.values[0] = 1.0


class TestRosterVector:
    def test_definition_applied_directly(self):
        vocab = ClassVocabulary(labels=(12, 34, 88))
        rv = build_roster_vector({12, 88}, vocab)
        assert rv.mask.tolist() == [1, 0, 1, 1]

    def test_empty_roster_admits_only_null(self):
        vocab = ClassVocabulary(labels=(12, 34, 88))
        assert build_roster_vector(set(), vocab).mask.tolist() == [0, 0, 0, 1]

    def test_out_of_vocabulary_number_rejected(self):
        vocab = ClassVocabulary(labels=(12, 34, 88))
        with pytest.raises(ValidationError, match="99"):
            build_roster_vector({99}, vocab)

    @given(st.sets(st.sampled_from(range(0, 40)), max_size=15))
    def test_null_always_admissible(self, roster):
        vocab = ClassVocabulary(labels=tuple(range(0, 40)))
        rv = build_roster_vector(roster, vocab)
        assert rv.mask[vocab.null_index] == 1
        for j, label in enumerate(vocab.labels):
            assert rv.mask[j] == (1 if label in roster else 0)
