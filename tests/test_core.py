import dataclasses
import math
import pickle
import re

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
    RosterVector,
    Track,
    ValidationError,
    build_roster_vector,
    default_vocabulary,
    first_bad_row,
    parse_detection_file,
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


class TestBoxAndDetectionConstruction:
    """The hand-written constructors behave as the generated dataclass ones did."""

    @pytest.mark.parametrize("args, message", [
        ((float("nan"), 0, 1, 1), "box coordinates must be finite: BoundingBox(x=nan, y=0, w=1, h=1)"),
        ((0, np.float64("inf"), 1.0, 2.5),
         "box coordinates must be finite: BoundingBox(x=0, y=np.float64(inf), w=1.0, h=2.5)"),
        ((1, 2, 0, 3), "box width/height must be positive: w=0, h=3"),
        ((1, 2, 3.5, -1.5), "box width/height must be positive: w=3.5, h=-1.5"),
    ])
    def test_box_error_messages(self, args, message):
        with pytest.raises(ValidationError) as info:
            BoundingBox(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("frame, confidence, message", [
        (-1, 0.5, "frame index must be >= 0, got -1"),
        (3, 1.5, "confidence must be in [0, 1], got 1.5"),
        (3, float("nan"), "confidence must be in [0, 1], got nan"),
    ])
    def test_detection_error_messages(self, frame, confidence, message):
        with pytest.raises(ValidationError) as info:
            Detection(frame, BoundingBox(0, 0, 1, 1), confidence)
        assert str(info.value) == message

    def test_keyword_construction_and_repr(self):
        box = BoundingBox(h=4.0, w=3.0, y=2.0, x=1.0)
        det = Detection(confidence=0.5, box=box, frame=7)
        assert (box.x, box.y, box.w, box.h) == (1.0, 2.0, 3.0, 4.0)
        assert (det.frame, det.box, det.confidence) == (7, box, 0.5)
        assert repr(det) == ("Detection(frame=7, box=BoundingBox(x=1.0, y=2.0, w=3.0, h=4.0), "
                             "confidence=0.5)")
        with pytest.raises(TypeError):
            BoundingBox(1.0, 2.0, 3.0)
        with pytest.raises(TypeError):
            Detection(frame=1, box=box, confidence=0.5, extra=1)

    def test_replace_runs_the_checks(self):
        box = BoundingBox(np.float64(1.5), 2.0, 3.0, 4.0)
        moved = dataclasses.replace(box, y=9.0)
        assert moved == BoundingBox(1.5, 9.0, 3.0, 4.0) and type(moved.x) is np.float64
        det = dataclasses.replace(Detection(2, box, 0.5), confidence=1.0)
        assert det == Detection(2, box, 1.0)
        with pytest.raises(ValidationError, match="positive"):
            dataclasses.replace(box, w=0.0)
        with pytest.raises(ValidationError, match="confidence"):
            dataclasses.replace(det, confidence=2.0)

    def test_pickle_round_trip(self):
        det = Detection(5, BoundingBox(np.float64(1.25), 2.0, 3.0, 4.0), 0.75)
        again = pickle.loads(pickle.dumps(det))
        assert again == det and hash(again) == hash(det)
        assert type(again.box.x) is np.float64 and type(again.box.y) is float

    def test_frozen(self):
        det = Detection(1, BoundingBox(0, 0, 1, 1), 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            det.box.x = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            det.frame = 2
        assert not hasattr(det, "__dict__")  # still slotted


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


_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf|infinity|nan)", re.I)


def reference_parse(text):
    """The detection CSV rules, written out plainly: ``frame,id,x,y,w,h,conf``
    rows of exactly seven fields, blank lines skipped; integer frame >= 0
    and id; finite box with positive size; confidence in [0, 1].

    Returns the rows as tuples, or ``("line N", error type)`` for the first line
    that breaks a rule: the field count and field syntax, and a negative
    frame, are parse errors; box and confidence values are validation errors.
    """
    rows = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip(" "):
            continue
        fields = [f.strip(" ") for f in line.split(",")]
        if len(fields) != 7:
            return f"line {lineno}", ParseError
        if not (_INT.fullmatch(fields[0]) and _INT.fullmatch(fields[1])
                and all(_FLOAT.fullmatch(f) for f in fields[2:7])):
            return f"line {lineno}", ParseError
        frame, track_id = int(fields[0]), int(fields[1])
        if frame < 0 or frame >= 2**63 or not -2**63 <= track_id < 2**63:
            return f"line {lineno}", ParseError
        x, y, w, h, conf = (float(f) for f in fields[2:7])
        if not all(math.isfinite(v) for v in (x, y, w, h)) or w <= 0 or h <= 0:
            return f"line {lineno}", ValidationError
        if not 0.0 <= conf <= 1.0:
            return f"line {lineno}", ValidationError
        rows.append((track_id, frame, x, y, w, h, conf))
    return rows


# Field text for any column: numbers of both kinds, edge values and junk.
_TOKEN = st.one_of(
    st.integers(-3, 99).map(str),
    st.floats(-1e4, 1e4).map(repr),
    st.floats().map(repr),  # inf and nan included
    st.sampled_from(["", "-0", "+3", "007", " 7 ", "1 2", "1.5", "1e3", "0x1", ".", "1.", ".5",
                     "1e", "-", "--1", "1..2", "+inf", "Infinity", "infinit", "NaN", "oops",
                     "1_0", "1_0.5", "\u0661", "\u0660.\u0665"]))
# Well-formed values at and beyond each column's bounds (frame, id, x, y, w, h, conf).
_EDGES = [
    ["-1", "-2", "0", "+0", "9223372036854775807", "9223372036854775808"],
    ["-1", "-3", "0", "5000000000", "-9223372036854775808", "-9223372036854775809",
     "9223372036854775807", "9223372036854775808"],
    ["inf", "-inf", "nan", "1e308", "-0.0"],
    ["inf", "-inf", "nan", "-1e308", "-0.0"],
    ["0", "-0.0", "-1.5", "1e-300", "inf", "nan"],
    ["0.0", "-0.0", "-2", "5e-324", "-inf", "nan"],
    ["0", "-0.0", "1", "1.0000000000000002", "-1e-9", "1.5", "nan"],
]
_VALID_FIELDS = st.tuples(
    st.integers(0, 5000).map(str), st.integers(-1, 99).map(str),
    st.floats(-1e4, 1e4).map(repr), st.floats(-1e4, 1e4).map(repr),
    st.floats(0.5, 1e3).map(repr), st.floats(0.5, 1e3).map(repr),
    st.floats(0.0, 1.0).map(repr),
)


@st.composite
def csv_lines(draw):
    """A blank line or a valid row, then perhaps one field set to an edge value
    or junk, or the row cut short or extended."""
    kind = draw(st.sampled_from(["valid", "valid", "blank", "edge", "edge", "junk", "count"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   "]))
    fields = list(draw(_VALID_FIELDS))
    column = draw(st.integers(0, 6))
    if kind == "edge":
        fields[column] = draw(st.sampled_from(_EDGES[column]))
    elif kind == "junk":
        fields[column] = draw(_TOKEN)
    elif kind == "count":
        count = draw(st.integers(0, 9))
        fields = fields[:count] + [draw(_TOKEN) for _ in range(count - 7)]
    return ",".join(fields)


def parse_outcome(text):
    """What ``parse_detection_rows`` gives, in ``reference_parse``'s form."""
    try:
        rows = parse_detection_rows(text)
    except (ParseError, ValidationError) as exc:
        return str(exc).partition(": ")[0], type(exc)
    return [(tid, d.frame, d.box.x, d.box.y, d.box.w, d.box.h, d.confidence) for tid, d in rows]


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

    @pytest.mark.parametrize("char", ["\u2028", "\x0c"])
    def test_lines_are_numbered_at_newlines_only(self, char, tmp_path):
        # str.splitlines would also break at these, pushing every later line number up.
        after_row = f"0,-1,1,2,3,4,0.5\n1,-1,1,2,3,4,0.5{char}\n2,-1,x,2,3,4,0.5\n"
        alone = f"0,-1,1,2,3,4,0.5\n{char}\n2,-1,x,2,3,4,0.5\n"
        inside = f"0,-1,1,2,3,4,0.5\n1,-1,1,2,3{char}5,4,0.5\n2,-1,x,2,3,4,0.5\n"
        for text, line in ((after_row, 3), (alone, 3), (inside, 2)):
            with pytest.raises(ParseError, match=f"^line {line}: "):
                parse_detection_rows(text)
            path = tmp_path / "det.csv"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line {line}: "):
                parse_detection_file(path)
        assert len(parse_detection_rows(f"0,-1,1,2,3,4,0.5{char}\n1,-1,1,2,3,4,0.5\n")) == 2

    # int() and float() would read these as 10, 1, 1.5 and 0.5.
    @pytest.mark.parametrize("line", ["1_0,-1,10,20,30,40,0.9", "\u0661,-1,10,20,30,40,0.9",
                                      "1,-1,1_0.5,20,30,40,0.9", "1,-1,10,20,30,40,\u0660.\u0665"])
    def test_underscore_or_non_ascii_number_rejected(self, line):
        with pytest.raises(ParseError, match="^line 2: numbers must be ASCII without underscores$"):
            parse_detection_rows(f"0,-1,1,2,3,4,0.5\n{line}\n")

    @pytest.mark.parametrize("frame, track_id", [(2**63, 1), (0, 2**63), (0, -2**63 - 1)])
    def test_frame_or_id_beyond_64_bits_rejected(self, frame, track_id):
        rows = parse_detection_rows(f"{2**63 - 1},{-2**63},1,2,3,4,0.5\n")
        assert [(tid, d.frame) for tid, d in rows] == [(-2**63, 2**63 - 1)]
        with pytest.raises(ParseError, match="^line 2: frame and id must fit in 64 bits$"):
            parse_detection_rows(f"0,-1,1,2,3,4,0.5\n{frame},{track_id},1,2,3,4,0.5\n")

    @pytest.mark.parametrize("line", ["1,-1,10,20,30,40,0.9,junk", "1,-1,10,20,30,40,0.9,",
                                      "1,-1,10,20,30,40,0.9,0.5,0.5"])
    def test_extra_fields_rejected(self, line):
        count = line.count(",") + 1
        with pytest.raises(ParseError, match=f"^line 2: expected 7 comma-separated fields, "
                                             f"got {count}$"):
            parse_detection_rows(f"0,-1,1,2,3,4,0.5\n{line}\n")

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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(csv_lines(), max_size=12), st.booleans())
    def test_malformed_lines_match_reference(self, lines, trailing_newline):
        text = "\n".join(lines) + ("\n" if trailing_newline else "")
        assert parse_outcome(text) == reference_parse(text)

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

    @pytest.mark.parametrize("labels, bad", [
        ((1.5, 2), "1.5"), (("a",), "'a'"), ((1, True), "True"), ((3, -1), "-1"),
        ((1, 100), "100"), ((np.float64(4.0),), "np.float64(4.0)")])
    def test_labels_must_be_integers(self, labels, bad):
        with pytest.raises(ValidationError, match=f"^jersey label must be .*, got {re.escape(bad)}$"):
            ClassVocabulary(labels=labels)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValidationError, match="^vocabulary must hold at least one jersey number$"):
            ClassVocabulary(labels=())

    def test_numpy_integer_labels_accepted(self):
        vocab = ClassVocabulary(labels=(np.int64(7), 9))
        assert vocab.index_of(7) == 0

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
        assert p.values.tolist() == [0.25, 0.25, 0.5]

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

    def test_rejects_zero_width_on_its_sum(self):
        with pytest.raises(ValidationError, match=r"^probabilities must sum to 1 within 1e-06, got 0\.0$"):
            ProbVector(values=np.array([]))

    def test_values_frozen(self):
        p = ProbVector(values=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.values[0] = 1.0


def reference_first_bad_row(rows):
    """The distribution rule one Python float at a time: (row, kind) or None."""
    for i, row in enumerate(rows):
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in row):
            return i, "range"
        if not abs(sum(row) - 1.0) <= 1e-6:  # left to right, as numpy sums rows this short
            return i, "sum"
    return None


entries = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.25, 1.5, math.nan, math.inf, -math.inf]))


class TestFirstBadRow:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf + -inf
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda width: st.lists(
        st.one_of(st.lists(entries, min_size=width, max_size=width),
                  st.integers(1, 9).map(lambda k: [1.0 / k] * k if width == k else [0.0] * width),
                  st.just([1.0] + [0.0] * (width - 1) if width else [])),
        max_size=6)))
    def test_matches_reference(self, rows):
        width = len(rows[0]) if rows else 0
        got = first_bad_row(np.array(rows, dtype=float).reshape(len(rows), width))
        want = reference_first_bad_row(rows)
        assert (got and (got[0], "sum" if got[1].startswith("probabilities must sum") else "range")) == want

    def test_reasons(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.6], [np.nan, 1.0]])
        assert first_bad_row(rows) == (1, "probabilities must sum to 1 within 1e-06, got 1.1")
        assert first_bad_row(rows[2:]) == (0, "probability entries must be finite and lie in [0, 1]")
        assert first_bad_row(rows[:1]) is None
        assert first_bad_row(np.zeros((0, 3))) is None

    def test_zero_width_row_fails_on_its_sum(self):
        assert first_bad_row(np.zeros((2, 0))) == (
            0, "probabilities must sum to 1 within 1e-06, got 0.0")


class TestRosterVector:
    def test_definition_applied_directly(self):
        vocab = ClassVocabulary(labels=(12, 34, 88))
        rv = build_roster_vector({12, 88}, vocab)
        assert rv.mask.tolist() == [1, 0, 1, 1]

    def test_empty_roster_admits_only_null(self):
        vocab = ClassVocabulary(labels=(12, 34, 88))
        assert build_roster_vector(set(), vocab).mask.tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("mask", [[0.5, 1], [1, 0.999, 1], [2, 1], [-1, 1], ["1", "1"]])
    def test_entries_must_be_exactly_0_or_1(self, mask):
        with pytest.raises(ValidationError, match="entries must be 0 or 1"):
            RosterVector(mask=mask)

    def test_mask_is_a_frozen_int8_copy(self):
        for given_mask in (np.array([0.0, 1.0, 1.0]), np.array([0, 1, 1], dtype=np.int8)):
            rv = RosterVector(mask=given_mask)
            assert rv.mask.dtype == np.int8 and rv.mask.tolist() == [0, 1, 1]
            assert not rv.mask.flags.writeable
            given_mask[0] = 1
            assert rv.mask.tolist() == [0, 1, 1]

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError, match="null class"):
            RosterVector(mask=[])

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
