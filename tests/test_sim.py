import gc
import hashlib
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinktrack import sim
from rinktrack.core import (
    BoundingBox,
    ClassVocabulary,
    Detection,
    ProbVector,
    Track,
    ValidationError,
    group_by_frame,
    parse_detection_file,
    rows_to_tracks,
    save_detection_file,
    tracks_to_rows,
)
from rinktrack.ident import (
    FileFrameScorer,
    FileTeamScorer,
    FileWindowScorer,
    IdentParams,
    Rosters,
    jersey_visible,
    run_pipeline,
)
from rinktrack.metrics import pan_idsw, pan_sweep
from rinktrack.sim import (
    NO_OWNER,
    ConfusionSpec,
    GroundTruthBundle,
    GroundTruthIndex,
    ScenarioConfig,
    TrackTruth,
    _json_floats,
    _simulate_paths,
    expected_classes,
    generate,
    majority,
    oracle_scorers,
)
from rinktrack.core import build_roster_vector
from rinktrack.tracker import TrackerParams, track

SMALL_VOCAB = tuple(range(1, 13))
# Traced bytes a generated bundle holds per box row (ground truth plus
# detections), counted after a collection: 355 with unslotted box and
# detection types and the per-frame dict of lists, 279 slotted.
MAX_BUNDLE_BYTES_PER_ROW = 300
# Traced peak bytes per box row while ``generate`` runs: 389 when the
# ground-truth frame index was built eagerly from a list of row tuples,
# about 273 with the index built on the first lookup.
MAX_GENERATE_PEAK_BYTES_PER_ROW = 330


def small_config(**overrides):
    base = dict(
        players_per_team=3,
        num_referees=1,
        duration=60,
        camera_width=400.0,
        camera_height=320.0,
        layout="lanes",
        box_width=20.0,
        box_height=30.0,
        speed_range=(1.0, 3.0),
        visibility_profile=1.0,
        null_tracklet_rate=0.0,
        vocab_labels=SMALL_VOCAB,
        window=8,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def emission_config():
    """A small game with pan and noise on and the default 86-class vocabulary."""
    return ScenarioConfig(
        players_per_team=4, num_referees=1, duration=120,
        pan_profile=((0, 0.0), (40, 0.0), (70, 400.0), (100, 400.0), (119, 0.0)),
        jitter_sigma=1.0, fp_rate=0.05, fn_rate=0.05, visibility_profile=0.5,
        null_tracklet_rate=0.3, team_noise=0.1, window=10, stride=2,
        home_roster=(6, 8, 11, 14),
        confusion={6: ConfusionSpec(substitute=8, prob=0.5, strength=0.5)},
    )


def traced_peak(fn):
    """``fn()`` and the peak bytes traced while it ran, above what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestScenarioConfig:
    def test_rates_validated(self):
        with pytest.raises(ValidationError):
            small_config(fn_rate=1.5)

    def test_confusion_validated(self):
        with pytest.raises(ValidationError):
            small_config(confusion={6: ConfusionSpec(substitute=6, prob=0.5)})
        with pytest.raises(ValidationError):
            small_config(confusion={6: ConfusionSpec(substitute=8, prob=1.5)})

    def test_round_trips_through_dict(self):
        config = small_config(confusion={6: ConfusionSpec(substitute=8, prob=0.6, strength=0.5)},
                              pan_profile=((0, 0.0), (30, 120.0)))
        again = ScenarioConfig.from_dict(config.to_dict())
        assert again == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioConfig.from_dict({"players": 4})

    @pytest.mark.parametrize("field, value", [
        ("num_referees", -2),
        ("players_per_team", 0),
        ("players_per_team", -1),
        ("duration", 0),
        ("fps", 0),
        ("window", 0),
        ("stride", 0),
        ("stride", 1.5),
        ("box_width", 0.0),
        ("box_height", float("nan")),
        ("camera_width", float("inf")),
        ("jitter_sigma", -0.5),
        ("home_roster", (2, 2, 4)),  # two players would share a number
        ("away_roster", (5, 6, 7, 5)),
    ])
    def test_field_out_of_range_named(self, field, value):
        with pytest.raises(ValidationError, match=field):
            small_config(**{field: value})

    def test_box_must_fit_camera(self):
        with pytest.raises(ValidationError, match="box_height 30.0 exceeds camera_height 20.0"):
            small_config(camera_height=20.0)
        with pytest.raises(ValidationError, match="box_width"):
            small_config(camera_width=10.0)
        small_config(camera_width=20.0, camera_height=30.0, players_per_team=1, num_referees=0)

    @pytest.mark.parametrize("speeds", [(3.0, 1.0), (-1.0, 2.0), (1.0, float("nan")),
                                        (1.0, float("inf")), (1.0,)])
    def test_speed_range_validated(self, speeds):
        with pytest.raises(ValidationError, match="speed_range"):
            small_config(speed_range=speeds)

    @pytest.mark.parametrize("profile, message", [
        (((0, 0.0), (10, float("nan"))), "offsets"),
        (((0, 0.0), (10, -5.0)), "offsets"),
        (((-1, 0.0),), "frames"),
    ])
    def test_pan_profile_validated(self, profile, message):
        with pytest.raises(ValidationError, match=f"pan_profile {message}"):
            small_config(pan_profile=profile)

    @pytest.mark.parametrize("profile, message", [
        ([[float("nan"), 0.0]], "frames must be integers, got nan"),
        ([[1.5, 0.0]], "frames must be integers, got 1.5"),
        ([[0, 0.0, 1.0]], "pairs"),
        ([[0, "left"]], "pairs"),
    ])
    def test_pan_profile_checked_when_read(self, profile, message):
        with pytest.raises(ValidationError, match=f"pan_profile.*{message}"):
            ScenarioConfig.from_dict({"pan_profile": profile})

    def test_zero_referees_and_equal_speeds_allowed(self):
        bundle = generate(small_config(num_referees=0, speed_range=(2.0, 2.0)), seed=1)
        assert len(bundle.gt_tracks) == 6


class TestGenerate:
    def test_deterministic_bundles(self, tmp_path):
        config = small_config(jitter_sigma=1.0, fp_rate=0.1, fn_rate=0.05,
                              null_tracklet_rate=0.5, visibility_profile=0.6)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        generate(config, seed=11).write(out_a)
        generate(config, seed=11).write(out_b)
        for name in ("gt.csv", "det.csv", "rosters.json", "vocab.json",
                     "frame_scores.jsonl", "team_scores.jsonl", "window_scores.jsonl",
                     "truth.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_different_seed_differs(self):
        config = small_config()
        a = generate(config, seed=1)
        b = generate(config, seed=2)
        assert a.home_roster != b.home_roster or a.gt_tracks != b.gt_tracks

    def test_zero_noise_detections_equal_gt(self):
        bundle = generate(small_config(), seed=5)
        gt_boxes = sorted(
            (d.frame, d.box.x, d.box.y, d.box.w, d.box.h)
            for t in bundle.gt_tracks for d in t.detections
        )
        det_boxes = sorted(
            (d.frame, d.box.x, d.box.y, d.box.w, d.box.h) for _, d in bundle.detections
        )
        assert gt_boxes == det_boxes

    def test_fn_rate_one_empties_detections(self, tmp_path):
        bundle = generate(small_config(fn_rate=1.0), seed=5)
        assert bundle.detections == []
        bundle.write(tmp_path)
        assert parse_detection_file(tmp_path / "det.csv") == []

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match=f"seed must be an integer >= 0, got {seed!r}"):
            generate(small_config(), seed=seed)

    def test_roster_smaller_than_team_is_error(self):
        with pytest.raises(ValidationError, match="roster"):
            generate(small_config(home_roster=(1, 2)), seed=0)

    def test_lanes_must_fit(self):
        with pytest.raises(ValidationError, match="lanes"):
            generate(small_config(players_per_team=10, camera_height=200.0), seed=0)

    def test_confusion_must_be_in_vocabulary(self):
        with pytest.raises(ValidationError, match="vocabulary"):
            generate(small_config(confusion={90: ConfusionSpec(substitute=91, prob=0.5)}), seed=0)

    def test_jerseys_drawn_from_rosters_without_replacement(self):
        bundle = generate(small_config(), seed=9)
        home = [t.jersey for t in bundle.truth.values() if t.team == "home"]
        away = [t.jersey for t in bundle.truth.values() if t.team == "away"]
        assert len(set(home)) == len(home)
        assert set(home) <= set(bundle.home_roster)
        assert set(away) <= set(bundle.away_roster)


class TestRawRows:
    """``bundle.detections`` is a read-only sequence of ``(-1, Detection)`` rows."""

    @pytest.fixture(scope="class")
    def bundle(self):
        return generate(small_config(jitter_sigma=1.0, fp_rate=0.2, fn_rate=0.1), seed=4)

    def test_read_only(self, bundle):
        row = bundle.detections[0]
        with pytest.raises(AttributeError):
            bundle.detections.append(row)
        with pytest.raises(TypeError):
            bundle.detections[0] = row
        assert bundle.detections[0] == row

    def test_rows_match_the_list_of_rows(self, bundle):
        rows = list(bundle.detections)
        assert len(rows) > 100
        assert list(bundle.detections) == rows  # a second pass gives the same rows
        assert all(tid == -1 and type(det) is Detection for tid, det in rows)
        assert len(bundle.detections) == len(rows)
        assert bundle.detections[0] == rows[0]
        assert bundle.detections[-1] == rows[-1]
        assert bundle.detections[3:40:7] == rows[3:40:7]
        assert type(bundle.detections[3:40:7]) is list
        with pytest.raises(IndexError):
            bundle.detections[len(rows)]

    def test_equality_with_lists_and_tuples(self, bundle):
        rows = list(bundle.detections)
        for same in (rows, tuple(rows)):
            assert bundle.detections == same
            assert same == bundle.detections
        changed = list(rows)
        tid, det = changed[5]
        changed[5] = (tid, Detection(det.frame, det.box, det.confidence / 2))
        assert bundle.detections != changed
        assert changed != bundle.detections
        assert bundle.detections != rows[:-1]

    def test_saved_bytes_match_the_list(self, bundle, tmp_path):
        save_detection_file(bundle.detections, tmp_path / "view.csv")
        save_detection_file(list(bundle.detections), tmp_path / "list.csv")
        assert (tmp_path / "view.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


class TestCollectorPause:
    """``generate`` pauses the cyclic collector while it builds and restores it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored(self, enabled):
        was_enabled = gc.isenabled()
        set_collector = gc.enable if enabled else gc.disable
        try:
            set_collector()
            generate(small_config(), seed=1)
            assert gc.isenabled() is enabled
            with pytest.raises(ValidationError, match="lanes"):
                generate(small_config(players_per_team=10, camera_height=200.0), seed=0)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_no_collection_while_building(self):
        phases = []

        def record(phase, info):
            phases.append(phase)

        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            bundle = generate(small_config(duration=400, fp_rate=0.2, jitter_sigma=1.0), seed=3)
        finally:
            gc.callbacks.remove(record)
            (gc.enable if was_enabled else gc.disable)()
        assert len(bundle.detections) > 2000  # many times the collector's 700-object trigger
        assert phases == []


class TestDrawSpellings:
    """``sim`` spells ``uniform(a, b)`` as ``a + (b - a) * random()`` and
    ``normal(0.0, s)`` as ``0.0 + s * standard_normal()``. Both are numpy's own
    arithmetic on the same draw: the values, and the stream state after
    them, equal ``Generator.uniform``/``normal``."""

    # "+ 0" turns -0.0 into 0.0: numpy's array path rejects a -0.0 range.
    bounds = st.one_of(st.floats(-1e9, 1e9), st.integers(-10**6, 10**6)).map(lambda v: v + 0)
    scales = st.one_of(st.floats(0.0, 1e6), st.integers(0, 10**6))
    calls = st.lists(st.one_of(
        st.tuples(st.just("uniform"), bounds, bounds).map(
            lambda c: (c[0], *sorted(c[1:]))),
        st.tuples(st.just("normal"), scales),
        st.tuples(st.just("random")),
    ), min_size=1, max_size=40)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64 - 1), calls)
    def test_scalar_calls(self, seed, calls):
        numpy_rng, spelled_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for i, (name, *args) in enumerate(calls):
            if name == "uniform":
                a, b = float(args[0]), float(args[1])
                want, got = numpy_rng.uniform(*args), a + (b - a) * spelled_rng.random()
            elif name == "normal":
                want = numpy_rng.normal(0.0, args[0])
                got = 0.0 + args[0] * spelled_rng.standard_normal()
            else:
                want, got = numpy_rng.random(), spelled_rng.random()
            assert (type(got), got) == (type(want), want), f"call {i}: {name}{tuple(args)!r}"
        assert spelled_rng.bit_generator.state == numpy_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1),
           st.lists(st.tuples(bounds, bounds).map(sorted), min_size=1, max_size=6))
    def test_array_bounds(self, seed, pairs):
        numpy_rng, spelled_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        lows, highs = zip(*pairs)
        want = numpy_rng.uniform(lows, highs).tolist()
        got = [float(a) + (float(b) - float(a)) * spelled_rng.random() for a, b in pairs]
        assert got == want, f"uniform({lows!r}, {highs!r})"
        assert spelled_rng.bit_generator.state == numpy_rng.bit_generator.state


def _num(v) -> str:
    """Type-tagged repr, so a Python float and an np.float64 of one value differ."""
    return f"{type(v).__name__}:{float(v)!r}"


def bundle_dump(bundle) -> str:
    """Canonical text of everything ``generate`` decides, box scalar types included."""
    lines = [f"rosters {bundle.home_roster!r} {bundle.away_roster!r}"]

    def box_line(tag, track_id, det):
        b = det.box
        fields = [_num(b.x), _num(b.y), _num(b.w), _num(b.h), _num(det.confidence)]
        return " ".join([tag, f"{type(track_id).__name__}:{track_id!r}",
                         f"{type(det.frame).__name__}:{det.frame!r}", *fields])

    for trk in bundle.gt_tracks:
        lines += [box_line("gt", trk.track_id, det) for det in trk.detections]
    lines += [box_line("det", tid, det) for tid, det in bundle.detections]
    lines += [f"truth {tid!r} {t!r}" for tid, t in sorted(bundle.truth.items())]
    lines += [f"visible {tid!r} {sorted(fs)!r}" for tid, fs in sorted(bundle.visible_frames.items())]
    lines += [f"gap {g!r}" for g in bundle.pan_gaps]
    return "\n".join(lines) + "\n"


def golden_scenes():
    free = dict(players_per_team=4, num_referees=1, duration=300, camera_width=400.0,
                camera_height=300.0, speed_range=(2.0, 8.0), direction_change_rate=0.05,
                vocab_labels=SMALL_VOCAB)
    return {
        "free_noisy": (ScenarioConfig(
            **free, pan_profile=((0, 0.0), (60, 0.0), (120, 250.0), (200, 250.0), (260, 0.0)),
            fp_rate=0.1, fn_rate=0.1, jitter_sigma=1.0, visibility_profile=0.5,
            null_tracklet_rate=0.3), 5),
        "free_clean": (ScenarioConfig(**free), 6),
        "lanes": (small_config(
            duration=200, direction_change_rate=0.05, fp_rate=0.1, fn_rate=0.05,
            jitter_sigma=0.5, null_tracklet_rate=0.5, visibility_profile=0.6,
            pan_profile=((0, 0.0), (50, 0.0), (100, 150.0), (150, 0.0))), 7),
    }


def reference_paths(config, rng, count, world_w, world_h):
    """The path integrator on 2-element position and velocity arrays."""
    half_w, half_h = config.box_width / 2.0, config.box_height / 2.0
    lo = np.array([half_w, half_h])
    hi = np.array([world_w - half_w, world_h - half_h])
    paths = np.zeros((count, config.duration, 2))
    pitch = (world_h - config.box_height) / max(count - 1, 1)
    for i in range(count):
        if config.layout == "lanes":
            y = half_h + i * pitch if count > 1 else world_h / 2.0
            pos = np.array([rng.uniform(lo[0], hi[0]), y])
            vel = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(*config.speed_range), 0.0])
        else:
            pos = rng.uniform(lo, hi)
            speed = rng.uniform(*config.speed_range)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            vel = speed * np.array([np.cos(angle), np.sin(angle)])
        for t in range(config.duration):
            paths[i, t] = pos
            if rng.random() < config.direction_change_rate:
                speed = rng.uniform(*config.speed_range)
                if config.layout == "lanes":
                    vel = np.array([rng.choice([-1.0, 1.0]) * speed, 0.0])
                else:
                    angle = rng.uniform(0.0, 2.0 * np.pi)
                    vel = speed * np.array([np.cos(angle), np.sin(angle)])
            pos = pos + vel
            for axis in range(2):
                if pos[axis] < lo[axis]:
                    pos[axis] = 2 * lo[axis] - pos[axis]
                    vel[axis] = -vel[axis]
                elif pos[axis] > hi[axis]:
                    pos[axis] = 2 * hi[axis] - pos[axis]
                    vel[axis] = -vel[axis]
            pos = np.clip(pos, lo, hi)
    return paths


@pytest.mark.parametrize("layout, count, change_rate, speeds", [
    ("free", 5, 0.05, (2.0, 12.0)),
    ("free", 3, 1.0, (0.0, 40.0)),
    ("free", 1, 0.0, (5.0, 5.0)),
    ("free", 2, 0.3, (300.0, 900.0)),  # steps longer than the world: the clip binds
    ("lanes", 4, 0.2, (1.0, 30.0)),
    ("lanes", 1, 0.5, (0.0, 3.0)),
])
def test_paths_match_array_reference(layout, count, change_rate, speeds):
    config = small_config(layout=layout, duration=250, direction_change_rate=change_rate,
                          speed_range=speeds)
    fast_rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    fast = _simulate_paths(config, fast_rng, count, 480.0, config.camera_height)
    ref = reference_paths(config, ref_rng, count, 480.0, config.camera_height)
    assert np.array_equal(fast, ref)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state  # same draws consumed


class TestBlockDrawnPaths:
    """Free-layout motion is drawn in blocks that never hold a draw that might
    not come: paths and the generator's final state equal scalar calls'."""

    speeds = st.one_of(
        st.floats(0.0, 50.0).map(lambda v: (v, v)),  # equal bounds
        st.tuples(st.floats(0.0, 10.0), st.floats(100.0, 5000.0)),  # steps past the world
        st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)).map(sorted).map(tuple),
    )

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 6), st.integers(1, 300),
           st.floats(0.0, 1.0), speeds)
    def test_free_paths_match_array_reference(self, seed, count, duration, change_rate, speeds):
        config = small_config(layout="free", duration=duration, direction_change_rate=change_rate,
                              speed_range=speeds)
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = _simulate_paths(config, fast_rng, count, 480.0, config.camera_height)
        ref = reference_paths(config, ref_rng, count, 480.0, config.camera_height)
        assert np.array_equal(fast, ref)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_unjittered_detections_are_the_ground_truth_objects(self):
        bundle = generate(small_config(layout="free", fn_rate=0.3, fp_rate=0.2), seed=4)
        gt = {id(d): d for trk in bundle.gt_tracks for d in trk.detections}
        real = [d for _, d in bundle.detections if d.confidence == 1.0]  # false positives < 0.9
        assert 0 < len(real) < len(gt)
        assert all(gt.get(id(d)) is d for d in real)


class TestGenerateGolden:
    """``generate`` is pinned value for value and type for type.

    The CSV golden hashes go through ``str(float(v))`` and cannot see an
    np.float64 turn into a float; these hash the in-memory bundle. Recorded
    from the per-object loop generator that used 2-element position arrays.
    """

    GOLDEN_SHA256 = {
        "free_noisy": "7ca713b46716403361077dde346c4e8a8962c83386a7e5e8f5071bda86f070e7",
        "free_clean": "027d83bd8711e746608fd204b9377533d7685425e72b0e1e5284e9b526696f00",
        "lanes": "f6a6470177360291d6eddfb508656190e4dbe0862d1359c6ba553061424ca594",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_bundle_matches_golden_hash(self, name):
        config, seed = golden_scenes()[name]
        dump = bundle_dump(generate(config, seed))
        assert hashlib.sha256(dump.encode()).hexdigest() == self.GOLDEN_SHA256[name]

    def test_box_scalar_types(self):
        config, seed = golden_scenes()["free_noisy"]
        bundle = generate(config, seed)
        gt_box = bundle.gt_tracks[0].detections[0].box
        assert [type(v) for v in (gt_box.x, gt_box.y, gt_box.w, gt_box.h)] == \
            [np.float64, np.float64, float, float]
        fp = [d for _, d in bundle.detections if d.confidence < 0.6]
        assert fp and all(type(d.box.x) is float and type(d.box.y) is float for d in fp)
        assert all(type(d.confidence) is float for _, d in bundle.detections)

    def test_bundle_bytes_per_box_row(self):
        config, seed = golden_scenes()["free_noisy"]
        generate(config, seed)  # warm one-time allocations
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bundle = generate(config, seed)
            gc.collect()  # count what the bundle holds, not garbage awaiting collection
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = len(bundle.detections) + sum(len(t) for t in bundle.gt_tracks)
        assert held / rows < MAX_BUNDLE_BYTES_PER_ROW, (held, rows)

    def test_generate_peak_bytes_per_box_row(self):
        config, seed = golden_scenes()["free_noisy"]
        generate(config, seed)  # warm one-time allocations
        gc.collect()
        bundle, peak = traced_peak(lambda: generate(config, seed))
        rows = len(bundle.detections) + sum(len(t) for t in bundle.gt_tracks)
        assert peak / rows < MAX_GENERATE_PEAK_BYTES_PER_ROW, (peak, rows)


def brute_force_owner(bundle, frame, box, min_iou=0.2):
    """Best-IoU ground-truth track at ``frame``, scanning ``gt_tracks`` in order.

    A strictly greater IoU is needed to displace the current best, so ties
    go to the track that comes first in ``gt_tracks``.
    """
    best_id, best = None, -1.0
    for trk in bundle.gt_tracks:
        for det in trk.detections:
            if det.frame != frame:
                continue
            g = det.box
            gx2, gy2 = g.x + g.w, g.y + g.h
            ix = min(box.x + box.w, gx2) - max(box.x, g.x)
            iy = min(box.y + box.h, gy2) - max(box.y, g.y)
            inter = max(ix, 0.0) * max(iy, 0.0)
            overlap = inter / (box.w * box.h + (gx2 - g.x) * (gy2 - g.y) - inter)
            if overlap > best:
                best_id, best = trk.track_id, overlap
    return best_id if best >= min_iou else None


def reference_match_gt(bundle, frame, box, min_iou=0.2):
    """Best-IoU owner by the arithmetic ``match_gt`` once inlined: the frame's
    ground-truth corners in ``gt_tracks`` order, the query's area as ``w * h``."""
    rows = [(trk.track_id, d.box) for trk in bundle.gt_tracks for d in trk.detections
            if d.frame == frame]
    if not rows:
        return None
    ids = np.array([tid for tid, _ in rows])
    corners = np.array([[b.x, b.y, b.x + b.w, b.y + b.h] for _, b in rows])
    ix = np.minimum(box.x2, corners[:, 2]) - np.maximum(box.x, corners[:, 0])
    iy = np.minimum(box.y2, corners[:, 3]) - np.maximum(box.y, corners[:, 1])
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    areas = (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])
    overlap = inter / (box.area + areas - inter)
    best = int(np.argmax(overlap))
    return int(ids[best]) if overlap[best] >= min_iou else None


class TestMatchGt:
    """``match_gt`` against a brute-force owner search over ``gt_tracks``."""

    def test_every_box_of_a_noisy_pan_scene(self):
        config = small_config(
            layout="free", duration=150, speed_range=(1.0, 4.0), jitter_sigma=3.0,
            fp_rate=0.5, fn_rate=0.1,
            pan_profile=((0, 0.0), (30, 0.0), (70, 200.0), (110, 200.0), (140, 0.0)))
        bundle = generate(config, seed=31)
        assert bundle.pan_gaps
        queries = [(d.frame, d.box) for trk in bundle.gt_tracks for d in trk.detections]
        queries += [(d.frame, d.box) for _, d in bundle.detections]
        queries.append((config.duration + 5, queries[0][1]))  # a frame with no ground truth
        unmatched = set()
        for min_iou in (0.2, 0.5):
            for frame, box in queries:
                expected = brute_force_owner(bundle, frame, box, min_iou)
                assert bundle.match_gt(frame, box, min_iou) == expected, (frame, box, min_iou)
                unmatched.add(expected is None)
        assert unmatched == {True, False}  # both outcomes exercised

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_owners_match_the_inline_reference(self, seed):
        config = small_config(
            layout="free", duration=80, speed_range=(1.0, 4.0), jitter_sigma=2.5,
            fp_rate=0.3, fn_rate=0.1,
            pan_profile=((0, 0.0), (20, 0.0), (40, 200.0), (60, 200.0), (75, 0.0)))
        bundle = generate(config, seed)
        queries = [(d.frame, d.box) for _, d in bundle.detections]
        queries += [(d.frame, d.box) for trk in bundle.gt_tracks for d in trk.detections]
        for frame, box in queries:
            for min_iou in (0.2, 0.5):
                assert (bundle.match_gt(frame, box, min_iou)
                        == reference_match_gt(bundle, frame, box, min_iou)), (frame, box)

    @staticmethod
    def track(tid, *frame_boxes):
        return Track(track_id=tid, detections=tuple(
            Detection(frame=f, box=b, confidence=1.0) for f, b in frame_boxes))

    @staticmethod
    def hand_built(gt_tracks):
        """A bundle holding only ``gt_tracks``, in the order given."""
        ids = [trk.track_id for trk in gt_tracks]
        return GroundTruthBundle(
            config=small_config(), seed=0, vocab=ClassVocabulary(labels=SMALL_VOCAB),
            home_roster=(1,), away_roster=(2,), gt_tracks=gt_tracks,
            truth={tid: TrackTruth(team="home", jersey=1, null_tracklet=False) for tid in ids},
            visible_frames={tid: frozenset() for tid in ids}, pan_gaps=[], detections=[])

    def test_tie_goes_to_earlier_track_in_gt_tracks_order(self):
        box = BoundingBox(10.0, 10.0, 20.0, 30.0)
        shifted = BoundingBox(25.0, 10.0, 20.0, 30.0)
        track = self.track
        # Track 5 comes first in gt_tracks although its id is higher.
        bundle = self.hand_built([track(5, (0, box), (1, shifted), (2, box)),
                                  track(2, (1, shifted), (2, box), (3, box))])
        for frame in (0, 1, 2, 3, 4):
            for query in (box, shifted, BoundingBox(12.0, 11.0, 20.0, 30.0)):
                assert bundle.match_gt(frame, query) == brute_force_owner(bundle, frame, query)
        assert bundle.match_gt(1, shifted) == 5
        assert bundle.match_gt(2, box) == 5
        assert bundle.match_gt(3, box) == 2
        assert bundle.match_gt(4, box) is None

    def test_frames_without_ground_truth(self):
        box = BoundingBox(10.0, 10.0, 20.0, 30.0)
        shifted = BoundingBox(14.0, 12.0, 20.0, 30.0)
        # Ground truth on frames 3-4, 7 and 10 only: gaps at 5-6 and 8-9.
        bundle = self.hand_built([self.track(1, (3, box), (4, box), (10, shifted)),
                                  self.track(2, (4, shifted), (7, box))])
        for frame in (0, 2, 5, 6, 8, 9, 11, 12, 10_000, -1):
            assert bundle.match_gt(frame, box) is None, frame
            assert brute_force_owner(bundle, frame, box) is None
        for frame in (3, 4, 7, 10):
            for query in (box, shifted, BoundingBox(60.0, 60.0, 5.0, 5.0)):
                assert bundle.match_gt(frame, query) == brute_force_owner(bundle, frame, query)
        assert bundle.match_gt(3, box) == 1
        assert bundle.match_gt(4, shifted) == 2
        assert bundle.match_gt(7, box) == 2

    def test_frames_with_a_single_row(self):
        box = BoundingBox(10.0, 10.0, 20.0, 30.0)
        far = BoundingBox(200.0, 200.0, 20.0, 30.0)
        bundle = self.hand_built([self.track(4, (0, box)), self.track(6, (1, far)),
                                  self.track(8, (2, box), (3, far))])
        for frame in (0, 1, 2, 3):
            for query in (box, far, BoundingBox(12.0, 10.0, 20.0, 30.0)):
                for min_iou in (0.2, 0.9):
                    assert (bundle.match_gt(frame, query, min_iou)
                            == brute_force_owner(bundle, frame, query, min_iou)), (frame, query)
        assert [bundle.match_gt(f, box) for f in range(4)] == [4, None, 8, None]
        assert [bundle.match_gt(f, far) for f in range(4)] == [None, 6, None, 8]

    def test_gt_tracks_out_of_id_order(self):
        rng = np.random.default_rng(5)

        def boxes(n):
            return [BoundingBox(float(x), float(y), 20.0, 30.0)
                    for x, y in rng.uniform(0.0, 60.0, size=(n, 2))]

        # Ids 9, 3, 7, 1 with interleaved and partly shared frames.
        gt_tracks = [self.track(9, *zip((2, 3, 5, 8), boxes(4))),
                     self.track(3, *zip((0, 3, 4, 5), boxes(4))),
                     self.track(7, *zip((1, 3, 8, 9), boxes(4))),
                     self.track(1, *zip((3, 5, 6), boxes(3)))]
        bundle = self.hand_built(gt_tracks)
        queries = [d.box for trk in gt_tracks for d in trk.detections] + boxes(20)
        owners = set()
        for frame in range(-1, 11):
            for query in queries:
                for min_iou in (0.0, 0.2, 0.5):
                    expected = brute_force_owner(bundle, frame, query, min_iou)
                    assert bundle.match_gt(frame, query, min_iou) == expected, (frame, query)
                    owners.add(expected)
        assert owners == {None, 1, 3, 7, 9}


def box_by_box(index, dets, min_iou):
    """Each detection's owner by the single-box reference, ``NO_OWNER`` where none."""
    return [NO_OWNER if (o := index.owner(d.frame, d.box, min_iou)) is None else o for d in dets]


def det(frame, x, y, w, h):
    return Detection(frame=frame, box=BoundingBox(x, y, w, h), confidence=1.0)


class TestOwnerPass:
    """``GroundTruthIndex.owners`` against ``match_gt``, box by box."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), jitter=st.sampled_from([0.0, 1.0, 6.0]),
           fp_rate=st.sampled_from([0.0, 0.4]), fn_rate=st.sampled_from([0.0, 0.2]),
           dropped=st.sets(st.integers(0, 59), max_size=20),
           chunk=st.sampled_from([1, 7, 1024]))
    def test_random_scenes(self, seed, jitter, fp_rate, fn_rate, dropped, chunk):
        config = small_config(
            layout="free", duration=60, speed_range=(1.0, 8.0), jitter_sigma=jitter,
            fp_rate=fp_rate, fn_rate=fn_rate,
            pan_profile=((0, 0.0), (15, 0.0), (30, 200.0), (40, 200.0), (55, 0.0)))
        bundle = generate(config, seed)
        gt_rows = [(trk.track_id, d) for trk in bundle.gt_tracks for d in trk.detections]
        queries = [d for _, d in gt_rows] + [d for _, d in bundle.detections]
        queries += [det(config.duration + 3, 50.0, 50.0, 20.0, 30.0), det(0, 1e6, 1e6, 5.0, 5.0)]
        # The bundle's own index, and one whose ground truth skips the dropped frames.
        thinned = GroundTruthIndex([(tid, d) for tid, d in gt_rows if d.frame not in dropped])
        with mock.patch.object(sim, "_OWNER_CHUNK", chunk):  # pass boundaries anywhere
            for min_iou in (0.2, 0.5):
                owners = bundle.gt_index.owners(queries, min_iou).tolist()
                assert owners == [NO_OWNER if (o := bundle.match_gt(d.frame, d.box, min_iou))
                                  is None else o for d in queries]
                assert thinned.owners(queries, min_iou).tolist() == box_by_box(
                    thinned, queries, min_iou)

    @settings(max_examples=40, deadline=None)
    @given(order=st.permutations([3, 8, 5]), x=st.integers(0, 40), w=st.integers(1, 30),
           frames=st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_exact_ties_go_to_the_first_row(self, order, x, w, frames):
        # Ids 3 and 8 hold the same box; id 5 its mirror about the query's centre line.
        rows = []
        for tid in order:
            left = float(x) if tid != 5 else float(x + 2 * w)
            rows += [(tid, det(f, left, 0.0, 2.0 * w, 10.0)) for f in range(0, 5, 2)]
        index = GroundTruthIndex(rows)
        queries = [det(f, float(x + w), 0.0, 2.0 * w, 10.0) for f in frames]
        for min_iou in (0.0, 0.2, 0.5):
            got = index.owners(queries, min_iou).tolist()
            assert got == box_by_box(index, queries, min_iou)
            # Frames 0, 2 and 4 hold all three rows, each at IoU 1/3; the first given wins.
            assert got == [order[0] if f % 2 == 0 and min_iou <= 1 / 3 else NO_OWNER
                           for f in frames]

    @pytest.mark.parametrize("min_iou, shift", [(0.2, 2.0), (0.5, 1.0)])
    def test_a_box_exactly_at_min_iou_is_owned(self, min_iou, shift):
        # Boxes 3 wide overlapping by 3 - shift: IoU 1/5 or 2/4, exactly min_iou.
        index = GroundTruthIndex([(4, det(0, 0.0, 0.0, 3.0, 1.0))])
        at_bound = det(0, shift, 0.0, 3.0, 1.0)
        below = det(0, shift + 0.5, 0.0, 3.0, 1.0)
        assert index.owner(0, at_bound.box, min_iou) == 4
        assert index.owner(0, below.box, min_iou) is None
        assert index.owners([at_bound, below, at_bound], min_iou).tolist() == [4, NO_OWNER, 4]

    def test_pair_memory_does_not_grow_with_the_input(self):
        # 22 objects over 900 frames: 19,800 detections and 435,600 pairs. The pass in
        # one step traced about 60 MB at its peak; in chunks of 256 detections, 1.0 MB.
        bundle = generate(ScenarioConfig(), seed=1)
        queries = [d for trk in bundle.gt_tracks for d in trk.detections]
        index = bundle.gt_index
        owners, peak = traced_peak(lambda: index.owners(queries))
        assert (owners != NO_OWNER).all()
        assert peak < 3_000_000, peak

    def test_no_queries_and_no_ground_truth(self):
        assert GroundTruthIndex([(1, det(0, 0.0, 0.0, 3.0, 1.0))]).owners([]).tolist() == []
        assert GroundTruthIndex([]).owners([det(0, 0.0, 0.0, 3.0, 1.0)]).tolist() == [NO_OWNER]


class TestExpectedClasses:
    def test_majority_ties_go_to_the_smaller_id(self):
        assert majority([7, 2, 7, 2, 9]) == 2
        assert majority([7, NO_OWNER, 7, 2, NO_OWNER, NO_OWNER]) == 7
        assert majority([NO_OWNER, NO_OWNER]) is None
        assert majority([]) is None

    def test_unowned_tracklets_are_left_out(self):
        box = BoundingBox(0.0, 0.0, 20.0, 30.0)
        far = BoundingBox(300.0, 300.0, 20.0, 30.0)
        index = GroundTruthIndex([(1, Detection(f, box, 1.0)) for f in range(4)]
                                 + [(2, Detection(f, far, 1.0)) for f in range(2)])
        tracklets = [Track(10, tuple(Detection(f, box, 1.0) for f in range(4))),
                     Track(11, (Detection(0, far, 1.0), Detection(3, far, 1.0))),
                     Track(12, (Detection(9, box, 1.0),))]
        assert expected_classes(tracklets, index, {1: 5, 2: 6}) == {10: 5, 11: 6}


class TestPanGaps:
    def pan_config(self):
        return small_config(
            layout="free",
            duration=240,
            pan_profile=((0, 0.0), (40, 0.0), (80, 300.0), (160, 300.0), (200, 0.0)),
            speed_range=(0.5, 2.0),
        )

    def test_gap_log_matches_estimator(self):
        bundle = generate(self.pan_config(), seed=21)
        assert bundle.pan_gaps, "pan scenario should generate gaps"
        for delta in (1, 10, 40, 80):
            logged = sum(1 for g in bundle.pan_gaps if g.gap > delta)
            assert pan_idsw(bundle.gt_tracks, delta) == logged

    def test_sweep_non_increasing(self):
        bundle = generate(self.pan_config(), seed=22)
        counts = [c for _, c in pan_sweep(bundle.gt_tracks, range(40, 81, 5))]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_no_pan_no_gaps(self):
        bundle = generate(small_config(), seed=3)
        assert bundle.pan_gaps == []
        assert pan_idsw(bundle.gt_tracks, 1) == 0


class TestEmittedFiles:
    def test_probability_files_parse_to_valid_vectors(self, tmp_path):
        config = small_config(null_tracklet_rate=0.5, visibility_profile=0.4,
                              confusion={1: ConfusionSpec(substitute=2, prob=0.5)})
        generate(config, seed=13).write(tmp_path)
        n_classes = len(SMALL_VOCAB) + 1
        for name, key in (("frame_scores.jsonl", "probs"), ("window_scores.jsonl", "probs")):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines
            for line in lines:
                vec = ProbVector(values=np.array(json.loads(line)[key]))
                assert len(vec) == n_classes
        for line in (tmp_path / "team_scores.jsonl").read_text().splitlines():
            probs = json.loads(line)["team_probs"]
            assert len(probs) == 3
            assert abs(sum(probs) - 1.0) < 1e-6

    # SHA-256 of every emitted file except bundle.json, which embeds the
    # output directory. Recorded from the writer that joined whole files in
    # memory; the streaming writer must reproduce them byte for byte.
    GOLDEN_SHA256 = {
        "det.csv": "13c890ee0b73cfde78f0d347b22f9deedcea926ecc3fccb00702ac88f3ed6a77",
        "frame_scores.jsonl": "07f41a20dc18df3626719fa240b057678e81c13c57c6d37089e30f74906511fc",
        "gt.csv": "9904b9275eaba233501cace7993493e263a375226b2a33cd07d0844944bdd99d",
        "rosters.json": "826faab8ce06d964ac46094d98f5ff68f99bb02245aca327609b5ada29d9eb66",
        "team_scores.jsonl": "3dddafc78201f52a3e8d3df87ec651ea992aacf6941febdf85de0a3991dac2b1",
        "truth.json": "cd684bc7c8a45fc1fbddc12ad0f83c7c99ba2e04031d283d33e8bb568d20e64b",
        "vocab.json": "a2ca128ca79671fbc4eb61c703cc370762f893c28b1de49d9f8e2a454c961a73",
        "window_scores.jsonl": "24220a54054bd23500809e139315ea30921d0878236ca6f9a06339445f141b6e",
    }

    def test_written_bytes_match_golden_hashes(self, tmp_path):
        generate(emission_config(), seed=42).write(tmp_path)
        emitted = {p.name for p in tmp_path.iterdir()} - {"bundle.json"}
        assert emitted == set(self.GOLDEN_SHA256)
        for name, digest in self.GOLDEN_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_manifest_lists_all_files(self, tmp_path):
        manifest = generate(small_config(), seed=1).write(tmp_path)
        for path in manifest["files"].values():
            assert Path(path).exists()
        assert json.loads((tmp_path / "bundle.json").read_text()) == manifest

    @pytest.mark.parametrize("values", [
        [], [0.25, 0.75, 0.25], [0.0, -0.0], [-0.0, 0.0, 1.0], [-0.5, 1.5], [1e-300, 5e-324],
        [float("nan"), 1.0], [float("inf"), float("-inf")], [1 / 3] * 4,
    ])
    def test_score_row_text_is_json(self, values):
        assert _json_floats(values) == json.dumps(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.7, 1.0, float("nan"), float("inf")])
                    | st.floats(), max_size=12))
    def test_any_float_row_text_is_json(self, values):
        assert _json_floats(values) == json.dumps(values)


class TestScoreFileMemory:
    """Score files stream: neither end holds a whole file's text or records."""

    @pytest.fixture(scope="class")
    def bundle_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bundle")
        generate(emission_config(), seed=42).write(out)
        return out

    def test_write_peak_below_quarter_of_frame_scores(self, tmp_path):
        bundle = generate(emission_config(), seed=42)
        _, peak = traced_peak(lambda: bundle.write(tmp_path))
        size = (tmp_path / "frame_scores.jsonl").stat().st_size
        assert peak < size / 4, (peak, size)

    @pytest.mark.parametrize("cls, name", [
        (FileFrameScorer, "frame_scores.jsonl"),
        (FileTeamScorer, "team_scores.jsonl"),
        (FileWindowScorer, "window_scores.jsonl"),
    ])
    def test_load_peak_below_file_size(self, bundle_dir, cls, name):
        path = bundle_dir / name
        scorer, peak = traced_peak(lambda: cls(path))
        assert len(scorer.scores) == len(path.read_text().splitlines())
        assert peak < path.stat().st_size, (peak, path.stat().st_size)


class TestOracleScorers:
    def test_all_invisible_scorer_blocks_visibility(self):
        bundle = generate(small_config(visibility_profile=0.0), seed=2)
        frame_scorer = oracle_scorers(bundle).frame
        for trk in bundle.gt_tracks:
            assert jersey_visible(trk, frame_scorer, theta=0.01) is False

    def test_perfect_scorers_give_perfect_pipeline(self):
        bundle = generate(small_config(), seed=4)
        scorers = oracle_scorers(bundle)
        rosters = Rosters(home=build_roster_vector(bundle.home_roster, bundle.vocab),
                          away=build_roster_vector(bundle.away_roster, bundle.vocab))
        params = IdentParams(window=bundle.config.window)
        results = run_pipeline(bundle.gt_tracks, scorers, rosters, bundle.vocab, params)
        for result, trk in zip(results, bundle.gt_tracks):
            assert result.identity == bundle.expected_class(trk)

    def test_scorers_deterministic(self):
        bundle = generate(small_config(visibility_profile=0.5), seed=6)
        ws = oracle_scorers(bundle).window
        trk = bundle.gt_tracks[0]
        first = ws.score_window(trk, 0, min(8, len(trk)))
        second = ws.score_window(trk, 0, min(8, len(trk)))
        assert np.array_equal(first, second)

    def test_confusion_flips_window_argmax(self):
        config = small_config(home_roster=(1, 2, 3), away_roster=(4, 5, 6),
                              confusion={1: ConfusionSpec(substitute=8, prob=1.0, strength=1.0)})
        bundle = generate(config, seed=8)
        target = next(tid for tid, t in bundle.truth.items() if t.jersey == 1)
        trk = next(t for t in bundle.gt_tracks if t.track_id == target)
        ws = oracle_scorers(bundle).window
        probs = ws.score_window(trk, 0, min(8, len(trk)))
        assert int(np.argmax(probs)) == bundle.vocab.index_of(8)


class TestOwnersMatchedOncePerScene:
    """Each detection's owner is matched once per bundle, however often it is scored."""

    @staticmethod
    def identify(bundle, tracklets):
        scorers = oracle_scorers(bundle)
        rosters = Rosters(home=build_roster_vector(bundle.home_roster, bundle.vocab),
                          away=build_roster_vector(bundle.away_roster, bundle.vocab))
        params = IdentParams(window=bundle.config.window, stride=bundle.config.stride)
        runs = [run_pipeline(tracklets, scorers, rosters, bundle.vocab, params, mask_rosters=mask)
                for mask in (False, True)]
        return ([(r.track_id, r.team, r.identity, r.identity_unmasked, r.p_jn.values.tobytes())
                 for results in runs for r in results],
                [bundle.expected_class(trk) for trk in tracklets])

    def test_two_passes_and_expected_class_match_each_detection_once(self, tmp_path, monkeypatch):
        config = small_config(layout="free", duration=120, speed_range=(1.0, 4.0),
                              jitter_sigma=1.5, fp_rate=0.4, fn_rate=0.05,
                              visibility_profile=0.5, null_tracklet_rate=0.3, stride=2)
        bundle = generate(config, seed=12)
        tracklets = track(group_by_frame(bundle.detections), TrackerParams(min_hits=1))
        calls, single = [], []  # detections passed to the owner pass; match_gt calls
        real_owners, real = GroundTruthIndex.owners, GroundTruthBundle.match_gt
        monkeypatch.setattr(GroundTruthIndex, "owners", lambda self, dets, *rest: (
            calls.extend(dets) or real_owners(self, dets, *rest)))
        monkeypatch.setattr(GroundTruthBundle, "match_gt", lambda self, frame, box, *rest: (
            single.append((frame, box)) or real(self, frame, box, *rest)))

        scored = self.identify(bundle, tracklets)
        distinct = {d for trk in tracklets for d in trk.detections}
        assert len(calls) == len(distinct)
        assert not single  # the oracles use the owner pass, not the single-box lookup
        assert self.identify(bundle, tracklets) == scored
        assert len(calls) == len(distinct)  # a repeated sweep matches nothing again

        # Tracklets re-read from their own tracks.csv are equal values: they
        # score bit for bit alike and find every owner already matched.
        path = tmp_path / "tracks.csv"
        save_detection_file(tracks_to_rows(tracklets), path)
        reparsed = rows_to_tracks(parse_detection_file(path))
        assert {t.track_id: t for t in reparsed} == {t.track_id: t for t in tracklets}
        by_id = {t.track_id: t for t in reparsed}
        assert self.identify(bundle, [by_id[t.track_id] for t in tracklets]) == scored
        assert len(calls) == len(distinct)

        # The scene exercised both outcomes: matched boxes and unmatched false positives.
        owners = {real(bundle, d.frame, d.box) for d in distinct}
        assert None in owners and len(owners) > 2
