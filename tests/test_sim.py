import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rinktrack.core import ProbVector, ValidationError, parse_detection_file
from rinktrack.ident import (
    FileFrameScorer,
    FileTeamScorer,
    FileWindowScorer,
    IdentParams,
    Rosters,
    Scorers,
    jersey_visible,
    run_pipeline,
)
from rinktrack.metrics import pan_idsw, pan_sweep
from rinktrack.sim import ConfusionSpec, ScenarioConfig, generate, oracle_scorers
from rinktrack.core import build_roster_vector

SMALL_VOCAB = tuple(range(1, 13))


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
        assert len(scorer.scores.values) == len(path.read_text().splitlines())
        assert peak < path.stat().st_size, (peak, path.stat().st_size)


class TestOracleScorers:
    def test_all_invisible_scorer_blocks_visibility(self):
        bundle = generate(small_config(visibility_profile=0.0), seed=2)
        frame_scorer = bundle.frame_scorer()
        for trk in bundle.gt_tracks:
            assert jersey_visible(trk, frame_scorer, theta=0.01) is False

    def test_perfect_scorers_give_perfect_pipeline(self):
        bundle = generate(small_config(), seed=4)
        frame_scorer, window_scorer, team_scorer = oracle_scorers(bundle)
        scorers = Scorers(team=team_scorer, frame=frame_scorer, window=window_scorer)
        rosters = Rosters(home=build_roster_vector(bundle.home_roster, bundle.vocab),
                          away=build_roster_vector(bundle.away_roster, bundle.vocab))
        params = IdentParams(window=bundle.config.window)
        results = run_pipeline(bundle.gt_tracks, scorers, rosters, bundle.vocab, params)
        for result, trk in zip(results, bundle.gt_tracks):
            assert result.identity == bundle.expected_class(trk)

    def test_scorers_deterministic(self):
        bundle = generate(small_config(visibility_profile=0.5), seed=6)
        ws = bundle.window_scorer()
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
        ws = bundle.window_scorer()
        probs = ws.score_window(trk, 0, min(8, len(trk)))
        assert int(np.argmax(probs)) == bundle.vocab.index_of(8)
