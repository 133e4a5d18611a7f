import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinktrack import cli, core, metrics, sim
from rinktrack.cli import main
from rinktrack.ident import IdentParams, Rosters, run_pipeline

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SCENARIO = {
    "players_per_team": 3,
    "num_referees": 1,
    "duration": 80,
    "camera_width": 400.0,
    "camera_height": 320.0,
    "layout": "lanes",
    "box_width": 20.0,
    "box_height": 30.0,
    "speed_range": [1.0, 3.0],
    "visibility_profile": 1.0,
    "null_tracklet_rate": 0.0,
    "vocab_labels": list(range(1, 13)),
    "window": 8,
}


def write_config(path: Path, **sections) -> Path:
    data = {"scenario": SCENARIO, "ident": {"window": 8}, "paths": {}}
    data.update(sections)
    path.write_text(json.dumps(data, indent=1))
    return path


def bundle_paths(bundle_dir: Path) -> dict:
    return {
        "detections": str(bundle_dir / "det.csv"),
        "gt": str(bundle_dir / "gt.csv"),
        "rosters": str(bundle_dir / "rosters.json"),
        "vocab": str(bundle_dir / "vocab.json"),
        "frame_scores": str(bundle_dir / "frame_scores.jsonl"),
        "team_scores": str(bundle_dir / "team_scores.jsonl"),
        "window_scores": str(bundle_dir / "window_scores.jsonl"),
        "truth": str(bundle_dir / "truth.json"),
    }


@pytest.fixture()
def workspace(tmp_path):
    config = write_config(tmp_path / "config.json")
    bundle_dir = tmp_path / "bundle"
    assert main(["simulate", "--config", str(config), "--seed", "5",
                 "--out", str(bundle_dir)]) == 0
    paths = bundle_paths(bundle_dir)
    paths["tracks"] = paths["gt"]  # identify on ground-truth tracklets by default
    full_config = write_config(tmp_path / "full.json", paths=paths)
    return tmp_path, full_config, bundle_dir


class TestSimulate:
    def test_seeded_runs_reproducible(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        for name in ("a", "b"):
            assert main(["simulate", "--config", str(config), "--seed", "9",
                         "--out", str(tmp_path / name)]) == 0
        for f in sorted((tmp_path / "a").iterdir()):
            if f.name == "bundle.json":
                continue  # manifest embeds the output directory path
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name

    def test_manifest_printed(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        for name in ("detections", "gt", "rosters", "vocab", "truth"):
            assert name in out

    def test_roster_file_matches_config(self, tmp_path):
        scenario = dict(SCENARIO, home_roster=[1, 2, 3], away_roster=[4, 5, 6])
        config = write_config(tmp_path / "config.json", scenario=scenario)
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        rosters = json.loads((tmp_path / "out" / "rosters.json").read_text())
        assert rosters == {"home": [1, 2, 3], "away": [4, 5, 6]}

    def test_infeasible_scenario_exits_2(self, tmp_path):
        scenario = dict(SCENARIO, home_roster=[1])
        config = write_config(tmp_path / "config.json", scenario=scenario)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("seed", ["-1", "1_0", "\u0661\u0662"])  # int() reads 10 and 12
    def test_bad_seed_exits_2_naming_it(self, tmp_path, capsys, command, seed):
        config = write_config(tmp_path / "config.json")
        with pytest.raises(SystemExit) as exited:
            main([command, "--config", str(config), "--seed", seed, "--out", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert f"argument --seed: must be an integer >= 0, got {seed!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("ident, shapes", [
        ({"window": 30}, "scenario.window/stride 8/1 differ from ident.window/stride 30/1"),
        ({"window": 8, "stride": 2}, "scenario.window/stride 8/1 differ from ident.window/stride 8/2"),
    ])
    def test_window_shape_other_than_identify_exits_2_naming_both(self, tmp_path, capsys, command,
                                                                  ident, shapes):
        config = write_config(tmp_path / "config.json", ident=ident)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert shapes in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("num_referees", -2, "num_referees must be an integer >= 0, got -2"),
        ("stride", 0, "stride must be an integer >= 1, got 0"),
        ("players_per_team", -1, "players_per_team must be an integer >= 1, got -1"),
        ("camera_height", 20.0, "box_height 30.0 exceeds camera_height 20.0"),
        ("speed_range", [3.0, 1.0], "speed_range must be finite"),
        ("pan_profile", [[0, 0.0], [10, float("nan")]], "pan_profile offsets must be finite"),
        ("pan_profile", [[float("nan"), 0.0]], "pan_profile frames must be integers"),
        ("fp_rate", True, "fp_rate must be a number in [0, 1], got True"),
        ("fp_rate", "x", "fp_rate must be a number in [0, 1], got 'x'"),
        ("camera_width", "x", "camera_width must be finite and > 0, got 'x'"),
        ("box_height", True, "box_height must be finite and > 0, got True"),
        ("jitter_sigma", None, "jitter_sigma must be finite and >= 0, got None"),
        ("speed_range", ["a", 2], "speed_range must be finite"),
        ("speed_range", 3, "speed_range must be a list, got 3"),
        ("confusion", {"6": {"substitute": 8, "prob": "0.5"}},
         "confusion 6 prob must be a number in [0, 1], got '0.5'"),
        ("confusion", {"6": {"substitute": 8, "prob": 0.5, "strength": False}},
         "confusion 6 strength must be a number in [0, 1], got False"),
        ("confusion", {"6": {"substitute": "8", "prob": 0.5}},
         "confusion 6 substitute must be an integer >= 0, got '8'"),
        ("confusion", {"6": {"substitute": 8, "probb": 0.5}}, "confusion 6: "),
        ("confusion", [1], "confusion must be an object keyed by jersey number, got [1]"),
        ("vocab_labels", ["a"], "vocab_labels entry must be an integer >= 0, got 'a'"),
        ("home_roster", ["x"], "home_roster entry must be an integer >= 0, got 'x'"),
        ("away_roster", [2.5], "away_roster entry must be an integer >= 0, got 2.5"),
        # Two players would share a number.
        ("home_roster", [2, 2, 4], "home_roster: duplicate jersey labels: [2]"),
        ("away_roster", [5, 6, 5, 7], "away_roster: duplicate jersey labels: [5]"),
    ])
    def test_invalid_scenario_field_exits_2_naming_it(self, tmp_path, capsys, field, value,
                                                       message):
        config = write_config(tmp_path / "config.json", scenario=dict(SCENARIO, **{field: value}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigSections:
    """Each section's fields are checked when the config is loaded (exit 2, field named)."""

    @pytest.mark.parametrize("command, section, fields, message", [
        ("track", "tracker", {"iou_threshold": 1.5}, "iou_threshold must be a number in [0, 1], got 1.5"),
        ("track", "tracker", {"confidence_threshold": "high"},
         "confidence_threshold must be a number in [0, 1], got 'high'"),
        ("track", "tracker", {"max_age": "x"}, "max_age must be an integer >= 0, got 'x'"),
        ("track", "tracker", {"min_hits": -1}, "min_hits must be an integer >= 0, got -1"),
        ("track", "tracker", {"initial_covariance": [10.0] * 6},
         "initial_covariance must hold 7 finite numbers >= 0"),
        ("track", "tracker", {"process_noise": [1, 2]}, "process_noise must hold 7 finite numbers >= 0"),
        ("track", "tracker", {"measurement_noise": [1.0, 1.0, -10.0, 10.0]},
         "measurement_noise must hold 4 finite numbers >= 0"),
        ("track", "tracker", {"initial_covariance": [0] * 7, "process_noise": [0] * 7,
                              "measurement_noise": [0] * 4},
         "process_noise and measurement_noise must not both be 0 on a measured component"),
        ("identify", "ident", {"theta": "x"}, "theta must be in (0, 1), got 'x'"),
        ("identify", "ident", {"window": 1.5}, "window must be an integer >= 1, got 1.5"),
        ("identify", "ident", {"stride": 0}, "stride must be an integer >= 1, got 0"),
        ("identify", "ident", {"method": "median"}, "method must be one of"),
        ("identify", "ident", {"visibility_filtering": 1},
         "visibility_filtering must be true or false, got 1"),
        ("identify", "ident", {"postprocessing": "yes"},
         "postprocessing must be true or false, got 'yes'"),
        ("identify", "ident", {"strict_null_fallback": None},
         "strict_null_fallback must be true or false, got None"),
        ("eval", "metrics", {"iou_threshold": "x"}, "iou_threshold must be a number in [0, 1], got 'x'"),
        ("eval", "metrics", {"delta": -1}, "delta must be an integer >= 0, got -1"),
        ("eval", "metrics", {"delta_min": 40.5}, "delta_min must be an integer >= 0, got 40.5"),
        ("eval", "metrics", {"delta_max": 30}, "delta_min 40 exceeds delta_max 30"),
        ("eval", "metrics", {"delta_step": 0}, "delta_step must be an integer >= 1, got 0"),
        ("simulate", "scenario", dict(SCENARIO, confusion={"six": {"substitute": 8, "prob": 0.5}}),
         "confusion keys must be jersey numbers, got 'six'"),
        ("simulate", "scenario", dict(SCENARIO, confusion={"6": [8, 0.5]}),
         "confusion 6: must be a JSON object, got [8, 0.5]"),
    ])
    def test_invalid_field_exits_2_naming_it(self, tmp_path, capsys, command, section, fields,
                                             message):
        config = write_config(tmp_path / "config.json", **{section: fields})
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"{section}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, section, fields, message", [
        ("track", "tracker", {"max_agee": 5}, "unknown fields: ['max_agee']"),
        ("identify", "ident", {"windw": 9}, "unknown fields: ['windw']"),
        ("eval", "metrics", {"delt": 3}, "unknown fields: ['delt']"),
        ("track", "tracker", ["max_age"], "must be a JSON object, got ['max_age']"),
        ("track", "trackr", {"max_age": 5},
         "unknown section; a config holds paths, videos, tracker, ident, metrics, scenario"),
        ("identify", "paths", {"turth": "truth.json"}, "unknown fields: ['turth']"),
    ])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, command, section, fields,
                                           message):
        config = write_config(tmp_path / "config.json", **{section: fields})
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"{config}: {section}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name, value", [
        ("track", "detections", 5),
        ("eval", "gt", ["gt.csv"]),
        ("identify", "vocab", {"file": "vocab.json"}),
    ])
    def test_path_values_must_be_strings(self, tmp_path, capsys, command, name, value):
        config = write_config(tmp_path / "config.json", paths={name: value})
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"{config}: paths.{name} must be a path, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_paths_must_be_an_object(self, tmp_path, capsys):
        # A list of pairs once passed through dict() and read as a mapping.
        config = write_config(tmp_path / "config.json", paths=[["detections", "nope.csv"]])
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"{config}: paths must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]\n")
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_integer_confusion_keys_accepted(self, tmp_path):
        scenario = dict(SCENARIO, confusion={"6": {"substitute": 8, "prob": 0.5}})
        config = write_config(tmp_path / "config.json", scenario=scenario)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


class TestTrack:
    def test_track_count_matches_objects(self, workspace, capsys):
        tmp_path, config, _ = workspace
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "7 tracks" in capsys.readouterr().out  # 3 + 3 players + 1 referee
        assert (tmp_path / "out" / "tracks.csv").exists()

    def test_empty_detections_empty_output(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        config = write_config(tmp_path / "config.json", paths={"detections": str(empty)})
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "tracks.csv").read_text() == ""

    @pytest.mark.parametrize("name", ["nope.json", "a_directory"])
    def test_bad_config_path_exits_2(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        assert main(["track", "--config", str(tmp_path / name),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"error: config file not found: {tmp_path / name}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.csv", "a_directory"])
    def test_missing_detections_file_exits_2(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        config = write_config(tmp_path / "config.json",
                              paths={"detections": str(tmp_path / name)})
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert (f"error: paths.detections: file not found: {tmp_path / name}"
                in capsys.readouterr().err)

    def test_config_read_from_a_pipe(self, tmp_path):
        """A named pipe is no regular file, yet it is read like one."""
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        pipe = tmp_path / "config.pipe"
        os.mkfifo(pipe)
        text = json.dumps({"paths": {"detections": str(empty)}})
        # Opening a pipe to write blocks until it is opened to read.
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        assert main(["track", "--config", str(pipe), "--out", str(tmp_path / "out")]) == 0
        writer.join(timeout=5)
        assert not writer.is_alive()

    def test_malformed_detections_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,-1,oops,0,10,10,1.0\n")
        config = write_config(tmp_path / "config.json", paths={"detections": str(bad)})
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "out")]) == 1

    def test_extra_fields_exit_1_naming_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,-1,1,2,10,10,1.0\n1,-1,10,20,30,40,0.9,junk\n")
        config = write_config(tmp_path / "config.json", paths={"detections": str(bad)})
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"{bad}: line 2: expected 7 comma-separated fields, got 8" in capsys.readouterr().err


class TestIdentify:
    def test_emits_both_accuracy_columns(self, workspace):
        tmp_path, config, _ = workspace
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "identities.json").read_text())
        assert payload["roster_masking"] is True
        assert set(payload["accuracy"]) == {"with_roster", "without_roster"}
        assert payload["accuracy"]["with_roster"] == 1.0
        row = payload["tracks"][0]
        assert {"track_id", "team", "identity", "jersey",
                "identity_unmasked", "p_jn"} <= set(row)

    def test_referee_rows_use_sentinel(self, workspace):
        tmp_path, config, _ = workspace
        main(["identify", "--config", str(config), "--out", str(tmp_path / "out")])
        payload = json.loads((tmp_path / "out" / "identities.json").read_text())
        referees = [r for r in payload["tracks"] if r["team"] == "referee"]
        assert referees
        assert all(r["jersey"] == "ref" and r["identity"] == -1 for r in referees)

    def test_no_roster_flag(self, workspace):
        tmp_path, config, _ = workspace
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--no-roster"]) == 0
        payload = json.loads((tmp_path / "out" / "identities.json").read_text())
        assert payload["roster_masking"] is False
        assert set(payload["accuracy"]) == {"without_roster"}

    def test_aggregation_flag(self, workspace):
        tmp_path, config, _ = workspace
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--aggregation", "majority"]) == 0
        payload = json.loads((tmp_path / "out" / "identities.json").read_text())
        assert payload["aggregation"] == "majority"

    def test_missing_scorer_coverage_exits_1(self, workspace, capsys):
        tmp_path, config, bundle_dir = workspace
        # Shift the track ids so the score files cannot cover them.
        shifted = []
        for line in (bundle_dir / "gt.csv").read_text().splitlines():
            parts = line.split(",")
            parts[1] = str(int(parts[1]) + 100)
            shifted.append(",".join(parts))
        (tmp_path / "shifted.csv").write_text("\n".join(shifted) + "\n")
        data = json.loads(config.read_text())
        data["paths"]["tracks"] = str(tmp_path / "shifted.csv")
        config.write_text(json.dumps(data))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "track 101" in capsys.readouterr().err


    @pytest.mark.parametrize("name", ["frame_scores.jsonl", "window_scores.jsonl"])
    def test_score_width_must_match_vocabulary(self, workspace, capsys, name):
        tmp_path, config, bundle_dir = workspace
        # Drop the null class and renormalise: valid rows, one class short.
        path = bundle_dir / name
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            probs = row["probs"][:-1]
            row["probs"] = [p / sum(probs) for p in probs]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{path}:1: expected 13 probabilities, got 12" in err

    def test_invalid_score_line_exits_1_naming_it(self, workspace, capsys):
        tmp_path, config, bundle_dir = workspace
        path = bundle_dir / "team_scores.jsonl"
        lines = path.read_text().splitlines()
        lines[4] = lines[4].replace('"team_probs": [', '"team_probs": [NaN, ', 1)
        path.write_text("\n".join(lines) + "\n")
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"{path}:5: " in capsys.readouterr().err

    def test_repeated_track_id_on_a_frame_exits_1_naming_the_file(self, workspace, capsys):
        tmp_path, config, bundle_dir = workspace
        first = (bundle_dir / "gt.csv").read_text().splitlines()[0]
        frame, track_id = first.split(",")[:2]
        tracks = tmp_path / "dup.csv"
        tracks.write_text((bundle_dir / "gt.csv").read_text()
                          + f"{frame},{track_id},300.0,250.0,20.0,30.0,1.0\n")
        data = json.loads(config.read_text())
        data["paths"]["tracks"] = str(tracks)
        config.write_text(json.dumps(data))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert (f"error: {tracks}: frame {frame}: id {track_id} is listed more than once"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_raw_detection_file_exits_1_naming_it(self, workspace, capsys):
        tmp_path, config, bundle_dir = workspace
        data = json.loads(config.read_text())
        data["paths"]["tracks"] = str(bundle_dir / "det.csv")  # every id is -1
        config.write_text(json.dumps(data))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert (f"error: {bundle_dir / 'det.csv'}: no row has a track id (>= 0)"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_empty_tracks_file_identifies_nothing(self, workspace, capsys):
        tmp_path, config, _ = workspace
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        data = json.loads(config.read_text())
        data["paths"]["tracks"] = str(empty)
        config.write_text(json.dumps(data))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "0 tracklets identified" in capsys.readouterr().out
        assert json.loads((tmp_path / "out" / "identities.json").read_text())["tracks"] == []

    def test_roster_number_outside_vocabulary_exits_1_naming_the_file(self, workspace, capsys):
        tmp_path, config, bundle_dir = workspace
        rosters = bundle_dir / "rosters.json"
        data = json.loads(rosters.read_text())
        rosters.write_text(json.dumps({"home": data["home"] + [999], "away": data["away"]}))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert (f"error: {rosters}: roster numbers not in vocabulary: [999]"
                in capsys.readouterr().err)

    def test_truth_jersey_outside_vocabulary_exits_1_naming_the_file(self, workspace, capsys):
        tmp_path, config, bundle_dir = workspace
        truth = bundle_dir / "truth.json"
        data = json.loads(truth.read_text())
        tid = next(t for t, row in data["tracks"].items() if row["jersey"] is not None)
        data["tracks"][tid]["jersey"] = 99
        truth.write_text(json.dumps(data))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert (f"error: {truth}: track {tid}: jersey number 99 not in vocabulary"
                in capsys.readouterr().err)

    def test_truth_without_gt_exits_2_naming_both_keys(self, workspace, capsys):
        tmp_path, config, _ = workspace
        data = json.loads(config.read_text())
        del data["paths"]["gt"]
        config.write_text(json.dumps(data))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "error: paths.truth needs paths.gt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ground_truth_id_missing_from_truth_exits_1_naming_both_files(self, workspace,
                                                                         capsys):
        tmp_path, config, bundle_dir = workspace
        truth = bundle_dir / "truth.json"
        data = json.loads(truth.read_text())
        del data["tracks"]["2"]
        truth.write_text(json.dumps(data))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert (f"error: {truth}: no entry for track 2 of {bundle_dir / 'gt.csv'}"
                in capsys.readouterr().err)

    def test_expected_classes_on_gt_are_the_bundles(self, workspace, monkeypatch):
        tmp_path, config, bundle_dir = workspace
        bundle = sim.generate(sim.ScenarioConfig.from_dict(SCENARIO), 5)
        tracklets = core.rows_to_tracks(core.parse_detection_file(bundle_dir / "gt.csv"))
        want = {t.track_id: bundle.expected_class(t) for t in tracklets}
        staged = []
        real = sim.expected_classes
        monkeypatch.setattr(sim, "expected_classes",
                            lambda *args: staged.append(real(*args)) or staged[-1])
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert staged == [want]

    def test_permuted_ids_are_scored_by_their_ground_truth_owner(self, workspace):
        tmp_path, config, bundle_dir = workspace
        bundle = sim.generate(sim.ScenarioConfig.from_dict(SCENARIO), 5)
        ids = sorted(trk.track_id for trk in bundle.gt_tracks)
        assert len({tuple(trk.frames) for trk in bundle.gt_tracks}) == 1  # one frame span
        # Each track takes the next one's id, so the score files still cover every id.
        moved = dict(zip(ids, ids[1:] + ids[:1]))
        rows = [(moved[tid], d) for tid, d in core.parse_detection_file(bundle_dir / "gt.csv")]
        permuted = tmp_path / "permuted.csv"
        core.save_detection_file(sorted(rows, key=lambda r: (r[1].frame, r[0])), permuted)
        data = json.loads(config.read_text())
        data["paths"]["tracks"] = str(permuted)
        config.write_text(json.dumps(data))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "identities.json").read_text())
        tracklets = {t.track_id: t for t in core.rows_to_tracks(rows)}
        for arm, field in (("without_roster", "identity_unmasked"), ("with_roster", "identity")):
            scored = [(row[field], bundle.expected_class(tracklets[row["track_id"]]))
                      for row in payload["tracks"]]
            assert payload["accuracy"][arm] == sum(got == want for got, want in scored) / len(scored)
        assert payload["accuracy"]["without_roster"] < 1.0  # the ids no longer name the owners

    def test_one_identification_pass(self, workspace, monkeypatch):
        tmp_path, config, _ = workspace
        calls = []
        real = cli.run_pipeline
        monkeypatch.setattr(cli, "run_pipeline",
                            lambda *args, **kwargs: calls.append(kwargs) or real(*args, **kwargs))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert calls == [{"mask_rosters": True}]


class TestStagedIdentify:
    """``identify`` over a written bundle's files gives ``run_pipeline``'s identities in memory."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), window=st.integers(1, 12), stride=st.integers(1, 5),
           players=st.integers(1, 3), duration=st.integers(20, 60),
           visibility=st.sampled_from([0.2, 0.5, 0.8]), null_rate=st.sampled_from([0.0, 0.4]),
           pan=st.booleans(), confusion=st.booleans(),
           method=st.sampled_from(["avg", "majority"]))
    def test_identities_on_gt_match_run_pipeline(self, seed, window, stride, players, duration,
                                                 visibility, null_rate, pan, confusion, method):
        scenario = dict(SCENARIO, players_per_team=players, duration=duration, window=window,
                        stride=stride, visibility_profile=visibility, null_tracklet_rate=null_rate,
                        confusion={"6": {"substitute": 8, "prob": 0.5}} if confusion else {},
                        pan_profile=[[0, 0.0], [10, 150.0], [15, 150.0]] if pan else [[0, 0.0]])
        ident = {"window": window, "stride": stride, "method": method}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            config = write_config(root / "config.json", scenario=scenario, ident=ident)
            assert main(["simulate", "--config", str(config), "--seed", str(seed),
                         "--out", str(root / "bundle")]) == 0
            paths = bundle_paths(root / "bundle")
            paths["tracks"] = paths["gt"]
            config = write_config(root / "config.json", scenario=scenario, ident=ident, paths=paths)
            assert main(["identify", "--config", str(config), "--out", str(root / "out")]) == 0
            staged = json.loads((root / "out" / "identities.json").read_text())["tracks"]

        bundle = sim.generate(sim.ScenarioConfig.from_dict(scenario), seed)
        rosters = Rosters(home=core.build_roster_vector(bundle.home_roster, bundle.vocab),
                          away=core.build_roster_vector(bundle.away_roster, bundle.vocab))
        results = run_pipeline(bundle.gt_tracks, sim.oracle_scorers(bundle), rosters,
                               bundle.vocab, IdentParams(**ident))
        keys = ("track_id", "team", "identity", "identity_unmasked", "p_jn")
        assert [{k: row[k] for k in keys} for row in staged] == [
            {"track_id": r.track_id, "team": r.team.name.lower(), "identity": r.identity,
             "identity_unmasked": r.identity_unmasked, "p_jn": r.p_jn.values.tolist()}
            for r in results]


class TestInputFiles:
    """Vocabulary, roster and truth files are checked where they are read (exit 1, file named)."""

    @pytest.mark.parametrize("name, content, message", [
        ("vocab.json", ["a", 2], "vocabulary entries must be integers, got 'a'"),
        ("vocab.json", [1, True], "vocabulary entries must be integers, got True"),
        ("vocab.json", [1, 1.5], "vocabulary entries must be integers, got 1.5"),
        ("vocab.json", {"labels": [1]}, "vocabulary must be a list of integers"),
        ("vocab.json", [1, 1], "duplicate jersey labels: [1]"),
        ("vocab.json", [], "vocabulary must hold at least one jersey number"),
        ("rosters.json", {"home": ["x"], "away": [4]}, "home roster entries must be integers, got 'x'"),
        ("rosters.json", {"home": [1], "away": 4}, "away roster must be a list of integers, got 4"),
        ("truth.json", {"track": {}}, 'truth file must be an object with a "tracks" object'),
        ("truth.json", {"tracks": {"1": {"team": "goalie", "jersey": 1}}},
         "track 1: team must be one of home, away, referee"),
        ("truth.json", {"tracks": {"1": {"team": "home", "jersey": "7"}}},
         "track 1: jersey must be an integer or null, got '7'"),
        ("truth.json", {"tracks": {"1": {"team": "home", "jersey": 1.5}}},
         "track 1: jersey must be an integer or null, got 1.5"),
        ("truth.json", {"tracks": {"one": {"team": "home", "jersey": 1}}},
         "track 'one': track ids must be integers"),
        ("truth.json", {"tracks": {"07": {"team": "home", "jersey": None, "null_tracklet": 1}}},
         "track 7: null_tracklet must be true or false"),
        # int() reads these as 10, 3 and 7.
        ("truth.json", {"tracks": {"1_0": {"team": "home", "jersey": 1}}},
         "track '1_0': track ids must be integers"),
        ("truth.json", {"tracks": {"\u0663": {"team": "home", "jersey": 1}}},
         "track '\u0663': track ids must be integers"),
        ("truth.json", {"tracks": {" 7 ": {"team": "home", "jersey": 1}}},
         "track ' 7 ': track ids must be integers"),
        ("truth.json", {"tracks": {"7": {"team": "home", "jersey": 1},
                                   "07": {"team": "away", "jersey": 2}}},
         "tracks '7' and '07' both name track 7"),
        ("truth.json", {"tracks": {"1": {"team": "home", "jersey": 1, "nul_tracklet": True}}},
         "track 1: unknown fields: ['nul_tracklet']"),
        ("truth.json", {"tracks": {"1": {"team": "home", "jersey": 7, "null_tracklet": True}}},
         "track 1: null_tracklet must be false when jersey is 7"),
        ("truth.json", {"tracks": {"1": {"team": "away", "jersey": None, "null_tracklet": False}}},
         "track 1: null_tracklet must be true when jersey is null"),
        ("rosters.json", {"home": [1], "away": [4], "hoem": [2]}, "unknown fields: ['hoem']"),
        ("rosters.json", {"home": [1, 2, 1], "away": [4]},
         "home roster: duplicate jersey labels: [1]"),
        ("rosters.json", {"home": [1], "away": [4, 5, 4]},
         "away roster: duplicate jersey labels: [4]"),
    ])
    def test_invalid_entry_exits_1_naming_the_file(self, workspace, capsys, name, content,
                                                   message):
        tmp_path, config, bundle_dir = workspace
        path = bundle_dir / name
        path.write_text(json.dumps(content))
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"tracks": {"7": {"team": "home", "jersey": 1}, "7": {"team": "referee"}}}', "7"),
        ('{"tracks": {"7": {"team": "home", "jersey": 1, "team": "away"}}}', "team"),
    ])
    def test_repeated_truth_key_exits_1_naming_the_file(self, workspace, capsys, text, key):
        tmp_path, config, bundle_dir = workspace
        (bundle_dir / "truth.json").write_text(text)  # json.loads would keep the last value
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert (f"error: {bundle_dir / 'truth.json'}: key {key!r} is given twice in one object"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name, repeat, key, code", [
        ("config", '"ident": {"window": 9}', "ident", 2),
        ("config", '"tracker": {"max_age": 5, "max_age": 7}', "max_age", 2),
        ("rosters", '"home": [1]', "home", 1),
    ])
    def test_repeated_key_exits_naming_the_file_and_key(self, workspace, capsys, name, repeat,
                                                        key, code):
        """A key given first in ``repeat`` and again in the file; json.loads keeps the last."""
        tmp_path, config, _ = workspace
        path = config if name == "config" else Path(json.loads(config.read_text())["paths"][name])
        path.write_text("{" + repeat + ", " + path.read_text().lstrip()[1:])
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == code
        assert f"error: {path}: key {key!r} is given twice in one object" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["vocab.json", "rosters.json", "truth.json"])
    def test_malformed_json_exits_1_naming_the_file(self, workspace, capsys, name):
        tmp_path, config, bundle_dir = workspace
        (bundle_dir / name).write_text("{not json")
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {bundle_dir / name}: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, code", [
        ("track", "config", 2), ("track", "detections", 1), ("identify", "tracks", 1),
        ("eval", "gt", 1), ("identify", "vocab", 1), ("identify", "rosters", 1),
        ("identify", "truth", 1), ("identify", "frame_scores", 1),
        ("identify", "team_scores", 1), ("identify", "window_scores", 1),
    ])
    def test_undecodable_byte_exits_naming_the_file(self, workspace, capsys, command, name,
                                                     code):
        """Every input is read as UTF-8; a score file names the line holding the bad byte."""
        tmp_path, config, _ = workspace
        path = config if name == "config" else Path(json.loads(config.read_text())["paths"][name])
        lines = path.read_bytes().splitlines(keepends=True)
        where, line = (f"{path}:2", 1) if name.endswith("_scores") else (f"{path}", 0)
        lines[line] = b"\xff" + lines[line]
        path.write_bytes(b"".join(lines))
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert f"error: {where}: 'utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err


class TestEval:
    def test_self_evaluation_perfect_row(self, workspace):
        tmp_path, config, _ = workspace
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aggregate"]["mota"] == 1.0
        assert report["aggregate"]["idf1"] == 1.0
        table = (tmp_path / "out" / "report.txt").read_text()
        assert "100.00" in table and table.splitlines()[-1].startswith("ALL")

    def test_sweep_rows_cover_delta_range(self, workspace):
        tmp_path, config, _ = workspace
        main(["eval", "--config", str(config), "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "pan_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "video,delta,pan_idsw,proportion"
        deltas = [int(l.split(",")[1]) for l in lines[1:]]
        assert deltas == list(range(40, 81, 5))

    def test_frame_range_mismatch_warns(self, workspace, capsys):
        tmp_path, config, bundle_dir = workspace
        gt_lines = (bundle_dir / "gt.csv").read_text().splitlines()
        clipped = [l for l in gt_lines if int(l.split(",")[0]) < 60]
        (tmp_path / "clipped.csv").write_text("\n".join(clipped) + "\n")
        data = json.loads(config.read_text())
        data["paths"]["tracks"] = str(tmp_path / "clipped.csv")
        config.write_text(json.dumps(data))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "frame ranges differ" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aggregate"]["mota"] == 1.0  # evaluated on the overlap

    def test_hand_computed_mota(self, tmp_path):
        # GT: one object, 10 frames. Pred misses frames 8-9 (FN=2) and adds
        # a far-away box on frames 7-9 (FP=3), keeping the frame ranges
        # aligned so no clipping applies: MOTA = 1 - 5/10 = 0.5.
        gt = "\n".join(f"{f},1,100.0,100.0,20.0,20.0,1.0" for f in range(10))
        pred_rows = [f"{f},1,100.0,100.0,20.0,20.0,1.0" for f in range(8)]
        pred_rows += [f"{f},2,900.0,900.0,20.0,20.0,1.0" for f in range(7, 10)]
        (tmp_path / "gt.csv").write_text(gt + "\n")
        (tmp_path / "pred.csv").write_text("\n".join(pred_rows) + "\n")
        config = write_config(tmp_path / "config.json",
                              paths={"gt": str(tmp_path / "gt.csv"),
                                     "tracks": str(tmp_path / "pred.csv")})
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        agg = report["aggregate"]
        assert (agg["fp"], agg["fn"], agg["idsw"]) == (3, 2, 0)
        assert agg["mota"] == 0.5

    def test_multi_video_aggregate(self, workspace):
        tmp_path, config, bundle_dir = workspace
        data = json.loads(config.read_text())
        gt = data["paths"]["gt"]
        data["videos"] = [
            {"name": "v1", "gt": gt, "tracks": gt},
            {"name": "v2", "gt": gt, "tracks": gt},
        ]
        config.write_text(json.dumps(data))
        main(["eval", "--config", str(config), "--out", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["name"] for r in report["per_video"]] == ["v1", "v2"]


    def test_each_video_evaluated_once(self, workspace, monkeypatch):
        tmp_path, config, bundle_dir = workspace
        data = json.loads(config.read_text())
        gt = data["paths"]["gt"]
        data["videos"] = [{"name": f"v{i}", "gt": gt, "tracks": gt} for i in range(3)]
        config.write_text(json.dumps(data))
        calls = []
        real = metrics.evaluate_video
        monkeypatch.setattr(metrics, "evaluate_video",
                            lambda name, *args: calls.append(name) or real(name, *args))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert calls == ["v0", "v1", "v2"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["name"] for r in report["pan"]["per_video"]] == ["v0", "v1", "v2"]

    def test_repeated_track_id_on_a_frame_exits_1_naming_the_file(self, workspace, capsys):
        tmp_path, config, bundle_dir = workspace
        first = (bundle_dir / "gt.csv").read_text().splitlines()[0]
        frame, track_id = first.split(",")[:2]
        tracks = tmp_path / "tracks.csv"
        tracks.write_text((bundle_dir / "gt.csv").read_text()
                          + f"{frame},{track_id},300.0,250.0,20.0,30.0,1.0\n")
        data = json.loads(config.read_text())
        data["paths"]["tracks"] = str(tracks)
        config.write_text(json.dumps(data))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert (f"{tracks}: frame {frame}: id {track_id} is listed more than once"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("in_videos", [False, True])
    def test_empty_ground_truth_exits_1_naming_the_file(self, workspace, capsys, in_videos):
        tmp_path, config, _ = workspace
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        data = json.loads(config.read_text())
        if in_videos:
            data["videos"] = [{"name": "v", "gt": str(empty), "tracks": data["paths"]["tracks"]}]
        else:
            data["paths"]["gt"] = str(empty)
        config.write_text(json.dumps(data))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        where = f"videos entry 'v': {empty}" if in_videos else f"{empty}"
        assert (f"error: {where}: no ground-truth rows to evaluate; MOTA needs at least one"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side", ["gt", "tracks"])
    def test_untracked_ids_exit_1_naming_the_file(self, workspace, capsys, side):
        tmp_path, config, bundle_dir = workspace
        data = json.loads(config.read_text())
        data["paths"][side] = str(bundle_dir / "det.csv")
        config.write_text(json.dumps(data))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{bundle_dir / 'det.csv'}: frame 0: id -1 is not a track id" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("videos", [[1], ["gt.csv"], {"name": "v"}, "gt.csv", 5])
    def test_videos_must_be_a_list_of_objects(self, workspace, capsys, videos):
        tmp_path, config, _ = workspace
        data = json.loads(config.read_text())
        data["videos"] = videos
        config.write_text(json.dumps(data))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "videos must be a list of objects" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.csv", "a_directory"])
    def test_missing_video_file_exits_2_naming_the_entry(self, workspace, capsys, name):
        tmp_path, config, _ = workspace
        (tmp_path / "a_directory").mkdir()
        data = json.loads(config.read_text())
        data["videos"] = [{"name": "v", "gt": data["paths"]["gt"], "tracks": str(tmp_path / name)}]
        config.write_text(json.dumps(data))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert (f"error: videos entry 'v': file not found: {tmp_path / name}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, value, message", [
        ("tracks", 7, "videos entry 'v': tracks must be a path, got 7"),
        ("name", [1], "videos entry names must be strings, got [1]"),
        ("trakcs", "x.csv", "videos entry 'v': unknown fields: ['trakcs']"),
        # The first entry is named by its position; the second takes that name.
        ("name", "video_0", "videos entry 'video_0' is given twice"),
    ])
    def test_bad_video_entry_exits_2_naming_it(self, workspace, capsys, key, value, message):
        tmp_path, config, _ = workspace
        data = json.loads(config.read_text())
        gt = data["paths"]["gt"]
        data["videos"] = [{"gt": gt, "tracks": gt},
                          {"name": "v", "gt": gt, "tracks": gt, key: value}]
        config.write_text(json.dumps(data))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err


class TestPipeline:
    def test_full_run_from_scenario(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        assert main(["pipeline", "--config", str(config), "--seed", "4",
                     "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aggregate"]["mota"] == 1.0
        assert report["identification_accuracy"]["with_roster"] == 1.0
        identities = json.loads((tmp_path / "out" / "identities.json").read_text())
        assert len(identities["tracks"]) == 7

    def test_pipeline_outputs_deterministic(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        for name in ("a", "b"):
            assert main(["pipeline", "--config", str(config), "--seed", "4",
                         "--out", str(tmp_path / name)]) == 0
        for rel in ("tracks.csv", "identities.json", "report.json", "report.txt",
                    "pan_sweep.csv", "bundle/gt.csv", "bundle/det.csv"):
            assert ((tmp_path / "a" / rel).read_bytes()
                    == (tmp_path / "b" / rel).read_bytes()), rel

    def test_simulated_run_rejects_configured_inputs(self, tmp_path, capsys):
        # Another bundle's gt and rosters: before, the fresh scene was scored
        # against them and the run reported MOTA -100% with exit 0.
        other = tmp_path / "other"
        config = write_config(tmp_path / "config.json")
        assert main(["simulate", "--config", str(config), "--seed", "9",
                     "--out", str(other)]) == 0
        stale = write_config(tmp_path / "stale.json", paths={
            "gt": str(other / "gt.csv"), "rosters": str(other / "rosters.json")})
        assert main(["pipeline", "--config", str(stale), "--seed", "4",
                     "--out", str(tmp_path / "out")]) == 2
        assert "paths.gt, paths.rosters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # A simulating run and a run from files: before, both ignored the videos
    # without a word and exited 0, reporting only video_0.
    @pytest.mark.parametrize("paths", [{}, {"detections": "det.csv"}])
    def test_videos_exit_2_naming_them(self, tmp_path, capsys, paths):
        config = write_config(tmp_path / "config.json", paths=paths, videos=[
            {"name": "mine", "gt": "nope.csv", "tracks": "nope2.csv"}])
        assert main(["pipeline", "--config", str(config), "--seed", "4",
                     "--out", str(tmp_path / "out")]) == 2
        assert "cannot also read videos" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulated_run_reads_its_own_bundle(self, tmp_path, monkeypatch):
        config = cli.load_config(write_config(
            tmp_path / "config.json", paths={"tracks": "elsewhere.csv"}))
        before = (dict(config.paths), list(config.videos))
        calls = []
        real = cli.run_pipeline
        monkeypatch.setattr(cli, "run_pipeline",
                            lambda *args, **kwargs: calls.append(kwargs) or real(*args, **kwargs))
        out = tmp_path / "out"
        assert cli.cmd_pipeline(config, 4, out, mask_rosters=True, method=None) == 0
        assert (dict(config.paths), list(config.videos)) == before
        assert calls == [{"mask_rosters": True}]
        report = json.loads((out / "report.json").read_text())
        assert [v["name"] for v in report["per_video"]] == ["video_0"]
        assert report["aggregate"]["mota"] == 1.0
        assert report["identification_accuracy"] == {"with_roster": 1.0, "without_roster": 1.0}

    def test_runs_each_stage_command_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("cmd_simulate", "cmd_track", "cmd_identify", "cmd_eval"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, _name=name, _real=real, **kwargs:
                                calls.append(_name) or _real(*args, **kwargs))
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--seed", "4", "--out", str(out)]) == 0
        assert calls == ["cmd_simulate", "cmd_track", "cmd_identify", "cmd_eval"]
        stdout = capsys.readouterr().out
        assert f"bundle written to {out / 'bundle'} (seed 4)" in stdout
        assert f"tracklets identified -> {out / 'identities.json'}" in stdout
        assert "accuracy with_roster: 100.00%" in stdout


class TestThetaSweepScript:
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_scenarios_below_one_is_usage_error(self, count):
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "theta_sweep.py"), "--scenarios", count],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert f"--scenarios must be at least 1, got {count}" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("count", ["1_0", "\u0661", "2.0"])  # int() reads 10 and 1
    def test_scenarios_not_an_ascii_integer_is_usage_error(self, count):
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "theta_sweep.py"), "--scenarios", count],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert f"argument --scenarios: must be an integer, got {count!r}" in done.stderr
        assert done.stdout == ""


class TestScriptSeed:
    @pytest.mark.parametrize("script", ["run_showcase.py", "theta_sweep.py"])
    def test_negative_seed_is_usage_error(self, script):
        done = subprocess.run([sys.executable, str(SCRIPTS / script), "--seed", "-1"],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "--seed: must be an integer >= 0, got '-1'" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""
