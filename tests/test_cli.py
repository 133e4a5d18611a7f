import json
from pathlib import Path

import pytest

from rinktrack.cli import main

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

    def test_bad_config_path_exits_2(self, tmp_path):
        assert main(["track", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_detections_file_exits_2(self, tmp_path):
        config = write_config(tmp_path / "config.json",
                              paths={"detections": str(tmp_path / "missing.csv")})
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    def test_malformed_detections_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,-1,oops,0,10,10,1.0\n")
        config = write_config(tmp_path / "config.json", paths={"detections": str(bad)})
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "out")]) == 1


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
        assert f"{path}: score rows have 12 classes, vocabulary has 13" in err

    def test_invalid_score_line_exits_1_naming_it(self, workspace, capsys):
        tmp_path, config, bundle_dir = workspace
        path = bundle_dir / "team_scores.jsonl"
        lines = path.read_text().splitlines()
        lines[4] = lines[4].replace('"team_probs": [', '"team_probs": [NaN, ', 1)
        path.write_text("\n".join(lines) + "\n")
        assert main(["identify", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"{path}:5: " in capsys.readouterr().err


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
